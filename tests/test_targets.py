import numpy as np
import pytest

from cslkit import targets
from cslkit.csl_codec import CslCodecConfig
from cslkit.targets import AnchorGridSpec, AssignmentConfig, assign_targets, generate_anchors
from cslkit.rotgeom import canonicalize180, rotated_iou
from oracles import clipped_iou

CSL_CFG = CslCodecConfig("gaussian", 6.0)


class TestAnchorGeneration:
    def test_single_location_count(self):
        spec = AnchorGridSpec(image_size=32, strides=(32,))
        anchors = generate_anchors(spec)
        assert len(anchors) == 7
        assert all(a.cx == 16.0 and a.cy == 16.0 for a in anchors)

    def test_area_preserving_ratios(self):
        spec = AnchorGridSpec(image_size=32, strides=(32,), base_scale=1.0)
        for a in generate_anchors(spec):
            assert a.h * a.w == pytest.approx(32.0**2, rel=1e-9)
        ratios = sorted(max(a.h / a.w, a.w / a.h) for a in generate_anchors(spec))
        assert ratios == pytest.approx([1, 2, 2, 4, 4, 6, 6], rel=1e-9)

    def test_horizontal_anchors_axis_aligned(self):
        spec = AnchorGridSpec(image_size=64, strides=(32,))
        for a in generate_anchors(spec, mode="horizontal"):
            assert a.theta in (0.0, -90.0)

    def test_rotated_mode_multiplies_counts(self):
        spec = AnchorGridSpec(image_size=32, strides=(32,))
        assert len(generate_anchors(spec, mode="rotated")) == 42

    def test_multi_level_counts(self):
        spec = AnchorGridSpec(image_size=32, strides=(16, 32))
        assert len(generate_anchors(spec)) == (4 + 1) * 7

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            AnchorGridSpec(image_size=30, strides=(32,))


class TestAssignment:
    def test_gt_equal_to_anchor(self):
        spec = AnchorGridSpec(image_size=32, strides=(32,))
        anchors = generate_anchors(spec)
        gt = anchors[0]
        res = assign_targets(anchors, [(gt, 3)], AssignmentConfig(anchor_mode="horizontal"), CSL_CFG)
        i = int(np.argmax(res.max_iou))
        assert res.labels[i] == 1
        assert res.class_ids[i] == 3
        assert res.reg_targets[i].as_array() == pytest.approx(np.zeros(5), abs=1e-12)

    def test_forced_best_anchor_below_threshold(self):
        # gt overlaps everything below fg_iou; forced matching still
        # yields exactly one foreground anchor
        spec = AnchorGridSpec(image_size=32, strides=(32,))
        anchors = generate_anchors(spec)
        gt = canonicalize180(2.0, 2.0, 6.0, 3.0, 0.0)
        res = assign_targets(anchors, [(gt, 0)], AssignmentConfig(anchor_mode="horizontal"), CSL_CFG)
        assert res.max_iou.max() < 0.5
        assert np.count_nonzero(res.labels == 1) == 1

    def test_two_gts_share_best_anchor(self):
        anchors = [canonicalize180(16, 16, 8, 4, 0)]
        g1 = canonicalize180(16, 16, 8, 4, 0)
        g2 = canonicalize180(17, 16, 8, 4, 0)
        cfg = AssignmentConfig(anchor_mode="rotated")
        res = assign_targets(anchors, [(g1, 0), (g2, 1)], cfg, CSL_CFG)
        assert res.matched_gt[0] == 0  # higher IoU (identical box) wins
        res2 = assign_targets(anchors, [(g2, 1), (g1, 0)], cfg, CSL_CFG)
        assert res2.matched_gt[0] == 1  # same gt wins regardless of order

    def test_partition_fg_bg_ignore(self):
        spec = AnchorGridSpec(image_size=32, strides=(8, 16, 32))
        anchors = generate_anchors(spec)
        gts = [(canonicalize180(16, 16, 20, 10, 0), 0), (canonicalize180(8, 8, 6, 6, 0), 1)]
        res = assign_targets(anchors, gts, AssignmentConfig(anchor_mode="horizontal"), CSL_CFG)
        assert set(np.unique(res.labels)) <= {-1, 0, 1}
        # every gt got at least one anchor
        assert set(res.matched_gt[res.labels == 1]) == {0, 1}
        # fg anchors carry targets, others do not
        fg = set(np.flatnonzero(res.labels == 1))
        assert set(res.reg_targets) == {int(i) for i in fg}
        assert set(res.csl_labels) == {int(i) for i in fg}

    def test_rotated_mode_uses_rotated_iou(self):
        anchors = [canonicalize180(0, 0, 8, 1, 45)]
        gt = canonicalize180(0, 0, 8, 1, 45)
        res = assign_targets(anchors, [(gt, 0)], AssignmentConfig(anchor_mode="rotated"), CSL_CFG)
        assert res.max_iou[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(2))
    def test_rotated_matches_per_pair_reference(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        anchors = generate_anchors(AnchorGridSpec(image_size=32, strides=(8, 16), base_scale=1.5), mode="rotated")

        def oracle_matrix(a, g, mode):
            return np.array([[clipped_iou(x, y) for y in g] for x in a])

        # anchors of equal area tie exactly inside a larger gt, and rounding
        # then picks the forced anchor; keep gts whose best anchor is clear
        gts = []
        while len(gts) < 4:
            box = canonicalize180(*rng.uniform(2, 30, 2), *rng.uniform(4, 20, 2), rng.uniform(-90, 90))
            column = np.sort(targets._iou_matrix(anchors, [box], "rotated")[:, 0])
            if column[-1] - column[-2] > 1e-9:
                gts.append((box, len(gts)))
        cfg = AssignmentConfig(anchor_mode="rotated")
        got = assign_targets(anchors, gts, cfg, CSL_CFG)
        monkeypatch.setattr(targets, "_iou_matrix", oracle_matrix)
        want = assign_targets(anchors, gts, cfg, CSL_CFG)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.matched_gt, want.matched_gt)
        assert np.abs(got.max_iou - want.max_iou).max() <= 1e-12
        assert np.count_nonzero(got.labels == 1) > len(gts)

    def test_permutation_invariance(self):
        spec = AnchorGridSpec(image_size=32, strides=(16,))
        anchors = generate_anchors(spec)
        gts = [(canonicalize180(8, 8, 10, 5, 0), 0), (canonicalize180(24, 24, 12, 6, -30), 1)]
        a = assign_targets(anchors, gts, AssignmentConfig(anchor_mode="horizontal"), CSL_CFG)
        b = assign_targets(anchors, gts[::-1], AssignmentConfig(anchor_mode="horizontal"), CSL_CFG)
        # matched gt indices map through the permutation
        remap = {0: 1, 1: 0, -1: -1}
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.matched_gt, np.vectorize(remap.get)(b.matched_gt))

    def test_empty_anchor_list(self):
        with pytest.raises(ValueError):
            assign_targets([], [], AssignmentConfig(), CSL_CFG)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            AssignmentConfig(fg_iou=0.3, bg_iou=0.4)
