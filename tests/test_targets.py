from dataclasses import astuple

import numpy as np
import pytest

from cslkit import targets
from cslkit.csl_codec import CslCodecConfig, encode
from cslkit.losses import encode_regression
from cslkit.targets import AnchorGridSpec, AssignmentConfig, assign_targets, generate_anchors
from cslkit.rotgeom import aligned_bbox, aligned_iou, canonicalize90, canonicalize180, to_quad
from oracles import clipped_iou, loop_generate_anchors

CSL_CFG = CslCodecConfig("gaussian", 6.0)


class TestAnchorGeneration:
    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    @pytest.mark.parametrize("spec", [
        AnchorGridSpec(image_size=32, strides=(32,)),
        AnchorGridSpec(image_size=32, strides=(8, 16), base_scale=1.5),
        AnchorGridSpec(image_size=48, strides=(16, 8, 24), base_scale=3, aspect_ratios=(0.3, 1, 7 / 3, 2.0),
                       angles=(-90.0, -37.5, 0, 45.0, 89.99, 135.0, -270.0)),
        AnchorGridSpec(image_size=64, strides=()),
    ])
    def test_bit_equal_to_per_anchor_loop(self, spec, mode):
        got, want = generate_anchors(spec, mode), loop_generate_anchors(spec, mode)
        assert got == want
        assert np.array([astuple(a) for a in got]).tobytes() == np.array([astuple(a) for a in want]).tobytes()
        assert all(type(v) is float for a in got for v in astuple(a))

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


def _corner_bbox(box):
    pts = to_quad(box).as_array()
    return (pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max())


class TestArrayPaths:
    def test_horizontal_iou_matrix_equals_per_pair(self):
        rng = np.random.default_rng(21)
        boxes = []
        for scale in 10.0 ** np.arange(-3, 5):
            for k in range(16):
                theta = (rng.uniform(-180, 180), 0.0, -90.0, 45.0)[k % 4]
                make = canonicalize90 if k % 3 == 0 else canonicalize180
                boxes.append(make(*(rng.uniform(-3, 3, 2) * scale), *(rng.uniform(0.5, 6, 2) * scale), theta))
        anchors, gts = boxes[::2], boxes[1::2]
        got = targets._iou_matrix(anchors, gts, "horizontal")
        want = np.array([[aligned_iou(_corner_bbox(a), _corner_bbox(g)) for g in gts] for a in anchors])
        assert np.array_equal(got, want)
        assert np.count_nonzero(want) > 200
        assert all(aligned_bbox(b) == _corner_bbox(b) for b in boxes)

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_records_match_scalar_encoders(self, mode):
        rng = np.random.default_rng(22)
        anchors = generate_anchors(AnchorGridSpec(image_size=64, strides=(8, 16)), mode=mode)
        gts = [(canonicalize180(*rng.uniform(4, 60, 2), *rng.uniform(4, 40, 2), rng.uniform(-90, 90)), k) for k in range(3)]
        gts.append((canonicalize90(*rng.uniform(4, 60, 2), *rng.uniform(4, 40, 2), rng.uniform(-90, 90)), 3))
        res = assign_targets(anchors, gts, AssignmentConfig(anchor_mode=mode), CSL_CFG)
        fg = np.flatnonzero(res.labels == 1)
        assert len(fg) >= len(gts)
        assert list(res.reg_targets) == list(res.csl_labels) == list(res.class_ids) == fg.tolist()
        for i in fg:
            gt, class_id = gts[res.matched_gt[i]]
            label = encode(gt.theta, CSL_CFG)
            assert res.csl_labels[i].gt_bin == label.gt_bin
            assert np.array_equal(res.csl_labels[i].values, label.values)
            want = encode_regression(gt, anchors[i]).as_array()
            assert np.abs(res.reg_targets[i].as_array() - want).max() <= 1e-12
            assert res.class_ids[i] == class_id
