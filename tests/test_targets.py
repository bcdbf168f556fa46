import copy
import math
import pickle
import re
from collections.abc import Sequence
from dataclasses import astuple

import numpy as np
import pytest

from cslkit.csl_codec import CslCodecConfig, CslLabel, encode
from cslkit.losses import RegressionTarget, encode_regression
from cslkit.targets import AnchorGridSpec, AnchorSet, AssignmentConfig, assign_targets, generate_anchors
from cslkit.rotgeom import (OrientedBox90, OrientedBox180, aligned_bbox, aligned_bboxes, aligned_iou, aligned_iou_matrix, box_rows,
                            canonicalize90, canonicalize180, rotated_iou_matrix, to_quad)
from oracles import anchor_major_assign_targets, clipped_iou, loop_assign_targets, loop_generate_anchors

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
        assert list(got) == want
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

    @pytest.mark.parametrize("stride", [0, -8, 0.0])
    def test_non_positive_stride(self, stride):
        with pytest.raises(ValueError, match=f"^stride {stride} is not positive$"):
            AnchorGridSpec(image_size=64, strides=(8, stride))

    @pytest.mark.parametrize("kwargs, message", [
        ({"image_size": 0}, "image size 0 is not positive"),
        ({"image_size": -16}, "image size -16 is not positive"),
        ({"image_size": math.nan}, "image size nan is not positive"),
        ({"image_size": 64, "base_scale": math.nan}, "base scale nan is not positive"),
        ({"image_size": 64, "base_scale": 0.0}, "base scale 0.0 is not positive"),
        ({"image_size": 64, "base_scale": -4.0}, "base scale -4.0 is not positive"),
        ({"image_size": 64, "aspect_ratios": (math.nan,)}, "aspect ratios must be positive"),
        ({"image_size": 64, "aspect_ratios": (1.0, 2.0, math.nan)}, "aspect ratios must be positive"),
        ({"image_size": 64, "aspect_ratios": (1.0, 0.0)}, "aspect ratios must be positive"),
        ({"image_size": 64, "base_scale": math.inf}, "base_scale must be finite, got inf"),
        ({"image_size": 64, "aspect_ratios": (math.inf,)}, "aspect_ratios must be finite, got (inf,)"),
        ({"image_size": 64, "aspect_ratios": (1.0, math.inf)}, "aspect_ratios must be finite, got (1.0, inf)"),
        ({"image_size": 64, "angles": (0.0, math.nan)}, "angles must be finite, got (0.0, nan)"),
        ({"image_size": 64, "angles": (-math.inf,)}, "angles must be finite, got (-inf,)"),
    ])
    def test_bad_grid_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnchorGridSpec(**kwargs)

    @pytest.mark.parametrize("mode", ["rotatd", "Rotated", "", None])
    def test_unknown_anchor_mode(self, mode):
        with pytest.raises(ValueError, match=f"^{re.escape(f'unknown anchor mode {mode!r}')}$"):
            generate_anchors(AnchorGridSpec(image_size=32, strides=(8,)), mode)


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
    def test_rotated_matches_per_pair_reference(self, seed):
        rng = np.random.default_rng(seed)
        anchors = generate_anchors(AnchorGridSpec(image_size=32, strides=(8, 16), base_scale=1.5), mode="rotated")
        # anchors of equal area tie exactly inside a larger gt, and rounding
        # then picks the forced anchor; keep gts whose best anchor is clear
        gts = []
        while len(gts) < 4:
            box = canonicalize180(*rng.uniform(2, 30, 2), *rng.uniform(4, 20, 2), rng.uniform(-90, 90))
            column = np.sort(_iou(anchors, [box], "rotated")[:, 0])
            if column[-1] - column[-2] > 1e-9:
                gts.append((box, len(gts)))
        got = assign_targets(anchors, gts, AssignmentConfig(anchor_mode="rotated"), CSL_CFG)
        labels, matched, max_iou = loop_assign_targets(np.array([[clipped_iou(a, g) for g, _ in gts] for a in anchors]))
        assert np.array_equal(got.labels, labels)
        assert np.array_equal(got.matched_gt, matched)
        assert np.abs(got.max_iou - max_iou).max() <= 1e-12
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

    @pytest.mark.parametrize("kwargs, message", [
        ({"fg_iou": math.nan}, r"fg_iou must lie in \[0, 1\], got nan"),
        ({"bg_iou": math.nan}, r"bg_iou must lie in \[0, 1\], got nan"),
        ({"fg_iou": math.nan, "bg_iou": math.nan}, r"fg_iou must lie in \[0, 1\], got nan"),
        ({"fg_iou": 1.5}, r"fg_iou must lie in \[0, 1\], got 1.5"),
        ({"bg_iou": -0.1}, r"bg_iou must lie in \[0, 1\], got -0.1"),
        ({"fg_iou": math.inf, "bg_iou": 0.4}, r"fg_iou must lie in \[0, 1\], got inf"),
    ])
    def test_thresholds_outside_unit_interval(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AssignmentConfig(**kwargs)

    def test_unit_interval_ends_accepted(self):
        assert AssignmentConfig(fg_iou=1.0, bg_iou=0.0).fg_iou == 1.0


def _moved(box, shift=(0.0, 0.0), scale=1.0):
    return canonicalize180((box.cx + shift[0]) * scale, (box.cy + shift[1]) * scale, box.h * scale, box.w * scale, box.theta)


def _iou(anchors, boxes, mode):
    """The anchor x gt IoU matrix of assign_targets: generated anchors
    against the long-edge rows of gt records."""
    rows = box_rows(boxes)
    return rotated_iou_matrix(anchors.rows, rows) if mode == "rotated" else aligned_iou_matrix(anchors.bboxes, aligned_bboxes(rows))


class TestForcedAnchorTies:
    """A small gt inside several equal-area anchors has equal IoUs with
    them in exact arithmetic. Its forced anchor is the first within 1e-12
    relative of its best IoU, not the one last-bit rounding favours, so
    moving or scaling the whole scene leaves the assignment unchanged."""

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    @pytest.mark.parametrize("shift, scale", [((1000.0, -7.25), 1.0), ((0.0, 0.0), 1e-3), ((0.0, 0.0), 1e4)])
    def test_assignment_invariant_to_translation_and_scale(self, mode, shift, scale):
        anchors = generate_anchors(AnchorGridSpec(image_size=32, strides=(16,)), mode)
        moved_anchors = [_moved(a, shift, scale) for a in anchors]
        cfg = AssignmentConfig(anchor_mode=mode)
        rng = np.random.default_rng(11)
        ties = 0
        for _ in range(100):
            boxes = [canonicalize180(*rng.uniform(0, 32, 2), *rng.uniform(1, 6, 2), rng.uniform(-90, 90))
                     for _ in range(rng.integers(1, 4))]
            got = assign_targets(moved_anchors, [(_moved(b, shift, scale), j) for j, b in enumerate(boxes)], cfg, CSL_CFG)
            want = assign_targets(anchors, [(b, j) for j, b in enumerate(boxes)], cfg, CSL_CFG)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.matched_gt, want.matched_gt)
            iou = _iou(anchors, boxes, mode)
            ties += int(np.sum(iou >= iou.max(axis=0) * (1 - 1e-12)) > len(boxes))
        assert ties >= 50  # most scenes have a gt with several best anchors


def _twin(box):
    """The OrientedBox180 twin of an OrientedBox90, else the box itself."""
    return canonicalize180(box.cx, box.cy, box.w, box.h, box.theta) if isinstance(box, OrientedBox90) else box


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
        anchors, gts = AnchorSet(box_rows(boxes[::2])), boxes[1::2]
        got = _iou(anchors, gts, "horizontal")
        want = np.array([[aligned_iou(_corner_bbox(a), _corner_bbox(_twin(g))) for g in gts] for a in anchors])
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
            gt = _twin(gt)  # the OrientedBox90 gt is labelled as its long-edge twin
            label = encode(gt.theta, CSL_CFG)
            assert res.csl_labels[i].gt_bin == label.gt_bin
            assert np.array_equal(res.csl_labels[i].values, label.values)
            want = encode_regression(gt, anchors[i]).as_array()
            assert np.abs(res.reg_targets[i].as_array() - want).max() <= 1e-12
            assert res.class_ids[i] == class_id


def _scene(rng, n):
    """n gts on a 64 px image, every third an OrientedBox90."""
    make = [canonicalize180, canonicalize180, canonicalize90]
    return [(make[k % 3](*rng.uniform(0, 64, 2), *rng.uniform(2, 40, 2), rng.uniform(-90, 90)), k) for k in range(n)]


class TestAnchorSet:
    """generate_anchors returns an AnchorSet, which carries the rows and
    bboxes of its records; assignment on it equals assignment on the
    same records as a plain list, which converts them per call."""

    @pytest.mark.parametrize("assign_mode", ["horizontal", "rotated"])
    @pytest.mark.parametrize("gen_mode", ["horizontal", "rotated"])
    def test_assignment_equals_record_list(self, gen_mode, assign_mode):
        anchors = generate_anchors(AnchorGridSpec(image_size=64, strides=(16, 32)), gen_mode)
        cfg = AssignmentConfig(anchor_mode=assign_mode)
        rng = np.random.default_rng(31)
        for n in [0, 1, 2, 3, 4, 5, 6] * 2:
            gts = _scene(rng, n)
            got = assign_targets(anchors, gts, cfg, CSL_CFG)
            want = assign_targets(list(anchors), gts, cfg, CSL_CFG)
            for name in ("labels", "matched_gt", "max_iou"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert list(got.reg_targets) == list(want.reg_targets)
            for i, target in got.reg_targets.items():
                assert target.as_array().tobytes() == want.reg_targets[i].as_array().tobytes()
            assert got.class_ids == want.class_ids
            assert list(got.csl_labels) == list(want.csl_labels)
            for i, label in got.csl_labels.items():
                assert label.gt_bin == want.csl_labels[i].gt_bin
                assert label.values.tobytes() == want.csl_labels[i].values.tobytes()

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_record_list_builds_no_records(self, mode, monkeypatch):
        anchors = list(generate_anchors(AnchorGridSpec(image_size=32, strides=(8, 16)), mode))
        gts = [(canonicalize180(12, 12, 10, 5, 20), 0), (canonicalize90(20, 9, 6, 3, -30), 1)]
        built, check = [], OrientedBox180.__post_init__
        monkeypatch.setattr(OrientedBox180, "__post_init__", lambda box: built.append(box) or check(box))
        res = assign_targets(anchors, gts, AssignmentConfig(anchor_mode=mode), CSL_CFG)
        assert built == [] and (res.labels == 1).any()

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_records_are_built_only_on_read(self, mode, monkeypatch):
        gts = [(canonicalize180(12, 12, 10, 5, 20), 0), (canonicalize90(20, 9, 6, 3, -30), 1)]
        built, check = [], OrientedBox180.__post_init__
        monkeypatch.setattr(OrientedBox180, "__post_init__", lambda box: built.append(box) or check(box))
        made = []  # the RegressionTarget and CslLabel records, as their types
        for record in (RegressionTarget, CslLabel):
            monkeypatch.setattr(record, "__init__", lambda self, *args, init=record.__init__, **kwargs:
                                made.append(type(self)) or init(self, *args, **kwargs))
        anchors = generate_anchors(AnchorGridSpec(image_size=32, strides=(8, 16)), mode)
        res = assign_targets(anchors, gts, AssignmentConfig(anchor_mode=mode), CSL_CFG)
        assert built == [] and (res.labels == 1).any()
        assert made == []
        f = int((res.labels == 1).sum())
        for _ in range(2):  # each dict is built in one pass on its first read, then kept
            assert len(res.reg_targets) == len(res.csl_labels) == f
            assert made == [RegressionTarget] * f + [CslLabel] * f
        assert built == []
        got = [anchors[3], anchors[-1], *anchors[2:5]]
        assert built == got and [list(astuple(box)) for box in built] == anchors.rows[[3, -1, 2, 3, 4]].tolist()
        with pytest.raises(IndexError):
            anchors[len(anchors)]
        assert len(built) == 5

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_arrays_are_those_of_the_records(self, mode):
        anchors = generate_anchors(AnchorGridSpec(image_size=48, strides=(16, 8, 24), base_scale=3), mode)
        assert isinstance(anchors, Sequence) and all(type(a).__name__ == "OrientedBox180" for a in anchors)
        assert anchors.rows.tobytes() == box_rows(anchors).tobytes()
        assert anchors.bboxes.tobytes() == aligned_bboxes(box_rows(anchors)).tobytes()
        assert anchors.rows.shape == (len(anchors), 5) and anchors.bboxes.shape == (len(anchors), 4)
        empty = generate_anchors(AnchorGridSpec(image_size=64, strides=()), mode)
        assert tuple(empty) == () and empty.rows.shape == (0, 5) and empty.bboxes.shape == (0, 4)
        assert aligned_bboxes([]).shape == (0, 4)  # an empty list is zero rows

    def test_immutable(self):
        anchors = generate_anchors(AnchorGridSpec(image_size=32, strides=(16,)))
        rows, bboxes = anchors.rows.copy(), anchors.bboxes.copy()
        for array in (anchors.rows, anchors.bboxes):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = -1.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0
        for name in ("rows", "bboxes", "extra"):
            with pytest.raises(AttributeError):
                setattr(anchors, name, np.zeros((1, 5)))
        with pytest.raises(AttributeError):
            del anchors.rows
        assert np.array_equal(anchors.rows, rows) and np.array_equal(anchors.bboxes, bboxes)

    def test_built_from_a_private_copy(self):
        rows = box_rows(generate_anchors(AnchorGridSpec(image_size=32, strides=(16,))))
        anchors = AnchorSet(rows)
        rows[0, 0] = -1.0
        assert rows.flags.writeable and anchors.rows[0, 0] == 8.0 and anchors[0].cx == 8.0

    @pytest.mark.parametrize("clone", [
        lambda a: pickle.loads(pickle.dumps(a)),
        lambda a: pickle.loads(pickle.dumps(a, protocol=2)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-2", "copy", "deepcopy"])
    def test_pickle_and_copy_keep_the_arrays(self, clone):
        anchors = generate_anchors(AnchorGridSpec(image_size=32, strides=(8, 16), base_scale=1.5), "rotated")
        twin = clone(anchors)
        assert type(twin) is AnchorSet and list(twin) == list(anchors)
        for name in ("rows", "bboxes"):
            assert getattr(twin, name).tobytes() == getattr(anchors, name).tobytes()
            assert not getattr(twin, name).flags.writeable

    def test_slices_are_plain_tuples(self):
        anchors = generate_anchors(AnchorGridSpec(image_size=32, strides=(16,)))
        assert type(anchors[1:3]) is tuple
        gts = [(canonicalize180(12, 12, 10, 5, 20), 0)]
        got = assign_targets(anchors[7:], gts, AssignmentConfig(), CSL_CFG)
        want = assign_targets(list(anchors)[7:], gts, AssignmentConfig(), CSL_CFG)
        assert got.max_iou.tobytes() == want.max_iou.tobytes()


class TestOneBoxTwoConventions:
    """An OrientedBox90 gt is the same box as its canonicalize180 twin,
    and assign_targets gives both the same targets: labels and regression
    offsets of the long side and the circular label of its angle."""

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    @pytest.mark.parametrize("spec, gen_mode", [
        (AnchorGridSpec(image_size=32, strides=(16,)), "horizontal"),
        (AnchorGridSpec(image_size=32, strides=(16,)), "rotated"),
        (AnchorGridSpec(image_size=64, strides=(8, 16)), "horizontal"),
        (AnchorGridSpec(image_size=64, strides=(32,)), "rotated"),
        (AnchorGridSpec(image_size=48, strides=(16, 8, 24), base_scale=3), "rotated"),
    ])
    def test_same_targets(self, spec, gen_mode, mode):
        anchors = generate_anchors(spec, gen_mode)
        cfg = AssignmentConfig(anchor_mode=mode)
        rng = np.random.default_rng(51)
        for n in [1, 2, 3, 4] * 5:
            boxes = [canonicalize90(*rng.uniform(0, spec.image_size, 2), *rng.uniform(1, 40, 2), rng.uniform(-90, 90))
                     for _ in range(n)]
            got = assign_targets(anchors, [(b, k) for k, b in enumerate(boxes)], cfg, CSL_CFG)
            want = assign_targets(anchors, [(_twin(b), k) for k, b in enumerate(boxes)], cfg, CSL_CFG)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.matched_gt, want.matched_gt)
            assert np.abs(got.max_iou - want.max_iou).max() <= 1e-12
            assert list(got.reg_targets) == list(want.reg_targets) and got.class_ids == want.class_ids
            for i, target in got.reg_targets.items():
                assert target.as_array().tobytes() == want.reg_targets[i].as_array().tobytes()
                assert got.csl_labels[i].gt_bin == want.csl_labels[i].gt_bin
                assert got.csl_labels[i].values.tobytes() == want.csl_labels[i].values.tobytes()

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_angle_of_the_long_side(self, mode):
        anchors = generate_anchors(AnchorGridSpec(image_size=32, strides=(16,)), mode)
        gt = OrientedBox90(16.0, 16.0, 4.0, 20.0, -30.0)  # side h = 20 lies at 60 degrees
        assert _twin(gt) == OrientedBox180(16.0, 16.0, 20.0, 4.0, 60.0)
        res = assign_targets(anchors, [(gt, 0)], AssignmentConfig(anchor_mode=mode), CSL_CFG)
        assert len(res.csl_labels) >= 1
        for i, label in res.csl_labels.items():
            assert label.gt_bin == 150
            assert res.reg_targets[i].t_theta == pytest.approx(math.radians(60.0 - anchors[i].theta), abs=1e-12)


# the seeded scenes of the forced-anchor tests: small gts on grids whose
# anchors cover them several times over
_FORCED_SCENES = [(spec, mode, side) for spec in (AnchorGridSpec(image_size=32, strides=(16,)), AnchorGridSpec(image_size=64, strides=(32,)))
                  for mode in ("horizontal", "rotated") for side in (6.0, 30.0)]


class TestOneForcedAnchorPerGt:
    """Each gt, highest best IoU first, is forced onto the first of its
    tied best anchors that no earlier gt was forced onto. Everywhere
    outside the tie sets of gts with several tied anchors the assignment
    is that of the gt-by-gt loop it replaced."""

    @pytest.mark.parametrize("spec, mode, side", _FORCED_SCENES)
    def test_oracle_outside_ties_and_an_anchor_for_every_gt(self, spec, mode, side):
        anchors = generate_anchors(spec, mode)
        cfg = AssignmentConfig(anchor_mode=mode)
        rng = np.random.default_rng([spec.image_size, mode == "rotated", int(side)])
        empty_before = 0
        for _ in range(25):
            boxes = [canonicalize180(*rng.uniform(0, spec.image_size, 2), *rng.uniform(1, side, 2), rng.uniform(-90, 90))
                     for _ in range(rng.integers(1, 4))]
            res = assign_targets(anchors, [(b, j) for j, b in enumerate(boxes)], cfg, CSL_CFG)
            iou = _iou(anchors, boxes, mode)
            labels, matched, max_iou = loop_assign_targets(iou)
            tied = iou >= iou.max(axis=0) * (1 - 1e-12)
            outside = ~tied[:, tied.sum(axis=0) > 1].any(axis=1)
            assert np.array_equal(res.labels[outside], labels[outside])
            assert np.array_equal(res.matched_gt[outside], matched[outside])
            assert res.max_iou[outside].tobytes() == max_iou[outside].tobytes()
            # no gt here has all its tied anchors taken by other gts
            assert set(res.matched_gt[res.labels == 1].tolist()) == set(range(len(boxes)))
            for i, target in res.reg_targets.items():
                gt = boxes[res.matched_gt[i]]
                assert target.as_array().tobytes() == encode_regression(gt, anchors[i]).as_array().tobytes()
                assert res.csl_labels[i].gt_bin == encode(gt.theta, CSL_CFG).gt_bin
            empty_before += len(boxes) - len(set(matched[labels == 1].tolist()))
        assert empty_before > 0  # the loop it replaced left some gt without an anchor

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_congruent_gts_keep_one_anchor_each(self, mode):
        """Congruent small gts tie over the same anchors. Rounding can give
        a later gt a higher IoU at an earlier gt's forced anchor, which
        the override rule alone would let it take; it takes a free one."""
        anchors = generate_anchors(AnchorGridSpec(image_size=64, strides=(32,)), mode)
        rng = np.random.default_rng(81)
        for _ in range(50):
            boxes = [canonicalize180(*rng.uniform(10, 54, 2), 4.0, 2.0, rng.uniform(-90, 90)) for _ in range(3)]
            res = assign_targets(anchors, [(b, j) for j, b in enumerate(boxes)], AssignmentConfig(anchor_mode=mode), CSL_CFG)
            assert sorted(res.matched_gt[res.labels == 1].tolist()) == [0, 1, 2]

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_independent_of_gt_order(self, mode):
        anchors = generate_anchors(AnchorGridSpec(image_size=64, strides=(32,)), mode)
        cfg = AssignmentConfig(anchor_mode=mode)
        rng = np.random.default_rng(71)
        for _ in range(20):
            boxes = [canonicalize180(*rng.uniform(0, 64, 2), *rng.uniform(1, 6, 2), rng.uniform(-90, 90)) for _ in range(3)]
            order = rng.permutation(3)
            a = assign_targets(anchors, [(b, j) for j, b in enumerate(boxes)], cfg, CSL_CFG)
            b = assign_targets(anchors, [(boxes[j], j) for j in order], cfg, CSL_CFG)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.matched_gt, np.where(b.matched_gt >= 0, order[b.matched_gt], -1))


def _assert_same_targets(got, want):
    for name in ("labels", "matched_gt", "max_iou", "offsets", "bins", "csl_values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.class_ids == want.class_ids


class TestGtMajorAssignment:
    """The assignment on the gt-major (M, N) IoU, with each gt's ties read
    from one tie mask, gives the targets of the anchor-major one, bit for
    bit: labels, matched gts, IoUs, offsets, bins and circular labels."""

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    @pytest.mark.parametrize("spec", [AnchorGridSpec(image_size=32, strides=(8, 16)),
                                      AnchorGridSpec(image_size=64, strides=(16, 32), base_scale=2.5)])
    def test_seeded_scenes(self, spec, mode):
        anchors = generate_anchors(spec, mode)
        cfg = AssignmentConfig(anchor_mode=mode)
        rng = np.random.default_rng([spec.image_size, mode == "rotated"])
        for _ in range(40):
            boxes = [canonicalize180(*rng.uniform(0, spec.image_size, 2), *rng.uniform(1, spec.image_size / 2, 2),
                                     rng.uniform(-90, 90)) for _ in range(rng.integers(1, 7))]
            gts = [(box, int(rng.integers(0, 5))) for box in boxes]
            _assert_same_targets(assign_targets(anchors, gts, cfg, CSL_CFG),
                                 anchor_major_assign_targets(anchors, gts, cfg, CSL_CFG))

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_tied_best_anchors(self, mode):
        anchors = generate_anchors(AnchorGridSpec(image_size=32, strides=(8,), base_scale=2.0), mode)
        cfg = AssignmentConfig(anchor_mode=mode)
        rng = np.random.default_rng(5)
        ties = 0
        for k in range(60):
            boxes = [canonicalize180(*rng.uniform(0, 32, 2), *rng.uniform(1, 6, 2), rng.uniform(-90, 90))
                     for _ in range(rng.integers(1, 4))]  # small gts tie over equal-area anchors
            large = canonicalize180(*rng.uniform(8, 24, 2), *rng.uniform(8, 20, 2), rng.uniform(-90, 90))
            # congruent gts tie at every anchor, above the thresholds too; of 5 copies, later ones scan past the
            # anchors earlier ones were forced onto
            boxes += [large] * (2 if k % 2 else 5)
            gts = [(box, j) for j, box in enumerate(boxes)]
            _assert_same_targets(assign_targets(anchors, gts, cfg, CSL_CFG),
                                 anchor_major_assign_targets(anchors, gts, cfg, CSL_CFG))
            iou = _iou(anchors, boxes, mode)
            ties += int((iou >= iou.max(axis=0) * (1 - 1e-12)).sum(axis=0).max() > 1)
        assert ties >= 30

    @pytest.mark.parametrize("mode", ["horizontal", "rotated"])
    def test_gt_that_overlaps_no_anchor_forces_anchor_zero(self, mode):
        anchors = generate_anchors(AnchorGridSpec(image_size=64, strides=(8, 16)), mode)
        cfg = AssignmentConfig(anchor_mode=mode)
        gts = [(canonicalize180(20.0, 24.0, 12.0, 6.0, 30.0), 1), (canonicalize180(5000.0, 5000.0, 8.0, 4.0, 0.0), 2)]
        got = assign_targets(anchors, gts, cfg, CSL_CFG)
        _assert_same_targets(got, anchor_major_assign_targets(anchors, gts, cfg, CSL_CFG))
        assert (got.labels[0], got.matched_gt[0], got.max_iou[0], got.class_ids[0]) == (1, 1, 0.0, 2)

    def test_later_gt_takes_an_anchor_forced_at_a_lower_iou(self):
        # anchor 0 ties with gt 0's best (anchor 1) only within 1e-12, so gt 0, the first by best IoU, is forced onto
        # it below its best; gt 1, a hair smaller, overlaps only anchor 0, at a higher IoU than gt 0's, and takes it
        anchors = AnchorSet(np.array([[15.0, 15.0, 20.0, 10.0, 0.0], [150.0, 15.0, 20.0 * (1 + 1e-13), 10.0, 0.0]]))
        gts = [(OrientedBox180(100.0, 50.0, 200.0, 100.0, 0.0), 3),
               (OrientedBox180(0.0, 50.0, 200.0 * (1 - 5e-14), 100.0, 0.0), 4)]
        iou = aligned_iou_matrix(anchors.bboxes, aligned_bboxes(box_rows([g[0] for g in gts])))
        assert iou[1, 0] > iou[0, 1] > iou[0, 0] >= iou[1, 0] * (1 - 1e-12) and iou[1, 1] == 0.0
        cfg = AssignmentConfig()
        got = assign_targets(anchors, gts, cfg, CSL_CFG)
        _assert_same_targets(got, anchor_major_assign_targets(anchors, gts, cfg, CSL_CFG))
        assert got.labels.tolist() == [1, 0] and got.matched_gt.tolist() == [1, -1] and got.max_iou[0] == iou[0, 1]
