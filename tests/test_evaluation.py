import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from cslkit import evaluation
from cslkit.cli import main
from cslkit.evaluation import (
    AnnotationParseError,
    DetectionRecord,
    GroundTruthRecord,
    batched_rotated_nms,
    compute_ap,
    dota_files_columns,
    evaluate,
    evaluate_columns,
    ingest_dota,
    parse_detections,
    rotated_nms,
)
from cslkit.rotgeom import InvalidGeometryError, OrientedBox180, box_rows, canonicalize180, rotated_iou, to_quad
from oracles import clipped_iou, lockstep_batched_rotated_nms, loop_evaluate

CLASSES = {"ship": 0, "plane": 1}


def det(score, cx=0.0, cy=0.0, h=4.0, w=2.0, theta=0.0, image="im1", cls=0):
    return DetectionRecord(image, cls, canonicalize180(cx, cy, h, w, theta), score)


def gt(cx=0.0, cy=0.0, h=4.0, w=2.0, theta=0.0, image="im1", cls=0, difficult=False):
    return GroundTruthRecord(image, cls, canonicalize180(cx, cy, h, w, theta), difficult)


def det_columns(dets):
    """The columns of detection records, as parse_detections returns them."""
    return ([d.image_id for d in dets], [d.class_id for d in dets], np.array([d.score for d in dets], dtype=float),
            box_rows([d.box for d in dets]))


def gt_columns(gts):
    """The columns of ground-truth records, as dota_files_columns returns them."""
    return [g.image_id for g in gts], [g.class_id for g in gts], [g.difficult for g in gts], box_rows([g.box for g in gts])


class TestNms:
    def test_identical_boxes_keep_higher_score(self):
        kept = rotated_nms([det(0.9), det(0.8)], iou_thresh=0.5)
        assert [d.score for d in kept] == [0.9]

    def test_disjoint_kept(self):
        kept = rotated_nms([det(0.9), det(0.8, cx=100)], iou_thresh=0.5)
        assert len(kept) == 2

    def test_chain_suppression(self):
        # A-B and B-C overlap above threshold, A-C below: greedy keeps A and C
        a = det(0.9, cx=0.0, h=4, w=2)
        b = det(0.8, cx=0.8, h=4, w=2)
        c = det(0.7, cx=1.9, h=4, w=2)
        assert rotated_iou(a.box, b.box) > 0.5
        assert rotated_iou(b.box, c.box) > 0.5
        assert rotated_iou(a.box, c.box) < 0.5
        kept = rotated_nms([a, b, c], iou_thresh=0.5)
        assert [d.score for d in kept] == [0.9, 0.7]

    def test_subset_and_pairwise_bound(self):
        rng = np.random.default_rng(0)
        dets = [det(float(rng.uniform(0, 1)), cx=float(rng.uniform(-3, 3)), cy=float(rng.uniform(-3, 3))) for _ in range(30)]
        kept = rotated_nms(dets, iou_thresh=0.3)
        assert all(k in dets for k in kept)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert rotated_iou(a.box, b.box) <= 0.3


def _random_scene(rng, n_gts=30, n_dets=60, images=("im1", "im2", "im3")):
    """Ground truths in a few images and classes, and detections that are
    jittered copies of them (some far off) with distinct scores."""
    gts = []
    for _ in range(n_gts):
        gts.append(gt(*rng.uniform(0, 30, 2), *rng.uniform(2, 8, 2), rng.uniform(-90, 90),
                      image=str(rng.choice(images)), cls=int(rng.integers(2)), difficult=bool(rng.random() < 0.1)))
    scores = rng.permutation(n_dets) / n_dets + 0.5 / n_dets
    dets = []
    for k in range(n_dets):
        g = gts[rng.integers(n_gts)]
        jitter = rng.normal(0, 1.0, 5) * (1, 1, 0.5, 0.5, 8) + rng.choice((0, 20), p=(0.8, 0.2))
        b = g.box
        dets.append(det(float(scores[k]), b.cx + jitter[0], b.cy + jitter[1], b.h + abs(jitter[2]), b.w + abs(jitter[3]),
                        b.theta + jitter[4], image=g.image_id, cls=g.class_id))
    return dets, gts


def _reference_nms(dets, iou_thresh):
    """The per-pair greedy loop on the clipper oracle."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    for i in order:
        if all(clipped_iou(dets[i].box, dets[k].box) <= iou_thresh for k in kept):
            kept.append(i)
    return [dets[i] for i in sorted(kept)]


def _reference_pr(dets, gts, iou_thresh):
    """Recall and precision of per-pair greedy matching on the clipper
    oracle: the first gt with the strictly largest IoU above 0."""
    n_pos = sum(1 for g in gts if not g.difficult)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    matched, tp, fp = set(), [], []
    for di in order:
        best_iou, best = 0.0, None
        for gi, g in enumerate(gts):
            if g.image_id == dets[di].image_id:
                iou = clipped_iou(dets[di].box, g.box)
                if iou > best_iou:
                    best_iou, best = iou, gi
        hit = best is not None and best_iou >= iou_thresh
        if hit and gts[best].difficult:
            tp.append(0)
            fp.append(0)
            continue
        tp.append(int(hit and best not in matched))
        fp.append(1 - tp[-1])
        if hit:
            matched.add(best)
    tp_c, fp_c = np.cumsum(tp), np.cumsum(fp)
    return (tp_c / n_pos).tolist(), (tp_c / np.maximum(tp_c + fp_c, 1)).tolist()


class TestAgainstPerPairReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_nms(self, seed):
        rng = np.random.default_rng(seed)
        dets, _ = _random_scene(rng)
        for thresh in (0.1, 0.3, 0.5):
            for image in ("im1", "im2", "im3"):
                group = [d for d in dets if d.image_id == image]
                assert rotated_nms(group, thresh) == _reference_nms(group, thresh)

    @pytest.mark.parametrize("seed", range(4))
    def test_pr_curves_and_ap(self, seed):
        rng = np.random.default_rng(seed)
        _assert_matches_reference(*_random_scene(rng), ["ship", "plane"])


def _assert_matches_reference(dets, gts, names):
    """evaluate's precision-recall curves equal _reference_pr's class by class, and
    compute_ap on one class equals evaluate's AP."""
    for thresh in (0.3, 0.5, 0.7):
        report = evaluate(dets, gts, names, iou_thresh=thresh)
        for cid, name in enumerate(names):
            cd = [d for d in dets if d.class_id == cid]
            cg = [g for g in gts if g.class_id == cid]
            assert report.pr_curves[name] == _reference_pr(cd, cg, thresh)
            assert compute_ap(cd, cg, thresh, "voc12") == report.ap12[name]
            assert compute_ap(cd, cg, thresh, "voc07") == report.ap07[name]


def _crowded_scene(rng, classes=3, n_gts=24, n_dets=80, images=2):
    """Ground truths of several classes piled into a few small images, so
    boxes of different classes overlap; every third gt is repeated
    exactly (an IoU tie), once in its own class with the other difficult
    flag and once in another class.
    Detections are jittered copies of gts, a third of them labelled with
    another class than the gt they copy."""
    gts = []
    for k in range(n_gts):
        g = gt(*rng.uniform(0, 12, 2), *rng.uniform(3, 9, 2), rng.uniform(-90, 90), image=f"im{k % images}",
               cls=int(rng.integers(classes)), difficult=bool(rng.random() < 0.2))
        gts.append(g)
        if k % 3 == 0:
            gts.append(GroundTruthRecord(g.image_id, g.class_id, g.box, not g.difficult))
            gts.append(GroundTruthRecord(g.image_id, (g.class_id + 1) % classes, g.box, False))
    scores = rng.permutation(n_dets) / n_dets + 0.5 / n_dets
    dets = []
    for k in range(n_dets):
        g = gts[rng.integers(len(gts))]
        cls = g.class_id if rng.random() < 0.67 else int(rng.integers(classes))
        if rng.random() < 0.2:
            dets.append(DetectionRecord(g.image_id, cls, g.box, float(scores[k])))
            continue
        j = rng.normal(0, 1.0, 5) * (1, 1, 0.5, 0.5, 8)
        b = g.box
        dets.append(det(float(scores[k]), b.cx + j[0], b.cy + j[1], b.h + abs(j[2]), b.w + abs(j[3]), b.theta + j[4],
                        image=g.image_id, cls=cls))
    return dets, gts


class TestPerImageMatching:
    """evaluate's matching over the same-class pairs of each image, where
    other classes overlap, against the per-class, per-pair reference."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_class_reference(self, seed):
        dets, gts = _crowded_scene(np.random.default_rng(seed))
        # the scene must exercise the class mask: some detection's best
        # IoU over all gts of its image belongs to another class
        foreign = 0
        for d in dets:
            ious = [(rotated_iou(d.box, g.box), g.class_id) for g in gts if g.image_id == d.image_id]
            best = max(i for i, _ in ious)
            foreign += best > max([i for i, c in ious if c == d.class_id], default=0.0)
        assert foreign >= 5
        _assert_matches_reference(dets, gts, ["ship", "plane", "harbor"])

    def test_tie_goes_to_first_gt(self):
        # identical gts: the difficult one comes first and takes the
        # match, so the detection is neither TP nor FP
        gts = [gt(cls=1), gt(cls=0, difficult=True), gt(cls=0)]
        report = evaluate([det(0.9, cls=0)], gts, ["ship", "plane"])
        assert report.pr_curves["ship"] == ([0.0], [0.0])
        report = evaluate([det(0.9, cls=0)], [gts[0], gts[2], gts[1]], ["ship", "plane"])
        assert report.pr_curves["ship"] == ([1.0], [1.0])

    def test_other_class_never_matched(self):
        # the plane detection sits on a ship gt and touches the plane gt
        # only a little: it matches the plane gt, below the threshold
        gts = [gt(cls=0), gt(cx=3.5, cls=1)]
        dets = [det(0.9, cls=1)]
        report = evaluate(dets, gts, ["ship", "plane"])
        assert report.ap12 == {"ship": 0.0, "plane": 0.0}
        assert report.pr_curves["plane"] == ([0.0], [0.0])

    def test_compute_ap_ignores_class_ids(self):
        gts = [gt(cls=1)]
        dets = [det(0.9, cls=0)]
        assert compute_ap(dets, gts) == pytest.approx(1.0)

    @pytest.mark.parametrize("class_id", [-1, 2, 7, 2**70])
    def test_out_of_range_class_id_raises(self, class_id):
        dets = [det(0.9), det(0.8, image="P7", cls=class_id)]
        with pytest.raises(ValueError, match=rf"class id {class_id} .*'P7'"):
            evaluate(dets, [gt()], ["ship", "plane"])


def _nms_groups(rng):
    """Groups of detections for lockstep NMS: empty and single groups,
    jittered clusters that keep few, a row of disjoint boxes that keeps
    all (the most rounds), and clusters with equal scores, where ties go
    by input index."""
    groups = [[], [det(0.5, cx=3.0)]]
    for k in range(8):
        cx, cy = rng.uniform(-50, 50, 2)
        n = int(rng.integers(2, 12))
        scores = rng.choice((0.3, 0.6), n) if k % 3 == 0 else rng.uniform(0, 1, n)
        h, w, theta = rng.uniform(4, 8), rng.uniform(1, 3), rng.uniform(-90, 90)
        groups.append([det(float(scores[i]), cx + rng.normal(0, 0.5), cy + rng.normal(0, 0.5),
                           h * rng.uniform(0.8, 1.2), w * rng.uniform(0.8, 1.2), theta + rng.normal(0, 10))
                       for i in range(n)])
    groups.append([det(float(rng.uniform(0, 1)), cx=10.0 * i, cy=-5.0) for i in range(9)])
    groups.append([det(0.7, cx=0.1 * i, cy=0.05 * i, theta=2.0 * i) for i in range(5)])
    order = rng.permutation(len(groups))
    return [groups[i] for i in order]


def _batched(groups, iou_thresh=0.1):
    """batched_rotated_nms of detection lists interleaved round-robin in
    one set of columns, under falling and negative group ids; returns
    each group's kept detections after checking that the kept positions
    come sorted by group, then position."""
    entries = sorted((i, g, d) for g, group in enumerate(groups) for i, d in enumerate(group))  # (i, g) never tie
    ids = np.array([5 - 3 * g for _, g, _ in entries], dtype=int)
    flat = [d for _, _, d in entries]
    kept = batched_rotated_nms(box_rows([d.box for d in flat]), [d.score for d in flat], ids, iou_thresh).tolist()
    assert kept == sorted(kept, key=lambda k: (ids[k], k))
    return [[flat[k] for k in kept if ids[k] == 5 - 3 * g] for g in range(len(groups))]


class TestBatchedNms:
    """Free-set NMS over many groups against the per-group greedy loop
    on the clipper oracle."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_group_reference(self, seed):
        groups = _nms_groups(np.random.default_rng(seed))
        for thresh in (0.0, 0.1, 0.5, 1.0):
            kept = _batched(groups, thresh)
            assert kept == [_reference_nms(g, thresh) for g in groups]
            assert kept == [rotated_nms(g, thresh) for g in groups]
        kept = _batched(groups, 0.1)
        assert kept[[len(g) for g in groups].index(0)] == []
        counts = [len(k) for k in kept]
        assert max(counts) == 9 and min(c for c, g in zip(counts, groups) if len(g) > 1) == 1

    def test_ties_go_by_input_index(self):
        a, b = det(0.5, cx=0.0), det(0.5, cx=0.5)
        assert _batched([[a, b], [b, a]], 0.3) == [[a], [b]]
        rows = box_rows([a.box, b.box, b.box, a.box])
        assert batched_rotated_nms(rows, [0.5] * 4, [1, 1, 0, 0], 0.3).tolist() == [2, 0]

    def test_no_groups(self):
        assert batched_rotated_nms(np.empty((0, 5)), [], []).tolist() == []

    def test_kernel_calls_follow_overlap_chains(self, monkeypatch):
        calls = []
        real = evaluation.rotated_iou_pairs
        monkeypatch.setattr(evaluation, "rotated_iou_pairs", lambda *args: calls.append(len(args[2])) or real(*args))
        # disjoint boxes have no candidate pair, so every one is free at once
        row = [det(float(s), cx=10.0 * i, cy=-5.0) for i, s in enumerate(np.linspace(0.9, 0.1, 9))]
        assert _batched([row]) == [row] and calls == []
        # one round suppresses every cluster's later boxes against its head
        groups = [[det(0.9 - 0.1 * i, cx=50.0 * k + 0.1 * i) for i in range(4)] for k in range(5)]
        assert _batched(groups, 0.5) == [[g[0]] for g in groups] and calls == [15]

    def test_rounds_at_tile_scale(self, monkeypatch):
        """8000 raw detections on a 2048 px tile: the rounds follow the
        longest overlap chain, not the 4000-odd boxes kept, and the kept
        set is greedy's, as it is the only set where no two kept boxes
        overlap above the threshold and every other box overlaps a kept,
        higher-ranked one above it."""
        calls = []
        real = evaluation.rotated_iou_pairs
        monkeypatch.setattr(evaluation, "rotated_iou_pairs", lambda *args: calls.append(len(args[2])) or real(*args))
        rows, scores = _tile_scene(np.random.default_rng(7), 8000, 2048.0)
        kept = batched_rotated_nms(rows, scores, np.zeros(8000, dtype=int), 0.1)
        assert len(kept) > 4000 and 0 < len(calls) <= 20
        order = np.lexsort((-scores,))
        rank = np.empty(8000, dtype=int)
        rank[order] = np.arange(8000)
        i, j = evaluation._candidate_pairs(rows, np.zeros(8000, dtype=int))
        over = real(rows, rows, i, j) > 0.1
        is_kept = np.isin(np.arange(8000), kept)
        assert not (over & is_kept[i] & is_kept[j]).any()
        # each pair as (lower-ranked, higher-ranked)
        low, high = np.where(rank[i] > rank[j], i, j), np.where(rank[i] > rank[j], j, i)
        covered = np.zeros(8000, dtype=bool)
        covered[low[over & is_kept[high]]] = True
        assert np.array_equal(covered, ~is_kept)


def _tile_scene(rng, n, tile):
    """n boxes uniform on a square tile, long sides 8-60 and aspect
    0.2-1 at any angle, with uniform scores."""
    h = rng.uniform(8.0, 60.0, n)
    rows = np.column_stack([rng.uniform(0.0, tile, (n, 2)), h, h * rng.uniform(0.2, 1.0, n), rng.uniform(-90.0, 90.0, n)])
    return rows, rng.uniform(0.0, 1.0, n)


def _nms_scenes(rng):
    """Named (rows, scores, groups) scenes for the free-set NMS against
    the lockstep oracle."""
    ids = np.array([-2**62, -5, 0, 7, 2**62])
    scenes = {}
    for name, n, tile in (("sparse", 300, 1024.0), ("crowded", 300, 48.0)):
        rows, scores = _tile_scene(rng, n, tile)
        scenes[name] = rows, scores, np.zeros(n, dtype=int)
        scenes[name + " groups"] = rows, scores, rng.choice(ids, n)
    # axis-aligned and turned grids of boxes whose edges touch: circumcircles meet, the boxes have IoU 0
    grid = np.array([(4.0 * i, 2.0 * j, 4.0, 2.0, 0.0) for i in range(8) for j in range(8)])
    turned = np.array([(4.0 * i * math.cos(0.5), 4.0 * i * math.sin(0.5), 4.0, 2.0, math.degrees(0.5)) for i in range(10)])
    touching = np.concatenate([grid, turned + (100.0, 0.0, 0.0, 0.0, 0.0)])
    scenes["touching"] = touching, rng.uniform(0.0, 1.0, len(touching)), np.zeros(len(touching), dtype=int)
    # boxes nested in one another about shared and shifted centres
    size = np.geomspace(1.0, 40.0, 30)
    nested = np.column_stack([rng.choice([0.0, 0.5], (30, 2)), size, size * 0.5, rng.choice([0.0, 30.0], 30)])
    scenes["nested"] = nested, rng.uniform(0.0, 1.0, 30), np.zeros(30, dtype=int)
    # copies of a few boxes, with equal scores: ties go by input index
    same = np.repeat(_tile_scene(rng, 6, 20.0)[0], 5, axis=0)[rng.permutation(30)]
    scenes["identical"] = same, np.full(30, 0.5), rng.choice(ids[:3], 30)
    rows, _ = _tile_scene(rng, 200, 64.0)
    scenes["equal scores"] = rows, rng.choice([0.25, 0.5], 200), rng.choice(ids, 200)
    return scenes


class TestFreeSetNms:
    """batched_rotated_nms against the lockstep body it replaced."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("thresh", [0.0, 0.1, 0.5, 1.0])
    def test_matches_lockstep(self, seed, thresh):
        for name, (rows, scores, groups) in _nms_scenes(np.random.default_rng(seed)).items():
            got = batched_rotated_nms(rows, scores, groups, thresh)
            assert np.array_equal(got, lockstep_batched_rotated_nms(rows, scores, groups, thresh)), name

    def test_extreme_group_ids(self):
        rows = box_rows([det(0.9).box, det(0.8).box])
        assert batched_rotated_nms(rows, [0.9, 0.8], [2**62, -2**62]).tolist() == [1, 0]
        assert batched_rotated_nms(rows, [0.9, 0.8], [2**62, 2**62]).tolist() == [0]
        assert batched_rotated_nms(rows, [0.9, 0.8], np.array([1, 0], dtype=np.uint8)).tolist() == [1, 0]

    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 4.0, 2.0, 0.0), (0.0, math.inf, 4.0, 2.0, 0.0),
                                     (0.0, 0.0, 4.0, 0.0, 0.0), (0.0, 0.0, -4.0, 2.0, 0.0)])
    def test_bad_row_rejected_in_any_group(self, bad):
        # a bad row alone in its group is never paired, so it must be checked up front
        rows = np.array([bad, (0.0, 0.0, 4.0, 2.0, 0.0)])
        for groups in ([0, 1], [0, 0], [1, 0]):
            with pytest.raises(InvalidGeometryError, match="finite values and positive sides"):
                batched_rotated_nms(rows, [0.9, 0.8], groups)

    @pytest.mark.parametrize("bad", [(5.0, -3.0, 1.0, 1e-10, 17.3), (0.0, 0.0, 2e160, 1e160, 10.0),
                                     (0.0, 0.0, 2e-160, 1e-160, 10.0)])
    def test_row_the_kernel_cannot_compute_rejected_in_any_group(self, bad):
        rows = np.array([bad, (0.0, 0.0, 4.0, 2.0, 0.0)])
        for groups in ([0, 1], [0, 0], [1, 0]):
            with pytest.raises(InvalidGeometryError, match="the IoU kernel needs"):
                batched_rotated_nms(rows, [0.9, 0.8], groups)

    @pytest.mark.parametrize("n, scores, groups", [
        # 5 rows with 3 scores used to keep [0 1 2] and drop rows 3-4, 3 rows with 5 scores raised IndexError
        (5, [0.9, 0.8, 0.7], range(5)), (3, [0.9] * 5, range(5)), (5, [0.9] * 5, range(3)), (5, [0.9] * 5, [range(5)]),
        # group ids 0.2 and 0.7 were truncated into one group, so one of two identical boxes went
        (2, [0.9, 0.8], [0.2, 0.7]),
        (2, [0.9, math.nan], [0, 1]), (2, [0.9, math.inf], [0, 1]), (2, [-math.inf, 0.8], [0, 1]),
    ], ids=["3 scores", "3 rows", "3 groups", "2-D groups", "float groups", "nan score", "inf score", "-inf score"])
    def test_columns_checked(self, n, scores, groups):
        rows = box_rows([det(0.9).box] * n)
        with pytest.raises(ValueError, match=r"need finite scores \(N,\) and integer group ids \(N,\)"):
            batched_rotated_nms(rows, scores, list(groups))


def _kernel_keeps(rows, i, j):
    """The circumcircle test by which the IoU kernel (rotgeom._iou_pairs)
    passes the pair (rows[i], rows[j]) on, in its own arithmetic."""
    pa, pb = rows[i], rows[j]
    offset = pb[:, :2] - pa[:, :2]
    reach = np.hypot(pa[:, 2], pa[:, 3]) / 2.0 + np.hypot(pb[:, 2], pb[:, 3]) / 2.0
    return np.hypot(offset[:, 0], offset[:, 1]) <= reach


def _tangent_rows(rng, n):
    """Pairs of boxes whose centres lie their circumradii apart, then
    moved by -4 ... 4 units in the last place of that distance: the
    kernel's test is decided by rounding."""
    a, _ = _tile_scene(rng, n, 100.0)
    b, _ = _tile_scene(rng, n, 100.0)
    reach = np.hypot(a[:, 2], a[:, 3]) / 2.0 + np.hypot(b[:, 2], b[:, 3]) / 2.0
    reach *= 1.0 + 2.0**-52 * rng.integers(-4, 5, n)
    phi = rng.choice([0.0, 0.5 * math.pi, rng.uniform(0.0, 2.0 * math.pi)], n)
    b[:, :2] = a[:, :2] + reach[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
    # sides 3 and 4 at centres 5 apart: exactly tangent circumcircles
    exact = np.array([(0.0, 0.0, 4.0, 3.0, 10.0), (3.0, 4.0, 4.0, 3.0, -70.0),
                      (5.0, 0.0, 3.0, 4.0, 0.0), (0.0, -5.0, 4.0, 3.0, 45.0)])
    return np.concatenate([a, b, exact])


class TestCandidatePairs:
    """Every pair that the IoU kernel's circumcircle test keeps is a
    candidate, so dropping the others changes no IoU."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_superset_of_kernel_test(self, scale, shift):
        rng = np.random.default_rng(int(math.log10(scale)) + 10)
        near, _ = _tile_scene(rng, 300, 150.0)
        rows = np.concatenate([near, _tangent_rows(rng, 200)]) * (scale, scale, scale, scale, 1.0)
        rows[:, :2] += shift
        groups = rng.choice([0, 1], len(rows))
        i, j = evaluation._candidate_pairs(rows, groups)
        assert (i < j).all() and (groups[i] == groups[j]).all()
        a, b = np.triu_indices(len(rows), 1)
        same = groups[a] == groups[b]
        a, b = a[same], b[same]
        keeps = _kernel_keeps(rows, a, b) | _kernel_keeps(rows, b, a)
        assert keeps.sum() > 1000
        found = set(zip(i.tolist(), j.tolist()))
        assert len(found) == len(i)
        assert all(pair in found for pair in zip(a[keeps].tolist(), b[keeps].tolist()))

    def test_tangent_circumcircles(self):
        rows = _tangent_rows(np.random.default_rng(3), 0)
        assert _kernel_keeps(rows, np.zeros(3, dtype=int), np.arange(1, 4)).all()
        i, j = evaluation._candidate_pairs(rows, np.zeros(4, dtype=int))
        assert {(0, 1), (0, 2), (0, 3)} <= set(zip(i.tolist(), j.tolist()))


class TestIouThreshold:
    @pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, math.inf, -math.inf])
    def test_rejected(self, bad):
        # under NaN every comparison fails, so a disjoint pair would lose
        # its second box
        disjoint = [det(0.9), det(0.8, cx=100)]
        with pytest.raises(ValueError, match="IoU threshold"):
            rotated_nms(disjoint, bad)
        with pytest.raises(ValueError, match="IoU threshold"):
            batched_rotated_nms(box_rows([d.box for d in disjoint]), [0.9, 0.8], [0, 1], bad)
        with pytest.raises(ValueError, match="IoU threshold"):
            evaluate(disjoint, [gt()], ["ship"], iou_thresh=bad)
        with pytest.raises(ValueError, match="IoU threshold"):
            compute_ap(disjoint, [gt()], iou_thresh=bad)

    def test_bounds_accepted(self):
        same = [det(0.9), det(0.8)]
        assert rotated_nms(same, 1.0) == same
        assert rotated_nms([det(0.9), det(0.8, cx=3.9)], 0.0) == [det(0.9)]
        assert compute_ap([det(0.9)], [gt()], iou_thresh=1.0) == 1.0
        assert compute_ap([det(0.9, cx=3.0)], [gt()], iou_thresh=0.0) == 1.0


class TestOneCallMatching:
    """evaluate computes the same-image, same-class pairs of all images
    in one kernel call."""

    @pytest.mark.parametrize("images", [1, 3, 7])
    def test_one_call_for_any_number_of_images(self, monkeypatch, images):
        dets, gts = _crowded_scene(np.random.default_rng(images), images=images)
        calls = []
        real = evaluation.rotated_iou_pairs
        # the pairs go in as indices into the detection and gt rows
        monkeypatch.setattr(evaluation, "rotated_iou_pairs", lambda a, b, i, j: calls.append(len(i)) or real(a, b, i, j))
        evaluate(dets, gts, ["ship", "plane", "harbor"])
        same = sum(d.image_id == g.image_id and d.class_id == g.class_id for d in dets for g in gts)
        assert calls == [same]

    @pytest.mark.parametrize("seed", range(2))
    def test_multi_image_matches_per_class_reference(self, seed):
        dets, gts = _crowded_scene(np.random.default_rng(100 + seed), n_gts=30, n_dets=100, images=5)
        assert len({d.image_id for d in dets}) == 5
        _assert_matches_reference(dets, gts, ["ship", "plane", "harbor"])

    def test_images_without_gts(self):
        dets = [det(0.9, image="a"), det(0.8, image="b", cls=1), det(0.7, image="c")]
        report = evaluate(dets, [gt(image="a"), gt(image="c", cls=1)], ["ship", "plane"])
        assert report.pr_curves["ship"] == ([1.0, 1.0], [1.0, 0.5])
        assert report.pr_curves["plane"] == ([0.0], [0.0])


def _ranking_scene(rng):
    """Detections and gts for the AP pass: 1-5 classes plus one without
    detections, 1-3 images, 20% difficult gts (so some classes have no
    positives, and some scenes no gts), exact gt copies among the
    detections (several matches of one gt) and scores from five values
    (ties)."""
    classes, images = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    gts = [gt(*rng.uniform(0, 20, 2), *rng.uniform(2, 8, 2), rng.uniform(-90, 90), image=f"im{rng.integers(images)}",
              cls=int(rng.integers(classes)), difficult=bool(rng.random() < 0.2))
           for _ in range(rng.integers(0, 16))]
    dets = []
    for _ in range(rng.integers(0, 40)):
        score = int(rng.integers(1, 6)) / 5
        if not gts or rng.random() < 0.3:
            dets.append(det(score, *rng.uniform(0, 20, 2), *rng.uniform(2, 8, 2), rng.uniform(-90, 90),
                            image=f"im{rng.integers(images)}", cls=int(rng.integers(classes))))
            continue
        g = gts[rng.integers(len(gts))]
        if rng.random() < 0.4:
            dets.append(DetectionRecord(g.image_id, g.class_id, g.box, score))
            continue
        j = rng.normal(0, 1.0, 5) * (1, 1, 0.5, 0.5, 8)
        b = g.box
        dets.append(det(score, b.cx + j[0], b.cy + j[1], b.h + abs(j[2]), b.w + abs(j[3]), b.theta + j[4],
                        image=g.image_id, cls=g.class_id))
    return dets, gts, [f"c{k}" for k in range(classes + 1)]


def _large_curve_scene(rng):
    """A scene whose first class has a long curve: 150-250 gts of class
    c0 in their own grid cells over two images, 10% difficult, nearly all
    them detected once or twice (more than 128 TPs, so a VOC12 sum passes
    numpy's 8-term unroll and 128-term pairwise block), plus false
    positives, at least 200 detections in all, scores from 40 values
    (ties). Class c1 has a few gts and detections, c2 detections but
    only difficult gts, c3 neither; some gts have class ids -1 and 4,
    outside the four names."""
    gts, dets = [], []
    for k in range(int(rng.integers(180, 251))):
        cx, cy = 30.0 * (k % 16) + rng.uniform(-3, 3), 30.0 * (k // 16 % 8) + rng.uniform(-3, 3)
        box = (cx, cy, *rng.uniform(4, 12, 2), rng.uniform(-90, 90))
        cls = 0 if k >= 12 else (1 if k < 6 else 2)
        gts.append(gt(*box, image=f"im{k // 128}", cls=cls, difficult=cls == 2 or bool(rng.random() < 0.1)))
        if k % 25 == 0:
            gts.append(gt(*box, image=f"im{k // 128}", cls=int(rng.choice([-1, 4]))))
    for g in gts:
        for _ in range(int(rng.choice(3, p=(0.05, 0.55, 0.4))) if 0 <= g.class_id < 4 else 0):
            j = rng.normal(0, 1.0, 5) * (0.4, 0.4, 0.2, 0.2, 3)
            b = g.box
            dets.append(det(int(rng.integers(1, 41)) / 40, b.cx + j[0], b.cy + j[1], b.h + abs(j[2]), b.w + abs(j[3]),
                            b.theta + j[4], image=g.image_id, cls=g.class_id))
    for _ in range(40):
        dets.append(det(int(rng.integers(1, 41)) / 40, *rng.uniform(0, 480, 2), *rng.uniform(4, 12, 2),
                        rng.uniform(-90, 90), image=f"im{rng.integers(2)}", cls=int(rng.integers(3))))
    order = rng.permutation(len(dets))
    return [dets[i] for i in order], gts, ["c0", "c1", "c2", "c3"]


class TestOneRankingPass:
    """evaluate's one ranking of all detections against the per-class
    sort-and-loop oracle: the same report, bit for bit, from records and
    from their columns."""

    def test_matches_loop_oracle(self):
        seen = Counter()
        for seed in range(80):
            dets, gts, names = _ranking_scene(np.random.default_rng(seed))
            det_cols, gt_cols = det_columns(dets), gt_columns(gts)
            for thresh in (0.0, 0.5, 1.0):
                report = evaluate(dets, gts, names, thresh)
                columns = evaluate_columns(det_cols, gt_cols, names, thresh)
                want = loop_evaluate(det_cols, gt_cols, names, thresh)
                assert report.to_dict() == columns.to_dict() == want.to_dict()
                assert report.to_json() == columns.to_json() == want.to_json()
                hits = evaluation._hits(det_cols, gt_cols, thresh)
                matched = hits[hits >= 0]
                seen["repeat match"] += len(matched) > len(set(matched.tolist()))
                seen["difficult match"] += any(gts[h].difficult for h in matched)
            seen["tied scores"] += len({(d.class_id, d.score) for d in dets}) < len(dets)
            seen["no gts"] += not gts
            seen["no positives"] += any(not any(g.class_id == c and not g.difficult for g in gts)
                                        for c in {d.class_id for d in dets})
        assert min(seen[k] for k in ("repeat match", "difficult match", "tied scores", "no gts", "no positives")) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_large_curves_match_loop_oracle(self, seed):
        dets, gts, names = _large_curve_scene(np.random.default_rng(300 + seed))
        det_cols, gt_cols = det_columns(dets), gt_columns(gts)
        assert sum(d.class_id == 0 for d in dets) >= 200 and sum(g.class_id == 0 for g in gts) >= 150
        for thresh in (0.0, 0.3, 0.5, 1.0):
            got = evaluate_columns(det_cols, gt_cols, names, thresh)
            assert got.to_json() == loop_evaluate(det_cols, gt_cols, names, thresh).to_json()
            if thresh == 0.5:
                recall, _ = got.pr_curves["c0"]
                assert len(set(recall)) > 129  # VOC12 sums over more than 128 recall steps
                assert got.ap12["c1"] > 0.0 and got.ap12["c2"] == got.ap12["c3"] == 0.0
                assert got.pr_curves["c3"] == ([], []) and set(got.pr_curves["c2"][0]) == {0.0}

    def test_tied_scores_keep_input_order(self):
        near, far = det(0.5), det(0.5, cx=50)
        assert evaluate([far, near], [gt()], ["ship"]).pr_curves["ship"] == ([0.0, 1.0], [0.0, 0.5])
        assert evaluate([near, far], [gt()], ["ship"]).pr_curves["ship"] == ([1.0, 1.0], [1.0, 0.5])

    def test_first_bad_class_id_is_reported(self):
        dets = [det(0.9), det(0.8, cls=7, image="a"), det(0.7, cls=-1, image="b")]
        with pytest.raises(ValueError, match="class id 7 of a detection in image 'a' is outside the 2 classes"):
            evaluate(dets, [], ["ship", "plane"])

    @pytest.mark.parametrize("class_id", [7, -1, 99999999999999999999])
    def test_columns_report_the_first_bad_class_id(self, class_id):
        dets = det_columns([det(0.9), det(0.8, image="a"), det(0.7, cls=2, image="b")])
        dets[1][1] = class_id  # a list, as parse_detections returns it, so any int fits
        with pytest.raises(ValueError, match=f"^class id {class_id} of a detection in image 'a' is outside the 2 classes$"):
            evaluate_columns(dets, gt_columns([]), ["ship", "plane"])


class TestComputeAp:
    def test_perfect_detection(self):
        gts = [gt(), gt(cx=50)]
        dets = [det(0.9), det(0.8, cx=50)]
        assert compute_ap(dets, gts, metric="voc07") == pytest.approx(1.0)
        assert compute_ap(dets, gts, metric="voc12") == pytest.approx(1.0)

    def test_trailing_fp_does_not_hurt_voc12(self):
        gts = [gt()]
        dets = [det(0.9), det(0.8, cx=50)]  # TP then FP after full recall
        assert compute_ap(dets, gts, metric="voc12") == pytest.approx(1.0)

    def test_hand_computed_fixture(self):
        # 2 gts; ranked dets: FP(0.9), TP(0.8), TP(0.7)
        # PR points: (0, 0), (1/2, 1/2), (1, 2/3)
        # voc12: monotonized precision is 2/3 over all recall -> 2/3
        # voc07: max precision at each of the 11 recall points is 2/3 -> 2/3
        gts = [gt(), gt(cx=50)]
        dets = [det(0.9, cx=200), det(0.8), det(0.7, cx=50)]
        assert compute_ap(dets, gts, metric="voc12") == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert compute_ap(dets, gts, metric="voc07") == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_voc07_partial_recall_fixture(self):
        # 2 gts, single TP at recall 0.5 with precision 1:
        # voc07 = 6 * 1 / 11 (recall points 0 .. 0.5)
        gts = [gt(), gt(cx=50)]
        dets = [det(0.9)]
        assert compute_ap(dets, gts, metric="voc07") == pytest.approx(6.0 / 11.0, abs=1e-12)
        assert compute_ap(dets, gts, metric="voc12") == pytest.approx(0.5, abs=1e-12)

    def test_difficult_gt_neither_fn_nor_fp(self):
        gts = [gt(), gt(cx=50, difficult=True)]
        dets = [det(0.9), det(0.8, cx=50)]  # second matches the difficult gt
        assert compute_ap(dets, gts, metric="voc12") == pytest.approx(1.0)

    def test_duplicate_detection_is_fp(self):
        gts = [gt()]
        dets = [det(0.9), det(0.8)]
        ap = compute_ap(dets, gts, metric="voc07")
        assert ap == pytest.approx(1.0)  # recall 1 reached at precision 1

    def test_no_gts_no_dets(self):
        assert compute_ap([], [], metric="voc12") == 0.0

    def test_score_order_invariance(self):
        gts = [gt(), gt(cx=50)]
        dets = [det(0.9, cx=200), det(0.8), det(0.7, cx=50)]
        squared = [DetectionRecord(d.image_id, d.class_id, d.box, d.score**2) for d in dets]
        for metric in ("voc07", "voc12"):
            assert compute_ap(dets, gts, metric=metric) == compute_ap(squared, gts, metric=metric)


class TestEvaluate:
    @pytest.mark.parametrize("metric", ["voc11", "VOC12", None])
    def test_unknown_metric_raises(self, metric):
        report = evaluate([det(0.9)], [gt()], ["ship"])
        assert report.subset_map(["ship"], "voc07") == report.subset_map(["ship"], "voc12") == 1.0
        with pytest.raises(ValueError, match="unknown metric"):
            report.subset_map(["ship"], metric)
        with pytest.raises(ValueError, match="unknown metric"):
            compute_ap([det(0.9)], [gt()], metric=metric)

    def test_subset_map(self):
        gts = [gt(cls=0), gt(cx=50, cls=1)]
        dets = [det(0.9, cls=0), det(0.8, cx=50, cls=1), det(0.7, cx=300, cls=1)]
        report = evaluate(dets, gts, ["ship", "plane"])
        assert report.ap12["ship"] == pytest.approx(1.0)
        assert report.map12 == pytest.approx((report.ap12["ship"] + report.ap12["plane"]) / 2)
        assert report.subset_map(["ship"]) == pytest.approx(1.0)
        d = report.to_dict()
        assert d["schema_version"] == 1
        assert set(d["pr_curves"]) == {"ship", "plane"}


DOTA_SAMPLE = """imagesource:GoogleEarth
gsd:0.146343590398
0.0 0.0 1.0 0.0 1.0 1.0 0.0 1.0 ship 0
"""


def _geometry_error_text(quad):
    return f"imagesource:x\n0 0 4 0 4 2 0 2 ship 0\n{quad} ship 0\n1 1 5 1 5 3 1 3 plane 0\n"


_DEGENERATE = "0 0 0 0 1 1 0 1 ship 0"
_MALFORMED = "0 0 1 0 1 1 0 ship 0"
_GOOD = "0 0 4 0 4 2 0 2 ship 0"
FIRST_BAD_LINE_CASES = [  # lines, the first bad line, its error
    ([_GOOD, _DEGENERATE, _MALFORMED], 2, "duplicate vertices"),
    ([_GOOD, _MALFORMED, _DEGENERATE], 2, "tokens"),
    ([_DEGENERATE, "0 0 1 0 1 1 0 1 ship 2"], 1, "duplicate vertices"),
    (["0 0 1 0 1 1 0 1 ship 2", _DEGENERATE], 1, "difficult flag"),
    ([_GOOD, _DEGENERATE, _DEGENERATE.replace("ship", "car")], 2, "duplicate vertices"),
]

# the texts of the ingestion cases below, good and bad
INGESTION_TEXTS = [
    DOTA_SAMPLE,
    "imagesource:x\ngsd:1.0\n",
    "0 0 1 0 1 1 0 ship 0\n",
    "10 20 8 3 35 1 2 3 plane 1\n",
    *(_geometry_error_text(quad) for quad in ("0 0 0 0 1 1 0 1", "0 0 1 0 2 0 3 0", "0 0 1 0 1 nan 0 1")),
    *("\n".join(lines) + "\n" for lines, _, _ in FIRST_BAD_LINE_CASES),
    "0 0 0 0 1 1 0 1 car 0\n0 0 4 0 4 2 0 2 ship 0\n",
    "0 0 40 0 20 30 20 5 ship 0\n20 5 20 30 40 0 0 0 ship 0\n",
    "0 0 20 0 40 0 20 30 ship 0\n",
    "0 0 1 0 1 1 0 1 car 0\n",
]


class TestIngestDota:
    def test_unit_square(self):
        recs = ingest_dota(DOTA_SAMPLE, "P0001", CLASSES)
        assert len(recs) == 1
        r = recs[0]
        assert (r.box.cx, r.box.cy, r.box.h, r.box.w) == pytest.approx((0.5, 0.5, 1, 1), abs=1e-9)
        assert r.class_id == 0 and r.difficult is False

    def test_header_lines_skipped(self):
        recs = ingest_dota("imagesource:x\ngsd:1.0\n", "P0", CLASSES)
        assert recs == []

    def test_wrong_token_count(self):
        bad = "0 0 1 0 1 1 0 ship 0\n"
        with pytest.raises(AnnotationParseError) as exc:
            ingest_dota(bad, "P0", CLASSES)
        assert "line 1" in str(exc.value)

    def test_quad_round_trip(self):
        box = canonicalize180(10, 20, 8, 3, 35)
        coords = " ".join(f"{v:.10f}" for v in to_quad(box).as_array().ravel())
        recs = ingest_dota(f"{coords} plane 1\n", "P1", CLASSES)
        r = recs[0]
        assert (r.box.cx, r.box.cy, r.box.h, r.box.w, r.box.theta) == pytest.approx(
            (10, 20, 8, 3, 35), abs=1e-6
        )
        assert r.difficult is True

    @pytest.mark.parametrize(
        "quad, reason",
        [
            ("0 0 0 0 1 1 0 1", "duplicate vertices"),
            ("0 0 1 0 2 0 3 0", "zero area"),
            ("0 0 1 0 1 nan 0 1", "non-finite"),
        ],
    )
    def test_geometry_error_names_its_line(self, quad, reason):
        text = _geometry_error_text(quad)
        with pytest.raises(AnnotationParseError, match=f"^line 3: .*{reason}") as exc:
            ingest_dota(text, "P0", CLASSES)
        assert exc.value.line_no == 3
        assert isinstance(exc.value.__cause__, InvalidGeometryError)

    def test_first_bad_line_wins(self):
        for lines, line_no, text in FIRST_BAD_LINE_CASES:
            with pytest.raises(AnnotationParseError, match=f"^line {line_no}: .*{text}"):
                ingest_dota("\n".join(lines) + "\n", "P0", CLASSES, strict=True)

    def test_unknown_category_geometry_not_checked(self):
        # a skipped line is not converted, so its geometry cannot fail
        recs = ingest_dota("0 0 0 0 1 1 0 1 car 0\n0 0 4 0 4 2 0 2 ship 0\n", "P0", CLASSES)
        assert [r.class_id for r in recs] == [0]

    def test_vertex_order_and_non_convex(self):
        # every cyclic rotation and reversal of a quad gives one box; a
        # vertex inside the triangle of the others does not change it
        pts = np.array([(0.0, 0.0), (40.0, 0.0), (20.0, 30.0), (20.0, 5.0)])
        lines = []
        for q in (pts, pts[::-1]):
            for r in range(4):
                lines.append(" ".join(map(str, np.roll(q, r, axis=0).ravel())) + " ship 0")
        recs = ingest_dota("\n".join(lines) + "\n", "P0", CLASSES)
        assert len({r.box for r in recs}) == 1
        # the same hull with the fourth vertex on an edge instead
        tri = ingest_dota("0 0 20 0 40 0 20 30 ship 0\n", "P0", CLASSES)[0].box
        box = recs[0].box
        assert (box.cx, box.cy, box.h, box.w, box.theta) == pytest.approx((tri.cx, tri.cy, tri.h, tri.w, tri.theta), abs=1e-12)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("text", INGESTION_TEXTS)
    def test_records_of_one_file_columns(self, text, strict):
        # the same records from the columns, or the same first bad line
        try:
            image_ids, class_ids, difficult, rows = dota_files_columns([("P3", text)], CLASSES, strict)
        except AnnotationParseError as exc:
            with pytest.raises(AnnotationParseError) as got:
                ingest_dota(text, "P3", CLASSES, strict)
            assert (str(got.value), got.value.line_no) == (str(exc), exc.line_no)
            return
        assert rows.shape == (len(image_ids), 5) and image_ids == ["P3"] * len(rows)
        want = [GroundTruthRecord(image_id, cid, OrientedBox180(*row), hard)
                for image_id, cid, hard, row in zip(image_ids, class_ids, difficult, rows.tolist())]
        assert ingest_dota(text, "P3", CLASSES, strict) == want

    def test_unknown_category_lenient_vs_strict(self):
        line = "0 0 1 0 1 1 0 1 car 0\n"
        assert ingest_dota(line, "P0", CLASSES) == []
        with pytest.raises(AnnotationParseError):
            ingest_dota(line, "P0", CLASSES, strict=True)


def _annotation_files(rng):
    """2-6 seeded DOTA files as (image id, text) pairs: 0-2 header lines,
    quads in all eight vertex orders (four starts, either way round),
    difficult flags and unknown categories."""
    files = []
    for f in range(int(rng.integers(2, 7))):
        lines = ["imagesource:GoogleEarth", "gsd:0.146343590398"][: int(rng.integers(3))]
        for _ in range(int(rng.integers(0, 12))):
            box = canonicalize180(*rng.uniform(0, 100, 2), *rng.uniform(2, 20, 2), rng.uniform(-90, 90))
            quad = to_quad(box).as_array()[:: int(rng.choice([-1, 1]))]
            coords = " ".join(f"{v:.4f}" for v in np.roll(quad, int(rng.integers(4)), axis=0).ravel())
            lines.append(f"{coords} {rng.choice(['ship', 'plane', 'car'])} {int(rng.random() < 0.2)}")
        files.append((f"P{f}", "\n".join(lines) + "\n"))
    return files


class TestMultiFileIngestion:
    """dota_files_columns of several files against its columns of each file on its own."""

    def test_columns_are_the_per_file_columns_joined(self):
        most_files = difficult_seen = 0
        for seed in range(20):
            files = _annotation_files(np.random.default_rng(seed))
            parts = [dota_files_columns([(image_id, text)], CLASSES) for image_id, text in files]
            image_ids, class_ids, difficult, rows = dota_files_columns(files, CLASSES)
            assert (image_ids, class_ids, difficult) == tuple([v for part in parts for v in part[k]] for k in range(3))
            assert np.array_equal(rows, np.concatenate([part[3] for part in parts]))
            most_files, difficult_seen = max(most_files, len(set(image_ids))), difficult_seen + (True in difficult)
        assert most_files >= 4 and difficult_seen > 0

    @pytest.mark.parametrize("strict", [False, True])
    def test_first_file_with_a_fault_wins(self, strict):
        # of every ordered pair of texts, the first that fails on its own
        # gives the error, with its position as the source
        for texts in itertools.product(INGESTION_TEXTS, repeat=2):
            files = [(f"P{k}", text) for k, text in enumerate(texts)]
            for source, (image_id, text) in enumerate(files):
                try:
                    dota_files_columns([(image_id, text)], CLASSES, strict)
                except AnnotationParseError as exc:
                    with pytest.raises(AnnotationParseError) as got:
                        dota_files_columns(files, CLASSES, strict)
                    assert (str(got.value), got.value.line_no, got.value.source) == (str(exc), exc.line_no, source)
                    break
            else:
                assert len(dota_files_columns(files, CLASSES, strict)[3]) == sum(
                    len(dota_files_columns([(image_id, text)], CLASSES, strict)[3]) for image_id, text in files)

    @pytest.mark.parametrize("seed", range(5))
    def test_cli_report_of_the_per_file_columns(self, seed, tmp_path, capsys):
        rng = np.random.default_rng(100 + seed)
        files = _annotation_files(rng)
        (tmp_path / "ann").mkdir()
        for image_id, text in files:
            (tmp_path / "ann" / f"{image_id}.txt").write_text(text)
        gts = [[v for image_id, text in files for v in dota_files_columns([(image_id, text)], CLASSES)[k]] for k in range(3)]
        rows = np.concatenate([dota_files_columns([(image_id, text)], CLASSES)[3] for image_id, text in files])
        dets = [det(float(rng.integers(1, 9)) / 8, *np.asarray(row) + rng.normal(0, 0.5, 5), image=image_id, cls=cid)
                for image_id, cid, row in zip(*gts[:2], rows) if rng.random() < 0.8]
        (tmp_path / "dets.txt").write_text("".join(f"{d.image_id} {d.class_id} {d.score} {d.box.cx} {d.box.cy} {d.box.h} "
                                                   f"{d.box.w} {d.box.theta}\n" for d in dets))
        want = evaluate_columns(parse_detections((tmp_path / "dets.txt").read_text(), CLASSES), (*gts, rows),
                                list(CLASSES), 0.5)
        assert main(["eval", "--dets", str(tmp_path / "dets.txt"), "--ann-dir", str(tmp_path / "ann"),
                     "--classes", *CLASSES]) == 0
        assert capsys.readouterr().out == json.dumps(want.to_dict(), indent=2) + "\n"
        assert want.map12 > 0


RECT_SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]


def _scaled_rects(scale):
    return [canonicalize180(10 * scale, 20 * scale, 6 * scale, 2 * scale, theta) for theta in (-60.0, 0.0, 35.0)]


def _quad_text(box):
    return " ".join(repr(float(v)) for v in to_quad(box).as_array().ravel())


def _assert_same_box(got, want, scale):
    assert (got.cx, got.cy, got.h, got.w) == pytest.approx((want.cx, want.cy, want.h, want.w), rel=1e-9, abs=1e-9 * scale)
    assert got.theta == pytest.approx(want.theta, abs=1e-9)


class TestQuadScale:
    @pytest.mark.parametrize("scale", RECT_SCALES)
    def test_ingest_dota(self, scale):
        boxes = _scaled_rects(scale)
        recs = ingest_dota("".join(f"{_quad_text(b)} plane 0\n" for b in boxes), "P1", CLASSES)
        assert len(recs) == len(boxes)
        for rec, box in zip(recs, boxes):
            _assert_same_box(rec.box, box, scale)

    @pytest.mark.parametrize("scale", RECT_SCALES)
    def test_quad_form_detections(self, scale):
        boxes = _scaled_rects(scale)
        *_, rows = parse_detections("".join(f"im1 ship 0.5 {_quad_text(b)}\n" for b in boxes), CLASSES, quad_form=True)
        assert len(rows) == len(boxes)
        for row, box in zip(rows.tolist(), boxes):
            _assert_same_box(OrientedBox180(*row), box, scale)


class TestParseDetections:
    def test_box_form(self):
        image_ids, class_ids, scores, rows = parse_detections("im1 ship 0.9 1.0 2.0 8.0 3.0 35.0\n", CLASSES)
        assert (image_ids, class_ids, scores.tolist()) == (["im1"], [0], [0.9])
        assert rows[0, 4] == pytest.approx(35.0)

    def test_quad_form(self):
        box = canonicalize180(1, 2, 8, 3, 35)
        coords = " ".join(f"{v:.10f}" for v in to_quad(box).as_array().ravel())
        *_, rows = parse_detections(f"im1 0 0.9 {coords}\n", CLASSES, quad_form=True)
        assert rows[0, 2] == pytest.approx(8.0, abs=1e-6)

    def test_malformed_line(self):
        with pytest.raises(AnnotationParseError):
            parse_detections("im1 ship 0.9 1.0\n", CLASSES)

    @pytest.mark.parametrize("quad_form, good, bad_box, box_error", [
        (False, "1 2 8 3 35", "1 2 0 3 35", "non-positive sides: a=0.0, b=3.0"),
        (True, "0 0 4 0 4 2 0 2", "0 0 0 0 1 1 0 1", "duplicate vertices"),
    ])
    def test_first_bad_line_wins(self, quad_form, good, bad_box, box_error):
        want = 11 if quad_form else 8
        for lines, error in (
            ([f"0.5 {good}", f"1.5 {good}", f"0.5 {bad_box}"], "line 2: score 1.5 outside [0, 1]"),
            ([f"0.5 {bad_box}", f"nan {good}"], f"line 1: {box_error}"),
            ([f"0.5 {good}", None, f"-0.5 {bad_box}", f"2 {good}"], f"line 3: {box_error}"),  # one line, both faults
            ([f"inf {good}", "0.5"], "line 1: score inf outside [0, 1]"),
            ([f"0.5 {good}", "0.5", f"1.5 {bad_box}"], f"line 2: expected {want} tokens, got 3"),
            ([f"0.5 {bad_box}", "0.5"], f"line 1: {box_error}"),
            ([f"0.5 {good}", f"x {good}", f"0.5 {bad_box}"], "line 2: could not convert string to float: 'x'"),
        ):
            text = "".join("\n" if line is None else f"im1 ship {line}\n" for line in lines)  # None: a blank line
            with pytest.raises(AnnotationParseError) as exc:
                parse_detections(text, CLASSES, quad_form=quad_form)
            assert str(exc.value) == error
