import math
from collections import Counter

import numpy as np
import pytest

from cslkit import evaluation
from cslkit.evaluation import (
    AnnotationParseError,
    DetectionRecord,
    GroundTruthRecord,
    batched_rotated_nms,
    compute_ap,
    evaluate,
    ingest_dota,
    parse_detections,
    rotated_nms,
)
from cslkit.rotgeom import InvalidGeometryError, OrientedBox180, box_rows, canonicalize180, rotated_iou, to_quad
from oracles import clipped_iou, loop_evaluate

CLASSES = {"ship": 0, "plane": 1}


def det(score, cx=0.0, cy=0.0, h=4.0, w=2.0, theta=0.0, image="im1", cls=0):
    return DetectionRecord(image, cls, canonicalize180(cx, cy, h, w, theta), score)


def gt(cx=0.0, cy=0.0, h=4.0, w=2.0, theta=0.0, image="im1", cls=0, difficult=False):
    return GroundTruthRecord(image, cls, canonicalize180(cx, cy, h, w, theta), difficult)


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
    """Lockstep NMS over many groups against the per-group greedy loop
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
        rounds = [len(k) for k in kept]
        assert max(rounds) == 9 and min(r for r, g in zip(rounds, groups) if len(g) > 1) == 1

    def test_ties_go_by_input_index(self):
        a, b = det(0.5, cx=0.0), det(0.5, cx=0.5)
        assert _batched([[a, b], [b, a]], 0.3) == [[a], [b]]
        rows = box_rows([a.box, b.box, b.box, a.box])
        assert batched_rotated_nms(rows, [0.5] * 4, [1, 1, 0, 0], 0.3).tolist() == [2, 0]

    def test_no_groups(self):
        assert batched_rotated_nms(np.empty((0, 5)), [], []).tolist() == []

    def test_one_kernel_call_per_round(self, monkeypatch):
        calls = []
        real = evaluation.rotated_iou_pairs
        monkeypatch.setattr(evaluation, "rotated_iou_pairs", lambda a, b: calls.append(len(a)) or real(a, b))
        groups = _nms_groups(np.random.default_rng(0))
        kept = _batched(groups, 0.1)
        # the row of 9 disjoint boxes keeps every box, so its last round
        # has no later box left: one call fewer than the rounds
        assert len(calls) == max(len(k) for k in kept) - 1 == 8


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
        monkeypatch.setattr(evaluation, "rotated_iou_pairs", lambda a, b: calls.append(len(a)) or real(a, b))
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


class TestOneRankingPass:
    """evaluate's one ranking of all detections against the per-class
    sort-and-loop oracle: the same report, bit for bit."""

    def test_matches_loop_oracle(self):
        seen = Counter()
        for seed in range(80):
            dets, gts, names = _ranking_scene(np.random.default_rng(seed))
            for thresh in (0.0, 0.5, 1.0):
                report, want = evaluate(dets, gts, names, thresh), loop_evaluate(dets, gts, names, thresh)
                assert report.to_dict() == want.to_dict()
                assert report.to_json() == want.to_json()
                hits = evaluation._hits(dets, gts, thresh)
                matched = hits[hits >= 0]
                seen["repeat match"] += len(matched) > len(set(matched.tolist()))
                seen["difficult match"] += any(gts[h].difficult for h in matched)
            seen["tied scores"] += len({(d.class_id, d.score) for d in dets}) < len(dets)
            seen["no gts"] += not gts
            seen["no positives"] += any(not any(g.class_id == c and not g.difficult for g in gts)
                                        for c in {d.class_id for d in dets})
        assert min(seen[k] for k in ("repeat match", "difficult match", "tied scores", "no gts", "no positives")) > 0

    def test_tied_scores_keep_input_order(self):
        near, far = det(0.5), det(0.5, cx=50)
        assert evaluate([far, near], [gt()], ["ship"]).pr_curves["ship"] == ([0.0, 1.0], [0.0, 0.5])
        assert evaluate([near, far], [gt()], ["ship"]).pr_curves["ship"] == ([1.0, 1.0], [1.0, 0.5])

    def test_first_bad_class_id_is_reported(self):
        dets = [det(0.9), det(0.8, cls=7, image="a"), det(0.7, cls=-1, image="b")]
        with pytest.raises(ValueError, match="class id 7 of a detection in image 'a' is outside the 2 classes"):
            evaluate(dets, [], ["ship", "plane"])


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
        text = f"imagesource:x\n0 0 4 0 4 2 0 2 ship 0\n{quad} ship 0\n1 1 5 1 5 3 1 3 plane 0\n"
        with pytest.raises(AnnotationParseError, match=f"^line 3: .*{reason}") as exc:
            ingest_dota(text, "P0", CLASSES)
        assert exc.value.line_no == 3
        assert isinstance(exc.value.__cause__, InvalidGeometryError)

    def test_first_bad_line_wins(self):
        degenerate = "0 0 0 0 1 1 0 1 ship 0"
        malformed = "0 0 1 0 1 1 0 ship 0"
        good = "0 0 4 0 4 2 0 2 ship 0"
        for lines, line_no, text in (
            ([good, degenerate, malformed], 2, "duplicate vertices"),
            ([good, malformed, degenerate], 2, "tokens"),
            ([degenerate, "0 0 1 0 1 1 0 1 ship 2"], 1, "duplicate vertices"),
            (["0 0 1 0 1 1 0 1 ship 2", degenerate], 1, "difficult flag"),
            ([good, degenerate, degenerate.replace("ship", "car")], 2, "duplicate vertices"),
        ):
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

    def test_unknown_category_lenient_vs_strict(self):
        line = "0 0 1 0 1 1 0 1 car 0\n"
        assert ingest_dota(line, "P0", CLASSES) == []
        with pytest.raises(AnnotationParseError):
            ingest_dota(line, "P0", CLASSES, strict=True)


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
