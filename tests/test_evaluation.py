import numpy as np
import pytest

from cslkit.evaluation import (
    AnnotationParseError,
    DetectionRecord,
    GroundTruthRecord,
    compute_ap,
    evaluate,
    ingest_dota,
    parse_detections,
    rotated_nms,
)
from cslkit.rotgeom import canonicalize180, rotated_iou, to_quad
from oracles import clipped_iou

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
        dets, gts = _random_scene(rng)
        for thresh in (0.3, 0.5, 0.7):
            report = evaluate(dets, gts, ["ship", "plane"], iou_thresh=thresh)
            for cid, name in enumerate(["ship", "plane"]):
                cd = [d for d in dets if d.class_id == cid]
                cg = [g for g in gts if g.class_id == cid]
                recall, precision = _reference_pr(cd, cg, thresh)
                assert report.pr_curves[name] == (recall, precision)
                assert compute_ap(cd, cg, thresh, "voc12") == report.ap12[name]


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
        dets = parse_detections("".join(f"im1 ship 0.5 {_quad_text(b)}\n" for b in boxes), CLASSES, quad_form=True)
        assert len(dets) == len(boxes)
        for d, box in zip(dets, boxes):
            _assert_same_box(d.box, box, scale)


class TestParseDetections:
    def test_box_form(self):
        dets = parse_detections("im1 ship 0.9 1.0 2.0 8.0 3.0 35.0\n", CLASSES)
        assert dets[0].class_id == 0
        assert dets[0].box.theta == pytest.approx(35.0)

    def test_quad_form(self):
        box = canonicalize180(1, 2, 8, 3, 35)
        coords = " ".join(f"{v:.10f}" for v in to_quad(box).as_array().ravel())
        dets = parse_detections(f"im1 0 0.9 {coords}\n", CLASSES, quad_form=True)
        assert dets[0].box.h == pytest.approx(8.0, abs=1e-6)

    def test_malformed_line(self):
        with pytest.raises(AnnotationParseError):
            parse_detections("im1 ship 0.9 1.0\n", CLASSES)
