"""Rotated NMS, VOC-style average precision and annotation ingestion.

Annotation files follow the DOTA text layout: one object per line,
"x1 y1 x2 y2 x3 y3 x4 y4 category difficult", with any leading metadata
lines (first token non-numeric) skipped. Detection files carry one line
per detection: "image_id class score cx cy h w theta" (long-edge box
convention), or a quad form "image_id class score x1 y1 ... x4 y4".

Detection files parse into columns (image ids, class ids, scores and
(N, 5) long-edge rows), on which NMS runs all groups in lockstep, one
rotated_iou_pairs call per round; matching computes the same-image,
same-class pairs of all images in one call. IoU thresholds lie in [0, 1].
"""

from __future__ import annotations

import functools
import json
import logging
import operator
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .rotgeom import InvalidGeometryError, OrientedBox180, box_rows, canonicalize180_rows, min_area_rects, rotated_iou_pairs

log = logging.getLogger(__name__)

_VOC07_RECALLS = np.linspace(0.0, 1.0, 11) - 1e-12  # slack: a recall that rounds just below a point still reaches it


class AnnotationParseError(ValueError):
    """Malformed annotation or detection line; carries the line number."""

    def __init__(self, message, line_no=None):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


@dataclass(frozen=True)
class DetectionRecord:
    image_id: str
    class_id: int
    box: OrientedBox180
    score: float

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class GroundTruthRecord:
    image_id: str
    class_id: int
    box: OrientedBox180
    difficult: bool = False


@dataclass
class EvalReport:
    ap07: dict  # class name -> AP, 11-point interpolation
    ap12: dict  # class name -> AP, area under monotonized PR curve
    map07: float
    map12: float
    pr_curves: dict = field(default_factory=dict)  # class name -> (recall, precision)

    def subset_map(self, class_names, metric="voc12"):
        if metric not in ("voc07", "voc12"):
            raise ValueError(f"unknown metric {metric!r}")
        aps = self.ap12 if metric == "voc12" else self.ap07
        vals = [aps[c] for c in class_names]
        return float(np.mean(vals)) if vals else 0.0

    def to_dict(self):
        return {
            "schema_version": 1,
            "ap07": self.ap07,
            "ap12": self.ap12,
            "map07": self.map07,
            "map12": self.map12,
            "pr_curves": {c: {"recall": list(r), "precision": list(p)} for c, (r, p) in self.pr_curves.items()},
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _check_iou_thresh(iou_thresh):
    """Reject an IoU threshold outside [0, 1]; NaN fails both
    comparisons, so it is rejected too."""
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"IoU threshold {iou_thresh} is not a number in [0, 1]")


def batched_rotated_nms(rows, scores, groups, iou_thresh=0.1):
    """Greedy rotated NMS of each group of N detections, given as long-edge
    box rows (N, 5), scores (N,) and integer group ids (N,), all groups in
    lockstep; returns the kept positions sorted by group, then position.

    Each group is sorted by (score desc, position). Each round keeps
    every group's next live detection and suppresses the later live ones
    of its group whose rotated IoU with it is above iou_thresh, the pairs
    of all groups in one rotated_iou_pairs call, so there are as many
    rounds as the most detections any group keeps. Raises ValueError for
    an iou_thresh outside [0, 1]."""
    _check_iou_thresh(iou_thresh)
    groups = np.asarray(groups, dtype=int)
    order = np.lexsort((-np.asarray(scores, dtype=float), groups))  # stable: ties keep input order
    rows = np.asarray(rows, dtype=float).take(order, axis=0)
    keep = np.zeros(len(order), dtype=bool)
    # sorted positions of the live detections (row 0) and their groups (row 1)
    live = np.stack([np.arange(len(order)), groups[order]])
    while live.shape[1]:
        head = np.empty(live.shape[1], dtype=bool)  # each group's first live detection
        head[0] = True
        np.not_equal(live[1, 1:], live[1, :-1], out=head[1:])
        keep[live[0].compress(head)] = True
        owner = live[0].take(np.maximum.accumulate(np.where(head, np.arange(len(head)), 0)))  # its group's head
        live, owner = live.compress(~head, axis=1), owner.compress(~head)
        if not live.shape[1]:
            break
        survive = rotated_iou_pairs(rows.take(live[0], axis=0), rows.take(owner, axis=0)) <= iou_thresh
        live = live.compress(survive, axis=1)
    kept = order[keep]
    return kept[np.lexsort((kept, groups[kept]))]


def rotated_nms(dets, iou_thresh=0.1):
    """Greedy descending-score suppression with rotated IoU; stable sort
    (score desc, then input index) makes the result deterministic. A
    batch of one of batched_rotated_nms."""
    kept = batched_rotated_nms(box_rows([d.box for d in dets]), [d.score for d in dets], np.zeros(len(dets)), iou_thresh)
    return [dets[k] for k in kept]


def _ap(recall, precision):
    """(VOC07, VOC12) AP of a non-empty curve from one monotonized
    precision: VOC07 averages it at the recalls 0, 0.1, ..., 1 (0 past
    the last recall), VOC12 integrates it over recall."""
    p = np.concatenate(([0.0], precision, [0.0]))
    p = np.maximum.accumulate(p[::-1])[::-1]  # monotonized: the best precision at any higher recall
    r = np.concatenate(([0.0], recall, [1.0]))
    idx = np.flatnonzero(r[1:] != r[:-1])
    voc12 = float(np.sum((r[idx + 1] - r[idx]) * p[idx + 1]))
    # left to right: np.sum (pairwise from 8 terms) or sum() (compensated from Python 3.12) can move the last bit
    voc07 = functools.reduce(operator.add, p[1 + np.searchsorted(recall, _VOC07_RECALLS)].tolist()) / 11.0
    return voc07, voc12


def compute_ap(dets, gts, iou_thresh=0.5, metric="voc12"):
    """Single-class average precision with greedy score-descending
    matching: evaluate with every record in one class. Difficult ground
    truths neither count toward recall nor turn their matches into false
    positives."""
    report = evaluate([replace(d, class_id=0) for d in dets], [replace(g, class_id=0) for g in gts], ["all"], iou_thresh)
    return report.subset_map(["all"], metric)


def _hits(dets, gts, iou_thresh):
    """Each detection's match, the first gt of its image and class with
    the strictly largest IoU, as a gt index if that IoU is above 0 and at
    least iou_thresh, else -1. The (detection, gt) pairs of the same image
    and class, over all images, go through one rotated_iou_pairs call."""
    keys = {}
    gt_key = np.array([keys.setdefault((g.image_id, g.class_id), len(keys)) for g in gts], dtype=int)
    det_key = np.array([keys.get((d.image_id, d.class_id), -1) for d in dets], dtype=int)
    # gts per key, in gts order within a key; key -1 (no gt) has none
    by_key = np.argsort(gt_key, kind="stable")
    count = np.append(np.bincount(gt_key, minlength=len(keys)), 0)
    first = np.cumsum(count) - count
    n = count[det_key]
    seg = np.cumsum(n) - n  # where each detection's pairs start
    di = np.repeat(np.arange(len(dets)), n)
    gi = by_key[np.arange(len(di)) + np.repeat(first[det_key] - seg, n)]
    det_rows, gt_rows = box_rows([d.box for d in dets]), box_rows([g.box for g in gts])
    iou = rotated_iou_pairs(det_rows.take(di, axis=0), gt_rows.take(gi, axis=0))
    has = np.flatnonzero(n)
    best = np.maximum.reduceat(iou, seg[has])
    at = np.minimum.reduceat(np.where(iou == np.repeat(best, n[has]), np.arange(len(iou)), len(iou)), seg[has])
    hits = np.full(len(dets), -1)
    hits[has] = np.where((best > 0.0) & (best >= iou_thresh), gi[at], -1)
    return hits


def evaluate(dets, gts, class_names, iou_thresh=0.5):
    """Per-class AP under both conventions plus the mean over classes,
    from one ranking of all detections by (class, score desc, index): the
    first to match a gt is a TP, one matching a difficult gt neither TP
    nor FP, any other an FP. Raises ValueError for a detection class id
    outside class_names or an iou_thresh outside [0, 1]."""
    _check_iou_thresh(iou_thresh)
    det_class = np.array([d.class_id for d in dets])  # an id beyond int64 becomes an object and fails the check too
    bad = np.flatnonzero((det_class < 0) | (det_class >= len(class_names)))
    if bad.size:
        d = dets[bad[0]]
        raise ValueError(f"class id {d.class_id} of a detection in image {d.image_id!r} is outside the "
                         f"{len(class_names)} classes")
    order = np.lexsort((-np.array([d.score for d in dets], dtype=float), det_class))  # stable: ties keep input order
    hit = _hits(dets, gts, iou_thresh)[order]
    counted = ~np.array([g.difficult for g in gts] + [False], dtype=bool)[hit]  # hit -1 reads the sentinel: an FP
    first = np.zeros(len(hit), dtype=bool)
    first[np.unique(hit, return_index=True)[1]] = True
    tp = counted & first & (hit >= 0)
    fp = counted & ~tp
    bounds = np.searchsorted(det_class[order], np.arange(len(class_names) + 1))
    n_pos = Counter(g.class_id for g in gts if not g.difficult)
    ap07, ap12, curves = {}, {}, {}
    for cid, (name, lo, hi) in enumerate(zip(class_names, bounds[:-1], bounds[1:])):
        n = n_pos[cid]
        tp_c, fp_c = np.cumsum([tp[lo:hi], fp[lo:hi]], axis=1, dtype=float)
        recall = tp_c / n if n > 0 else np.zeros(hi - lo)
        precision = np.where(tp_c + fp_c > 0, tp_c / np.maximum(tp_c + fp_c, 1e-12), 0.0)
        ap07[name], ap12[name] = _ap(recall, precision) if hi > lo and n > 0 else (0.0, 0.0)
        curves[name] = (recall.tolist(), precision.tolist())
    map07 = float(np.mean(list(ap07.values()))) if ap07 else 0.0
    map12 = float(np.mean(list(ap12.values()))) if ap12 else 0.0
    return EvalReport(ap07=ap07, ap12=ap12, map07=map07, map12=map12, pr_curves=curves)


def _is_number(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _dota_quad(tokens, line_no, class_table, strict):
    """The 8 coordinates of one DOTA body line's tokens, after checking
    the line's layout, its difficult flag and, in strict mode, its
    category."""
    if len(tokens) != 10:
        raise AnnotationParseError(f"expected 8 coordinates, category and difficult flag, got {len(tokens)} tokens", line_no)
    try:
        quad = [float(t) for t in tokens[:8]]
    except ValueError as exc:
        raise AnnotationParseError(str(exc), line_no) from None
    if tokens[9] not in ("0", "1"):
        raise AnnotationParseError(f"difficult flag must be 0 or 1, got {tokens[9]!r}", line_no)
    if strict and tokens[8] not in class_table:
        raise AnnotationParseError(f"unknown category {tokens[8]!r}", line_no)
    return quad


def ingest_dota(text, image_id, class_table, strict=False):
    """Parse one DOTA annotation file into ground-truth records.

    Leading metadata lines (first token non-numeric) are skipped. The
    quads of all body lines are converted together to their minimum
    enclosing rotated rectangles, whatever their vertex order. Unknown
    categories raise in strict mode and are skipped with a warning
    otherwise. Of several bad lines, the first in the file is reported,
    whether its fault is in the parsing or in the geometry.
    """
    coords, line_nos, class_ids, difficult = [], [], [], []
    parse_error = None
    body_started = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if not body_started and not _is_number(tokens[0]):
            continue  # header / metadata line
        body_started = True
        try:
            quad = _dota_quad(tokens, line_no, class_table, strict)
        except AnnotationParseError as exc:
            parse_error = exc  # raised after the geometry of the lines before it
            break
        if tokens[8] not in class_table:
            log.warning("line %d: skipping unknown category %r", line_no, tokens[8])
            continue
        coords.append(quad)
        line_nos.append(line_no)
        class_ids.append(class_table[tokens[8]])
        difficult.append(tokens[9] == "1")
    try:
        rows = min_area_rects(np.reshape(coords, (-1, 4, 2)))
    except InvalidGeometryError as exc:
        raise AnnotationParseError(str(exc), line_nos[exc.index]) from exc
    if parse_error is not None:
        raise parse_error
    return [
        GroundTruthRecord(image_id=image_id, class_id=cid, box=OrientedBox180(*row), difficult=hard)
        for row, cid, hard in zip(rows.tolist(), class_ids, difficult)
    ]


def parse_detections(text, class_table, quad_form=False):
    """Parse a detection file (see the module docstring for the line
    formats) into columns: image ids and class ids (lists, so any int
    fits), scores (N,) and long-edge box rows (N, 5), all boxes reduced
    in one canonicalize180_rows or min_area_rects call. Of several bad
    lines the first is reported; on one line a bad box before a bad
    score."""
    want = 11 if quad_form else 8
    image_ids, class_ids, numbers, line_nos = [], [], [], []
    parse_error = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        try:
            if len(tokens) != want:
                raise ValueError(f"expected {want} tokens, got {len(tokens)}")
            if tokens[1] not in class_table and not tokens[1].removeprefix("-").isdecimal():  # exactly what int() takes
                raise ValueError(f"unknown class {tokens[1]!r}")
            numbers.append([float(t) for t in tokens[2:]])  # the score, then the box
        except ValueError as exc:
            parse_error = AnnotationParseError(str(exc), line_no)  # raised after the lines before it
            break
        image_ids.append(tokens[0])
        class_ids.append(class_table[tokens[1]] if tokens[1] in class_table else int(tokens[1]))
        line_nos.append(line_no)
    numbers = np.reshape(numbers, (-1, want - 2))
    scores = numbers[:, 0]
    bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))  # NaN fails both comparisons
    n = bad[0] + 1 if bad.size else len(scores)  # the boxes up to the first bad score
    try:
        rows = min_area_rects(numbers[:n, 1:].reshape(-1, 4, 2)) if quad_form else canonicalize180_rows(numbers[:n, 1:])
    except InvalidGeometryError as exc:
        raise AnnotationParseError(str(exc), line_nos[exc.index]) from None
    if bad.size:
        raise AnnotationParseError(f"score {scores[n - 1].item()} outside [0, 1]", line_nos[n - 1])
    if parse_error is not None:
        raise parse_error
    return image_ids, class_ids, scores, rows
