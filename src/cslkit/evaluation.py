"""Rotated NMS, VOC-style average precision and annotation ingestion.

Annotation files follow the DOTA text layout: one object per line,
"x1 y1 x2 y2 x3 y3 x4 y4 category difficult", with any leading metadata
lines (first token non-numeric) skipped. Detection files carry one line
per detection: "image_id class score cx cy h w theta" (long-edge box
convention), or a quad form "image_id class score x1 y1 ... x4 y4".

Detection files parse into columns (image ids, class ids, scores and
(N, 5) long-edge rows), annotation files into the same with difficult
flags for scores; the quads of all annotation files go through one
min_area_rects call. NMS checks its columns, then runs all groups at
once on sort-and-sweep candidate pairs, in rounds of free detections,
one rotated_iou_pairs call per round; evaluate_columns matches over the
same-image, same-class pairs of all images in one call, then computes
every class's curve and both APs in one array pass. The record APIs
wrap the column code. IoU thresholds lie in [0, 1].
"""

from __future__ import annotations

import functools
import json
import logging
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .rotgeom import (InvalidGeometryError, OrientedBox180, _kernel_rows, box_rows, canonicalize180_rows, min_area_rects,
                      rotated_iou_pairs)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1  # of EvalReport.to_dict and every cslkit JSON payload

_VOC07_RECALLS = np.linspace(0.0, 1.0, 11) - 1e-12  # slack: a recall that rounds just below a point still reaches it


class AnnotationParseError(ValueError):
    """Malformed annotation or detection line; carries the line number
    and, from dota_files_columns, the position of its file (source)."""

    def __init__(self, message, line_no=None, source=None):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no
        self.source = source


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
            "schema_version": SCHEMA_VERSION,
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


def _candidate_pairs(rows, groups):
    """Index pairs (i, j), i < j, of box rows (N, 5) with the same group id
    (N,) whose circumcircles' bounding squares meet, by sort and sweep:
    the 2N x bounds sorted by (group, bound), each low before any equal
    high, so that a bound's position there is an exact integer key; the
    x partners of a box are the boxes whose low lies between its own low
    and high, then a y test.

    Each radius is padded by 2**-39 of the largest coordinate or side, at
    least 2**-40 of the radius plus the largest coordinate: far more than
    the few roundings of these bounds and of the IoU kernel's
    circumcircle test, so every pair that test keeps is a candidate
    (while no sum of coordinates and radii overflows)."""
    n = len(rows)
    radius = np.hypot(rows[:, 2], rows[:, 3]) / 2.0 + 2.0**-39 * np.abs(rows[:, :4]).max(initial=0.0)
    x = np.concatenate([rows[:, 0] - radius, rows[:, 0] + radius])
    order = np.lexsort((x, np.concatenate([groups, groups])))  # stable: lows first among equal bounds
    is_low = order < n
    by_left = order[is_low]  # the boxes by their lows
    lows = np.empty(2 * n, dtype=int)  # lows[k]: the lows at or before bound k in that order
    lows[order] = is_low.cumsum()
    # the partners of the box at position p of by_left are at p + 1 ... p + count[p]
    after = np.arange(1, n + 1)
    count = lows[n:][by_left] - after
    second = np.arange(count.sum()) + (after - count.cumsum() + count).repeat(count)
    cy, r = rows[by_left, 1], radius[by_left]
    low, high = cy - r, cy + r
    meet = np.flatnonzero((low[second] <= high.repeat(count)) & (low.repeat(count) <= high[second]))
    i, j = by_left.repeat(count)[meet], by_left[second[meet]]
    return np.minimum(i, j), np.maximum(i, j)


def batched_rotated_nms(rows, scores, groups, iou_thresh=0.1):
    """Greedy rotated NMS of each group of N detections, given as long-edge
    box rows (N, 5), scores (N,) and integer group ids (N,), all groups at
    once; returns the kept positions sorted by group, then position.

    Each group is sorted by (score desc, position). The candidate pairs of
    _candidate_pairs hold every pair of a group whose IoU can be above 0.
    A live detection is free when no pair ties it to a live, higher-ranked
    one; greedy NMS keeps it, as no kept detection suppressed it and no
    live one can. Each round keeps every free detection and suppresses the
    live ones paired with it whose rotated IoU with it is above
    iou_thresh, all in one rotated_iou_pairs call, then drops the pairs
    with a decided end; the rounds follow the longest chain of pairs, not
    the detections kept. Raises ValueError for an iou_thresh outside
    [0, 1] or other than finite scores and integer group ids (N,), and
    InvalidGeometryError for a row rotated_iou_pairs rejects, alone too."""
    _check_iou_thresh(iou_thresh)
    rows, scores, groups = _kernel_rows(rows), np.asarray(scores, dtype=float), np.asarray(groups)
    if not (scores.shape == groups.shape == (len(rows),) and np.isfinite(scores).all()
            and (groups.dtype.kind in "iu" or not groups.size)):  # an empty list reads as float64
        raise ValueError(f"need finite scores (N,) and integer group ids (N,) for N = {len(rows)} rows, got scores "
                         f"{scores.shape} and group ids {groups.dtype}{groups.shape}")
    order = np.lexsort((-scores, groups))  # stable: ties keep input order
    rows, groups = rows.take(order, axis=0), groups.take(order)
    head, tail = _candidate_pairs(rows, groups)  # in rank order: head is the higher-ranked
    live = np.ones(len(order), dtype=bool)
    keep = np.zeros(len(order), dtype=bool)
    while len(tail):
        free = live.copy()
        free[tail] = False
        keep |= free
        live ^= free
        ask = np.flatnonzero(free[head])
        suppress = rotated_iou_pairs(rows, rows, tail[ask], head[ask]) > iou_thresh
        live[tail[ask[suppress]]] = False
        stay = np.flatnonzero(live[tail] & live[head])
        head, tail = head[stay], tail[stay]
    keep |= live
    kept = order[keep]
    return kept[np.lexsort((kept, groups[keep]))]


def rotated_nms(dets, iou_thresh=0.1):
    """Greedy descending-score suppression with rotated IoU; stable sort
    (score desc, then input index) makes the result deterministic. A
    batch of one of batched_rotated_nms."""
    kept = batched_rotated_nms(*_columns(dets, "box", "score"), np.zeros(len(dets), dtype=int), iou_thresh)
    return [dets[k] for k in kept]


def compute_ap(dets, gts, iou_thresh=0.5, metric="voc12"):
    """Single-class average precision with greedy score-descending
    matching: evaluate with every record in one class. Difficult ground
    truths neither count toward recall nor turn their matches into false
    positives."""
    report = evaluate([replace(d, class_id=0) for d in dets], [replace(g, class_id=0) for g in gts], ["all"], iou_thresh)
    return report.subset_map(["all"], metric)


def _columns(records, *fields):
    """The named fields of records as columns: a list per field, and
    (N, 5) long-edge rows for "box"."""
    return tuple(box_rows([r.box for r in records]) if f == "box" else [getattr(r, f) for r in records] for f in fields)


def _hits(dets, gts, iou_thresh):
    """Each detection's match, the first gt of its image and class with
    the strictly largest IoU, as a gt index if that IoU is above 0 and at
    least iou_thresh, else -1. The (detection, gt) pairs of the same image
    and class, over all images, go through one rotated_iou_pairs call."""
    (det_ids, det_class, _, det_rows), (gt_ids, gt_class, _, gt_rows) = dets, gts
    keys = {}
    gt_key = np.array([keys.setdefault(key, len(keys)) for key in zip(gt_ids, gt_class)], dtype=int)
    det_key = np.array([keys.get(key, -1) for key in zip(det_ids, det_class)], dtype=int)
    # gts per key, in gts order within a key; key -1 (no gt) has none
    by_key = np.argsort(gt_key, kind="stable")
    count = np.append(np.bincount(gt_key, minlength=len(keys)), 0)
    first = np.cumsum(count) - count
    n = count[det_key]
    seg = np.cumsum(n) - n  # where each detection's pairs start
    di = np.repeat(np.arange(len(det_key)), n)
    gi = by_key[np.arange(len(di)) + np.repeat(first[det_key] - seg, n)]
    iou = rotated_iou_pairs(np.reshape(det_rows, (-1, 5)), np.reshape(gt_rows, (-1, 5)), di, gi)
    has = np.flatnonzero(n)
    best = np.maximum.reduceat(iou, seg[has])
    at = np.minimum.reduceat(np.where(iou == np.repeat(best, n[has]), np.arange(len(iou)), len(iou)), seg[has])
    hits = np.full(len(det_key), -1)
    hits[has] = np.where((best > 0.0) & (best >= iou_thresh), gi[at], -1)
    return hits


def evaluate(dets, gts, class_names, iou_thresh=0.5):
    """evaluate_columns of detection and ground-truth records."""
    return evaluate_columns(_columns(dets, "image_id", "class_id", "score", "box"),
                            _columns(gts, "image_id", "class_id", "difficult", "box"), class_names, iou_thresh)


def evaluate_columns(dets, gts, class_names, iou_thresh=0.5):
    """Per-class AP under both conventions plus the mean over classes of the
    columns of parse_detections against those of dota_files_columns, from
    one ranking of all detections by (class, score desc, index): the first
    to match a gt is a TP, one matching a difficult gt neither TP nor FP,
    any other an FP; gts of a class id outside class_names are ignored.
    Raises ValueError for a detection class id outside class_names or an
    iou_thresh outside [0, 1]."""
    _check_iou_thresh(iou_thresh)
    (image_ids, class_ids, scores, _), (_, gt_class, difficult, _) = dets, gts
    det_class = np.array(class_ids)  # an id beyond int64 becomes an object and fails the check too
    n_class = len(class_names)
    bad = np.flatnonzero((det_class < 0) | (det_class >= n_class))
    if bad.size:
        raise ValueError(f"class id {class_ids[bad[0]]} of a detection in image {image_ids[bad[0]]!r} is outside the "
                         f"{n_class} classes")
    order = np.lexsort((-np.asarray(scores, dtype=float), det_class))  # stable: ties keep input order
    hit = _hits(dets, gts, iou_thresh)[order]
    hard = np.asarray(difficult, dtype=bool)
    counted = ~np.append(hard, False)[hit]  # hit -1 reads the sentinel: an FP
    first = np.zeros(len(hit), dtype=bool)
    first[np.unique(hit, return_index=True)[1]] = True
    tp = counted & first & (hit >= 0)
    cls = det_class[order].astype(int)
    bounds = np.searchsorted(cls, np.arange(n_class + 1))
    # exact counts: one running total of TPs and FPs less its value where the class starts
    total = np.zeros((2, len(cls) + 1), dtype=int)
    np.cumsum([tp, counted & ~tp], axis=1, out=total[:, 1:])
    tp_c, fp_c = (total[:, 1:] - total[:, bounds[cls]]).astype(float)
    gt_class = np.asarray(gt_class)
    n_pos = np.bincount(gt_class[~hard & (gt_class >= 0) & (gt_class < n_class)].astype(int), minlength=n_class)
    recall = np.divide(tp_c, n_pos[cls], out=np.zeros(len(cls)), where=n_pos[cls] > 0)
    precision = np.where(tp_c + fp_c > 0, tp_c / np.maximum(tp_c + fp_c, 1e-12), 0.0)
    # each class's curve as a row of r, [0, recall..., 1, 1...], and of p, [0, precision..., 0, 0...]
    r, p = curve = np.zeros((2, n_class, int(np.max(np.diff(bounds), initial=0)) + 2))
    r[:, 1:] = 1.0
    curve[:, cls, np.arange(len(cls)) - bounds[cls] + 1] = recall, precision
    p = np.maximum.accumulate(p[:, ::-1], axis=1)[:, ::-1]  # monotonized: the best precision at any higher recall
    scored = (bounds[1:] > bounds[:-1]) & (n_pos > 0)
    # VOC07: the mean of p at the recalls 0, 0.1, ..., 1 (0 past the last), where p's index is 1 + the number of
    # recalls below; summed left to right, as np.sum can move the last bit
    below = np.bincount(cls * 12 + np.searchsorted(_VOC07_RECALLS, recall, side="right"), minlength=12 * n_class)
    at = np.cumsum(below.reshape(n_class, 12), axis=1)[:, :11] + 1
    voc07 = np.where(scored, functools.reduce(operator.add, np.take_along_axis(p, at, axis=1).T) / 11.0, 0.0)
    # VOC12: the area under p over recall, one np.sum-style pairwise sum per class (np.add.reduceat rounds differently)
    step = r[:, 1:] - r[:, :-1]
    voc12 = [float(np.add.reduce(area[keep])) for area, keep in zip(step * p[:, 1:], (step != 0.0) & scored[:, None])]
    ap07, ap12 = dict(zip(class_names, voc07.tolist())), dict(zip(class_names, voc12))
    spans = zip(class_names, bounds[:-1], bounds[1:])
    curves = {name: (recall[lo:hi].tolist(), precision[lo:hi].tolist()) for name, lo, hi in spans}
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
    """The ground-truth records of one file's dota_files_columns."""
    _, class_ids, difficult, rows = dota_files_columns([(image_id, text)], class_table, strict)
    return [GroundTruthRecord(image_id, cid, OrientedBox180(*row), hard)
            for cid, hard, row in zip(class_ids, difficult, rows.tolist())]


def dota_files_columns(files, class_table, strict=False):
    """Parse DOTA annotation files, (image_id, text) pairs, into one set of
    ground-truth columns: image ids, class ids and difficult flags (lists)
    and (K, 5) long-edge rows, the minimum enclosing rotated rectangles of
    the quads of all files, whatever their vertex order, from one call.

    Leading metadata lines (first token non-numeric) are skipped. Unknown
    categories raise in strict mode and are skipped otherwise, with a
    warning naming the image id and line. Of several bad lines, the first
    in the first file with any is reported, its fault in the parsing or in
    the geometry, with the file's position as the error's source.
    """
    image_ids, class_ids, difficult, coords, where = [], [], [], [], []
    parse_error = None
    try:
        for source, (image_id, text) in enumerate(files):
            body_started = False
            for line_no, raw in enumerate(text.splitlines(), start=1):
                tokens = raw.split()
                if not tokens or not (body_started or _is_number(tokens[0])):
                    continue  # blank, or a header / metadata line
                body_started = True
                quad = _dota_quad(tokens, line_no, class_table, strict)
                if tokens[8] not in class_table:
                    log.warning("%s: line %d: skipping unknown category %r", image_id, line_no, tokens[8])
                    continue
                image_ids.append(image_id)
                class_ids.append(class_table[tokens[8]])
                difficult.append(tokens[9] == "1")
                coords.append(quad)
                where.append((line_no, source))
    except AnnotationParseError as exc:
        exc.source, parse_error = source, exc  # raised after the geometry of the lines before it
    try:
        rows = min_area_rects(np.reshape(coords, (-1, 4, 2)))
    except InvalidGeometryError as exc:
        raise AnnotationParseError(str(exc), *where[exc.index]) from exc
    if parse_error is not None:
        raise parse_error
    return image_ids, class_ids, difficult, rows


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
