"""Rotated NMS, VOC-style average precision and annotation ingestion.

Annotation files follow the DOTA text layout: one object per line,
"x1 y1 x2 y2 x3 y3 x4 y4 category difficult", with any leading metadata
lines (first token non-numeric) skipped. Detection files carry one line
per detection: "image_id class score cx cy h w theta" (long-edge box
convention), or a quad form "image_id class score x1 y1 ... x4 y4".

Detection files parse into columns (image ids, class ids, scores and
(N, 5) long-edge rows), annotation files into the same with difficult
flags for scores. A reader keeps flat lists of tokens and line numbers, no
container per line; it converts all its numbers in one call, searched only
to name a bad line, and reduces all its boxes in one, to rows the IoU
kernel takes: a box it rejects is reported at its line.
NMS checks its rows once and runs all groups on sort-and-sweep candidate
pairs, one IoU kernel call per round of free detections; evaluate_columns
checks its rows once, matches the same-image, same-class pairs of all
images in one kernel call and computes every class's curve and both APs
in one array pass. Record APIs wrap both. IoU thresholds lie in [0, 1].
"""

from __future__ import annotations

import functools
import json
import logging
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .rotgeom import (InvalidGeometryError, OrientedBox180, _iou_pairs, _kernel_rows, box_rows, canonicalize180_rows,
                      min_area_rects)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1  # of EvalReport.to_dict and every cslkit JSON payload

_quote = json.encoder.encode_basestring_ascii  # json's string encoder: a quoted name, non-ASCII as \uXXXX
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
        curves = {c: {"recall": list(r), "precision": list(p)} for c, (r, p) in self.pr_curves.items()}
        return {"schema_version": SCHEMA_VERSION, **vars(self), "pr_curves": curves}

    def to_json(self):
        return _report_json(self)


def _json_block(brackets, items, indent):
    """The text json.dumps(..., indent=2) gives a list or dict (brackets "[]" or "{}") opened indent spaces deep,
    from the list of its rendered items."""
    if not items:
        return brackets
    pad = "\n" + " " * indent
    return f"{brackets[0]}{pad}  {(',' + pad + '  ').join(items)}{pad}{brackets[1]}"


def _json_object(pairs, indent):
    """_json_block of a dict, from (name, rendered value) pairs."""
    return _json_block("{}", [f"{_quote(name)}: {value}" for name, value in pairs], indent)


def _report_json(report, extra=()):
    """json.dumps(report.to_dict() with the (name, value) pairs of extra appended, indent=2) of a report of floats,
    as evaluate_columns gives, formatted once from its values: names through json's string encoder, each value
    through float.__repr__, and each curve joined once."""
    def floats(values, indent):
        return _json_block("[]", list(map(float.__repr__, values)), indent)

    def aps(values):
        return _json_object(zip(values, map(float.__repr__, values.values())), 2)

    curves = [(name, _json_object([("recall", floats(r, 6)), ("precision", floats(p, 6))], 4))
              for name, (r, p) in report.pr_curves.items()]
    return _json_object([("schema_version", SCHEMA_VERSION), ("ap07", aps(report.ap07)), ("ap12", aps(report.ap12)),
                         ("map07", float.__repr__(report.map07)), ("map12", float.__repr__(report.map12)),
                         ("pr_curves", _json_object(curves, 2)),
                         *((name, float.__repr__(value)) for name, value in extra)], 0)


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
    iou_thresh, all in one _iou_pairs call, then drops the pairs with a
    decided end; the rounds follow the longest chain of pairs, not the
    detections kept. Raises ValueError for an iou_thresh outside [0, 1]
    or other than finite scores and integer group ids (N,), and
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
        suppress = _iou_pairs(rows, rows, tail[ask], head[ask]) > iou_thresh  # rows checked, pairs in range
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
    and class, all images' at once, go straight to one IoU kernel call."""
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
    iou = _iou_pairs(_kernel_rows(det_rows), _kernel_rows(gt_rows), di, gi)  # rows checked once, pairs in range
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
    # VOC07: the mean of p at the recalls 0, 0.1, ..., 1 (0 past the last), p's index the number of r's entries below
    # the point (none at 0; p[:, 0] == p[:, 1] once monotonized); summed left to right, as np.sum can move the last bit
    at = (r[:, None] < _VOC07_RECALLS[:, None]).sum(axis=2)
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


def _float_error(tok):
    """float's message for a token it rejects, else None."""
    try:
        float(tok)
    except ValueError as exc:
        return str(exc)


def _numbers(tokens, width, error, where):
    """The numbers (K, width) of K rows of width tokens, one flat list, in
    one conversion, and error; or, if float rejects a token, those of the
    rows before its own and float's AnnotationParseError at where(row)."""
    try:
        return np.array(tokens, dtype=float).reshape(-1, width), error
    except ValueError:  # numpy reads a token as float does, so float rejects a token: name its row
        for k, message in enumerate(map(_float_error, tokens)):
            if message:
                k //= width
                return np.array(tokens[:k * width], dtype=float).reshape(-1, width), AnnotationParseError(message, *where(k))
        raise  # numpy failed on no token that float rejects


def _reader_rows(boxes, where):
    """Long-edge rows of boxes (K, 5) or quads (K, 8) within the IoU kernel's bounds; the first box that the
    reduction or the kernel rejects raises AnnotationParseError at where(box), its (line, source)."""
    try:
        rows = min_area_rects(boxes.reshape(-1, 4, 2)) if boxes.shape[1] == 8 else canonicalize180_rows(boxes)
        return _kernel_rows(rows, "box")
    except InvalidGeometryError as exc:
        _reader_rows(boxes[:exc.index], where)  # a box before it that the kernel rejects comes first
        raise AnnotationParseError(str(exc), *where(exc.index)) from exc


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
    the geometry, with the file's position as the error's source. The
    lines leave flat lists of tokens, ints and flags, no container each.
    """
    quads, line_nos, sources, image_ids, categories, difficult, parse_error = [], [], [], [], [], [], None
    try:
        for source, (image_id, text) in enumerate(files):
            body_started = False
            for line_no, raw in enumerate(text.splitlines(), start=1):
                tokens = raw.split()
                if not tokens or not body_started and _float_error(tokens[0]):
                    continue  # blank, or a header / metadata line
                body_started = True
                if len(tokens) != 10:
                    raise AnnotationParseError(f"expected 8 coordinates, category and difficult flag, got "
                                               f"{len(tokens)} tokens", line_no)
                quads += tokens[:8]  # its numbers are checked before its flag and category
                line_nos.append(line_no)
                sources.append(source)
                if tokens[9] not in ("0", "1"):
                    raise AnnotationParseError(f"difficult flag must be 0 or 1, got {tokens[9]!r}", line_no)
                if strict and tokens[8] not in class_table:
                    raise AnnotationParseError(f"unknown category {tokens[8]!r}", line_no)
                image_ids.append(image_id)  # the labels, of the lines whose layout passed
                categories.append(tokens[8])
                difficult.append(tokens[9] == "1")
    except AnnotationParseError as exc:
        exc.source, parse_error = source, exc
    numbers, parse_error = _numbers(quads, 8, parse_error, lambda k: (line_nos[k], sources[k]))
    for image_id, category, line_no in zip(image_ids[:len(numbers)], categories, line_nos):
        if category not in class_table:
            log.warning("%s: line %d: skipping unknown category %r", image_id, line_no, category)
    kept = [k for k, category in enumerate(categories[:len(numbers)]) if category in class_table]
    rows = _reader_rows(numbers[kept], lambda k: (line_nos[kept[k]], sources[kept[k]]))  # before the parse fault
    if parse_error is not None:
        raise parse_error
    return [image_ids[k] for k in kept], [class_table[categories[k]] for k in kept], [difficult[k] for k in kept], rows


def parse_detections(text, class_table, quad_form=False):
    """Parse a detection file (see the module docstring for the line
    formats) into columns: image ids and class ids (lists, so any int
    fits), scores (N,) and long-edge box rows (N, 5), all boxes reduced
    in one canonicalize180_rows or min_area_rects call; the lines leave
    flat lists of tokens and ints, no container each, and each distinct
    class token is checked once. Of several bad lines the first is
    reported; on one line a bad class before a bad number, a bad box
    before a bad score."""
    want = 11 if quad_form else 8
    image_ids, classes, nums, line_nos, parse_error = [], [], [], [], None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != want:
            parse_error = AnnotationParseError(f"expected {want} tokens, got {len(tokens)}", line_no)
            break
        image_ids.append(tokens[0])
        classes.append(tokens[1])
        nums += tokens[2:]  # the score, then the box
        line_nos.append(line_no)
    # a class outside the table must be an optional "-", then decimal digits; its first line ends the lines read
    unknown = [c for c in dict.fromkeys(classes) if c not in class_table and not c.removeprefix("-").isdecimal()]
    if unknown:
        k = classes.index(unknown[0])
        parse_error = AnnotationParseError(f"unknown class {unknown[0]!r}", line_nos[k])
        del nums[k * (want - 2):]  # only the lines before it are read
    numbers, parse_error = _numbers(nums, want - 2, parse_error, lambda k: (line_nos[k], None))
    ids = {c: class_table[c] if c in class_table else int(c) for c in dict.fromkeys(classes[:len(numbers)])}
    scores = numbers[:, 0]
    bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))  # NaN fails both comparisons
    n = bad[0] + 1 if bad.size else len(scores)  # the boxes up to the first bad score
    rows = _reader_rows(numbers[:n, 1:], lambda k: (line_nos[k], None))
    if bad.size:
        raise AnnotationParseError(f"score {scores[n - 1].item()} outside [0, 1]", line_nos[n - 1])
    if parse_error is not None:
        raise parse_error
    return image_ids[:len(scores)], [ids[c] for c in classes[:len(scores)]], scores, rows
