"""Independent oracles used to freeze expected values: Monte-Carlo
rasterization IoU, closed-form IoU of concentric congruent rectangles,
a scalar Sutherland-Hodgman clipper and the rotated IoU built on it,
the batched sorted-candidate IoU (the library's kernel before the edge
clipper), vertex-set comparison, brute-force minimum rectangle, central
finite differences, a per-quad rotating-calipers loop, the batched
calipers on strided vertices (the library's min_area_rects before its
contiguous vertices), a per-anchor loop over the multi-task loss, the
per-class sort-and-loop AP of evaluate, the exact scalar long-edge
reduction with the per-anchor grid loop built on it, the gt-by-gt
forced-anchor loop of assignment, the lockstep batched NMS (the
library's NMS before free sets), the detection and DOTA readers
with one float call per token (the library's readers before their one
conversion per read), and the training-target path before its cached
window and gt-major IoU: circular labels from a modulo index table,
axis-aligned IoU on (N, M, 2) arrays, and the anchor-major assignment
built on both, and the dict payloads of `cslkit nms` and `cslkit eval`
that json.dumps(..., indent=2) wrote before the CLI formatted them from
its columns. Deliberately avoid the library's own clipping /
calipers / loss / AP / canonicalization code paths; the readers and the
strided calipers reduce their boxes with the library's calls, as they
are oracles of the parsing and of the vertex handling only, and the
anchor-major assignment takes its rotated IoU, bins and offsets from
the library, as it is an oracle of the matrix layout and the tie pass."""

import logging
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from cslkit.csl_codec import _bins, window_value
from cslkit.evaluation import SCHEMA_VERSION, AnnotationParseError, EvalReport, _check_iou_thresh, _hits
from cslkit.losses import encode_regression_rows
from cslkit.rotgeom import (EPS, REL_EPS, InvalidGeometryError, OrientedBox180, aligned_bboxes, box_rows,
                            canonicalize180_rows, min_area_rects, rotated_iou_matrix, rotated_iou_pairs, to_quad)
from cslkit.targets import AnchorSet, AssignmentResult

log = logging.getLogger("cslkit.evaluation")  # the library reader's logger, so that the warning records compare equal

MC_CHUNK = 1 << 16
CLIP_EPS = 1e-9  # absolute, so the clipper is exact only near unit scale


def _contains_frame(box):
    """(cx, cy, cos, sin, half along, half across) of a box, the
    constants of its point-in-rectangle test."""
    if hasattr(box, "w") and not hasattr(box, "h"):
        raise TypeError
    along = box.w if type(box).__name__ == "OrientedBox90" else box.h
    across = box.h if type(box).__name__ == "OrientedBox90" else box.w
    t = math.radians(box.theta)
    return box.cx, box.cy, math.cos(t), math.sin(t), along / 2, across / 2


def box_contains(box, pts):
    """Point-in-rotated-rectangle test via the inverse rotation."""
    cx, cy, c, s, half_along, half_across = _contains_frame(box)
    dx = pts[:, 0] - cx
    dy = pts[:, 1] - cy
    u = dx * c + dy * s
    v = -dx * s + dy * c
    return (np.abs(u) <= half_along) & (np.abs(v) <= half_across)


def _contains_into(frame, x, y, out, dx, dy, u, t, edge):
    """box_contains of the points (x, y) written to the bool buffer out:
    the same operations in the same order, in place in the same-length
    float buffers dx, dy, u, t and the bool buffer edge."""
    cx, cy, c, s, half_along, half_across = frame
    np.subtract(x, cx, out=dx)
    np.subtract(y, cy, out=dy)
    np.multiply(dx, c, out=u)  # u = dx * c + dy * s
    np.multiply(dy, s, out=t)
    np.add(u, t, out=u)
    np.less_equal(np.abs(u, out=u), half_along, out=out)
    np.negative(dx, out=dx)  # v = -dx * s + dy * c, in dx
    np.multiply(dx, s, out=dx)
    np.multiply(dy, c, out=dy)
    np.add(dx, dy, out=dx)
    np.less_equal(np.abs(dx, out=dx), half_across, out=edge)
    out &= edge


def mc_iou(a, b, samples=1_000_000, seed=0):
    """Monte-Carlo IoU: uniform samples over the joint axis-aligned
    bounding box, counting membership in each rectangle."""
    pts = np.vstack([to_quad(a).as_array(), to_quad(b).as_array()])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    rng = np.random.default_rng(seed)
    # float32 keeps the per-pair cost low; quantization error is far
    # below the 0.01 comparison tolerance
    scale = (hi - lo).astype(np.float32)
    offset = lo.astype(np.float32)
    # consecutive draws continue one random stream, so the chunk size
    # changes only the speed (cache-sized arrays), never the result.
    # Every chunk reuses the same buffers, and the (x, y) draws are
    # copied into two contiguous rows first: the float32 operations of
    # box_contains then run on contiguous arrays, twice as fast as on
    # the strided columns, with the same bits.
    frames = [_contains_frame(box) for box in (a, b)]
    drawn, points = np.empty((MC_CHUNK, 2), np.float32), np.empty((2, MC_CHUNK), np.float32)
    floats, masks = np.empty((4, MC_CHUNK), np.float32), np.empty((3, MC_CHUNK), bool)
    inter = union = 0
    for left in range(samples, 0, -MC_CHUNK):
        k = min(left, MC_CHUNK)
        xy, (in_a, in_b, edge) = points[:, :k], masks[:, :k]
        rng.random(dtype=np.float32, out=drawn[:k])
        np.copyto(xy, drawn[:k].T)
        xy *= scale[:, None]
        xy += offset[:, None]
        _contains_into(frames[0], *xy, in_a, *floats[:, :k], edge)
        _contains_into(frames[1], *xy, in_b, *floats[:, :k], edge)
        union += np.count_nonzero(np.bitwise_or(in_a, in_b, out=edge))
        inter += np.count_nonzero(np.bitwise_and(in_a, in_b, out=edge))
    if union == 0:
        return 0.0
    return inter / union


def concentric_rect_iou(long, short, delta_deg):
    """Closed-form IoU of two congruent ``long`` x ``short`` rectangles
    sharing a center, one turned by ``delta_deg`` degrees.

    While tan(delta/2) <= short/long the intersection is the rectangle
    minus two pairs of congruent right triangles with legs ``a``,
    ``a*tan(delta)`` and ``c``, ``c*tan(delta)``, where
    a = long/2 - (short/2)*tan(delta/2) and c = short/2 - (long/2)*tan(delta/2):

        I = long*short - tan(delta) * (a**2 + c**2)
        IoU = I / (2*long*short - I)

    Raises ValueError outside that range or for delta outside [0, 90)."""
    if not (long >= short > 0):
        raise ValueError(f"need long >= short > 0, got long={long}, short={short}")
    delta = math.radians(delta_deg)
    half = math.tan(delta / 2)
    if not (0.0 <= delta_deg < 90.0 and half <= short / long):
        raise ValueError(f"closed form needs 0 <= delta < 90 and tan(delta/2) <= short/long, got delta={delta_deg}")
    a = long / 2 - short / 2 * half
    c = short / 2 - long / 2 * half
    inter = long * short - math.tan(delta) * (a * a + c * c)
    return inter / (2 * long * short - inter)


def clip_convex(p, q):
    """Intersection of two convex counter-clockwise polygons by
    successive half-plane clipping (closed half-planes, so boundary
    contacts are kept but contribute zero area). Returns an (N, 2)
    array, possibly empty."""
    out = [tuple(v) for v in np.asarray(p, dtype=float)]
    clip = np.asarray(q, dtype=float)
    n = len(clip)
    for i in range(n):
        if not out:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay

        def side(pt):
            return ex * (pt[1] - ay) - ey * (pt[0] - ax)

        nxt = []
        m = len(out)
        for j in range(m):
            cur, prv = out[j], out[j - 1]
            sc, sp = side(cur), side(prv)
            if sc >= -CLIP_EPS:
                if sp < -CLIP_EPS:
                    nxt.append(_line_intersect(prv, cur, (ax, ay), (bx, by)))
                nxt.append(cur)
            elif sp >= -CLIP_EPS:
                nxt.append(_line_intersect(prv, cur, (ax, ay), (bx, by)))
        out = _dedup(nxt)
    return np.asarray(out, dtype=float).reshape(-1, 2)


def _line_intersect(p1, p2, p3, p4):
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    x4, y4 = p4
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if abs(den) < 1e-300:
        return p2  # parallel; endpoint already on the line
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def _dedup(pts):
    out = []
    for p in pts:
        if not out or (abs(p[0] - out[-1][0]) > CLIP_EPS or abs(p[1] - out[-1][1]) > CLIP_EPS):
            out.append(p)
    if len(out) > 1 and abs(out[0][0] - out[-1][0]) <= CLIP_EPS and abs(out[0][1] - out[-1][1]) <= CLIP_EPS:
        out.pop()
    return out


def shoelace_area(pts):
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clipped_iou(a, b):
    """Rotated IoU of two oriented boxes by the scalar clipper."""
    inter = shoelace_area(clip_convex(to_quad(a).as_array(), to_quad(b).as_array()))
    union = a.h * a.w + b.h * b.w - inter
    return min(max(inter / union, 0.0), 1.0) if union > 0 else 0.0


def _next_vertex(poly):
    return np.concatenate([poly[:, 1:], poly[:, :1]], axis=1)


def _cross_last(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def sorted_candidate_vertices(p, q, tol):
    """Vertices of the intersections of K pairs of convex
    counter-clockwise polygons p (K, n, 2) and q (K, m, 2).

    The candidates are every vertex of either polygon and every crossing
    of an edge of p with an edge of q; a candidate is kept when it lies
    inside every edge of both polygons within the distance tol (K,).
    Kept points are all on the boundary of the intersection, so sorting
    them by angle around their centroid orders them counter-clockwise.
    Returns the candidates relative to that centroid, sorted, with the
    dropped ones last (K, C, 2); the sorted keep mask (K, C); and the
    centroids (K, 2)."""
    k = len(p)
    ep = _next_vertex(p) - p
    eq = _next_vertex(q) - q
    starts = np.concatenate([p, q], axis=1)
    edges = np.concatenate([ep, eq], axis=1)
    inward = edges[..., ::-1] * (-1.0, 1.0) / np.hypot(edges[..., 0], edges[..., 1])[..., None]
    # edge i of p meets edge j of q at p_i + t * ep_i; parallel edges give
    # an infinite or undefined t, and such points fail the inside test
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = _cross_last(q[:, None] - p[:, :, None], eq[:, None]) / _cross_last(ep[:, :, None], eq[:, None])
        crossings = p[:, :, None] + t[..., None] * ep[:, :, None]
        pts = np.concatenate([starts, crossings.reshape(k, -1, 2)], axis=1)
        dist = pts @ inward.transpose(0, 2, 1) - np.einsum("kei,kei->ke", inward, starts)[:, None]
        keep = np.all(dist >= -tol[:, None, None], axis=2)
    pts = np.where(keep[..., None], pts, 0.0)
    centroid = pts.sum(axis=1) / np.maximum(keep.sum(axis=1), 1)[:, None]
    rel = pts - centroid[:, None]
    order = np.argsort(np.where(keep, np.arctan2(rel[..., 1], rel[..., 0]), np.inf), axis=1)
    order += np.arange(0, order.size, order.shape[1])[:, None]
    return rel.reshape(-1, 2).take(order, axis=0), keep.ravel().take(order), centroid


def sorted_candidate_area(p, q, tol):
    """Areas (K,) of the intersections of K pairs of convex polygons, by
    the shoelace formula over sorted_candidate_vertices."""
    rel, keep, _ = sorted_candidate_vertices(p, q, tol)
    # dropped points repeat the first vertex and add zero-length edges
    rel = np.where(keep[..., None], rel, rel[:, :1])
    return np.maximum(0.5 * _cross_last(rel, _next_vertex(rel)).sum(axis=1), 0.0)


def _rect_corners(center, rows):
    """Counter-clockwise corners (K, 4, 2) of K rectangles given their
    centers (K, 2) and box rows (K, 5) (cx, cy, along, across, theta)."""
    t = np.radians(rows[:, 4])
    c, s = np.cos(t), np.sin(t)
    axes = np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)  # unit vectors along, across
    signs = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
    return (signs * (rows[:, None, 2:4] / 2.0)) @ axes + center[:, None]


def sorted_candidate_iou_matrix(a, b):
    """IoU (N, M) of every pair of (N, 5) and (M, 5) box rows by
    sorted_candidate_area, with the arithmetic of the library's kernel
    before the edge clipper: a frame centred on the ``a`` box and a
    tolerance of REL_EPS times the sum of the two circumradii. Every pair
    goes through the candidates; none is pruned."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    i, j = np.divmod(np.arange(len(a) * len(b)), len(b))
    pa, pb = a[i], b[j]
    offset = pb[:, :2] - pa[:, :2]
    reach = np.hypot(pa[:, 2], pa[:, 3]) / 2.0 + np.hypot(pb[:, 2], pb[:, 3]) / 2.0
    inter = sorted_candidate_area(_rect_corners(np.zeros_like(offset), pa), _rect_corners(offset, pb), REL_EPS * reach)
    iou = np.clip(inter / (pa[:, 2] * pa[:, 3] + pb[:, 2] * pb[:, 3] - inter), 0.0, 1.0)
    return iou.reshape(len(a), len(b))


def vertex_set_equal(q1, q2, tol=1e-9):
    """Whether two vertex lists hold the same points in any order: equal
    counts, each vertex of q1 matched one to one with a vertex of q2
    within tol per coordinate. (Sorting rounded vertices instead breaks
    when two nearly equal coordinates round to different sides.)"""
    a = np.asarray(q1, dtype=float).reshape(-1, 2)
    left = list(np.asarray(q2, dtype=float).reshape(-1, 2))
    if len(a) != len(left):
        return False
    for v in a:
        k = next((k for k, w in enumerate(left) if np.abs(v - w).max() <= tol), None)
        if k is None:
            return False
        left.pop(k)
    return True


def brute_force_min_rect_area(pts, step_deg=0.01):
    """Lower bound on the minimum enclosing rectangle area by scanning
    orientations on a dense grid."""
    pts = np.asarray(pts, dtype=float)
    best = math.inf
    for deg in np.arange(0.0, 180.0, step_deg):
        t = math.radians(deg)
        c, s = math.cos(t), math.sin(t)
        u = pts[:, 0] * c + pts[:, 1] * s
        v = -pts[:, 0] * s + pts[:, 1] * c
        best = min(best, (u.max() - u.min()) * (v.max() - v.min()))
    return best


def convex_hull(pts):
    """Monotone-chain convex hull, counter-clockwise from the lowest-x
    (then lowest-y) point; collinear points are dropped."""
    pts = sorted(map(tuple, pts))
    if len(pts) <= 2:
        return np.asarray(pts, dtype=float)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=float)


def calipers_box180(pts):
    """Minimum-area enclosing rectangle of a point set as an
    OrientedBox180, one hull edge at a time: each edge's candidate goes
    through scalar_canonicalize180, and among areas within 1e-12 relative
    of the smallest the smallest theta wins, then the earliest edge. Raises
    InvalidGeometryError when the hull's area is within EPS times its
    squared extent of zero."""
    hull = convex_hull(np.asarray(pts, dtype=float))
    if len(hull) < 3 or shoelace_area(hull) <= EPS * np.ptp(hull, axis=0).max() ** 2:
        raise InvalidGeometryError("degenerate quadrilateral (zero area)")
    candidates = []
    n = len(hull)
    for i in range(n):
        ex, ey = hull[(i + 1) % n] - hull[i]
        phi = math.atan2(ey, ex)
        c, s = math.cos(phi), math.sin(phi)
        xs = hull[:, 0] * c + hull[:, 1] * s
        ys = -hull[:, 0] * s + hull[:, 1] * c
        e1 = xs.max() - xs.min()
        e2 = ys.max() - ys.min()
        mx, my = (xs.max() + xs.min()) / 2.0, (ys.max() + ys.min()) / 2.0
        box = scalar_canonicalize180(mx * c - my * s, mx * s + my * c, e1, e2, math.degrees(phi))
        candidates.append((e1 * e2, box))
    best_area = min(a for a, _ in candidates)
    ties = [b for a, b in candidates if a <= best_area * (1.0 + 1e-12)]
    return min(ties, key=lambda b: b.theta)


_VERTEX_PAIRS = np.triu_indices(4, 1)


def strided_min_area_rects(quads):
    """min_area_rects as it was before its vertices were sorted into one
    contiguous array: the gap and extent from the input's vertex pairs,
    the vertices sorted as a strided transposed view, and all
    projections stacked into one (2, 4, 6, K) array before their
    reductions. The library's kernels give the same bits, errors
    included (message and index); it reduces its candidates with the
    library's canonicalize180_rows, as it is an oracle of the vertex
    handling only, and projects about the first sorted vertex as the
    library does."""
    pts = np.asarray(quads, dtype=float)
    if pts.ndim != 3 or pts.shape[1:] != (4, 2):
        raise InvalidGeometryError(f"expected (K, 4, 2) quads, got shape {pts.shape}")
    finite = np.isfinite(pts).all(axis=(1, 2))
    pts = np.where(finite[:, None, None], pts, 0.0)
    pair_gap = np.abs(pts[:, _VERTEX_PAIRS[0]] - pts[:, _VERTEX_PAIRS[1]]).max(axis=2)
    gap, extent = pair_gap.min(axis=1), pair_gap.max(axis=1)
    duplicate = gap <= EPS * extent
    p = np.take_along_axis(pts, np.lexsort((pts[..., 1], pts[..., 0]))[..., None], axis=1).T
    d = p[:, _VERTEX_PAIRS[1]] - p[:, _VERTEX_PAIRS[0]]
    u, v = d[:, [0, 0, 1, 3]], d[:, [1, 2, 2, 4]]
    area = 0.25 * np.abs(u[0] * v[1] - u[1] * v[0]).sum(axis=0)
    bad = ~finite | duplicate | (area <= EPS * extent**2)
    if bad.any():
        k = int(np.argmax(bad))
        reason = ("non-finite vertex coordinates" if not finite[k] else "duplicate vertices" if duplicate[k]
                  else "degenerate quadrilateral (zero area)")
        raise InvalidGeometryError(reason, index=k)
    phi = np.arctan2(d[1], d[0])
    c, s = np.cos(phi), np.sin(phi)
    x, y = (p - p[:, :1])[..., None, :]  # about the first sorted vertex
    along = np.stack([x * c + y * s, y * c - x * s])
    hi, lo = along.max(axis=1), along.min(axis=1)
    e1, e2 = hi - lo
    mx, my = (hi + lo) / 2.0
    rects = np.stack([mx * c - my * s + p[0, 0], mx * s + my * c + p[1, 0], e1, e2, np.degrees(phi)], axis=-1)
    rects = canonicalize180_rows(rects.reshape(-1, 5)).reshape(rects.shape)
    size = e1 * e2
    tie = size <= size.min(axis=0) * (1.0 + 1e-12)
    best = rects[np.argmin(np.where(tie, rects[..., 4], np.inf), axis=0), np.arange(len(pts))]
    best[(best[:, 2] <= best[:, 3] * (1.0 + 1e-12)) & (best[:, 4] >= 0.0), 4] -= 90.0
    return best


def central_diff(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def loop_multi_task_loss(batch, weights, branch, csl_mode, cls_mode, alpha=0.25, gamma=2.0):
    """The multi-task loss of a LossBatch one anchor at a time, with its
    own per-bin formulas (logistic sigmoid, not the library's tanh form)."""

    def label_loss(z, t, mode):
        z = np.asarray(z, dtype=float)
        ce = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
        if mode == "focal":
            ce = alpha * np.abs(t - 1.0 / (1.0 + np.exp(-z))) ** gamma * ce
        return ce.sum()

    reg = csl = cls = 0.0
    for i in range(batch.count):
        d = np.abs(np.asarray(batch.reg_pred[i], dtype=float) - batch.reg_target[i])
        reg += batch.obj[i] * np.where(d < 1.0, 0.5 * d * d, d - 0.5).sum()
        if branch == "csl":
            csl += batch.obj[i] * label_loss(batch.csl_logits[i], batch.csl_target[i], csl_mode)
        cls += label_loss(batch.cls_logits[i], batch.cls_target[i], cls_mode)
    return (weights.lambda1 * reg + weights.lambda2 * csl + weights.lambda3 * cls) / batch.count


def voc07_ap(recall, precision):
    ap = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        mask = recall >= t - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 11.0


def voc12_ap(recall, precision):
    r = np.concatenate(([0.0], recall, [1.0]))
    p = np.concatenate(([0.0], precision, [0.0]))
    p = np.maximum.accumulate(p[::-1])[::-1]  # monotonized: the best precision at any higher recall
    idx = np.where(r[1:] != r[:-1])[0]
    return float(np.sum((r[idx + 1] - r[idx]) * p[idx + 1]))


def pr_and_ap(scores, hits, difficult, n_pos):
    """AP, recall and precision of one class's detections, given their
    scores and hits (indices into the gts' difficult flags, or -1) and the
    class's number of non-difficult gts."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    matched = set()
    tp = np.zeros(len(order))
    fp = np.zeros(len(order))
    for rank, di in enumerate(order):
        gi = int(hits[di])
        if gi >= 0 and difficult[gi]:
            continue  # neither TP nor FP
        if gi >= 0 and gi not in matched:
            matched.add(gi)
            tp[rank] = 1
        else:
            fp[rank] = 1
    tp_c = np.cumsum(tp)
    fp_c = np.cumsum(fp)
    recall = tp_c / n_pos if n_pos > 0 else np.zeros(len(order))
    precision = np.where(tp_c + fp_c > 0, tp_c / np.maximum(tp_c + fp_c, 1e-12), 0.0)
    if len(order) == 0 or n_pos == 0:
        return {"voc07": 0.0, "voc12": 0.0}, recall, precision
    return {"voc07": voc07_ap(recall, precision), "voc12": voc12_ap(recall, precision)}, recall, precision


def loop_evaluate(dets, gts, class_names, iou_thresh=0.5):
    """evaluate_columns's report of the same detection and gt columns,
    with each class's detections sorted and walked one at a time
    (pr_and_ap); the matching is the library's _hits."""
    hits = _hits(dets, gts, iou_thresh)
    (_, det_class, scores, _), (_, gt_class, difficult, _) = dets, gts
    det_class = np.array(det_class, dtype=int)
    n_pos = Counter(c for c, hard in zip(gt_class, difficult) if not hard)
    ap07, ap12, curves = {}, {}, {}
    for cid, name in enumerate(class_names):
        di = np.flatnonzero(det_class == cid)
        ap, recall, precision = pr_and_ap([float(scores[i]) for i in di], hits[di], difficult, n_pos[cid])
        ap07[name] = ap["voc07"]
        ap12[name] = ap["voc12"]
        curves[name] = (recall.tolist(), precision.tolist())
    map07 = float(np.mean(list(ap07.values()))) if ap07 else 0.0
    map12 = float(np.mean(list(ap12.values()))) if ap12 else 0.0
    return EvalReport(ap07=ap07, ap12=ap12, map07=map07, map12=map12, pr_curves=curves)


def scalar_canonicalize180(cx, cy, a, b, theta_free):
    """One box at a time, the long-edge reduction in exact arithmetic:
    long side in h, theta for the long side in [-90, 90), a theta already
    there on an unswapped row kept as it is, any other the exact reduction
    of the swap-shifted angle rounded once (a value that rounds to 90 is
    the same angle as -90), a square tie to theta in [-90, 0)."""
    if not (a > 0 and b > 0):
        raise InvalidGeometryError(f"non-positive sides: a={a}, b={b}")
    swap = b > a
    if swap:
        a, b = b, a
    if not math.isfinite(theta_free):
        theta = math.nan
    elif not swap and -90.0 <= theta_free < 90.0:
        theta = theta_free
    else:
        theta = float((Fraction(theta_free) + 90 * swap + 90) % 180 - 90)
        theta = -90.0 if theta >= 90.0 else theta
    if a == b and theta >= 0.0:
        theta -= 90.0
    return OrientedBox180(float(cx), float(cy), float(a), float(b), float(theta))


def loop_generate_anchors(spec, mode="horizontal"):
    """generate_anchors one anchor at a time: locations row by row, then
    aspect ratios, then angles, each through scalar_canonicalize180."""
    anchors = []
    angles = spec.angles if mode == "rotated" else (0.0,)
    for stride in spec.strides:
        size = spec.base_scale * stride
        n = spec.image_size // stride
        for iy in range(n):
            for ix in range(n):
                cx = (ix + 0.5) * stride
                cy = (iy + 0.5) * stride
                for ratio in spec.aspect_ratios:
                    a = size * math.sqrt(ratio)
                    b = size / math.sqrt(ratio)
                    for ang in angles:
                        anchors.append(scalar_canonicalize180(cx, cy, a, b, ang))
    return anchors


def loop_assign_targets(iou, fg_iou=0.5, bg_iou=0.4):
    """(labels, matched_gt, max_iou) of the max-IoU rule on an (N, M)
    anchor x gt IoU matrix, with the forced-anchor loop of assign_targets
    before each gt kept one anchor of its own: gt by gt in input order,
    onto its first anchor within 1e-12 (relative) of its best IoU, taken
    if that anchor is not foreground yet or is matched at a lower IoU,
    even from an earlier gt forced onto it."""
    n = len(iou)
    matched = np.argmax(iou, axis=1)
    max_iou = iou[np.arange(n), matched]
    labels = np.where(max_iou >= fg_iou, 1, np.where(max_iou < bg_iou, 0, -1))
    for j in range(iou.shape[1]):
        best = int(np.argmax(iou[:, j] >= iou[:, j].max() * (1 - 1e-12)))
        if labels[best] != 1 or iou[best, j] > iou[best, matched[best]]:
            labels[best] = 1
            matched[best] = j
            max_iou[best] = iou[best, j]
    return labels, np.where(labels == 1, matched, -1), max_iou


def modulo_window_rows(bins, cfg):
    """(N, T) labels: the window row of bin 0 gathered through an (N, T)
    table of (k - bins[n]) % T, rebuilt on every call."""
    ring = np.arange(cfg.bin_count)
    return window_value(cfg, ring)[(ring[None, :] - bins[:, None]) % len(ring)]


def stacked_aligned_iou(a, b):
    """Axis-aligned IoU (N, M) of checked (N, 4) and (M, 4) boxes on
    (N, M, 2) overlap and side arrays reduced over their last axis."""
    a, b = a[:, None], b[None]
    side = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    inter = np.where(side > 0.0, side, 0.0).prod(axis=-1)
    union = (a[..., 2:] - a[..., :2]).prod(axis=-1) + (b[..., 2:] - b[..., :2]).prod(axis=-1) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def anchor_major_assign_targets(anchors, gts, cfg, csl_cfg):
    """assign_targets on the anchor-major (N, M) IoU matrix, each gt's ties
    read from its column, with stacked_aligned_iou and modulo_window_rows."""
    anchors = anchors if isinstance(anchors, AnchorSet) else AnchorSet(box_rows(anchors))
    rows, bboxes = anchors.rows, anchors.bboxes
    gt_rows = box_rows([g[0] for g in gts])
    gt_classes = [g[1] for g in gts]
    n, m = len(rows), len(gt_rows)
    labels, matched, max_iou = np.zeros(n, dtype=int), np.full(n, -1), np.zeros(n)
    if m:
        iou = (rotated_iou_matrix(rows, gt_rows) if cfg.anchor_mode == "rotated"
               else stacked_aligned_iou(bboxes, aligned_bboxes(gt_rows)))
        matched = np.argmax(iou, axis=1)
        max_iou = iou[np.arange(n), matched]
        labels = np.where(max_iou >= cfg.fg_iou, 1, np.where(max_iou < cfg.bg_iou, 0, -1))
        best = iou.max(axis=0)
        forced = np.zeros(n, dtype=bool)
        for j in np.argsort(-best, kind="stable").tolist():
            ties = np.flatnonzero(iou[:, j] >= best[j] * (1 - 1e-12))
            may = ties[(labels[ties] != 1) | (iou[ties, j] > max_iou[ties])]
            for i in np.concatenate([may[~forced[may]], may])[:1].tolist():
                labels[i], matched[i], max_iou[i], forced[i] = 1, j, iou[i, j], True
        matched = np.where(labels == 1, matched, -1)
    fg = np.flatnonzero(labels == 1)
    fg_gts = matched[fg]
    offsets = encode_regression_rows(gt_rows[fg_gts], rows[fg])
    used = np.unique(fg_gts)
    bins = _bins(gt_rows[used, 4], csl_cfg)[np.searchsorted(used, fg_gts)]
    class_ids = {i: gt_classes[j] for i, j in zip(fg.tolist(), fg_gts.tolist())}
    return AssignmentResult(labels=labels, matched_gt=matched, max_iou=max_iou, class_ids=class_ids, offsets=offsets,
                            bins=bins, csl_values=modulo_window_rows(bins, csl_cfg))


def lockstep_batched_rotated_nms(rows, scores, groups, iou_thresh=0.1):
    """batched_rotated_nms with all groups in lockstep: each round keeps
    every group's next live detection and suppresses the later live ones
    of its group whose rotated IoU with it is above iou_thresh, the pairs
    of all groups in one rotated_iou_pairs call, so there are as many
    rounds as the most detections any group keeps."""
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


def _is_float(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _loop_dota_quad(tokens, line_no, class_table, strict):
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


def loop_dota_files_columns(files, class_table, strict=False):
    """dota_files_columns with one float call per coordinate, line by
    line: the first bad line stops the loop, and its parse fault is
    raised after the geometry of the lines before it."""
    image_ids, class_ids, difficult, coords, where = [], [], [], [], []
    parse_error = None
    try:
        for source, (image_id, text) in enumerate(files):
            body_started = False
            for line_no, raw in enumerate(text.splitlines(), start=1):
                tokens = raw.split()
                if not tokens or not (body_started or _is_float(tokens[0])):
                    continue  # blank, or a header / metadata line
                body_started = True
                quad = _loop_dota_quad(tokens, line_no, class_table, strict)
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


def loop_parse_detections(text, class_table, quad_form=False):
    """parse_detections with one float call per number, line by line: the
    first bad line stops the loop; of the lines before it, a bad box
    is reported before a bad score, and both before the bad line."""
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


def dict_nms_payload(image_ids, class_ids, scores, rows, kept):
    """The JSON payload of `cslkit nms` as one dict, with its box list, per
    kept detection, from the columns of parse_detections and the kept
    positions of batched_rotated_nms; its CSV rows are read back from the
    dicts as (image_id, class_id, score, *box)."""
    return {"schema_version": SCHEMA_VERSION, "kept": [
        {"image_id": image_ids[k], "class_id": class_ids[k], "score": score, "box": box}
        for k, score, box in zip(kept.tolist(), scores[kept].tolist(), rows[kept].tolist())]}


def dict_eval_payload(report, subset=()):
    """The JSON payload of `cslkit eval`: the report's to_dict, then the
    subset mAPs if a subset is given."""
    payload = report.to_dict()
    if subset:
        payload["subset_map07"] = report.subset_map(subset, "voc07")
        payload["subset_map12"] = report.subset_map(subset, "voc12")
    return payload
