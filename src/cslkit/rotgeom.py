"""Oriented-box representations, conversions and exact rotated IoU.

Two five-parameter conventions are supported:

* 90-degree convention: theta is the acute angle from the x-axis to the
  side named ``w``, restricted to [-90, 0).
* 180-degree long-edge convention: theta is measured for the long side
  ``h``, restricted to [-90, 90).

All angles are degrees, all coordinates use the mathematical convention
(y up, counter-clockwise positive).

Batched geometry works on float box rows ``(cx, cy, along, across,
theta)``: ``along`` is the side at angle theta, so an OrientedBox180
gives ``(cx, cy, h, w, theta)`` and an OrientedBox90 ``(cx, cy, w, h,
theta)``. Rotated IoU has one kernel behind two entries:
rotated_iou_pairs over K aligned pairs of rows, and rotated_iou_matrix
over every pair of two sets of rows. The kernel clips each edge of
either box to the other box and sums the pieces by Green's theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = 1e-9  # tolerance of the quad checks, relative to the quad's extent
# boundary tolerance of the IoU kernel, relative to the size of each pair
REL_EPS = 1e-10
# box pairs per kernel pass; bounds the kernel's temporaries
PAIR_CHUNK = 2048


class InvalidGeometryError(ValueError):
    """Raised for degenerate or malformed geometric input; ``index`` is
    the position of the offending item when the input is a batch."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def _require_finite(**fields):
    for name, value in fields.items():
        if not math.isfinite(value):
            raise InvalidGeometryError(f"non-finite {name}: {value}")


@dataclass(frozen=True)
class OrientedBox90:
    """Rotated rectangle, 90-degree convention: theta in [-90, 0) is the
    angle from the x-axis to the side named w."""

    cx: float
    cy: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        _require_finite(cx=self.cx, cy=self.cy, w=self.w, h=self.h, theta=self.theta)
        if not (self.w > 0 and self.h > 0):
            raise InvalidGeometryError(f"non-positive sides: w={self.w}, h={self.h}")
        if not (-90.0 <= self.theta < 0.0):
            raise InvalidGeometryError(f"theta {self.theta} outside [-90, 0)")


@dataclass(frozen=True)
class OrientedBox180:
    """Rotated rectangle, long-edge convention: h is the long side, theta
    in [-90, 90) is the angle of the long side."""

    cx: float
    cy: float
    h: float
    w: float
    theta: float

    def __post_init__(self):
        _require_finite(cx=self.cx, cy=self.cy, h=self.h, w=self.w, theta=self.theta)
        if not (self.h >= self.w > 0):
            raise InvalidGeometryError(f"need h >= w > 0, got h={self.h}, w={self.w}")
        if not (-90.0 <= self.theta < 90.0):
            raise InvalidGeometryError(f"theta {self.theta} outside [-90, 90)")


@dataclass(frozen=True)
class QuadBox:
    """Four corners in canonical order: counter-clockwise, starting at the
    lowest (then leftmost) vertex."""

    vertices: tuple  # 4 tuples (x, y)

    def as_array(self):
        return np.asarray(self.vertices, dtype=float)


def canonicalize90(cx, cy, w, h, theta_free):
    """Reduce a free-angle (cx, cy, w, h, theta) into the 90-degree
    convention. A 90-degree shift of theta swaps w and h; theta = 0 is
    represented as theta = -90 with sides swapped."""
    _require_finite(cx=cx, cy=cy, w=w, h=h, theta=theta_free)
    if not (w > 0 and h > 0):
        raise InvalidGeometryError(f"non-positive sides: w={w}, h={h}")
    t = theta_free % 90.0  # [0, 90); may round up to exactly 90.0
    if t >= 90.0:
        t = 0.0
    theta = t - 90.0  # [-90, 0)
    k = round((theta_free - theta) / 90.0)
    if k % 2 != 0:
        w, h = h, w
    return OrientedBox90(float(cx), float(cy), float(w), float(h), float(theta))


def canonicalize180_rows(rows):
    """Reduce (N, 5) rows (cx, cy, a, b, theta-of-side-a) into long-edge
    rows (cx, cy, h, w, theta): long side in h, theta for the long side,
    in [-90, 90). A square tie (a == b) resolves to theta in [-90, 0).
    The first bad row raises InvalidGeometryError with its index: a side
    not above 0 first, else the first non-finite field of its result."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise InvalidGeometryError(f"expected (N, 5) rows, got shape {rows.shape}")
    cx, cy, a, b, theta = rows.T
    swap = b > a
    with np.errstate(invalid="ignore"):  # a non-finite theta reduces to nan, reported below
        t = (theta + np.where(swap, 90.0, 0.0) + 90.0) % 180.0  # may round up to exactly 180.0
    theta = np.where(t >= 180.0, 0.0, t) - 90.0
    h, w = np.where(swap, b, a), np.where(swap, a, b)
    out = np.stack([cx, cy, h, w, np.where((h == w) & (theta >= 0.0), theta - 90.0, theta)], axis=1)
    sides, finite = (a > 0) & (b > 0), np.isfinite(out)
    bad = ~sides | ~finite.all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        field = int(np.argmin(finite[k]))  # the first non-finite field
        message = (f"non-finite {('cx', 'cy', 'h', 'w', 'theta')[field]}: {out[k, field].item()}" if sides[k]
                   else "non-positive sides: a={}, b={}".format(*rows[k, 2:4].tolist()))
        raise InvalidGeometryError(message, index=k)
    return out


def canonicalize180(cx, cy, a, b, theta_free):
    """Reduce (cx, cy, a, b, theta-of-side-a) into an OrientedBox180; a
    batch of one of canonicalize180_rows."""
    return OrientedBox180(*canonicalize180_rows([[cx, cy, a, b, theta_free]]).tolist()[0])


# signs of the (along, across) half-sides at each corner, counter-clockwise
_CORNER_SIGNS = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
_PAIRS = np.triu_indices(4, 1)  # the six vertex pairs of a quad


def _corners(rows, center=None):
    """Corners (2, 4, N), coordinates first, of (N, 5) box rows moved to
    centers (2, N) if given, counter-clockwise from the (+along, +across) corner."""
    center = rows[:, :2].T if center is None else center
    t = np.radians(rows[:, 4])
    c, s = np.cos(t), np.sin(t)
    along = rows[:, 2] / 2.0 * np.stack([c, s])
    across = rows[:, 3] / 2.0 * np.stack([-s, c])
    return center[:, None] + _CORNER_SIGNS[:, :1] * along[:, None] + _CORNER_SIGNS[:, 1:] * across[:, None]


def to_quad(box):
    """Expand an oriented box into its four canonically ordered corners."""
    return order_corners(QuadBox(tuple(map(tuple, _corners(box_rows([box]))[..., 0].T))))


def _gap_and_extent(pts):
    """Smallest and largest Chebyshev distance (K,) between two vertices
    of each of K quads (K, 4, 2); the largest is the quad's extent."""
    gap = np.abs(pts[:, _PAIRS[0]] - pts[:, _PAIRS[1]]).max(axis=2)
    return gap.min(axis=1), gap.max(axis=1)


def _ccw(pts):
    """K quads (K, 4, 2) with their vertices sorted counter-clockwise by
    angle about their centroid."""
    rel = pts - pts.mean(axis=1, keepdims=True)
    order = np.argsort(np.arctan2(rel[..., 1], rel[..., 0]), axis=1, kind="stable")
    return np.take_along_axis(pts, order[..., None], axis=1)


def order_corners(quad):
    """Canonically order four vertices: counter-clockwise winding,
    starting at the vertex with minimal y (ties broken by minimal x).
    Vertices within EPS times the quad's extent are duplicates."""
    pts = np.asarray(quad.vertices if isinstance(quad, QuadBox) else quad, dtype=float)
    if pts.shape != (4, 2):
        raise InvalidGeometryError(f"expected 4 vertices, got shape {pts.shape}")
    gap, extent = _gap_and_extent(pts[None])
    if gap[0] <= EPS * extent[0]:
        raise InvalidGeometryError("duplicate vertices")
    pts = _ccw(pts[None])[0]
    start = min(range(4), key=lambda i: (pts[i, 1], pts[i, 0]))
    pts = np.roll(pts, -start, axis=0)
    return QuadBox(tuple(map(tuple, pts)))


def _next(poly):
    """Each vertex's successor along polygons with vertices on axis 1."""
    return np.concatenate([poly[:, 1:], poly[:, :1]], axis=1)


def _cross(u, v):
    """z of the cross product of vectors with their coordinates first."""
    return u[0] * v[1] - u[1] * v[0]


def _clip_edges(p, q, tol):
    """Clip each edge of K pairs of convex counter-clockwise polygons, p
    (2, n, K) and q (2, m, K) with the coordinates first, to the other
    polygon (Liang-Barsky / Cyrus-Beck). Returns the pieces' starts and
    ends (2, n + m, K), p's first, empty ones at the origin, and which are
    non-empty (n + m, K). They bound the intersection counter-clockwise:
    its area is half the sum of cross(start, end) (Green's theorem).

    Edge i of p, p_i + t d_i, meets edge j of q, q_j + u g_j, at t = tn /
    den, u = un / den. A piece ends at its own stored vertex or at that
    crossing, computed once as p_i + t d_i for both edges so the boundary
    closes exactly. Edges are collinear if both ends of p's lie within tol
    (K,) of q's line: p's is kept and q's dropped if they run the same way."""
    p_next, q_next = _next(p), _next(q)
    d, g = p_next - p, q_next - q
    di, gj = d[:, :, None], g[:, None]  # (2, n, 1, K), (2, 1, m, K)
    w = q[:, None] - p[:, :, None]
    den, tn, un = _cross(di, gj), _cross(w, gj), _cross(w, di)
    collinear = np.maximum(np.abs(tn), np.abs(tn - den)) <= tol * np.hypot(g[0], g[1])
    # collinear pairs become parallel ones (den = 0): p's edge inside only
    # if they run the same way, q's edge outside; + 0.0 turns -0.0 into
    # 0.0, so parallel edges' t and u are +-inf by their side
    den = np.where(collinear, 0.0, den) + 0.0
    tn = np.where(collinear, (di * gj).sum(axis=0), tn)
    un = np.where(collinear, 1.0, un)
    entering = den < 0.0  # p's edge enters q, and q's edge leaves p, across the pair
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t, u = tn / den, un / den
        # p's edge i lies inside q's edge j where tn - t * den >= 0
        lo, hi = np.where(entering, t, 0.0).max(axis=1), np.where(entering, 1.0, t).min(axis=1)
        p_start = np.where(lo > 0.0, p + lo * d, p)
        p_end = np.where(hi < 1.0, p + hi * d, p_next)
        # q's edge j lies inside p's edge i where u * den - un >= 0; its
        # piece ends at the crossing p's edge computes
        enter, leave = np.where(entering, 0.0, u), np.where(entering, u, 1.0)
        q_lo, q_hi = enter.max(axis=0), leave.min(axis=0)
        crossing = (p[:, :, None] + t * di).reshape(2, -1)
        jk = np.arange(u[0].size).reshape(u.shape[1:])  # flat position of each crossing of p's edge 0
        q_start = np.where(q_lo > 0.0, crossing.take(enter.argmax(axis=0) * jk.size + jk, axis=1), q)
        q_end = np.where(q_hi < 1.0, crossing.take(leave.argmin(axis=0) * jk.size + jk, axis=1), q_next)
    keep = np.concatenate([lo < hi, q_lo < q_hi])
    starts = np.where(keep, np.concatenate([p_start, q_start], axis=1), 0.0)
    ends = np.where(keep, np.concatenate([p_end, q_end], axis=1), 0.0)
    return starts, ends, keep


def convex_intersection(p, q):
    """Intersection of two convex counter-clockwise polygons by the IoU
    kernel's edge clipper: its pieces' starts in counter-clockwise order,
    vertices closer than REL_EPS times the larger extent merged, as an
    (N, 2) array; contacts along an edge or at a point give none."""
    p, q = (np.asarray(poly, dtype=float).reshape(-1, 2) for poly in (p, q))
    # work around p's first vertex, with a tolerance relative to the size
    origin = p[0]
    tol = REL_EPS * max(np.ptp(p, axis=0).max(), np.ptp(q, axis=0).max())
    starts, ends, keep = _clip_edges((p - origin).T[..., None], (q - origin).T[..., None], tol)
    starts, ends = starts[..., 0].T[keep[:, 0]], ends[..., 0].T[keep[:, 0]]
    out, at = [], 0
    for _ in range(len(starts)):  # from each piece to the one starting where it ends
        if not out or np.abs(starts[at] - out[-1]).max() > tol:
            out.append(starts[at])
        at = np.abs(starts - ends[at]).max(axis=1).argmin()
    if len(out) > 1 and np.abs(out[0] - out[-1]).max() <= tol:
        out.pop()
    return np.asarray(out).reshape(-1, 2) + origin


def min_area_rects(quads):
    """Minimum-area enclosing rectangles of K quads (K, 4, 2) in any vertex
    order, as (K, 5) rows (cx, cy, h, w, theta) in canonicalize180_rows'
    convention; the exact inverse of to_quad for true rectangles.

    Rotating calipers: each hull edge gives the enclosing rectangle with a
    side along it. Among areas within 1e-12 relative of the smallest, the
    smallest theta wins, then the first edge counter-clockwise from the
    lowest-x (then lowest-y) hull vertex. Non-finite coordinates, vertices
    within EPS times the quad's extent, and hull areas within EPS times
    its square raise InvalidGeometryError, whose index is the first bad
    quad."""
    pts = np.asarray(quads, dtype=float)
    if pts.ndim != 3 or pts.shape[1:] != (4, 2):
        raise InvalidGeometryError(f"expected (K, 4, 2) quads, got shape {pts.shape}")
    finite = np.isfinite(pts).all(axis=(1, 2))
    pts = np.where(finite[:, None, None], pts, 0.0)
    gap, extent = _gap_and_extent(pts)
    duplicate = gap <= EPS * extent
    # hull: the convex vertices, counter-clockwise, ahead of the reflex or
    # collinear one
    pts = _ccw(pts)
    prev, nxt = np.roll(pts, 1, axis=1), np.roll(pts, -1, axis=1)
    convex = _cross((pts - prev).T, (nxt - prev).T).T > 0.0
    pts = np.take_along_axis(pts, np.argsort(~convex, axis=1, kind="stable")[..., None], axis=1)
    n = convex.sum(axis=1, keepdims=True)
    x = np.where(np.arange(4) < n, pts[..., 0], np.inf)
    start = np.argmin(np.where(x == x.min(axis=1, keepdims=True), pts[..., 1], np.inf), axis=1)
    # hull vertices from the start; a 3-vertex hull repeats its start last
    at = (start[:, None] + np.arange(4)) % np.maximum(n, 1)
    hull = np.take_along_axis(pts, at[..., None], axis=1)
    edge = np.take_along_axis(pts, ((at + 1) % np.maximum(n, 1))[..., None], axis=1) - hull
    rel = hull - hull[:, :1]
    area = 0.5 * np.abs(_cross(rel.T, _next(rel).T).sum(axis=0))
    zero_area = (n[:, 0] < 3) | (area <= EPS * extent**2)
    bad = ~finite | duplicate | zero_area
    if bad.any():
        k = int(np.argmax(bad))
        reason = ("non-finite vertex coordinates" if not finite[k] else "duplicate vertices" if duplicate[k]
                  else "degenerate quadrilateral (zero area)")
        raise InvalidGeometryError(reason, index=k)
    # one candidate per hull edge: the hull's extent along and across it
    phi = np.arctan2(edge[..., 1], edge[..., 0])
    c, s = np.cos(phi)[..., None], np.sin(phi)[..., None]
    hx, hy = hull[:, None, :, 0], hull[:, None, :, 1]
    xs = hx * c + hy * s
    ys = -hx * s + hy * c
    e1 = xs.max(axis=2) - xs.min(axis=2)
    e2 = ys.max(axis=2) - ys.min(axis=2)
    mx, my = (xs.max(axis=2) + xs.min(axis=2)) / 2.0, (ys.max(axis=2) + ys.min(axis=2)) / 2.0
    c, s = c[..., 0], s[..., 0]
    rects = np.stack([mx * c - my * s, mx * s + my * c, e1, e2, np.degrees(phi)], axis=2)
    rects = canonicalize180_rows(rects.reshape(-1, 5)).reshape(rects.shape)
    size = e1 * e2
    tie = size <= size.min(axis=1, keepdims=True) * (1.0 + 1e-12)
    best = np.argmin(np.where(tie, rects[..., 4], np.inf), axis=1)
    return rects[np.arange(len(rects)), best]


def quad_to_box180(quad):
    """Minimum-area enclosing rectangle of a quadrilateral, as an
    OrientedBox180; a batch of one of min_area_rects."""
    pts = np.asarray(quad.vertices if isinstance(quad, QuadBox) else quad, dtype=float)
    return OrientedBox180(*min_area_rects(pts[None]).tolist()[0])


def box_rows(boxes):
    """(N, 5) float rows (cx, cy, along, across, theta) of a sequence of
    OrientedBox90 / OrientedBox180 records."""
    rows = []
    for box in boxes:
        if isinstance(box, OrientedBox90):
            rows.append((box.cx, box.cy, box.w, box.h, box.theta))
        elif isinstance(box, OrientedBox180):
            rows.append((box.cx, box.cy, box.h, box.w, box.theta))
        else:
            raise TypeError(f"unsupported box type {type(box)!r}")
    return np.asarray(rows, dtype=float).reshape(-1, 5)


def _check_rows(rows):
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise InvalidGeometryError(f"expected (N, 5) box rows, got shape {rows.shape}")
    if not (np.isfinite(rows).all() and np.min(rows[:, 2:4], initial=np.inf) > 0):
        raise InvalidGeometryError("box rows need finite values and positive sides")
    return rows


def _iou_pairs(a, b, i, j):
    """IoU (K,) of the K pairs a[i], b[j] of checked box rows, clipped
    in a frame centred on the a box; see rotated_iou_pairs."""
    out = np.zeros(len(i))
    for start in range(0, len(i), PAIR_CHUNK):
        pa, pb = a.take(i[start : start + PAIR_CHUNK], axis=0), b.take(j[start : start + PAIR_CHUNK], axis=0)
        offset = pb[:, :2] - pa[:, :2]
        reach = np.hypot(pa[:, 2], pa[:, 3]) / 2.0 + np.hypot(pb[:, 2], pb[:, 3]) / 2.0
        near = np.flatnonzero(np.hypot(offset[:, 0], offset[:, 1]) <= reach)
        if not len(near):
            continue
        pa, pb, offset = pa.take(near, axis=0), pb.take(near, axis=0), offset.take(near, axis=0).T
        starts, ends, _ = _clip_edges(_corners(pa, np.zeros_like(offset)), _corners(pb, offset), REL_EPS * reach[near])
        inter = np.maximum(0.5 * _cross(starts, ends).sum(axis=0), 0.0)
        out[start + near] = np.clip(inter / (pa[:, 2] * pa[:, 3] + pb[:, 2] * pb[:, 3] - inter), 0.0, 1.0)
    return out


def rotated_iou_pairs(a, b):
    """Exact IoU (K,) of K aligned pairs of oriented boxes, given as two
    (K, 5) arrays of box rows (see the module docstring): entry k is the
    IoU of a[k] and b[k].

    Each pair is computed in a frame centred on its box from ``a``, with
    a tolerance relative to the pair's size, so the result does not
    depend on coordinate scale or translation, nor on the other pairs of
    the call. Pairs whose circumcircles do not meet are 0 without further
    work; the others go through the kernel PAIR_CHUNK pairs at a time."""
    a, b = _check_rows(a), _check_rows(b)
    if a.shape != b.shape:
        raise InvalidGeometryError(f"pair lists differ in shape: {a.shape} and {b.shape}")
    k = np.arange(len(a))
    return _iou_pairs(a, b, k, k)


def rotated_iou_matrix(a, b):
    """Exact IoU of every pair of two sets of oriented boxes, given as
    (N, 5) and (M, 5) box rows; returns the (N, M) matrix, whose entry
    (i, j) is rotated_iou_pairs of a[i] and b[j]. Only the index pairs
    are expanded, not the rows."""
    a, b = _check_rows(a), _check_rows(b)
    n, m = len(a), len(b)
    return _iou_pairs(a, b, *np.divmod(np.arange(n * m), m)).reshape(n, m)


def rotated_iou(a, b):
    """Exact intersection-over-union of two oriented boxes. Symmetric;
    1 iff the point sets coincide."""
    return float(rotated_iou_matrix(box_rows([a]), box_rows([b]))[0, 0])


def aligned_bboxes(rows):
    """Axis-aligned enclosing boxes (N, 4) (xmin, ymin, xmax, ymax) of
    (N, 5) box rows."""
    pts = _corners(_check_rows(rows))
    return np.concatenate([pts.min(axis=1), pts.max(axis=1)]).T


def aligned_bbox(box):
    """Axis-aligned enclosing box (xmin, ymin, xmax, ymax)."""
    return tuple(aligned_bboxes(box_rows([box]))[0])


def aligned_iou(a, b):
    """Closed-form IoU of two axis-aligned (xmin, ymin, xmax, ymax) boxes;
    a batch of one of aligned_iou_matrix."""
    return float(aligned_iou_matrix([a], [b])[0, 0])


def aligned_iou_matrix(a, b):
    """Closed-form IoU of every pair of (N, 4) and (M, 4) axis-aligned
    (xmin, ymin, xmax, ymax) boxes; returns the (N, M) matrix."""
    a, b = np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[None]
    side = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    inter = np.where(side > 0.0, side, 0.0).prod(axis=-1)
    union = (a[..., 2:] - a[..., :2]).prod(axis=-1) + (b[..., 2:] - b[..., :2]).prod(axis=-1) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)
