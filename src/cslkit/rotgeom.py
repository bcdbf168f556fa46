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
theta)``.
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
    """Raised for degenerate or malformed geometric input."""


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


def canonicalize180(cx, cy, a, b, theta_free):
    """Reduce (cx, cy, a, b, theta-of-side-a) into the long-edge
    convention: long side in h, theta for the long side, in [-90, 90).
    A square tie (a == b) resolves to theta in [-90, 0)."""
    if not (a > 0 and b > 0):
        raise InvalidGeometryError(f"non-positive sides: a={a}, b={b}")
    if b > a:
        a, b = b, a
        theta_free = theta_free + 90.0
    t = (theta_free + 90.0) % 180.0  # may round up to exactly 180.0
    if t >= 180.0:
        t = 0.0
    theta = t - 90.0  # [-90, 90)
    if a == b and theta >= 0.0:
        theta -= 90.0
    return OrientedBox180(float(cx), float(cy), float(a), float(b), float(theta))


# signs of the (along, across) half-sides at each corner, counter-clockwise
_CORNER_SIGNS = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
_PAIRS = np.triu_indices(4, 1)  # the six vertex pairs of a quad


def _corners(rows):
    """Corners (N, 4, 2) of (N, 5) box rows, counter-clockwise from the
    (+along, +across) corner, before canonical ordering."""
    t = np.radians(rows[:, 4])
    c, s = np.cos(t), np.sin(t)
    along = rows[:, 2:3] / 2.0 * np.stack([c, s], axis=1)
    across = rows[:, 3:4] / 2.0 * np.stack([-s, c], axis=1)
    return rows[:, None, :2] + _CORNER_SIGNS[:, :1] * along[:, None] + _CORNER_SIGNS[:, 1:] * across[:, None]


def to_quad(box):
    """Expand an oriented box into its four canonically ordered corners."""
    return order_corners(QuadBox(tuple(map(tuple, _corners(box_rows([box]))[0]))))


def order_corners(quad):
    """Canonically order four vertices: counter-clockwise winding,
    starting at the vertex with minimal y (ties broken by minimal x).
    Vertices within EPS times the quad's extent are duplicates."""
    pts = np.asarray(quad.vertices if isinstance(quad, QuadBox) else quad, dtype=float)
    if pts.shape != (4, 2):
        raise InvalidGeometryError(f"expected 4 vertices, got shape {pts.shape}")
    gap = np.abs(pts[_PAIRS[0]] - pts[_PAIRS[1]]).max(axis=1)  # its maximum is the extent
    if gap.min() <= EPS * gap.max():
        raise InvalidGeometryError("duplicate vertices")
    centroid = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0])
    pts = pts[np.argsort(ang)]  # counter-clockwise around centroid
    start = min(range(4), key=lambda i: (pts[i, 1], pts[i, 0]))
    pts = np.roll(pts, -start, axis=0)
    return QuadBox(tuple(map(tuple, pts)))


def polygon_area(pts):
    """Unsigned shoelace area; accepts any (N, 2) vertex sequence."""
    pts = np.asarray(pts, dtype=float)
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _next(poly):
    """Each vertex's successor along (K, n, 2) polygons."""
    return np.concatenate([poly[:, 1:], poly[:, :1]], axis=1)


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _intersection_vertices(p, q, tol):
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
    ep = _next(p) - p
    eq = _next(q) - q
    starts = np.concatenate([p, q], axis=1)
    edges = np.concatenate([ep, eq], axis=1)
    inward = edges[..., ::-1] * (-1.0, 1.0) / np.hypot(edges[..., 0], edges[..., 1])[..., None]
    # edge i of p meets edge j of q at p_i + t * ep_i; parallel edges give
    # an infinite or undefined t, and such points fail the inside test
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = _cross(q[:, None] - p[:, :, None], eq[:, None]) / _cross(ep[:, :, None], eq[:, None])
        crossings = p[:, :, None] + t[..., None] * ep[:, :, None]
        pts = np.concatenate([starts, crossings.reshape(k, -1, 2)], axis=1)
        dist = pts @ inward.transpose(0, 2, 1) - np.einsum("kei,kei->ke", inward, starts)[:, None]
        keep = np.all(dist >= -tol[:, None, None], axis=2)
    pts = np.where(keep[..., None], pts, 0.0)
    centroid = pts.sum(axis=1) / np.maximum(keep.sum(axis=1), 1)[:, None]
    rel = pts - centroid[:, None]
    order = np.argsort(np.where(keep, np.arctan2(rel[..., 1], rel[..., 0]), np.inf), axis=1)
    order += np.arange(0, order.size, order.shape[1])[:, None]
    return rel.reshape(-1, 2)[order], keep.ravel()[order], centroid


def _intersection_area(p, q, tol):
    """Areas (K,) of the intersections of K pairs of convex polygons."""
    rel, keep, _ = _intersection_vertices(p, q, tol)
    # dropped points repeat the first vertex and add zero-length edges
    rel = np.where(keep[..., None], rel, rel[:, :1])
    return np.maximum(0.5 * _cross(rel, _next(rel)).sum(axis=1), 0.0)


def convex_intersection(p, q):
    """Intersection of two convex counter-clockwise polygons. Boundary
    contacts are kept but contribute zero area. Returns the
    counter-clockwise (N, 2) vertex array, possibly empty."""
    p = np.asarray(p, dtype=float).reshape(1, -1, 2)
    q = np.asarray(q, dtype=float).reshape(1, -1, 2)
    # work around p's first vertex, with a tolerance relative to the size
    origin = p[0, 0]
    tol = REL_EPS * max(np.ptp(p[0], axis=0).max(), np.ptp(q[0], axis=0).max())
    rel, keep, centroid = _intersection_vertices(p - origin, q - origin, np.array([tol]))
    out = []
    for v in rel[0][keep[0]]:
        if not out or np.abs(v - out[-1]).max() > tol:
            out.append(v)
    if len(out) > 1 and np.abs(out[0] - out[-1]).max() <= tol:
        out.pop()
    return np.asarray(out).reshape(-1, 2) + centroid[0] + origin


def _convex_hull(pts):
    """Monotone-chain convex hull, counter-clockwise."""
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


def quad_to_box180(quad):
    """Minimum-area enclosing rectangle of a quadrilateral, as an
    OrientedBox180. Rotating calipers over convex-hull edges; area ties
    broken by the smaller canonical theta. Exact inverse of to_quad for
    true rectangles."""
    pts = np.asarray(quad.vertices if isinstance(quad, QuadBox) else quad, dtype=float)
    hull = _convex_hull(pts)
    if len(hull) < 3 or polygon_area(hull) <= EPS * np.ptp(hull, axis=0).max() ** 2:
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
        cx = mx * c - my * s
        cy = mx * s + my * c
        box = canonicalize180(cx, cy, e1, e2, math.degrees(phi))
        candidates.append((e1 * e2, box))
    best_area = min(a for a, _ in candidates)
    ties = [b for a, b in candidates if a <= best_area * (1.0 + 1e-12)]
    return min(ties, key=lambda b: b.theta)


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
    if not (np.isfinite(rows).all() and (rows[:, 2:4] > 0).all()):
        raise InvalidGeometryError("box rows need finite values and positive sides")
    return rows


def _rect_corners(center, rows):
    """Counter-clockwise corners (K, 4, 2) of K rectangles given their
    centers (K, 2) and box rows (K, 5)."""
    t = np.radians(rows[:, 4])
    c, s = np.cos(t), np.sin(t)
    axes = np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)  # unit vectors along, across
    return (_CORNER_SIGNS * (rows[:, None, 2:4] / 2.0)) @ axes + center[:, None]


def rotated_iou_matrix(a, b):
    """Exact IoU of every pair of two sets of oriented boxes, given as
    (N, 5) and (M, 5) box rows (see the module docstring); returns the
    (N, M) matrix.

    Each pair is computed in a frame centred on its box from ``a``, with
    a tolerance relative to the pair's size, so the result does not
    depend on coordinate scale or translation. Pairs whose circumcircles
    do not meet are 0 without further work; the others go through the
    kernel PAIR_CHUNK pairs at a time."""
    a = _check_rows(a)
    b = _check_rows(b)
    n, m = len(a), len(b)
    out = np.zeros((n, m))
    radius_a = np.hypot(a[:, 2], a[:, 3]) / 2.0
    radius_b = np.hypot(b[:, 2], b[:, 3]) / 2.0
    for start in range(0, n * m, PAIR_CHUNK):
        i, j = np.divmod(np.arange(start, min(start + PAIR_CHUNK, n * m)), m)
        offset = b[j, :2] - a[i, :2]
        reach = radius_a[i] + radius_b[j]
        near = np.flatnonzero(np.hypot(offset[:, 0], offset[:, 1]) <= reach)
        if not len(near):
            continue
        i, j, offset = i[near], j[near], offset[near]
        pa, pb = a[i], b[j]
        inter = _intersection_area(_rect_corners(np.zeros_like(offset), pa), _rect_corners(offset, pb), REL_EPS * reach[near])
        out[i, j] = np.clip(inter / (pa[:, 2] * pa[:, 3] + pb[:, 2] * pb[:, 3] - inter), 0.0, 1.0)
    return out


def rotated_iou(a, b):
    """Exact intersection-over-union of two oriented boxes. Symmetric;
    1 iff the point sets coincide."""
    return float(rotated_iou_matrix(box_rows([a]), box_rows([b]))[0, 0])


def aligned_bboxes(rows):
    """Axis-aligned enclosing boxes (N, 4) (xmin, ymin, xmax, ymax) of
    (N, 5) box rows."""
    pts = _corners(_check_rows(rows))
    return np.concatenate([pts.min(axis=1), pts.max(axis=1)], axis=1)


def aligned_bbox(box):
    """Axis-aligned enclosing box (xmin, ymin, xmax, ymax)."""
    return tuple(aligned_bboxes(box_rows([box]))[0])


def aligned_iou(a, b):
    """Closed-form IoU of two axis-aligned (xmin, ymin, xmax, ymax) boxes."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def aligned_iou_matrix(a, b):
    """aligned_iou of every pair of (N, 4) and (M, 4) axis-aligned boxes,
    with the same arithmetic; returns the (N, M) matrix."""
    a, b = np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[None]
    side = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    inter = np.where(side > 0.0, side, 0.0).prod(axis=-1)
    union = (a[..., 2:] - a[..., :2]).prod(axis=-1) + (b[..., 2:] - b[..., :2]).prod(axis=-1) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)
