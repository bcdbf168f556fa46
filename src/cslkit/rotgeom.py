"""Oriented-box representations, conversions and exact rotated IoU.

Two five-parameter conventions are supported:

* 90-degree convention: theta is the acute angle from the x-axis to the
  side named ``w``, restricted to [-90, 0).
* 180-degree long-edge convention: theta is measured for the long side
  ``h``, restricted to [-90, 90).

All angles are degrees, all coordinates use the mathematical convention
(y up, counter-clockwise positive).

Both conventions are views of one angle reduction, canonicalize180_rows,
from rows ``(cx, cy, a, b, theta of side a)``, the layout the geometry
kernels take, to long-edge rows ``(cx, cy, h, w, theta)``; canonical rows
come back unchanged. box_rows gives the long-edge rows of either record
type. One rotated-IoU kernel, clipping each edge of either box to the
other and summing the inside pieces by Green's theorem, is behind
rotated_iou_pairs (K pairs, aligned or by index) and rotated_iou_matrix
(all pairs of two sets); each checks a row argument once, an empty list
as zero rows, and raises InvalidGeometryError for rows it cannot take.
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


def _float_rows(rows, width):
    """rows as floats; a ragged list raises InvalidGeometryError at its first row not width values long."""
    try:
        return np.asarray(rows, dtype=float)
    except ValueError:  # numpy's "inhomogeneous shape"; with no such row, its own error is raised
        for k in (k for k, row in enumerate(rows) if not (hasattr(row, "__len__") and len(row) == width)):
            raise InvalidGeometryError(f"row {k} is not a sequence of {width} values", index=k) from None
        raise


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
    convention; a batch of one of canonicalize180_rows. The row goes in
    long side first, so the reduction applies no swap shift and t, theta
    reduced into [-90, 90), stays the angle of w: the box is (w, h, t) for
    t < 0, else (h, w, t - 90). Canonical input comes back unchanged."""
    tall = h > w > 0  # a bad side leaves the row as (w, h), as its error names them
    cx, cy, a, b, t = canonicalize180_rows([[cx, cy, *((h, w) if tall else (w, h)), theta_free]]).tolist()[0]
    w, h = (b, a) if tall else (a, b)
    return OrientedBox90(cx, cy, w, h, t) if t < 0.0 else OrientedBox90(cx, cy, h, w, t - 90.0)


def canonicalize180_rows(rows):
    """Reduce (N, 5) rows (cx, cy, a, b, theta-of-side-a) into long-edge
    rows (cx, cy, h, w, theta): long side in h, theta for the long side,
    in [-90, 90). A row with b > a swaps its sides and adds 90 to theta;
    the angle is reduced exactly and rounded once, so canonical rows come
    back unchanged. A square tie (a == b) resolves to theta in [-90, 0).
    The first bad row raises InvalidGeometryError with its index: a row not
    5 values long, a side not above 0, else the first non-finite field of its result."""
    rows = _float_rows(rows, 5)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise InvalidGeometryError(f"expected (N, 5) rows, got shape {rows.shape}")
    cx, cy, a, b, theta = rows.T
    swap = b > a
    with np.errstate(invalid="ignore"):  # a non-finite theta reduces to nan, reported below
        t = np.where(np.abs(theta) < 180.0, theta, np.fmod(theta, 180.0) + 0.0)  # exact; -0.0 becomes 0.0
    # only a swapped row's shift towards 0 rounds; moving by 180 is exact (Sterbenz)
    t = np.where(swap, np.where(t < 0.0, t + 90.0, t - 90.0), t)
    theta = np.where(t >= 90.0, t - 180.0, np.where(t < -90.0, t + 180.0, t))
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
    batch of one of canonicalize180_rows, so canonical input is kept."""
    return OrientedBox180(*canonicalize180_rows([[cx, cy, a, b, theta_free]]).tolist()[0])


# signs (2, 4, 1) of the a and b half-sides at each corner, counter-clockwise from (+a, +b)
_CORNER_SIGNS = np.array([(1.0, -1.0, -1.0, 1.0), (1.0, 1.0, -1.0, -1.0)])[:, :, None]
_PAIRS = np.triu_indices(4, 1)  # the six vertex pairs of a quad


def _corners(rows):
    """Corners (2, 4, N), coordinates first, of (N, 5) rows (cx, cy, a, b,
    theta of side a), counter-clockwise from the (+a, +b) corner."""
    t = np.radians(rows[:, 4])
    c, s = np.cos(t), np.sin(t)
    along = rows[:, 2] / 2.0 * np.array([c, s])  # np.array: np.stack's (2, N) at a quarter of the call cost
    across = rows[:, 3] / 2.0 * np.array([-s, c])
    return rows[:, :2].T[:, None] + _CORNER_SIGNS[0] * along[:, None] + _CORNER_SIGNS[1] * across[:, None]


def to_quad(box):
    """Expand an oriented box into its four canonically ordered corners."""
    return order_corners(QuadBox(tuple(map(tuple, _corners(box_rows([box]))[..., 0].T))))


def _by_angle(pts):
    """Points (N, 2), N >= 1, sorted counter-clockwise by angle about their centroid."""
    rel = pts - pts.mean(axis=0)
    return pts[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]), kind="stable")]


def order_corners(quad):
    """Canonically order four vertices: counter-clockwise winding,
    starting at the vertex with minimal y (ties broken by minimal x).
    Non-finite or duplicate vertices (within EPS times the quad's extent)
    raise InvalidGeometryError."""
    pts = np.asarray(quad.vertices if isinstance(quad, QuadBox) else quad, dtype=float)
    if pts.shape != (4, 2):
        raise InvalidGeometryError(f"expected 4 vertices, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidGeometryError("non-finite vertex coordinates")
    gap = np.abs(pts[_PAIRS[0]] - pts[_PAIRS[1]]).max(axis=1)  # the Chebyshev distance of each vertex pair
    if gap.min() <= EPS * gap.max():  # the largest is the quad's extent
        raise InvalidGeometryError("duplicate vertices")
    pts = _by_angle(pts)
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
    polygon (Cyrus-Beck / Liang-Barsky). Returns each edge's vertex and
    direction (2, n + m, K), p's first, and the range lo, hi (n + m, K)
    of its parameter, vertex + t direction, inside the other polygon,
    clipped to [0, 1]: empty unless lo < hi. The inside pieces bound the
    intersection counter-clockwise, so its area is half the sum of
    (hi - lo) cross(vertex, direction) (Green's theorem).

    Edge i of p, p_i + t d_i, meets the line of edge j of q, q_j + u g_j,
    at t = tn / den, u = un / den. Edges are collinear if both ends of p's
    lie within tol (K,) of q's line: p's is kept and q's dropped if they
    run the same way."""
    d, g = _next(p) - p, _next(q) - q
    di, gj = d[:, :, None], g[:, None]  # (2, n, 1, K), (2, 1, m, K)
    w = q[:, None] - p[:, :, None]
    den, tn, un = _cross(di, gj), _cross(w, gj), _cross(w, di)
    del w  # the largest temporary, (2, n, m, K), is not needed past here
    collinear = np.maximum(np.abs(tn), np.abs(tn - den)) <= tol * np.hypot(g[0], g[1])
    # collinear pairs become parallel ones (den = 0): p's edge inside only
    # if they run the same way, q's edge outside; + 0.0 turns -0.0 into
    # 0.0, so parallel edges' t and u are +-inf by their side
    if collinear.any():
        den = np.where(collinear, 0.0, den)
        tn, un = np.where(collinear, (di * gj).sum(axis=0), tn), np.where(collinear, 1.0, un)
    den += 0.0
    entering = den < 0.0  # p's edge enters q, and q's edge leaves p, across the pair
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t, u = np.divide(tn, den, out=tn), np.divide(un, den, out=un)
        # p's edge i lies inside q's edge j where tn - t * den >= 0, q's
        # edge j inside p's edge i where u * den - un >= 0
        lo = np.concatenate([np.where(entering, t, 0.0).max(axis=1), np.where(entering, 0.0, u).max(axis=0)])
        hi = np.concatenate([np.where(entering, 1.0, t).min(axis=1), np.where(entering, u, 1.0).min(axis=0)])
    return np.concatenate([p, q], axis=1), np.concatenate([d, g], axis=1), lo.clip(0.0, 1.0), hi.clip(0.0, 1.0)


def convex_intersection(p, q):
    """Intersection of two convex counter-clockwise polygons by the IoU
    kernel's edge clipper: the starts of its non-empty pieces, vertex + lo
    direction, sorted by angle about their centroid, each within REL_EPS
    times the larger extent of the one before it merged into it, as an
    (N, 2) array; contacts along an edge or at a point give none. A
    polygon of fewer than 3 vertices, with non-finite coordinates or with
    consecutive vertices (the last and the first too) within that
    tolerance raises InvalidGeometryError: a zero-length edge would clip
    the other polygon to nothing."""
    p, q = (np.asarray(poly, dtype=float).reshape(-1, 2) for poly in (p, q))
    if min(len(p), len(q)) < 3:
        raise InvalidGeometryError(f"need polygons of 3 or more vertices, got {len(p)} and {len(q)}")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise InvalidGeometryError("non-finite vertex coordinates")
    # work around p's first vertex, with a tolerance relative to the size
    origin = p[0]
    p, q = p - origin, q - origin
    tol = REL_EPS * max(np.ptp(p, axis=0).max(), np.ptp(q, axis=0).max())
    if any((np.abs(np.roll(poly, -1, axis=0) - poly).max(axis=1) <= tol).any() for poly in (p, q)):
        raise InvalidGeometryError("duplicate vertices")
    vertex, direction, lo, hi = (x[..., 0].T for x in _clip_edges(p.T[..., None], q.T[..., None], tol))
    keep = (hi - lo) * np.abs(direction).max(axis=1) > tol  # shorter pieces are point contacts
    if not keep.any():
        return np.empty((0, 2))
    starts = _by_angle((vertex + lo[:, None] * direction)[keep])
    # a start within tol of the one before it, cyclically, merges into that one; a lone cluster keeps one
    apart = np.abs(starts - np.roll(starts, 1, axis=0)).max(axis=1) > tol
    apart[0] |= not apart.any()
    return starts[apart] + origin


def min_area_rects(quads):
    """Minimum-area enclosing rectangles of K quads (K, 4, 2) in any vertex
    order, as (K, 5) long-edge rows; to_quad's inverse for true rectangles,
    but at the +-90 wrap rounding can return theta 180 degrees away.

    Such a rectangle has a side along a hull edge, which joins two of the
    vertices: each of the six vertex pairs, taken after sorting the
    vertices by (x, y), gives the four vertices' extent along and across
    it (a diagonal's is never smaller). Among areas within 1e-12 relative
    of the smallest, the smallest theta wins, then the first pair; sides
    that close make a square, theta in [-90, 0), whatever rounding did.
    Non-finite coordinates, vertices within EPS times the quad's extent,
    and hull areas (half the summed areas of the four vertex triangles)
    within EPS times its square raise InvalidGeometryError, whose index
    is the first bad quad."""
    pts = np.asarray(quads, dtype=float)
    if pts.ndim != 3 or pts.shape[1:] != (4, 2):
        raise InvalidGeometryError(f"expected (K, 4, 2) quads, got shape {pts.shape}")
    finite = np.isfinite(pts).all(axis=(1, 2))
    pts = np.where(finite[:, None, None], pts, 0.0).T
    # vertices sorted by x then y, contiguous (2, 4, K): each pair's vector (2, 6, K) points right, or up when
    # vertical, whatever the input order; its largest Chebyshev length is the quad's extent, the smallest its gap
    p = np.take_along_axis(pts, np.lexsort((pts[1], pts[0]), axis=0)[None], axis=1)
    d = p[:, _PAIRS[1]] - p[:, _PAIRS[0]]
    gap = np.abs(d).max(axis=0)
    extent = gap.max(axis=0)
    duplicate = gap.min(axis=0) <= EPS * extent
    # triangles 012, 013, 023, 123 by the two pairs at their first vertex
    area = 0.25 * np.abs(_cross(d[:, [0, 0, 1, 3]], d[:, [1, 2, 2, 4]])).sum(axis=0)
    bad = ~finite | duplicate | (area <= EPS * extent**2)
    if bad.any():
        k = int(np.argmax(bad))
        reason = ("non-finite vertex coordinates" if not finite[k] else "duplicate vertices" if duplicate[k]
                  else "degenerate quadrilateral (zero area)")
        raise InvalidGeometryError(reason, index=k)
    phi = np.arctan2(d[1], d[0])
    c, s = np.where(d[0] == 0.0, 0.0, np.cos(phi)), np.sin(phi)  # a vertical pair's cosine exactly 0, not 6e-17
    x, y = (p - p[:, :1])[:, :, None]  # about the first vertex: no cancellation from the coordinates' size
    along = x * c + y * s, y * c - x * s  # along and across each pair, (4, 6, K) each: one pass per reduction
    hi, lo = np.array([a.max(axis=0) for a in along]), np.array([a.min(axis=0) for a in along])
    e1, e2 = hi - lo
    mx, my = (hi + lo) / 2.0
    rects = np.stack([mx * c - my * s + p[0, 0], mx * s + my * c + p[1, 0], e1, e2, np.degrees(phi)], axis=-1)
    rects = canonicalize180_rows(rects.reshape(-1, 5)).reshape(rects.shape)
    size = e1 * e2
    tie = size <= size.min(axis=0) * (1.0 + 1e-12)
    best = rects[np.argmin(np.where(tie, rects[..., 4], np.inf), axis=0), np.arange(p.shape[2])]
    best[(best[:, 2] <= best[:, 3] * (1.0 + 1e-12)) & (best[:, 4] >= 0.0), 4] -= 90.0  # a square tie
    return best


def quad_to_box180(quad):
    """Minimum-area enclosing rectangle of a quadrilateral, as an
    OrientedBox180; a batch of one of min_area_rects."""
    pts = np.asarray(quad.vertices if isinstance(quad, QuadBox) else quad, dtype=float)
    return OrientedBox180(*min_area_rects(pts[None]).tolist()[0])


def box_rows(boxes):
    """(N, 5) long-edge rows (cx, cy, h, w, theta) of a sequence of
    OrientedBox90 / OrientedBox180 records: if any is an OrientedBox90,
    (cx, cy, w, h, theta), one canonicalize180_rows call over all rows,
    which returns the OrientedBox180 ones unchanged."""
    rows, any90 = [], False
    for box in boxes:
        if isinstance(box, OrientedBox90):
            rows.append((box.cx, box.cy, box.w, box.h, box.theta))
            any90 = True
        elif isinstance(box, OrientedBox180):
            rows.append((box.cx, box.cy, box.h, box.w, box.theta))
        else:
            raise TypeError(f"unsupported box type {type(box)!r}")
    rows = np.asarray(rows, dtype=float).reshape(-1, 5)
    return canonicalize180_rows(rows) if any90 else rows


def _check_rows(rows):
    rows = _float_rows(rows, 5)
    rows = rows.reshape(0, 5) if rows.shape == (0,) else rows  # an empty list is zero rows
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise InvalidGeometryError(f"expected (N, 5) box rows, got shape {rows.shape}")
    if not (np.isfinite(rows).all() and rows[:, 2:4].min(initial=np.inf) > 0):
        raise InvalidGeometryError("box rows need finite values and positive sides")
    return rows


def _kernel_rows(rows, name="box row {}"):
    """_check_rows, then the IoU kernel's bounds; the first row outside them raises, named name.format(index)."""
    rows = _check_rows(rows)
    short, long = np.minimum(rows[:, 2], rows[:, 3]), np.maximum(rows[:, 2], rows[:, 3])
    bad = (short < 1e-8 * long) | (short < 1e-150) | (long > 1e150)
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidGeometryError(f"{name.format(k)} has sides {long[k]} and {short[k]}; the IoU kernel needs a short "
                                   "side of at least 1e-8 of the long side and sides within [1e-150, 1e150]", index=k)
    return rows


def _iou_pairs(a, b, i, j):
    """IoU (K,) of the K pairs a[i], b[j] of checked box rows, clipped
    in a frame centred on and turned to the a box, where its corners are
    exact and need no trig; see rotated_iou_pairs."""
    out = np.zeros(len(i))
    diag_a, diag_b = np.hypot(a[:, 2], a[:, 3]), np.hypot(b[:, 2], b[:, 3])  # circumcircle diameters, one per row
    for start in range(0, len(i), PAIR_CHUNK):
        ic, jc = i[start : start + PAIR_CHUNK], j[start : start + PAIR_CHUNK]
        pa, pb, reach = a.take(ic, axis=0), b.take(jc, axis=0), (diag_a.take(ic) + diag_b.take(jc)) / 2.0
        offset = pb[:, :2] - pa[:, :2]
        near = np.flatnonzero(np.hypot(offset[:, 0], offset[:, 1]) <= reach)
        if not len(near):
            continue
        if len(near) < len(ic):  # else every pair is near, and the takes would copy the chunk
            pa, pb, offset, reach = pa.take(near, axis=0), pb.take(near, axis=0), offset.take(near, axis=0), reach[near]
        x, y = offset.T
        t = np.radians(np.array([pa[:, 4], pb[:, 4] - pa[:, 4]]))  # theta_a, and theta_b in a's frame
        (ca, c), (sa, s) = np.cos(t), np.sin(t)
        p = _CORNER_SIGNS * (pa[:, 2:4].T / 2.0)[:, None]  # a's corners, exact
        along, across = pb[:, 2] / 2.0 * np.array([c, s]), pb[:, 3] / 2.0 * np.array([-s, c])
        center = np.array([x * ca + y * sa, y * ca - x * sa])  # b's centre: the offset turned by -theta_a
        q = center[:, None] + _CORNER_SIGNS[0] * along[:, None] + _CORNER_SIGNS[1] * across[:, None]
        vertex, direction, lo, hi = _clip_edges(p, q, REL_EPS * reach)
        inter = np.maximum(0.5 * (np.where(lo < hi, hi - lo, 0.0) * _cross(vertex, direction)).sum(axis=0), 0.0)
        out[start + near] = (inter / (pa[:, 2] * pa[:, 3] + pb[:, 2] * pb[:, 3] - inter)).clip(0.0, 1.0)
    return out


def rotated_iou_pairs(a, b, i=None, j=None):
    """Exact IoU (K,) of K pairs of oriented boxes, given as box rows (see
    the module docstring): entry k is the IoU of a[i[k]] and b[j[k]] for
    1-D integer index arrays i and j of one length, within [0, len(a))
    and [0, len(b)), else of a[k] and b[k] for two (K, 5) arrays; other
    indices raise InvalidGeometryError. Only the indices are expanded,
    not the rows.

    Each pair is computed in a frame centred on and turned to its box
    from ``a``, where that box's corners are exact (its IoU with itself
    is 1), with a tolerance relative to the pair's size: the result does
    not depend on scale or translation, nor on the other pairs of the
    call. Pairs whose circumcircles do not meet are 0 without further
    work; the others go through the kernel PAIR_CHUNK pairs at a time.
    a and b are each checked once, whole: a row with a short side below
    1e-8 of the long one (REL_EPS of the pair's size would swallow it) or
    a side outside [1e-150, 1e150] raises, whether a pair reads it or not."""
    a, b = _kernel_rows(a), _kernel_rows(b)
    if i is None and j is None:
        if a.shape != b.shape:
            raise InvalidGeometryError(f"pair lists differ in shape: {a.shape} and {b.shape}")
        i = j = np.arange(len(a))
    i, j = np.asarray(i), np.asarray(j)
    if not (i.ndim == j.ndim == 1 and len(i) == len(j) and (not len(i) or i.dtype.kind in "iu" and j.dtype.kind in "iu"
            and min(i.min(), j.min()) >= 0 and i.max() < len(a) and j.max() < len(b))):  # an empty list reads as float64
        raise InvalidGeometryError(f"need index arrays i and j, 1-D integers of one length within [0, {len(a)}) and "
                                   f"[0, {len(b)}), got {i.dtype}{i.shape} and {j.dtype}{j.shape}")
    return _iou_pairs(a, b, i, j)


def rotated_iou_matrix(a, b):
    """Exact IoU (N, M) of every pair of oriented boxes of (N, 5) and (M, 5) box rows a
    and b, each checked once as rotated_iou_pairs checks them: entry (i, j) is the IoU of
    a[i] and b[j], from one kernel call over the pairs b-major, so the matrix's .T is contiguous."""
    a, b = _kernel_rows(a), _kernel_rows(b)
    return _iou_pairs(a, b, *np.divmod(np.arange(len(a) * len(b)), len(a))[::-1]).reshape(len(b), len(a)).T


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
    (xmin, ymin, xmax, ymax) boxes; returns the (N, M) matrix. An empty
    list is zero boxes; the first box of a or b not 4 values long, or
    without finite coordinates, xmin < xmax and ymin < ymax, raises
    InvalidGeometryError with its index."""
    return _aligned_iou(_aligned_rows(a), _aligned_rows(b))


def _aligned_rows(boxes):
    boxes = _float_rows(boxes, 4)
    boxes = boxes.reshape(0, 4) if boxes.shape == (0,) else boxes  # an empty list is zero boxes
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise InvalidGeometryError(f"expected (N, 4) boxes (xmin, ymin, xmax, ymax), got shape {boxes.shape}")
    bad = ~(np.isfinite(boxes).all(axis=1) & (boxes[:, 2:] > boxes[:, :2]).all(axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidGeometryError(f"box {k} {boxes[k].tolist()} needs finite xmin < xmax and ymin < ymax", index=k)
    return boxes


def _aligned_iou(a, b):
    """aligned_iou_matrix without its checks, from the (N, M) x and y overlaps; a pair whose
    union is not above 0 (as assign_targets gives for a small row far from the origin) is 0."""
    inter = np.ones((len(a), len(b)))
    for k in (0, 1):  # times the x, then the y overlap; about three (N, M) arrays live at a time
        side = np.minimum.outer(a[:, k + 2], b[:, k + 2])
        side -= np.maximum.outer(a[:, k], b[:, k])
        inter *= np.where(side > 0.0, side, 0.0)
    union = np.add.outer((a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1]), (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]), out=side)
    union -= inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, np.divide(inter, union, out=inter), 0.0)
