"""Independent oracles used to freeze expected values: Monte-Carlo
rasterization IoU, closed-form IoU of concentric congruent rectangles,
a scalar Sutherland-Hodgman clipper and the rotated IoU built on it,
vertex-set comparison, brute-force minimum rectangle and central finite
differences. Deliberately avoid the library's own clipping / calipers
code paths."""

import math

import numpy as np

from cslkit.rotgeom import to_quad

MC_CHUNK = 1 << 16
CLIP_EPS = 1e-9  # absolute, so the clipper is exact only near unit scale


def box_contains(box, pts):
    """Point-in-rotated-rectangle test via the inverse rotation."""
    if hasattr(box, "w") and not hasattr(box, "h"):
        raise TypeError
    along = box.w if type(box).__name__ == "OrientedBox90" else box.h
    across = box.h if type(box).__name__ == "OrientedBox90" else box.w
    t = math.radians(box.theta)
    c, s = math.cos(t), math.sin(t)
    dx = pts[:, 0] - box.cx
    dy = pts[:, 1] - box.cy
    u = dx * c + dy * s
    v = -dx * s + dy * c
    return (np.abs(u) <= along / 2) & (np.abs(v) <= across / 2)


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
    # changes only the speed (cache-sized arrays), never the result
    inter = union = 0
    for left in range(samples, 0, -MC_CHUNK):
        xy = rng.random((min(left, MC_CHUNK), 2), dtype=np.float32) * scale + offset
        in_a = box_contains(a, xy)
        in_b = box_contains(b, xy)
        union += np.count_nonzero(in_a | in_b)
        inter += np.count_nonzero(in_a & in_b)
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


def vertex_set_equal(q1, q2, tol=1e-9):
    a = sorted(map(tuple, np.round(np.asarray(q1, dtype=float), 12)))
    b = sorted(map(tuple, np.round(np.asarray(q2, dtype=float), 12)))
    return all(abs(x1 - x2) <= tol and abs(y1 - y2) <= tol for (x1, y1), (x2, y2) in zip(a, b))


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
