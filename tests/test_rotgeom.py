import itertools
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cslkit.rotgeom import (
    EPS,
    PAIR_CHUNK,
    InvalidGeometryError,
    OrientedBox90,
    OrientedBox180,
    QuadBox,
    _aligned_iou,
    aligned_bbox,
    aligned_bboxes,
    aligned_iou,
    aligned_iou_matrix,
    box_rows,
    canonicalize90,
    canonicalize180,
    canonicalize180_rows,
    convex_intersection,
    min_area_rects,
    order_corners,
    quad_to_box180,
    rotated_iou,
    rotated_iou_matrix,
    rotated_iou_pairs,
    to_quad,
)
from oracles import (
    box_contains,
    brute_force_min_rect_area,
    calipers_box180,
    clip_convex,
    clipped_iou,
    concentric_rect_iou,
    mc_iou,
    scalar_canonicalize180,
    shoelace_area,
    sorted_candidate_iou_matrix,
    stacked_aligned_iou,
    strided_min_area_rects,
    vertex_set_equal,
)


class TestCanonicalize90:
    def test_already_canonical(self):
        b = canonicalize90(0, 0, 2, 1, -30)
        assert (b.cx, b.cy, b.w, b.h, b.theta) == (0, 0, 2, 1, -30)

    def test_zero_maps_to_minus_90_with_swap(self):
        b = canonicalize90(0, 0, 2, 1, 0)
        assert (b.w, b.h, b.theta) == (1, 2, -90)
        assert vertex_set_equal(
            to_quad(b).as_array(), to_quad(canonicalize90(0, 0, 2, 1, -89.999999999)).as_array(), tol=1e-6
        ) is False  # different boxes, sanity that the oracle discriminates

    def test_60_becomes_minus_30_swapped(self):
        b = canonicalize90(0, 0, 2, 1, 60)
        assert (b.w, b.h, b.theta) == (1, 2, -30)
        # same point set as the free-angle original
        raw = _corners_free(0, 0, 2, 1, 60)
        assert vertex_set_equal(to_quad(b).as_array(), raw)

    def test_nonpositive_sides(self):
        with pytest.raises(InvalidGeometryError):
            canonicalize90(0, 0, -1, 1, 0)

    @pytest.mark.parametrize("bad, message", [
        ((0, 0, -1, 1, 0), "non-positive sides: a=-1.0, b=1.0"),
        ((0, 0, 2, 0, 0), "non-positive sides: a=2.0, b=0.0"),
        ((0, 0, 2, 3, math.inf), "non-finite theta: nan"),
        ((math.nan, 0, 2, 3, 0), "non-finite cx: nan"),
    ])
    def test_error_wording(self, bad, message):
        with pytest.raises(InvalidGeometryError, match=f"^{re.escape(message)}$"):
            canonicalize90(*bad)

    @given(
        theta=st.floats(-720, 720, allow_nan=False),
        w=st.floats(0.1, 50),
        h=st.floats(0.1, 50),
    )
    @settings(max_examples=100)
    def test_vertex_set_preserved(self, theta, w, h):
        b = canonicalize90(1.5, -2.5, w, h, theta)
        assert -90 <= b.theta < 0
        assert vertex_set_equal(to_quad(b).as_array(), _corners_free(1.5, -2.5, w, h, theta), tol=1e-6)


def _corners_free(cx, cy, along, across, theta_deg):
    t = math.radians(theta_deg)
    u = np.array([math.cos(t), math.sin(t)])
    v = np.array([-u[1], u[0]])
    c = np.array([cx, cy], dtype=float)
    return np.array([c + sa * along / 2 * u + sb * across / 2 * v for sa in (1, -1) for sb in (1, -1)])


class TestCanonicalize180:
    def test_long_side_kept(self):
        b = canonicalize180(0, 0, 4, 1, 30)
        assert (b.h, b.w, b.theta) == (4, 1, 30)

    def test_short_side_first(self):
        b = canonicalize180(0, 0, 1, 4, 30)
        assert (b.h, b.w, b.theta) == (4, 1, -60)
        assert vertex_set_equal(to_quad(b).as_array(), _corners_free(0, 0, 1, 4, 30), tol=1e-6)

    def test_periodicity(self):
        b = canonicalize180(0, 0, 4, 1, 120)
        assert (b.h, b.w, b.theta) == (4, 1, -60)

    def test_square_tie_negative_theta(self):
        b = canonicalize180(0, 0, 2, 2, 45)
        assert -90 <= b.theta < 0

    @given(theta=st.floats(-720, 720, allow_nan=False), a=st.floats(0.1, 50), b=st.floats(0.1, 50))
    @settings(max_examples=100)
    def test_vertex_set_preserved(self, theta, a, b):
        box = canonicalize180(0.5, 0.25, a, b, theta)
        assert -90 <= box.theta < 90
        assert box.h >= box.w
        assert vertex_set_equal(to_quad(box).as_array(), _corners_free(0.5, 0.25, a, b, theta), tol=1e-6)


def _reduction_rows():
    """(N, 5) rows (cx, cy, a, b, theta): random angles up to +-1e6, +-90,
    +-270, angles just below the range edges, angles that a reduction
    rounding twice got wrong, and square ties, each with a long, a short
    and an equal side a."""
    rng = np.random.default_rng(11)
    edges = np.array([-450.0, -270.0, -90.0, 90.0, 270.0, 450.0])
    below = [np.nextafter(edges, -np.inf), edges - 1e-14, edges - 5e-15, edges - 3e-14]
    theta = np.concatenate([rng.uniform(-1000, 1000, 600), rng.choice([-1.0, 1.0], 600) * 10.0 ** rng.uniform(-3, 6, 600),
                            edges, *below, edges + 90.0, np.nextafter(edges + 90.0, -np.inf),
                            [0.0, -0.0, 45.0, -45.0, 135.0, 1e-300, -1e-300, 1e300, -1e300],
                            [500.1234567891234, 170.33333333333334, -180.1]])  # the first once gave -39.87654321087666
    sides = [(5.0, 2.0), (2.0, 5.0), (3.0, 3.0), (1e-12, 1e12), (0.1, 0.1 + 1e-17)]
    rows = [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3), a, b, t) for t in theta for a, b in sides]
    return np.array(rows)


class TestCanonicalize180Rows:
    """The one long-edge reduction against the scalar reduction in exact
    arithmetic, bit for bit, and its errors."""

    def test_bit_equal_to_scalar(self):
        rows = _reduction_rows()
        # the round-up case occurs: a swapped row's shift rounds to 90
        assert any(b > a and -90.0 < t < 0.0 and t + 90.0 == 90.0 for a, b, t in rows[:, 2:].tolist())
        want = np.array([astuple(scalar_canonicalize180(*row)) for row in rows.tolist()])
        assert canonicalize180_rows(rows).tobytes() == want.tobytes()
        boxes = [canonicalize180(*row) for row in rows[::7].tolist()]
        assert np.array([astuple(b) for b in boxes]).tobytes() == want[::7].tobytes()
        assert {type(v) for b in boxes for v in astuple(b)} == {float}

    def test_shapes(self):
        assert canonicalize180_rows(np.empty((0, 5))).shape == (0, 5)
        with pytest.raises(InvalidGeometryError, match=r"expected \(N, 5\) rows"):
            canonicalize180_rows(np.ones((2, 4)))

    @pytest.mark.parametrize("bad, message", [
        ((0, 0, 0.0, 2, 0), "non-positive sides: a=0.0, b=2.0"),
        ((0, 0, 3, -1.5, 0), "non-positive sides: a=3.0, b=-1.5"),
        ((0, 0, math.nan, 2, 0), "non-positive sides: a=nan, b=2.0"),
        ((0, 0, 3, math.nan, 0), "non-positive sides: a=3.0, b=nan"),
        ((math.nan, 0, 0, 2, math.inf), "non-positive sides: a=0.0, b=2.0"),  # the sides come first
        ((math.inf, 0, 3, 2, 0), "non-finite cx: inf"),
        ((math.nan, math.inf, 3, 2, 0), "non-finite cx: nan"),
        ((0, -math.inf, 3, 2, math.nan), "non-finite cy: -inf"),
        ((0, 0, math.inf, 2, 0), "non-finite h: inf"),
        ((0, 0, 2, math.inf, 0), "non-finite h: inf"),  # the long side is h, so w is never the first
        ((0, 0, 3, 2, math.inf), "non-finite theta: nan"),
        ((0, 0, 3, 2, -math.inf), "non-finite theta: nan"),
        ((0, 0, 3, 2, math.nan), "non-finite theta: nan"),
    ])
    def test_bad_row(self, bad, message):
        good = (1.0, 2.0, 3.0, 1.0, 10.0)
        with pytest.raises(InvalidGeometryError) as exc:
            canonicalize180_rows([good, good, bad, good, (0, 0, -1, 1, 0)])
        assert (str(exc.value), exc.value.index) == (message, 2)
        with pytest.raises(InvalidGeometryError, match=f"^{re.escape(message)}$"):
            scalar_canonicalize180(*map(float, bad))
        with pytest.raises(InvalidGeometryError, match=f"^{re.escape(message)}$"):
            canonicalize180(*bad)


def _canonical_rows():
    """(N, 5) long-edge rows already canonical: angles near 0 and the range
    ends, -0.0, squares with theta in [-90, 0), and random rows at scales
    1e-6 to 1e6."""
    rng = np.random.default_rng(12)
    named = [0.1, 1e-3, -1e-3, 1e-20, -1e-20, -0.0, 0.0, -90.0, 89.99, np.nextafter(90.0, 0.0), 45.0, -45.0]
    rows = [(1.0, 2.0, 5.0, 2.0, t) for t in named]
    rows += [(1.0, 2.0, 3.0, 3.0, t) for t in (-1e-20, -0.1, -45.0, -90.0, np.nextafter(0.0, -1.0))]
    for scale in 10.0 ** np.arange(-6, 7):
        sides = -np.sort(-rng.uniform(0.1, 10.0, (40, 2)), axis=1) * scale  # long side first
        rows += np.column_stack([rng.uniform(-100, 100, (40, 2)) * scale, sides, rng.uniform(-90, 90, 40)]).tolist()
    return np.array(rows)


class TestExactReduction:
    """The one reduction returns canonical input bit for bit."""

    def test_canonical_rows_unchanged(self):
        rows = _canonical_rows()
        assert canonicalize180_rows(rows).tobytes() == rows.tobytes()
        assert np.array([astuple(canonicalize180(*row)) for row in rows.tolist()]).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("w, h", [(5.0, 2.0), (2.0, 5.0), (3.0, 3.0), (1e-6, 1e6)])
    def test_canonicalize90_keeps_canonical_input(self, w, h):
        rng = np.random.default_rng(13)
        thetas = [-1e-3, -0.1, -1e-20, -90.0, -89.99, np.nextafter(0.0, -1.0), -45.0, *rng.uniform(-90, 0, 200).tolist()]
        for theta in thetas:
            box = canonicalize90(1.5, -2.5, w, h, theta)
            assert np.array(astuple(box)).tobytes() == np.array([1.5, -2.5, w, h, theta]).tobytes()

    @pytest.mark.parametrize("w, h", [(5.0, 2.0), (2.0, 5.0)])
    def test_canonicalize90_free_angles_within_an_ulp(self, w, h):
        # angles outside [-90, 0), with every mantissa bit set, against the
        # former % 90 reduction, whose shifts by 90 round within an ulp of 90
        rng = np.random.default_rng(14)
        thetas = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-3, 4, 4000)
        for theta in thetas[(thetas < -90.0) | (thetas >= 0.0)].tolist():
            t = theta % 90.0
            t = (0.0 if t >= 90.0 else t) - 90.0
            want = (w, h) if round((theta - t) / 90.0) % 2 == 0 else (h, w)
            box = canonicalize90(0.0, 0.0, w, h, theta)
            assert (box.w, box.h) == want
            assert abs(box.theta - t) <= np.spacing(abs(theta) + 90.0)
            if abs(theta) < 166.0:
                assert abs(box.theta - t) <= np.spacing(90.0)


class TestBoxRows:
    """box_rows gives long-edge rows of both record types through the one
    reduction; the geometry of an OrientedBox90 is that of its twin."""

    def _records(self):
        rng = np.random.default_rng(15)
        return [(canonicalize90 if k % 3 else canonicalize180)(*rng.uniform(-50, 50, 2), *rng.uniform(0.5, 20, 2),
                                                              rng.uniform(-400, 400)) for k in range(150)]

    def test_mixed_records_equal_the_reduction(self, monkeypatch):
        boxes = self._records()
        raw = [(b.cx, b.cy, b.w, b.h, b.theta) if isinstance(b, OrientedBox90) else (b.cx, b.cy, b.h, b.w, b.theta)
               for b in boxes]
        assert box_rows(boxes).tobytes() == canonicalize180_rows(raw).tobytes()
        only180 = [b for b in boxes if isinstance(b, OrientedBox180)]
        monkeypatch.setattr("cslkit.rotgeom.canonicalize180_rows", None)  # not called without an OrientedBox90
        assert box_rows(only180).tobytes() == np.array([astuple(b) for b in only180]).tobytes()

    def test_box90_geometry_equals_its_twin(self):
        boxes = [b for b in self._records() if isinstance(b, OrientedBox90)]
        other = canonicalize180(0.0, 0.0, 60.0, 40.0, 10.0)
        for box in boxes:
            twin = canonicalize180(box.cx, box.cy, box.w, box.h, box.theta)
            assert to_quad(box) == to_quad(twin)
            assert aligned_bbox(box) == aligned_bbox(twin)
            assert rotated_iou(box, other) == rotated_iou(twin, other)
            assert rotated_iou(box, twin) == rotated_iou(twin, twin)
        assert any(box.h > box.w for box in boxes) and any(box.w > box.h for box in boxes)

    def test_non_box_raises(self):
        with pytest.raises(TypeError, match="unsupported box type"):
            box_rows([canonicalize180(0, 0, 2, 1, 0), (0.0, 0.0, 2.0, 1.0, 0.0)])


class TestToQuad:
    def test_axis_aligned_square(self):
        q = to_quad(canonicalize180(0, 0, 2, 2, 0)).as_array()
        assert vertex_set_equal(q, [(1, 1), (1, -1), (-1, 1), (-1, -1)])

    def test_rotated_square(self):
        r2 = math.sqrt(2)
        q = to_quad(canonicalize180(0, 0, 2, 2, 45)).as_array()
        assert vertex_set_equal(q, [(r2, 0), (0, r2), (-r2, 0), (0, -r2)], tol=1e-9)

    def test_thin_sliver_area(self):
        q = to_quad(canonicalize180(0, 0, 2, 0.001, 0)).as_array()
        assert shoelace_area(q) == pytest.approx(0.002, abs=1e-12)


class TestOrderCorners:
    def test_idempotent(self):
        q = QuadBox(((0, 0), (1, 0), (1, 1), (0, 1)))
        once = order_corners(q)
        assert order_corners(once) == once

    def test_clockwise_reversed(self):
        ccw = order_corners(QuadBox(((0, 0), (1, 0), (1, 1), (0, 1))))
        cw = order_corners(QuadBox(((0, 1), (1, 1), (1, 0), (0, 0))))
        assert ccw == cw

    def test_equal_y_tie_leftmost_first(self):
        q = order_corners(QuadBox(((3, 0), (0, 0), (3, 2), (0, 2))))
        assert q.vertices[0] == (0.0, 0.0)
        # counter-clockwise winding
        assert _signed(q.as_array()) > 0

    def test_any_permutation_same_output(self):
        pts = [(0.3, -0.2), (2.1, 0.4), (1.8, 2.2), (-0.1, 1.6)]
        base = order_corners(QuadBox(tuple(pts)))
        import itertools

        for perm in itertools.permutations(pts):
            assert order_corners(QuadBox(perm)) == base

    def test_duplicate_vertices(self):
        with pytest.raises(InvalidGeometryError):
            order_corners(QuadBox(((0, 0), (0, 0), (1, 1), (0, 1))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertices(self, bad):
        for at in range(8):
            pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
            pts[at // 2][at % 2] = bad
            with pytest.raises(InvalidGeometryError, match="non-finite vertex coordinates"):
                order_corners(QuadBox(tuple(map(tuple, pts))))


def _signed(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


class TestConvexIntersection:
    SQ = [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_self_intersection(self):
        out = convex_intersection(self.SQ, self.SQ)
        assert shoelace_area(out) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint(self):
        far = [(10, 10), (11, 10), (11, 11), (10, 11)]
        assert shoelace_area(convex_intersection(self.SQ, far)) == 0.0

    def test_square_vs_rotated_square_octagon(self):
        # unit square centered at origin vs itself rotated 45 degrees
        a = to_quad(canonicalize180(0, 0, 1, 1, 0)).as_array()
        b = to_quad(canonicalize180(0, 0, 1, 1, 45)).as_array()
        out = convex_intersection(a, b)
        # frozen from the Monte-Carlo rasterization oracle (1e6 samples,
        # seed 7): 0.8285; closed form is 2*(sqrt(2)-1)
        assert shoelace_area(out) == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-9)
        assert shoelace_area(out) == pytest.approx(0.8285, abs=0.002)

    C30, S30 = math.cos(math.pi / 6), math.sin(math.pi / 6)

    @pytest.mark.parametrize("q", [
        # vertices on the square's edges
        [(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)],
        [(0.25, 0.0), (1.0, 0.25), (0.75, 1.0), (0.0, 0.75)],
        [(0.5, 0.0), (1.5, 2.0), (-0.5, 2.0)],
        [(0.5, 1.0), (1.5, 0.5), (1.5, 1.5)],
        [(0.5, 0.5), (0.5, -1.0), (1.5, -1.0), (1.5, 0.5)],
        # shared vertices
        [(0.0, 0.0), (C30, S30), (C30 - S30, S30 + C30), (-S30, C30)],
        [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)],
        [(0.0, 0.0), (1.0, 1.0), (0.0, 2.0), (-1.0, 1.0)],
        [(0.0, 0.0), (1.0, 0.0), (0.5, 2.0)],
        [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)],
    ])
    def test_vertices_on_edges_and_shared_vertices(self, q):
        # turned and moved so that the pieces' ends meet only to rounding
        for degrees in (0.0, 17.0, 33.3, 90.0, 123.0):
            t = math.radians(degrees)
            turn = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            for shift in ((0.0, 0.0), (0.1, 0.7), (123.0, -45.0)):
                p1, q1 = (np.asarray(poly, dtype=float) @ turn.T + shift for poly in (self.SQ, q))
                for a, b in ((p1, q1), (q1, p1)):
                    got, want = convex_intersection(a, b), clip_convex(a, b)
                    assert len(got) == len(want), (degrees, shift)
                    assert vertex_set_equal(got, want, tol=1e-9), (degrees, shift)
                    assert _signed(got) > 0

    def test_lone_piece_keeps_its_start(self):
        # a flat tip 1e-14 deep in the square's bottom edge: its two edges
        # inside are shorter than the tolerance (1e-10), the bottom edge's
        # piece, 1.5e-10 long, is not
        slope = 1e-14 / 0.75e-10
        tip = [(0.5 - 1e-3, 1e-14 - 1e-3 * slope), (0.5 + 1e-3, 1e-14 - 1e-3 * slope), (0.5, 1e-14)]
        for p, q in ((self.SQ, tip), (tip, self.SQ)):
            assert convex_intersection(p, q) == pytest.approx(np.array([[0.5 - 0.75e-10, 0.0]]), abs=1e-15)

    def test_touching_edges_zero_area(self):
        right = [(1, 0), (2, 0), (2, 1), (1, 1)]
        out = convex_intersection(self.SQ, right)
        assert shoelace_area(out) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertices(self, bad):
        for at in range(8):
            poly = [list(v) for v in self.SQ]
            poly[at // 2][at % 2] = bad
            for p, q in ((poly, self.SQ), (self.SQ, poly)):
                with pytest.raises(InvalidGeometryError, match="non-finite vertex coordinates"):
                    convex_intersection(p, q)

    def test_repeated_vertices(self):
        # a zero-length edge used to clip the other polygon to nothing:
        # this square against [0.5, 2]^2 gave 2 vertices, not [0.5, 1]^2
        other = [(0.5, 0.5), (2, 0.5), (2, 2), (0.5, 2)]
        for poly in ([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)], [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)],
                     [(0, 0), (1, 0), (1, 1e-12), (1, 1), (0, 1)]):
            for p, q in ((poly, other), (other, poly)):
                with pytest.raises(InvalidGeometryError, match="duplicate vertices"):
                    convex_intersection(p, q)
        assert vertex_set_equal(convex_intersection(self.SQ, other), [(0.5, 0.5), (1, 0.5), (1, 1), (0.5, 1)])

    def test_fewer_than_three_vertices(self):
        for poly in ([], [(0, 0)], [(0, 0), (1, 1)]):
            for p, q in ((poly, self.SQ), (self.SQ, poly)):
                with pytest.raises(InvalidGeometryError, match="3 or more vertices"):
                    convex_intersection(p, q)


class TestRotatedIou:
    def test_identical(self):
        b = canonicalize180(3, -1, 5, 2, 17)
        assert rotated_iou(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_aspect_1_9_small_rotations(self):
        # frozen exact values; they match the closed form
        # oracles.concentric_rect_iou and the Monte-Carlo oracle
        a = canonicalize180(0, 0, 9, 1, 0)
        assert rotated_iou(a, canonicalize180(0, 0, 9, 1, 0.25)) == pytest.approx(0.980337, abs=1e-5)
        assert rotated_iou(a, canonicalize180(0, 0, 9, 1, 0.5)) == pytest.approx(0.961092, abs=1e-5)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = _random_box(rng)
            b = _random_box(rng)
            ab = rotated_iou(a, b)
            assert ab == pytest.approx(rotated_iou(b, a), abs=1e-12)
            assert 0.0 <= ab <= 1.0

    def test_axis_aligned_matches_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = _random_aligned_box(rng)
            b = _random_aligned_box(rng)
            assert rotated_iou(a, b) == pytest.approx(_aligned_iou_boxes(a, b), abs=1e-9)

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        for i in range(20):
            a = _random_box(rng)
            b = _random_box(rng)
            assert rotated_iou(a, b) == pytest.approx(mc_iou(a, b, samples=200_000, seed=i), abs=0.01)

    def test_monte_carlo_oracle_equals_plain_chunks(self):
        """mc_iou runs box_contains's float32 operations in place on
        reused buffers; it gives the bits of plain box_contains calls on
        the same draws, for both box types and partial last chunks."""
        rng = np.random.default_rng(6)
        for i, samples in enumerate([1, 12345, 65536, 65537, 200_000, 300_001]):
            a = _random_box(rng)
            b = (canonicalize90 if i % 2 else canonicalize180)(*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 6, 2), rng.uniform(-90, 90))
            pts = np.vstack([to_quad(a).as_array(), to_quad(b).as_array()])
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            draws = np.random.default_rng(i)
            inter = union = 0
            for left in range(samples, 0, -(1 << 16)):
                xy = draws.random((min(left, 1 << 16), 2), dtype=np.float32) * (hi - lo).astype(np.float32) + lo.astype(np.float32)
                in_a, in_b = box_contains(a, xy), box_contains(b, xy)
                union += np.count_nonzero(in_a | in_b)
                inter += np.count_nonzero(in_a & in_b)
            assert union > 0
            assert mc_iou(a, b, samples=samples, seed=i) == inter / union


def _random_box(rng):
    return canonicalize180(
        rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 6), rng.uniform(0.5, 6), rng.uniform(-180, 180)
    )


def _random_aligned_box(rng):
    theta = float(rng.choice([0.0, -90.0]))
    return canonicalize180(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 6), rng.uniform(0.5, 6), theta)


def _aligned_iou_boxes(a, b):
    from cslkit.rotgeom import aligned_bbox

    return aligned_iou(aligned_bbox(a), aligned_bbox(b))


class TestAlignedIou:
    @pytest.mark.parametrize("bad, index", [
        ((math.nan, 0.0, 1.0, 1.0), 0), ((0.0, 0.0, math.inf, 1.0), 0), ((-math.inf, 0.0, 1.0, 1.0), 0),
        ((2.0, 2.0, 1.0, 1.0), 0),  # inverted
        ((0.0, 0.0, 0.0, 1.0), 0), ((0.0, 0.0, 1.0, 0.0), 0), ((1.0, 1.0, 1.0 + 1e-200, 2.0), 0),  # zero area
        ((0.0, 0.0, 1.0), None),  # three numbers
    ])
    def test_bad_boxes_rejected_with_their_index(self, bad, index):
        good = (0.0, 0.0, 1.0, 1.0)
        for boxes in ([bad], [good, good, bad]) if len(bad) == 4 else ([bad],):
            for a, b in ((boxes, [good]), ([good], boxes)):
                with pytest.raises(InvalidGeometryError) as exc:
                    aligned_iou_matrix(a, b)
                assert exc.value.index == (None if index is None else index + len(boxes) - 1)
        with pytest.raises(InvalidGeometryError):
            aligned_iou(bad, good)

    def test_empty_list_is_zero_boxes(self):
        assert aligned_iou_matrix([], [(0.0, 0.0, 1.0, 1.0)]).shape == (0, 1)
        assert aligned_iou_matrix([(0.0, 0.0, 1.0, 1.0)] * 2, []).shape == (2, 0)


class TestQuadToBox180:
    def test_round_trip(self):
        b = canonicalize180(1, 2, 5, 3, 40)
        r = quad_to_box180(to_quad(b))
        assert (r.cx, r.cy, r.h, r.w, r.theta) == pytest.approx((1, 2, 5, 3, 40), abs=1e-9)

    def test_unit_square_tie(self):
        r = quad_to_box180(QuadBox(((0, 0), (1, 0), (1, 1), (0, 1))))
        assert (r.cx, r.cy, r.h, r.w) == pytest.approx((0.5, 0.5, 1, 1), abs=1e-9)
        assert -90 <= r.theta < 0  # square tie rule

    def test_trapezoid_matches_brute_force(self):
        pts = [(0, 0), (4, 0), (3, 2), (1, 2)]
        r = quad_to_box180(order_corners(QuadBox(tuple(pts))))
        area = r.h * r.w
        oracle = brute_force_min_rect_area(pts)
        assert area <= oracle + 1e-6
        assert area == pytest.approx(oracle, rel=1e-4)
        # encloses every input point
        from oracles import box_contains

        assert box_contains(r, np.asarray(pts, dtype=float) * 1.0).all()

    def test_degenerate_quad(self):
        with pytest.raises(InvalidGeometryError):
            quad_to_box180(np.array([(0, 0), (1, 0), (2, 0), (3, 0)], dtype=float))

    @given(
        cx=st.floats(-5, 5),
        cy=st.floats(-5, 5),
        a=st.floats(0.2, 10),
        b=st.floats(0.2, 10),
        theta=st.floats(-180, 180),
    )
    @example(cx=0, cy=0, a=0.25, b=3, theta=179.99999999999997)  # theta 89.99999999999997 comes back as -90.0
    @settings(max_examples=100)
    def test_inverse_of_to_quad(self, cx, cy, a, b, theta):
        box = canonicalize180(cx, cy, a, b, theta)
        r = quad_to_box180(to_quad(box))
        assert (r.cx, r.cy, r.h, r.w) == pytest.approx((box.cx, box.cy, box.h, box.w), abs=1e-6)
        if abs(box.h - box.w) > 1e-6:  # theta is periodic: the difference wrapped into [-90, 90)
            assert abs((r.theta - box.theta + 90.0) % 180.0 - 90.0) <= 1e-6


SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]


class TestQuadScale:
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("theta", [-90.0, -37.5, 0.0, 12.25, 60.0])
    def test_to_quad_round_trip(self, scale, theta):
        box = canonicalize180(3 * scale, -2 * scale, 5 * scale, 2 * scale, theta)
        r = quad_to_box180(to_quad(box))
        assert (r.cx, r.cy, r.h, r.w) == pytest.approx((box.cx, box.cy, box.h, box.w), rel=1e-9, abs=1e-9 * scale)
        assert r.theta == pytest.approx(box.theta, abs=1e-9)

    def test_small_square_quad(self):
        s = 1e-5
        r = quad_to_box180(QuadBox(((0.0, 0.0), (s, 0.0), (s, s), (0.0, s))))
        assert (r.cx, r.cy, r.h, r.w) == pytest.approx((s / 2, s / 2, s, s), rel=1e-9)

    def test_nanoscale_box(self):
        box = canonicalize180(0, 0, 1e-9, 5e-10, 0)
        assert vertex_set_equal(to_quad(box).as_array() * 1e9, [(0.5, 0.25), (-0.5, 0.25), (-0.5, -0.25), (0.5, -0.25)])

    @pytest.mark.parametrize("scale", SCALES)
    def test_repeated_vertices_rejected(self, scale):
        for pts in ([(0, 0), (0, 0), (1, 1), (0, 1)], [(0, 0), (1e-12, 0), (1, 1), (0, 1)]):
            with pytest.raises(InvalidGeometryError, match="duplicate"):
                order_corners(np.array(pts, dtype=float) * scale + 7 * scale)

    @pytest.mark.parametrize("scale", SCALES)
    def test_zero_area_rejected(self, scale):
        for pts in ([(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 0), (1, 0), (3, 0), (2, 1e-12)]):
            with pytest.raises(InvalidGeometryError, match="zero area"):
                quad_to_box180(np.array(pts, dtype=float) * scale + 7 * scale)


def _quad_families(rng, count):
    """Seeded quads of four kinds, each (count, 4, 2) near unit scale:
    rectangles, perturbed convex quads, non-convex quads (one vertex
    inside the triangle of the others) and quads with three collinear
    vertices."""
    boxes = [canonicalize180(*rng.uniform(-5, 5, 2), *rng.uniform(0.5, 4, 2), rng.uniform(-90, 90)) for _ in range(count)]
    rects = np.array([to_quad(b).as_array() for b in boxes])
    tri = rng.uniform(-4, 4, (count, 3, 2))
    inside = np.einsum("kv,kvi->ki", rng.dirichlet([1, 1, 1], count) * 0.9 + 0.1 / 3, tri)
    t = rng.uniform(0.2, 0.8, (count, 1))
    on_edge = tri[:, 0] * t + tri[:, 1] * (1 - t)
    return {
        "rectangle": rects,
        "perturbed": rects + rng.normal(0, 0.2, rects.shape),
        "non_convex": np.concatenate([tri, inside[:, None]], axis=1),
        "collinear": np.stack([tri[:, 0], on_edge, tri[:, 1], tri[:, 2]], axis=1),
    }


def _orders(quad):
    """The four cyclic rotations of a quad's vertex order and of its
    reverse."""
    return [np.roll(q, r, axis=0) for q in (quad, quad[::-1]) for r in range(4)]


def _integer_rects(rng, count, square):
    """Seeded rectangles (count, 4, 2) with integer corners below about
    1100, as DOTA annotates them: sides along an integer vector u and
    its normal, the normal scaled by 1 for squares, else by 1 to 3."""
    origin = rng.integers(0, 1000, (count, 1, 2))
    u = np.column_stack([rng.integers(1, 41, count), rng.integers(-40, 41, count)])
    v = np.column_stack([-u[:, 1], u[:, 0]]) * (1 if square else rng.integers(1, 4, (count, 1)))
    return (origin + np.stack([0 * u, u, u + v, v], axis=1)).astype(float)


def _thin_quads(rng, count, ratio):
    """Seeded quads (count, 4, 2) near unit scale whose hull area is
    `ratio` times EPS times their squared extent: a turned unit segment
    and two more vertices a small height off it, in turn convex, with a
    reflex vertex, and with three collinear vertices."""
    turn = rng.uniform(0, 2 * math.pi, count)
    along = np.column_stack([np.cos(turn), np.sin(turn)])[:, None]
    normal = np.column_stack([-np.sin(turn), np.cos(turn)])[:, None]
    area = ratio * EPS * np.abs(along).max(axis=2, keepdims=True) ** 2
    t = rng.uniform(0.2, 0.8, (count, 2, 1))
    apex = t[:, :1] * along + 2.0 * area * normal  # its triangle with the segment has the area
    tips = {
        "convex": np.concatenate([t[:, 1:] * along - area * normal, t[:, :1] * along + area * normal], axis=1),
        "reflex": np.concatenate([apex, (along + apex) / 3.0], axis=1),
        "collinear": np.concatenate([apex, t[:, 1:] * along], axis=1),
    }
    return np.concatenate([np.concatenate([0.0 * along, along, tip], axis=1) for tip in tips.values()])


def _theta_gap(a, b):
    """Distance of two long-edge angles, which are periodic in 180."""
    return abs((a - b + 90.0) % 180.0 - 90.0)


class TestMinAreaRects:
    """The batched calipers against the per-quad loop of the oracles."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_matches_per_quad_calipers(self, scale):
        rng = np.random.default_rng(11)
        for kind, quads in _quad_families(rng, 40).items():
            quads = quads * scale + rng.uniform(-10, 10, 2) * scale
            rows = min_area_rects(np.concatenate([_orders(q) for q in quads])).reshape(len(quads), 8, 5)
            for quad, got in zip(quads, rows):
                want = calipers_box180(quad)
                extent = np.ptp(quad, axis=0).max()
                for row in got:
                    assert np.abs(row[:4] - (want.cx, want.cy, want.h, want.w)).max() <= 1e-12 * extent, kind
                    assert _theta_gap(row[4], want.theta) <= 1e-9, kind

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_area_against_brute_force(self, scale):
        rng = np.random.default_rng(12)
        for kind, quads in _quad_families(rng, 2).items():
            quads = quads * scale
            for quad, (cx, cy, h, w, theta) in zip(quads, min_area_rects(quads)):
                # the grid's best angle is within half a step of the optimum,
                # where the optimal rectangle turned by d has the extent
                # (h cos d + w sin d) x (w cos d + h sin d)
                oracle = brute_force_min_rect_area(quad, step_deg=0.05)
                assert h * w <= oracle * (1 + 1e-9), kind
                assert oracle - h * w <= (h * h + w * w) * math.radians(0.025) * 1.01, kind
                box = OrientedBox180(cx / scale, cy / scale, h / scale * (1 + 1e-9), w / scale * (1 + 1e-9), theta)
                assert box_contains(box, quad / scale).all(), kind

    @pytest.mark.parametrize("scale", SCALES)
    def test_rectangle_round_trip(self, scale):
        rng = np.random.default_rng(13)
        boxes = [canonicalize180(*rng.uniform(-5, 5, 2) * scale, *rng.uniform(0.5, 4, 2) * scale, rng.uniform(-90, 90))
                 for _ in range(50)]
        rows = min_area_rects([to_quad(b).as_array() for b in boxes])
        for box, (cx, cy, h, w, theta) in zip(boxes, rows):
            assert (cx, cy, h, w) == pytest.approx((box.cx, box.cy, box.h, box.w), rel=1e-9, abs=1e-9 * scale)
            assert _theta_gap(theta, box.theta) <= 1e-9

    def test_batch_of_one(self):
        rng = np.random.default_rng(14)
        quads = np.concatenate(list(_quad_families(rng, 10).values()))
        rows = min_area_rects(quads)
        for quad, row in zip(quads, rows.tolist()):
            box = quad_to_box180(quad)
            assert (box.cx, box.cy, box.h, box.w, box.theta) == tuple(row)

    def test_rows_do_not_depend_on_vertex_order(self):
        rng = np.random.default_rng(15)
        boxes = [canonicalize180(*rng.uniform(0, 1000, 2), *rng.uniform(1, 300, 2), rng.uniform(-90, 90))
                 for _ in range(200)]
        families = {"to_quad": np.array([to_quad(b).as_array() for b in boxes]),
                    "integer rectangle": _integer_rects(rng, 200, False), "integer square": _integer_rects(rng, 100, True),
                    **_quad_families(rng, 50)}
        for kind, quads in families.items():
            rows = min_area_rects(np.concatenate([_orders(q) for q in quads])).reshape(len(quads), 8, 5)
            assert (rows == rows[:, :1]).all(), kind

    def test_squares_resolve_to_negative_theta(self):
        # rounding makes one side of a square an ulp longer; either way the
        # row takes canonicalize180_rows' square tie, theta in [-90, 0)
        rng = np.random.default_rng(17)
        boxes = [canonicalize180(*rng.uniform(-500, 500, 2), side, side, theta)
                 for side, theta in zip(rng.uniform(1, 300, 200), rng.uniform(-90, 0, 200))]
        for kind, quads in {"integer square": _integer_rects(rng, 500, True),
                            "to_quad square": np.array([to_quad(b).as_array() for b in boxes])}.items():
            rows = min_area_rects(np.concatenate([_orders(q) for q in quads])).reshape(len(quads), 8, 5)
            assert ((rows[..., 4] >= -90.0) & (rows[..., 4] < 0.0)).all(), kind
            assert (rows[..., 2] <= rows[..., 3] * (1 + 1e-12)).all(), kind

    @pytest.mark.parametrize("scale", SCALES)
    def test_zero_area_decision_matches_calipers(self, scale):
        rng = np.random.default_rng(16)
        for ratio in (0.5, 2.0):
            for quad in _thin_quads(rng, 20, ratio) * scale + rng.uniform(-10, 10, 2) * scale:
                try:
                    calipers_box180(quad)
                except InvalidGeometryError:
                    zero_area = True
                else:
                    zero_area = False
                assert zero_area == (ratio < 1.0)
                for order in _orders(quad):
                    if zero_area:
                        with pytest.raises(InvalidGeometryError, match="zero area"):
                            min_area_rects(order[None])
                    else:
                        assert min_area_rects(order[None]).shape == (1, 5)

    def test_empty(self):
        assert min_area_rects(np.zeros((0, 4, 2))).shape == (0, 5)

    @pytest.mark.parametrize("scale", SCALES)
    def test_bad_quads_raise_with_first_index(self, scale):
        good = to_quad(canonicalize180(0, 0, 5, 2, 30)).as_array()
        bad = {
            "duplicate": [[(0, 0), (0, 0), (1, 1), (0, 1)], [(0, 0), (1e-12, 0), (1, 1), (0, 1)]],
            "zero area": [[(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 0), (1, 0), (3, 0), (2, 1e-12)]],
            "non-finite": [[(0, 0), (1, 0), (1, np.nan), (0, 1)], [(0, 0), (np.inf, 0), (1, 1), (0, 1)]],
        }
        for match, quads in bad.items():
            for quad in quads:
                quad = np.array(quad, dtype=float) * scale + 7 * scale
                for order in _orders(quad):
                    batch = np.stack([good * scale, good * scale, order, order, good * scale])
                    with pytest.raises(InvalidGeometryError, match=match) as exc:
                        min_area_rects(batch)
                    assert exc.value.index == 2

    def test_shape_checked(self):
        for shape in ((4, 2), (1, 3, 2), (1, 4, 3)):
            with pytest.raises(InvalidGeometryError, match="quads"):
                min_area_rects(np.ones(shape))

    def test_integer_rectangle_sides_within_a_few_ulp(self):
        # projected about a vertex, a side carries no cancellation from the size of the coordinates
        quads, sides = _pythagorean_rects(np.random.default_rng(2701), 20000)
        assert quads.max() > 3500
        got = min_area_rects(quads)[:, 2:4]
        assert (np.abs(got - sides) <= 8 * np.spacing(sides.astype(float))).all()


def _pythagorean_rects(rng, count):
    """Seeded rectangles (count, 4, 2) with integer corners up to about
    4500 and integer sides (count, 2), long side first, aspects up to 4:
    sides along multiples of a primitive Pythagorean direction (a, b) / c
    and its normal, in a random vertex order."""
    triples = np.array([(m * m - n * n, 2 * m * n, m * m + n * n) for m in range(2, 9) for n in range(1, m)
                        if (m - n) % 2 and math.gcd(m, n) == 1])
    a, b, c = triples[rng.integers(len(triples), size=count)].T
    swap = rng.integers(2, size=count).astype(bool)
    a, b = np.where(swap, b, a) * rng.choice([-1, 1], count), np.where(swap, a, b) * rng.choice([-1, 1], count)
    k1 = rng.integers(1, 1500 // c + 1)
    k2 = np.maximum(1, np.round(k1 * rng.uniform(0.25, 1.0, count))).astype(int)
    u, v = np.column_stack([a, b]) * k1[:, None], np.column_stack([-b, a]) * k2[:, None]
    quads = rng.integers(0, 2500, (count, 1, 2)) + np.stack([0 * u, u, u + v, v], axis=1)
    order = rng.permuted(np.tile(np.arange(4), (count, 1)), axis=1)
    return np.take_along_axis(quads, order[..., None], axis=1).astype(float), np.column_stack([k1 * c, k2 * c])


def _seeded_rects(rng, count):
    """Seeded rectangles (count, 4, 2) on a 1024 px tile, as DOTA
    annotates them: long sides 10-80, short sides 5-30, any angle."""
    t = rng.uniform(0, math.pi, (count, 1))
    along = rng.uniform(5, 40, (count, 1)) * np.hstack([np.cos(t), np.sin(t)])
    across = rng.uniform(2.5, 15, (count, 1)) * np.hstack([-np.sin(t), np.cos(t)])
    corners = np.stack([along + across, across - along, -along - across, along - across], axis=1)
    return rng.uniform(0, 1024, (count, 1, 2)) + corners


class TestMinAreaRectsAgainstStrided:
    """min_area_rects against its form on strided vertices in the oracles:
    the same rows to the last bit, or the same error, message and index."""

    @staticmethod
    def _outcome(reduce, quads):
        try:
            rows = reduce(quads)
        except InvalidGeometryError as exc:
            return str(exc), exc.index
        return rows.shape, rows.tobytes()

    def _assert_same(self, quads, kind):
        assert self._outcome(min_area_rects, quads) == self._outcome(strided_min_area_rects, quads), kind

    def test_rectangles_in_every_vertex_order(self):
        rng = np.random.default_rng(2601)
        orders = list(itertools.permutations(range(4)))
        rects = _seeded_rects(rng, 300)
        for kind, quads in {"float": rects, "one decimal": np.round(rects, 1), "integer": np.round(rects),
                            "integer rectangle": _integer_rects(rng, 300, False),
                            "integer square": _integer_rects(rng, 100, True)}.items():
            batch = quads[:, orders].reshape(-1, 4, 2)  # each quad's 24 vertex orders in turn
            assert self._outcome(min_area_rects, batch)[0] == (len(batch), 5), kind
            self._assert_same(batch, kind)

    @pytest.mark.parametrize("scale", SCALES)
    def test_general_quads(self, scale):
        rng = np.random.default_rng(2602)
        for kind, quads in _quad_families(rng, 200).items():
            quads = quads * scale + rng.uniform(-10, 10, 2) * scale
            self._assert_same(np.concatenate([_orders(q) for q in quads]), kind)

    def test_near_duplicate_and_near_degenerate(self):
        rng = np.random.default_rng(2603)
        rects = _seeded_rects(rng, 100)
        extent = np.abs(rects[:, :, None] - rects[:, None]).max(axis=(1, 2, 3))
        near = {}
        for step in (0.5, 0.999, 1.001, 2.0):  # a vertex moved to about EPS of the extent from its neighbour
            quads = rects.copy()
            quads[:, 1] = quads[:, 0] + step * EPS * extent[:, None] * rng.choice([-1.0, 1.0], (100, 2))
            near[f"duplicate {step}"] = quads
        for ratio in (0.5, 0.999, 1.001, 2.0):  # a hull area about EPS of the squared extent
            near[f"thin {ratio}"] = _thin_quads(rng, 30, ratio) * 300.0 + rng.uniform(0, 1024, 2)
        good = _seeded_rects(rng, 4)
        for kind, quads in near.items():
            for quad in quads:
                for order in _orders(quad)[::3]:
                    self._assert_same(order[None], kind)  # alone
                    self._assert_same(np.concatenate([good[:2], [order], good[2:], [order]]), kind)  # at index 2


class TestPerAxisAlignedIou:
    """The IoU from (N, M) x and y overlaps equals the one from (N, M, 2)
    arrays, bit for bit, in both orders of its arguments."""

    @staticmethod
    def _assert_same_bits(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        for x, y in ((a, b), (b, a)):
            got, want = _aligned_iou(x, y), stacked_aligned_iou(x, y)
            assert got.shape == want.shape == (len(x), len(y))
            assert got.tobytes() == want.tobytes()
        assert _aligned_iou(a, b).tobytes() == np.ascontiguousarray(stacked_aligned_iou(b, a).T).tobytes()

    def test_named_cases(self):
        base = (0.0, 0.0, 4.0, 2.0)
        others = [
            (4.0, 0.0, 6.0, 2.0), (0.0, 2.0, 4.0, 3.0), (4.0, 2.0, 5.0, 3.0),  # touching along a side, at a corner
            (1.0, 0.5, 2.0, 1.5), (-1.0, -1.0, 5.0, 3.0),  # nested either way
            base,  # identical
            (5.0, 0.0, 6.0, 2.0), (0.0, -3.0, 4.0, -1.0), (10.0, 10.0, 11.0, 12.0),  # disjoint
            (3.0, 1.0, 5.0, 4.0),  # overlapping
        ]
        self._assert_same_bits([base], others)
        self._assert_same_bits(others, others)

    def test_far_from_origin_row_of_zero_area(self):
        far = aligned_bboxes([(1e17, 0.0, 2.0, 1.0, -90.0)])  # its x range rounds to nothing
        assert far[0, 0] == far[0, 2]
        self._assert_same_bits(np.concatenate([far, far]), [(0.0, 0.0, 1.0, 1.0), tuple(far[0, :2]) + (1e17 + 16, 1.0)])
        self._assert_same_bits(far, far)
        assert _aligned_iou(far, far).tolist() == [[0.0]]

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_boxes(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, 20, (2, 60, 2)) / 2.0 * 10.0 ** rng.integers(-3, 4)  # many exact touches and ties
        boxes = np.concatenate([lo, lo + rng.integers(1, 8, lo.shape) / 2.0 * 10.0 ** rng.integers(-3, 4)], axis=2)
        self._assert_same_bits(boxes[0], boxes[1])


class TestRaggedRows:
    """A row list whose rows differ in length raises InvalidGeometryError
    naming its first row of the wrong length, not numpy's shape error."""

    ROW5, ROW4 = (0.0, 0.0, 2.0, 1.0, 10.0), (0.0, 0.0, 2.0, 1.0)

    @pytest.mark.parametrize("call, width", [
        (lambda rows, good: rotated_iou_matrix(rows, [good]), 5),
        (lambda rows, good: rotated_iou_matrix([good], rows), 5),
        (lambda rows, good: rotated_iou_pairs(rows, rows), 5),
        (lambda rows, good: canonicalize180_rows(rows), 5),
        (lambda rows, good: aligned_bboxes(rows), 5),
        (lambda rows, good: aligned_iou_matrix(rows, [good]), 4),
        (lambda rows, good: aligned_iou_matrix([good], rows), 4),
    ])
    @pytest.mark.parametrize("ragged, index", [
        (lambda good: [good, good[:-1]], 1),
        (lambda good: [good, good, good + (1.0,), good[:-1]], 2),
        (lambda good: [good[:2], good], 0),
        (lambda good: [good, 3.0], 1),
    ])
    def test_first_row_of_another_length_is_named(self, call, width, ragged, index):
        good = self.ROW5 if width == 5 else self.ROW4
        with pytest.raises(InvalidGeometryError, match=rf"^row {index} is not a sequence of {width} values$") as exc:
            call(ragged(good), good)
        assert exc.value.index == index

    def test_other_conversion_errors_are_numpy_s(self):
        with pytest.raises(ValueError, match="could not convert") as exc:
            rotated_iou_matrix([self.ROW5, ("a",) * 5], [self.ROW5])
        assert not isinstance(exc.value, InvalidGeometryError)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(5))
    def test_rejected(self, bad, field):
        args = [1.0, 2.0, 4.0, 2.0, 30.0]
        args[field] = bad
        for make in (canonicalize90, canonicalize180):
            with pytest.raises(InvalidGeometryError):
                make(*args)
        fields = [1.0, 2.0, 4.0, 2.0, 30.0 - 90.0]
        fields[field] = bad
        for cls in (OrientedBox90, OrientedBox180):
            with pytest.raises(InvalidGeometryError):
                cls(*fields)

    def test_matrix_rejects_bad_rows(self):
        good = np.array([[0.0, 0.0, 4.0, 2.0, 10.0]])
        for bad in ([[0.0, math.nan, 4.0, 2.0, 10.0]], [[0.0, 0.0, math.inf, 2.0, 10.0]], [[0.0, 0.0, 4.0, 0.0, 10.0]],
                    [[0.0, 0.0, 4.0, 2.0]]):
            with pytest.raises(InvalidGeometryError):
                rotated_iou_matrix(good, bad)
            with pytest.raises(InvalidGeometryError):
                rotated_iou_matrix(np.asarray(bad), good)


def _box(cx, cy, a, b, theta):
    return canonicalize180(cx, cy, a, b, theta)


def _shifted(box, along, across):
    """The same box moved by `along` on its long side and `across` on
    its short side."""
    t = math.radians(box.theta)
    return _box(box.cx + along * math.cos(t) - across * math.sin(t), box.cy + along * math.sin(t) + across * math.cos(t),
                box.h, box.w, box.theta)


class TestIouMatrixKernel:
    def test_matches_clipper_oracle(self):
        # 47 x 47 = 2209 pairs, more than one kernel chunk
        rng = np.random.default_rng(11)
        a = [_random_box(rng) for _ in range(47)]
        b = [_random_box(rng) for _ in range(47)]
        assert len(a) * len(b) > PAIR_CHUNK
        got = rotated_iou_matrix(box_rows(a), box_rows(b))
        want = np.array([[clipped_iou(x, y) for y in b] for x in a])
        assert np.abs(got - want).max() <= 1e-12
        assert 0.5 < np.count_nonzero(want) / want.size < 1.0  # overlapping and pruned pairs both occur
        for x, y in zip(a[:50], b[:50]):
            assert rotated_iou(x, y) == rotated_iou_matrix(box_rows([x]), box_rows([y]))[0, 0]

    def test_box90_rows(self):
        b90 = canonicalize90(1, 2, 5, 2, 20)
        b180 = canonicalize180(1, 2, 5, 2, 20)
        assert box_rows([b90]).tolist() == [[1, 2, 5, 2, 20]]
        assert box_rows([b180]).tolist() == [[1, 2, 5, 2, 20]]
        assert rotated_iou(b90, b180) == pytest.approx(1.0, abs=1e-12)
        assert rotated_iou(b90, _shifted(b180, 1.0, 0.0)) == pytest.approx(clipped_iou(b90, _shifted(b180, 1.0, 0.0)), abs=1e-12)

    def test_empty(self):
        for empty in (np.zeros((0, 5)), []):
            assert rotated_iou_matrix(empty, box_rows([_box(0, 0, 2, 1, 0)])).shape == (0, 1)

    @pytest.mark.parametrize("theta", [0.0, 30.0, -45.0, 89.0])
    def test_explicit_cases(self, theta):
        base = _box(3.0, -2.0, 6.0, 2.0, theta)
        cases = {
            "identical": (base, 1.0),
            "nested": (_box(3.0, -2.0, 3.0, 1.0, theta), 3.0 / 12.0),
            "nested off-center": (_shifted(_box(3.0, -2.0, 2.0, 1.0, theta), 1.5, 0.25), 2.0 / 12.0),
            "touching edge": (_shifted(base, 0.0, 2.0), 0.0),
            "touching end": (_shifted(base, 6.0, 0.0), 0.0),
            "touching corner": (_shifted(base, 6.0, 2.0), 0.0),
            "collinear edge": (_shifted(base, 1.8, 0.0), 4.2 / 7.8),
            "collinear edge, other side": (_shifted(base, -1.0, 1.0), 5.0 / 19.0),
            "disjoint": (_shifted(base, 0.0, 2.5), 0.0),
        }
        for name, (other, want) in cases.items():
            assert rotated_iou(base, other) == pytest.approx(want, abs=1e-12), name
            assert rotated_iou(other, base) == pytest.approx(want, abs=1e-12), name
            assert rotated_iou(base, other) == pytest.approx(clipped_iou(base, other), abs=1e-12), name

    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5, 1.0, 5.0])
    def test_thin_box_closed_form(self, delta):
        base = _box(0, 0, 9, 1, 0)
        assert rotated_iou(base, _box(0, 0, 9, 1, delta)) == pytest.approx(concentric_rect_iou(9, 1, delta), abs=1e-12)

    def test_shifted_thin_box_at_small_scale(self):
        # exact: across 6.3 / 11.7, along 8.7 / 9.3, at every scale
        for scale in (1e-6, 1.0, 1e6):
            base = _box(0, 0, 9 * scale, scale, 20)
            assert rotated_iou(base, _shifted(base, 0.0, 0.3 * scale)) == pytest.approx(6.3 / 11.7, abs=1e-12)
            assert rotated_iou(base, _shifted(base, 0.3 * scale, 0.0)) == pytest.approx(8.7 / 9.3, abs=1e-12)

    @given(
        cx=st.floats(-2, 2), cy=st.floats(-2, 2), a=st.floats(0.5, 6), b=st.floats(0.5, 6), ta=st.floats(-180, 180),
        dx=st.floats(-2, 2), dy=st.floats(-2, 2), c=st.floats(0.5, 6), d=st.floats(0.5, 6), tb=st.floats(-180, 180),
        tx=st.floats(-1e7, 1e7), ty=st.floats(-1e7, 1e7), log_scale=st.floats(-6, 6), phi=st.floats(-180, 180),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_scale_rotation_invariance(self, cx, cy, a, b, ta, dx, dy, c, d, tb, tx, ty, log_scale, phi):
        box_a, box_b = _box(cx, cy, a, b, ta), _box(dx, dy, c, d, tb)
        iou = rotated_iou(box_a, box_b)
        # the clipper keeps points up to its absolute CLIP_EPS outside
        assert iou == pytest.approx(clipped_iou(box_a, box_b), abs=1e-7)
        # moving by up to 1e7 changes the boxes by the rounding of their
        # centers, about 1e7 * 2**-53 = 1e-9
        moved = rotated_iou(_box(cx + tx, cy + ty, a, b, ta), _box(dx + tx, dy + ty, c, d, tb))
        assert moved == pytest.approx(iou, abs=1e-6)
        s = 10.0**log_scale
        scaled = rotated_iou(_box(cx * s, cy * s, a * s, b * s, ta), _box(dx * s, dy * s, c * s, d * s, tb))
        assert scaled == pytest.approx(iou, abs=1e-9)
        rc, rs = math.cos(math.radians(phi)), math.sin(math.radians(phi))
        turned = rotated_iou(_box(cx * rc - cy * rs, cx * rs + cy * rc, a, b, ta + phi),
                             _box(dx * rc - dy * rs, dx * rs + dy * rc, c, d, tb + phi))
        assert turned == pytest.approx(iou, abs=1e-9)

    @given(
        a=st.floats(0.5, 6), b=st.floats(0.5, 6), ta=st.floats(-180, 180),
        dx=st.floats(-2, 2), dy=st.floats(-2, 2), tb=st.floats(-180, 180), log_scale=st.floats(-6, 6),
    )
    @settings(max_examples=15, deadline=None)
    def test_monte_carlo_at_scale(self, a, b, ta, dx, dy, tb, log_scale):
        s = 10.0**log_scale
        box_a = _box(0.0, 0.0, a * s, b * s, ta)
        box_b = _box(dx * s, dy * s, b * s, a * s, tb)
        assert rotated_iou(box_a, box_b) == pytest.approx(mc_iou(box_a, box_b, samples=200_000, seed=1), abs=0.01)


def _all_pairs(a, b):
    """The rows of every (a, b) pair in row-major order, as two aligned
    pair lists."""
    i, j = np.divmod(np.arange(len(a) * len(b)), len(b))
    return a[i], b[j]


class TestIouPairs:
    """rotated_iou_pairs against the entries of rotated_iou_matrix: the
    same arithmetic, so equal to the last bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        a = box_rows([_random_box(rng) for _ in range(40)])
        b = box_rows([_random_box(rng) for _ in range(60)])
        want = rotated_iou_matrix(a, b).ravel()
        assert len(want) > PAIR_CHUNK
        assert np.array_equal(rotated_iou_pairs(*_all_pairs(a, b)), want)
        # any subset in any order: results do not depend on the batch
        pick = rng.permutation(len(want))[:500]
        pa, pb = _all_pairs(a, b)
        assert np.array_equal(rotated_iou_pairs(pa[pick], pb[pick]), want[pick])
        # the same pairs given as indices into the two sets, repeats included
        i, j = np.divmod(np.append(pick, pick[:50]), len(b))
        assert np.array_equal(rotated_iou_pairs(a, b, i, j), np.append(want[pick], want[pick[:50]]))

    @pytest.mark.parametrize("theta", [0.0, 30.0, -45.0])
    def test_explicit_cases(self, theta):
        base = _box(3.0, -2.0, 6.0, 2.0, theta)
        others = [base, _box(3.0, -2.0, 3.0, 1.0, theta), _shifted(base, 0.0, 2.0), _shifted(base, 6.0, 2.0),
                  _shifted(base, 1.8, 0.0), _shifted(base, 40.0, 0.0), _box(1e6, 1e6, 6.0, 2.0, theta)]
        a = box_rows([base] * len(others))
        b = box_rows(others)
        got = rotated_iou_pairs(a, b)
        assert np.array_equal(got, rotated_iou_matrix(a[:1], b)[0])
        assert np.array_equal(rotated_iou_pairs(b, a), rotated_iou_matrix(b, a[:1])[:, 0])
        assert got[0] == pytest.approx(1.0, abs=1e-12)  # identical
        assert got[1] == pytest.approx(0.25, abs=1e-12)  # nested
        assert got[2:4] == pytest.approx([0.0, 0.0], abs=1e-12)  # touching edge and corner
        assert got[5] == got[6] == 0.0  # pruned without the kernel

    def test_empty(self):
        for empty in (np.zeros((0, 5)), []):
            assert rotated_iou_pairs(empty, empty).shape == (0,)

    def test_empty_index_lists(self):
        # np.asarray([]) is float64; a zero-length index reads as integers
        rows = np.array([[0.0, 0.0, 4.0, 2.0, 10.0]] * 2)
        for empty in ([], np.zeros(0)):
            assert rotated_iou_pairs(rows, rows[:1], empty, empty).shape == (0,)
        assert rotated_iou_pairs([], [], [], []).shape == (0,)
        with pytest.raises(InvalidGeometryError, match=re.escape("need index arrays i and j, 1-D integers of one length "
                                                                 "within [0, 2) and [0, 1), got float64(1,) and int64(1,)")):
            rotated_iou_pairs(rows, rows[:1], [0.0], np.zeros(1, dtype=np.int64))

    def test_rejects_bad_input(self):
        rows = np.array([[0.0, 0.0, 4.0, 2.0, 10.0]] * 3)
        with pytest.raises(InvalidGeometryError, match="shape"):
            rotated_iou_pairs(rows, rows[:2])
        with pytest.raises(InvalidGeometryError):
            rotated_iou_pairs(rows[:, :4], rows[:, :4])
        # only an empty sequence, shape (0,), reads as zero rows
        for shape in ((3,), (0, 4)):
            with pytest.raises(InvalidGeometryError, match=re.escape(f"expected (N, 5) box rows, got shape {shape}")):
                rotated_iou_pairs(np.ones(shape), np.ones(shape))
        bad = rows.copy()
        bad[1, 3] = math.nan
        with pytest.raises(InvalidGeometryError):
            rotated_iou_pairs(rows, bad)
        # index arrays: both or neither, 1-D integers of one length, in range
        a, b = rows, rows[:2]
        for i, j in [([0], [-1]), ([-1], [0]), ([3], [0]), ([0], [2]), ([0, 0], [0]), ([0.0], [0]), ([0], [1.0]),
                     ([True], [0]), ([[0]], [[0]]), (0, 0), ([0], None), (None, [0])]:
            with pytest.raises(InvalidGeometryError, match="index"):
                rotated_iou_pairs(a, b, i, j)
        assert rotated_iou_pairs(a, b, np.array([2], dtype=np.uint8), [1]) == pytest.approx([1.0])
        assert rotated_iou_pairs(a, b, np.zeros(0, dtype=int), np.zeros(0, dtype=int)).shape == (0,)

    @pytest.mark.parametrize("sides", [(1.0, 1e-10), (1.0, 0.99e-8), (2e160, 1e160), (2e-200, 1e-200), (2e-160, 1e-160),
                                       (1.01e150, 1.0e150), (1.0e-150, 0.99e-150)])
    def test_rejects_rows_the_kernel_cannot_compute(self, sides):
        # these gave an IoU of 0.0 (1:1e10 at theta 0) or 0.333 (at 17.3)
        # with the box itself, nan (1e160, 1e-200) or 0.451807 for 0.451810
        # (1e-160): the short side lay below the kernel's tolerance, or an
        # area overflowed or lost digits to underflow
        good = np.array([[0.0, 0.0, 4.0, 2.0, 10.0]] * 2)
        for theta in (0.0, 17.3):
            bad = np.array([[5.0, -3.0, *sides, theta]])
            for a, b in ((bad, bad), (bad, bad.copy()), (good[:1], bad), (bad, good[:1])):
                with pytest.raises(InvalidGeometryError, match="the IoU kernel needs"):
                    rotated_iou_pairs(a, b)
            # a row no pair reads is rejected too
            with pytest.raises(InvalidGeometryError, match="box row 1 has sides") as exc:
                rotated_iou_pairs(np.concatenate([good[:1], bad]), good, [0], [0])
            assert exc.value.index == 1
            with pytest.raises(InvalidGeometryError, match="the IoU kernel needs"):
                rotated_iou(OrientedBox180(5.0, -3.0, *sides, theta), OrientedBox180(5.0, -3.0, *sides, theta))
            # the angle reduction still takes such rows
            assert np.array_equal(canonicalize180_rows(bad), bad)

    def test_kernel_bounds_are_inclusive(self):
        for sides in ((1.0, 1e-8), (1e150, 1e142), (1e-142, 1e-150)):
            rows = np.array([[5.0, -3.0, *sides, 17.3]])
            assert rotated_iou_pairs(rows, rows.copy()) == pytest.approx([1.0], abs=1e-6)


def _random_rows(rng, n, spread):
    """(n, 5) box rows with centres in [-spread, spread]^2, sides in
    [0.5, 6] and any angle, not canonicalized."""
    return np.column_stack([rng.uniform(-spread, spread, (n, 2)), rng.uniform(0.5, 6.0, (n, 2)),
                            rng.uniform(-180.0, 180.0, n)])


def _turned(rows, degrees):
    """The same rectangles with the sides swapped and theta turned by
    `degrees` (a multiple of 90)."""
    out = rows.copy()
    if degrees % 180:
        out[:, 2:4] = rows[:, 3:1:-1]
    out[:, 4] += degrees
    return out


class TestEdgeClipKernel:
    """The Green's-theorem edge clipper against the sorted-candidate
    kernel it replaced, the scalar clipper and closed forms."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_sets_against_both_oracles(self, seed):
        # 50 x 50 pairs, more than one kernel chunk, crowded enough that
        # most pairs overlap and some are pruned
        rng = np.random.default_rng(100 + seed)
        a, b = _random_rows(rng, 50, 3.0), _random_rows(rng, 50, 3.0)
        got = rotated_iou_matrix(a, b)
        assert got.size > PAIR_CHUNK
        assert 0.5 < np.count_nonzero(got) / got.size < 1.0
        assert np.abs(got - sorted_candidate_iou_matrix(a, b)).max() <= 1e-14
        boxes_a = [canonicalize180(*row) for row in a[:12]]
        boxes_b = [canonicalize180(*row) for row in b[:12]]
        want = np.array([[clipped_iou(x, y) for y in boxes_b] for x in boxes_a])
        assert np.abs(rotated_iou_matrix(box_rows(boxes_a), box_rows(boxes_b)) - want).max() <= 1e-12

    @pytest.mark.parametrize("long, short", [(9.0, 1.0), (100.0, 0.1), (1000.0, 1.0), (1000.0, 1e-3)])
    @pytest.mark.parametrize("fraction", [1e-6, 1e-4, 1e-3, 0.1, 0.5, 0.9, 1.0])
    def test_sliver_closed_form(self, long, short, fraction):
        # turned by up to the largest angle the closed form covers; at
        # theta 0 the corners of the first box are exact
        delta = math.degrees(2 * math.atan(short / long)) * fraction
        want = concentric_rect_iou(long, short, delta)
        for cx, cy in ((0.0, 0.0), (123.0, -45.0), (1e6, -1e6)):
            a = np.array([[cx, cy, long, short, 0.0]])
            b = np.array([[cx, cy, long, short, delta]])
            assert rotated_iou_matrix(a, b)[0, 0] == pytest.approx(want, abs=1e-12)
            assert rotated_iou_matrix(b, a)[0, 0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("phi", [17.3, -61.7, 44.0])
    @pytest.mark.parametrize("long, short", [(9.0, 1.0), (100.0, 0.1), (1000.0, 1.0), (1000.0, 1e-3)])
    @pytest.mark.parametrize("fraction", [1e-6, 1e-4, 1e-3, 0.1, 0.5, 0.9, 1.0])
    def test_turned_sliver_closed_form(self, phi, long, short, fraction):
        # test_sliver_closed_form with both boxes turned by phi: in the frame of the first box the
        # second's angle is the representable (phi + delta) - phi, where the closed form is taken
        delta = math.degrees(2 * math.atan(short / long)) * fraction
        turned = phi + delta if (phi + delta) - phi <= delta else math.nextafter(phi + delta, phi)  # within the range
        want = concentric_rect_iou(long, short, turned - phi)
        for cx, cy in ((0.0, 0.0), (123.0, -45.0), (1e6, -1e6)):
            a = np.array([[cx, cy, long, short, phi]])
            b = np.array([[cx, cy, long, short, turned]])
            assert rotated_iou_matrix(a, b)[0, 0] == pytest.approx(want, abs=1e-12)
            assert rotated_iou_matrix(b, a)[0, 0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("aspect", [1e-8, 1e-6, 1e-4, 1e-2, 1.0])
    def test_self_iou_is_exactly_one(self, aspect):
        # in the frame of the first box both boxes' corners are the same exact half-sides
        rng = np.random.default_rng(2702)
        long = 10.0 ** rng.uniform(-3.0, 6.0, 300)
        rows = np.column_stack([rng.uniform(-1e6, 1e6, (300, 2)), long, long * aspect, rng.uniform(-180.0, 180.0, 300)])
        rows[::2, 2:4] = rows[::2, 3:1:-1]  # the long side second
        assert (rotated_iou_pairs(rows, rows) == 1.0).all()
        assert (rotated_iou_pairs(rows, rows.copy(), [7, 8], [7, 8]) == 1.0).all()
        assert (np.diag(rotated_iou_matrix(rows, rows)) == 1.0).all()

    def test_one_box_in_both_parameterizations(self):
        a = np.array([[0.0, 0.0, 4.0, 2.0, 30.0]])
        assert rotated_iou_matrix(a, np.array([[0.0, 0.0, 2.0, 4.0, -60.0]]))[0, 0] == pytest.approx(1.0, abs=1e-12)
        rows = _random_rows(np.random.default_rng(7), 40, 3.0)
        for degrees in (-90.0, 90.0, 180.0, -180.0):
            assert rotated_iou_pairs(rows, _turned(rows, degrees)) == pytest.approx(np.ones(40), abs=1e-12)
            assert rotated_iou_pairs(_turned(rows, degrees), rows) == pytest.approx(np.ones(40), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 30.0, -45.0, 89.0])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_shared_edges(self, theta, scale):
        base = _box(3.0 * scale, -2.0 * scale, 4.0 * scale, 2.0 * scale, theta)
        t = math.radians(theta)

        def at(along, across, long, short):
            # a long x short box at base's angle, moved in base's frame
            return _box(base.cx + (along * math.cos(t) - across * math.sin(t)) * scale,
                        base.cy + (along * math.sin(t) + across * math.cos(t)) * scale, long * scale, short * scale, theta)

        cases = {
            # same direction: half of the box, sharing three of its edges
            "half": (at(1.0, 0.0, 2.0, 2.0), 0.5),
            "half, other end": (at(-1.0, 0.0, 2.0, 2.0), 0.5),
            "strip": (at(0.0, 0.5, 4.0, 1.0), 0.5),
            "longer, one side shared": (at(2.0, 0.0, 8.0, 2.0), 0.5),
            # opposite directions: touching along a whole edge or part of one
            "touching side": (at(0.0, 2.0, 4.0, 2.0), 0.0),
            "touching end": (at(4.0, 0.0, 4.0, 2.0), 0.0),
            "touching, offset": (at(1.5, -2.0, 4.0, 2.0), 0.0),
            "touching, smaller": (at(0.5, 1.5, 2.0, 1.0), 0.0),
        }
        for name, (other, want) in cases.items():
            assert rotated_iou(base, other) == pytest.approx(want, abs=1e-12), name
            assert rotated_iou(other, base) == pytest.approx(want, abs=1e-12), name

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(8)
        a, b = _random_rows(rng, 30, 3.0), _random_rows(rng, 30, 3.0)
        factor = np.array([scale, scale, scale, scale, 1.0])
        assert np.abs(rotated_iou_matrix(a * factor, b * factor) - rotated_iou_matrix(a, b)).max() <= 1e-12

    def test_touching_contacts_give_no_vertices(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        for other in ([(1, 0), (2, 0), (2, 1), (1, 1)], [(1, 1), (2, 1), (2, 2), (1, 2)],
                      [(1, 0.5), (2, 0.5), (2, 1.5), (1, 1.5)]):
            assert convex_intersection(square, other).shape == (0, 2)


def _random_convex(rng, n_points):
    """Counter-clockwise polygon with vertices on a random ellipse."""
    t = np.sort(rng.uniform(0, 2 * math.pi, n_points))
    radii = rng.uniform(0.5, 2.5, size=2)
    return rng.uniform(-1, 1, size=2) + radii * np.column_stack([np.cos(t), np.sin(t)])


class TestConvexIntersectionOracle:
    def test_matches_clipper_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            p = _random_convex(rng, int(rng.integers(3, 9)))
            q = _random_convex(rng, int(rng.integers(3, 9)))
            got = convex_intersection(p, q)
            want = clip_convex(p, q)
            assert shoelace_area(got) == pytest.approx(shoelace_area(want), abs=1e-12)
            if shoelace_area(want) > 1e-9:
                assert _signed(got) > 0  # counter-clockwise
                assert len(got) == len(want)
                assert vertex_set_equal(got, want, tol=1e-9)
