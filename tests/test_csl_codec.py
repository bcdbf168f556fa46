import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cslkit.csl_codec import (
    CslCodecConfig,
    _window,
    _window_rows,
    angle_to_bin,
    decode,
    decode_batch,
    encode,
    encode_batch,
    monte_carlo_roundtrip_error,
    quantization_error_stats,
    window_curve,
    window_value,
)
from oracles import modulo_window_rows

GAUSS6 = CslCodecConfig("gaussian", 6.0)
KINDS = ("pulse", "rectangular", "triangle", "gaussian")


class TestConfig:
    def test_bin_counts(self):
        assert CslCodecConfig("pulse", 0.0, 1.0, "range180").bin_count == 180
        assert CslCodecConfig("pulse", 0.0, 1.0, "range90").bin_count == 90
        assert CslCodecConfig("pulse", 0.0, 0.5, "range180").bin_count == 360

    def test_non_integer_bins_rejected(self):
        with pytest.raises(ValueError):
            CslCodecConfig("pulse", 0.0, 0.7, "range180")

    def test_radius_bound(self):
        with pytest.raises(ValueError):
            CslCodecConfig("gaussian", 90.0, 1.0, "range180")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            CslCodecConfig("hann", 2.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("radius, omega, message", [
        (math.nan, 1.0, "radius must be non-negative"),
        (-1.0, 1.0, "radius must be non-negative"),
        (2.0, math.nan, "omega must be positive"),
        (2.0, 0.0, "omega must be positive"),
    ])
    def test_nan_parameters_rejected(self, kind, radius, omega, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CslCodecConfig(kind, radius, omega)


class TestAngleToBin:
    def test_range_min(self):
        assert angle_to_bin(-90, GAUSS6) == 0

    def test_near_range_max(self):
        assert angle_to_bin(89.999, GAUSS6) == 179

    def test_fractional_omega(self):
        cfg = CslCodecConfig("pulse", 0.0, 0.5, "range180")
        assert angle_to_bin(0.3, cfg) == 180

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            angle_to_bin(90.0, GAUSS6)
        with pytest.raises(ValueError):
            angle_to_bin(-90.001, GAUSS6)

    @pytest.mark.parametrize("omega, angle_range", [(1.0, "range180"), (0.5, "range180"), (1.5, "range90"), (7.5, "range90")])
    def test_batch_of_one_of_encode_batch(self, omega, angle_range):
        """angle_to_bin, encode and encode_batch share one bin formula, bit
        for bit the scalar floor-and-clip it replaced."""
        cfg = CslCodecConfig("triangle", 0.0, omega, angle_range)
        lo, hi = cfg.range_min, cfg.range_min + cfg.range_span
        rng = np.random.default_rng(3)
        thetas = np.concatenate([rng.uniform(lo, hi, 500), np.arange(lo, hi, omega), [np.nextafter(hi, lo), lo + 1e-300]])
        want = [min(int(np.floor((t - lo) / omega)), cfg.bin_count - 1) for t in thetas.tolist()]
        assert [angle_to_bin(t, cfg) for t in thetas.tolist()] == want
        assert [encode(t, cfg).gt_bin for t in thetas.tolist()] == want
        assert np.argmax(encode_batch(thetas, cfg), axis=1).tolist() == want  # r = 0: a pulse at the bin

    @pytest.mark.parametrize("thetas, bad", [([0.0, 95.0, -100.0], "95.0"), ([math.nan], "nan"), ([-math.inf, 0.0], "-inf")])
    def test_error_names_the_first_bad_angle(self, thetas, bad):
        message = rf"^angle {bad} outside canonical range \[-90.0, 90.0\)$"
        with pytest.raises(ValueError, match=message):
            encode_batch(thetas, GAUSS6)
        for scalar in (encode, angle_to_bin):
            with pytest.raises(ValueError, match=message):
                scalar(float(bad), GAUSS6)


class TestWindowValue:
    @pytest.mark.parametrize("kind", KINDS)
    def test_maximum_axiom(self, kind):
        cfg = CslCodecConfig(kind, 6.0)
        assert window_value(cfg, 0.0) == 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_shape_of_input(self, kind):
        # a scalar or 0-d input gives a float (a 0-d array gave a 1-element
        # array), an array the values in its shape
        cfg = CslCodecConfig(kind, 6.0)
        grid = np.arange(6.0).reshape(2, 3)
        for d in (2.0, 2, np.float64(2.0), np.array(2.0)):
            assert type(window_value(cfg, d)) is float and window_value(cfg, d) == window_value(cfg, grid)[0, 2]
        assert window_value(cfg, grid).shape == (2, 3)
        # the same bits as in an array: a numpy scalar's d**2 is 1 ulp off here
        cfg = CslCodecConfig(kind, 44.9, 2.0)
        assert window_value(cfg, 869.9221883733005) == window_value(cfg, np.array([869.9221883733005]))[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_delta_rejected(self, kind, bad):
        # NaN used to read as 0.0 and inf to warn in the remainder
        for delta in (bad, np.array([0.0, 1.0, bad])):
            with pytest.raises(ValueError, match=f"^non-finite delta_bins: {bad}$"):
                window_value(CslCodecConfig(kind, 6.0), delta)

    def test_triangle_midpoint(self):
        cfg = CslCodecConfig("triangle", 6.0)
        assert window_value(cfg, 3.0) == pytest.approx(0.5)

    def test_gaussian_truncation_and_edge(self):
        cfg = CslCodecConfig("gaussian", 6.0)
        assert window_value(cfg, 6.0) == 0.0
        # sigma = r/3 = 2: exp(-5.999^2 / 8)
        assert window_value(cfg, 5.999) == pytest.approx(math.exp(-(5.999**2) / 8.0), rel=1e-12)
        assert window_value(cfg, 5.999) == pytest.approx(0.0112, abs=5e-4)

    @pytest.mark.parametrize("kind", KINDS)
    def test_periodicity(self, kind):
        cfg = CslCodecConfig(kind, 4.0)
        t = cfg.bin_count
        for d in (0.0, 1.5, 3.0, 7.0):
            for k in (1, 2, 5):
                assert window_value(cfg, d) == pytest.approx(window_value(cfg, d + k * t), abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_symmetry(self, kind):
        cfg = CslCodecConfig(kind, 4.0)
        for d in np.linspace(0, 10, 41):
            assert window_value(cfg, d) == pytest.approx(window_value(cfg, -d), abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_monotonic(self, kind):
        cfg = CslCodecConfig(kind, 4.0)
        vals = [window_value(cfg, d) for d in np.linspace(0, 4.0, 81)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_radius_zero_degenerates_to_pulse(self, kind):
        cfg = CslCodecConfig(kind, 0.0)
        assert window_value(cfg, 0.0) == 1.0
        assert window_value(cfg, 1.0) == 0.0


class TestEncode:
    def test_pulse_is_one_hot(self):
        label = encode(-90, CslCodecConfig("pulse", 0.0))
        expected = np.zeros(180)
        expected[0] = 1.0
        assert np.array_equal(label.values, expected)

    def test_wrap_across_boundary(self):
        label = encode(89.5, GAUSS6)
        assert label.gt_bin == 179
        assert label.values[0] == pytest.approx(window_value(GAUSS6, 1.0))
        assert label.values[173] == 0.0  # distance 6, truncated

    def test_rectangular_support(self):
        cfg = CslCodecConfig("rectangular", 2.0)
        label = encode(0.0, cfg)
        assert label.gt_bin == 90
        on = np.flatnonzero(label.values)
        assert list(on) == [89, 90, 91]

    def test_max_at_gt_bin(self):
        for kind in KINDS:
            label = encode(13.0, CslCodecConfig(kind, 6.0))
            assert label.values[label.gt_bin] == 1.0
            assert label.values.min() >= 0.0 and label.values.max() <= 1.0

    def test_support_bounded_by_radius(self):
        for kind in ("rectangular", "triangle", "gaussian"):
            cfg = CslCodecConfig(kind, 4.0)
            label = encode(-37.0, cfg)
            for k in np.flatnonzero(label.values):
                d = min(abs(k - label.gt_bin) % 180, 180 - abs(k - label.gt_bin) % 180)
                assert d < 4.0


class TestDecode:
    def test_one_hot_bin_zero(self):
        scores = np.zeros(180)
        scores[0] = 1.0
        assert decode(scores, GAUSS6) == pytest.approx(-89.5)

    def test_round_trip_error_bound(self):
        cfg = CslCodecConfig("gaussian", 6.0, 1.0, "range180")
        assert decode(encode(37.2, cfg).values, cfg) == pytest.approx(37.5)
        for theta in np.arange(-90, 90, 0.01):
            err = abs(decode(encode(theta, cfg).values, cfg) - theta)
            assert err <= 0.5 + 1e-9

    def test_tie_smallest_index(self):
        assert decode(np.ones(180), GAUSS6) == pytest.approx(-89.5)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            decode(np.zeros(90), GAUSS6)


class TestCircularToleranceProperty:
    def test_l1_depends_only_on_circular_distance(self):
        cfg = GAUSS6
        t = cfg.bin_count

        def l1(b1, b2):
            # fsum: correctly-rounded, order-independent sum, so equal
            # multisets of per-bin differences compare exactly equal
            th1 = cfg.range_min + (b1 + 0.5) * cfg.omega
            th2 = cfg.range_min + (b2 + 0.5) * cfg.omega
            return math.fsum(np.abs(encode(th1, cfg).values - encode(th2, cfg).values))

        # boundary-adjacent equals any interior adjacent pair, exactly
        boundary = l1(0, t - 1)
        interior = l1(80, 81)
        assert boundary == interior
        # non-decreasing in circular distance up to 2r
        dists = [l1(50, 50 + d) for d in range(0, 13)]
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


class TestQuantizationError:
    def test_closed_form(self):
        s = quantization_error_stats(1.0)
        assert (s.max_loss, s.expected_loss) == (0.5, 0.25)
        s = quantization_error_stats(2.0)
        assert (s.max_loss, s.expected_loss) == (1.0, 0.5)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan])
    def test_closed_form_rejects_bad_omega(self, omega):
        with pytest.raises(ValueError, match="omega must be positive"):
            quantization_error_stats(omega)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_monte_carlo_needs_a_sample(self, samples):
        cfg = CslCodecConfig("pulse", 0.0, 1.0, "range180")
        with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
            monte_carlo_roundtrip_error(cfg, samples=samples)
        assert monte_carlo_roundtrip_error(cfg, samples=1)[0] >= 0.0

    def test_monte_carlo(self):
        cfg = CslCodecConfig("pulse", 0.0, 1.0, "range180")
        mean, worst = monte_carlo_roundtrip_error(cfg, samples=1_000_000, seed=11)
        assert mean == pytest.approx(0.25, abs=0.005)
        assert worst <= 0.5 + 1e-9


class TestBatchOps:
    def test_batch_matches_scalar(self):
        thetas = np.array([-90.0, -45.3, 0.0, 89.99])
        batch = encode_batch(thetas, GAUSS6)
        for i, th in enumerate(thetas):
            assert np.allclose(batch[i], encode(th, GAUSS6).values)
        assert np.allclose(decode_batch(batch, GAUSS6), [decode(b, GAUSS6) for b in batch])

    def test_gather_matches_window_formula(self):
        # criterion 3 grid; the window evaluated on every (bin - gt_bin)
        # offset is the formula the gathered rows must reproduce bit for bit
        grid = itertools.product(
            ("pulse", "rectangular", "triangle", "gaussian"), (0.5, 2.0, 4.0, 6.0, 8.0), (0.5, 1.0, 2.0), ("range90", "range180")
        )
        for kind, r, omega, rng in grid:
            cfg = CslCodecConfig(kind, r, omega, rng)
            thetas = np.arange(cfg.range_min, cfg.range_min + cfg.range_span, omega / 3)
            t = cfg.bin_count
            gt = np.minimum(np.floor((thetas - cfg.range_min) / omega).astype(int), t - 1)
            expected = window_value(cfg, np.arange(t)[None, :] - gt[:, None])
            assert np.array_equal(encode_batch(thetas, cfg), expected)
            assert np.array_equal(encode(thetas[7], cfg).values, expected[7])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, bad):
        for thetas in ([bad], [0.0, bad, 45.0]):
            with pytest.raises(ValueError):
                encode_batch(thetas, GAUSS6)
        with pytest.raises(ValueError):
            encode(bad, GAUSS6)

    def test_decode_batch_shape_error(self):
        with pytest.raises(ValueError):
            decode_batch(np.ones((3, 7)), GAUSS6)
        with pytest.raises(ValueError):
            decode_batch(np.ones(180), GAUSS6)

    def test_decode_batch_non_finite(self):
        scores = np.zeros((2, 180))
        scores[1, 4] = np.nan
        with pytest.raises(ValueError):
            decode_batch(scores, GAUSS6)


def test_window_curve_center_peak():
    curve = window_curve(GAUSS6)
    assert len(curve) == 180
    assert curve[90][1] == 1.0
    assert [v for _, v in curve] == encode(0.5, GAUSS6).values.tolist()  # the label of an angle in bin 90


class TestCachedWindow:
    """Labels gathered from the window cached per config are those of a
    modulo index table rebuilt on every call, bit for bit."""

    @pytest.mark.parametrize("cfg", [
        CslCodecConfig("gaussian", 6.0, 1.0, "range180"),
        CslCodecConfig("pulse", 0.0),
        CslCodecConfig("triangle", 4.0, 0.5, "range90"),
        CslCodecConfig("rectangular", 3.0, 2.0),
    ])
    def test_every_bin_equals_the_modulo_table(self, cfg):
        bins = np.arange(cfg.bin_count)
        for rows in (bins, bins[::-1], np.array([], dtype=int)):
            got, want = _window_rows(rows, cfg), modulo_window_rows(rows, cfg)
            assert got.shape == want.shape == (len(rows), cfg.bin_count)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_window_is_read_only_and_labels_are_copies(self):
        window = _window(GAUSS6)
        assert window.shape == (GAUSS6.bin_count + 1, GAUSS6.bin_count) and not window.flags.writeable
        with pytest.raises(ValueError):
            window[0, 0] = 2.0
        labels = encode_batch([0.0, 45.0], GAUSS6)
        labels[:] = 2.0  # the caller owns its labels; the cache is untouched
        assert encode_batch([0.0], GAUSS6).tobytes() == modulo_window_rows(np.array([90]), GAUSS6).tobytes()

    def test_configs_that_differ_in_radius_get_their_own_rows(self):
        narrow, wide = CslCodecConfig("gaussian", 4.0), CslCodecConfig("gaussian", 6.0)
        bins = np.array([0, 17, 179])
        assert _window_rows(bins, narrow).tobytes() != _window_rows(bins, wide).tobytes()
        for cfg in (narrow, wide, narrow):
            assert _window_rows(bins, cfg).tobytes() == modulo_window_rows(bins, cfg).tobytes()

    def test_fine_bins_build_no_square_table(self):
        cfg = CslCodecConfig("gaussian", 6.0, 0.01)  # T = 18000: a (T, T) table would take 2.6 GB
        tracemalloc.start()
        try:
            labels = encode_batch([-90.0, 0.0, 89.995], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert labels.tobytes() == modulo_window_rows(np.array([0, 9000, 17999]), cfg).tobytes()
