import math

import numpy as np
import pytest

from cslkit.csl_codec import CslCodecConfig, encode, encode_batch
from cslkit.losses import (
    LossBatch,
    LossWeights,
    RegressionTarget,
    boundary_probe,
    boundary_sweep,
    csl_classification_loss,
    csl_classification_loss_grad,
    decode_regression,
    encode_regression,
    multi_task_loss,
    smooth_l1,
    smooth_l1_grad,
)
from cslkit.rotgeom import canonicalize90, canonicalize180
from oracles import central_diff, loop_multi_task_loss

GAUSS6 = CslCodecConfig("gaussian", 6.0)


class TestRegressionCodec:
    def test_identity(self):
        b = canonicalize180(1, 2, 4, 2, 30)
        t = encode_regression(b, b)
        assert t.as_array() == pytest.approx(np.zeros(5), abs=1e-12)

    def test_angle_scale(self):
        gt = canonicalize180(0, 0, 4, 2, 45)
        anchor = canonicalize180(0, 0, 4, 2, -45)
        assert encode_regression(gt, anchor).t_theta == pytest.approx(math.pi / 2)

    def test_log_ratio(self):
        gt = canonicalize180(0, 0, 4 * math.e, 2, 0)
        anchor = canonicalize180(0, 0, 4, 2, 0)
        assert encode_regression(gt, anchor).th == pytest.approx(1.0)

    def test_decode_zeros_returns_anchor(self):
        a = canonicalize180(3, -1, 5, 2, 17)
        out = decode_regression(RegressionTarget(0, 0, 0, 0, 0.0), a)
        assert (out.cx, out.cy, out.h, out.w, out.theta) == pytest.approx((3, -1, 5, 2, 17), abs=1e-12)

    def test_decode_angle(self):
        a = canonicalize180(0, 0, 4, 2, -45)
        out = decode_regression(RegressionTarget(0, 0, 0, 0, math.pi / 2), a)
        assert out.theta == pytest.approx(45.0)

    def test_round_trip_random_pairs(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            gt = _rand180(rng)
            anchor = _rand180(rng)
            out = decode_regression(encode_regression(gt, anchor), anchor)
            worst = max(
                worst,
                abs(out.cx - gt.cx),
                abs(out.cy - gt.cy),
                abs(out.h - gt.h),
                abs(out.w - gt.w),
                abs(out.theta - gt.theta),
            )
        assert worst < 1e-9

    def test_round_trip_90_convention(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            gt = canonicalize90(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 8), rng.uniform(0.5, 8), rng.uniform(-90, 0))
            anchor = canonicalize90(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 8), rng.uniform(0.5, 8), rng.uniform(-90, 0))
            out = decode_regression(encode_regression(gt, anchor), anchor)
            assert (out.cx, out.cy, out.w, out.h, out.theta) == pytest.approx(
                (gt.cx, gt.cy, gt.w, gt.h, gt.theta), abs=1e-9
            )

    def test_overflow_rejected(self):
        a = canonicalize180(0, 0, 4, 2, 0)
        with pytest.raises(ValueError):
            decode_regression(RegressionTarget(0, 0, 1000.0, 0, 0.0), a)


def _rand180(rng):
    return canonicalize180(
        rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0.5, 8), rng.uniform(0.5, 8), rng.uniform(-180, 180)
    )


class TestSmoothL1:
    def test_values(self):
        assert smooth_l1([0.0], [0.0]) == 0.0
        assert smooth_l1([1.0], [0.0]) == 0.5
        assert smooth_l1([3.0], [0.0]) == 2.5

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.normal(size=5)
            assert smooth_l1(x, x) == 0.0
            y = x + rng.normal(size=5) * 0.1
            if not np.allclose(x, y):
                assert smooth_l1(x, y) > 0.0

    def test_c1_at_transition(self):
        # both branches and both derivatives agree at |d| = 1
        eps = 1e-8
        assert smooth_l1([1 - eps], [0.0]) == pytest.approx(smooth_l1([1 + eps], [0.0]), abs=1e-7)
        g1 = smooth_l1_grad([1 - eps], [0.0])[0]
        g2 = smooth_l1_grad([1 + eps], [0.0])[0]
        assert g1 == pytest.approx(g2, abs=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            smooth_l1([1.0, 2.0], [1.0])


class TestCslClassificationLoss:
    def test_saturated_logits_near_zero(self):
        label = encode(0.0, CslCodecConfig("pulse", 0.0))
        logits = np.where(label.values > 0.5, 20.0, -20.0)
        assert csl_classification_loss(logits, label) < 1e-6
        assert csl_classification_loss(logits, label, mode="focal") < 1e-8

    def test_uniform_zero_logits_closed_form(self):
        label = encode(0.0, CslCodecConfig("pulse", 0.0))
        loss = csl_classification_loss(np.zeros(180), label)
        assert loss == pytest.approx(180 * math.log(2), rel=1e-12)

    def test_angle_distance_sensitivity(self):
        # a prediction peaked at theta is penalized less for a nearby
        # target angle than for a far one
        theta = -30.0
        logits = 10.0 * encode(theta, GAUSS6).values - 5.0
        near = csl_classification_loss(logits, encode(theta + 1.0, GAUSS6))
        far = csl_classification_loss(logits, encode(theta + 90.0, GAUSS6))
        assert near < far

    def test_focal_matching_soft_target_contributes_nothing(self):
        t = 0.7
        z = math.log(t / (1 - t))  # sigmoid(z) == t
        loss = csl_classification_loss(np.array([z]), np.array([t]), mode="focal")
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            csl_classification_loss(np.array([np.nan] * 180), encode(0.0, GAUSS6))


class TestGradients:
    def test_smooth_l1_matches_central_diff(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.normal(scale=2.0, size=6)
            t = rng.normal(scale=2.0, size=6)
            g = smooth_l1_grad(x, t)
            fd = central_diff(lambda v: smooth_l1(v, t), x)
            assert np.abs(g - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    @pytest.mark.parametrize("mode", ["sigmoid_ce", "focal"])
    def test_csl_loss_matches_central_diff(self, mode):
        rng = np.random.default_rng(4)
        label = encode(10.0, GAUSS6)
        for _ in range(100):
            z = rng.normal(scale=3.0, size=180)
            g = csl_classification_loss_grad(z, label, mode=mode)
            fd = central_diff(lambda v: csl_classification_loss(v, label, mode=mode), z)
            assert np.abs(g - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def _one_anchor_batch(reg_pred, reg_target, csl_logits, csl_target, cls_logits, cls_target, obj=1.0):
    return LossBatch(
        obj=np.array([obj]),
        reg_pred=np.array([reg_pred]),
        reg_target=np.array([reg_target]),
        cls_logits=np.array([cls_logits]),
        cls_target=np.array([cls_target]),
        csl_logits=np.array([csl_logits]),
        csl_target=np.array([csl_target]),
    )


class TestMultiTaskLoss:
    def test_perfect_predictions_zero(self):
        # pulse label: every bin is 0/1, so saturated logits drive the
        # loss to its zero limit
        pulse = encode(0.0, CslCodecConfig("pulse", 0.0))
        csl_logits = np.where(pulse.values > 0.5, 30.0, -30.0)
        cls_t = np.array([1.0, 0.0])
        cls_z = np.array([30.0, -30.0])
        batch = _one_anchor_batch(np.zeros(4), np.zeros(4), csl_logits, pulse.values, cls_z, cls_t)
        assert multi_task_loss(batch, branch="csl") == pytest.approx(0.0, abs=1e-10)

    def test_background_masks_regression(self):
        rng = np.random.default_rng(5)
        cls_t = np.array([0.0, 0.0])
        cls_z = np.array([-30.0, -30.0])
        label = encode(0.0, GAUSS6)
        a = _one_anchor_batch(rng.normal(size=4), np.zeros(4), np.zeros(180), label.values, cls_z, cls_t, obj=0.0)
        b = _one_anchor_batch(rng.normal(size=4) * 100, np.zeros(4), np.zeros(180), label.values, cls_z, cls_t, obj=0.0)
        assert multi_task_loss(a, branch="csl") == pytest.approx(multi_task_loss(b, branch="csl"))

    def test_weighted_composition(self):
        reg_pred = np.array([0.5, 0.0, 0.0, 0.0, 0.0])
        reg_tgt = np.zeros(5)
        label = encode(0.0, GAUSS6)
        cls_t = np.array([1.0])
        cls_z = np.array([0.3])
        batch = LossBatch(
            obj=np.array([1.0]),
            reg_pred=np.array([reg_pred]),
            reg_target=np.array([reg_tgt]),
            cls_logits=np.array([cls_z]),
            cls_target=np.array([cls_t]),
        )
        a = smooth_l1(reg_pred, reg_tgt)
        c = csl_classification_loss(cls_z, cls_t)
        w = LossWeights(lambda1=1.0, lambda2=0.5, lambda3=1.0)
        assert multi_task_loss(batch, w, branch="regression") == pytest.approx(a + c)

    def test_linear_in_lambdas(self):
        label = encode(5.0, GAUSS6)
        batch = _one_anchor_batch(
            np.full(4, 0.3), np.zeros(4), np.zeros(180), label.values, np.array([0.2]), np.array([1.0])
        )
        base = multi_task_loss(batch, LossWeights(0.0, 1.0, 0.0), branch="csl")
        assert multi_task_loss(batch, LossWeights(0.0, 2.0, 0.0), branch="csl") == pytest.approx(2 * base)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            LossBatch(
                obj=np.zeros(0),
                reg_pred=np.zeros((0, 4)),
                reg_target=np.zeros((0, 4)),
                cls_logits=np.zeros((0, 1)),
                cls_target=np.zeros((0, 1)),
            )


def _random_batch(rng, n, branch, classes=3):
    want = 5 if branch == "regression" else 4
    fields = dict(
        obj=(rng.random(n) < 0.4).astype(float),
        reg_pred=rng.normal(scale=1.5, size=(n, want)),
        reg_target=rng.normal(size=(n, want)),
        cls_logits=rng.normal(scale=3.0, size=(n, classes)),
        cls_target=(rng.random((n, classes)) < 0.3).astype(float),
    )
    if branch == "csl":
        fields.update(
            csl_logits=rng.normal(scale=3.0, size=(n, 180)),
            csl_target=encode_batch(rng.uniform(-90, 90, n), GAUSS6),
        )
    return LossBatch(**fields)


class TestMultiTaskLossBatched:
    @pytest.mark.parametrize("n", [1, 7, 600])
    @pytest.mark.parametrize("branch", ["regression", "csl"])
    @pytest.mark.parametrize("csl_mode", ["sigmoid_ce", "focal"])
    @pytest.mark.parametrize("cls_mode", ["sigmoid_ce", "focal"])
    def test_matches_per_anchor_loop(self, n, branch, csl_mode, cls_mode):
        rng = np.random.default_rng([n, len(branch), len(csl_mode), len(cls_mode)])
        weights = LossWeights(0.7, 0.3, 1.3)
        for _ in range(3):
            batch = _random_batch(rng, n, branch)
            got = multi_task_loss(batch, weights, branch=branch, csl_mode=csl_mode, cls_mode=cls_mode)
            want = loop_multi_task_loss(batch, weights, branch, csl_mode, cls_mode)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("field", ["obj", "reg_pred", "reg_target", "cls_logits", "cls_target", "csl_logits", "csl_target"])
    @pytest.mark.parametrize("rows", [6, 8])
    def test_row_count_mismatch_rejected(self, field, rows):
        batch = _random_batch(np.random.default_rng(1), 7, "csl")
        value = getattr(batch, field)
        setattr(batch, field, np.resize(value, (rows, *value.shape[1:])))
        with pytest.raises(ValueError):
            multi_task_loss(batch, branch="csl")

    @pytest.mark.parametrize("field", ["cls_logits", "csl_logits"])
    @pytest.mark.parametrize("row", [0, 3, 6])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_logit_row_rejected(self, field, row, bad):
        batch = _random_batch(np.random.default_rng(2), 7, "csl")
        batch.obj[row] = 0.0  # a background row is checked too
        getattr(batch, field)[row, 1] = bad
        with pytest.raises(ValueError):
            multi_task_loss(batch, branch="csl")

    def test_unknown_mode_or_branch_rejected(self):
        batch = _random_batch(np.random.default_rng(3), 7, "csl")
        for kwargs in (dict(csl_mode="hinge"), dict(cls_mode="hinge"), dict(branch="angle")):
            with pytest.raises(ValueError):
                multi_task_loss(batch, **{"branch": "csl", **kwargs})
        with pytest.raises(ValueError):
            multi_task_loss(_random_batch(np.random.default_rng(4), 7, "regression"), branch="regression", cls_mode="hinge")


class TestBoundaryProbe:
    def test_deg180_values(self):
        r = boundary_probe("deg180", 0.5)
        # frozen from direct offset + smooth L1 arithmetic:
        # ideal t_theta = 0.5 * pi/180, actual t_theta = -(180 - 0.5) * pi/180
        assert r.loss_ideal == pytest.approx(0.5 * (0.5 * math.pi / 180) ** 2, rel=1e-12)
        assert r.loss_actual == pytest.approx((179.5 * math.pi / 180) - 0.5, rel=1e-12)
        assert r.ratio > 1e4

    def test_deg90_includes_side_exchange(self):
        r = boundary_probe("deg90", 0.5)
        # actual target carries |log(4)| twice (w/h exchange) on top of
        # the angle jump
        assert r.loss_actual > r.loss_ideal
        assert r.loss_actual > 2 * (math.log(4.0) - 0.5)

    def test_quad_corner_ordering_jump(self):
        r = boundary_probe("quad", 0.5)
        assert r.loss_actual > r.loss_ideal

    def test_csl_distance_is_adjacent_bin_distance(self):
        cfg = GAUSS6
        r = boundary_probe("deg180", 0.5)
        adjacent = float(np.abs(encode(0.5, cfg).values - encode(1.5, cfg).values).sum())
        assert r.loss_csl == pytest.approx(adjacent, abs=1e-9)

    def test_ratio_grows_as_eps_shrinks(self):
        for scenario in ("deg90", "deg180"):
            reports = boundary_sweep(scenario, [0.5, 0.25, 0.1, 0.05, 0.01])
            ratios = [r.ratio for r in reports]
            assert all(b > a for a, b in zip(ratios, ratios[1:]))
            csl = [r.loss_csl for r in reports]
            assert max(csl) - min(csl) == pytest.approx(0.0, abs=1e-9)

    def test_eps_at_least_omega_rejected(self):
        with pytest.raises(ValueError):
            boundary_probe("deg180", 1.0)

    def test_report_serialization(self):
        r = boundary_probe("quad", 0.25)
        d = r.to_dict()
        assert set(d) == {"scenario", "epsilon_deg", "loss_ideal", "loss_actual", "loss_csl", "ratio"}
        assert "quad" in r.to_json()
