"""Regression target codec, detection losses and the boundary-discontinuity probe.

The probe quantifies why angle regression breaks at the range boundary:
the ideal (out-of-range) parameterization has near-zero loss while the
in-range target the regressor must hit carries a large angle jump (and,
in the 90-degree convention, a w/h exchange), whereas the circular label
distance between the two angles stays at one bin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .csl_codec import CslCodecConfig, encode
from .rotgeom import OrientedBox90, OrientedBox180, canonicalize90, canonicalize180, to_quad

DEG2RAD = math.pi / 180.0


@dataclass(frozen=True)
class RegressionTarget:
    tx: float
    ty: float
    tw: float
    th: float
    t_theta: float | None = None  # radians; present only on the regression branch

    def as_array(self):
        vals = [self.tx, self.ty, self.tw, self.th]
        if self.t_theta is not None:
            vals.append(self.t_theta)
        return np.asarray(vals, dtype=float)


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 1.0
    lambda2: float = 0.5
    lambda3: float = 1.0


def field_rows(boxes):
    """(N, 5) rows (cx, cy, w, h, theta) of OrientedBox90 / OrientedBox180
    records, the fields of the regression offsets; in an OrientedBox180
    the long side h plays the "height" role."""
    rows = []
    for box in boxes:
        if not isinstance(box, (OrientedBox90, OrientedBox180)):
            raise TypeError(f"unsupported box type {type(box)!r}")
        rows.append((box.cx, box.cy, box.w, box.h, box.theta))
    return np.asarray(rows, dtype=float).reshape(-1, 5)


def encode_regression(gt, anchor, include_theta=True):
    """Offsets from anchor to ground truth: center deltas normalized by
    anchor sides, log side ratios, and the angle difference in radians."""
    tx, ty, tw, th, t_theta = encode_regression_rows(field_rows([gt]), field_rows([anchor]))[0].tolist()
    return RegressionTarget(tx, ty, tw, th, t_theta if include_theta else None)


def encode_regression_rows(gt, anchor):
    """(K, 5) offsets (tx, ty, tw, th, t_theta) from K anchors to K
    ground truths, both given as field_rows."""
    d = gt - anchor
    return np.column_stack([d[:, 0] / anchor[:, 2], d[:, 1] / anchor[:, 3], np.log(gt[:, 2:4] / anchor[:, 2:4]), d[:, 4] * DEG2RAD])


def decode_regression(pred, anchor):
    """Exact inverse of encode_regression; returns the same box type as
    the anchor (re-canonicalized, identity for canonical round trips)."""
    xa, ya, wa, ha, tha = field_rows([anchor])[0].tolist()
    if pred.tw > 60 or pred.th > 60:
        raise ValueError("log side ratio too large, exp would overflow")
    w = wa * math.exp(pred.tw)
    h = ha * math.exp(pred.th)
    x = xa + pred.tx * wa
    y = ya + pred.ty * ha
    th = tha + (pred.t_theta or 0.0) / DEG2RAD
    if isinstance(anchor, OrientedBox90):
        return canonicalize90(x, y, w, h, th)
    return canonicalize180(x, y, h, w, th)


def _smooth_l1_terms(pred, target):
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    d = np.abs(pred - target)
    return np.where(d < 1.0, 0.5 * d * d, d - 0.5)


def smooth_l1(pred, target):
    """Sum of elementwise smooth L1 (transition at |d| = 1)."""
    return float(np.sum(_smooth_l1_terms(pred, target)))


def smooth_l1_grad(pred, target):
    """Gradient of smooth_l1 with respect to pred."""
    d = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    return np.clip(d, -1.0, 1.0)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _sigmoid_ce(logits, targets):
    # stable: max(z,0) - z*t + log(1 + exp(-|z|))
    z = logits
    return np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))


def _csl_row_losses(logits, targets, mode, alpha=0.25, gamma=2.0):
    """Per-row sums (N,) of the per-bin loss of (N, ...) logits against
    soft targets of the same shape; see csl_classification_loss."""
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if logits.shape != targets.shape:
        raise ValueError(f"shape mismatch: {logits.shape} vs {targets.shape}")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    ce = _sigmoid_ce(logits, targets)
    if mode == "focal":
        ce = alpha * np.abs(targets - _sigmoid(logits)) ** gamma * ce
    elif mode != "sigmoid_ce":
        raise ValueError(f"unknown mode {mode!r}")
    return ce.reshape(len(ce), -1).sum(axis=1)


def csl_classification_loss(logits, label, mode="sigmoid_ce", alpha=0.25, gamma=2.0):
    """Per-bin sigmoid cross-entropy against a soft circular label,
    summed over bins. Focal mode weights each bin's cross-entropy by
    alpha * |target - sigmoid(logit)|**gamma, so a bin whose prediction
    matches its soft target contributes nothing."""
    targets = label.values if hasattr(label, "values") else label
    return float(_csl_row_losses([logits], [targets], mode, alpha, gamma)[0])


def csl_classification_loss_grad(logits, label, mode="sigmoid_ce", alpha=0.25, gamma=2.0):
    """Analytic gradient with respect to the logits."""
    logits = np.asarray(logits, dtype=float)
    targets = label.values if hasattr(label, "values") else np.asarray(label, dtype=float)
    p = _sigmoid(logits)
    if mode == "sigmoid_ce":
        return p - targets
    if mode == "focal":
        ce = _sigmoid_ce(logits, targets)
        w = np.abs(targets - p)
        dw = np.sign(p - targets) * p * (1.0 - p)
        return alpha * (gamma * w ** (gamma - 1.0) * dw * ce + w**gamma * (p - targets))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class LossBatch:
    """Per-anchor inputs of the multi-task loss. Regression (and the
    circular-label term) contribute only where obj = 1."""

    obj: np.ndarray  # (N,) 1 foreground / 0 background
    reg_pred: np.ndarray  # (N, 5) regression branch, (N, 4) csl branch
    reg_target: np.ndarray
    cls_logits: np.ndarray  # (N, C)
    cls_target: np.ndarray  # (N, C)
    csl_logits: np.ndarray | None = None  # (N, T)
    csl_target: np.ndarray | None = None

    def __post_init__(self):
        self.obj = np.asarray(self.obj, dtype=float)
        if self.obj.ndim != 1 or len(self.obj) == 0:
            raise ValueError("empty batch")

    @property
    def count(self):
        return len(self.obj)


def multi_task_loss(batch, weights=LossWeights(), branch="csl", csl_mode="sigmoid_ce", cls_mode="sigmoid_ce"):
    """Weighted sum of regression, circular-label and classification
    terms, each averaged over the batch size N. The angle is carried by
    the regression vector (regression branch, 5 components) or by the
    circular-label term (csl branch, 4 components). Fields need N rows."""
    n = batch.count
    if branch not in ("regression", "csl"):
        raise ValueError(f"unknown branch {branch!r}")
    names = ["reg_pred", "reg_target", "cls_logits", "cls_target"]
    if branch == "csl":
        if batch.csl_logits is None or batch.csl_target is None:
            raise ValueError("csl branch requires csl logits and targets")
        names += ["csl_logits", "csl_target"]
    arrays = {name: np.asarray(getattr(batch, name), dtype=float) for name in names}
    for name, value in arrays.items():
        if value.shape[:1] != (n,):
            raise ValueError(f"{name} has shape {value.shape}, expected {n} rows")
    want = 5 if branch == "regression" else 4
    if arrays["reg_pred"].shape[1:] != (want,):
        raise ValueError(f"{branch} branch expects {want} regression components, got shape {arrays['reg_pred'].shape}")
    reg = batch.obj @ _smooth_l1_terms(arrays["reg_pred"], arrays["reg_target"]).sum(axis=1)
    csl = batch.obj @ _csl_row_losses(arrays["csl_logits"], arrays["csl_target"], csl_mode) if branch == "csl" else 0.0
    cls = _csl_row_losses(arrays["cls_logits"], arrays["cls_target"], cls_mode).sum()
    return float((weights.lambda1 * reg + weights.lambda2 * csl + weights.lambda3 * cls) / n)


@dataclass(frozen=True)
class DiscontinuityReport:
    scenario: str
    epsilon_deg: float
    loss_ideal: float
    loss_actual: float
    loss_csl: float

    @property
    def ratio(self):
        return self.loss_actual / self.loss_ideal if self.loss_ideal > 0 else math.inf

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "epsilon_deg": self.epsilon_deg,
            "loss_ideal": self.loss_ideal,
            "loss_actual": self.loss_actual,
            "loss_csl": self.loss_csl,
            "ratio": self.ratio,
        }

    def to_json(self):
        return json.dumps(self.to_dict())


def _best_cyclic_match_loss(a, b):
    """Smooth L1 over 8 coordinates under the best cyclic corner
    correspondence (the matching an order-free regressor would use)."""
    return min(smooth_l1(a, np.roll(b.reshape(4, 2), k, axis=0).ravel()) for k in range(4))


# angle-convention scenarios: box type, canonicalizer, upper range edge
_EDGE_PROBES = {
    "deg180": (OrientedBox180, canonicalize180, 90.0),
    "deg90": (OrientedBox90, canonicalize90, 0.0),
}


def boundary_probe(scenario, gt_angle_offset, csl_cfg=None):
    """Build an anchor just inside the angle-range boundary and a ground
    truth just beyond it, and compare three loss routes:

    * loss_ideal  — smooth L1 of the out-of-range parameterization an
      unconstrained regressor would use (tiny rotation);
    * loss_actual — smooth L1 of the canonical in-range target (angle
      wrap, plus the w/h exchange in the 90-degree convention, plus the
      corner-order jump in the quad form);
    * loss_csl    — L1 distance between the two angles' circular labels,
      which stays at the adjacent-bin distance.
    """
    eps = gt_angle_offset
    if csl_cfg is None:
        rng = "range90" if scenario == "deg90" else "range180"
        csl_cfg = CslCodecConfig(window_kind="gaussian", radius_r=6.0, omega=1.0, angle_range=rng)
    if not (0 < eps < csl_cfg.omega):
        raise ValueError(f"offset {eps} is not a boundary case (need 0 < eps < omega = {csl_cfg.omega})")

    if scenario in _EDGE_PROBES:
        box_type, canonicalize, edge = _EDGE_PROBES[scenario]
        anchor = box_type(0.0, 0.0, 4.0, 1.0, edge - eps / 2.0)
        ideal_theta = edge + eps / 2.0  # beyond the range
        gt = canonicalize(0.0, 0.0, 4.0, 1.0, ideal_theta)  # deg90: sides exchange
        ideal = RegressionTarget(0.0, 0.0, 0.0, 0.0, (ideal_theta - anchor.theta) * DEG2RAD)
        actual = encode_regression(gt, anchor)
        zero = np.zeros(5)
        loss_ideal = smooth_l1(zero, ideal.as_array())
        loss_actual = smooth_l1(zero, actual.as_array())
    elif scenario == "quad":
        anchor = canonicalize180(0.0, 0.0, 4.0, 1.0, -eps / 2.0)
        gt = canonicalize180(0.0, 0.0, 4.0, 1.0, eps / 2.0)
        a8 = to_quad(anchor).as_array().ravel()
        g8 = to_quad(gt).as_array().ravel()
        loss_actual = smooth_l1(a8, g8)  # corner-ordering-forced correspondence
        loss_ideal = _best_cyclic_match_loss(a8, g8)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")

    la = encode(anchor.theta, csl_cfg).values
    lg = encode(gt.theta, csl_cfg).values
    loss_csl = float(np.abs(la - lg).sum())
    return DiscontinuityReport(scenario, eps, loss_ideal, loss_actual, loss_csl)


def boundary_sweep(scenario, eps_values, csl_cfg=None):
    return [boundary_probe(scenario, e, csl_cfg=csl_cfg) for e in eps_values]
