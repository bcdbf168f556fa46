"""Circular smooth label codec.

Angles are discretized into T bins of width omega degrees and encoded as
a length-T soft vector: a window function (pulse, rectangular, triangle
or gaussian) of radius r bins, wrapped circularly around the ground-truth
bin. Decoding takes the argmax bin's midpoint, so the absolute round-trip
error is at most omega/2 and averages omega/4 for uniform angles.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass

import numpy as np

WINDOW_KINDS = ("pulse", "rectangular", "triangle", "gaussian")

_RANGES = {"range90": (-90.0, 90.0), "range180": (-90.0, 180.0)}  # (min, span)


@dataclass(frozen=True)
class CslCodecConfig:
    window_kind: str
    radius_r: float
    omega: float = 1.0
    angle_range: str = "range180"

    def __post_init__(self):
        if self.window_kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.window_kind!r}")
        if self.angle_range not in _RANGES:
            raise ValueError(f"unknown angle range {self.angle_range!r}")
        if not self.omega > 0:  # NaN fails the comparison too
            raise ValueError("omega must be positive")
        if not self.radius_r >= 0:
            raise ValueError("radius must be non-negative")
        span = _RANGES[self.angle_range][1]
        t = span / self.omega
        if abs(t - round(t)) > 1e-9:
            raise ValueError(f"omega {self.omega} does not divide the {span} degree range")
        if self.radius_r >= t / 2:
            raise ValueError(f"radius {self.radius_r} must be < T/2 = {t / 2}")

    @property
    def range_min(self):
        return _RANGES[self.angle_range][0]

    @property
    def range_span(self):
        return _RANGES[self.angle_range][1]

    @property
    def bin_count(self):
        return int(round(self.range_span / self.omega))

    def to_dict(self):
        return {**asdict(self), "bin_count": self.bin_count}


@dataclass(frozen=True)
class CslLabel:
    values: np.ndarray  # length T, each in [0, 1]
    gt_bin: int

    def to_dict(self):
        return {"gt_bin": self.gt_bin, "values": [float(v) for v in self.values]}

    def to_json(self):
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class QuantizationErrorStats:
    max_loss: float  # omega / 2
    expected_loss: float  # omega / 4


def _bins(thetas, cfg):
    """Bin indices (N,) of angles; names the first one outside the canonical range (NaN too)."""
    thetas = np.asarray(thetas, dtype=float)
    lo, hi = cfg.range_min, cfg.range_min + cfg.range_span
    outside = ~((thetas >= lo) & (thetas < hi))
    if outside.any():
        raise ValueError(f"angle {thetas[outside][0]} outside canonical range [{lo}, {hi})")
    return np.minimum(np.floor((thetas - lo) / cfg.omega).astype(int), cfg.bin_count - 1)


@functools.lru_cache(maxsize=8)
def _window(cfg):
    """Read-only (T + 1, T) view of the window row of bin 0 twice over, 2T floats: row k is it rotated to bin T - k."""
    return np.lib.stride_tricks.sliding_window_view(np.tile(window_value(cfg, np.arange(cfg.bin_count)), 2), cfg.bin_count)


def _window_rows(bins, cfg):
    """(N, T) labels: row n is the window row of bin 0 rotated to bins[n], gathered from the cached window."""
    return _window(cfg)[cfg.bin_count - bins]


def angle_to_bin(theta, cfg):
    """Map an angle inside the canonical range to its bin index."""
    return int(_bins([theta], cfg)[0])


def window_value(cfg, delta_bins):
    """Window function on the circular bin distance (a float for a scalar
    or 0-d delta_bins). Satisfies the periodicity, symmetry, maximum and
    monotonicity axioms; r = 0 degenerates every kind to the pulse window."""
    t, r = cfg.bin_count, cfg.radius_r
    d = np.asarray(delta_bins, dtype=float)
    if not np.isfinite(d).all():
        raise ValueError(f"non-finite delta_bins: {d[~np.isfinite(d)][0]}")
    d = np.abs(d) % t
    d = np.minimum(d, t - d)  # the distance to bin 0 on the ring of t bins
    if cfg.window_kind == "pulse" or r == 0:
        out = np.where(d <= 0.0, 1.0, 0.0)
    elif cfg.window_kind == "rectangular":
        out = np.where(d < r, 1.0, 0.0)
    elif cfg.window_kind == "triangle":
        out = np.maximum(0.0, 1.0 - d / r)
    else:  # gaussian, sigma = r/3, truncated outside the radius
        sigma = r / 3.0
        out = np.where(d < r, np.exp(-(d * d) / (2.0 * sigma**2)), 0.0)  # d * d: a numpy scalar's d**2 can round apart
    return out if out.ndim else float(out)


def encode(theta, cfg):
    """Encode an angle as a circular smooth label."""
    bins = _bins([theta], cfg)
    return CslLabel(values=_window_rows(bins, cfg)[0], gt_bin=int(bins[0]))


def decode(scores, cfg):
    """Decode a length-T score vector to the argmax bin's midpoint angle
    (ties to the smallest index). The result always lies inside the
    canonical range."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (cfg.bin_count,):
        raise ValueError(f"expected shape ({cfg.bin_count},), got {scores.shape}")
    return float(decode_batch(scores[None], cfg)[0])


def encode_batch(thetas, cfg):
    """Vectorized encode: (N,) angles -> (N, T) label matrix. Row n is
    the window row of bin 0 rotated to the angle's bin."""
    return _window_rows(_bins(thetas, cfg), cfg)


def decode_batch(labels, cfg):
    """Vectorized decode: (N, T) scores -> (N,) midpoint angles (ties to
    the smallest index)."""
    labels = np.asarray(labels, dtype=float)
    if labels.ndim != 2 or labels.shape[1] != cfg.bin_count:
        raise ValueError(f"expected shape (N, {cfg.bin_count}), got {labels.shape}")
    if not np.all(np.isfinite(labels)):
        raise ValueError("non-finite scores")
    b = np.argmax(labels, axis=1)
    return cfg.range_min + (b + 0.5) * cfg.omega


def quantization_error_stats(omega):
    """Closed-form discretization error: max omega/2, expected omega/4."""
    if not omega > 0:
        raise ValueError("omega must be positive")
    return QuantizationErrorStats(max_loss=omega / 2.0, expected_loss=omega / 4.0)


def monte_carlo_roundtrip_error(cfg, samples=1_000_000, seed=0):
    """Empirical encode/decode round-trip error over uniform angles.

    Returns (mean_abs_error, max_abs_error) in degrees; the mean converges
    to omega/4 and the max is bounded by omega/2.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    total = worst = 0.0
    for start in range(0, samples, 50_000):
        thetas = rng.uniform(cfg.range_min, cfg.range_min + cfg.range_span, size=min(50_000, samples - start))
        errs = np.abs(decode_batch(encode_batch(thetas, cfg), cfg) - thetas)
        total += errs.sum()
        worst = max(worst, errs.max())
    return total / samples, worst


def window_curve(cfg):
    """(bin, value) pairs of the label of an angle in the middle bin, T // 2."""
    return list(enumerate(_window_rows(np.array([cfg.bin_count // 2]), cfg)[0]))
