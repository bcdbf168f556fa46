"""Anchor-grid generation and max-IoU ground-truth assignment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csl_codec import encode
from .losses import encode_regression
from .rotgeom import aligned_bbox, aligned_iou, box_rows, canonicalize180, rotated_iou_matrix

DEFAULT_RATIOS = (1.0, 1 / 2, 2.0, 1 / 4, 4.0, 1 / 6, 6.0)
DEFAULT_ANGLES = (-90.0, -75.0, -60.0, -45.0, -30.0, -15.0)


@dataclass(frozen=True)
class AnchorGridSpec:
    image_size: int
    strides: tuple = (8,)
    base_scale: float = 4.0
    aspect_ratios: tuple = DEFAULT_RATIOS
    angles: tuple = DEFAULT_ANGLES  # used in rotated mode only

    def __post_init__(self):
        if any(r <= 0 for r in self.aspect_ratios):
            raise ValueError("aspect ratios must be positive")
        for s in self.strides:
            if self.image_size % s != 0:
                raise ValueError(f"stride {s} does not divide image size {self.image_size}")


@dataclass(frozen=True)
class AssignmentConfig:
    fg_iou: float = 0.5
    bg_iou: float = 0.4
    anchor_mode: str = "horizontal"

    def __post_init__(self):
        if self.bg_iou > self.fg_iou:
            raise ValueError("bg_iou must not exceed fg_iou")
        if self.anchor_mode not in ("horizontal", "rotated"):
            raise ValueError(f"unknown anchor mode {self.anchor_mode!r}")


def generate_anchors(spec, mode="horizontal"):
    """One anchor per (location, aspect ratio) per pyramid level; the
    anchor area at a level is (base_scale * stride)^2 for every ratio.
    Rotated mode additionally sweeps the configured angle set."""
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
                        anchors.append(canonicalize180(cx, cy, a, b, ang))
    return anchors


@dataclass
class AssignmentResult:
    """Per-anchor targets: label 1 = foreground, 0 = background,
    -1 = ignore; foreground anchors carry their matched gt index,
    regression target and circular angle label."""

    labels: np.ndarray  # (N,) int
    matched_gt: np.ndarray  # (N,) int, -1 where unmatched
    max_iou: np.ndarray  # (N,)
    reg_targets: dict = field(default_factory=dict)  # anchor idx -> RegressionTarget
    csl_labels: dict = field(default_factory=dict)  # anchor idx -> CslLabel
    class_ids: dict = field(default_factory=dict)  # anchor idx -> class id

    def to_dict(self):
        return {
            "labels": self.labels.tolist(),
            "matched_gt": self.matched_gt.tolist(),
            "max_iou": [float(v) for v in self.max_iou],
            "foreground": sorted(int(i) for i in self.reg_targets),
        }


def _iou_matrix(anchors, gts, mode):
    if mode == "rotated":
        return rotated_iou_matrix(box_rows(anchors), box_rows(gts))
    # horizontal anchors are matched against the gt's axis-aligned
    # enclosing rectangle
    n, m = len(anchors), len(gts)
    out = np.zeros((n, m))
    a_bb = [aligned_bbox(a) for a in anchors]
    g_bb = [aligned_bbox(g) for g in gts]
    for i in range(n):
        for j in range(m):
            out[i, j] = aligned_iou(a_bb[i], g_bb[j])
    return out


def assign_targets(anchors, gts, cfg, csl_cfg):
    """Max-IoU assignment: foreground above fg_iou, background below
    bg_iou, ignored between; each gt is additionally forced onto its
    best anchor. Foreground anchors get regression and circular-label
    targets against their matched gt."""
    if not anchors:
        raise ValueError("empty anchor list")
    gt_boxes = [g[0] for g in gts]
    gt_classes = [g[1] for g in gts]
    n, m = len(anchors), len(gt_boxes)
    labels = np.zeros(n, dtype=int)
    matched = np.full(n, -1, dtype=int)
    max_iou = np.zeros(n)
    if m:
        iou = _iou_matrix(anchors, gt_boxes, cfg.anchor_mode)
        matched = np.argmax(iou, axis=1)  # ties -> first gt index
        max_iou = iou[np.arange(n), matched]
        labels = np.where(max_iou >= cfg.fg_iou, 1, np.where(max_iou < cfg.bg_iou, 0, -1))
        # force every gt onto its best anchor
        for j in range(m):
            best = int(np.argmax(iou[:, j]))
            if labels[best] != 1 or iou[best, j] > iou[best, matched[best]]:
                labels[best] = 1
                matched[best] = j
                max_iou[best] = iou[best, j]
        matched = np.where(labels == 1, matched, -1)
    result = AssignmentResult(labels=labels, matched_gt=matched, max_iou=max_iou)
    for i in np.flatnonzero(labels == 1):
        g = gt_boxes[matched[i]]
        result.reg_targets[int(i)] = encode_regression(g, anchors[i])
        result.csl_labels[int(i)] = encode(g.theta, csl_cfg)
        result.class_ids[int(i)] = gt_classes[matched[i]]
    return result
