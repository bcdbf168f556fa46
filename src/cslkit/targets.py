"""Anchor-grid generation and max-IoU ground-truth assignment."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csl_codec import CslLabel, angle_to_bin, encode_batch
from .losses import RegressionTarget, encode_regression_rows, field_rows
from .rotgeom import OrientedBox180, aligned_bboxes, aligned_iou_matrix, box_rows, canonicalize180_rows, rotated_iou_matrix

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
    angles = spec.angles if mode == "rotated" else (0.0,)
    rows = [np.empty((0, 5))]  # no strides, no anchors
    for stride in spec.strides:
        size = spec.base_scale * stride
        centers = (np.arange(spec.image_size // stride) + 0.5) * stride
        # anchor order: y, then x, then ratio, then angle
        cy, cx, root, angle = np.meshgrid(centers, centers, np.sqrt(spec.aspect_ratios), angles, indexing="ij")
        rows.append(np.stack([cx, cy, size * root, size / root, angle], axis=-1).reshape(-1, 5))
    return [OrientedBox180(*row) for row in canonicalize180_rows(np.concatenate(rows)).tolist()]


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
    return aligned_iou_matrix(aligned_bboxes(box_rows(anchors)), aligned_bboxes(box_rows(gts)))


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
    fg = np.flatnonzero(labels == 1)
    fg_gts = matched[fg]
    gt_fields = field_rows(gt_boxes)
    gt_bins = {j: angle_to_bin(gt_fields[j, 4], csl_cfg) for j in np.unique(fg_gts).tolist()}
    offsets = encode_regression_rows(gt_fields[fg_gts], field_rows([anchors[i] for i in fg]))
    csl_values = encode_batch(gt_fields[fg_gts, 4], csl_cfg)
    for i, j, offset, values in zip(fg.tolist(), fg_gts.tolist(), offsets.tolist(), csl_values):
        result.reg_targets[i] = RegressionTarget(*offset)
        result.csl_labels[i] = CslLabel(values=values, gt_bin=gt_bins[j])
        result.class_ids[i] = gt_classes[j]
    return result
