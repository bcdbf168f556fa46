"""Anchor-grid generation and max-IoU ground-truth assignment."""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .csl_codec import CslLabel, _bins, _window_rows
from .losses import RegressionTarget, encode_regression_rows
from .rotgeom import (OrientedBox180, _aligned_bboxes, _aligned_iou, aligned_bboxes, box_rows, canonicalize180_rows,
                      rotated_iou_matrix)

DEFAULT_RATIOS = (1.0, 1 / 2, 2.0, 1 / 4, 4.0, 1 / 6, 6.0)
DEFAULT_ANGLES = (-90.0, -75.0, -60.0, -45.0, -30.0, -15.0)


@dataclass(frozen=True)
class AnchorGridSpec:
    image_size: int
    strides: tuple = (8,)
    base_scale: float = 4.0
    aspect_ratios: tuple = DEFAULT_RATIOS
    angles: tuple = DEFAULT_ANGLES  # used in rotated mode only

    def __post_init__(self):  # "not x > 0" rejects NaN as well
        if not self.image_size > 0:
            raise ValueError(f"image size {self.image_size} is not positive")
        if not self.base_scale > 0:
            raise ValueError(f"base scale {self.base_scale} is not positive")
        if not all(r > 0 for r in self.aspect_ratios):
            raise ValueError("aspect ratios must be positive")
        for name in ("base_scale", "aspect_ratios", "angles"):  # inf passes "> 0"
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for s in self.strides:
            if not s > 0:
                raise ValueError(f"stride {s} is not positive")
            if self.image_size % s != 0:
                raise ValueError(f"stride {s} does not divide image size {self.image_size}")


@dataclass(frozen=True)
class AssignmentConfig:
    fg_iou: float = 0.5
    bg_iou: float = 0.4
    anchor_mode: str = "horizontal"

    def __post_init__(self):
        for name in ("fg_iou", "bg_iou"):
            if not 0 <= getattr(self, name) <= 1:  # NaN fails the comparison too
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if self.bg_iou > self.fg_iou:
            raise ValueError("bg_iou must not exceed fg_iou")
        if self.anchor_mode not in ("horizontal", "rotated"):
            raise ValueError(f"unknown anchor mode {self.anchor_mode!r}")


@dataclass(frozen=True, eq=False)
class AnchorSet(Sequence):
    """A read-only sequence of OrientedBox180 anchors held as their (N, 5)
    long-edge `rows` and (N, 4) axis-aligned `bboxes`, so an anchor grid
    converts to arrays once, not once per image. A record is built only
    when read: an index gives one, a slice a tuple of them."""

    rows: np.ndarray
    bboxes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)  # a private copy, frozen below
        for name, array in (("rows", rows), ("bboxes", aligned_bboxes(rows))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        rows = self.rows[index].tolist()
        return tuple(OrientedBox180(*row) for row in rows) if isinstance(index, slice) else OrientedBox180(*rows)

    def __reduce__(self):  # pickle and copy rebuild the arrays from the rows
        return type(self), (self.rows,)


def generate_anchors(spec, mode="horizontal"):
    """One anchor per (location, aspect ratio) per pyramid level; the
    anchor area at a level is (base_scale * stride)^2 for every ratio.
    Rotated mode additionally sweeps the configured angle set. Returns
    an AnchorSet of the grid's long-edge rows: it builds no record until
    one is read, and assign_targets reads its rows and bboxes as they are."""
    if mode not in ("horizontal", "rotated"):
        raise ValueError(f"unknown anchor mode {mode!r}")
    angles = spec.angles if mode == "rotated" else (0.0,)
    rows = [np.empty((0, 5))]  # no strides, no anchors
    for stride in spec.strides:
        size = spec.base_scale * stride
        centers = (np.arange(spec.image_size // stride) + 0.5) * stride
        # anchor order: y, then x, then ratio, then angle
        cy, cx, root, angle = np.meshgrid(centers, centers, np.sqrt(spec.aspect_ratios), angles, indexing="ij")
        rows.append(np.stack([cx, cy, size * root, size / root, angle], axis=-1).reshape(-1, 5))
    return AnchorSet(canonicalize180_rows(np.concatenate(rows)))


@dataclass
class AssignmentResult:
    """Per-anchor targets: label 1 = foreground, 0 = background,
    -1 = ignore. The foreground anchors, in index order, key class_ids
    and are the rows of offsets, bins and csl_values; the reg_targets
    and csl_labels dicts are built from those rows on first read."""

    labels: np.ndarray  # (N,) int
    matched_gt: np.ndarray  # (N,) int, -1 where unmatched
    max_iou: np.ndarray  # (N,)
    class_ids: dict  # anchor idx -> class id
    offsets: np.ndarray  # (F, 5) regression offsets
    bins: np.ndarray  # (F,) int, the matched gt's angle bin
    csl_values: np.ndarray  # (F, T) circular labels

    @functools.cached_property
    def reg_targets(self):  # anchor idx -> RegressionTarget
        return {i: RegressionTarget(*offset) for i, offset in zip(self.class_ids, self.offsets.tolist())}

    @functools.cached_property
    def csl_labels(self):  # anchor idx -> CslLabel
        return dict(zip(self.class_ids, map(CslLabel, self.csl_values, self.bins.tolist())))

    def to_dict(self):
        return {
            "labels": self.labels.tolist(),
            "matched_gt": self.matched_gt.tolist(),
            "max_iou": self.max_iou.tolist(),
            "foreground": list(self.class_ids),
        }


def assign_targets(anchors, gts, cfg, csl_cfg):
    """Max-IoU assignment: foreground above fg_iou, background below
    bg_iou, ignored between. An AnchorSet's rows and bboxes are read as
    they are, and any other sequence of anchor records becomes an
    AnchorSet of its long-edge rows; gts become long-edge rows once, so
    an OrientedBox90 gt and its OrientedBox180 twin get the same
    targets; horizontal anchors match each gt's enclosing rectangle.
    Each gt, highest best IoU first (ties in input order), is forced onto
    a best anchor (within 1e-12 relative) that it may take, one not yet
    foreground or matched at a lower IoU: the first that no earlier gt
    was forced onto, else the first. Foreground anchors get regression
    and circular-label targets against their matched gt."""
    if not anchors:
        raise ValueError("empty anchor list")
    anchors = anchors if isinstance(anchors, AnchorSet) else AnchorSet(box_rows(anchors))
    rows, bboxes = anchors.rows, anchors.bboxes
    gt_rows = box_rows([g[0] for g in gts])
    gt_classes = [g[1] for g in gts]
    n, m = len(rows), len(gt_rows)
    labels, matched, max_iou = np.zeros(n, dtype=int), np.full(n, -1), np.zeros(n)
    if m:  # the IoU gt-major, (M, N) and contiguous; a rotated pair keeps its anchor as the kernel's frame
        iou = rotated_iou_matrix(rows, gt_rows).T if cfg.anchor_mode == "rotated" else _aligned_iou(_aligned_bboxes(gt_rows), bboxes)
        matched = (iou == iou.max(axis=0)).argmax(axis=0)  # ties -> first gt; its axis-0 argmax copies bools, not IoUs
        max_iou = iou[matched, np.arange(n)]
        labels = np.where(max_iou >= cfg.fg_iou, 1, np.where(max_iou < cfg.bg_iou, 0, -1))
        best = iou.max(axis=1)
        # each gt's best anchors (within 1e-12 relative) less the foreground ones, whose IoU is already their best:
        # no gt may take one of those unless it was forced; gt by gt, in anchor order
        gt, anchor = np.divmod(np.flatnonzero(iou >= (best * (1 - 1e-12))[:, None]), n)
        may = np.flatnonzero(labels[anchor] != 1)
        gt, anchor = gt[may], anchor[may]
        bounds = np.searchsorted(gt, np.arange(m + 1)).tolist()
        forced = np.zeros(n, dtype=bool)
        for j in np.argsort(-best, kind="stable").tolist():
            span = range(bounds[j], bounds[j + 1])
            # the first free one, found past at most m - 1 forced ones; else the first forced at a lower IoU
            k = next((k for k in span if not forced[anchor[k]]), None)
            if k is None:
                k = next((k for k in span if iou[j, anchor[k]] > max_iou[anchor[k]]), None)
            if k is not None:
                i = anchor[k]
                labels[i], matched[i], max_iou[i], forced[i] = 1, j, iou[j, i], True
        matched = np.where(labels == 1, matched, -1)
    fg = np.flatnonzero(labels == 1)
    fg_gts = matched[fg]
    offsets = encode_regression_rows(gt_rows[fg_gts], rows[fg])
    used = np.unique(fg_gts)  # the matched gts, each one's bin computed once
    bins = _bins(gt_rows[used, 4], csl_cfg)[np.searchsorted(used, fg_gts)]
    class_ids = {i: gt_classes[j] for i, j in zip(fg.tolist(), fg_gts.tolist())}
    return AssignmentResult(labels=labels, matched_gt=matched, max_iou=max_iou, class_ids=class_ids, offsets=offsets,
                            bins=bins, csl_values=_window_rows(bins, csl_cfg))
