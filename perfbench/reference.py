"""Independent reference formulas used to check the program's outputs.

Nothing here imports cslkit: every expected value is computed from the
construction of the inputs with plain numpy, so a wrong result in the
code under test cannot also be the expected value.
"""

from __future__ import annotations

import numpy as np

CSL_BINS = 180  # range180 convention, omega = 1 degree
CSL_RADIUS = 6.0  # gaussian window radius in bins


def box_corners(cx, cy, along, across, theta_deg):
    """(4, 2) corners of a rectangle whose side `along` lies at theta_deg,
    in cyclic order."""
    t = np.radians(theta_deg)
    u = np.array([np.cos(t), np.sin(t)]) * along / 2.0
    v = np.array([-np.sin(t), np.cos(t)]) * across / 2.0
    c = np.array([cx, cy])
    return np.array([c + u + v, c - u + v, c - u - v, c + u - v])


def aabb(corners):
    """(xmin, ymin, xmax, ymax) of a (4, 2) corner array."""
    return np.concatenate([corners.min(axis=0), corners.max(axis=0)])


def aligned_iou_matrix(a, b):
    """IoU of axis-aligned boxes, (N, 4) x (M, 4) -> (N, M)."""
    ix = np.clip(np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0]), 0.0, None)
    iy = np.clip(np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1]), 0.0, None)
    inter = ix * iy
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def max_iou_assignment(iou, fg_iou=0.5, bg_iou=0.4):
    """Labels (1 fg, 0 bg, -1 ignore), matched gt and max IoU of the
    max-IoU rule with every gt forced onto its best anchor."""
    n = iou.shape[0]
    matched = np.argmax(iou, axis=1)
    max_iou = iou[np.arange(n), matched]
    labels = np.where(max_iou >= fg_iou, 1, np.where(max_iou < bg_iou, 0, -1))
    for j in range(iou.shape[1]):
        best = int(np.argmax(iou[:, j]))
        if labels[best] != 1 or iou[best, j] > iou[best, matched[best]]:
            labels[best] = 1
            matched[best] = j
            max_iou[best] = iou[best, j]
    return labels, np.where(labels == 1, matched, -1), max_iou


def ambiguous_rows(iou, fg_iou=0.5, bg_iou=0.4, tol=1e-9):
    """Rows whose label or match could flip under rounding: a max IoU
    within tol of a threshold, or two gts within tol of the maximum."""
    top = np.sort(iou, axis=1)[:, ::-1]
    ambiguous = (np.abs(top[:, 0] - fg_iou) < tol) | (np.abs(top[:, 0] - bg_iou) < tol)
    if iou.shape[1] > 1:
        ambiguous |= (top[:, 0] > 0) & (top[:, 0] - top[:, 1] < tol)
    return ambiguous


def csl_gaussian_rows(thetas):
    """Circular smooth labels (gaussian, sigma = r/3, zero at distance >= r)
    of long-edge angles in [-90, 90), one row per angle."""
    thetas = np.asarray(thetas, dtype=float)
    gt_bin = np.minimum(np.floor(thetas + 90.0).astype(int), CSL_BINS - 1)
    d = np.abs(np.arange(CSL_BINS)[None, :] - gt_bin[:, None]) % CSL_BINS
    d = np.minimum(d, CSL_BINS - d).astype(float)
    sigma = CSL_RADIUS / 3.0
    return np.where(d < CSL_RADIUS, np.exp(-(d**2) / (2.0 * sigma**2)), 0.0)


def csl_decode(logits):
    """Bin-midpoint angle of each row's argmax."""
    return -90.0 + np.argmax(logits, axis=1) + 0.5


def regression_targets(gt, anchor):
    """(tx, ty, tw, th) from (N, 5) anchors to (N, 5) gts, both as
    (cx, cy, long side, short side, theta)."""
    return np.stack(
        [
            (gt[:, 0] - anchor[:, 0]) / anchor[:, 3],
            (gt[:, 1] - anchor[:, 1]) / anchor[:, 2],
            np.log(gt[:, 3] / anchor[:, 3]),
            np.log(gt[:, 2] / anchor[:, 2]),
        ],
        axis=1,
    )


def _sigmoid_ce(z, t):
    return np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))


def csl_multi_task_loss(obj, reg_pred, reg_target, cls_logits, cls_target, csl_logits, csl_target):
    """Csl-branch detection loss with weights (1, 0.5, 1), averaged over N."""
    d = np.abs(reg_pred - reg_target)
    reg = np.sum(obj[:, None] * np.where(d < 1.0, 0.5 * d * d, d - 0.5))
    csl = np.sum(obj[:, None] * _sigmoid_ce(csl_logits, csl_target))
    cls = np.sum(_sigmoid_ce(cls_logits, cls_target))
    return (reg + 0.5 * csl + cls) / len(obj)


def voc_ap(scores, is_tp, n_pos):
    """(VOC07 11-point AP, VOC12 area AP) of one class from detections
    already flagged true or false positive (ignored ones left out)."""
    scores = np.asarray(scores, dtype=float)
    if len(scores) == 0 or n_pos == 0:
        return 0.0, 0.0
    tp = np.asarray(is_tp, dtype=float)[np.argsort(-scores, kind="stable")]
    tp_c = np.cumsum(tp)
    recall = tp_c / n_pos
    precision = tp_c / np.arange(1, len(tp) + 1)
    # the 1e-12 slack keeps recall 0.3 at the 0.30000000000000004 point
    ap07 = np.mean([precision[recall >= t - 1e-12].max(initial=0.0) for t in np.linspace(0.0, 1.0, 11)])
    r = np.concatenate(([0.0], recall, [1.0]))
    p = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    step = np.flatnonzero(r[1:] != r[:-1])
    return float(ap07), float(np.sum((r[step + 1] - r[step]) * p[step + 1]))
