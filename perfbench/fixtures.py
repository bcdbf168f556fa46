"""Seeded input generators for the benchmark workloads.

Every generator draws from the numpy Generator it is given and formats
numbers with fixed precision, so one seed always yields the same bytes.
Each also returns what the inputs imply by construction (flags, kept
sets, labels, losses); the program never sees those.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference as ref

CLASSES = (
    "plane", "baseball-diamond", "bridge", "ground-track-field", "small-vehicle",
    "large-vehicle", "ship", "tennis-court", "basketball-court", "storage-tank",
    "soccer-ball-field", "roundabout", "harbor", "swimming-pool", "helicopter",
)
TILE = 1024  # px, the DOTA tile size
NMS_IOU_THRESH = 0.1
EVAL_IOU_THRESH = 0.5

# anchor grids of the two training workloads, passed to AnchorGridSpec
# explicitly so the reference below does not depend on library defaults
RATIOS = (1.0, 1 / 2, 2.0, 1 / 4, 4.0, 1 / 6, 6.0)
ANGLES = (-90.0, -75.0, -60.0, -45.0, -30.0, -15.0)
BASE_SCALE = 4.0
HBB_GRID = {"image_size": 64, "strides": (8, 16), "mode": "horizontal", "gts": 4}
RBB_GRID = {"image_size": 32, "strides": (16,), "mode": "rotated", "gts": 2}


def _distinct_scores(rng, n):
    """n distinct scores in (0, 1) with six decimals, exact in text."""
    return (rng.choice(999_998, size=n, replace=False) + 1) / 1e6


def _disjoint(boxes_a, boxes_b):
    """True when no AABB of boxes_a meets one of boxes_b."""
    if len(boxes_a) == 0 or len(boxes_b) == 0:
        return True
    return not np.any(ref.aligned_iou_matrix(np.asarray(boxes_a), np.asarray(boxes_b)) > 0)


def _random_box(rng, center, long_range):
    long = rng.uniform(*long_range)
    short = long / rng.uniform(1.5, 4.0)
    theta = round(rng.uniform(-90.0, 90.0), 4)
    if theta >= 90.0:  # rounding may reach the open end of [-90, 90)
        theta -= 180.0
    return np.round([center[0], center[1], long, short, theta], 4)


def _along(box, delta):
    """Box shifted by delta along its long side."""
    t = math.radians(box[4])
    return np.round([box[0] + delta * math.cos(t), box[1] + delta * math.sin(t), *box[2:]], 4)


def _aabb(box):
    return ref.aabb(ref.box_corners(*box))


def _det_line(image_id, cls, score, box):
    return f"{image_id} {CLASSES[cls]} {score:.6f} " + " ".join(f"{v:.4f}" for v in box)


def eval_shard(rng, workdir, n_images=2, n_objects=40, n_fp=20):
    """DOTA-layout annotation directory plus a detection file.

    Objects and false positives sit in distinct cells of an 8x8 grid on a
    1024 px tile, so every detection overlaps at most its own object. A
    true positive is its object shifted along the long side by delta,
    which gives IoU (h - delta) / (h + delta) in closed form; the shift is
    drawn so that IoU is either clearly above or clearly below
    EVAL_IOU_THRESH.
    Returns the paths and the per-class AP07/AP12 they imply.
    """
    workdir = Path(workdir)
    ann_dir = workdir / "ann"
    ann_dir.mkdir(parents=True)
    cell = TILE // 8
    dets = []  # (image, class, box, gt key or None, above threshold)
    difficult = {}
    for img in range(n_images):
        image_id = f"P{img:04d}"
        cells = rng.permutation(64)
        classes = rng.permutation(np.resize(np.arange(len(CLASSES)), n_objects))
        lines = ["imagesource:GoogleEarth", "gsd:0.146343590398"]
        gt_aabbs = {}
        for k in range(n_objects):
            center = (np.array(divmod(cells[k], 8)) + 0.5) * cell + rng.uniform(-8, 8, 2)
            box = _random_box(rng, center, (20.0, 48.0))
            hard = bool(rng.random() < 0.1)
            key = (image_id, k)
            difficult[key] = (int(classes[k]), hard)
            corners = np.roll(ref.box_corners(*box), rng.integers(4), axis=0)
            lines.append(" ".join(f"{v:.4f}" for v in corners.ravel()) + f" {CLASSES[classes[k]]} {int(hard)}")
            gt_aabbs.setdefault(int(classes[k]), []).append((key, _aabb(box)))
            for _ in range(rng.choice(3, p=(0.3, 0.6, 0.1))):
                above = bool(rng.random() < 0.85)
                iou = rng.uniform(0.55, 0.95) if above else rng.uniform(0.2, 0.45)
                delta = box[2] * (1.0 - iou) / (1.0 + iou) * rng.choice((-1.0, 1.0))
                dets.append((image_id, int(classes[k]), _along(box, delta), key, above))
        for k in range(n_objects, n_objects + n_fp):
            center = (np.array(divmod(cells[k], 8)) + 0.5) * cell + rng.uniform(-8, 8, 2)
            dets.append((image_id, int(rng.integers(len(CLASSES))), _random_box(rng, center, (20.0, 48.0)), None, False))
        (ann_dir / f"{image_id}.txt").write_text("\n".join(lines) + "\n")
        for _, cls, box, own, _ in (d for d in dets if d[0] == image_id):
            foreign = [a for key, a in gt_aabbs.get(cls, []) if key != own]
            if not _disjoint([_aabb(box)], foreign):
                raise RuntimeError("fixture bug: a detection overlaps a foreign ground truth")
    scores = _distinct_scores(rng, len(dets))
    order = rng.permutation(len(dets))
    (workdir / "dets.txt").write_text(
        "\n".join(_det_line(dets[i][0], dets[i][1], scores[i], dets[i][2]) for i in order) + "\n"
    )

    # flags by construction: above-threshold shifts of a difficult object
    # are ignored; of the others the highest score per object is the true
    # positive and later ones are duplicates
    per_class = {c: ([], []) for c in range(len(CLASSES))}
    taken = set()
    for i in np.argsort(-scores):
        image_id, cls, _, key, above = dets[i]
        if above and difficult[key][1]:
            continue
        tp = above and key not in taken
        if tp:
            taken.add(key)
        per_class[cls][0].append(scores[i])
        per_class[cls][1].append(tp)
    n_pos = {c: sum(1 for cls, hard in difficult.values() if cls == c and not hard) for c in per_class}
    ap = {CLASSES[c]: ref.voc_ap(s, f, n_pos[c]) for c, (s, f) in per_class.items()}
    return {
        "ann_dir": str(ann_dir),
        "dets": str(workdir / "dets.txt"),
        "items": len(dets),
        "ap07": {c: v[0] for c, v in ap.items()},
        "ap12": {c: v[1] for c, v in ap.items()},
        "map07": float(np.mean([v[0] for v in ap.values()])),
        "map12": float(np.mean([v[1] for v in ap.values()])),
    }


def nms_file(rng, workdir, n_images=3, n_clusters=12, per_cluster=8):
    """Raw detector-style output: separated clusters of jittered boxes.

    All boxes of a cluster share one angle, so in that angle's frame they
    are axis-aligned and every pairwise IoU has a closed form; the
    generator asserts each is far above the NMS threshold. Clusters sit
    in distinct cells of a 4x4 grid and their AABBs are disjoint, so the
    kept set is exactly the top-scoring box of each cluster.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cell = TILE // 4
    dets = []  # (image, class, box, cluster)
    cluster_aabbs = []
    for img in range(n_images):
        image_id = f"P{img:04d}"
        cells = rng.permutation(16)[:n_clusters]
        # two-thirds as many classes as clusters: the same mix of one- and
        # two-cluster groups in every image, drawn from random classes
        classes = np.resize(rng.choice(len(CLASSES), size=2 * n_clusters // 3, replace=False), n_clusters)
        for k, (c, cls) in enumerate(zip(cells, rng.permutation(classes))):
            cls = int(cls)
            center = (np.array(divmod(c, 4)) + 0.5) * cell + rng.uniform(-20, 20, 2)
            base = _random_box(rng, center, (30.0, 60.0))
            t = math.radians(base[4])
            u, v = np.array([math.cos(t), math.sin(t)]), np.array([-math.sin(t), math.cos(t)])
            for _ in range(per_cluster):
                da, db = rng.uniform(-0.08, 0.08, 2) * base[2:4]
                sides = np.round(base[2:4] * rng.uniform(0.92, 1.08, 2), 4)
                xy = np.round(base[:2] + da * u + db * v, 4)
                dets.append((image_id, cls, np.array([xy[0], xy[1], sides[0], sides[1], base[4]]), (img, k)))
            cluster = np.array([d[2] for d in dets[-per_cluster:]])
            frame = _frame_boxes(cluster, base[4])
            if ref.aligned_iou_matrix(frame, frame).min() < NMS_IOU_THRESH + 0.3:
                raise RuntimeError("fixture bug: a cluster pair is too close to the NMS threshold")
            cluster_aabbs.append((img, np.array([_aabb(box) for box in cluster])))
    for i, (img_a, a) in enumerate(cluster_aabbs):
        for img_b, b in cluster_aabbs[i + 1:]:
            if img_a == img_b and not _disjoint(a, b):
                raise RuntimeError("fixture bug: two clusters overlap")
    scores = _distinct_scores(rng, len(dets))
    order = rng.permutation(len(dets))
    (workdir / "dets.txt").write_text(
        "\n".join(_det_line(dets[i][0], dets[i][1], scores[i], dets[i][2]) for i in order) + "\n"
    )
    best = {}
    for i, d in enumerate(dets):
        if d[3] not in best or scores[i] > scores[best[d[3]]]:
            best[d[3]] = i
    kept = sorted((dets[i][0], dets[i][1], float(f"{scores[i]:.6f}"), tuple(dets[i][2])) for i in best.values())
    return {"dets": str(workdir / "dets.txt"), "items": len(dets), "kept": kept}


def anchor_geometry(grid):
    """(N, 5) anchors as (cx, cy, a, b, angle), side a at the angle, in the
    order the library generates them: stride, row, column, ratio, angle."""
    angles = ANGLES if grid["mode"] == "rotated" else (0.0,)
    rows = []
    for stride in grid["strides"]:
        size = BASE_SCALE * stride
        n = grid["image_size"] // stride
        for iy in range(n):
            for ix in range(n):
                for r in RATIOS:
                    for ang in angles:
                        rows.append(((ix + 0.5) * stride, (iy + 0.5) * stride, size * math.sqrt(r), size / math.sqrt(r), ang))
    return np.array(rows)


def long_edge(geom):
    """(cx, cy, a, b, angle) -> (cx, cy, long, short, theta), theta of the
    long side in [-90, 90) and a square's theta in [-90, 0)."""
    cx, cy, a, b, ang = geom.T
    swap = b > a
    theta = (ang + np.where(swap, 90.0, 0.0) + 90.0) % 180.0 - 90.0
    long, short = np.where(swap, b, a), np.where(swap, a, b)
    theta = np.where((long == short) & (theta >= 0.0), theta - 90.0, theta)
    return np.stack([cx, cy, long, short, theta], axis=1)


def _frame_boxes(geom, angle):
    """Axis-aligned (lo, lo, hi, hi) boxes, in the frame rotated by
    `angle`, of (cx, cy, along, across, ...) rectangles lying at it."""
    t = math.radians(angle)
    along = geom[:, 0] * math.cos(t) + geom[:, 1] * math.sin(t)
    across = -geom[:, 0] * math.sin(t) + geom[:, 1] * math.cos(t)
    return np.stack([along - geom[:, 2] / 2, across - geom[:, 3] / 2, along + geom[:, 2] / 2, across + geom[:, 3] / 2], 1)


def train_image(rng, grid, anchors):
    """Ground truths and detector outputs for one training image.

    Horizontal anchors: random gts, and the reference labels of every
    anchor come from closed-form axis-aligned IoU against the gts' AABBs.
    Rotated anchors: the gts are exact copies of anchors that share one
    sweep angle, so each gt's best anchor is its copy, and every anchor
    at that angle is axis-aligned with all gts in the angle's frame, which
    gives its reference label in closed form.
    """
    n = len(anchors)
    if grid["mode"] == "horizontal":
        size = grid["image_size"]
        # small objects, which no anchor covers at the fg threshold, take
        # the forced-match path; the others match by threshold
        gt = np.array([
            _random_box(rng, rng.uniform(12, size - 12, 2), (6.0, 14.0) if k % 2 else (16.0, 48.0))
            for k in range(grid["gts"])
        ])
        rows = np.arange(n)
        iou = ref.aligned_iou_matrix(_frame_boxes(anchors, 0.0), np.array([_aabb(g) for g in gt]))
    else:
        angle = ANGLES[rng.integers(len(ANGLES))]
        candidates = np.flatnonzero((anchors[:, 4] == angle) & (anchors[:, 2] != anchors[:, 3]))
        copied = rng.choice(candidates, size=grid["gts"], replace=False)
        gt = long_edge(anchors[copied])
        rows = np.flatnonzero(anchors[:, 4] == angle)
        iou = ref.aligned_iou_matrix(_frame_boxes(anchors[rows], angle), _frame_boxes(anchors[copied], angle))
    labels, matched, max_iou = ref.max_iou_assignment(iou)
    # each gt is forced onto one of its best anchors; a small object inside
    # several equal anchors ties, and any of them may be chosen
    best = [rows[np.flatnonzero(iou[:, j] >= iou[:, j].max() - 1e-9)] for j in range(len(gt))]
    tied = np.concatenate([b for b in best if len(b) > 1] + [np.empty(0, dtype=int)])
    return {
        "gt": gt,
        "gt_classes": rng.integers(len(CLASSES), size=len(gt)),
        "rows": rows,
        "best": best,
        "labels": labels,
        "matched": matched,
        "max_iou": max_iou,
        "ambiguous": ref.ambiguous_rows(iou) | np.isin(rows, tied),
        "reg_pred": rng.normal(0.0, 0.5, size=(n, 4)),
        "cls_logits": rng.normal(size=(n, len(CLASSES))),
        "csl_logits": rng.normal(size=(n, ref.CSL_BINS)),
        "items": 1,
    }
