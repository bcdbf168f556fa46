"""The four benchmark workloads: seeded inputs, one operation, and a
check of that operation's output against what the inputs imply."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import fixtures
import reference as ref
from cslkit import csl_codec, losses, targets
from cslkit.rotgeom import OrientedBox180

POOL = 16  # distinct inputs per run; operations cycle through them


class CheckFailed(Exception):
    pass


def _expect(condition, what):
    if not condition:
        raise CheckFailed(what)


class _CliWorkload:
    """One `cslkit` CLI call per operation, in-process via cli.main, with
    --output to a file the check reads back."""

    item = "detection"

    def run(self, api, case, out_path):
        code = api.main(["--output", str(out_path), *self.argv(case)])
        _expect(code == 0, f"exit code {code}")
        return json.loads(Path(out_path).read_text())


class EvalSparse(_CliWorkload):
    def __init__(self, rng, workdir):
        self.cases = [fixtures.eval_shard(rng, workdir / f"case{i}") for i in range(POOL)]

    def argv(self, case):
        return ["eval", "--dets", case["dets"], "--ann-dir", case["ann_dir"], "--iou-thresh", str(fixtures.EVAL_IOU_THRESH),
                "--classes", *fixtures.CLASSES]

    def check(self, case, report):
        for key in ("ap07", "ap12"):
            for name in fixtures.CLASSES:
                _expect(abs(report[key][name] - case[key][name]) <= 1e-9, f"{key}[{name}] {report[key][name]} != {case[key][name]}")
        for key in ("map07", "map12"):
            _expect(abs(report[key] - case[key]) <= 1e-9, f"{key} {report[key]} != {case[key]}")


class NmsCrowded(_CliWorkload):
    def __init__(self, rng, workdir):
        self.cases = [fixtures.nms_file(rng, workdir / f"case{i}") for i in range(POOL)]

    def argv(self, case):
        return ["nms", "--dets", case["dets"], "--iou-thresh", str(fixtures.NMS_IOU_THRESH), "--classes", *fixtures.CLASSES]

    def check(self, case, report):
        kept = sorted((d["image_id"], d["class_id"], d["score"], tuple(d["box"])) for d in report["kept"])
        _expect(len(kept) == len(case["kept"]), f"kept {len(kept)} detections, expected {len(case['kept'])}")
        for got, want in zip(kept, case["kept"]):
            _expect(got[:3] == want[:3], f"kept {got[:3]}, expected {want[:3]}")
            d = np.subtract(got[3], want[3])
            d[4] = (d[4] + 90.0) % 180.0 - 90.0  # theta is periodic
            _expect(np.all(np.abs(d) <= 1e-9), f"kept box {got[3]}, expected {want[3]}")


class Train:
    """One training image per operation through the Python API:
    assign_targets on a fixed anchor set, encode_batch on the foreground
    angles, the csl-branch multi_task_loss, and decode_batch on every
    anchor's angle logits."""

    item = "image"

    def __init__(self, rng, workdir, grid):
        self.cfg = targets.AssignmentConfig(anchor_mode=grid["mode"])
        self.csl_cfg = csl_codec.CslCodecConfig("gaussian", ref.CSL_RADIUS, 1.0, "range180")
        self.anchors = targets.generate_anchors(anchor_spec(grid), mode=grid["mode"])
        geometry = fixtures.anchor_geometry(grid)
        self.anchor5 = fixtures.long_edge(geometry)
        self.cases = [fixtures.train_image(rng, grid, geometry) for _ in range(POOL)]
        for case in self.cases:
            case["gts"] = [(OrientedBox180(*map(float, g)), int(c)) for g, c in zip(case["gt"], case["gt_classes"])]
            case["angles"] = ref.csl_decode(case["csl_logits"])

    def run(self, api, case, out_path):
        res = api.assign_targets(self.anchors, case["gts"], self.cfg, self.csl_cfg)
        fg = np.flatnonzero(res.labels == 1)
        csl_rows = api.encode_batch([case["gts"][j][0].theta for j in res.matched_gt[fg]], self.csl_cfg)
        keep = res.labels >= 0
        pos = np.flatnonzero(res.labels[keep] == 1)
        n = int(keep.sum())
        reg_target = np.zeros((n, 4))
        cls_target = np.zeros((n, len(fixtures.CLASSES)))
        csl_target = np.zeros((n, ref.CSL_BINS))
        if len(fg):
            reg_target[pos] = [res.reg_targets[int(i)].as_array()[:4] for i in fg]
            cls_target[pos, [res.class_ids[int(i)] for i in fg]] = 1.0
            csl_target[pos] = csl_rows
        batch = losses.LossBatch(
            obj=(res.labels[keep] == 1).astype(float),
            reg_pred=case["reg_pred"][keep],
            reg_target=reg_target,
            cls_logits=case["cls_logits"][keep],
            cls_target=cls_target,
            csl_logits=case["csl_logits"][keep],
            csl_target=csl_target,
        )
        loss = api.multi_task_loss(batch, branch="csl")
        angles = api.decode_batch(case["csl_logits"], self.csl_cfg)
        return res, csl_rows, loss, angles

    def check(self, case, output):
        res, csl_rows, loss, angles = output
        n, m = len(self.anchors), len(case["gts"])
        labels, matched, max_iou = np.asarray(res.labels), np.asarray(res.matched_gt), np.asarray(res.max_iou)
        _expect(labels.shape == matched.shape == max_iou.shape == (n,), "assignment arrays have the wrong shape")

        # rows whose reference label is known in closed form
        rows, sure = case["rows"], ~case["ambiguous"]
        _expect(np.array_equal(labels[rows[sure]], case["labels"][sure]), "labels differ from the reference")
        _expect(np.array_equal(matched[rows[sure]], case["matched"][sure]), "matched gts differ from the reference")
        _expect(np.allclose(max_iou[rows[sure]], case["max_iou"][sure], rtol=0.0, atol=1e-9), "max IoU differs from the reference")
        _expect(all(np.any(labels[best] == 1) for best in case["best"]), "no best anchor of a gt is foreground")
        # every other row: labels consistent with the rule and the IoU reported
        forced = np.zeros(n, dtype=bool)
        forced[np.concatenate(case["best"])] = True
        _expect(np.all(np.isin(labels, (-1, 0, 1))), "label outside {-1, 0, 1}")
        _expect(np.array_equal(matched >= 0, labels == 1) and np.all(matched < m), "matched gt inconsistent with labels")
        _expect(np.all((max_iou >= 0.0) & (max_iou <= 1.0)), "IoU outside [0, 1]")
        _expect(np.all(max_iou[labels == 0] < 0.4), "background anchor with IoU >= bg threshold")
        ignored = max_iou[labels == -1]
        _expect(np.all((ignored >= 0.4) & (ignored < 0.5)), "ignored anchor outside [bg, fg) thresholds")
        _expect(np.all((max_iou[labels == 1] >= 0.5) | forced[labels == 1]), "foreground anchor below fg threshold")

        fg = np.flatnonzero(labels == 1)
        _expect(sorted(res.reg_targets) == sorted(res.csl_labels) == sorted(res.class_ids) == fg.tolist(),
                "targets not given for exactly the foreground anchors")
        gt5 = case["gt"][matched[fg]]
        want_reg = np.column_stack([
            ref.regression_targets(gt5, self.anchor5[fg]),
            (gt5[:, 4] - self.anchor5[fg, 4]) * math.pi / 180.0,
        ])
        got_reg = np.array([res.reg_targets[int(i)].as_array() for i in fg]).reshape(-1, 5)
        _expect(np.allclose(got_reg, want_reg, rtol=1e-12, atol=1e-12), "regression targets differ from the reference")
        want_rows = ref.csl_gaussian_rows(gt5[:, 4])
        got_labels = np.array([res.csl_labels[int(i)].values for i in fg]).reshape(-1, ref.CSL_BINS)
        _expect(np.allclose(got_labels, want_rows, rtol=0.0, atol=1e-12), "circular labels (encode) differ from the reference")
        _expect(np.allclose(np.reshape(csl_rows, (-1, ref.CSL_BINS)), want_rows, rtol=0.0, atol=1e-12),
                "circular labels (encode_batch) differ from the reference")
        _expect([res.class_ids[int(i)] for i in fg] == case["gt_classes"][matched[fg]].tolist(), "class ids differ")

        keep = labels >= 0
        pos = np.flatnonzero(labels[keep] == 1)
        k = int(keep.sum())
        reg_target, cls_target, csl_target = np.zeros((k, 4)), np.zeros((k, len(fixtures.CLASSES))), np.zeros((k, ref.CSL_BINS))
        reg_target[pos] = want_reg[:, :4]
        cls_target[pos, case["gt_classes"][matched[fg]]] = 1.0
        csl_target[pos] = want_rows
        want_loss = ref.csl_multi_task_loss(
            (labels[keep] == 1).astype(float), case["reg_pred"][keep], reg_target,
            case["cls_logits"][keep], cls_target, case["csl_logits"][keep], csl_target,
        )
        _expect(math.isclose(loss, want_loss, rel_tol=1e-9), f"loss {loss} != reference {want_loss}")
        _expect(np.allclose(angles, case["angles"], rtol=0.0, atol=1e-12), "decoded angles differ from the reference")


def anchor_spec(grid):
    return targets.AnchorGridSpec(
        image_size=grid["image_size"],
        strides=tuple(grid["strides"]),
        base_scale=fixtures.BASE_SCALE,
        aspect_ratios=fixtures.RATIOS,
        angles=fixtures.ANGLES,
    )


WORKLOADS = {
    "eval_sparse": EvalSparse,
    "nms_crowded": NmsCrowded,
    "train_hbb": lambda rng, workdir: Train(rng, workdir, fixtures.HBB_GRID),
    "train_rbb": lambda rng, workdir: Train(rng, workdir, fixtures.RBB_GRID),
}
