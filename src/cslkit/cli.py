"""Command-line frontend.

Subcommands: window, encode, decode, iou, quant-error, boundary-report,
targets, nms, eval. Output is JSON (default) or CSV via --format; JSON
payloads carry a schema_version field. Exit codes: 0 success, 1 usage
error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import csl_codec, evaluation, losses, targets
from .csl_codec import CslCodecConfig
from .rotgeom import InvalidGeometryError, OrientedBox180, canonicalize180, rotated_iou

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_codec_args(p):
    p.add_argument("--kind", default="gaussian", choices=csl_codec.WINDOW_KINDS)
    p.add_argument("--r", type=float, default=6.0, dest="radius")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--range", type=int, default=180, choices=(90, 180), dest="angle_range")


def _codec_cfg(args):
    return CslCodecConfig(
        window_kind=args.kind,
        radius_r=args.radius,
        omega=args.omega,
        angle_range=f"range{args.angle_range}",
    )


def _parse_box(text):
    parts = [float(t) for t in text.split()]
    if len(parts) != 5:
        raise InvalidGeometryError(f"box literal needs 5 numbers 'cx cy h w theta', got {len(parts)}")
    cx, cy, h, w, theta = parts
    return canonicalize180(cx, cy, h, w, theta)


def _parse_gt(text):
    parts = text.split()
    if len(parts) != 6:
        raise InvalidGeometryError(f"gt literal needs 6 tokens 'cx cy h w theta class_id', got {len(parts)}")
    return _parse_box(" ".join(parts[:5])), int(parts[5])


def _emit(args, payload_json, rows, header):
    """payload_json for --format json, (header, rows) for csv."""
    out = sys.stdout
    if getattr(args, "output", None):
        out = open(args.output, "w")
    try:
        if args.format == "json":
            out.write(json.dumps(payload_json, indent=2) + "\n")
        else:
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(str(v) for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def build_parser():
    p = _Parser(prog="cslkit", description="Rotated-box geometry, circular smooth labels and evaluation tools")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="write to file instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("window", help="window-function curve over all bins")
    _add_codec_args(w)

    e = sub.add_parser("encode", help="encode an angle as a circular smooth label")
    _add_codec_args(e)
    e.add_argument("--theta", type=float, required=True)

    d = sub.add_parser("decode", help="decode a score vector to an angle")
    _add_codec_args(d)
    d.add_argument("--scores", required=True, help="comma-separated scores or @file")

    i = sub.add_parser("iou", help="rotated IoU of two boxes 'cx cy h w theta'")
    i.add_argument("--a", required=True)
    i.add_argument("--b", required=True)

    q = sub.add_parser("quant-error", help="angle discretization error stats")
    q.add_argument("--omega", type=float, default=1.0)
    q.add_argument("--samples", type=int, default=1_000_000)
    q.add_argument("--range", type=int, default=180, choices=(90, 180), dest="angle_range")

    b = sub.add_parser("boundary-report", help="boundary-discontinuity loss sweep")
    b.add_argument("--scenario", required=True, choices=("deg90", "deg180", "quad"))
    b.add_argument("--eps", type=float, nargs="+", default=[0.5, 0.25, 0.1, 0.05, 0.01])

    t = sub.add_parser("targets", help="anchor generation and gt assignment dump")
    t.add_argument("--image-size", type=int, required=True)
    t.add_argument("--strides", type=int, nargs="+", default=[8])
    t.add_argument("--base-scale", type=float, default=4.0)
    t.add_argument("--mode", choices=("horizontal", "rotated"), default="horizontal")
    t.add_argument("--gt", action="append", default=[], help="'cx cy h w theta class_id', repeatable")

    n = sub.add_parser("nms", help="rotated non-maximum suppression")
    n.add_argument("--dets", required=True, help="detection file")
    n.add_argument("--iou-thresh", type=float, default=0.1)
    n.add_argument("--classes", nargs="+", default=[])

    v = sub.add_parser("eval", help="rotated-detection mAP evaluation")
    v.add_argument("--dets", required=True, help="detection file")
    v.add_argument("--ann-dir", required=True, help="directory of DOTA annotation files, one per image")
    v.add_argument("--classes", nargs="+", required=True)
    v.add_argument("--iou-thresh", type=float, default=0.5)
    v.add_argument("--strict", action="store_true", help="fail on unknown categories")
    v.add_argument("--subset", nargs="+", default=[], help="extra mAP over this class subset")
    return p


def _cmd_window(args):
    cfg = _codec_cfg(args)
    curve = csl_codec.window_curve(cfg)
    payload = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(), "curve": [[b, float(v)] for b, v in curve]}
    _emit(args, payload, [(b, float(v)) for b, v in curve], ("bin", "value"))


def _cmd_encode(args):
    cfg = _codec_cfg(args)
    label = csl_codec.encode(args.theta, cfg)
    payload = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(), "theta": args.theta, **label.to_dict()}
    rows = list(enumerate(label.values))
    _emit(args, payload, [(b, float(v)) for b, v in rows], ("bin", "value"))


def _cmd_decode(args):
    cfg = _codec_cfg(args)
    if args.scores.startswith("@"):
        text = Path(args.scores[1:]).read_text()
        scores = [float(t) for t in text.replace(",", " ").split()]
    else:
        scores = [float(t) for t in args.scores.split(",")]
    theta = csl_codec.decode(np.asarray(scores), cfg)
    payload = {"schema_version": SCHEMA_VERSION, "theta": theta}
    _emit(args, payload, [(theta,)], ("theta",))


def _cmd_iou(args):
    value = rotated_iou(_parse_box(args.a), _parse_box(args.b))
    _emit(args, {"schema_version": SCHEMA_VERSION, "iou": value}, [(value,)], ("iou",))


def _cmd_quant_error(args):
    stats = csl_codec.quantization_error_stats(args.omega)
    cfg = CslCodecConfig("pulse", 0.0, args.omega, f"range{args.angle_range}")
    mc_mean, mc_max = csl_codec.monte_carlo_roundtrip_error(cfg, samples=args.samples, seed=args.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "omega": args.omega,
        "max": stats.max_loss,
        "expected": stats.expected_loss,
        "mc_mean": mc_mean,
        "mc_max": mc_max,
    }
    _emit(args, payload, [(args.omega, stats.max_loss, stats.expected_loss, mc_mean, mc_max)],
          ("omega", "max", "expected", "mc_mean", "mc_max"))


def _cmd_boundary_report(args):
    reports = losses.boundary_sweep(args.scenario, args.eps)
    payload = {"schema_version": SCHEMA_VERSION, "reports": [r.to_dict() for r in reports]}
    rows = [(r.epsilon_deg, r.loss_ideal, r.loss_actual, r.loss_csl, r.ratio) for r in reports]
    _emit(args, payload, rows, ("epsilon_deg", "loss_ideal", "loss_actual", "loss_csl", "ratio"))


def _cmd_targets(args):
    spec = targets.AnchorGridSpec(
        image_size=args.image_size, strides=tuple(args.strides), base_scale=args.base_scale
    )
    anchors = targets.generate_anchors(spec, mode=args.mode)
    gts = [_parse_gt(text) for text in args.gt]
    cfg = targets.AssignmentConfig(anchor_mode=args.mode)
    csl_cfg = CslCodecConfig("gaussian", 6.0, 1.0, "range180")
    result = targets.assign_targets(anchors, gts, cfg, csl_cfg)
    payload = {"schema_version": SCHEMA_VERSION, "num_anchors": len(anchors), **result.to_dict()}
    rows = [(i, int(result.labels[i]), int(result.matched_gt[i]), float(result.max_iou[i])) for i in range(len(anchors))]
    _emit(args, payload, rows, ("anchor", "label", "matched_gt", "max_iou"))


def _class_table(names, option="--classes"):
    twice = [name for i, name in enumerate(names) if name in names[:i]]
    if twice:
        raise ValueError(f"{option} lists {twice[0]!r} twice")
    return {name: i for i, name in enumerate(names)}


def _cmd_nms(args):
    table = _class_table(args.classes)
    image_ids, class_ids, scores, rows = evaluation.parse_detections(Path(args.dets).read_text(), table)
    keys = list(zip(image_ids, class_ids))
    rank = {key: g for g, key in enumerate(sorted(set(keys)))}  # kept detections come out by (image, class)
    kept = evaluation.batched_rotated_nms(rows, scores, [rank[key] for key in keys], args.iou_thresh)
    out = [(image_ids[k], class_ids[k], *v) for k, v in zip(kept.tolist(), np.column_stack([scores, rows])[kept].tolist())]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kept": [{"image_id": image_id, "class_id": cid, "score": score, "box": box} for image_id, cid, score, *box in out],
    }
    _emit(args, payload, out, ("image_id", "class_id", "score", "cx", "cy", "h", "w", "theta"))


def _cmd_eval(args):
    table = _class_table(args.classes)
    unknown = [c for c in _class_table(args.subset, "--subset") if c not in table]
    if unknown:
        raise ValueError(f"--subset class {unknown[0]!r} is not one of --classes")
    image_ids, class_ids, scores, rows = evaluation.parse_detections(Path(args.dets).read_text(), table)
    dets = [evaluation.DetectionRecord(image_id, cid, OrientedBox180(*row), score)
            for image_id, cid, score, row in zip(image_ids, class_ids, scores.tolist(), rows.tolist())]
    gts = []
    for path in sorted(Path(args.ann_dir).iterdir()):
        if path.is_file() and not path.name.startswith("."):  # hidden files such as .DS_Store are not annotations
            try:
                gts.extend(evaluation.ingest_dota(path.read_text(), path.stem, table, strict=args.strict))
            except (ValueError, OSError) as exc:
                raise ValueError(f"{path.name}: {exc}") from exc
    report = evaluation.evaluate(dets, gts, args.classes, iou_thresh=args.iou_thresh)
    payload = report.to_dict()
    if args.subset:
        payload["subset_map07"] = report.subset_map(args.subset, "voc07")
        payload["subset_map12"] = report.subset_map(args.subset, "voc12")
    rows = [(c, report.ap07[c], report.ap12[c]) for c in args.classes]
    rows.append(("mAP", report.map07, report.map12))
    _emit(args, payload, rows, ("class", "ap07", "ap12"))


_COMMANDS = {
    "window": _cmd_window,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "iou": _cmd_iou,
    "quant-error": _cmd_quant_error,
    "boundary-report": _cmd_boundary_report,
    "targets": _cmd_targets,
    "nms": _cmd_nms,
    "eval": _cmd_eval,
}


@functools.cache
def _shared_parser():
    """The parser every main call reuses, built on the first call:
    parse_args leaves it unchanged and gives each call its own namespace."""
    return build_parser()


def main(argv=None):
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
