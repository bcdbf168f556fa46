"""Command-line frontend.

Subcommands: window, encode, decode, iou, quant-error, boundary-report,
targets, nms, eval. Output is JSON (default) or CSV via --format, the
latter through the csv module; JSON payloads carry a schema_version field
and are the bytes json.dumps(payload, indent=2) writes, which nms and eval
format straight from their columns.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import csl_codec, evaluation, losses, targets
from .csl_codec import CslCodecConfig
from .evaluation import SCHEMA_VERSION
from .rotgeom import InvalidGeometryError, canonicalize180, rotated_iou


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
    return CslCodecConfig(args.kind, args.radius, args.omega, f"range{args.angle_range}")


def _parse_box(text):
    parts = [float(t) for t in text.split()]
    if len(parts) != 5:
        raise InvalidGeometryError(f"box literal needs 5 numbers 'cx cy h w theta', got {len(parts)}")
    return canonicalize180(*parts)  # cx, cy, h, w, theta


def _parse_gt(text):
    parts = text.split()
    if len(parts) != 6:
        raise InvalidGeometryError(f"gt literal needs 6 tokens 'cx cy h w theta class_id', got {len(parts)}")
    return _parse_box(" ".join(parts[:5])), int(parts[5])


def _emit(args, payload_json, rows, header):
    """payload_json, a dict to json.dumps or a function that returns the JSON text, for --format json; (header, rows)
    for csv; rows may be a generator, consumed as written. Only the chosen format's text is built."""
    with open(args.output, "w", newline="") if args.output else contextlib.nullcontext(sys.stdout) as out:
        if args.format == "json":
            out.write((payload_json() if callable(payload_json) else json.dumps(payload_json, indent=2)) + "\n")
        else:
            csv.writer(out, lineterminator="\n").writerows(itertools.chain([header], rows))


def build_parser():
    p = _Parser(prog="cslkit", description="Rotated-box geometry, circular smooth labels and evaluation tools")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="write to file instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        """A subcommand's parser; its parsed args carry run, the function that runs it."""
        parser = sub.add_parser(name, help=help)
        parser.set_defaults(run=run)
        return parser

    w = command("window", _cmd_window, "window-function curve over all bins")
    _add_codec_args(w)

    e = command("encode", _cmd_encode, "encode an angle as a circular smooth label")
    _add_codec_args(e)
    e.add_argument("--theta", type=float, required=True)

    d = command("decode", _cmd_decode, "decode a score vector to an angle")
    _add_codec_args(d)
    d.add_argument("--scores", required=True, help="comma-separated scores or @file")

    i = command("iou", _cmd_iou, "rotated IoU of two boxes 'cx cy h w theta'")
    i.add_argument("--a", required=True)
    i.add_argument("--b", required=True)

    q = command("quant-error", _cmd_quant_error, "angle discretization error stats")
    q.add_argument("--omega", type=float, default=1.0)
    q.add_argument("--samples", type=int, default=1_000_000)
    q.add_argument("--range", type=int, default=180, choices=(90, 180), dest="angle_range")

    b = command("boundary-report", _cmd_boundary_report, "boundary-discontinuity loss sweep")
    b.add_argument("--scenario", required=True, choices=("deg90", "deg180", "quad"))
    b.add_argument("--eps", type=float, nargs="+", default=[0.5, 0.25, 0.1, 0.05, 0.01])

    t = command("targets", _cmd_targets, "anchor generation and gt assignment dump")
    t.add_argument("--image-size", type=int, required=True)
    t.add_argument("--strides", type=int, nargs="+", default=[8])
    t.add_argument("--base-scale", type=float, default=4.0)
    t.add_argument("--mode", choices=("horizontal", "rotated"), default="horizontal")
    t.add_argument("--gt", action="append", default=[], help="'cx cy h w theta class_id', repeatable")

    n = command("nms", _cmd_nms, "rotated non-maximum suppression")
    n.add_argument("--dets", required=True, help="detection file")
    n.add_argument("--iou-thresh", type=float, default=0.1)
    n.add_argument("--classes", nargs="+", default=[])

    v = command("eval", _cmd_eval, "rotated-detection mAP evaluation")
    v.add_argument("--dets", required=True, help="detection file")
    v.add_argument("--ann-dir", required=True, help="directory of DOTA annotation files, one per image")
    v.add_argument("--classes", nargs="+", required=True)
    v.add_argument("--iou-thresh", type=float, default=0.5)
    v.add_argument("--strict", action="store_true", help="fail on unknown categories")
    v.add_argument("--subset", nargs="+", default=[], help="extra mAP over this class subset")
    return p


def _cmd_window(args):
    cfg = _codec_cfg(args)
    curve = [(b, float(v)) for b, v in csl_codec.window_curve(cfg)]
    payload = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(), "curve": curve}
    _emit(args, payload, curve, ("bin", "value"))


def _cmd_encode(args):
    cfg = _codec_cfg(args)
    label = csl_codec.encode(args.theta, cfg)
    payload = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(), "theta": args.theta, **label.to_dict()}
    _emit(args, payload, list(enumerate(label.values.tolist())), ("bin", "value"))


def _cmd_decode(args):
    cfg = _codec_cfg(args)
    if args.scores.startswith("@"):
        text = Path(args.scores[1:]).read_text(encoding="utf-8-sig")
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
    header = ("omega", "max", "expected", "mc_mean", "mc_max")
    row = (args.omega, stats.max_loss, stats.expected_loss, mc_mean, mc_max)
    _emit(args, {"schema_version": SCHEMA_VERSION, **dict(zip(header, row))}, [row], header)


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
    rows = zip(range(len(anchors)), result.labels.tolist(), result.matched_gt.tolist(), result.max_iou.tolist())
    _emit(args, payload, rows, ("anchor", "label", "matched_gt", "max_iou"))


def _class_table(names, option="--classes"):
    twice = [name for i, name in enumerate(names) if name in names[:i]]
    if twice:
        raise ValueError(f"{option} lists {twice[0]!r} twice")
    return {name: i for i, name in enumerate(names)}


# one kept detection of the nms payload, as json.dumps(..., indent=2) writes it: %r is float.__repr__ for the
# finite floats of the kept columns
_KEPT_JSON = ('{\n      "image_id": %s,\n      "class_id": %d,\n      "score": %r,\n      "box": [\n        %r,\n'
              '        %r,\n        %r,\n        %r,\n        %r\n      ]\n    }')


def _cmd_nms(args):
    table = _class_table(args.classes)
    image_ids, class_ids, scores, rows = evaluation.parse_detections(Path(args.dets).read_text(encoding="utf-8-sig"), table)
    kept = evaluation.batched_rotated_nms(rows, scores, evaluation._key_ids(image_ids, class_ids), args.iou_thresh)
    # kept by (image, class); its columns: image ids, class ids, scores, cx, cy, h, w and theta; no container each
    at = kept.tolist()
    ids, classes = [image_ids[k] for k in at], [class_ids[k] for k in at]
    columns = (classes, scores[kept].tolist(), *rows[kept].T.tolist())

    def json_text():
        kept_json = list(map(_KEPT_JSON.__mod__, zip(map(evaluation._quote, ids), *columns)))
        return evaluation._json_object([("schema_version", SCHEMA_VERSION),
                                        ("kept", evaluation._json_block("[]", kept_json, 2))], 0)

    _emit(args, json_text, zip(ids, *columns), ("image_id", "class_id", "score", "cx", "cy", "h", "w", "theta"))


def _cmd_eval(args):
    table = _class_table(args.classes)
    unknown = [c for c in _class_table(args.subset, "--subset") if c not in table]
    if unknown:
        raise ValueError(f"--subset class {unknown[0]!r} is not one of --classes")
    dets = evaluation.parse_detections(Path(args.dets).read_text(encoding="utf-8-sig"), table)
    # hidden files such as .DS_Store are not annotations
    paths = [path for path in sorted(Path(args.ann_dir).iterdir()) if path.is_file() and not path.name.startswith(".")]
    files, read_error = [], None  # the annotation files up to the first that cannot be read
    for path in paths:
        try:
            files.append((path.stem, path.read_text(encoding="utf-8-sig")))
        except (ValueError, OSError) as exc:
            read_error = ValueError(f"{path.name}: {exc}")
            break
    try:  # a fault in an earlier file wins
        gts = evaluation.dota_files_columns(files, table, strict=args.strict)
    except evaluation.AnnotationParseError as exc:
        raise ValueError(f"{paths[exc.source].name}: {exc}") from exc
    if read_error is not None:
        raise read_error
    report = evaluation.evaluate_columns(dets, gts, args.classes, iou_thresh=args.iou_thresh)
    subset = [(f"subset_map{k}", report.subset_map(args.subset, f"voc{k}")) for k in ("07", "12") if args.subset]
    rows = [(c, report.ap07[c], report.ap12[c]) for c in args.classes]
    rows.append(("mAP", report.map07, report.map12))
    _emit(args, lambda: evaluation._report_json(report, subset), rows, ("class", "ap07", "ap12"))


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
        args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
