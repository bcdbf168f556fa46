"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the library, the public functions of each
cslkit module wherever another module (or the benchmark) reaches them:
names one module imported from another (``evaluation.rotated_iou``,
``targets.encode``), module objects one module holds (``cli`` calls
``evaluation.evaluate`` through the module), and the entry points the
benchmark calls. Calls inside one module are not wrapped, so their time
is the module's self time. Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter

LAYERS = ("cli", "evaluation", "rotgeom", "targets", "csl_codec", "losses")

# per-layer metrics of the traced run: name -> unit; "/op" values are
# means over traced operations
PER_LAYER = {
    "rotgeom.self_s": "s/op",
    "rotgeom.calls": "count/op",
    "rotgeom.iou_pairs": "count/op",
    "rotgeom.iou_pairs_per_s": "1/s",
    "rotgeom.iou_nonzero_ratio": "ratio",
    "rotgeom.boxes_canonicalized": "count/op",
    "evaluation.parse_detections.s": "s/op",
    "evaluation.ingest_dota.s": "s/op",
    "evaluation.evaluate.s": "s/op",
    "evaluation.rotated_nms.s": "s/op",
    "evaluation.self_s": "s/op",
    "evaluation.nms_kept_ratio": "ratio",
    "cli.main.s": "s/op",
    "cli.self_s": "s/op",
    "cli.self_share": "ratio",
    "targets.assign_targets.s": "s/op",
    "targets.self_s": "s/op",
    "targets.anchor_gt_pairs_per_s": "1/s",
    "targets.fg_ratio": "ratio",
    "csl_codec.self_s": "s/op",
    "csl_codec.encode.calls": "count/op",
    "csl_codec.angles_per_s": "1/s",
    "losses.multi_task_loss.s": "s/op",
    "losses.self_s": "s/op",
    "losses.encode_regression.calls": "count/op",
    "losses.anchors_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _layer(module_name):
    package, _, layer = module_name.rpartition(".")
    return layer if package == "cslkit" and layer in LAYERS else None


def _public_functions(module):
    return {
        name: fn
        for name, fn in vars(module).items()
        if isinstance(fn, types.FunctionType) and not name.startswith("_") and fn.__module__ == module.__name__
    }


class _ModuleProxy:
    """Stands in for a module held by another module: wrapped public
    functions, everything else passed through."""

    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _size(value):
    """Number of results a call returned: 1 for a scalar or a single
    record, the leading dimension for a batch."""
    if isinstance(value, float):
        return 1
    shape = getattr(value, "shape", None)
    if shape is not None:
        return shape[0] if shape else 1
    return len(value) if isinstance(value, (list, tuple)) else 1


def _nonzero(value):
    if isinstance(value, float):
        return int(value > 0.0)
    return int((value > 0).sum())


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start ns, end ns, parent index, op id)
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._wrappers = {}
        self._patches = []  # (namespace, attribute, original, replacement)
        modules = {layer: importlib.import_module(f"cslkit.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if isinstance(value, types.FunctionType) and not attr.startswith("_"):
                    home = _layer(value.__module__)
                    if home and home != layer:
                        self._patches.append((module, attr, value, self.wrap(value)))
                elif isinstance(value, types.ModuleType) and _layer(value.__name__) and value is not module:
                    wrapped = {name: self.wrap(fn) for name, fn in _public_functions(value).items()}
                    self._patches.append((module, attr, value, _ModuleProxy(value, wrapped)))

    def install(self):
        for namespace, attr, _, replacement in self._patches:
            setattr(namespace, attr, replacement)

    def uninstall(self):
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def wrap(self, fn):
        """Wrapper that records a span named '<layer>.<function>' for each
        call of fn and counts the work it returned."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = f"{_layer(fn.__module__)}.{fn.__name__}"
        spans, stack, counts, count = self.spans, self._stack, self.counts, self._counter(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            counts[name + ".calls"] += 1
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        self._wrappers[fn] = traced
        return traced

    def _counter(self, name):
        """Work counter for one traced function, or None."""
        c = self.counts
        layer, _, fn = name.partition(".")
        if layer == "rotgeom" and fn.startswith("rotated_iou"):
            def count(args, result):
                c["rotgeom.iou_pairs"] += _size(result)
                c["rotgeom.iou_nonzero"] += _nonzero(result)
        elif layer == "rotgeom" and (fn.startswith("canonicalize") or fn == "quad_to_box180"):
            def count(args, result):
                c["rotgeom.boxes_canonicalized"] += _size(result)
        elif name == "evaluation.rotated_nms":
            def count(args, result):
                c["nms.in"] += len(args[0])
                c["nms.kept"] += len(result)
        elif name == "targets.assign_targets":
            def count(args, result):
                c["assign.pairs"] += len(args[0]) * len(args[1])
                c["assign.anchors"] += len(args[0])
                c["assign.fg"] += int((result.labels == 1).sum())
        elif layer == "csl_codec" and fn in ("encode", "decode", "encode_batch", "decode_batch"):
            def count(args, result):
                c["csl_codec.angles"] += _size(result) if fn == "decode_batch" else _size(args[0])
        elif name == "losses.multi_task_loss":
            def count(args, result):
                c["losses.anchors"] += args[0].count
        else:
            count = None
        return count

    def write(self, path):
        """Spans as tab-separated lines: op, name, start ns, end ns, parent."""
        with open(path, "w") as f:
            f.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent, op in self.spans:
                f.write(f"{op}\t{name}\t{start}\t{end}\t{parent}\n")

    def metrics(self, n_ops, overhead_ratio):
        """PER_LAYER values from the spans and counts of n_ops operations."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns, incl_ns = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name.partition(".")[0]] += end - start - child[i]
            incl_ns[name] += end - start
        iou_ns = sum(v for k, v in incl_ns.items() if k.startswith("rotgeom.rotated_iou"))
        c = self.counts

        def per_op(value):
            return value / n_ops

        def rate(num, ns):
            return num / (ns * 1e-9) if ns else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "rotgeom.calls": per_op(sum(v for k, v in c.items() if k.startswith("rotgeom.") and k.endswith(".calls"))),
            "rotgeom.iou_pairs": per_op(c["rotgeom.iou_pairs"]),
            "rotgeom.iou_pairs_per_s": rate(c["rotgeom.iou_pairs"], iou_ns),
            "rotgeom.iou_nonzero_ratio": ratio(c["rotgeom.iou_nonzero"], c["rotgeom.iou_pairs"]),
            "rotgeom.boxes_canonicalized": per_op(c["rotgeom.boxes_canonicalized"]),
            "evaluation.nms_kept_ratio": ratio(c["nms.kept"], c["nms.in"]),
            "cli.self_share": ratio(self_ns["cli"], incl_ns["cli.main"]),
            "targets.anchor_gt_pairs_per_s": rate(c["assign.pairs"], incl_ns["targets.assign_targets"]),
            "targets.fg_ratio": ratio(c["assign.fg"], c["assign.anchors"]),
            "csl_codec.encode.calls": per_op(c["csl_codec.encode.calls"]),
            "csl_codec.angles_per_s": rate(c["csl_codec.angles"], self_ns["csl_codec"]),
            "losses.encode_regression.calls": per_op(c["losses.encode_regression.calls"]),
            "losses.anchors_per_s": rate(c["losses.anchors"], incl_ns["losses.multi_task_loss"]),
            "trace.overhead_ratio": overhead_ratio,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = per_op(self_ns[layer] * 1e-9)
        for name in ("evaluation.parse_detections", "evaluation.ingest_dota", "evaluation.evaluate",
                     "evaluation.rotated_nms", "cli.main", "targets.assign_targets", "losses.multi_task_loss"):
            values[f"{name}.s"] = per_op(incl_ns[name] * 1e-9)
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
