"""Seeded end-to-end benchmark of cslkit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eval_sparse --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists): eval_sparse and
nms_crowded call `cslkit eval` / `cslkit nms` in-process through
cli.main; train_hbb and train_rbb run one training image through the
Python API. Each is a closed loop with one client, pinned to one CPU:
the next operation starts when the previous one returns. Every operation's output is
checked against values the inputs imply by construction. Times are
scaled to the host's reference speed (see scaled()); the unscaled ones
are printed too.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced operations on the same inputs and prints the per-layer
metrics of the traced ones (see tracer.py); the spans are written to
.perfbench/spans-<workload>.tsv. The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# one thread for every numeric library, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import fixtures

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_RUNS = 7  # fresh interpreters per run, after one discarded warm-up
# Time of reference_work() on the 2-vCPU 2.0 GHz Xeon host of the baseline
# when no other tenant slows it. Timings are scaled to this speed; see scaled().
REFERENCE_S = 0.0038
_REFERENCE_POINTS = np.random.default_rng(0).normal(size=(8, 2))
SETUP_GRIDS = {"train_hbb": fixtures.HBB_GRID, "train_rbb": fixtures.RBB_GRID}

# a fresh interpreter imports cslkit (and cli) and, for the training
# workloads, builds the anchor set that training reuses across images
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cslkit, cslkit.cli
{anchors}
elapsed = time.perf_counter() - start
if not cslkit.__file__.startswith(sys.argv[1]):
    sys.exit("cslkit imported from " + cslkit.__file__)
print(repr(elapsed))
"""


def import_cslkit():
    """Import cslkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "cslkit" / "__init__.py").is_file():
        sys.exit(f"error: no cslkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cslkit

    if not Path(cslkit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: cslkit imported from {cslkit.__file__}, not from {SRC}")


def reference_work():
    """Fixed work that measures how fast the host runs right now: a Python
    loop and small numpy calls, the same mix the library spends its time
    on."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    pts = _REFERENCE_POINTS
    for _ in range(200):
        nxt = np.roll(pts, 1, axis=0)
        total += float(pts[:, 0] @ nxt[:, 1] - pts[:, 1] @ nxt[:, 0]) + int(np.argsort(pts[:, 0])[0])
    return total


def reference_seconds():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scaled(seconds, reference):
    """Wall times scaled to the host's reference speed.

    The host is shared: for seconds to minutes at a time other tenants
    slow everything that runs on it, by up to 2x. reference[i] and
    reference[i + 1] time reference_work() just before and just after
    seconds[i]; each time is multiplied by REFERENCE_S over their mean,
    which removes that common slowdown and keeps a change in the
    program's own speed.
    """
    return [t * REFERENCE_S * 2.0 / (reference[i] + reference[i + 1]) for i, t in enumerate(seconds)]


def setup_seconds(workload):
    grid = SETUP_GRIDS.get(workload)
    anchors = ""
    if grid:
        anchors = (
            "from cslkit import targets\n"
            f"targets.generate_anchors(targets.AnchorGridSpec(image_size={grid['image_size']}, "
            f"strides={tuple(grid['strides'])!r}, base_scale={fixtures.BASE_SCALE!r}, "
            f"aspect_ratios={fixtures.RATIOS!r}, angles={fixtures.ANGLES!r}), mode={grid['mode']!r})"
        )
    code = SETUP_CHILD.format(anchors=anchors)
    times, reference = [], []
    for _ in range(SETUP_RUNS + 1):
        reference.append(reference_seconds())
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout))
    reference.append(reference_seconds())
    return statistics.median(scaled(times, reference)[1:])


class Loop:
    """Closed loop over a workload's inputs; records each operation's
    latency and whether its output passed the check."""

    def __init__(self, workload, out_path):
        self.workload = workload
        self.out_path = out_path
        self.records = []  # (latency s, items done or 0 if it failed, reference s just before)
        self.last_reference = None  # reference s after the last operation
        self.failed = 0

    def once(self, api, case, record=True):
        self.out_path.unlink(missing_ok=True)
        reference = reference_seconds()
        start = time.perf_counter()
        try:
            output = self.workload.run(api, case, self.out_path)
            elapsed = time.perf_counter() - start
            self.workload.check(case, output)
            ok = True
        except Exception:
            elapsed = time.perf_counter() - start
            ok = False
            if self.failed == 0:
                traceback.print_exc(file=sys.stderr)
        if record:
            self.records.append((elapsed, case["items"] if ok else 0, reference))
            self.failed += not ok
        return elapsed


def entry_points(tracer=None):
    """The library calls the workloads make, wrapped when tracing."""
    from cslkit import cli, csl_codec, losses, targets

    fns = {
        "main": cli.main,
        "assign_targets": targets.assign_targets,
        "encode_batch": csl_codec.encode_batch,
        "multi_task_loss": losses.multi_task_loss,
        "decode_batch": csl_codec.decode_batch,
    }
    if tracer:
        fns = {name: tracer.wrap(fn) for name, fn in fns.items()}
    return SimpleNamespace(**fns)


def run_untraced(workload, loop, seconds):
    api = entry_points()
    cases = workload.cases
    loop.once(api, cases[0], record=False)  # warm-up: lazy imports, file cache
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        loop.once(api, cases[i % len(cases)])
        i += 1
        if time.perf_counter() >= deadline:
            break
    loop.last_reference = reference_seconds()


def run_traced(workload, loop, seconds, spans_path):
    """Untraced and traced operations alternate on the same inputs, so the
    overhead ratio compares like with like."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = entry_points(), entry_points(tracer)
    cases = workload.cases
    loop.once(plain, cases[0], record=False)
    plain_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        case = cases[i % len(cases)]
        plain_s += loop.once(plain, case)
        tracer.op = i
        tracer.install()
        try:
            traced_s += loop.once(traced, case)
        finally:
            tracer.uninstall()
            tracer.op = -1
        i += 1
        if time.perf_counter() >= deadline:
            break
    tracer.write(spans_path)
    return tracer.metrics(i, plain_s / traced_s)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("eval_sparse", "nms_crowded", "train_hbb", "train_rbb"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its inputs (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for the run and its set-up children, so that the reference
    # timings scale work done on the same CPU (the host's CPUs slow down
    # independently of each other)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import_cslkit()
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        rng = np.random.default_rng([args.seed, sorted(workloads.WORKLOADS).index(args.workload)])
        workload = workloads.WORKLOADS[args.workload](rng, workdir)
        loop = Loop(workload, workdir / "out.json")
        if args.trace:
            metrics = run_traced(workload, loop, args.seconds, WORK / f"spans-{args.workload}.tsv")
        else:
            setup_s = setup_seconds(args.workload)
            run_untraced(workload, loop, args.seconds)
            raw, items, reference = zip(*loop.records)
            reference += (loop.last_reference,)
            lat = scaled(raw, reference)
            metrics = {
                "throughput": {"value": sum(items) / sum(lat), "unit": "items/s"},
                "latency_p50_s": {"value": float(np.percentile(lat, 50)), "unit": "s"},
                "latency_p90_s": {"value": float(np.percentile(lat, 90)), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(loop.records)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} operations on {len(workload.cases)} inputs, "
          f"one client, closed loop, 1 thread; item = {workload.item}")
    if not args.trace:
        samples = {
            "throughput": f"{workload.item}s/s of operation time, n={n}",
            "latency_p50_s": f"n={n}",
            "latency_p90_s": f"n={n}" + ("" if n >= 100 else ", fewer than 100 samples"),
            "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
            "peak_rss_mb": "n=1 process",
        }
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:.6g} {m['unit']} ({samples[name]})")
        print(f"  host speed: reference work took {statistics.median(reference) * 1e3:.3g} ms (median), "
              f"{REFERENCE_S * 1e3:.3g} ms at reference speed; unscaled latency p50 {np.percentile(raw, 50):.6g} s, "
              f"p90 {np.percentile(raw, 90):.6g} s")
    else:
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<16} {loop.failed / n:.6g} ({loop.failed} failed of {n} attempted)")
    print(json.dumps({"correct": loop.failed == 0, "attempted": n, "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
