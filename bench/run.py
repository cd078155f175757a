#!/usr/bin/env python3
"""Run one benchmark workload of maskgrpo and print its metrics as JSON.

    python3 bench/run.py --workload train_default --seed 1 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the public functions of the program are wrapped
and the line holds per-layer metrics, and the spans are written under
``bench/out/``.  The exit code is 0 when the run completed, whether or not
its outputs were correct; ``correct`` in the JSON says which.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_default", "train_large", "sample_decode", "oracle_verify")


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time (10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def end_to_end(run) -> dict:
    """The five end-to-end metrics.

    Op times are scaled to the reference host speed.  Set-up time is left as
    measured: it is mostly imports, which the kernel does not track.
    """
    ms = np.asarray(run.op_s) * run.scale_factors() * 1e3
    return {
        "setup_s": (run.setup_s, "s"),
        "op_ms_p50": (float(np.median(ms)), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "ops_per_s": (ms.size / float(ms.sum()) * 1e3, "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def unscaled(run) -> str:
    ms = np.asarray(run.op_s) * 1e3
    speed = float(np.median(run.scale_factors()))
    return (
        f"wall time, unscaled: op_ms_p50={np.median(ms):.4f} "
        f"op_ms_p90={np.percentile(ms, 90):.4f} ops_per_s={ms.size / ms.sum() * 1e3:.4f} "
        f"ops={ms.size} median scale factor={speed:.4f}"
    )


def per_layer(run, tracer) -> dict:
    """Per-op layer metrics; span times scaled by the run's median factor."""
    factors = run.scale_factors()
    speed = float(np.median(factors))
    ops = len(run.op_s)
    summary = tracer.summary()
    out = {}
    for label in tracing.LABELS:
        calls, self_s = summary.get(label, (0, 0.0))
        out[f"{label}.calls"] = (calls / ops, "calls/op")
        out[f"{label}.self_ms"] = (self_s * speed * 1e3 / ops, "ms/op")
    out["policy.flop"] = (tracer.flop / ops, "computed-flop/op")
    ratio = tracer.accepted / tracer.admitted if tracer.admitted else 0.0
    out["filtering.useful_ratio"] = (ratio, "ratio")
    out["trace.op_ms_p50"] = (float(np.median(np.asarray(run.op_s) * factors)) * 1e3, "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maskgrpo" / "__init__.py").is_file():
        print(f"error: no maskgrpo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import maskgrpo.harness  # noqa: F401  (loads every module the tracer wraps)
    import workloads

    if not Path(maskgrpo.__file__).resolve().is_relative_to(SRC):
        print(f"error: maskgrpo imported from {maskgrpo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        if tracer.absent:
            print(f"trace: absent, reported as 0: {', '.join(tracer.absent)}", file=sys.stderr)

    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, process_age_s)

    print(unscaled(run), file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(run.problems) > 20:
        print(f"check failed: ... {len(run.problems) - 20} more", file=sys.stderr)
    if tracer is not None:
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(workloads.OUT_DIR, f"trace-{args.workload}-{args.seed}.npz"))
        metrics = per_layer(run, tracer)
    else:
        metrics = end_to_end(run)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
