#!/usr/bin/env python3
"""Run the benchmark's workloads on a parent and a change checkout and record them.

    python3 tools/bench_record.py --out BENCH_9.json --seeds 401 402 403 \\
        --parent ../parent --change .

Every workload of the parent's ``BENCHMARK.json`` runs for its
``run_seconds`` as ``bench/run.py --trace 0``, once per seed and checkout,
each from its own directory, one run at a time.  Which checkout goes first
alternates from seed to seed, so host drift does not favour one side.  The
JSON written holds every run (seed, order, correctness, op counts and the
five end-to-end metrics), per side and workload the median and quartiles of
each metric, and per workload and metric the change of the median and the
number of seeds on which the change read better than the parent, by the
metric's ``better`` direction.  Per workload and side it also records the
count of runs that read ``correct: false`` and the median op count per run,
and it prints a warning line for every such run as it ends: a trainer that
runs more iterations in a run can fail the benchmark's checks with
unchanged outputs.  It records both git SHAs, the numpy version, its BLAS
build and the repeat count.

Each run also keeps the unscaled median op time and the median host-speed
scale factor from ``bench/run.py``'s ``wall time, unscaled:`` stderr line,
and the comparison holds both beside the scaled metrics.  A change that
moves the kernel's scale factor moves every scaled time with it; these
fields show whether an op got slower or the factor rose.

After the timed runs, every workload runs once more per checkout on the
first seed as ``bench/run.py --trace 1``.  Its per-layer table is recorded
with the labels the tracer reported as absent (its ``trace: absent`` line):
a layer that reads 0 because the program no longer has a function of that
name is then told apart from one that was never called.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np


def git_sha(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_build() -> dict:
    """Name, version and build line of numpy's BLAS, without install paths."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    return {lib: {k: v for k, v in info.items() if k in keep} for lib, info in deps.items()}


ABSENT = "trace: absent, reported as 0: "
# bench/run.py's stderr line of raw wall times and the host-speed scale factor.
UNSCALED = re.compile(r"^wall time, unscaled: op_ms_p50=(\S+) .* median scale factor=(\S+)$", re.MULTILINE)
# Per-run fields read from that line.  Each gets a comparison row in which lower
# reads better: a lower scale factor is the one that lowers the scaled times.
UNSCALED_FIELDS = ("unscaled_op_ms_p50", "median_scale_factor")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    match = UNSCALED.search(proc.stderr)
    if match is None:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed no unscaled wall-time line:\n{proc.stderr}")
    run.update(zip(UNSCALED_FIELDS, map(float, match.groups())))
    if trace:
        absent = next((line[len(ABSENT) :] for line in proc.stderr.splitlines() if line.startswith(ABSENT)), "")
        run["absent"] = absent.split(", ") if absent else []
    return run


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        q1, median, q3 = np.percentile([r["metrics"][name] for r in runs], [25, 50, 75])
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, path in sides.items():
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"--{label} {path}: not a checkout with bench/run.py")
    bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    labels = list(sides)
    runs = {label: {w: [] for w in workloads} for label in labels}
    for i, seed in enumerate(args.seeds):
        for workload in workloads:
            order = labels if i % 2 == 0 else labels[::-1]
            for position, label in enumerate(order):
                run = {"seed": seed, "order": position, **run_once(sides[label], workload, seed, seconds)}
                runs[label][workload].append(run)
                print(f"{workload} seed {seed} {label}: {json.dumps(run)}", file=sys.stderr, flush=True)
                if not run["correct"]:
                    warning = f"warning: {workload} seed {seed} {label} reads correct: false"
                    print(warning, file=sys.stderr, flush=True)
    traced = {label: {} for label in labels}
    for workload in workloads:
        for label in labels:
            run = {"seed": args.seeds[0], **run_once(sides[label], workload, args.seeds[0], seconds, trace=1)}
            traced[label][workload] = run
            print(f"{workload} traced {label}: {json.dumps(run)}", file=sys.stderr, flush=True)
    record = {
        "command": f"bench/run.py --trace 0 --seconds {seconds:g}",
        "per_layer_command": f"bench/run.py --trace 1 --seconds {seconds:g}, first seed",
        "repeats": len(args.seeds),
        "seeds": args.seeds,
        "numpy": np.__version__,
        "blas": blas_build(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "sides": {
            label: {
                "sha": git_sha(sides[label]),
                "workloads": {
                    w: {
                        "summary": summarise(rs),
                        "ops_per_run": [r["attempted"] for r in rs],
                        "runs": rs,
                        "per_layer": traced[label][w],
                    }
                    for w, rs in runs[label].items()
                },
            }
            for label in labels
        },
    }
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    better.update(dict.fromkeys(UNSCALED_FIELDS, "lower"))
    record["comparison"] = {}
    for w in workloads:
        rows = {}
        for name, direction in better.items():
            a, b = (
                [r[name] if name in UNSCALED_FIELDS else r["metrics"][name] for r in runs[label][w]]
                for label in labels
            )
            sign = 1.0 if direction == "lower" else -1.0
            rows[name] = {
                "change_of_median": float(np.median(b) / np.median(a) - 1.0),
                "change_better_pairs": sum(sign * (x - y) > 0 for x, y in zip(a, b)),
                "pairs": len(a),
            }
        rows["incorrect_runs"] = {label: sum(not r["correct"] for r in runs[label][w]) for label in labels}
        rows["ops_per_run_median"] = {
            label: float(np.median([r["attempted"] for r in runs[label][w]])) for label in labels
        }
        record["comparison"][w] = rows
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
