#!/usr/bin/env python3
"""Check that two checkouts of maskgrpo produce the same outputs.

    python3 tools/compare_outputs.py --parent ../parent --change .

Runs ``maskgrpo train`` in each checkout on seven configs, ``sample -n 200 -s
3`` from the checkout's own ``default_seed5`` checkpoint, and ``verify -n 300
-s 3``, ``gradcheck -n 8 -s 42``, ``gradcheck -n 100 -s 42`` (the instances
acceptance criterion 4 checks) and ``d3pm``, each from the checkout's own
``src/`` with BLAS pinned to one thread, then each checkout's six demos.
For a train run it compares ``metrics.csv`` without its ``wall_ms`` column,
the bytes of ``final.ckpt``, the exit code and the printed text (output
paths masked); for ``sample`` and the reports it compares the exit code and
the printed text; for a demo, the exit code and the standard output with
its ``elapsed:`` line (demo 03's timing) masked.  It prints one line per
difference and exits 1 when there is any, 0 otherwise.

The configs cover the default shape (seed 5, 300 iterations, where one
iteration exhausts its resample budget), the large shape, AR-style scoring
with a KL term and inner epochs, exact scoring with a KL term and inner
epochs (off-policy steps that the updated policy cannot reach score
-inf), kept-only scoring on a step subset, exact scoring on a reduced unmasking
schedule with a KL term, and the token-count reward with its own keys.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN_CONFIGS = {
    "default_seed5": {"seed": 5, "iterations": 300},
    "large": {
        "canvas_n": 64,
        "canvas_k": 8,
        "hidden": 256,
        "steps": 16,
        "iterations": 40,
    },
    "ar_kl_inner": {"transition": "ar", "kl_beta": 0.2, "inner_epochs": 3, "iterations": 60, "seed": 1},
    "exact_kl_inner": {"kl_beta": 0.2, "inner_epochs": 3, "iterations": 60, "seed": 5},
    "kept_subset": {
        "transition": "unmasked",
        "reduction": "subset",
        "subset_start": 2,
        "subset_stop": 6,
        "iterations": 60,
        "seed": 2,
    },
    "exact_unmask_kl": {
        "reduction": "unmask",
        "train_steps": 4,
        "kl_beta": 0.1,
        "iterations": 60,
        "seed": 3,
    },
    "count_reward": {"reward": "count", "reward_value": 2, "reward_count": 5, "iterations": 60, "seed": 4},
}
# The default config's pattern target, i mod K over N=16, K=4.
SAMPLE_PROMPT = "pattern:" + ",".join(str(i % 4) for i in range(16))
REPORTS = {
    "verify": ["verify", "-n", "300", "-s", "3"],
    "gradcheck": ["gradcheck", "-n", "8", "-s", "42"],
    "gradcheck criterion 4": ["gradcheck", "-n", "100", "-s", "42"],
    "d3pm": ["d3pm"],
}


# A demo's timing line, the one printed value that differs between runs.
ELAPSED = re.compile(r"^(\s*elapsed:).*$", re.MULTILINE)


def run_python(checkout: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def run_cli(checkout: Path, args: list[str]) -> subprocess.CompletedProcess:
    return run_python(checkout, ["-m", "maskgrpo.harness", *args], checkout)


def metrics_without_wall(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    return [row[:drop] + row[drop + 1 :] for row in rows]


def train_outputs(checkout: Path, name: str, keys: dict, scratch: Path) -> dict:
    out = scratch / name
    out.mkdir(parents=True)
    config = out / "run.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    proc = run_cli(checkout, ["train", "-c", str(config), "-o", str(out)])
    outputs = {
        "exit code": proc.returncode,
        "stdout": proc.stdout.replace(str(out), "<out>"),
        "stderr": proc.stderr.replace(str(out), "<out>"),
    }
    if proc.returncode == 0:
        outputs["metrics.csv outside wall_ms"] = metrics_without_wall(out / "metrics.csv")
        outputs["final.ckpt bytes"] = (out / "final.ckpt").read_bytes()
    return outputs


def all_outputs(checkout: Path, scratch: Path) -> dict:
    outputs = {}
    for name, keys in TRAIN_CONFIGS.items():
        outputs[f"train {name}"] = train_outputs(checkout, name, keys, scratch)
    ckpt = scratch / "default_seed5" / "final.ckpt"
    proc = run_cli(checkout, ["sample", "-k", str(ckpt), "-p", SAMPLE_PROMPT, "-n", "200", "-s", "3"])
    outputs["sample"] = {
        "exit code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr.replace(str(ckpt), "<ckpt>"),
    }
    for name, args in REPORTS.items():
        proc = run_cli(checkout, args)
        outputs[name] = {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    for demo in sorted((checkout / "demos").glob("*.py")):
        proc = run_python(checkout, [str(demo)], scratch)
        outputs[f"demo {demo.stem}"] = {
            "exit code": proc.returncode,
            "stdout": ELAPSED.sub(r"\1 <masked>", proc.stdout),
        }
    return outputs


def differences(parent: dict, change: dict) -> list[str]:
    found = []
    for run in [*parent, *(run for run in change if run not in parent)]:
        want, got = parent.get(run, {}), change.get(run, {})
        for part in sorted(set(want) | set(got)):
            if part not in want or part not in got:
                found.append(f"{run}: {part} only on the {'parent' if part in want else 'change'}")
            elif want[part] != got[part]:
                found.append(f"{run}: {part} differs{first_line_difference(want[part], got[part])}")
    return found


def first_line_difference(a, b) -> str:
    if isinstance(a, str) and isinstance(b, str):
        a, b = a.splitlines(), b.splitlines()
    if not isinstance(a, list):
        return ""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f" at line {i + 1}: parent {x!r}, change {y!r}"
    return f" in length: parent {len(a)} lines, change {len(b)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, path in sides.items():
        if not (path / "src" / "maskgrpo" / "harness.py").is_file():
            parser.error(f"--{label} {path}: not a checkout with src/maskgrpo")
    with tempfile.TemporaryDirectory() as scratch:
        outputs = {label: all_outputs(path, Path(scratch) / label) for label, path in sides.items()}
    found = differences(outputs["parent"], outputs["change"])
    for line in found:
        print(line)
    runs = len(outputs["parent"])
    print(f"{len(found)} differences over {runs} runs" if found else f"no difference over {runs} runs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
