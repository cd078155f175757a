"""Host speed, measured by fixed kernels and used to scale op wall times.

The development host is shared: its speed drifts by up to +-25% over tens
of seconds, so the same run of the same code and seed reads 17 ms or 26 ms
per training iteration depending on when it runs.  The benchmark times a
fixed kernel before the first op and after every op, and reports each op's
wall time multiplied by the kernel's reference time over its local time:
the wall time the op would take on the host when the kernel takes its
reference time.  The kernels belong to the benchmark, so a change to the
program moves the scaled times exactly as it moves wall times at a fixed
host speed.  The raw wall times are printed beside the scaled ones.

Two kernels match the two kinds of work in the program.  ``small`` does what
the per-step loop does on small arrays: a dense layer with tanh, a
log-softmax, a cumulative sum, a stable argsort and an index scan, each a
numpy call of a few microseconds.  ``blas`` adds what the large shape spends
its time on: a rank-1 update of a 256x512 matrix and a 592x256 product.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel samples taken on each side of an op; their median is the op's local
# kernel time, which steadies the estimate without losing the drift.
WINDOW = 4
# Share of each op's time spent sampling the kernel after it.
KERNEL_SHARE = 0.02

_rng = np.random.Generator(np.random.Philox(key=0x686F7374))
_W = _rng.uniform(-0.1, 0.1, size=(96, 64))
_X = _rng.uniform(0.0, 1.0, size=96)
_BIG = _rng.uniform(-0.1, 0.1, size=(592, 256))
_ACC = np.zeros((256, 512))
_U = _rng.uniform(-1.0, 1.0, size=256)
_V = _rng.uniform(-1.0, 1.0, size=512)


def _small_work() -> None:
    for _ in range(20):
        h = np.tanh(_X @ _W)
        z = h - h.max()
        logp = z - np.log(np.exp(z).sum())
        cum = np.cumsum(np.exp(logp))
        order = np.argsort(-logp, kind="stable")
        np.flatnonzero(cum[order] > 0.5).size


def _blas_work() -> None:
    _small_work()
    _ACC[...] += np.outer(_U, _V)
    _BIG.T @ _BIG[:, 0]


# name -> (work, median seconds of one pass between ops on the 2-core
# reference host: x86-64, numpy 2.4, OpenBLAS pinned to one thread).
KERNELS = {
    "small": (_small_work, 4.6e-4),
    "blas": (_blas_work, 1.17e-3),
}


def kernel_seconds(name: str) -> float:
    """Wall time of one pass of the named kernel."""
    work = KERNELS[name][0]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def sample_kernel(name: str, op_s: float) -> float:
    """Median kernel time over passes that fill ``KERNEL_SHARE`` of ``op_s``.

    Long ops get more passes, so their scale rests on more than one short
    sample; short ops get one.
    """
    samples = [kernel_seconds(name)]
    while sum(samples) < KERNEL_SHARE * op_s:
        samples.append(kernel_seconds(name))
    return float(np.median(samples))


def scale_factors(name: str, boundary_s) -> np.ndarray:
    """Per-op factors that convert wall time to reference-host time.

    ``boundary_s[i]`` is the kernel time right before op ``i``, and
    ``boundary_s[i + 1]`` right after it.  Op ``i`` is scaled by the
    reference time over the median of the ``WINDOW`` samples on each side.
    """
    samples = np.asarray(boundary_s, dtype=np.float64)
    ops = samples.size - 1
    local = np.array(
        [np.median(samples[max(0, i - WINDOW + 1) : i + WINDOW + 1]) for i in range(ops)]
    )
    return KERNELS[name][1] / local
