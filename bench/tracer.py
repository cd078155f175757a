"""Span tracer that times maskgrpo's public functions from outside.

``install`` replaces each target function, in every loaded ``maskgrpo``
module that holds it, with a wrapper that records one span per call: name,
start, end and the span that was open when the call began.  Modules import
with ``from .x import name``, so a function has one binding per importing
module and each binding is replaced.  Spans are recorded only while
``Tracer.active`` is set, which the workloads set around their timed ops;
calls made by the benchmark's own checks are not counted.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Each label is "<home module>.<function>".  A function a later change moves
# to another module of the package is still found through any module that
# binds its name; a name that no module binds any more is reported as absent.
TARGETS = (
    "canvas.apply_step",
    "transition.step_logprob",
    "transition.step_logprob_upstream",
    "transition.enumerate_next_states",
    "decoder.sample_step",
    "decoder.cam_select",
    "decoder.rollout",
    "policy.policy_forward",
    "policy.policy_forward_cached",
    "policy.policy_backward",
    "grpo.grpo_loss_and_grad",
    "grpo.adam_step",
    "filtering.admit",
    "harness.run_verify",
    "harness.run_gradcheck",
)
# The reward function reaches the trainer through ``TrainSetup.reward_fn``,
# which the workload wraps under this label.
REWARDS = "rewards"
LABELS = TARGETS + (REWARDS,)


class Tracer:
    """In-memory span recorder plus counters observed at the same boundaries."""

    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.active = False
        self.absent: list[str] = []
        self.flop = 0.0
        self.admitted = 0
        self.accepted = 0

    def _label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def wrap(self, label: str, fn, observe=None):
        """Return ``fn`` wrapped so that each active call records a span."""
        ident = self._label_id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name.append(ident)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, tuple[int, float]]:
        """Label -> (calls, self seconds) over every recorded span."""
        calls, self_s = self_times(self.name, self.start, self.end, self.parent, len(self.labels))
        return {label: (int(calls[i]), float(self_s[i])) for i, label in enumerate(self.labels)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def self_times(name, start, end, parent, num_labels: int):
    """Per-label call counts and self times.

    A span's self time is its duration minus the durations of its direct
    children.  Spans come from single-threaded nested calls, so children of
    one parent never overlap and their durations add.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    child = np.zeros(dur.size)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    calls = np.bincount(name, minlength=num_labels)
    self_s = np.bincount(name, weights=dur - child, minlength=num_labels)
    return calls, self_s


def _forward_flop(arch) -> float:
    # x @ W1 and h @ W2, two flops per multiply-add.
    return 2.0 * arch.hidden * (arch.input_dim + arch.output_dim)


def _backward_flop(arch) -> float:
    # outer(h, dlogits), W2 @ dlogits and outer(x, dpre), each accumulated.
    return 2.0 * arch.hidden * (arch.input_dim + 2 * arch.output_dim)


def _count_forward(tracer, args, kwargs, result):
    tracer.flop += _forward_flop(args[0].arch)


def _count_backward(tracer, args, kwargs, result):
    cache = args[5] if len(args) > 5 else kwargs.get("cache")
    arch = args[0].arch
    tracer.flop += _backward_flop(arch) + (_forward_flop(arch) if cache is None else 0.0)


def _count_admit(tracer, args, kwargs, result):
    tracer.admitted += 1
    tracer.accepted += int(result.value == "accept")


OBSERVERS = {
    "policy.policy_forward": _count_forward,
    "policy.policy_forward_cached": _count_forward,
    "policy.policy_backward": _count_backward,
    "filtering.admit": _count_admit,
}


def install(tracer: Tracer, package: str = "maskgrpo") -> None:
    """Wrap every target in each loaded module of ``package``.

    Import every module that should be traced before calling this: only
    bindings that exist now are replaced.
    """
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]
    for label in TARGETS:
        home, attr = label.rsplit(".", 1)
        candidates = [sys.modules.get(f"{package}.{home}")] + modules
        original = next(
            (getattr(m, attr) for m in candidates if m is not None and callable(getattr(m, attr, None))),
            None,
        )
        if original is None:
            tracer.absent.append(label)
            continue
        wrapper = tracer.wrap(label, original, OBSERVERS.get(label))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
