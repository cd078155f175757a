"""Differentiable categorical policy over masked canvas positions.

A single-hidden-layer tanh network maps the whole canvas (one-hot over
``K + 1`` categories per position, so the mask itself is visible) plus the
prompt embedding to one logit row per position.  Rows for currently masked
positions, tempered and log-softmaxed, form the per-step prediction
distribution.  Every prediction therefore conditions on all unmasked tokens.
Forward and backward run over a batch of canvases, each layer as one matrix
product; a single canvas is the batch of one.  A batch is checked and
encoded once (``encode_batch``), and its layers can then run at any
parameters of the same architecture (``forward_encoded``).

Probabilities live in log space; linear-space copies are produced through a
``exp(max(logp, -80))`` clamp so that downstream products over many positions
never underflow to zero.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .canvas import CanvasState, Prompt

__all__ = [
    "PolicyArch",
    "PolicyParams",
    "ProbMatrix",
    "PolicyBatch",
    "PolicyInputs",
    "init_params",
    "encode_batch",
    "forward_encoded",
    "policy_forward",
    "policy_backward",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

LOGP_CLAMP = -80.0


@dataclass(frozen=True)
class PolicyArch:
    """Shape of the network: canvas length, categories, hidden and embed widths."""

    length: int
    num_categories: int
    hidden: int = 64
    embed: int = 16

    def __post_init__(self):
        for name, least in (("length", 1), ("num_categories", 2), ("hidden", 1), ("embed", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")

    @property
    def input_dim(self) -> int:
        return self.length * (self.num_categories + 1) + self.embed

    @property
    def output_dim(self) -> int:
        return self.length * self.num_categories

    @property
    def param_count(self) -> int:
        d, h, o = self.input_dim, self.hidden, self.output_dim
        return d * h + h + h * o + o


@dataclass
class PolicyParams:
    """Flat 64-bit parameter vector plus a same-shape gradient accumulator."""

    arch: PolicyArch
    params: np.ndarray
    grads: np.ndarray

    def __post_init__(self):
        expected = self.arch.param_count
        if self.params.shape != (expected,) or self.grads.shape != (expected,):
            raise ValueError(
                f"parameter vector must have length {expected}, "
                f"got {self.params.shape} / {self.grads.shape}"
            )
        if not np.all(np.isfinite(self.params)):
            raise ValueError("non-finite parameter values")

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.arch, self.params.copy(), self.grads.copy())

    def zero_grads(self) -> None:
        self.grads.fill(0.0)


def _views_of(vec: np.ndarray, arch: PolicyArch):
    """(W1, b1, W2, b2) views into a ``(P,)`` vector or a ``(C, P)`` stack, sharing its memory."""
    d, h, o = arch.input_dim, arch.hidden, arch.output_dim
    lead = vec.shape[:-1]
    i = 0
    w1 = vec[..., i : i + d * h].reshape(*lead, d, h)
    i += d * h
    b1 = vec[..., i : i + h]
    i += h
    w2 = vec[..., i : i + h * o].reshape(*lead, h, o)
    i += h * o
    b2 = vec[..., i : i + o]
    return w1, b1, w2, b2


def init_params(arch: PolicyArch, seed: int) -> PolicyParams:
    """Weights uniform in +-1/sqrt(fan_in), biases zero, from a seeded stream."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    params = np.zeros(arch.param_count)
    w1, b1, w2, b2 = _views_of(params, arch)
    w1[:] = rng.uniform(-1.0, 1.0, size=w1.shape) / np.sqrt(arch.input_dim)
    w2[:] = rng.uniform(-1.0, 1.0, size=w2.shape) / np.sqrt(arch.hidden)
    del b1, b2
    return PolicyParams(arch=arch, params=params, grads=np.zeros(arch.param_count))


@dataclass(frozen=True)
class ProbMatrix:
    """Per-masked-position token distributions, in canvas order.

    ``log_rows`` is canonical; ``rows`` is its clamped exponential, so every
    entry is strictly positive for policy-produced matrices.  Matrices built
    with :meth:`from_rows` (tests, oracles) may carry exact zeros.
    """

    rows: np.ndarray
    log_rows: np.ndarray
    positions: np.ndarray

    @classmethod
    def from_rows(cls, rows, positions=None) -> "ProbMatrix":
        """Wrap explicit probability rows, checked here (exact zeros allowed).

        Every check is a comparison that NaN fails, so non-finite rows are refused.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if positions is None:
            if rows.ndim != 2:
                raise ValueError("one probability row per masked position required")
            positions = np.arange(rows.shape[0])
        else:
            positions = np.asarray(positions, dtype=np.int64)
            if rows.ndim != 2 or rows.shape[0] != positions.size:
                raise ValueError("one probability row per masked position required")
            if positions.ndim != 1 or (positions < 0).any() or (np.diff(positions) <= 0).any():
                raise ValueError(f"positions {positions.tolist()} must be >= 0 and strictly increasing")
        if not (rows.min(initial=0.0) >= 0.0 and rows.max(initial=0.0) <= 1.0 + 1e-12):
            raise ValueError("probabilities out of [0, 1] or not finite")
        if not (np.abs(rows.sum(axis=1) - 1.0) <= 1e-12).all():
            raise ValueError("probability rows must sum to 1")
        with np.errstate(divide="ignore"):
            log_rows = np.log(rows)
        return cls(rows=rows, log_rows=log_rows, positions=positions)

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def num_categories(self) -> int:
        return self.rows.shape[1]


class PolicyInputs(NamedTuple):
    """Checked, encoded canvases (``features``, ``(B, d)``) and their row layout.

    Prediction rows are stacked in canvas order, one per masked position:
    rows ``start[b]:start[b + 1]`` belong to canvas ``b``, and row ``r``
    predicts position ``positions[r]`` of its canvas, which is row
    ``index[r]`` of the batch's ``(B * N, K)`` logits.
    """

    arch: PolicyArch
    features: np.ndarray
    index: np.ndarray
    positions: np.ndarray
    start: list[int]
    temperature: np.ndarray


class PolicyBatch(NamedTuple):
    """One forward pass, kept for :func:`policy_backward`: the hidden layer
    ``(B, h)`` and the prediction rows, laid out as ``inputs`` describes."""

    inputs: PolicyInputs
    hidden: np.ndarray
    rows: np.ndarray
    log_rows: np.ndarray

    def probs(self, b: int) -> ProbMatrix:
        """The prediction rows of canvas ``b``, as views into the batch."""
        rows = slice(*self.inputs.start[b : b + 2])
        return ProbMatrix(self.rows[rows], self.log_rows[rows], self.inputs.positions[rows])


def encode_batch(
    arch: PolicyArch, states: Sequence[CanvasState], prompts: Sequence[Prompt], temperatures: Sequence[float]
) -> PolicyInputs:
    """Check canvases, prompts and temperatures against ``arch`` and encode them once."""
    n, k = arch.length, arch.num_categories
    if not len(states) == len(prompts) == len(temperatures) > 0:
        raise ValueError("one prompt and one temperature per canvas required")
    if not all(0.0 < t < np.inf for t in temperatures):
        raise ValueError("temperature must be positive")
    if any(s.length != n or s.num_categories != k for s in states):
        raise ValueError("canvas does not match policy architecture")
    if any(p.embedding.size != arch.embed for p in prompts):
        raise ValueError("prompt embedding width does not match policy architecture")
    b = len(states)
    index = np.concatenate([s.mask_flags for s in states]).nonzero()[0]
    start = index.searchsorted(np.arange(0, (b + 1) * n, n)).tolist()
    if any(lo == hi for lo, hi in zip(start, start[1:])):
        raise ValueError("no masked positions to predict")
    tokens = np.array([s.tokens for s in states])
    x = np.zeros((b, arch.input_dim))
    x[np.arange(b)[:, None], np.arange(0, n * (k + 1), k + 1) + tokens] = 1.0
    x[:, n * (k + 1) :] = [p.embedding for p in prompts]
    temperature = np.asarray(temperatures, dtype=np.float64)
    return PolicyInputs(arch, x, index, index % n, start, temperature)


def forward_encoded(params: PolicyParams, inputs: PolicyInputs) -> PolicyBatch:
    """The layers at ``params`` on encoded canvases, each one matrix product.

    Rows are a softmax of logits checked finite here, so need no row checks.
    """
    if inputs.arch is not params.arch and inputs.arch != params.arch:
        raise ValueError("encoded canvases do not match policy architecture")
    return _layers(params.params, inputs)


def _row_extreme(a: np.ndarray, ufunc) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)`` for ``np.maximum`` or ``np.minimum``, column by column.

    A reduction over a short last axis costs about 50 ns a row; one
    elementwise call per column costs about 1 us whatever the row count.
    Max and min are exact, so only the sign of a zero result can differ, in
    a row holding both +0.0 and -0.0.  The callers never see it: a softmax
    shift by either zero gives the same log-probabilities, and confidences
    are positive.
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out


def _layers(vec: np.ndarray, inputs: PolicyInputs) -> PolicyBatch:
    """The layers at one parameter vector ``(P,)`` or at each of a ``(C, P)`` stack.

    A stack gives every array of the batch a leading copy axis: ``hidden``
    ``(C, B, h)`` and the rows ``(C, R, K)``; copy ``c`` equals the forward
    at ``vec[c]`` bit for bit.  A non-finite logit in any copy raises.
    """
    arch = inputs.arch
    w1, b1, w2, b2 = _views_of(vec, arch)
    h = np.tanh(inputs.features @ w1 + b1[..., None, :])
    z = (h @ w2 + b2[..., None, :]) / inputs.temperature[:, None]
    z = z.reshape(*vec.shape[:-1], -1, arch.num_categories).take(inputs.index, axis=-2)
    if not np.isfinite(z).all():
        raise ValueError("non-finite logits")
    z -= _row_extreme(z, np.maximum)[..., None]
    log_rows = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    rows = np.exp(np.maximum(log_rows, LOGP_CLAMP))
    return PolicyBatch(inputs, h, rows, log_rows)


def policy_forward(
    params: PolicyParams, state: CanvasState, prompt: Prompt, temperature: float = 1.0
) -> ProbMatrix:
    """One tempered softmax row per masked position of one canvas."""
    return forward_encoded(params, encode_batch(params.arch, [state], [prompt], [temperature])).probs(0)


def policy_backward(params: PolicyParams, batch: PolicyBatch, upstream) -> None:
    """Accumulate d(sum upstream * batch.log_rows)/dparams into ``params.grads``.

    ``upstream`` holds one coefficient per (prediction row, token) of the
    batch, shaped like ``batch.log_rows``.  The softmax Jacobian and both
    linear layers are applied analytically, each layer as one matrix product
    over the whole batch.
    """
    if not isinstance(batch, PolicyBatch):
        raise ValueError("policy_backward needs the PolicyBatch of forward_encoded")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != batch.log_rows.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"log-prob rows {batch.log_rows.shape}"
        )
    arch = params.arch
    b = batch.hidden.shape[0]
    # d logp_k / d z_j = delta_kj - p_j, applied row-wise; then undo temperature.
    dz = upstream - batch.rows * upstream.sum(axis=1, keepdims=True)
    dlogits = np.zeros((b * arch.length, arch.num_categories))
    dlogits[batch.inputs.index] = dz / batch.inputs.temperature[batch.inputs.index // arch.length, None]
    dlogits = dlogits.reshape(b, -1)
    gw1, gb1, gw2, gb2 = _views_of(params.grads, arch)
    _, _, w2, _ = _views_of(params.params, arch)
    gw2 += batch.hidden.T @ dlogits
    gb2 += dlogits.sum(axis=0)
    dpre = (1.0 - batch.hidden**2) * (dlogits @ w2.T)
    gw1 += batch.inputs.features.T @ dpre
    gb1 += dpre.sum(axis=0)


class CheckpointError(Exception):
    """A checkpoint file that cannot be loaded; the message says why."""


_MAGIC = b"MGPO"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIIIQ")


def save_checkpoint(params: PolicyParams, path: str) -> None:
    """Write params atomically: magic, version, arch, count, little-endian f64."""
    arch = params.arch
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        arch.length,
        arch.num_categories,
        arch.hidden,
        arch.embed,
        params.params.size,
    )
    payload = params.params.astype("<f8").tobytes()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str, expect_arch: PolicyArch | None = None) -> PolicyParams:
    """Read a checkpoint; round-trips bit-exactly with :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"{path}: file shorter than header")
    magic, version, n, k, hidden, embed, count = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    try:
        arch = PolicyArch(length=n, num_categories=k, hidden=hidden, embed=embed)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if count != arch.param_count:
        raise CheckpointError(
            f"{path}: header declares {count} params, architecture needs {arch.param_count}"
        )
    body = raw[_HEADER.size :]
    if len(body) != 8 * count:
        raise CheckpointError(
            f"{path}: expected {8 * count} payload bytes, found {len(body)}"
        )
    if expect_arch is not None and arch != expect_arch:
        raise CheckpointError(f"{path}: checkpoint arch {arch} != expected {expect_arch}")
    params = np.frombuffer(body, dtype="<f8").astype(np.float64)
    try:
        return PolicyParams(arch=arch, params=params, grads=np.zeros(count))
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
