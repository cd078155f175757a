"""Differentiable categorical policy over masked canvas positions.

A single-hidden-layer tanh network maps the whole canvas (one-hot over
``K + 1`` categories per position, so the mask itself is visible) plus the
prompt embedding to one logit row per position.  Rows for currently masked
positions, tempered and log-softmaxed, form the per-step prediction
distribution.  Every prediction therefore conditions on all unmasked tokens.

Probabilities live in log space; linear-space copies are produced through a
``exp(max(logp, -80))`` clamp so that downstream products over many positions
never underflow to zero.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .canvas import CanvasState, Prompt

__all__ = [
    "PolicyArch",
    "PolicyParams",
    "ProbMatrix",
    "init_params",
    "policy_forward",
    "policy_backward",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "BadMagicError",
    "VersionError",
    "TruncatedError",
    "ArchMismatchError",
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
        if min(self.length, self.hidden, self.embed) < 1 or self.num_categories < 2:
            raise ValueError("invalid architecture sizes")

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

    def _views(self):
        """(W1, b1, W2, b2) views into the flat vector, shared memory."""
        return _views_of(self.params, self.arch)

    def _grad_views(self):
        return _views_of(self.grads, self.arch)


def _views_of(vec: np.ndarray, arch: PolicyArch):
    d, h, o = arch.input_dim, arch.hidden, arch.output_dim
    i = 0
    w1 = vec[i : i + d * h].reshape(d, h)
    i += d * h
    b1 = vec[i : i + h]
    i += h
    w2 = vec[i : i + h * o].reshape(h, o)
    i += h * o
    b2 = vec[i : i + o]
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
    entry is strictly positive for policy-produced matrices.  Those also keep
    the activations that produced them (``features``, ``hidden``,
    ``temperature``) for :func:`policy_backward`.  Matrices built with
    :meth:`from_rows` (tests, oracles) have none and may carry exact zeros.
    """

    rows: np.ndarray
    log_rows: np.ndarray
    positions: np.ndarray
    features: np.ndarray | None = None
    hidden: np.ndarray | None = None
    temperature: float | None = None

    @classmethod
    def from_rows(cls, rows, positions=None) -> "ProbMatrix":
        """Wrap explicit probability rows, checked here (exact zeros allowed)."""
        rows = np.asarray(rows, dtype=np.float64)
        positions = np.asarray(
            np.arange(rows.shape[0]) if positions is None else positions, dtype=np.int64
        )
        if rows.ndim != 2 or rows.shape[0] != positions.size:
            raise ValueError("one probability row per masked position required")
        if np.any(rows < 0.0) or np.any(rows > 1.0 + 1e-12):
            raise ValueError("probabilities out of [0, 1]")
        if np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-12):
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


def _encode_input(arch: PolicyArch, state: CanvasState, prompt: Prompt) -> np.ndarray:
    if state.length != arch.length or state.num_categories != arch.num_categories:
        raise ValueError("canvas does not match policy architecture")
    if prompt.embedding.size != arch.embed:
        raise ValueError("prompt embedding width does not match policy architecture")
    kp1 = arch.num_categories + 1
    x = np.zeros(arch.input_dim)
    x[np.arange(arch.length) * kp1 + state.tokens] = 1.0
    x[arch.length * kp1 :] = prompt.embedding
    return x


def policy_forward(
    params: PolicyParams, state: CanvasState, prompt: Prompt, temperature: float = 1.0
) -> ProbMatrix:
    """One tempered softmax row per masked position; pure in all inputs.

    Rows are a softmax of logits checked finite here, so need no row checks.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    masked = state.masked_positions()
    if masked.size == 0:
        raise ValueError("no masked positions to predict")
    x = _encode_input(params.arch, state, prompt)
    w1, b1, w2, b2 = params._views()
    h = np.tanh(x @ w1 + b1)
    logits = (h @ w2 + b2).reshape(params.arch.length, params.arch.num_categories)
    z = logits[masked] / temperature
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    z -= z.max(axis=1, keepdims=True)
    log_rows = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.exp(np.maximum(log_rows, LOGP_CLAMP))
    return ProbMatrix(rows, log_rows, masked, features=x, hidden=h, temperature=temperature)


def policy_backward(params: PolicyParams, probs: ProbMatrix, upstream: np.ndarray) -> None:
    """Accumulate d(sum upstream * logp)/dparams into ``params.grads``.

    ``probs`` is a :func:`policy_forward` result, whose activations are
    reused; ``upstream`` holds one coefficient per (masked row, token).  The
    softmax Jacobian and both linear layers are applied analytically.
    """
    if probs.hidden is None:
        raise ValueError("policy_backward needs a matrix made by policy_forward")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != probs.log_rows.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"log-prob rows {probs.log_rows.shape}"
        )
    arch = params.arch
    # d logp_k / d z_j = delta_kj - p_j, applied row-wise; then undo temperature.
    dz = upstream - probs.rows * upstream.sum(axis=1, keepdims=True)
    dlogits = np.zeros((arch.length, arch.num_categories))
    dlogits[probs.positions] = dz / probs.temperature
    dflat = dlogits.reshape(-1)

    gw1, gb1, gw2, gb2 = params._grad_views()
    w1, _, w2, _ = params._views()
    gw2 += np.outer(probs.hidden, dflat)
    gb2 += dflat
    dh = w2 @ dflat
    dpre = (1.0 - probs.hidden**2) * dh
    gw1 += np.outer(probs.features, dpre)
    gb1 += dpre


class CheckpointError(Exception):
    """Base class for checkpoint file problems."""


class BadMagicError(CheckpointError):
    pass


class VersionError(CheckpointError):
    pass


class TruncatedError(CheckpointError):
    pass


class ArchMismatchError(CheckpointError):
    pass


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
        raise TruncatedError(f"{path}: file shorter than header")
    magic, version, n, k, hidden, embed, count = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise VersionError(f"{path}: unsupported format version {version}")
    arch = PolicyArch(length=n, num_categories=k, hidden=hidden, embed=embed)
    if count != arch.param_count:
        raise TruncatedError(
            f"{path}: header declares {count} params, architecture needs {arch.param_count}"
        )
    body = raw[_HEADER.size :]
    if len(body) != 8 * count:
        raise TruncatedError(
            f"{path}: expected {8 * count} payload bytes, found {len(body)}"
        )
    if expect_arch is not None and arch != expect_arch:
        raise ArchMismatchError(f"{path}: checkpoint arch {arch} != expected {expect_arch}")
    params = np.frombuffer(body, dtype="<f8").astype(np.float64)
    return PolicyParams(arch=arch, params=params, grads=np.zeros(count))
