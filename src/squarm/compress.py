"""Compression operators, their contraction factors, and message bit costs.

A compression operator C maps R^d -> R^d with C(0) = 0 and
E||x - C(x)||^2 <= (1 - omega) ||x||^2 for some omega in (0, 1]. Implemented
kinds:

  identity      C(x) = x                                   omega = 1
  top_k         keep the k largest-magnitude entries        omega = k/d
  rand_k        keep k uniform entries, no rescaling        omega = k/d
  qsgd          unbiased stochastic quantizer, s levels     omega = 1 - beta_{d,s}
                against ||x||_2                             (when beta_{d,s} < 1)
  scaled_sign   (||x||_1 / d) * sign(x)                     input-dependent
  sign_top_k    (||Top_k(x)||_1 / k) * sign on the Top_k    input-dependent
                support
  qsgd_top_k    Q_s(Top_k(x)) / (1 + beta_{k,s})            omega = k/(d (1+beta_{k,s}))

with beta_{d,s} = min{d/s^2, sqrt(d)/s}. For the two sign kinds omega depends
on the input vector, so omega_of returns None and callers must either supply
an explicit omega or measure one with estimate_contraction. (A closed form
for sign_top_k's omega exists in the literature,
max{1/d, (k/d) * ||Top_k(x)||_1^2 / (d ||Top_k(x)||_2^2)}, but its inner
denominator is suspect, so this module treats that kind as empirical-only.)

Top-k tie-breaking is lowest-index-wins, which makes top_k and its composed
kinds fully deterministic. sign(0) = 0 everywhere, preserving C(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

KINDS = (
    "identity",
    "top_k",
    "rand_k",
    "qsgd",
    "scaled_sign",
    "sign_top_k",
    "qsgd_top_k",
)

SPARSE_KINDS = ("top_k", "rand_k", "sign_top_k", "qsgd_top_k")
QUANT_KINDS = ("qsgd", "qsgd_top_k")


@dataclass(frozen=True)
class CompressorSpec:
    """Tagged description of one compression operator.

    k is the kept-coordinate count for sparsifying kinds, s the number of
    quantization levels for qsgd kinds, value_bits the width of each
    transmitted real.
    """

    kind: str
    k: int | None = None
    s: int | None = None
    value_bits: int = 32

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown compressor kind {self.kind!r}")
        if self.kind in SPARSE_KINDS:
            if self.k is None or self.k < 1:
                raise ParameterError(f"{self.kind} needs k >= 1")
        if self.kind in QUANT_KINDS:
            if self.s is None or self.s < 1:
                raise ParameterError(f"{self.kind} needs s >= 1")
        if self.value_bits < 1:
            raise ParameterError("value_bits must be >= 1")


@dataclass(frozen=True)
class CompressedMessage:
    """One encoded payload: support indices (or None for dense), values,
    and an optional common scale. decode() reproduces the transmitted
    d-vector exactly."""

    kind: str
    d: int
    support: np.ndarray | None
    values: np.ndarray
    scale: float | None


def _check_sparsifier(spec: CompressorSpec, d: int) -> int:
    if spec.k > d:
        raise ParameterError(f"k={spec.k} exceeds dimension d={d}")
    return spec.k


def _top_k_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Ascending positions of the k largest magnitudes of x; among equal
    magnitudes the lowest index wins, as in a stable sort on -|x|.

    A selection finds the k-th largest magnitude; every larger one is kept,
    and the lowest-index ties at it fill the rest."""
    mag = np.abs(x)
    kth = np.partition(mag, mag.size - k)[mag.size - k]
    keep = mag > kth
    ties = np.flatnonzero(mag == kth)
    keep[ties[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def _beta_ds(d: int, s: int) -> float:
    return min(d / s**2, math.sqrt(d) / s)


def _qsgd_levels(v: np.ndarray, s: int, rng: np.random.Generator):
    """Signed integer levels in [-s, s] and the scale ||v||_2 / s.

    Stochastic rounding between adjacent levels l/s and (l+1)/s keeps the
    quantizer unbiased; a zero vector maps to zero levels with scale 0.
    """
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros(v.shape[0]), 0.0
    r = np.abs(v) / norm * s
    low = np.floor(r)
    up = rng.random(v.shape[0]) < (r - low)
    levels = np.sign(v) * (low + up)
    return levels, norm / s


def compress(spec: CompressorSpec, x: np.ndarray, rng: np.random.Generator) -> CompressedMessage:
    """Apply the operator described by spec to x, using rng for random kinds."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ParameterError("input vector has non-finite entries")
    d = x.shape[0]
    kind = spec.kind
    support = None
    scale = None
    if kind in SPARSE_KINDS:
        k = _check_sparsifier(spec, d)
        if kind == "rand_k":
            support = np.sort(rng.choice(d, size=k, replace=False))
        else:
            support = _top_k_indices(x, k)

    if kind == "identity":
        values = x.copy()
    elif kind in ("top_k", "rand_k"):
        values = x[support]
    elif kind == "qsgd":
        values, scale = _qsgd_levels(x, spec.s, rng)
    elif kind == "scaled_sign":
        scale = float(np.abs(x).sum() / d)
        values = np.sign(x)
    elif kind == "sign_top_k":
        kept = x[support]
        scale = float(np.abs(kept).sum() / k)
        values = np.sign(kept)
    else:  # qsgd_top_k, the last kind CompressorSpec accepts
        values, qscale = _qsgd_levels(x[support], spec.s, rng)
        scale = qscale / (1.0 + _beta_ds(k, spec.s))

    return CompressedMessage(
        kind=kind,
        d=d,
        support=support,
        values=values,
        scale=scale,
    )


def decode(message: CompressedMessage) -> np.ndarray:
    """Reconstruct the transmitted d-vector from a message."""
    vals = message.values if message.scale is None else message.scale * message.values
    if message.support is None:
        return np.array(vals, dtype=float, copy=True)
    out = np.zeros(message.d)
    out[message.support] = vals
    return out


def omega_of(spec: CompressorSpec, d: int) -> float | None:
    """Formulaic contraction factor, or None for input-dependent kinds."""
    kind = spec.kind
    if kind == "identity":
        return 1.0
    if kind in ("top_k", "rand_k"):
        _check_sparsifier(spec, d)
        return spec.k / d
    if kind == "qsgd":
        beta = _beta_ds(d, spec.s)
        return 1.0 - beta if beta < 1.0 else None
    if kind == "qsgd_top_k":
        # E||x - C(x)||^2 <= (1 - k/(d (1+beta))) ||x||^2, so this is omega.
        k = _check_sparsifier(spec, d)
        return k / (d * (1.0 + _beta_ds(k, spec.s)))
    return None  # scaled_sign, sign_top_k


def estimate_contraction(
    spec: CompressorSpec, d: int, trials: int, rng: np.random.Generator
) -> float:
    """Empirical mean of ||x - C(x)||^2 / ||x||^2 over standard-normal draws.

    For kinds with formulaic omega the mean must come out <= (1 - omega)
    plus Monte-Carlo slack.
    """
    if trials < 100:
        raise ParameterError("trials must be >= 100")
    total = 0.0
    for _ in range(trials):
        x = rng.standard_normal(d)
        err = x - decode(compress(spec, x, rng))
        total += float(err @ err) / float(x @ x)
    return total / trials


def _bit_cost_formula(spec: CompressorSpec, d: int) -> int:
    index_bits = (d - 1).bit_length()  # ceil(log2 d)
    vb = spec.value_bits
    kind = spec.kind
    if kind == "identity":
        return d * vb
    if kind in ("top_k", "rand_k"):
        return spec.k * (index_bits + vb)
    if kind == "scaled_sign":
        return d + vb  # sign bitmap + one scale
    if kind == "sign_top_k":
        return spec.k * index_bits + spec.k + vb
    level_bits = (2 * spec.s).bit_length()  # ceil(log2 (2s+1)) signed levels
    if kind == "qsgd":
        return d * level_bits + vb
    return spec.k * (index_bits + level_bits) + vb  # qsgd_top_k


def bit_cost(spec: CompressorSpec, d: int, message: CompressedMessage) -> int:
    """Bits on the wire for one message under spec's encoding."""
    if message.kind != spec.kind:
        raise ParameterError(
            f"message kind {message.kind!r} does not match spec kind {spec.kind!r}"
        )
    if message.d != d:
        raise ParameterError(f"message dimension {message.d} != {d}")
    return _bit_cost_formula(spec, d)
