"""Flat key-value run configuration and its resolution into RunConfig.

Configs are flat JSON objects with dotted keys ("topology.kind": "ring").
Every key can be overridden by a --key=value command-line flag; flags win.
Unknown keys are rejected with a message naming the key, and so are values
that do not fit a key's declared type (TYPES) or fall below its MINIMUM.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import objective as obj_ops
from . import schedule as sched
from .compress import CompressorSpec, omega_of
from .engine import RunConfig, seed_streams
from .errors import ConfigError, SquarmError
from .topology import MixingMatrix, build_complete, build_custom, build_ring

DEFAULTS = {
    "topology.kind": "ring",
    "topology.n": 8,
    "topology.self_weight": 1.0 / 3.0,
    "objective.kind": "quadratic",
    "objective.d": 20,
    "objective.noise_sigma": 0.0,
    "objective.mu": 1.0,
    "objective.L": 10.0,
    "objective.hetero_scale": 1.0,
    "objective.samples_per_node": 32,
    "objective.batch_size": 1,
    "objective.alpha": 0.1,
    "objective.l2_reg": 0.01,
    "objective.partition_mode": "iid",
    "compressor.kind": "identity",
    "compressor.value_bits": 32,
    "lr.kind": "auto_constant",
    "gamma.kind": "explicit",
    "gamma.value": 1.0,
    "threshold.kind": "always",
    "H": 1,
    "T": 1000,
    "beta": 0.0,
    "seed": 0,
    "variant": "full_copy",
    "accounting": "broadcast",
    "diagnostics": True,
    "parallel": False,
    "x0_scale": 0.0,
}

_OPTIONAL = {
    "topology.edges",
    "topology.edge_weights",
    "topology.self_weights",
    "objective.dataset_path",
    "compressor.k",
    "compressor.k_frac",
    "compressor.s",
    "lr.eta",
    "lr.b",
    "lr.a",
    "lr.mu",
    "gamma.omega",
    "threshold.c0",
    "threshold.epsilon",
    "threshold.init",
    "threshold.step",
    "threshold.period",
    "eval_every",
    "grad_clip",
    "trace",
}

KNOWN_KEYS = set(DEFAULTS) | _OPTIONAL

# declared type of every numeric or boolean key; the others hold strings
# (kinds, modes, paths) or the custom topology's lists
TYPES: dict[str, type] = {
    "topology.n": int,
    "topology.self_weight": float,
    "objective.d": int,
    "objective.noise_sigma": float,
    "objective.mu": float,
    "objective.L": float,
    "objective.hetero_scale": float,
    "objective.samples_per_node": int,
    "objective.batch_size": int,
    "objective.alpha": float,
    "objective.l2_reg": float,
    "compressor.k": int,
    "compressor.k_frac": float,
    "compressor.s": int,
    "compressor.value_bits": int,
    "lr.eta": float,
    "lr.b": float,
    "lr.a": float,
    "lr.mu": float,
    "gamma.value": float,
    "gamma.omega": float,
    "threshold.c0": float,
    "threshold.epsilon": float,
    "threshold.init": float,
    "threshold.step": float,
    "threshold.period": int,
    "H": int,
    "T": int,
    "beta": float,
    "seed": int,
    "eval_every": int,
    "grad_clip": float,
    "x0_scale": float,
    "diagnostics": bool,
    "parallel": bool,
    "trace": bool,
}


# counts that must be at least this large
MINIMUM: dict[str, int] = {
    "topology.n": 1,
    "objective.d": 1,
    "objective.samples_per_node": 1,
    "objective.batch_size": 1,
    "H": 1,
    "T": 1,
}


def merged(*layers: dict) -> dict:
    """Apply config layers left to right (later layers win) over defaults."""
    out = dict(DEFAULTS)
    for layer in layers:
        for key, value in layer.items():
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            out[key] = value
    return out


def _coerce(key: str, value):
    """value as key's declared type and within its MINIMUM; a ConfigError
    naming the key if it is not.

    None (unset) is kept for keys without a default."""
    kind = TYPES.get(key)
    if kind is None or (value is None and key not in DEFAULTS):
        return value
    out = _as(kind, key, value)
    if key in MINIMUM and out < MINIMUM[key]:
        raise ConfigError(f"{key}: must be >= {MINIMUM[key]}, got {out}")
    return out


def _as(kind: type, key: str, value):
    """value as kind; a ConfigError naming the key if it is not one.

    Integers accept integral floats and digit strings, floats must be
    finite, booleans accept true/false and 1/0."""
    expected = f"{key}: expected {'a finite number' if kind is float else kind.__name__}, got {value!r}"
    if kind is bool:
        if value in (0, 1) and not isinstance(value, str):
            return bool(value)
        raise ConfigError(expected)
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(expected)
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(expected) from None
    if not math.isfinite(out):
        raise ConfigError(expected)
    return out


def _as_edge(key: str, value) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{key}: expected [i, j] pairs, got {value!r}")
    return _as(int, key, value[0]), _as(int, key, value[1])


def _entries(flat: dict, key: str, length: int | None, convert) -> list:
    """The list at key, with length entries if given, each passed through
    convert(key, entry); a ConfigError naming the key if it is not one."""
    value = _require(flat, key)
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = "" if length is None else f" of {length} entries"
        raise ConfigError(f"{key}: expected a list{size}, got {value!r}")
    return [convert(key, entry) for entry in value]


def _require(flat: dict, key: str):
    if key not in flat or flat[key] is None:
        raise ConfigError(f"missing config key {key!r}")
    return flat[key]


def _build_topology(flat: dict) -> MixingMatrix:
    kind = flat["topology.kind"]
    n = flat["topology.n"]
    if kind == "ring":
        return build_ring(n, flat["topology.self_weight"])
    if kind == "complete":
        return build_complete(n)
    if kind == "custom":
        edges = _entries(flat, "topology.edges", None, _as_edge)
        as_float = partial(_as, float)
        return build_custom(
            n,
            edges,
            _entries(flat, "topology.edge_weights", len(edges), as_float),
            _entries(flat, "topology.self_weights", n, as_float),
        )
    raise ConfigError(f"unknown topology.kind {kind!r}")


def _build_objective(flat: dict, rng: np.random.Generator) -> obj_ops.ObjectiveSet:
    kind = flat["objective.kind"]
    n = flat["topology.n"]
    d = flat["objective.d"]
    if kind == "quadratic":
        return obj_ops.quadratic_objective(
            n,
            d,
            rng,
            mu=flat["objective.mu"],
            L=flat["objective.L"],
            noise_sigma=flat["objective.noise_sigma"],
            hetero_scale=flat["objective.hetero_scale"],
        )
    if kind in ("least_squares", "least_squares_nonconvex", "logistic_l2"):
        path = flat.get("objective.dataset_path")
        if path:
            features, targets = obj_ops.load_dataset(path)
            shards_x, shards_y = obj_ops.partition_heterogeneous(
                features, targets, n, flat["objective.partition_mode"], rng
            )
            return obj_ops.from_shards(
                kind,
                shards_x,
                shards_y,
                batch_size=flat["objective.batch_size"],
                alpha=flat["objective.alpha"],
                l2_reg=flat["objective.l2_reg"],
            )
        if kind == "logistic_l2":
            return obj_ops.logistic_objective(
                n,
                d,
                flat["objective.samples_per_node"],
                rng,
                l2_reg=flat["objective.l2_reg"],
                batch_size=flat["objective.batch_size"],
            )
        return obj_ops.least_squares_objective(
            n,
            d,
            flat["objective.samples_per_node"],
            rng,
            batch_size=flat["objective.batch_size"],
            alpha=flat["objective.alpha"],
            nonconvex=(kind == "least_squares_nonconvex"),
        )
    raise ConfigError(f"unknown objective.kind {kind!r}")


def _build_compressor(flat: dict, d: int) -> CompressorSpec:
    kind = flat["compressor.kind"]
    k = flat.get("compressor.k")
    if k is None and flat.get("compressor.k_frac") is not None:
        k = max(1, round(flat["compressor.k_frac"] * d))
    if k is not None and k > d:
        raise ConfigError(f"compressor.k: k={k} exceeds dimension d={d}")
    try:
        return CompressorSpec(
            kind=kind,
            k=k,
            s=flat.get("compressor.s"),
            value_bits=flat["compressor.value_bits"],
        )
    except SquarmError as exc:
        raise ConfigError(f"compressor.kind: {exc}") from exc


def _resolve_gamma(flat: dict, topo: MixingMatrix, comp: CompressorSpec, d: int) -> float:
    kind = flat["gamma.kind"]
    if kind == "explicit":
        return _require(flat, "gamma.value")
    omega = flat.get("gamma.omega")
    if omega is None:
        omega = omega_of(comp, d)
    if omega is None:
        raise ConfigError(
            "gamma.omega: compressor has no formulaic omega; supply gamma.omega "
            "explicitly or use gamma.kind=explicit"
        )
    if kind == "auto_relaxed":
        return sched.gamma_relaxed(topo.delta, omega, topo.lambda_dev)
    if kind == "auto_strong":
        return sched.gamma_strong(topo.delta, omega, topo.lambda_dev)
    raise ConfigError(f"unknown gamma.kind {kind!r}")


def _resolve_lr(
    flat: dict,
    obj: obj_ops.ObjectiveSet,
    topo: MixingMatrix,
    gamma: float,
    warnings: list[str],
) -> sched.LrSchedule:
    kind = flat["lr.kind"]
    beta = flat["beta"]
    n, T, H = flat["topology.n"], flat["T"], flat["H"]
    if kind == "constant":
        return sched.LrSchedule(kind="constant", eta=_require(flat, "lr.eta"), beta=beta)
    if kind == "auto_constant":
        eta = sched.constant_lr(n, T, beta)
        min_T = sched.min_T_nonconvex(obj.L, n, beta)
        if T < min_T:
            warnings.append(f"T={T} below the non-convex admissibility minimum {min_T:.0f}")
        return sched.LrSchedule(kind="constant", eta=eta, beta=beta)
    if kind == "decaying":
        return sched.LrSchedule(
            kind="decaying",
            b=_require(flat, "lr.b"),
            a=_require(flat, "lr.a"),
            beta=beta,
        )
    if kind == "auto_decaying":
        mu = flat.get("lr.mu")
        mu = mu if mu is not None else obj.mu
        if mu <= 0:
            raise ConfigError("lr.mu: decaying schedule needs mu > 0")
        p = sched.p_of(gamma, topo.delta)
        a_min = sched.min_a_strongly_convex(H, p, obj.L, mu, beta)
        a = flat.get("lr.a")
        a = a if a is not None else a_min
        if a < a_min:
            warnings.append(f"lr.a={a:.1f} below the admissibility minimum {a_min:.1f}")
        return sched.decaying_schedule(mu, beta, a)
    raise ConfigError(f"unknown lr.kind {kind!r}")


def _build_threshold(flat: dict) -> sched.ThresholdSchedule:
    kind = flat["threshold.kind"]
    if kind in ("always", "never"):
        return sched.ThresholdSchedule(kind=kind)
    if kind in ("poly", "const_eta"):
        return sched.ThresholdSchedule(
            kind=kind,
            c0=_require(flat, "threshold.c0"),
            epsilon=_require(flat, "threshold.epsilon"),
        )
    if kind == "piecewise":
        return sched.ThresholdSchedule(
            kind=kind,
            init=_require(flat, "threshold.init"),
            step=_require(flat, "threshold.step"),
            period=_require(flat, "threshold.period"),
        )
    raise ConfigError(f"unknown threshold.kind {kind!r}")


def build_run_config(flat: dict) -> tuple[RunConfig, list[str]]:
    """Resolve a merged flat config into a RunConfig plus non-fatal warnings."""
    raw = flat
    flat = {key: _coerce(key, value) for key, value in flat.items()}
    warnings: list[str] = []
    topo = _build_topology(flat)
    data_rng, _, _ = seed_streams(flat["seed"], flat["topology.n"])
    obj = _build_objective(flat, data_rng)
    comp = _build_compressor(flat, obj.d)
    gamma = _resolve_gamma(flat, topo, comp, obj.d)
    lr = _resolve_lr(flat, obj, topo, gamma, warnings)
    threshold = _build_threshold(flat)
    if threshold.kind == "poly" and threshold.epsilon <= 0:
        raise ConfigError("threshold.epsilon: poly thresholds need epsilon > 0")
    if lr.kind == "decaying":
        p = gamma * topo.delta / 8.0
        if lr.a < 5 * flat["H"] / p:
            warnings.append(
                "lr.a below 5H/p; the step-size ratio eta_t <= 2 eta_{t+H} may fail"
            )
    cfg = RunConfig(
        topology=topo,
        objective=obj,
        compressor=comp,
        lr=lr,
        threshold=threshold,
        gamma=gamma,
        H=flat["H"],
        T=flat["T"],
        beta=flat["beta"],
        seed=flat["seed"],
        variant=flat["variant"],
        accounting=flat["accounting"],
        eval_every=flat.get("eval_every") or None,
        diagnostics=flat["diagnostics"],
        parallel=flat["parallel"],
        grad_clip=flat.get("grad_clip"),
        x0_scale=flat["x0_scale"],
        trace=bool(flat.get("trace")),
        raw={k: raw[k] for k in sorted(raw)},
    )
    return cfg, warnings
