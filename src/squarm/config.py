"""Flat key-value run configuration and its resolution into RunConfig.

Configs are flat JSON objects with dotted keys ("topology.kind": "ring").
Every key can be overridden by a --key=value command-line flag; flags win.
KEYS is the one description of every key: its type, its default (UNSET keys
are absent unless set) and its valid values, an interval or a tuple of
choices. merged layers configs over its defaults and rejects keys not in it,
and build_run_config starts from merged, so every caller gets both; _coerce
checks each value against it. A value that does not fit is a ConfigError
that starts with its key.
RunConfig checks its plain fields against the same table and takes the
defaults of those that have one from it, so a RunConfig built directly is
refused with the same errors as a config file and defaults like one.

build_run_config keeps the last graph and the last objective it built and
hands the same object to the next config with an equal key (_reused): for
the graph every topology.* value, for the objective the seed, topology.n
and every objective.* value, each compared by repr. A hit is bitwise a
fresh build, and both are read-only, so runs share them without a copy.
The last of each stays in memory after a run (128 MB of dense w for a ring
at n=4096); a sweep over T, H or k builds both once, an n sweep rebuilds
both at every point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache, partial
from warnings import catch_warnings, simplefilter

import numpy as np

from . import objective as obj_ops
from . import schedule as sched
from .compress import KINDS, QUANT_KINDS, SPARSE_KINDS, CompressorSpec, omega_of
from .errors import ConfigError, DataError, TopologyError
from .topology import MixingMatrix, build_complete, build_custom, build_ring

UNSET = None  # the default of keys that are absent unless set


@dataclass(frozen=True)
class Key:
    type: type  # int, float, bool, str or list
    default: object = UNSET
    valid: str | tuple[str, ...] = ""  # an interval such as "(0, 1]", or the choices


_POSITIVE, _NONNEGATIVE, _COUNT, _UNIT = "(0, inf)", "[0, inf)", "[1, inf)", "(0, 1]"

KEYS: dict[str, Key] = {
    "topology.kind": Key(str, "ring", ("ring", "complete", "custom")),
    "topology.n": Key(int, 8, _COUNT),
    "topology.self_weight": Key(float, 1.0 / 3.0),
    "topology.edges": Key(list),
    "topology.edge_weights": Key(list),
    "topology.self_weights": Key(list),
    "objective.kind": Key(str, "quadratic", ("quadratic", "least_squares", "least_squares_nonconvex", "logistic_l2")),
    "objective.d": Key(int, 20, _COUNT),
    "objective.noise_sigma": Key(float, 0.0, _NONNEGATIVE),
    "objective.mu": Key(float, 1.0, _POSITIVE),
    "objective.L": Key(float, 10.0, _POSITIVE),
    "objective.hetero_scale": Key(float, 1.0),
    "objective.samples_per_node": Key(int, 32, _COUNT),
    "objective.batch_size": Key(int, 1, _COUNT),
    "objective.alpha": Key(float, 0.1, _NONNEGATIVE),
    "objective.l2_reg": Key(float, 0.01, _NONNEGATIVE),
    "objective.partition_mode": Key(str, "iid", ("iid", "sorted_by_label")),
    "objective.dataset_path": Key(str),
    "compressor.kind": Key(str, "identity", KINDS),
    "compressor.k": Key(int, UNSET, _COUNT),
    "compressor.k_frac": Key(float, UNSET, _UNIT),
    "compressor.s": Key(int, UNSET, _COUNT),
    "compressor.value_bits": Key(int, 32, _COUNT),
    "lr.kind": Key(str, "auto_constant", ("constant", "auto_constant", "decaying", "auto_decaying")),
    "lr.eta": Key(float, UNSET, _POSITIVE),
    "lr.b": Key(float, UNSET, _POSITIVE),
    "lr.a": Key(float, UNSET, "[1, inf)"),
    "lr.mu": Key(float, UNSET, _POSITIVE),
    "gamma.kind": Key(str, "explicit", ("explicit", "auto_relaxed", "auto_strong")),
    "gamma.value": Key(float, 1.0, _UNIT),
    "gamma.omega": Key(float, UNSET, _UNIT),
    "threshold.kind": Key(str, "always", tuple(sched.THRESHOLD_KINDS)),
    "threshold.c0": Key(float, UNSET, _NONNEGATIVE),
    "threshold.epsilon": Key(float, UNSET, _UNIT),
    "threshold.init": Key(float, UNSET, _NONNEGATIVE),
    "threshold.step": Key(float, UNSET, _NONNEGATIVE),
    "threshold.period": Key(int, UNSET, _COUNT),
    "H": Key(int, 1, _COUNT),
    "T": Key(int, 1000, _COUNT),
    "beta": Key(float, 0.0, "[0, 1)"),
    "seed": Key(int, 0, _NONNEGATIVE),
    "variant": Key(str, "full_copy", ("full_copy", "mem_efficient")),
    "accounting": Key(str, "broadcast", ("broadcast", "unicast")),
    "diagnostics": Key(bool, True),
    "parallel": Key(bool, False, "[0, 0]"),  # false only: runs are serial
    "x0_scale": Key(float, 0.0),
    "eval_every": Key(int, UNSET, _COUNT),
    "grad_clip": Key(float, UNSET, _POSITIVE),
}


def merged(*layers: dict) -> dict:
    """Apply config layers left to right (later layers win) over the defaults."""
    out = {key: spec.default for key, spec in KEYS.items() if spec.default is not UNSET}
    for layer in layers:
        for key, value in layer.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            out[key] = value
    return out


def _coerce(key: str, value, spec: Key | None = None):
    """value as spec (by default KEYS[key]) declares it: of its type and among
    its valid values; a ConfigError naming the key if it is not.

    None (unset) is kept for keys without a default."""
    spec = KEYS[key] if spec is None else spec
    if value is None and spec.default is UNSET:
        return None
    if isinstance(spec.valid, tuple):
        if value in spec.valid:
            return value
        raise ConfigError(f"{key}: expected one of {', '.join(spec.valid)}, got {value!r}")
    out = _as(spec.type, key, value)
    if spec.valid and not _within(out, spec.valid):
        raise ConfigError(f"{key}: must be in {spec.valid}, got {out!r}")
    return out


@cache
def _interval(text: str) -> tuple[float, float, bool, bool]:
    """"(0, 1]" as (0.0, 1.0, True, False): the bounds and whether each is open."""
    lo, hi = text[1:-1].split(",")
    return float(lo), float(hi), text[0] == "(", text[-1] == ")"


def _within(value, interval: str) -> bool:
    lo, hi, lo_open, hi_open = _interval(interval)
    return (lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi)


def _as(kind: type, key: str, value):
    """value as kind; a ConfigError naming the key if it is not one.

    Integers accept integral floats and digit strings, numbers must be
    within the float range, booleans accept true/false and 1/0, lists
    accept lists."""
    if kind in (str, list):
        if isinstance(value, str if kind is str else (list, tuple)):
            return value
        raise _expected(kind, key, value)
    if kind is bool:
        if value in (0, 1) and not isinstance(value, str):
            return bool(value)
        raise _expected(kind, key, value)
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise _expected(kind, key, value)
    try:
        out = kind(value)
        finite = math.isfinite(out)  # an int past the float range overflows here
    except (TypeError, ValueError, OverflowError):
        raise _expected(kind, key, value) from None
    if not finite:
        raise _expected(kind, key, value)
    return out


def _expected(kind: type, key: str, value) -> ConfigError:
    """_as's error for a value that is not a kind; formatted only when it is
    raised, since the repr of a long edge list costs more than the check."""
    return ConfigError(f"{key}: expected {'a finite number' if kind is float else kind.__name__}, got {value!r}")


# RunConfig's plain fields: the undotted keys, and gamma within gamma.value's range
_FIELDS = {key: spec for key, spec in KEYS.items() if "." not in key} | {"gamma": KEYS["gamma.value"]}


@dataclass
class RunConfig:
    """Fully resolved experiment description."""

    topology: MixingMatrix
    objective: obj_ops.ObjectiveSet
    compressor: CompressorSpec
    lr: sched.LrSchedule
    threshold: sched.ThresholdSchedule
    gamma: float
    H: int
    T: int
    beta: float
    seed: int
    # one default per key: the field's is its KEYS default
    variant: str = KEYS["variant"].default
    accounting: str = KEYS["accounting"].default
    eval_every: int | None = KEYS["eval_every"].default
    diagnostics: bool = KEYS["diagnostics"].default
    parallel: bool = KEYS["parallel"].default
    grad_clip: float | None = KEYS["grad_clip"].default
    x0_scale: float = KEYS["x0_scale"].default
    raw: dict = field(default_factory=dict)  # config echo for summaries

    def __post_init__(self):
        for name, spec in _FIELDS.items():
            setattr(self, name, _coerce(name, getattr(self, name), spec))
        if self.objective.n != self.topology.n:
            raise ConfigError("objective and topology disagree on node count")


def seed_streams(seed: int, n: int):
    """(data_rng, x0_rng, per-node rngs) spawned from one master seed."""
    root = np.random.SeedSequence(seed)
    data_ss, x0_ss, nodes_ss = root.spawn(3)
    node_rngs = [np.random.default_rng(s) for s in nodes_ss.spawn(n)]
    return np.random.default_rng(data_ss), np.random.default_rng(x0_ss), node_rngs


def _as_edge(key: str, value) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{key}: expected [i, j] pairs, got {value!r}")
    return _as(int, key, value[0]), _as(int, key, value[1])


def _entries(flat: dict, key: str, convert) -> list:
    """The list at key, each entry passed through convert(key, entry); its
    length is build_custom's to check."""
    return [convert(key, entry) for entry in _require(flat, key)]


def _require(flat: dict, key: str):
    if flat[key] is None:
        raise ConfigError(f"missing config key {key!r}")
    return flat[key]


def _reused(memo: dict, keys: tuple[str, ...], flat: dict, build, hold: bool = True):
    """What memo holds for the values of keys in flat, or else build(flat),
    then held in memo in place of the last one if hold. The last one is
    dropped before the build, so it is not kept alive through it, and a
    build that raises leaves nothing held."""
    memo_key = tuple(repr(flat[key]) for key in keys)  # repr tells -0.0 from 0.0
    if memo_key in memo:
        return memo[memo_key]
    memo.clear()
    built = build(flat)
    if hold:
        memo[memo_key] = built
    return built


# the keys a graph is built from: equal values build bitwise-equal graphs
_TOPOLOGY_KEYS = tuple(key for key in KEYS if key.startswith("topology."))
# the last graph built from a config, under its key: at most one entry
_last_topology: dict[tuple, MixingMatrix] = {}


def _build_topology(flat: dict) -> MixingMatrix:
    """The graph flat describes; the one built last is reused while the key
    is unchanged, so a sweep over T, H or the compressor builds it once. A
    built graph is frozen with a read-only w, so the runs that share it
    cannot change it."""
    return _reused(_last_topology, _TOPOLOGY_KEYS, flat, _new_topology)


def _new_topology(flat: dict) -> MixingMatrix:
    kind = flat["topology.kind"]
    n = flat["topology.n"]
    _fits(flat, "topology.n", n * n)  # the mixing matrix
    try:
        if kind == "ring":
            return build_ring(n, flat["topology.self_weight"])
        if kind == "complete":
            return build_complete(n)
        as_float = partial(_as, float)
        return build_custom(
            n,
            _entries(flat, "topology.edges", _as_edge),
            _entries(flat, "topology.edge_weights", as_float),
            _entries(flat, "topology.self_weights", as_float),
        )
    except TopologyError as exc:  # exc.arg is the builder argument, named like its key
        raise ConfigError(f"topology.{exc.arg}: {exc}") from None


# the memory of this machine: an array larger than it cannot be allocated
_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _fits(flat: dict, key: str, floats: int) -> None:
    """A ConfigError naming key if the array of floats its value sizes is
    larger than this machine's memory; checked before it is allocated."""
    if 8 * floats > _MEMORY_BYTES:
        raise ConfigError(
            f"{key}: {flat[key]!r} is too large, it sizes an array of {8 * floats:.3g} bytes "
            f"and this machine has {_MEMORY_BYTES:.3g}"
        )


def _finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))  # two reductions, no copy of a


# the keys an objective is built from: equal values build bitwise-equal objectives
_OBJECTIVE_KEYS = ("seed", "topology.n", *(key for key in KEYS if key.startswith("objective.")))
# the last objective built from a config, under its key: at most one entry
_last_objective: dict[tuple, obj_ops.ObjectiveSet] = {}


def _build_objective(flat: dict) -> obj_ops.ObjectiveSet:
    """The objective flat describes, its arrays read-only so that the runs
    that share it cannot change it; the one built last is reused while the
    key is unchanged, so a sweep over T, H or the compressor builds it once.
    One read from a dataset file is never reused: the file can change."""
    return _reused(_last_objective, _OBJECTIVE_KEYS, flat, _read_only_objective, not flat["objective.dataset_path"])


def _read_only_objective(flat: dict) -> obj_ops.ObjectiveSet:
    # the data stream does not depend on n, so spawn no node streams for it
    obj = _new_objective(flat, seed_streams(flat["seed"], 0)[0])
    for a in (obj.quad_a, obj.quad_b, obj.quad_const, *obj.feats, *obj.labels):
        if a is not None:
            a.setflags(write=False)
    return obj


def _new_objective(flat: dict, rng: np.random.Generator) -> obj_ops.ObjectiveSet:
    kind = flat["objective.kind"]
    n = flat["topology.n"]
    d = flat["objective.d"]
    path = flat["objective.dataset_path"]
    if path and kind == "quadratic":
        raise ConfigError(f"objective.dataset_path: only a sample-based objective.kind reads one, got {kind!r}")
    if flat["objective.noise_sigma"] and kind != "quadratic":  # a sample kind's noise is its minibatch
        raise ConfigError(f"objective.noise_sigma: only the quadratic objective.kind reads one, got {kind!r}")
    if not path:
        _fits(flat, "objective.d", d * d)  # the curvature matrix, or the smoothness estimate's
    if kind == "quadratic":
        mu, L = flat["objective.mu"], flat["objective.L"]
        if L < mu:
            raise ConfigError(f"objective.L: must be >= objective.mu={mu!r}, got {L!r}")
        hetero_scale = flat["objective.hetero_scale"]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error below
            obj = obj_ops.quadratic_objective(
                n,
                d,
                rng,
                mu=mu,
                L=L,
                noise_sigma=flat["objective.noise_sigma"],
                hetero_scale=hetero_scale,
            )
        if not _finite(obj.quad_a):
            raise ConfigError(f"objective.L: {L!r} is too large, the curvature matrix overflows")
        if not _finite(obj.quad_b):
            raise ConfigError(
                f"objective.hetero_scale: {hetero_scale!r} is too large, the linear terms overflow"
            )
        return obj
    samples = flat["objective.samples_per_node"]
    if not path:
        _fits(flat, "objective.samples_per_node", n * samples * d)
    try:
        # numpy's note on an empty file and an overflow are the errors below
        with catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            simplefilter("ignore", UserWarning)
            if path:
                features, targets = obj_ops.load_dataset(path)
                if not (_finite(features) and _finite(targets)):
                    raise DataError(f"{path} holds a value that is not finite")
                shards = obj_ops.partition_heterogeneous(features, targets, n, flat["objective.partition_mode"], rng)
            else:
                shards = obj_ops.synthetic_shards(kind, n, d, samples, rng)
            obj = obj_ops.from_shards(
                kind,
                *shards,
                batch_size=flat["objective.batch_size"],
                alpha=flat["objective.alpha"],
                l2_reg=flat["objective.l2_reg"],
            )
            if path and not (math.isfinite(obj.L) and math.isfinite(obj_ops.loss(obj, np.zeros(obj.d)))):
                raise DataError(f"{path} holds values so large that the loss or its smoothness L overflows")
    except DataError as exc:  # only a dataset file raises it
        raise ConfigError(f"objective.dataset_path: {exc}") from None
    return obj


def _build_compressor(flat: dict, d: int) -> CompressorSpec:
    kind = flat["compressor.kind"]
    k = flat["compressor.k"]
    if k is None and flat["compressor.k_frac"] is not None:
        k = max(1, round(flat["compressor.k_frac"] * d))
    if k is None and kind in SPARSE_KINDS:
        _require(flat, "compressor.k")
    if k is not None and k > d:
        raise ConfigError(f"compressor.k: k={k} exceeds dimension d={d}")
    return CompressorSpec(
        kind=kind,
        k=k,
        s=_require(flat, "compressor.s") if kind in QUANT_KINDS else flat["compressor.s"],
        value_bits=flat["compressor.value_bits"],
    )


def _resolve_gamma(flat: dict, topo: MixingMatrix, comp: CompressorSpec, d: int) -> float:
    kind = flat["gamma.kind"]
    if kind == "explicit":
        return flat["gamma.value"]
    omega = flat["gamma.omega"]
    if omega is None:
        omega = omega_of(comp, d)
    if omega is None:
        raise ConfigError(
            "gamma.omega: compressor has no formulaic omega; supply gamma.omega "
            "explicitly or use gamma.kind=explicit"
        )
    formula = sched.gamma_relaxed if kind == "auto_relaxed" else sched.gamma_strong
    gamma = formula(topo.delta, omega, topo.lambda_dev)
    if gamma == 0.0:  # underflow
        raise ConfigError(f"gamma.omega: {omega!r} is too small, it gives gamma = 0")
    return gamma


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
        return sched.LrSchedule(kind="constant", eta=_require(flat, "lr.eta"))
    if kind == "auto_constant":
        eta = sched.constant_lr(n, T, beta)
        min_T = sched.min_T_nonconvex(obj.L, n, beta)
        if T < min_T:
            warnings.append(f"T={T} below the non-convex admissibility minimum{_shown(min_T, '.0f')}")
        return sched.LrSchedule(kind="constant", eta=eta)
    p = sched.p_of(gamma, topo.delta)
    if kind == "decaying":
        lr = sched.LrSchedule(kind="decaying", b=_require(flat, "lr.b"), a=_require(flat, "lr.a"))
        if lr.a < 5 * H / p:  # auto_decaying warns against its a_min, which includes 5H/p
            warnings.append("lr.a below 5H/p; the step-size ratio eta_t <= 2 eta_{t+H} may fail")
        return lr
    # an objective that is not strongly convex leaves mu to the config
    mu_key = "lr.mu" if flat["lr.mu"] is not None or obj.mu <= 0 else _MU_KEYS[obj.kind]
    mu = _require(flat, "lr.mu") if mu_key == "lr.mu" else obj.mu
    if not math.isfinite(16.0 * (1.0 - beta) / mu):  # decaying_schedule's b
        raise ConfigError(
            f"{mu_key}: {mu!r} is too small, the step-size numerator 16 (1 - beta) / mu overflows a float"
        )
    a_min = sched.min_a_strongly_convex(H, p, obj.L, mu, beta)
    a = flat["lr.a"]
    if a is None and not math.isfinite(a_min):
        raise ConfigError("lr.a: the admissibility minimum it defaults to overflows a float; set lr.a")
    a = a if a is not None else a_min
    if a < a_min:
        warnings.append(f"lr.a={a:.1f} below the admissibility minimum{_shown(a_min, '.1f')}")
    return sched.decaying_schedule(mu, beta, a)


# the key that sets obj.mu, for the kinds whose built objective has mu > 0
_MU_KEYS = {"quadratic": "objective.mu", "logistic_l2": "objective.l2_reg"}


def _shown(minimum: float, spec: str) -> str:
    """An admissibility minimum for a warning: ' ' and its digits, or a note
    that it overflows a float."""
    return f" {minimum:{spec}}" if math.isfinite(minimum) else ", which overflows a float"


def _build_threshold(flat: dict) -> sched.ThresholdSchedule:
    kind = flat["threshold.kind"]
    fields = {name: _require(flat, f"threshold.{name}") for name in sched.THRESHOLD_KINDS[kind]}
    return sched.ThresholdSchedule(kind=kind, **fields)


def build_run_config(flat: dict) -> tuple[RunConfig, list[str]]:
    """Resolve a flat config, layered over KEYS' defaults by merged (so a key
    not in KEYS is a ConfigError), into a RunConfig plus non-fatal warnings."""
    raw = merged(flat)
    flat = {key: _coerce(key, raw.get(key)) for key in KEYS}
    warnings: list[str] = []
    topo = _build_topology(flat)
    obj = _build_objective(flat)
    _fits(flat, "objective.batch_size", flat["objective.batch_size"] * obj.d)  # a gradient's minibatch
    comp = _build_compressor(flat, obj.d)
    gamma = _resolve_gamma(flat, topo, comp, obj.d)
    lr = _resolve_lr(flat, obj, topo, gamma, warnings)
    threshold = _build_threshold(flat)
    cfg = RunConfig(
        topology=topo,
        objective=obj,
        compressor=comp,
        lr=lr,
        threshold=threshold,
        gamma=gamma,
        **{key: value for key, value in flat.items() if "." not in key},  # the undotted keys
        raw=raw,
    )
    return cfg, warnings
