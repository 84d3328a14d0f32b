"""The registry of named checks, and the suites behind the `verify` command.

Each check is one function of what its callers vary (a random stream, a
size, a number of draws, a run's result) and returns a Measure: the value it
measured, the bound it holds that value to, and whether it passed. The
tolerances are the module constants below and are written nowhere else: the
acceptance criteria and the engine tests call these same functions with their
own seeds, sizes and configs.

Each suite returns a list of (name, passed, detail) tuples so the CLI can
print a pass/fail table and exit nonzero on the first failure.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from . import compress as comp
from . import schedule as sched
from .config import build_run_config, merged
from .engine import RunResult, run
from .topology import (
    MixingMatrix,
    build_complete,
    build_custom,
    build_ring,
    power_deviation,
    spectral_quantities,
)

CONTRACTION_SLACK = 0.02  # Monte-Carlo slack of a contraction estimate over 1 - omega
SIGN_RESIDUAL_TOL = 1e-9  # relative error of the scaled-sign residual identity
POWER_DEVIATION_TOL = 1e-8  # ||W^k - J|| against (1 - delta)^k on the ring
J_MINUS_I_TOL = 1e-10  # ||J - I||_2 against 1
CLOSED_FORM_TOL = 1e-12  # a closed-form value against its exact value
MEAN_DEV_TOL = 1e-10  # inf-norm change of the node average across a consensus step
VIRTUAL_RESIDUAL_TOL = 1e-8  # inf-norm defect of the virtual-sequence recurrence
MOMENTUM_SLACK = 1e-9  # momentum norm over G / (1 - beta) with gradients clipped to G

Check = tuple[str, bool, str]


class Measure(NamedTuple):
    value: float
    bound: float
    ok: bool


def _measured(name: str, m: Measure) -> Check:
    return (name, m.ok, f"{m.value:.3g} vs bound {m.bound:.3g}")


# ---------------------------------------------------------------------------
# the checks


def compressor_at(kind: str, d: int) -> comp.CompressorSpec:
    """The compressor of this kind that the checks use at dimension d, with the counts its kind reads."""
    counts = {"k": max(1, d // 2 if kind == "rand_k" else d // 10 if kind == "sign_top_k" else d // 4),
              "s": 4 if kind == "qsgd_top_k" else int(np.ceil(np.sqrt(d))) + 1}
    return comp.CompressorSpec(kind, **{name: counts[name] for name in comp.KINDS[kind]})


def contraction(spec: comp.CompressorSpec, d: int, trials: int, rng: np.random.Generator) -> Measure:
    """E||x - C(x)||^2 / ||x||^2 over trials standard-normal draws, within 1 - omega."""
    bound = (1.0 - comp.omega_of(spec, d)) + CONTRACTION_SLACK
    ratio = comp.estimate_contraction(spec, d, trials, rng)
    return Measure(ratio, bound, ratio <= bound)


def sign_residual(xs: Iterable[np.ndarray], rng: np.random.Generator) -> Measure:
    """Worst relative error over xs of ||x - C(x)||^2 = ||x||^2 - ||x||_1^2 / d
    for the scaled-sign compressor C; xs is consumed one vector per compression."""
    spec = comp.CompressorSpec("scaled_sign")
    worst = 0.0
    for x in xs:
        c = comp.decode(comp.compress(spec, x, rng))
        lhs = float((x - c) @ (x - c))
        rhs = float(x @ x) - float(np.abs(x).sum()) ** 2 / len(x)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return Measure(worst, SIGN_RESIDUAL_TOL, worst < SIGN_RESIDUAL_TOL)


def ring_power_deviation(n: int) -> Measure:
    """Worst |‖W^k - J‖ - (1 - delta)^k| over k = 0..10 on the n-ring with self-weight 1/3."""
    w = build_ring(n, 1.0 / 3.0)
    worst = max(abs(power_deviation(w.w, k) - (1.0 - w.delta) ** k) for k in range(11))
    return Measure(worst, POWER_DEVIATION_TOL, worst < POWER_DEVIATION_TOL)


# the graphs whose closed-form spectra the spectral suite holds to eigvalsh:
# odd and even rings (even n has lowest eigenvalue 2s - 1) and complete graphs
RING_SIZES = (3, 4, 5, 8, 9, 32, 33, 128, 129, 1024)
RING_SELF_WEIGHTS = (0.05, 1.0 / 3.0, 0.5, 0.9)
COMPLETE_SIZES = (2, 5, 64)


def closed_form_spectrum(w: MixingMatrix) -> Measure:
    """Worst error of w's closed-form (delta, lambda_dev) against eigvalsh's."""
    delta, lambda_dev = spectral_quantities(w.w)
    err = max(abs(w.delta - delta), abs(w.lambda_dev - lambda_dev))
    return Measure(err, CLOSED_FORM_TOL, err < CLOSED_FORM_TOL)


def j_minus_i(n: int) -> Measure:
    """|‖J - I‖_2 - 1| for the n-by-n averaging matrix J."""
    err = abs(float(np.linalg.norm(np.full((n, n), 1.0 / n) - np.eye(n), 2)) - 1.0)
    return Measure(err, J_MINUS_I_TOL, err < J_MINUS_I_TOL)


def gamma_bounds(rng: np.random.Generator, draws: int, low: float) -> tuple[bool, bool, bool]:
    """Over draws of (delta, omega, lambda) uniform in [low, 1] x [low, 1] x [low, 2]:
    whether gamma_strong <= omega, p >= delta^2 omega / 644, and both gamma
    formulas lie in (0, 1]."""
    ok_gs, ok_p, ok_range = True, True, True
    for _ in range(draws):
        delta = rng.uniform(low, 1.0)
        omega = rng.uniform(low, 1.0)
        lam = rng.uniform(low, 2.0)
        gs = sched.gamma_strong(delta, omega, lam)
        gr = sched.gamma_relaxed(delta, omega, lam)
        ok_gs &= gs <= omega
        ok_p &= sched.p_of(gs, delta) >= delta**2 * omega / 644.0
        ok_range &= 0.0 < gs <= 1.0 and 0.0 < gr <= 1.0
    return ok_gs, ok_p, ok_range


def gamma_unit_values() -> Measure:
    """Worst error of gamma_strong and gamma_relaxed at (1, 1, 1) against 2/73 and 2/157."""
    err = max(
        abs(sched.gamma_strong(1, 1, 1) - 2 / 73), abs(sched.gamma_relaxed(1, 1, 1) - 2 / 157)
    )
    return Measure(err, CLOSED_FORM_TOL, err < CLOSED_FORM_TOL)


def s_T_exact() -> bool:
    """S_T's closed form equals the sum of (a + t)^2 over t < T for (a, T) in {1..5} x {1..50}."""
    return all(
        sched.s_T(a, T) == sum((a + t) ** 2 for t in range(T))
        for a in range(1, 6)
        for T in range(1, 51)
    )


def identities(result: RunResult) -> dict[str, Measure]:
    """The identity bounds on a diagnostics run, the momentum bound only when
    its gradients were clipped."""
    diag, cfg = result.diagnostics, result.config
    dev, res, count = diag.max_mean_dev, diag.max_virtual_residual, diag.trigger_violations
    out = {
        "mean preservation": Measure(dev, MEAN_DEV_TOL, dev < MEAN_DEV_TOL),
        "virtual residual": Measure(res, VIRTUAL_RESIDUAL_TOL, res < VIRTUAL_RESIDUAL_TOL),
        "trigger drift": Measure(count, 0, count == 0),
    }
    if cfg.grad_clip is not None:
        bound = cfg.grad_clip / (1.0 - cfg.beta) + MOMENTUM_SLACK
        out["momentum bound"] = Measure(diag.max_momentum_norm, bound, diag.max_momentum_norm <= bound)
    return out


# ---------------------------------------------------------------------------
# the suites


def compression_suite() -> list[Check]:
    checks: list[Check] = []
    rng = np.random.default_rng(0)
    for d in (8, 64, 256):
        for spec in (compressor_at(kind, d) for kind in comp.KINDS):
            zero = comp.decode(comp.compress(spec, np.zeros(d), rng))
            checks.append((f"{spec.kind}/d={d} C(0)=0", not zero.any(), "nonzero output at 0"))
            if comp.omega_of(spec, d) is not None:
                checks.append(
                    _measured(f"{spec.kind}/d={d} contraction", contraction(spec, d, 2000, rng))
                )
        residual = sign_residual((rng.standard_normal(d) for _ in range(200)), rng)
        checks.append(_measured(f"scaled_sign/d={d} exact residual", residual))
    return checks


def spectral_suite() -> list[Check]:
    checks: list[Check] = []
    for n in (4, 8, 16):
        checks.append(_measured(f"ring n={n} power deviation", ring_power_deviation(n)))
        checks.append(_measured(f"n={n} ||J - I|| = 1", j_minus_i(n)))
    for n in RING_SIZES:
        for s in RING_SELF_WEIGHTS:
            m = closed_form_spectrum(build_ring(n, s))
            checks.append(_measured(f"ring n={n} s={s:.3g} closed-form spectrum = eigvalsh", m))
    for n in COMPLETE_SIZES:
        m = closed_form_spectrum(build_complete(n))
        checks.append(_measured(f"complete n={n} (delta, lambda) = (1, 1) = eigvalsh", m))
    ring = build_ring(6, 0.4)
    edges = [(i, (i + 1) % 6) for i in range(6)]
    rebuilt = build_custom(6, edges, [ring.w[i, j] for i, j in edges], list(np.diag(ring.w)))
    checks.append(("custom rebuild of ring matches entrywise", np.array_equal(rebuilt.w, ring.w), ""))
    return checks


def schedules_suite() -> list[Check]:
    ok_gs, ok_p, ok_range = gamma_bounds(np.random.default_rng(0), 1000, 1e-6)
    ratio_ok = True
    for H in (1, 5, 20):
        lr = sched.decaying_schedule(1.0, 0.0, 5.0 * H)  # a = 5H >= 5H/p >= H for any p <= 1
        ratio_ok &= all(sched.eta_at(lr, t) <= 2 * sched.eta_at(lr, t + H) for t in (0, 3, 100))
    return [
        ("gamma_strong <= omega (1000 draws)", ok_gs, ""),
        ("p >= delta^2 omega / 644 (1000 draws)", ok_p, ""),
        ("gamma formulas in (0, 1]", ok_range, ""),
        _measured("gamma values at (1,1,1)", gamma_unit_values()),
        ("s_T closed form exact", s_T_exact(), ""),
        ("eta_t <= 2 eta_{t+H} when a >= 5H/p", ratio_ok, ""),
    ]


def _identity_configs() -> list[dict]:
    base = {
        "topology.n": 8,
        "objective.kind": "quadratic",
        "objective.d": 24,
        "objective.mu": 0.5,
        "objective.L": 3.0,
        "objective.noise_sigma": 0.3,
        "T": 150,
        "lr.kind": "auto_constant",
        "x0_scale": 1.0,
        "diagnostics": True,
    }
    variations = [
        {"compressor.kind": "identity", "threshold.kind": "always", "H": 1},
        {"compressor.kind": "top_k", "compressor.k": 4, "threshold.kind": "always", "H": 5, "beta": 0.9},
        {"compressor.kind": "rand_k", "compressor.k": 6, "threshold.kind": "poly", "threshold.c0": 1.0, "threshold.epsilon": 0.5, "H": 4, "beta": 0.5},
        {"compressor.kind": "qsgd", "compressor.s": 6, "threshold.kind": "always", "H": 2, "beta": 0.9},
        {"compressor.kind": "scaled_sign", "threshold.kind": "piecewise", "threshold.init": 2.5, "threshold.step": 1.5, "threshold.period": 20, "H": 5, "beta": 0.9},
        {"compressor.kind": "sign_top_k", "compressor.k": 2, "threshold.kind": "piecewise", "threshold.init": 2.5, "threshold.step": 1.5, "threshold.period": 20, "H": 5, "beta": 0.9, "variant": "mem_efficient"},
        {"compressor.kind": "qsgd_top_k", "compressor.k": 4, "compressor.s": 4, "threshold.kind": "const_eta", "threshold.c0": 0.5, "threshold.epsilon": 0.5, "H": 5, "beta": 0.9},
        {"compressor.kind": "identity", "threshold.kind": "never", "H": 5, "beta": 0.9},
        {"compressor.kind": "top_k", "compressor.k": 4, "threshold.kind": "always", "H": 5, "beta": 0.9, "variant": "mem_efficient"},
        {"compressor.kind": "top_k", "compressor.k": 4, "threshold.kind": "always", "H": 3, "beta": 0.0, "accounting": "unicast"},
        {"objective.kind": "least_squares", "objective.noise_sigma": 0.0, "compressor.kind": "top_k", "compressor.k": 4, "threshold.kind": "always", "H": 5, "beta": 0.9},
        {"objective.kind": "least_squares_nonconvex", "objective.noise_sigma": 0.0, "compressor.kind": "sign_top_k", "compressor.k": 3, "threshold.kind": "poly", "threshold.c0": 2.0, "threshold.epsilon": 0.5, "H": 5, "beta": 0.9, "grad_clip": 1.0},
    ]
    return [merged(base, extra) for extra in variations]


def identities_suite() -> list[Check]:
    checks: list[Check] = []
    for idx, flat in enumerate(_identity_configs()):
        cfg, _ = build_run_config(flat)
        label = f"config {idx} ({flat['compressor.kind']}, H={flat['H']})"
        checks.extend(_measured(f"{label}: {name}", m) for name, m in identities(run(cfg)).items())
    return checks


SUITES = {
    "compression": compression_suite,
    "spectral": spectral_suite,
    "identities": identities_suite,
    "schedules": schedules_suite,
}


def run_suites(names: list[str]) -> list[Check]:
    out: list[Check] = []
    for name in names:
        out.extend(SUITES[name]())
    return out
