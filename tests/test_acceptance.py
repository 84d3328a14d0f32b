"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 01, 03, 04, 05, 09, 10 and 14 are thin wrappers over the named
checks of squarm.verify, which hold their tolerances: each passes its own
seed, sizes and configs and prints what the check measured. The others
compare against an oracle, a second code path or a bound of their own.
"""

import math
import time

import numpy as np
import pytest

from oracles import gossip_sgd_trajectory
from squarm import verify
from squarm.compress import CompressorSpec, compress, decode
from squarm.config import build_run_config, merged
from squarm.engine import metrics_csv, run
from squarm.objective import loss, optimum
from squarm.presets import preset
from squarm.schedule import min_a_strongly_convex
from traced import traced_run

RING_DELTA = 1 - (1 / 3 + (2 / 3) * math.cos(math.pi / 4))


def _record(name: str, result) -> None:
    """Every run a criterion makes keeps the trigger-drift budget."""
    count = result.diagnostics.trigger_violations
    assert count == 0, f"run {name}: {count} trigger-drift violations"


def _measured(name: str, result) -> str:
    """A run's identity measures and last-row consensus, for a report line;
    criteria 11 and 12 print them and do not hold them (ROADMAP item 5(b))."""
    diag = result.diagnostics
    return (f"{name}: max_mean_dev {diag.max_mean_dev:.3g}, max_virtual_residual "
            f"{diag.max_virtual_residual:.3g}, consensus {result.rows[-1].consensus:.3g}")


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_compression_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    bounds = [
        verify.contraction(verify.compressor_at(kind, d), d, 10_000, rng)
        for kind in ("top_k", "rand_k", "qsgd", "qsgd_top_k", "identity")
        for d in (8, 64, 256)
    ]
    scaled_normals = (
        rng.standard_normal(int(rng.integers(2, 128))) * rng.uniform(0.01, 10) for _ in range(1000)
    )
    residual = verify.sign_residual(scaled_normals, rng)
    elapsed = time.perf_counter() - start
    ok = all(m.ok for m in bounds) and residual.ok and elapsed < 10.0
    worst_gap = max(m.value - m.bound for m in bounds)
    assert _report(
        1,
        "compression contract",
        ok,
        f"max bound gap {worst_gap:.4f}, sign residual rel err {residual.value:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_qsgd_unbiasedness():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    d, trials = 16, 100_000
    spec = CompressorSpec("qsgd", s=4)
    x = rng.standard_normal(d)
    acc = np.zeros(d)
    sq = np.zeros(d)
    for _ in range(trials):
        c = decode(compress(spec, x, rng))
        acc += c
        sq += c * c
    mean = acc / trials
    se = np.sqrt(np.maximum(sq / trials - mean**2, 1e-30) / trials)
    devs = np.abs(mean - x) / se
    elapsed = time.perf_counter() - start
    ok = bool(np.all(devs <= 4.0)) and elapsed < 5.0
    assert _report(2, "qsgd unbiasedness", ok, f"max dev {devs.max():.2f} se, {elapsed:.1f}s")


def test_criterion_03_spectral_facts():
    start = time.perf_counter()
    powers = [verify.ring_power_deviation(n) for n in (4, 8, 16)]
    j_errs = [verify.j_minus_i(n) for n in (4, 8, 16)]
    elapsed = time.perf_counter() - start
    ok = all(m.ok for m in powers + j_errs) and elapsed < 1.0
    worst, j_err = max(m.value for m in powers), max(m.value for m in j_errs)
    assert _report(
        3, "spectral facts", ok, f"power err {worst:.2e}, J-I err {j_err:.2e}, {elapsed:.2f}s"
    )


@pytest.fixture(scope="module")
def squarm_500_run():
    flat = merged(
        {
            "topology.n": 8,
            "objective.d": 100,
            "objective.mu": 0.5,
            "objective.L": 3.0,
            "objective.noise_sigma": 0.3,
            "compressor.kind": "sign_top_k",
            "compressor.k": 1,  # 1% of d = 100
            "threshold.kind": "piecewise",
            "threshold.init": 2.5,
            "threshold.step": 1.5,
            "threshold.period": 100,
            "gamma.kind": "explicit",
            "gamma.value": 0.5,
            "H": 5,
            "beta": 0.9,
            "T": 500,
            "seed": 104,
            "lr.kind": "auto_constant",
            "x0_scale": 1.0,
            "diagnostics": True,
        }
    )
    cfg, _ = build_run_config(flat)
    start = time.perf_counter()
    result = run(cfg)
    elapsed = time.perf_counter() - start
    _record("squarm-500", result)
    return result, elapsed


def test_criterion_04_mean_preservation(squarm_500_run):
    result, elapsed = squarm_500_run
    m = verify.identities(result)["mean preservation"]
    assert _report(
        4,
        "mean preservation",
        m.ok and elapsed < 5.0,
        f"max dev {m.value:.2e} over {result.diagnostics.sync_rounds} rounds, {elapsed:.1f}s",
    )


def test_criterion_05_virtual_sequence(squarm_500_run):
    result, elapsed = squarm_500_run
    m = verify.identities(result)["virtual residual"]
    detail = f"max residual {m.value:.2e}, {elapsed:.1f}s"
    assert _report(5, "virtual-sequence recurrence", m.ok and elapsed < 5.0, detail)


def test_criterion_06_dpsgd_degeneracy():
    seed, n, d, T, eta = 106, 8, 10, 200, 0.05
    flat = merged(
        preset("dpsgd"),
        {
            "topology.n": n,
            "objective.d": d,
            "objective.mu": 0.5,
            "objective.L": 4.0,
            "objective.noise_sigma": 0.2,
            "T": T,
            "seed": seed,
            "lr.kind": "constant",
            "lr.eta": eta,
            "x0_scale": 1.0,
        },
    )
    cfg, _ = build_run_config(flat)
    result, trace = traced_run(cfg)
    _record("dpsgd-200", result)
    oracle = gossip_sgd_trajectory(cfg.objective, cfg.topology.w, eta, T, seed, x0_scale=1.0)
    worst = max(np.abs(trace[t] - oracle[t + 1]).max() for t in range(T))
    ok = worst < 1e-12
    assert _report(6, "gossip-SGD degeneracy", ok, f"max traj diff {worst:.2e}")


def test_criterion_07_memory_efficient_equivalence():
    base = {
        "topology.n": 8,
        "objective.d": 40,
        "objective.mu": 0.5,
        "objective.L": 3.0,
        "objective.noise_sigma": 0.3,
        "compressor.kind": "sign_top_k",
        "compressor.k": 2,
        "threshold.kind": "poly",
        "threshold.c0": 1.0,
        "threshold.epsilon": 0.5,
        "gamma.kind": "explicit",
        "gamma.value": 0.5,
        "H": 5,
        "beta": 0.9,
        "T": 500,
        "seed": 107,
        "lr.kind": "auto_constant",
        "x0_scale": 1.0,
    }
    traces = {}
    for variant in ("full_copy", "mem_efficient"):
        cfg, _ = build_run_config(merged(base, {"variant": variant}))
        result, traces[variant] = traced_run(cfg)
        _record(f"variant-{variant}", result)
    worst = max(
        np.abs(a - b).max()
        for a, b in zip(traces["full_copy"], traces["mem_efficient"])
    )
    ok = worst < 1e-10
    assert _report(7, "memory-efficient equivalence", ok, f"max traj diff {worst:.2e}")


def test_criterion_08_trigger_drift_bound():
    counts = []
    for flat in verify._identity_configs():
        cfg, _ = build_run_config(flat)
        counts.append(run(cfg).diagnostics.trigger_violations)
    total = sum(counts)
    assert _report(8, "trigger-drift bound", total == 0, f"{total} violations across {len(counts)} runs")


def test_criterion_09_momentum_bound():
    bounds = []
    for beta in (0.5, 0.9):
        flat = merged(
            {
                "topology.n": 8,
                "objective.d": 16,
                "objective.mu": 0.5,
                "objective.L": 3.0,
                "objective.noise_sigma": 1.0,
                "compressor.kind": "top_k",
                "compressor.k": 2,
                "threshold.kind": "always",
                "gamma.kind": "explicit",
                "gamma.value": 0.5,
                "H": 5,
                "beta": beta,
                "T": 1000,
                "seed": 109,
                "lr.kind": "auto_constant",
                "grad_clip": 1.0,
                "x0_scale": 1.0,
                "diagnostics": True,
            }
        )
        cfg, _ = build_run_config(flat)
        result = run(cfg)
        _record(f"momentum-{beta}", result)
        bounds.append(verify.identities(result)["momentum bound"])
    worst = max(0.0, *(m.value - m.bound for m in bounds))
    assert _report(9, "momentum norm bound", all(m.ok for m in bounds), f"max excess {worst:.2e}")


def test_criterion_10_hyperparameter_formulas():
    start = time.perf_counter()
    ok_gs, ok_p, _ = verify.gamma_bounds(np.random.default_rng(110), 1000, 1e-9)
    ok = ok_gs and ok_p and verify.gamma_unit_values().ok
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert _report(10, "hyperparameter formulas", bool(ok), f"1000 draws, {elapsed:.2f}s")


# shared problem for criteria 11 and 12
_CONVEX_PROBLEM = {
    "topology.n": 8,
    "objective.d": 20,
    "objective.mu": 0.1,
    "objective.L": 1.0,
    "objective.noise_sigma": 0.1,
    "objective.hetero_scale": 1.0,
    "x0_scale": 1.0,
    "seed": 111,
    "eval_every": 100,
}
_GAMMA_11 = 0.5
_BETA_11 = 0.2
_H_11 = 5


def _squarm_convex_flat(compressor: dict, T: int) -> dict:
    p = _GAMMA_11 * RING_DELTA / 8.0
    a = min_a_strongly_convex(_H_11, p, 1.0, 0.1, _BETA_11)
    return merged(
        _CONVEX_PROBLEM,
        compressor,
        {
            "threshold.kind": "poly",
            "threshold.c0": 2.0,
            "threshold.epsilon": 0.5,
            "gamma.kind": "explicit",
            "gamma.value": _GAMMA_11,
            "H": _H_11,
            "beta": _BETA_11,
            "T": T,
            "lr.kind": "decaying",
            "lr.b": 16 * (1 - _BETA_11) / 0.1,
            "lr.a": a,
        },
    )


def test_criterion_11_strongly_convex_convergence():
    start = time.perf_counter()
    vals, measured = {}, []
    for T in (5000, 20000):
        cfg, _ = build_run_config(
            _squarm_convex_flat({"compressor.kind": "top_k", "compressor.k": 2}, T)
        )
        result = run(cfg)
        _record(f"convex-{T}", result)
        measured.append(_measured(f"convex-{T}", result))
        _, f_star = optimum(cfg.objective)
        vals[T] = loss(cfg.objective, result.x_avg) - f_star
    ratio = vals[20000] / vals[5000]
    elapsed = time.perf_counter() - start
    ok = ratio < 0.35 and elapsed < 60.0
    assert _report(
        11,
        "strongly-convex convergence",
        ok,
        f"f(x_avg)-f*: {vals[5000]:.3g} -> {vals[20000]:.3g}, ratio {ratio:.3f}, {elapsed:.0f}s; "
        + "; ".join(measured),
    )


def test_criterion_12_communication_savings():
    start = time.perf_counter()
    # vanilla baseline: uncompressed gossip every iteration, its own
    # admissible decaying schedule
    a_d = min_a_strongly_convex(1, RING_DELTA / 8.0, 1.0, 0.1, 0.0)
    dp_flat = merged(
        preset("dpsgd"),
        _CONVEX_PROBLEM,
        {"T": 10000, "lr.kind": "decaying", "lr.b": 160.0, "lr.a": a_d},
    )
    cfg_d, _ = build_run_config(dp_flat)
    res_d = run(cfg_d)
    _record("savings-dpsgd", res_d)
    _, f_star = optimum(cfg_d.objective)
    eps = res_d.rows[-1].loss - f_star
    bits_d = next(r.bits_cum for r in res_d.rows if r.loss - f_star <= eps)

    sq_flat = _squarm_convex_flat(
        {"compressor.kind": "sign_top_k", "compressor.k": 1}, 60000  # 5% of d = 20
    )
    cfg_s, _ = build_run_config(sq_flat)
    res_s = run(cfg_s)
    _record("savings-squarm", res_s)
    _, f_star_s = optimum(cfg_s.objective)
    hit = next((r for r in res_s.rows if r.loss - f_star_s <= eps), None)
    elapsed = time.perf_counter() - start
    ok = hit is not None and hit.bits_cum * 10 <= bits_d and elapsed < 90.0
    detail = (
        f"target {eps:.3g}; bits {hit.bits_cum if hit else 'n/a'} vs {bits_d} "
        f"({bits_d / hit.bits_cum:.0f}x saved), {elapsed:.0f}s"
        if hit
        else f"target never reached, {elapsed:.0f}s"
    ) + f"; {_measured('savings-dpsgd', res_d)}; {_measured('savings-squarm', res_s)}"
    assert _report(12, "communication savings", ok, detail)


def test_criterion_13_determinism():
    base = {
        "topology.n": 8,
        "objective.d": 30,
        "objective.mu": 0.5,
        "objective.L": 3.0,
        "objective.noise_sigma": 0.3,
        "compressor.kind": "sign_top_k",
        "compressor.k": 2,
        "threshold.kind": "piecewise",
        "threshold.init": 2.5,
        "threshold.step": 1.5,
        "threshold.period": 100,
        "gamma.kind": "explicit",
        "gamma.value": 0.5,
        "H": 5,
        "beta": 0.9,
        "T": 400,
        "seed": 113,
        "lr.kind": "auto_constant",
        "x0_scale": 1.0,
    }
    csvs = []
    for _ in range(2):
        cfg, _ = build_run_config(merged(base))
        csvs.append(metrics_csv(run(cfg)))
    ok = csvs[0] == csvs[1]
    assert _report(13, "determinism", ok, f"repeat identical: {ok}")


def test_criterion_14_closed_form_weight_sum():
    assert _report(14, "closed-form S_T", verify.s_T_exact(), "(a,T) in {1..5}x{1..50}")

