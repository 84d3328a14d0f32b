import numpy as np
import pytest

from oracles import gossip_sgd_trajectory
from squarm.config import build_run_config, merged, seed_streams
from squarm.errors import ConfigError
from squarm.presets import PRESETS, preset
from squarm.topology import build_ring
from traced import traced_run

PROBLEM = {
    "topology.n": 8,
    "objective.d": 10,
    "objective.mu": 0.5,
    "objective.L": 4.0,
    "objective.noise_sigma": 0.2,
    "T": 200,
    "seed": 21,
    "lr.kind": "constant",
    "lr.eta": 0.05,
    "x0_scale": 1.0,
    "diagnostics": True,
}


def run_preset(name, **overrides):
    """(cfg, result, [X after each step]) of the preset's run on PROBLEM."""
    flat = merged(preset(name), PROBLEM, overrides)
    cfg, _ = build_run_config(flat)
    return cfg, *traced_run(cfg)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset("dsgd")


def test_listing_is_stable():
    assert set(PRESETS) == {"squarm", "sparq", "choco", "dpsgd", "local_sgd"}


def test_sparq_is_squarm_without_momentum():
    squarm = preset("squarm")
    sparq = preset("sparq")
    assert squarm.pop("beta") == 0.9
    assert sparq.pop("beta") == 0.0
    assert squarm == sparq


def test_local_sgd_no_bits():
    _, result, _ = run_preset("local_sgd")
    assert result.total_bits == 0
    assert result.rows[-1].messages == 0


def test_dpsgd_matches_gossip_oracle():
    cfg, _, trace = run_preset("dpsgd")
    W = build_ring(8, 1 / 3)
    oracle = gossip_sgd_trajectory(cfg.objective, W.w, 0.05, 200, 21, x0_scale=1.0)
    worst = max(np.abs(trace[t] - oracle[t + 1]).max() for t in range(200))
    assert worst < 1e-12


def test_dpsgd_copies_track_parameters():
    # identity compressor + always trigger keeps every public copy equal to
    # the holder's parameters after each round (up to float bookkeeping)
    from squarm.compress import decode
    from squarm.engine import initial_positions
    from squarm.objective import stochastic_grad
    from squarm.schedule import eta_at, threshold_at
    import squarm.node as node_ops

    flat = merged(preset("dpsgd"), PROBLEM)
    cfg, _ = build_run_config(flat)
    W = cfg.topology
    _, x0_rng, node_rngs = seed_streams(cfg.seed, W.n)
    state = node_ops.make_state(
        initial_positions(x0_rng, W.n, cfg.objective.d, cfg.x0_scale), "full_copy"
    )
    for t in range(100):
        eta = eta_at(cfg.lr, t)
        for i in range(W.n):
            g = stochastic_grad(cfg.objective, i, state.X[i], node_rngs[i])
            node_ops.local_step(state, i, g, eta, cfg.beta)
        half = state.X.copy()
        c_t = threshold_at(cfg.threshold, t, eta)
        fired = [i for i in range(W.n) if node_ops.should_trigger(state, i, c_t, eta)]
        Q = np.array(
            [decode(node_ops.encode_update(state, i, cfg.compressor, node_rngs[i])) for i in fired]
        )
        node_ops.apply_incoming(state, fired, Q, W.w)
        # row j of Hat is the copy of node j that j and all its neighbors hold
        assert np.abs(state.Hat - half).max() < 1e-12
        node_ops.consensus_step(state, cfg.gamma, W.w)


def test_squarm_beta_zero_h1_gamma1_identity_always_equals_dpsgd():
    overrides = {
        "beta": 0.0,
        "H": 1,
        "gamma.kind": "explicit",
        "gamma.value": 1.0,
        "compressor.kind": "identity",
        "threshold.kind": "always",
    }
    _, _, squarm_trace = run_preset("squarm", **overrides)
    _, _, dpsgd_trace = run_preset("dpsgd")
    worst = max(
        np.abs(a - b).max() for a, b in zip(squarm_trace, dpsgd_trace)
    )
    assert worst == 0.0


def test_choco_uses_strong_gamma():
    flat = merged(preset("choco"), PROBLEM)
    cfg, _ = build_run_config(flat)
    from squarm.schedule import gamma_strong

    W = cfg.topology
    omega = 1 / 10  # k_frac 0.01 of d=10 floors to k=1, so omega = k/d
    assert cfg.gamma == pytest.approx(gamma_strong(W.delta, omega, W.lambda_dev))
    assert cfg.H == 1 and cfg.beta == 0.0
