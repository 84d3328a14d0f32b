import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as ref
from oracles import expected_gaps, gossip_sgd_trajectory, node_average_trajectory
from squarm import engine
from squarm.compress import CompressorSpec, bit_cost, decode
from squarm.config import KEYS, build_run_config, merged, seed_streams
from squarm.engine import (
    RunConfig,
    encode_round,
    metrics_csv,
    run,
    summary_json,
    trigger_violations,
    virtual_residual,
)
from squarm.errors import ConfigError, DivergenceError, ParameterError
from squarm.node import encode_update, fired, make_state, should_trigger
from squarm.objective import optimum, quadratic_objective
from squarm.presets import preset
from squarm.schedule import LrSchedule, ThresholdSchedule, gamma_strong
from squarm.topology import build_ring
from squarm.verify import VIRTUAL_RESIDUAL_TOL, _identity_configs, identities
from traced import traced_run


def quick_config(**overrides):
    base = {
        "topology.n": 8,
        "objective.d": 12,
        "objective.mu": 0.5,
        "objective.L": 4.0,
        "objective.noise_sigma": 0.1,
        "T": 60,
        "lr.kind": "auto_constant",
        "x0_scale": 1.0,
        "diagnostics": True,
    }
    base.update(overrides)
    cfg, _ = build_run_config(merged(base))
    return cfg


def sync_steps(T, H):
    """Iterations t after whose local step a run communicated (every node
    fires at every round under the always-threshold)."""
    rows = run(quick_config(T=T, H=H, eval_every=1, **{"threshold.kind": "always"})).rows
    before = [0] + [r.messages for r in rows]
    return [r.t for r, m in zip(rows, before) if r.messages > m]


# values RunConfig must refuse: out of range, ill-typed or non-finite
INVALID = {
    "H": [0, 2.5, None],
    "T": [0, -1, "abc"],
    "beta": [1.0, -0.1, math.nan],
    "seed": [-1, 1.5],
    "variant": ["bogus", None],
    "accounting": ["bogus"],
    "diagnostics": ["yes", 2],
    "parallel": [True, 1],
    "x0_scale": [math.inf, math.nan, "abc"],
    "eval_every": [0, -3],
    "grad_clip": [0.0, -1.0, math.inf],
    "gamma": [0.0, 1.5, math.inf],
}


@st.composite
def custom_graph(draw, n):
    """The custom-topology keys of a connected graph on n nodes (a random
    tree plus extra edges) with Metropolis weights 1 / (1 + max(deg i, deg j)),
    whose self-weights are positive."""
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges = sorted(edges | {(min(i, j), max(i, j)) for i, j in extra if i != j})
    degree = np.bincount(np.ravel(edges), minlength=n)
    weights = [1.0 / (1 + max(degree[i], degree[j])) for i, j in edges]
    self_weights = [1.0 - sum(w for e, w in zip(edges, weights) if i in e) for i in range(n)]
    return {
        "topology.edges": [list(e) for e in edges],
        "topology.edge_weights": weights,
        "topology.self_weights": self_weights,
    }


@st.composite
def dpsgd_configs(draw):
    """Criterion 06's run (the dpsgd preset at a constant step size) over
    drawn sizes, step sizes and ring, complete and custom graphs. Gradient
    noise and a random start keep every node's drift off an exact-zero tie."""
    n = draw(st.integers(3, 8))
    flat = preset("dpsgd") | {
        "topology.n": n,
        "objective.d": draw(st.integers(2, 12)),
        "objective.mu": 0.5,
        "objective.L": 4.0,
        "objective.noise_sigma": draw(st.floats(0.01, 1.0)),
        "T": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2**16)),
        "lr.kind": "constant",
        "lr.eta": draw(st.floats(0.001, 0.05)),
        "x0_scale": draw(st.floats(0.0, 2.0, exclude_min=True)),
        "topology.kind": draw(st.sampled_from(KEYS["topology.kind"].valid)),
    }
    if flat["topology.kind"] == "ring":
        flat["topology.self_weight"] = draw(st.floats(0.1, 0.9))
    elif flat["topology.kind"] == "custom":
        flat |= draw(custom_graph(n))
    return flat


class TestSyncIndices:
    def test_examples(self):
        assert sync_steps(10, 5) == [4, 9]
        assert sync_steps(7, 3) == [2, 5]

    def test_h1_covers_all(self):
        assert sync_steps(5, 1) == [0, 1, 2, 3, 4]

    def test_gap_is_h(self):
        idx = sync_steps(100, 7)
        assert idx[0] == 6
        assert all(b - a == 7 for a, b in zip(idx, idx[1:]))


class TestGossipOracle:
    def test_dpsgd_configuration_matches_matrix_form(self):
        seed = 11
        n, d, T = 8, 10, 200
        W = build_ring(n, 1 / 3)
        flat = merged(
            {
                "topology.n": n,
                "objective.d": d,
                "objective.noise_sigma": 0.2,
                "compressor.kind": "identity",
                "threshold.kind": "always",
                "gamma.kind": "explicit",
                "gamma.value": 1.0,
                "H": 1,
                "beta": 0.0,
                "T": T,
                "seed": seed,
                "lr.kind": "constant",
                "lr.eta": 0.05,
                "x0_scale": 1.0,
            }
        )
        cfg, _ = build_run_config(flat)
        _, trace = traced_run(cfg)
        oracle = gossip_sgd_trajectory(cfg.objective, W.w, 0.05, T, seed, x0_scale=1.0)
        worst = max(
            np.abs(trace[t] - oracle[t + 1]).max() for t in range(T)
        )
        assert worst < 1e-12

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(dpsgd_configs())
    def test_dpsgd_preset_matches_matrix_form_on_drawn_configs(self, flat):
        cfg, _ = build_run_config(merged(flat))
        _, trace = traced_run(cfg)
        oracle = gossip_sgd_trajectory(cfg.objective, cfg.topology.w, cfg.lr.eta, cfg.T, cfg.seed, cfg.x0_scale)
        for t in range(cfg.T):
            bound = 1e-12 * max(1.0, np.abs(oracle[t + 1]).max())
            assert np.abs(trace[t] - oracle[t + 1]).max() <= bound, t


class TestRunBasics:
    def test_rows_cover_first_and_last(self):
        cfg = quick_config(T=37, eval_every=10)
        result = run(cfg)
        ts = [r.t for r in result.rows]
        assert ts[0] == 0
        assert ts[-1] == 36

    def test_T_one(self):
        cfg = quick_config(T=1)
        result = run(cfg)
        assert [r.t for r in result.rows] == [0]

    def test_T_zero_rejected(self):
        with pytest.raises(ConfigError, match="T"):
            quick_config(T=0)

    @pytest.mark.parametrize("name", [key for key in KEYS if "." not in key] + ["gamma"])
    def test_direct_fields_are_checked_against_keys(self, name):
        cfg = quick_config(T=5)
        for value in INVALID[name]:
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(cfg, **{name: value})
            assert str(err.value).startswith(f"{name}:"), (value, str(err.value))

    def test_direct_node_counts_must_agree(self):
        with pytest.raises(ConfigError, match="^objective: n=8, but topology has n=5$"):
            dataclasses.replace(quick_config(T=5), topology=build_ring(5))

    def test_direct_fields_are_coerced_like_config_values(self):
        cfg = dataclasses.replace(quick_config(T=5), T=5.0, beta=0, diagnostics=1)
        assert (type(cfg.T), type(cfg.beta), cfg.diagnostics) == (int, float, True)

    def test_field_defaults_are_the_keys_defaults(self):
        defaults = {
            f.name: f.default for f in dataclasses.fields(RunConfig) if f.default is not dataclasses.MISSING
        }
        assert defaults == {name: KEYS[name].default for name in defaults}

    def test_never_threshold_pure_local(self):
        cfg = quick_config(**{"threshold.kind": "never", "H": 5})
        result = run(cfg)
        assert result.total_bits == 0
        assert result.rows[-1].messages == 0
        assert result.rows[-1].triggers == 0

    def test_bits_closed_form_always(self):
        d = 12
        cfg = quick_config(
            **{
                "compressor.kind": "top_k",
                "compressor.k": 3,
                "threshold.kind": "always",
                "H": 5,
                "T": 60,
                "x0_scale": 2.0,
            }
        )
        result = run(cfg)
        rounds = 60 // 5
        per_message = 3 * ((d - 1).bit_length() + 32)
        assert result.total_bits == rounds * 8 * per_message
        assert result.rows[-1].messages == rounds * 8

    def test_unicast_multiplies_by_degree(self):
        cfg_b = quick_config(
            **{"compressor.kind": "top_k", "compressor.k": 3, "threshold.kind": "always", "H": 5}
        )
        cfg_u = quick_config(
            **{
                "compressor.kind": "top_k",
                "compressor.k": 3,
                "threshold.kind": "always",
                "H": 5,
                "accounting": "unicast",
            }
        )
        rb, ru = run(cfg_b), run(cfg_u)
        assert ru.total_bits == 2 * rb.total_bits  # ring out-degree 2
        assert ru.rows[-1].messages == 2 * rb.rows[-1].messages

    def test_bits_monotone(self):
        cfg = quick_config(
            **{"compressor.kind": "sign_top_k", "compressor.k": 2,
               "threshold.kind": "poly", "threshold.c0": 1.0, "threshold.epsilon": 0.5,
               "H": 5, "T": 200}
        )
        rows = run(cfg).rows
        bits = [r.bits_cum for r in rows]
        assert all(a <= b for a, b in zip(bits, bits[1:]))


# the decaying-step-size config of the identities suite
DECAYING = next(flat for flat in _identity_configs() if flat["lr.kind"] == "decaying")


class TestIdentities:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"compressor.kind": "identity", "threshold.kind": "always", "H": 1},
            {"compressor.kind": "top_k", "compressor.k": 3, "H": 5, "beta": 0.9,
             "threshold.kind": "always"},
            {"compressor.kind": "sign_top_k", "compressor.k": 2, "H": 5, "beta": 0.9,
             "threshold.kind": "piecewise", "threshold.init": 2.5,
             "threshold.step": 1.5, "threshold.period": 20},
            {"compressor.kind": "qsgd", "compressor.s": 4, "H": 3, "beta": 0.5,
             "threshold.kind": "poly", "threshold.c0": 0.5, "threshold.epsilon": 0.5,
             "variant": "mem_efficient"},
            {"compressor.kind": "top_k", "compressor.k": 3, "H": 5, "beta": 0.9,
             "threshold.kind": "always", "lr.kind": "decaying", "lr.a": 20.0, "lr.b": 1.0},
        ],
    )
    def test_mean_preservation_and_virtual_residual(self, overrides):
        result = run(quick_config(T=150, **overrides))
        assert {name: m for name, m in identities(result).items() if not m.ok} == {}
        assert all(row.virtual_residual is not None for row in result.rows)

    @pytest.mark.parametrize("diagnostics", [True, False])
    def test_a_decaying_run_records_the_virtual_residual_with_diagnostics_on(self, diagnostics):
        result = run(build_run_config(merged(DECAYING, {"diagnostics": diagnostics}))[0])
        header, *lines = metrics_csv(result).splitlines()
        column = header.split(",").index("virtual_residual")
        cells = [line.split(",")[column] for line in lines]
        worst = json.loads(summary_json(result))["diagnostics"]["max_virtual_residual"]
        if diagnostics:
            assert all(cells) and 0.0 < worst < VIRTUAL_RESIDUAL_TOL
            assert max(map(float, cells)) == worst
        else:
            assert not any(cells) and worst == 0.0

    def test_a_run_without_diagnostics_is_refused(self):
        # its Diagnostics block is zeros, which would pass every bound
        result = run(quick_config(diagnostics=False))
        assert result.diagnostics == engine.Diagnostics()
        with pytest.raises(ParameterError, match="^diagnostics: "):
            identities(result)

    def test_a_virtual_sequence_carried_across_a_changing_eta_breaks_the_bound(self, monkeypatch):
        # negative control: taking the right side's xbar^t - c vbar^{t-1} at the
        # previous step's eta, as carrying one virtual iterate from step to step
        # does, is off by far more than the bound once eta decays
        calls = []

        def recorded(*args):
            calls.append(args)
            return virtual_residual(*args)

        monkeypatch.setattr(engine, "virtual_residual", recorded)
        run(build_run_config(DECAYING)[0])
        carried = 0.0
        eta_before = calls[0][5]
        for x_bar_prev, v_bar_prev, x_bar_new, v_bar_new, g_bar, eta, beta in calls:
            c, c_before = (e * beta**2 / (1.0 - beta) for e in (eta, eta_before))
            predicted = (x_bar_prev - c_before * v_bar_prev) - (eta / (1.0 - beta)) * g_bar
            carried = max(carried, float(np.abs((x_bar_new - c * v_bar_new) - predicted).max()))
            eta_before = eta
        assert carried > VIRTUAL_RESIDUAL_TOL
        assert max(virtual_residual(*args) for args in calls) < VIRTUAL_RESIDUAL_TOL

    def test_broken_matrix_breaks_mean_preservation(self):
        # negative control: damaging one node's weight row (which breaks the
        # symmetry the cancellation rests on) must trip the check; note that
        # uniformly scaling all rows to 0.9 would NOT trip it, since any
        # symmetric matrix keeps the gossip term average-free
        cfg = quick_config(T=10, **{"compressor.kind": "identity", "threshold.kind": "always"})
        w = cfg.topology.w.copy()
        w[0, 1] *= 0.5
        cfg = dataclasses.replace(cfg, topology=dataclasses.replace(cfg.topology, w=w))
        assert not identities(run(cfg))["mean preservation"].ok

    def test_momentum_norm_bound_with_clipping(self):
        for beta in (0.5, 0.9):
            cfg = quick_config(
                T=300,
                beta=beta,
                grad_clip=1.0,
                **{"objective.noise_sigma": 1.0, "threshold.kind": "always", "H": 5},
            )
            assert identities(run(cfg))["momentum bound"].ok


class TestVariantEquivalence:
    @pytest.mark.parametrize("kind,extra", [
        ("sign_top_k", {"compressor.k": 2}),
        ("qsgd", {"compressor.s": 4}),
        ("identity", {}),
    ])
    def test_full_vs_mem_efficient(self, kind, extra):
        base = {
            "compressor.kind": kind,
            "threshold.kind": "poly",
            "threshold.c0": 1.0,
            "threshold.epsilon": 0.5,
            "H": 5,
            "beta": 0.9,
            "T": 500,
        }
        base.update(extra)
        _, full = traced_run(quick_config(**base, variant="full_copy"))
        _, mem = traced_run(quick_config(**base, variant="mem_efficient"))
        worst = max(
            np.abs(a - b).max() for a, b in zip(full, mem)
        )
        assert worst < 1e-10


class TestRoundPhases:
    @staticmethod
    def tie_state(d=200):
        """A state whose node 0 drifts by D = diff @ diff, node 1 by D/4 and
        node 2 by 4 D, with node 0's einsum sum above D where one is found."""
        rng = np.random.default_rng(40)
        for _ in range(200):
            row = rng.standard_normal(d)
            X = np.stack([row, 0.5 * row, 2.0 * row])
            if np.einsum("ij,ij->i", X, X)[0] > row @ row:
                break
        return make_state(X, "full_copy"), float(row @ row)

    def test_a_tie_the_trigger_test_kept_silent_is_no_violation(self):
        state, drift = self.tie_state()
        c_t, eta = 4.0 * drift, 0.5  # c_t eta^2 is node 0's drift exactly
        assert fired(state, c_t, eta) == [2]
        assert trigger_violations(state, [2], c_t, eta) == 0

    def test_a_node_left_out_of_fired_is_a_violation(self):
        state, drift = self.tie_state()
        c_t, eta = 4.0 * drift, 0.5
        assert trigger_violations(state, [], c_t, eta) == 1
        assert trigger_violations(state, [0, 1], c_t, eta) == 1
        assert trigger_violations(state, [], 0.5 * c_t, eta) == 2  # now node 0 exceeds too
        assert trigger_violations(state, [], 0.0, eta) == 3
        assert trigger_violations(state, [], np.inf, eta) == 0

    def test_each_stacked_row_is_the_trigger_tests_own_dot(self):
        # rows scaled over decades, at every d from 1 to 2000; at eta = 1 the
        # limit c_t eta^2 is c_t exactly
        rng, scales, einsum_differs = np.random.default_rng(24), np.logspace(-6, 6, 6)[:, None], 0
        for d in range(1, 2001):
            state = make_state(scales * rng.standard_normal((6, d)), "full_copy")
            dots = np.array([float(row @ row) for row in state.X])
            stacked = (state.X[:, None, :] @ state.X[:, :, None]).ravel()
            assert np.array_equal(stacked, dots), d
            einsum_differs += np.count_nonzero(np.einsum("ij,ij->i", state.X, state.X) != dots)
            for drift in dots:
                sent = fired(state, drift, 1.0)  # the node at this drift ties and stays silent
                silent = [j for j in range(len(dots)) if j not in sent]
                # at its drift the node is no violation, one ulp below it is one
                for c_t, want in ((drift, 0), (np.nextafter(drift, 0.0), 1)):
                    brute = sum(should_trigger(state, j, c_t, 1.0) for j in silent)
                    assert trigger_violations(state, sent, c_t, 1.0) == brute == want, d
        assert einsum_differs > 1000  # so an einsum in the product's place fails above

    @pytest.mark.parametrize("spec", [CompressorSpec("rand_k", k=3), CompressorSpec("qsgd_top_k", k=3, s=4),
                                      CompressorSpec("sign_top_k", k=2)], ids=lambda s: s.kind)
    def test_encode_round_is_the_per_node_loop(self, spec):
        rng = np.random.default_rng(41)
        n, d = 7, 11
        for seed in range(5):
            state = make_state(rng.standard_normal((n, d)), "full_copy")
            state.Hat[:] = rng.standard_normal((n, d))
            sent = sorted(rng.choice(n, size=4, replace=False).tolist())
            fanout = rng.integers(1, 4, size=n).tolist()
            rngs, want_rngs = seed_streams(seed, n)[2], seed_streams(seed, n)[2]
            Q, bits, messages = encode_round(state, sent, spec, rngs, fanout)
            msgs = [encode_update(state, i, spec, want_rngs[i]) for i in sent]
            assert np.array_equal(Q, np.array([decode(m) for m in msgs]))
            assert bits == sum(bit_cost(spec, d, m) * fanout[i] for i, m in zip(sent, msgs))
            assert messages == sum(fanout[i] for i in sent)
            assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in want_rngs]


class TestBroadcastConsistency:
    def test_copies_identical_across_receivers(self):
        # the premise of the array state, checked on the per-node reference
        # with its full table of copies: every receiver's copy of node j is
        # bitwise j's own public copy, so one row per node holds them all
        cfg = quick_config(
            T=60,
            **{"compressor.kind": "qsgd", "compressor.s": 4, "threshold.kind": "always", "H": 5},
        )
        from squarm.compress import decode
        from squarm.objective import stochastic_grad
        from squarm.schedule import eta_at, threshold_at

        W, obj = cfg.topology, cfg.objective
        nodes, node_rngs = ref.make_nodes(cfg, "full_copy")
        hat_shadow = {i: np.zeros(obj.d) for i in range(W.n)}
        for t in range(cfg.T):
            eta = eta_at(cfg.lr, t)
            for i, st in enumerate(nodes):
                g = stochastic_grad(obj, i, st.x, node_rngs[i])
                ref.local_step(st, g, eta, cfg.beta)
            if (t + 1) % cfg.H == 0:
                c_t = threshold_at(cfg.threshold, t, eta)
                payloads = {}
                for i, st in enumerate(nodes):
                    if ref.should_trigger(st, c_t, eta):
                        payloads[i] = decode(ref.encode_update(st, cfg.compressor, node_rngs[i]))
                for sender, q in payloads.items():
                    hat_shadow[sender] = hat_shadow[sender] + q
                ref.deliver(nodes, W, payloads)
                for st in nodes:
                    ref.consensus_step(st, cfg.gamma, W.w[st.index])
                # every receiver's copy of j equals j's own hat, bitwise
                for j in range(W.n):
                    assert np.array_equal(nodes[j].hat_self, hat_shadow[j])
                    for i in W.adjacency[j]:
                        assert np.array_equal(nodes[i].copies[j], hat_shadow[j])


def assert_matches_reference(cfg: RunConfig):
    """Run cfg on the engine and on the frozen per-node reference, assert
    that they agree step by step, and return the engine's result."""
    (new, new_trace), (old, old_trace) = traced_run(cfg), ref.run(cfg)
    assert new.total_bits == old.total_bits
    assert [(r.t, r.bits_cum, r.messages, r.triggers) for r in new.rows] == [
        (r.t, r.bits_cum, r.messages, r.triggers) for r in old.rows
    ]
    # two things round differently from the per-node loop: full_copy's
    # dense W @ Hat sums in another order, and a quadratic's gradients are
    # rows of one X A product instead of one matrix-vector product each
    bitwise = cfg.variant == "mem_efficient" and cfg.objective.kind != "quadratic"
    for a, b in zip(new_trace, old_trace, strict=True):
        if bitwise:
            assert np.array_equal(a, b)
        else:
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
    # closed-form and array-reduced metrics against the per-node sums
    for a, b in zip(new.rows, old.rows):
        assert (a.weighted_avg_loss is None) == (b.weighted_avg_loss is None)
        assert (a.virtual_residual is None) == (b.virtual_residual is None)
        for field in ("loss", "grad_norm_sq", "consensus", "weighted_avg_loss"):
            x, y = getattr(a, field), getattr(b, field)
            if y is not None:
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y)), (a.t, field, x, y)
    return new


@st.composite
def drawn_configs(
    draw, objective_kinds=KEYS["objective.kind"].valid, compressors=KEYS["compressor.kind"].valid, clip=True
):
    """Small runs over every compressor, threshold, variant, accounting,
    step-size kind, objective kind and graph kind (or the given objective
    and compressor kinds; clip=False leaves gradients unclipped). Gradient
    noise (or minibatches) and random starts make an exact tie at a strict
    trigger test a probability-zero event."""
    n, d = draw(st.integers(3, 8)), draw(st.integers(2, 12))
    flat = {
        "topology.n": n,
        "objective.d": d,
        "objective.kind": draw(st.sampled_from(objective_kinds)),
        "objective.mu": 0.5,
        "objective.L": draw(st.floats(0.5, 4.0)),
        "objective.noise_sigma": draw(st.floats(0.01, 1.0)),
        "objective.samples_per_node": draw(st.integers(1, 8)),
        "objective.batch_size": draw(st.integers(1, 4)),
        "compressor.kind": draw(st.sampled_from(compressors)),
        "compressor.k": draw(st.integers(1, d)),
        "compressor.s": draw(st.integers(1, 8)),
        "threshold.kind": draw(st.sampled_from(KEYS["threshold.kind"].valid)),
        # c_t eta^2 against the drift: scales from always to rarely firing
        "threshold.c0": 10 ** draw(st.floats(-2.0, 4.0)),
        "threshold.epsilon": draw(st.floats(0.05, 1.0)),
        "threshold.init": 10 ** draw(st.floats(-2.0, 4.0)),
        "threshold.step": 10 ** draw(st.floats(-2.0, 3.0)),
        "threshold.period": draw(st.integers(1, 20)),
        "gamma.kind": "explicit",
        "gamma.value": draw(st.floats(0.05, 0.5)),
        "H": draw(st.integers(1, 5)),
        "T": draw(st.integers(1, 40)),
        "beta": draw(st.floats(0.0, 0.9)),
        "seed": draw(st.integers(0, 2**16)),
        "variant": draw(st.sampled_from(KEYS["variant"].valid)),
        "accounting": draw(st.sampled_from(KEYS["accounting"].valid)),
        "grad_clip": draw(st.none() | st.floats(0.5, 5.0)) if clip else None,
        "x0_scale": draw(st.floats(0.0, 2.0, exclude_min=True)),
        "diagnostics": True,
    }
    eta = draw(st.floats(0.001, 0.05))
    if draw(st.booleans()):
        flat |= {"lr.kind": "constant", "lr.eta": eta}
    else:  # eta_t = b / (a + t), starting at eta
        a = draw(st.floats(1.0, 40.0))
        flat |= {"lr.kind": "decaying", "lr.a": a, "lr.b": eta * a}
    flat["topology.kind"] = draw(st.sampled_from(KEYS["topology.kind"].valid))
    if flat["topology.kind"] == "ring":
        flat["topology.self_weight"] = draw(st.floats(0.1, 0.9))
    elif flat["topology.kind"] == "custom":
        flat |= draw(custom_graph(n))
    if flat["objective.kind"] != "quadratic":  # only the quadratic reads a noise scale; set after the draws
        flat["objective.noise_sigma"] = 0.0
    return flat


class TestFrozenReference:
    @pytest.mark.parametrize("variant", ["full_copy", "mem_efficient"])
    @pytest.mark.parametrize("idx", range(len(_identity_configs())))
    def test_matches_per_node_reference(self, idx, variant):
        cfg, _ = build_run_config(merged(_identity_configs()[idx], {"variant": variant}))
        assert_matches_reference(cfg)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(drawn_configs())
    def test_matches_on_drawn_configs(self, flat):
        cfg, _ = build_run_config(merged(flat))
        new = assert_matches_reference(cfg)
        for name, m in identities(new).items():
            assert m.ok, (name, m)


# the compressors that draw nothing from the node streams, which the noise uses
DETERMINISTIC_KINDS = ("identity", "top_k", "scaled_sign", "sign_top_k")


class TestNodeAverageOracle:
    """On the quadratic kind the node average is centralized momentum SGD
    (oracles.node_average_trajectory), whatever the graph, compressor,
    trigger, variant or accounting; clipping would break the linearity."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(drawn_configs(objective_kinds=("quadratic",), compressors=DETERMINISTIC_KINDS, clip=False))
    def test_matches_on_drawn_configs(self, flat):
        cfg, _ = build_run_config(merged(flat))
        _, trace = traced_run(cfg)
        oracle = node_average_trajectory(cfg.objective, cfg.lr, cfg.beta, cfg.T, cfg.seed, cfg.x0_scale)
        for t, X in enumerate(trace):
            x_bar = oracle[t + 1]
            err = np.abs(X.mean(axis=0) - x_bar).max()
            assert err <= 1e-12 * max(1.0, np.abs(x_bar).max()), (t, err)


# the benchmark workloads' shapes (the squarm preset on a ring with gradient
# noise and random starts), with d at most 200
NOISY_RING = {**preset("squarm"), "topology.kind": "ring", "objective.noise_sigma": 0.1, "x0_scale": 1.0}
WORKLOAD_SHAPES = {
    "paper_ring": {"topology.n": 32, "objective.d": 200, "H": 5, "T": 1000, "variant": "full_copy"},
    "sparse_trigger": {
        "topology.n": 128, "objective.d": 20, "H": 1, "T": 800, "threshold.init": 10.0,
        "threshold.step": 6.0, "threshold.period": 200, "diagnostics": True, "variant": "mem_efficient",
    },
    "wide_model": {"topology.n": 8, "objective.d": 200, "T": 200, "eval_every": 4},
}
# f(x_bar) - f* over the second half's rows, measured over the oracle's, at
# seeds 1-8 of GAP_RUN: 1.0098 1.0091 1.0186 0.9957 1.0041 0.9705 1.0242
# 0.9941, mean 1.0033, per-seed standard deviation 0.0168
GAP_RUN = {**NOISY_RING, "topology.n": 8, "objective.d": 200, "T": 1000}
GAP_RATIO_SD = 0.0168


class TestExpectedGaps:
    """oracles.expected_gaps is E[f(x_bar) - f*] of the node-average
    recursion in closed form, with the sigma^2 / n noise term of the rate."""

    @pytest.mark.parametrize("lr", [{"lr.kind": "auto_constant"}, {"lr.kind": "decaying", "lr.a": 50.0, "lr.b": 0.5}])
    @pytest.mark.parametrize("shape", list(WORKLOAD_SHAPES))
    def test_noise_free_rows_equal_the_oracle(self, shape, lr):
        flat = merged(NOISY_RING, WORKLOAD_SHAPES[shape], lr, {"objective.noise_sigma": 0.0, "seed": 3})
        cfg, _ = build_run_config(flat)
        gaps = expected_gaps(cfg)
        _, f_star = optimum(cfg.objective)
        worst = max(abs(row.loss - f_star - gaps[row.t]) for row in run(cfg).rows)
        assert worst <= 1e-9 * max(1.0, abs(f_star)), worst

    def test_seed_mean_of_the_second_half_gap_matches_the_oracle(self):
        ratios = []
        for seed in range(1, 9):
            cfg, _ = build_run_config(merged(GAP_RUN, {"seed": seed}))
            gaps = expected_gaps(cfg)
            _, f_star = optimum(cfg.objective)
            half = [row for row in run(cfg).rows if row.t >= cfg.T // 2]
            ratios.append(np.mean([row.loss - f_star for row in half]) / np.mean([gaps[row.t] for row in half]))
        # four standard errors of an 8-seed mean: 0.0238, against the recorded 0.0033
        assert abs(np.mean(ratios) - 1.0) < 4.0 * GAP_RATIO_SD / math.sqrt(8), ratios


class CountingMatrix(np.ndarray):
    """A curvature matrix that logs the shape of the other operand of every
    matrix product it takes part in."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, CountingMatrix) else x for x in inputs]
        if ufunc is np.matmul:
            CountingMatrix.log.append(next(x.shape for x in inputs if not isinstance(x, CountingMatrix)))
        return getattr(ufunc, method)(*plain, **kwargs)


class TestSharedCurvatureProduct:
    @pytest.mark.parametrize("lr", ["auto_constant", "auto_decaying"])
    def test_metrics_rows_reuse_step_product(self, lr, monkeypatch):
        cfg = quick_config(T=40, eval_every=3, **{"lr.kind": lr})
        n, d = cfg.topology.n, cfg.objective.d
        counted = dataclasses.replace(
            cfg, objective=dataclasses.replace(cfg.objective, quad_a=cfg.objective.quad_a.view(CountingMatrix))
        )
        monkeypatch.setattr(CountingMatrix, "log", [])
        result = run(counted)
        weighted = sum(r.weighted_avg_loss is not None for r in result.rows)
        assert (lr == "auto_decaying") == (weighted > 0)
        # one product with all n rows before the first step and one after
        # each step, which the metrics rows reuse; a matrix-vector product
        # only for a weighted-average loss; no node takes a product of its own
        log = CountingMatrix.log
        assert len(log) == cfg.T + 1 + weighted
        assert log.count((n, d)) == cfg.T + 1 and log.count((d,)) == weighted
        assert metrics_csv(result) == metrics_csv(run(cfg))

    @pytest.mark.parametrize("kind", ["least_squares", "least_squares_nonconvex", "logistic_l2"])
    def test_sample_based_kinds_stay_bitwise_on_the_per_node_path(self, kind):
        cfg = quick_config(
            T=40, variant="mem_efficient",
            **{"objective.kind": kind, "objective.noise_sigma": 0.0, "compressor.kind": "top_k", "compressor.k": 4,
               "H": 4, "beta": 0.9},
        )
        (new, new_trace), (old, old_trace) = traced_run(cfg), ref.run(cfg)
        assert [(r.t, r.bits_cum, r.triggers) for r in new.rows] == [(r.t, r.bits_cum, r.triggers) for r in old.rows]
        for a, b in zip(new_trace, old_trace, strict=True):
            assert np.array_equal(a, b)


class TestConsensusContraction:
    def test_geometric_decay_with_frozen_gradients(self):
        # zero objective => g = 0 always; spread x0 contracts under gossip
        from squarm.objective import ObjectiveSet

        n, d, T, H = 8, 6, 400, 5
        W = build_ring(n, 1 / 3)
        obj = ObjectiveSet(
            kind="quadratic",
            n=n,
            d=d,
            L=1.0,
            mu=1.0,
            quad_a=np.zeros((d, d)),
            quad_b=np.zeros((n, d)),
        )
        gamma = gamma_strong(W.delta, 1.0, W.lambda_dev)
        cfg = RunConfig(
            topology=W,
            objective=obj,
            compressor=CompressorSpec("identity"),
            lr=LrSchedule(kind="constant", eta=0.1),
            threshold=ThresholdSchedule("always"),
            gamma=gamma,
            H=H,
            T=T,
            beta=0.0,
            seed=3,
            x0_scale=1.0,
            eval_every=H,
            diagnostics=True,
        )
        rows = run(cfg).rows
        cons = [r.consensus for r in rows if (r.t + 1) % H == 0]
        # strict decrease round over round, and at least the (1 - gamma delta)^2 rate
        rate = (1 - gamma * W.delta) ** 2
        for a, b in zip(cons, cons[1:]):
            assert b < a
            assert b <= a * (rate + 1e-6)


class TestDeterminism:
    def test_same_seed_identical_csv(self):
        flat = merged(
            {
                "topology.n": 8,
                "objective.d": 10,
                "objective.noise_sigma": 0.3,
                "compressor.kind": "rand_k",
                "compressor.k": 3,
                "threshold.kind": "poly",
                "threshold.c0": 1.0,
                "threshold.epsilon": 0.5,
                "H": 5,
                "beta": 0.9,
                "T": 200,
                "seed": 7,
                "lr.kind": "auto_constant",
                "x0_scale": 1.0,
            }
        )
        outs = []
        for _ in range(2):
            cfg, _ = build_run_config(flat)
            outs.append(metrics_csv(run(cfg)))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_quadratic_is_built_from_the_first_seed_stream(self, seed):
        cfg = quick_config(seed=seed)
        for n in (0, 1, 8, 128):  # the first stream does not depend on the node count
            data_rng, _, _ = seed_streams(seed, n)
            obj = quadratic_objective(8, 12, data_rng, mu=0.5, L=4.0, noise_sigma=0.1)
            assert np.array_equal(cfg.objective.quad_a, obj.quad_a)
            assert np.array_equal(cfg.objective.quad_b, obj.quad_b)

    @pytest.mark.parametrize(
        "kind, label_noise", [("least_squares", 0.1), ("least_squares_nonconvex", 0.1), ("logistic_l2", 0.5)]
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sample_shards_are_drawn_from_the_first_seed_stream(self, seed, kind, label_noise):
        cfg = quick_config(
            seed=seed, **{"objective.kind": kind, "objective.noise_sigma": 0.0, "objective.samples_per_node": 5}
        )
        rng, _, _ = seed_streams(seed, 8)
        x_true = rng.standard_normal(12)
        assert len(cfg.objective.feats) == len(cfg.objective.labels) == 8
        for a, y in zip(cfg.objective.feats, cfg.objective.labels):
            want_a = rng.standard_normal((5, 12))
            want_y = want_a @ x_true + label_noise * rng.standard_normal(5)
            if kind == "logistic_l2":
                want_y = np.where(want_y > 0, 1.0, -1.0)
            assert np.array_equal(a, want_a)
            assert np.array_equal(y, want_y)


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_carries_partial_rows(self):
        cfg = quick_config(
            T=500,
            eval_every=1,
            **{"lr.kind": "constant", "lr.eta": 10.0, "objective.L": 10.0, "x0_scale": 1.0},
        )
        with pytest.raises(DivergenceError) as err:
            run(cfg)
        assert err.value.partial is not None
        assert len(err.value.partial.rows) >= 1

    @pytest.mark.filterwarnings("error")  # not from the start of the run either
    @pytest.mark.parametrize("x0_scale", [1e200, 1.7e308])
    def test_overflow_is_not_warned_about(self, x0_scale):
        cfg = quick_config(
            T=3,
            grad_clip=1.0,
            x0_scale=x0_scale,
            **{"topology.n": 4, "objective.d": 4},
        )
        with pytest.raises(DivergenceError):
            run(cfg)

    @pytest.mark.filterwarnings("error")
    def test_weighted_average_that_overflows_is_not_warned_about(self):
        # the weights (a + t)^2 overflow, so the weighted average is inf / inf
        cfg = quick_config(T=1, **{"objective.L": 1e152, "lr.kind": "auto_decaying"})
        with pytest.raises(DivergenceError, match="weighted average diverged") as err:
            run(cfg)
        assert [r.t for r in err.value.partial.rows] == [0]

    @pytest.mark.filterwarnings("error")  # no overflow warning escapes the run
    def test_divergence_between_eval_rows_stops_at_its_step(self):
        cfg = quick_config(
            T=2000,
            eval_every=1000,
            **{"lr.kind": "constant", "lr.eta": 10.0, "objective.L": 10.0},
        )
        with pytest.raises(DivergenceError, match="parameters diverged") as err:
            run(cfg)
        rows = err.value.partial.rows
        assert [r.t for r in rows[:-1]] == [0]
        assert 0 < rows[-1].t < 999
        assert not np.isfinite(rows[-1].loss)


class TestEmission:
    def test_csv_round_trip(self):
        cfg = quick_config(T=40, eval_every=10)
        result = run(cfg)
        text = metrics_csv(result)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "t" and header[-1] == "weighted_avg_loss"
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(header)
            float(fields[1])  # loss parses

    def test_summary_json_parses(self):
        import json

        cfg = quick_config(T=40)
        payload = json.loads(summary_json(run(cfg)))
        assert payload["derived"]["delta"] == pytest.approx(cfg.topology.delta)
        assert "config" in payload


class TestWeightedAverage:
    def test_decaying_run_reports_weighted_average(self):
        flat = merged(
            {
                "topology.n": 4,
                "objective.d": 6,
                "objective.mu": 1.0,
                "objective.L": 4.0,
                "objective.noise_sigma": 0.05,
                "compressor.kind": "top_k",
                "compressor.k": 2,
                "threshold.kind": "always",
                "gamma.kind": "auto_strong",
                "H": 2,
                "T": 400,
                "beta": 0.0,
                "lr.kind": "auto_decaying",
                "seed": 5,
                "x0_scale": 1.0,
            }
        )
        cfg, warnings = build_run_config(flat)
        result = run(cfg)
        assert result.x_avg is not None
        assert result.rows[-1].weighted_avg_loss is not None
        x_star, f_star = optimum(cfg.objective)
        # weighted average should at least not be worse than the start
        assert result.rows[-1].weighted_avg_loss - f_star < result.rows[0].loss - f_star
