import numpy as np
import pytest

from squarm.compress import CompressorSpec, decode
from squarm.errors import ParameterError
from squarm.node import (
    NodeState,
    apply_incoming,
    consensus_step,
    encode_update,
    fired,
    local_step,
    local_steps,
    make_state,
    should_trigger,
)
from squarm.topology import build_complete, build_ring

W3 = build_complete(3).w  # every node holds every other node's copy


def fresh(n=3, d=3, variant="full_copy", x0=None):
    x0 = np.zeros((n, d)) if x0 is None else x0
    return make_state(x0, variant)


def test_unknown_variant_is_a_parameter_error():
    with pytest.raises(ParameterError, match="unknown variant 'bogus'"):
        make_state(np.zeros((3, 2)), "bogus")


class TestLocalStep:
    def test_beta_zero_is_sgd(self):
        st = fresh()
        g = np.array([1.0, -2.0, 0.0])
        local_step(st, 0, g, eta=0.1, beta=0.0)
        assert np.array_equal(st.V[0], g)
        assert np.allclose(st.X[0], -0.1 * g, atol=0)
        assert not st.X[1:].any() and not st.V[1:].any()  # other rows untouched

    def test_first_step_with_momentum(self):
        st = fresh()
        g = np.array([1.0, 0.0, 0.0])
        local_step(st, 1, g, eta=0.1, beta=0.9)
        # v' = g, dx = -eta (beta v' + g) = -eta 1.9 g
        assert np.array_equal(st.V[1], g)
        assert np.allclose(st.X[1], -0.1 * 1.9 * g, atol=1e-16)

    def test_zero_gradient_decay(self):
        st = fresh()
        local_step(st, 0, np.array([1.0, 0.0, 0.0]), eta=0.0, beta=0.5)
        v1 = st.V[0].copy()
        x1 = st.X[0].copy()
        local_step(st, 0, np.zeros(3), eta=0.1, beta=0.5)
        assert np.allclose(st.V[0], 0.5 * v1, atol=0)
        assert np.allclose(st.X[0], x1 - 0.1 * 0.5 * st.V[0], atol=1e-16)

    def test_uses_updated_buffer(self):
        # one step from nonzero v: dx must involve beta^2 v_old + (1+beta) g
        st = fresh()
        st.V[2] = [1.0, 0.0, 0.0]
        g = np.array([0.0, 1.0, 0.0])
        local_step(st, 2, g, eta=1.0, beta=0.5)
        expected = -(0.5 * (0.5 * np.array([1.0, 0, 0]) + g) + g)
        assert np.allclose(st.X[2], expected, atol=0)

    def test_non_finite_rejected(self):
        # a non-finite gradient entry leaves a non-finite parameter row, which
        # the engine's per-step finiteness check turns into a divergence
        from squarm.engine import RunConfig, run
        from squarm.errors import DivergenceError
        from squarm.objective import ObjectiveSet
        from squarm.schedule import LrSchedule, ThresholdSchedule

        for eta in (0.1, 0.0):  # eta 0 makes 0 * inf = nan
            st = fresh()
            with np.errstate(invalid="ignore"):
                local_step(st, 0, np.array([np.inf, 0.0, 0.0]), eta, 0.0)
            assert not np.isfinite(st.X[0]).all()
        b = np.zeros((3, 2))
        b[1, 0] = np.inf
        obj = ObjectiveSet(
            kind="quadratic", n=3, d=2, L=1.0, mu=1.0,
            quad_a=np.eye(2), quad_b=b,
        )
        cfg = RunConfig(
            topology=build_ring(3), objective=obj, compressor=CompressorSpec("identity"),
            lr=LrSchedule(kind="constant", eta=0.1), threshold=ThresholdSchedule("always"),
            gamma=1.0, H=1, T=5, beta=0.0, seed=0,
        )
        with pytest.raises(DivergenceError, match="t=0"):
            run(cfg)


class TestTrigger:
    def test_no_drift_never_fires(self):
        st = fresh()
        assert not should_trigger(st, 0, 0.0, 1.0)

    def test_zero_threshold_fires_on_any_drift(self):
        st = fresh()
        st.X[0] = [1e-12, 0.0, 0.0]
        assert should_trigger(st, 0, 0.0, 1.0)
        assert not should_trigger(st, 1, 0.0, 1.0)

    def test_threshold_scales_with_eta(self):
        st = fresh()
        st.X[0] = [2.0, 0.0, 0.0]  # drift^2 = 4
        assert should_trigger(st, 0, 3.0, 1.0)
        assert not should_trigger(st, 0, 3.0, 2.0)

    def test_never_sentinel(self):
        st = fresh()
        st.X[:] = 1e6
        assert not should_trigger(st, 0, np.inf, 1.0)


def drawn_state(rng, n=9, d=13):
    st = fresh(n, d, x0=rng.standard_normal((n, d)))
    st.V[:] = rng.standard_normal((n, d))
    st.Hat[:] = st.X + rng.standard_normal((n, d)) * rng.random((n, 1))
    st.Hat[::4] = st.X[::4]  # some nodes without drift
    return st


class TestPhases:
    """Each whole-graph phase equals its per-node loop, bit for bit."""

    @pytest.mark.parametrize("beta", [0.0, 0.9])
    def test_local_steps_is_the_per_node_loop(self, beta):
        rng = np.random.default_rng(20)
        for _ in range(10):
            st = drawn_state(rng)
            want = NodeState(st.X.copy(), st.V.copy(), st.Hat.copy())
            G = rng.standard_normal(st.X.shape)
            eta = float(rng.random())
            local_steps(st, G, eta, beta)
            for i in range(len(G)):
                local_step(want, i, G[i], eta, beta)
            assert np.array_equal(st.X, want.X) and np.array_equal(st.V, want.V)
            assert np.array_equal(st.Hat, want.Hat)

    @pytest.mark.parametrize("threshold", ["always", "never", "finite"])
    def test_fired_is_the_per_node_loop(self, threshold):
        rng = np.random.default_rng(21)
        for _ in range(10):
            st = drawn_state(rng)
            eta = float(rng.random())
            drift = ((st.X - st.Hat) ** 2).sum(axis=1)
            c_t = {"always": 0.0, "never": np.inf, "finite": float(np.median(drift)) / eta**2}[threshold]
            got = fired(st, c_t, eta)
            assert got == [i for i in range(len(st.X)) if should_trigger(st, i, c_t, eta)]
            assert all(type(i) is int for i in got)
            if threshold == "always":
                assert got == [i for i in range(len(st.X)) if i % 4]
            if threshold == "never":
                assert got == []
            if threshold == "finite":
                assert 0 < len(got) < len(st.X)


class TestEncodeApply:
    def test_identity_encode(self):
        rng = np.random.default_rng(0)
        st = fresh()
        st.X[0] = [1.0, 2.0, 3.0]
        st.Hat[0] = [0.5, 0.0, 0.0]
        q = decode(encode_update(st, 0, CompressorSpec("identity"), rng))
        assert np.array_equal(q, st.X[0] - st.Hat[0])

    def test_top_k_on_difference(self):
        rng = np.random.default_rng(0)
        st = fresh(n=2, d=2)
        st.X[1] = [3.0, -1.0]
        q = decode(encode_update(st, 1, CompressorSpec("top_k", k=1), rng))
        assert np.array_equal(q, [3.0, 0.0])

    def test_zero_message_no_change(self):
        st = fresh()
        x_before = st.X.copy()
        apply_incoming(st, [1], np.zeros((1, 3)), W3)
        consensus_step(st, 0.5, W3)
        assert np.array_equal(st.X, x_before)

    def test_first_broadcast_sets_copy(self):
        st = fresh()
        q = np.array([1.0, 2.0, 3.0])
        apply_incoming(st, [1], q[None, :], W3)
        assert np.array_equal(st.Hat[1], q)
        assert not st.Hat[[0, 2]].any()

    def test_self_message_updates_hat(self):
        # two senders in one round; each copy advances by its own payload only
        st = fresh()
        Q = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        apply_incoming(st, [0, 2], Q, W3)
        assert np.array_equal(st.Hat, [Q[0], [0.0, 0.0, 0.0], Q[1]])

    def test_unknown_sender(self):
        # a payload reaches exactly the nodes that weight its sender's copy
        w = build_ring(5, 0.4).w
        st = fresh(n=5, variant="mem_efficient")
        apply_incoming(st, [0], np.ones((1, 3)), w)
        assert [i for i in range(5) if st.S[i].any()] == [0, 1, 4]
        assert np.array_equal(st.S[:, 0], w[:, 0])

    def test_mem_efficient_self_updates_both(self):
        w = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        st = fresh(variant="mem_efficient")
        q = np.array([2.0, 0.0, 0.0])
        apply_incoming(st, [0], q[None, :], w)
        assert np.array_equal(st.S[0], 0.5 * q)
        assert np.array_equal(st.Hat[0], q)


class TestConsensus:
    def test_agreement_is_fixed_point(self):
        st = fresh()
        st.Hat[:] = 1.0
        x_before = st.X.copy()
        consensus_step(st, 0.7, W3)
        assert np.array_equal(st.X, x_before)

    def test_gamma_zero_no_move(self):
        st = fresh()
        st.Hat[1] = [5.0, 0.0, 0.0]
        x_before = st.X.copy()
        consensus_step(st, 0.0, W3)
        assert np.array_equal(st.X, x_before)

    def test_two_node_hand_value(self):
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        st = make_state(np.zeros((2, 1)), "full_copy")
        st.Hat[1] = [2.0]
        consensus_step(st, 1.0, w)
        assert st.X[0, 0] == pytest.approx(1.0, abs=0)
        assert st.X[1, 0] == pytest.approx(-1.0, abs=0)

    def test_variants_agree_one_round(self):
        rng = np.random.default_rng(1)
        W = build_ring(4, 1 / 3)
        full = make_state(np.zeros((4, 5)), "full_copy")
        mem = make_state(np.zeros((4, 5)), "mem_efficient")
        Q = rng.standard_normal((4, 5))
        for st in (full, mem):
            apply_incoming(st, [0, 1, 2, 3], Q, W.w)
            consensus_step(st, 0.6, W.w)
        assert np.abs(full.X - mem.X).max() < 1e-14


class TestMemEfficientShadow:
    def test_s_tracks_weighted_copy_sum(self):
        # run a synthetic multi-round exchange; S must equal W Hat, the
        # weighted copy sums rebuilt from the public copies
        rng = np.random.default_rng(2)
        W = build_ring(5, 0.4)
        mem = make_state(np.zeros((5, 4)), "mem_efficient")
        for _ in range(20):
            fired = [j for j in range(5) if rng.random() < 0.7]
            apply_incoming(mem, fired, rng.standard_normal((len(fired), 4)), W.w)
            assert np.abs(mem.S - W.w @ mem.Hat).max() < 1e-10

    @pytest.mark.parametrize("w", [build_ring(6, 0.4).w, build_complete(7).w], ids=["ring", "complete"])
    def test_s_adds_senders_in_ascending_order(self, w):
        # the sender-by-sender loop the batched update replaces, bit for bit
        rng = np.random.default_rng(4)
        n = len(w)
        mem = make_state(np.zeros((n, 5)), "mem_efficient")
        S = np.zeros((n, 5))
        for _ in range(15):
            fired = [j for j in range(n) if rng.random() < 0.6]
            Q = rng.standard_normal((len(fired), 5))
            apply_incoming(mem, fired, Q, w)
            for j, q in zip(fired, Q):
                holders = np.flatnonzero(w[:, j])
                S[holders] += w[holders, j][:, None] * q
            assert np.array_equal(mem.S, S)
