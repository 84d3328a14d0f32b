import math

import numpy as np
import pytest

from squarm.errors import ParameterError
from squarm.schedule import (
    NEVER,
    LrSchedule,
    ThresholdSchedule,
    constant_lr,
    decaying_schedule,
    eta_at,
    gamma_relaxed,
    gamma_strong,
    min_T_nonconvex,
    min_a_strongly_convex,
    p_of,
    s_T,
    threshold_at,
    weighted_avg_weight,
)


class TestConstantLr:
    def test_trivial(self):
        assert constant_lr(1, 1, 0.0) == 1.0

    def test_formula(self):
        assert constant_lr(8, 800, 0.9) == pytest.approx(0.01, abs=1e-15)

    def test_beta_to_one(self):
        assert constant_lr(8, 800, 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-10)


class TestDecayingLr:
    def test_unit_value(self):
        assert eta_at(decaying_schedule(16.0, 0.0, 1.0), 0) == 1.0

    def test_formula(self):
        assert eta_at(decaying_schedule(1.0, 0.9, 100.0), 0) == pytest.approx(0.016)

    def test_h_step_ratio(self):
        for H in (1, 5, 50):
            lr = decaying_schedule(2.0, 0.5, float(H))  # a >= H suffices
            for t in range(0, 200, 7):
                assert eta_at(lr, t) <= 2 * eta_at(lr, t + H)

    def test_rejects_bad_mu(self):
        with pytest.raises(ParameterError):
            decaying_schedule(0.0, 0.0, 1.0)

    def test_non_increasing(self):
        lr = decaying_schedule(mu=1.0, beta=0.0, a=5.0)
        vals = [eta_at(lr, t) for t in range(50)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestGamma:
    def test_relaxed_at_ones(self):
        assert gamma_relaxed(1, 1, 1) == pytest.approx(2 / 157, abs=1e-15)

    def test_strong_at_ones(self):
        assert gamma_strong(1, 1, 1) == pytest.approx(2 / 73, abs=1e-15)

    def test_relaxed_small_omega(self):
        assert gamma_relaxed(0.5, 1e-6, 1.0) < 1e-17

    def test_strong_small_omega(self):
        assert gamma_strong(0.5, 1e-6, 1.0) < 1e-6

    def test_relaxed_example(self):
        # direct formula evaluation: 0.05 / 301.58
        assert gamma_relaxed(0.2, 0.5, 1.5) == pytest.approx(0.05 / 301.58, rel=1e-12)

    def test_strong_ring8_regression(self):
        delta = 1 - (1 / 3 + (2 / 3) * math.cos(math.pi / 4))
        assert gamma_strong(delta, 0.01, 4 / 3) == pytest.approx(8.931338693711836e-05, rel=1e-12)

    def test_out_of_range(self):
        for bad in [(0.0, 1, 1), (1, 0.0, 1), (1, 1, 0.0), (1.5, 1, 1), (1, 1.2, 1), (1, 1, 2.5)]:
            with pytest.raises(ParameterError):
                gamma_strong(*bad)
            with pytest.raises(ParameterError):
                gamma_relaxed(*bad)

    @pytest.mark.parametrize("formula", [gamma_strong, gamma_relaxed])
    @pytest.mark.parametrize("position, name", [(0, "delta"), (1, "omega"), (2, "lambda")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_are_refused_by_name(self, formula, position, name, value):
        args = [0.5, 0.5, 1.0]
        args[position] = value
        with pytest.raises(ParameterError, match=f"^{name}: expected a finite number, got {value!r}$"):
            formula(*args)

    def test_random_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            delta = rng.uniform(1e-9, 1.0)
            omega = rng.uniform(1e-9, 1.0)
            lam = rng.uniform(1e-9, 2.0)
            gs = gamma_strong(delta, omega, lam)
            gr = gamma_relaxed(delta, omega, lam)
            assert 0.0 < gs <= omega
            assert 0.0 < gr <= 1.0
            assert p_of(gs, delta) >= delta**2 * omega / 644.0


class TestPOf:
    def test_at_ones(self):
        p = p_of(gamma_strong(1, 1, 1), 1.0)
        assert p == pytest.approx(1 / 292, abs=1e-15)
        assert p >= 1 / 644

    def test_small_delta(self):
        assert p_of(0.5, 1e-9) == pytest.approx(0.5 * 1e-9 / 8)

    def test_plain_arithmetic(self):
        assert p_of(0.8, 1.0) == pytest.approx(0.1)


class TestAdmissibility:
    def test_min_a_example(self):
        assert min_a_strongly_convex(5, 0.01, 1.0, 1.0, 0.0) == 2500.0

    def test_min_a_beta_zero_third_term(self):
        assert min_a_strongly_convex(0, 1.0, 1.0, 1.0, 0.0) == 128.0

    def test_min_a_momentum_term(self):
        # H = 0, L = mu = 1, beta = 0.5: max{0, 128, 16 (16/4)^2 * 2} = 512
        assert min_a_strongly_convex(0, 1.0, 1.0, 1.0, 0.5) == 512.0

    def test_min_T_beta_zero(self):
        assert min_T_nonconvex(1.0, 8, 0.0) == 128.0

    def test_min_T_momentum(self):
        assert min_T_nonconvex(1.0, 8, 0.9) == pytest.approx(4199.04)

    def test_min_T_zero_L(self):
        assert min_T_nonconvex(0.0, 8, 0.5) == 0.0

    @pytest.mark.parametrize("position, name", [(1, "p"), (3, "mu"), (4, "beta")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_min_a_refuses_non_finite_arguments_by_name(self, position, name, value):
        args = [1, 0.1, 10.0, 1.0, 0.5]
        args[position] = value
        with pytest.raises(ParameterError, match=f"^{name}: expected a finite number, got {value!r}$"):
            min_a_strongly_convex(*args)

    def test_decaying_schedule_refuses_mu_by_name(self):
        with pytest.raises(ParameterError, match=r"^mu: must be in \(0, inf\), got 0.0$"):
            decaying_schedule(0.0, 0.0, 2.0)
        with pytest.raises(ParameterError, match="^mu: expected a finite number, got nan$"):
            decaying_schedule(math.nan, 0.0, 2.0)

    def test_squares_past_the_float_range_are_inf(self):
        # a float power raises OverflowError where a product would give inf
        assert min_T_nonconvex(1e200, 8, 0.5) == math.inf
        assert min_a_strongly_convex(1, 0.1, 1e200, 1.0, 0.5) == math.inf
        assert weighted_avg_weight(1e200, 3) == math.inf


class TestThresholds:
    def test_always(self):
        assert threshold_at(ThresholdSchedule("always"), 7, 0.1) == 0.0

    def test_never_sentinel(self):
        assert threshold_at(ThresholdSchedule("never"), 7, 0.1) == NEVER

    def test_poly_zero_c0(self):
        sched = ThresholdSchedule("poly", c0=0.0, epsilon=0.5)
        assert threshold_at(sched, 100, 0.1) == 0.0

    def test_poly_growth(self):
        sched = ThresholdSchedule("poly", c0=2.0, epsilon=0.5)
        vals = [threshold_at(sched, t, 0.1) for t in range(100)]
        assert vals[0] == 0.0
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[81] == pytest.approx(2.0 * 9.0)

    def test_piecewise_steps(self):
        sched = ThresholdSchedule("piecewise", init=2.5, step=1.5, period=20)
        assert threshold_at(sched, 0, 0.1) == 2.5
        assert threshold_at(sched, 19, 0.1) == 2.5
        assert threshold_at(sched, 20, 0.1) == 4.0
        assert threshold_at(sched, 21, 0.1) == 4.0

    def test_const_eta(self):
        sched = ThresholdSchedule("const_eta", c0=1.0, epsilon=0.5)
        assert threshold_at(sched, 3, 0.04) == pytest.approx(1.0 / 0.04**0.5)


class TestWeightedAverage:
    def test_weight(self):
        assert weighted_avg_weight(3.0, 4) == 49.0

    def test_s_T_single_term(self):
        assert s_T(1, 1) == 1.0

    def test_closed_form_exact(self):
        for a in range(1, 6):
            for T in range(1, 51):
                assert s_T(a, T) == sum((a + t) ** 2 for t in range(T))

    def test_non_integer_a(self):
        a, T = 2.5, 9
        assert s_T(a, T) == pytest.approx(sum((a + t) ** 2 for t in range(T)), rel=1e-14)


class TestScheduleTypes:
    def test_constant_needs_eta(self):
        with pytest.raises(ParameterError):
            LrSchedule(kind="constant")

    def test_decaying_needs_a_ge_1(self):
        with pytest.raises(ParameterError):
            LrSchedule(kind="decaying", b=1.0, a=0.5)

    def test_bad_threshold_epsilon(self):
        with pytest.raises(ParameterError):
            ThresholdSchedule("poly", c0=1.0, epsilon=1.5)

    def test_bad_piecewise_period(self):
        with pytest.raises(ParameterError):
            ThresholdSchedule("piecewise", init=1.0, step=1.0, period=0)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: LrSchedule(kind="decaying", a=2.0), "^b: expected a finite number, got None$"),
            (lambda: LrSchedule(kind="decaying", b=0.0, a=2.0), r"^b: must be in \(0, inf\), got 0.0$"),
            (lambda: LrSchedule(kind="cyclic", eta=0.1), "unknown lr kind 'cyclic'"),
            (lambda: ThresholdSchedule("sometimes"), "unknown threshold kind 'sometimes'"),
            (lambda: ThresholdSchedule("const_eta", c0=-1.0), r"^c0: must be in \[0, inf\), got -1.0$"),
            (lambda: ThresholdSchedule("piecewise", init=-1.0), r"^init: must be in \[0, inf\), got -1.0$"),
            (lambda: ThresholdSchedule("piecewise", step=-1.0), r"^step: must be in \[0, inf\), got -1.0$"),
            (lambda: constant_lr(8, 0, 0.0), "T must be >= 1"),
            (lambda: min_a_strongly_convex(1, 0.0, 10.0, 1.0, 0.0), r"^p: must be in \(0, inf\), got 0.0$"),
            (lambda: min_a_strongly_convex(1, 0.1, 10.0, 0.0, 0.0), r"^mu: must be in \(0, inf\), got 0.0$"),
            (lambda: min_a_strongly_convex(1, 0.1, 10.0, 1.0, 1.0), r"^beta: must be in \[0, 1\), got 1.0$"),
            (lambda: LrSchedule(kind="constant", eta=math.inf), "^eta: expected a finite number, got inf$"),
            (lambda: LrSchedule(kind="constant", eta=math.nan), "^eta: expected a finite number, got nan$"),
            (lambda: LrSchedule(kind="decaying", b=math.inf, a=2.0), "^b: expected a finite number, got inf$"),
            (lambda: LrSchedule(kind="decaying", b=1.0, a=math.inf), "^a: expected a finite number, got inf$"),
        ],
        ids=["b_unset", "b_zero", "lr_kind", "threshold_kind", "c0", "init", "step", "T", "p", "mu", "beta",
             "eta_inf", "eta_nan", "b_inf", "a_inf"],
    )
    def test_argument_guards(self, build, match):
        with pytest.raises(ParameterError, match=match):
            build()
