"""Closed-form hyperparameters: learning rates, consensus step-sizes,
triggering thresholds, and admissibility minimums.

Consensus step-size formulas (delta = spectral gap, omega = compression
factor, lam = max_i (1 - lambda_i(W))):

  gamma_relaxed = 2 delta omega^3 / (4 delta^2 omega^2 + delta^2
                                     + 128 lam^2 + 24 omega^2 lam^2)
  gamma_strong  = 2 delta omega   / (64 delta + delta^2 + 16 lam^2
                                     + 8 delta lam^2 - 16 delta omega)

gamma_strong <= omega holds on the whole valid range, and the consensus
contraction coefficient p = gamma delta / 8 satisfies the crude bound
p >= delta^2 omega / 644 whenever gamma came from gamma_strong (the
denominator above is at most 161 = 644/4); verify.gamma_bounds checks both
on random draws. gamma_relaxed can exceed 1 on a thin corner of the domain
(small delta ~ lam with omega near 1), so it is clamped to 1.

Learning rates: constant eta = (1 - beta) sqrt(n / T), or decaying
eta_t = 16 (1 - beta) / (mu (a + t)) with
a >= max{5H/p, 128 L / mu, 16 (16 L beta^2)^2 / (mu (1 - beta))}.

Weighted averaging for decaying runs uses w_t = (a + t)^2 and
S_T = (T/6) (2 T^2 + 6 a T - 3 T + 6 a^2 - 6 a + 1) = sum_{t<T} (a + t)^2.

min_T_nonconvex covers the bounded-second-moment guarantee only; the
relaxed-assumption guarantee's burn-in horizon has no usable closed form
and is not computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

NEVER = math.inf  # sentinel threshold: the trigger test always fails


@dataclass(frozen=True)
class LrSchedule:
    """Constant eta, or decaying eta_t = b / (a + t)."""

    kind: str
    eta: float | None = None
    b: float | None = None
    a: float | None = None

    def __post_init__(self):
        for name in ("eta", "b", "a"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"lr {name} must be finite, got {value!r}")
        if self.kind == "constant":
            if self.eta is None or self.eta <= 0:
                raise ParameterError("constant lr needs eta > 0")
        elif self.kind == "decaying":
            if self.b is None or self.b <= 0:
                raise ParameterError("decaying lr needs b > 0")
            if self.a is None or self.a < 1:
                raise ParameterError("decaying lr needs a >= 1")
        else:
            raise ParameterError(f"unknown lr kind {self.kind!r}")


def eta_at(sched: LrSchedule, t: int) -> float:
    if sched.kind == "constant":
        return sched.eta
    return sched.b / (sched.a + t)


# each threshold kind and the ThresholdSchedule fields it reads, in the
# order a config missing them is refused
THRESHOLD_KINDS: dict[str, tuple[str, ...]] = {
    "always": (),
    "never": (),
    "poly": ("c0", "epsilon"),
    "const_eta": ("c0", "epsilon"),
    "piecewise": ("init", "step", "period"),
}


@dataclass(frozen=True)
class ThresholdSchedule:
    """Triggering threshold sequence c_t.

    always    c_t = 0 (communicate whenever the copy drift is nonzero)
    never     c_t = inf sentinel (pure local SGD)
    poly      c_t = c0 * t^(1 - epsilon), non-decreasing and o(t)
    const_eta c_t = c0 / eta^(1 - epsilon), constant over a constant-lr run
    piecewise c_t = init + step * floor(t / period)
    """

    kind: str
    c0: float = 0.0
    epsilon: float = 1.0
    init: float = 0.0
    step: float = 0.0
    period: int = 1

    def __post_init__(self):
        fields = THRESHOLD_KINDS.get(self.kind)
        if fields is None:
            raise ParameterError(f"unknown threshold kind {self.kind!r}")
        if "c0" in fields:
            if self.c0 < 0:
                raise ParameterError("threshold c0 must be >= 0")
            if not 0.0 < self.epsilon <= 1.0:
                raise ParameterError("threshold epsilon must be in (0, 1]")
        if "period" in fields:
            if self.init < 0 or self.step < 0:
                raise ParameterError("piecewise threshold needs init, step >= 0")
            if self.period < 1:
                raise ParameterError("piecewise threshold needs period >= 1")


def threshold_at(sched: ThresholdSchedule, t: int, eta_t: float) -> float:
    if sched.kind == "always":
        return 0.0
    if sched.kind == "never":
        return NEVER
    if sched.kind == "poly":
        return sched.c0 * float(t) ** (1.0 - sched.epsilon)
    if sched.kind == "const_eta":
        return sched.c0 / eta_t ** (1.0 - sched.epsilon)
    return sched.init + sched.step * (t // sched.period)


def constant_lr(n: int, T: int, beta: float) -> float:
    """eta = (1 - beta) sqrt(n / T)."""
    if T < 1:
        raise ParameterError("T must be >= 1")
    return (1.0 - beta) * math.sqrt(n / T)


def decaying_schedule(mu: float, beta: float, a: float) -> LrSchedule:
    """eta_t = 16 (1 - beta) / (mu (a + t)): LrSchedule's decaying kind with
    b = 16 (1 - beta) / mu."""
    if mu <= 0:
        raise ParameterError("mu must be > 0")
    return LrSchedule(kind="decaying", b=16.0 * (1.0 - beta) / mu, a=a)


def _check_ranges(delta: float, omega: float, lam: float) -> None:
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"delta must be in (0, 1], got {delta}")
    if not 0.0 < omega <= 1.0:
        raise ParameterError(f"omega must be in (0, 1], got {omega}")
    if not 0.0 < lam <= 2.0:
        raise ParameterError(f"lambda must be in (0, 2], got {lam}")


def gamma_relaxed(delta: float, omega: float, lam: float) -> float:
    _check_ranges(delta, omega, lam)
    value = (2.0 * delta * omega**3) / (
        4.0 * delta**2 * omega**2 + delta**2 + 128.0 * lam**2 + 24.0 * omega**2 * lam**2
    )
    return min(value, 1.0)


def gamma_strong(delta: float, omega: float, lam: float) -> float:
    _check_ranges(delta, omega, lam)
    # positive on the checked ranges: at least 64 delta - 16 delta omega >= 48 delta
    denom = 64.0 * delta + delta**2 + 16.0 * lam**2 + 8.0 * delta * lam**2 - 16.0 * delta * omega
    return (2.0 * delta * omega) / denom


def p_of(gamma: float, delta: float) -> float:
    """Consensus contraction coefficient p = gamma delta / 8."""
    return gamma * delta / 8.0


def _squared(x: float) -> float:
    """x**2, or inf where that overflows (a float power raises instead)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def min_a_strongly_convex(H: int, p: float, L: float, mu: float, beta: float) -> float:
    """Smallest admissible offset a for the decaying schedule."""
    if p <= 0:
        raise ParameterError("p must be > 0")
    if mu <= 0:
        raise ParameterError("mu must be > 0")
    if not 0.0 <= beta < 1.0:
        raise ParameterError("beta must be in [0, 1)")
    return max(
        5.0 * H / p,
        128.0 * L / mu,
        16.0 * _squared(16.0 * L * beta**2) / (mu * (1.0 - beta)),
    )


def min_T_nonconvex(L: float, n: int, beta: float) -> float:
    """Smallest admissible T for the constant-lr non-convex guarantee."""
    return max(16.0 * _squared(L) * n, 8.0 * _squared(L) * beta**4 * n / (1.0 - beta) ** 2)


def weighted_avg_weight(a: float, t: int) -> float:
    """w_t = (a + t)^2."""
    return _squared(a + t)


def s_T(a: float, T: int) -> float:
    """Closed form of sum_{t=0}^{T-1} (a + t)^2.

    Exact (integer arithmetic) when a and T are integral.
    """
    if isinstance(a, int) or float(a).is_integer():
        ai = int(a)
        num = T * (2 * T * T + 6 * ai * T - 3 * T + 6 * ai * ai - 6 * ai + 1)
        return num / 6  # always divisible by 6 for integral a, T
    return T * (2.0 * T**2 + 6.0 * a * T - 3.0 * T + 6.0 * a**2 - 6.0 * a + 1.0) / 6.0
