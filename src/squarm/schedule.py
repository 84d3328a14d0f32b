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

from .errors import UNSET, Key, checked

NEVER = math.inf  # sentinel threshold: the trigger test always fails

# each lr kind and the LrSchedule fields it reads
LR_KINDS: dict[str, tuple[str, ...]] = {"constant": ("eta",), "decaying": ("b", "a")}
# each field's rule, which config.KEYS gives lr.<field>
LR_RULES = {"eta": Key(float, UNSET, "(0, inf)"), "b": Key(float, UNSET, "(0, inf)"), "a": Key(float, UNSET, "[1, inf)")}
_LR_KIND = Key(str, UNSET, tuple(LR_KINDS))  # config's lr.kind adds the auto kinds that resolve to these


@dataclass(frozen=True)
class LrSchedule:
    """Constant eta, or decaying eta_t = b / (a + t)."""

    kind: str
    eta: float | None = None
    b: float | None = None
    a: float | None = None

    def __post_init__(self):
        for name in LR_KINDS[checked("kind", self.kind, _LR_KIND)]:
            object.__setattr__(self, name, checked(name, getattr(self, name), LR_RULES[name]))


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
# the kind's and each field's rule, which config.KEYS gives threshold.<field>
_LEVEL = Key(float, UNSET, "[0, inf)")  # c0 and the piecewise levels
THRESHOLD_RULES = {"kind": Key(str, "always", tuple(THRESHOLD_KINDS)), "c0": _LEVEL,
                   "epsilon": Key(float, UNSET, "(0, 1]"), "init": _LEVEL, "step": _LEVEL,
                   "period": Key(int, UNSET, "[1, inf)")}


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
        for name in THRESHOLD_KINDS[checked("kind", self.kind, THRESHOLD_RULES["kind"])]:
            object.__setattr__(self, name, checked(name, getattr(self, name), THRESHOLD_RULES[name]))


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


# each rule of a closed-form function's argument (lambda is lam), which config.KEYS
# gives gamma.omega and lr.mu; L is left unchecked, as an overflowed L = inf is
# config's to report
ARG_RULES = {"delta": Key(float, UNSET, "(0, 1]"), "omega": Key(float, UNSET, "(0, 1]"),
             "lambda": Key(float, UNSET, "(0, 2]"), "p": Key(float, UNSET, "(0, inf)"),
             "mu": Key(float, UNSET, "(0, inf)"), "beta": Key(float, UNSET, "[0, 1)"),
             "n": Key(int, UNSET, "[1, inf)"), "T": Key(int, UNSET, "[1, inf)"), "H": Key(int, UNSET, "[0, inf)")}


def _checked_args(names: str, *values) -> tuple:
    """values checked against the ARG_RULES of names, a space-separated list."""
    return tuple(checked(name, value, ARG_RULES[name]) for name, value in zip(names.split(), values))


def constant_lr(n: int, T: int, beta: float) -> float:
    """eta = (1 - beta) sqrt(n / T)."""
    n, T, beta = _checked_args("n T beta", n, T, beta)
    return (1.0 - beta) * math.sqrt(n / T)


def decaying_schedule(mu: float, beta: float, a: float) -> LrSchedule:
    """eta_t = 16 (1 - beta) / (mu (a + t)): LrSchedule's decaying kind with
    b = 16 (1 - beta) / mu."""
    mu = checked("mu", mu, ARG_RULES["mu"])
    return LrSchedule(kind="decaying", b=16.0 * (1.0 - beta) / mu, a=a)


def gamma_relaxed(delta: float, omega: float, lam: float) -> float:
    delta, omega, lam = _checked_args("delta omega lambda", delta, omega, lam)
    value = (2.0 * delta * omega**3) / (
        4.0 * delta**2 * omega**2 + delta**2 + 128.0 * lam**2 + 24.0 * omega**2 * lam**2
    )
    return min(value, 1.0)


def gamma_strong(delta: float, omega: float, lam: float) -> float:
    delta, omega, lam = _checked_args("delta omega lambda", delta, omega, lam)
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
    H, p, mu, beta = _checked_args("H p mu beta", H, p, mu, beta)
    return max(
        5.0 * H / p,
        128.0 * L / mu,
        16.0 * _squared(16.0 * L * beta**2) / (mu * (1.0 - beta)),
    )


def min_T_nonconvex(L: float, n: int, beta: float) -> float:
    """Smallest admissible T for the constant-lr non-convex guarantee."""
    n, beta = _checked_args("n beta", n, beta)
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
