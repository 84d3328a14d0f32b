"""Independent reference implementations used as test oracles.

These deliberately avoid the package's node/engine machinery: the gossip
reference below is a direct matrix-form loop, and the node-average
recursion is centralized momentum SGD; both share only the seed layout
with the engine, so that both sides draw identical gradient noise. The
expected-gap oracle is that recursion's mean and covariance in closed form.
"""

from __future__ import annotations

import numpy as np

from squarm.config import RunConfig, seed_streams
from squarm.engine import initial_positions
from squarm.objective import ObjectiveSet, optimum, stochastic_grad
from squarm.schedule import LrSchedule, eta_at


def gossip_sgd_trajectory(
    obj: ObjectiveSet,
    w: np.ndarray,
    eta: float,
    T: int,
    seed: int,
    x0_scale: float = 0.0,
) -> list[np.ndarray]:
    """x^{t+1} = W (x^t - eta g^t), rows indexed by node."""
    n = w.shape[0]
    _, x0_rng, node_rngs = seed_streams(seed, n)
    X = initial_positions(x0_rng, n, obj.d, x0_scale)
    traj = [X.copy()]
    for _ in range(T):
        G = np.stack([stochastic_grad(obj, i, X[i], node_rngs[i]) for i in range(n)])
        X = w @ (X - eta * G)
        traj.append(X.copy())
    return traj


def node_average_trajectory(
    obj: ObjectiveSet,
    lr: LrSchedule,
    beta: float,
    T: int,
    seed: int,
    x0_scale: float = 0.0,
) -> list[np.ndarray]:
    """The node average x_bar^0..x_bar^T of a quadratic-kind run.

    The nodes share the curvature A, so the mean gradient is
    A x_bar - b_bar + sigma mean_i xi_i, and the gossip correction leaves the
    average alone: x_bar follows centralized momentum SGD,
    v_bar <- beta v_bar + g_bar, x_bar <- x_bar - eta_t (beta v_bar + g_bar),
    whatever the graph, compressor or trigger did. Each node draws its xi_i
    from its own stream in node order, as the engine does; a compressor that
    draws from those streams too breaks the match."""
    n = obj.n
    _, x0_rng, node_rngs = seed_streams(seed, n)
    x = initial_positions(x0_rng, n, obj.d, x0_scale).mean(axis=0)
    v = np.zeros(obj.d)
    b_bar = obj.quad_b.mean(axis=0)
    traj = [x.copy()]
    for t in range(T):
        g = obj.quad_a @ x - b_bar
        if obj.noise_sigma > 0.0:
            g = g + obj.noise_sigma * np.mean([rng.standard_normal(obj.d) for rng in node_rngs], axis=0)
        v = beta * v + g
        x = x - eta_at(lr, t) * (beta * v + g)
        traj.append(x.copy())
    return traj


def expected_gaps(cfg: RunConfig) -> np.ndarray:
    """E[f(x_bar) - f*] after each step t < cfg.T of a quadratic-kind run
    without grad_clip, at any step-size schedule.

    x_bar follows centralized momentum SGD (node_average_trajectory) with
    gradient noise of variance sigma^2 / n per coordinate, and so does each
    coordinate e of Q^T (x_bar - x*) in the eigenbasis A = Q diag(lam) Q^T,
    with its momentum m: (e, m) <- M (e, m) + c xi, where
    M = [[1 - eta (1 + beta) lam, -eta beta^2], [lam, beta]] and
    c = (-eta (1 + beta), 1). The mean of (e, m) follows M from
    (Q^T (x_bar^0 - x*), 0), its covariance P follows M P M^T + (sigma^2 / n) c c^T
    from 0, and the gap is 0.5 sum lam (E[e]^2 + P_ee)."""
    obj, beta = cfg.objective, cfg.beta
    assert obj.kind == "quadratic" and cfg.grad_clip is None
    lam, Q = np.linalg.eigh(obj.quad_a)
    x_star, _ = optimum(obj)
    _, x0_rng, _ = seed_streams(cfg.seed, obj.n)
    e = Q.T @ (initial_positions(x0_rng, obj.n, obj.d, cfg.x0_scale).mean(axis=0) - x_star)
    m = np.zeros(obj.d)
    p_ee, p_em, p_mm = np.zeros(obj.d), np.zeros(obj.d), np.zeros(obj.d)
    s = obj.noise_sigma**2 / obj.n
    gaps = np.empty(cfg.T)
    for t in range(cfg.T):
        eta = eta_at(cfg.lr, t)
        a, b, c = 1.0 - eta * (1.0 + beta) * lam, -eta * beta**2, -eta * (1.0 + beta)
        e, m = a * e + b * m, lam * e + beta * m
        p_ee, p_em, p_mm = (
            a * a * p_ee + 2.0 * a * b * p_em + b * b * p_mm + s * c * c,
            a * lam * p_ee + (a * beta + b * lam) * p_em + b * beta * p_mm + s * c,
            lam * lam * p_ee + 2.0 * lam * beta * p_em + beta * beta * p_mm + s,
        )
        gaps[t] = 0.5 * float(lam @ (e * e + p_ee))
    return gaps


def central_diff_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (f(x + e) - f(x - e)) / (2 * step)
    return g
