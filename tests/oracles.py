"""Independent reference implementations used as test oracles.

These deliberately avoid the package's node/engine machinery: the gossip
reference below is a direct matrix-form loop, and the node-average
recursion is centralized momentum SGD; both share only the seed layout
with the engine, so that both sides draw identical gradient noise.
"""

from __future__ import annotations

import numpy as np

from squarm.config import seed_streams
from squarm.engine import initial_positions
from squarm.objective import ObjectiveSet, stochastic_grad
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


def central_diff_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (f(x + e) - f(x - e)) / (2 * step)
    return g
