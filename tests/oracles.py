"""Independent reference implementations used as test oracles.

These deliberately avoid the package's node/engine machinery: the gossip
reference below is a direct matrix-form loop, sharing only the seed layout
so that both sides draw identical gradient noise.
"""

from __future__ import annotations

import numpy as np

from squarm.config import seed_streams
from squarm.engine import initial_positions
from squarm.objective import ObjectiveSet, stochastic_grad


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


def central_diff_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (f(x + e) - f(x - e)) / (2 * step)
    return g
