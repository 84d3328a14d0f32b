"""Mixing matrices for gossip communication graphs.

A mixing matrix W is symmetric and doubly stochastic: W = W^T, every row and
column sums to one, all entries are nonnegative, and w[i][j] = 0 whenever
(i, j) is not an edge. Two spectral quantities drive every step-size formula
downstream:

  delta      = 1 - |lambda_2(W)|   (spectral gap; eigenvalues ordered by
                                    absolute value, lambda_1 = 1)
  lambda_dev = max_i (1 - lambda_i(W)) = 1 - lambda_min(W)

For symmetric W with lambda_i <= 1, lambda_dev coincides with ||W - I||_2;
this module assumes symmetry throughout and does not support asymmetric
weights. A connected, aperiodic weighting gives delta in (0, 1] and
lambda_dev in (0, 2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConnectivityError,
    NumericalError,
    StochasticityError,
    SymmetryError,
    TopologyError,
)

STOCHASTIC_TOL = 1e-10


@dataclass(frozen=True)
class MixingMatrix:
    """Validated gossip weight matrix with cached spectral quantities."""

    n: int
    w: np.ndarray
    delta: float
    lambda_dev: float

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Indices j != i with w[i][j] > 0."""
        row = self.w[i]
        return tuple(int(j) for j in np.nonzero(row)[0] if j != i)


def spectral_quantities(w: np.ndarray) -> tuple[float, float]:
    """Return (delta, lambda_dev) for a symmetric doubly stochastic matrix.

    delta is computed from the second-largest eigenvalue in absolute value;
    lambda_dev from the signed minimum eigenvalue.
    """
    try:
        eigs = np.linalg.eigvalsh(np.asarray(w, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    by_abs = np.sort(np.abs(eigs))[::-1]
    delta = float(1.0 - by_abs[1])
    lambda_dev = float(1.0 - eigs.min())
    return delta, lambda_dev


def power_deviation(w: np.ndarray, k: int) -> float:
    """||W^k - (1/n) 1 1^T||_2, the distance of k gossip rounds from full averaging.

    For doubly stochastic W this equals (1 - delta)^k with
    delta = 1 - |lambda_2|, which the test suite uses as a self-check of the
    spectral pipeline.
    """
    if k < 0:
        raise TopologyError("k must be >= 0")
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    j = np.full((n, n), 1.0 / n)
    return float(np.linalg.norm(np.linalg.matrix_power(w, k) - j, 2))


def _validate(w: np.ndarray) -> MixingMatrix:
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise TopologyError("weight matrix must be square")
    n = w.shape[0]
    if not np.array_equal(w, w.T):
        raise SymmetryError("weight matrix is not symmetric")
    if (w < 0).any():
        raise StochasticityError("weight matrix has negative entries")
    row_dev = np.abs(w.sum(axis=1) - 1.0).max()
    col_dev = np.abs(w.sum(axis=0) - 1.0).max()
    if max(row_dev, col_dev) > STOCHASTIC_TOL:
        raise StochasticityError(
            f"rows/columns must sum to 1 (max deviation {max(row_dev, col_dev):.3e})"
        )
    if not _connected(w):
        raise ConnectivityError("communication graph is not connected")
    delta, lambda_dev = spectral_quantities(w)
    if delta <= 0:
        raise TopologyError(f"spectral gap is not positive (delta={delta:.3e})")
    w = w.copy()
    w.setflags(write=False)
    return MixingMatrix(n=n, w=w, delta=delta, lambda_dev=lambda_dev)


def _connected(w: np.ndarray) -> bool:
    n = w.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(w[i])[0]:
            if j not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    return len(seen) == n


def build_ring(n: int, self_weight: float = 1.0 / 3.0) -> MixingMatrix:
    """Ring of n nodes; each node keeps self_weight and splits the rest
    between its two ring neighbors.

    The resulting matrix is circulant, so its eigenvalues are
    self_weight + (1 - self_weight) * cos(2 pi k / n).
    """
    if n < 3:
        raise TopologyError(f"ring needs n >= 3, got n={n}")
    if not 0.0 < self_weight < 1.0:
        raise TopologyError(f"self_weight must be in (0, 1), got {self_weight}")
    w = np.zeros((n, n))
    side = (1.0 - self_weight) / 2.0
    for i in range(n):
        w[i, i] = self_weight
        w[i, (i - 1) % n] += side
        w[i, (i + 1) % n] += side
    return _validate(w)


def build_complete(n: int) -> MixingMatrix:
    """Complete graph with uniform weights 1/n; delta = lambda_dev = 1."""
    if n < 2:
        raise TopologyError(f"complete graph needs n >= 2, got n={n}")
    return _validate(np.full((n, n), 1.0 / n))


def build_custom(
    n: int,
    edges: list[tuple[int, int]],
    edge_weights: list[float],
    self_weights: list[float],
) -> MixingMatrix:
    """Assemble a matrix from explicit per-edge and per-self weights and validate it.

    An edge may be listed in one direction (the weight is mirrored) or in
    both; listing both directions with different weights is a symmetry error.
    """
    if len(edges) != len(edge_weights):
        raise TopologyError("edges and edge_weights must have equal length")
    if len(self_weights) != n:
        raise TopologyError("self_weights must have one entry per node")
    w = np.zeros((n, n))
    seen: dict[tuple[int, int], float] = {}
    for (i, j), weight in zip(edges, edge_weights):
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise TopologyError(f"bad edge ({i}, {j})")
        if weight < 0:
            raise TopologyError(f"negative weight on edge ({i}, {j})")
        if (j, i) in seen and seen[(j, i)] != weight:
            raise SymmetryError(
                f"edge ({i}, {j}) and ({j}, {i}) given different weights"
            )
        seen[(i, j)] = weight
        w[i, j] = weight
        w[j, i] = weight
    w[np.diag_indices(n)] = np.asarray(self_weights, dtype=float)
    return _validate(w)
