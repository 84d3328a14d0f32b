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

Rings and complete graphs are valid by construction: their builders fill w,
list each node's neighbours from the indices they fill, and take both
quantities in closed form from the graphs' known spectra. Only a custom
graph, whose weights come from the user, pays for the full check (symmetry,
sign, row and column sums, connectedness) and for the O(n^3) eigensolver
(spectral_quantities, numpy's eigvalsh). The test suite holds the ring and
complete builders to that check, and with `squarm verify` their closed forms
to eigvalsh. Every builder checks the spectral gap, since rounding can make
it exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TopologyError

STOCHASTIC_TOL = 1e-10


@dataclass(frozen=True)
class MixingMatrix:
    """Validated gossip weight matrix with its spectral quantities and
    neighbour lists.

    delta and lambda_dev are closed form for rings and complete graphs and
    come from eigvalsh (spectral_quantities) for custom graphs."""

    n: int
    w: np.ndarray
    delta: float
    lambda_dev: float
    adjacency: tuple[tuple[int, ...], ...]  # adjacency[i]: the j != i with w[i][j] > 0, ascending


def spectral_quantities(w: np.ndarray) -> tuple[float, float]:
    """Return (delta, lambda_dev) for a symmetric doubly stochastic matrix.

    delta is computed from the second-largest eigenvalue in absolute value;
    lambda_dev from the signed minimum eigenvalue.
    """
    try:
        eigs = np.linalg.eigvalsh(np.asarray(w, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"eigendecomposition failed: {exc}") from exc
    if eigs.size < 2:
        raise ParameterError(f"spectral quantities need an n x n matrix with n >= 2, got shape {np.shape(w)}")
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
        raise ParameterError("k must be >= 0")
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    j = np.full((n, n), 1.0 / n)
    return float(np.linalg.norm(np.linalg.matrix_power(w, k) - j, 2))


def _validate(w: np.ndarray) -> MixingMatrix:
    """A custom graph's w checked in full and frozen in place, with its
    neighbour lists and eigvalsh's (delta, lambda_dev)."""
    # the weights come from the user: the error args name build_custom's arguments
    n = w.shape[0]
    rows, cols = np.nonzero(w)  # row-major: rows ascending, columns ascending within a row
    # w = w^T where either entry is nonzero, hence everywhere; no strided pass over w.T
    if not np.array_equal(w[rows, cols], w[cols, rows]):
        raise TopologyError("weight matrix is not symmetric")
    if (w < 0).any():
        raise TopologyError("weight matrix has negative entries", "self_weights")
    # w is symmetric, so a column sum is its row sum up to summation rounding
    row_dev = np.abs(w.sum(axis=1) - 1.0).max()
    if row_dev > STOCHASTIC_TOL:
        raise TopologyError(f"rows/columns must sum to 1 (max deviation {row_dev:.3e})", "self_weights")
    adjacency = _adjacency(n, rows, cols)
    if not _connected(adjacency):
        raise TopologyError("communication graph is not connected", "edges")
    return _mixing(w, adjacency, spectral_quantities(w), "self_weights")


def _mixing(
    w: np.ndarray,
    adjacency: tuple[tuple[int, ...], ...],
    spectrum: tuple[float, float],
    arg: str,
) -> MixingMatrix:
    """The MixingMatrix of a builder's fresh w, frozen in place, once its
    spectral gap is positive; arg names the builder argument that sets the gap.

    Rounding can make the gap exactly 0 even where the builder's arguments
    are in range (a ring's self_weight within about 1e-17 of 0 or 1), so
    every builder checks it."""
    delta, lambda_dev = spectrum
    if delta <= 0:
        raise TopologyError(f"spectral gap is not positive (delta={delta:.3e})", arg)
    w.setflags(write=False)
    return MixingMatrix(n=w.shape[0], w=w, delta=delta, lambda_dev=lambda_dev, adjacency=adjacency)


def _adjacency(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Every node's neighbour list, ascending, from the row-major nonzeros of w."""
    off = rows != cols
    cols = cols[off].tolist()
    bounds = np.searchsorted(rows[off], np.arange(n + 1)).tolist()
    return tuple(tuple(cols[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def _connected(adjacency: tuple[tuple[int, ...], ...]) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        for j in adjacency[frontier.pop()]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(adjacency)


def _ring_spectrum(n: int, self_weight: float) -> tuple[float, float]:
    """(delta, lambda_dev) of build_ring(n, self_weight) in closed form.

    The ring is circulant with eigenvalues s + (1 - s) cos(2 pi k / n): the
    largest below 1 is at k = 1 and the lowest at k = floor(n / 2), which is
    2s - 1 for even n."""
    s = self_weight
    second = s + (1.0 - s) * math.cos(2.0 * math.pi / n)
    lowest = s + (1.0 - s) * math.cos(2.0 * math.pi * (n // 2) / n)
    return 1.0 - max(abs(second), abs(lowest)), 1.0 - lowest


def build_ring(n: int, self_weight: float = 1.0 / 3.0) -> MixingMatrix:
    """Ring of n nodes; each node keeps self_weight and splits the rest
    between its two ring neighbors.

    The resulting matrix is circulant, so its eigenvalues are
    self_weight + (1 - self_weight) * cos(2 pi k / n); delta and lambda_dev
    are read from them (_ring_spectrum). Node i's neighbours are
    (i - 1) % n and (i + 1) % n, ascending.
    """
    if n < 3:
        raise TopologyError(f"ring needs n >= 3, got n={n}", "n")
    if not 0.0 < self_weight < 1.0:
        raise TopologyError(f"self_weight must be in (0, 1), got {self_weight}", "self_weight")
    w = np.zeros((n, n))
    i = np.arange(n)
    left, right = (i - 1) % n, (i + 1) % n  # n >= 3: the two neighbours are distinct
    side = (1.0 - self_weight) / 2.0
    w[i, i] = self_weight
    w[i, left] = side
    w[i, right] = side
    adjacency = tuple(zip(np.minimum(left, right).tolist(), np.maximum(left, right).tolist()))
    return _mixing(w, adjacency, _ring_spectrum(n, self_weight), "self_weight")


def build_complete(n: int) -> MixingMatrix:
    """Complete graph with uniform weights 1/n; delta = lambda_dev = 1,
    since W = J has eigenvalues 1 and 0."""
    if n < 2:
        raise TopologyError(f"complete graph needs n >= 2, got n={n}", "n")
    nodes = tuple(range(n))
    adjacency = tuple(nodes[:i] + nodes[i + 1 :] for i in range(n))
    return _mixing(np.full((n, n), 1.0 / n), adjacency, (1.0, 1.0), "n")


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
    if n < 2:
        raise TopologyError(f"custom graph needs n >= 2, got n={n}", "n")
    if len(edges) != len(edge_weights):
        raise TopologyError("edges and edge_weights must have equal length", "edge_weights")
    if len(self_weights) != n:
        raise TopologyError("self_weights must have one entry per node", "self_weights")
    w = np.zeros((n, n))
    seen: dict[tuple[int, int], float] = {}
    for (i, j), weight in zip(edges, edge_weights):
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise TopologyError(f"bad edge ({i}, {j})", "edges")
        if weight < 0:
            raise TopologyError(f"negative weight on edge ({i}, {j})", "edge_weights")
        if (j, i) in seen and seen[(j, i)] != weight:
            raise TopologyError(f"edge ({i}, {j}) and ({j}, {i}) given different weights", "edge_weights")
        seen[(i, j)] = weight
        w[i, j] = weight
        w[j, i] = weight
    w[np.diag_indices(n)] = np.asarray(self_weights, dtype=float)
    return _validate(w)
