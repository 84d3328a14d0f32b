"""Per-node objectives, gradient oracles, and data partitioning.

Four kinds are provided. All of them expose the global objective
f(x) = (1/n) sum_i f_i(x), exact per-node and global gradients (used for
metrics and finite-difference checks), and an unbiased stochastic gradient
per node.

quadratic
    f_i(x) = 0.5 x^T A x - b_i^T x + const_i with a shared curvature matrix A
    whose spectrum is set explicitly: L = lambda_max(A) and mu = lambda_min(A)
    are the construction values, exact to rounding of the built matrix (no
    eigendecomposition reads them back), and the global optimum solves
    A x* = b_bar in closed form. Heterogeneity enters through the per-node
    linear terms. The stochastic gradient adds i.i.d. Gaussian noise of scale
    noise_sigma to the exact gradient. A must equal its transpose exactly
    (ObjectiveSet refuses any other), so x^T A = (A x)^T. A run reads the
    shared A once per step: shared_curvature_grads gives every node's exact
    gradient from one product X A, each node's stochastic_grad call then
    only adds the node's noise, and loss_and_grad_at_mean takes a metrics
    row's loss and gradient at the node average from the same product.

least_squares
    f_i(x) = 1/(2 m_i) sum_j (a_j^T x - y_j)^2 over node-local samples;
    stochastic gradients average a uniform mini-batch.

logistic_l2
    regularized logistic loss over node-local labelled samples (labels in
    {-1, +1}); L is the standard upper bound ||X^T X||_2 / (4 m) + reg,
    mu = reg. No closed-form optimum.

least_squares_nonconvex
    least squares plus alpha * sum_j x_j^2 / (1 + x_j^2), a smooth
    bounded-gradient regularizer that makes the objective non-convex while
    keeping L finite (the regularizer's curvature is bounded by 2 alpha).

The three sample-based kinds are built one way: from_shards takes per-node
(features, labels) shards, drawn by synthetic_shards or read from a dataset
file by load_dataset and split by partition_heterogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError


@dataclass(frozen=True)
class ObjectiveSet:
    kind: str
    n: int
    d: int
    L: float
    mu: float
    noise_sigma: float = 0.0
    # quadratic
    quad_a: np.ndarray | None = None  # shared (d, d) curvature
    quad_b: np.ndarray | None = None  # (n, d) per-node linear terms
    quad_const: np.ndarray | None = None  # (n,)
    # sample-based kinds
    feats: tuple[np.ndarray, ...] = field(default=())  # per node (m_i, d)
    labels: tuple[np.ndarray, ...] = field(default=())  # per node (m_i,)
    batch_size: int = 1
    alpha: float = 0.0  # nonconvex regularizer scale
    l2_reg: float = 0.0  # logistic ridge

    def __post_init__(self):
        # 0.5 x^T A x has gradient A x only when A = A^T, and the gradients
        # come from X A; a nan entry must face a nan across the diagonal
        a = self.quad_a
        if self.kind == "quadratic" and not (a.shape == a.T.shape and ((a == a.T) | np.isnan(a)).all()):
            raise ParameterError("quad_a: the curvature matrix must equal its transpose")


# ---------------------------------------------------------------------------
# losses and gradients


def _local_loss(obj: ObjectiveSet, i: int, x: np.ndarray) -> float:
    if obj.kind == "quadratic":
        return float(0.5 * x @ (obj.quad_a @ x) - obj.quad_b[i] @ x + obj.quad_const[i])
    a, y = obj.feats[i], obj.labels[i]
    if obj.kind in ("least_squares", "least_squares_nonconvex"):
        r = a @ x - y
        val = float(r @ r) / (2 * len(y))
        if obj.kind == "least_squares_nonconvex":
            val += obj.alpha * float(np.sum(x**2 / (1.0 + x**2)))
        return val
    # logistic_l2
    margins = -y * (a @ x)
    val = float(np.mean(np.logaddexp(0.0, margins)))
    return val + 0.5 * obj.l2_reg * float(x @ x)


def _sigmoid_of_neg(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(z)) without overflow for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    ez = np.exp(-z[pos])
    out[pos] = ez / (1.0 + ez)
    out[~pos] = 1.0 / (1.0 + np.exp(z[~pos]))
    return out


def _sample_grad(obj: ObjectiveSet, a: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient at x of a sample-based kind's loss averaged over the rows
    (a, y): a node's whole shard, or a minibatch drawn from it."""
    if obj.kind == "logistic_l2":
        sig = _sigmoid_of_neg(y * (a @ x))
        return -(a.T @ (y * sig)) / len(y) + obj.l2_reg * x
    g = a.T @ (a @ x - y) / len(y)
    if obj.kind == "least_squares_nonconvex":
        g = g + obj.alpha * 2.0 * x / (1.0 + x**2) ** 2
    return g


def local_grad(obj: ObjectiveSet, i: int, x: np.ndarray) -> np.ndarray:
    """Exact gradient of f_i at x."""
    if obj.kind == "quadratic":
        return obj.quad_a @ x - obj.quad_b[i]
    return _sample_grad(obj, obj.feats[i], obj.labels[i], x)


def _quad_loss(obj: ObjectiveSet, x: np.ndarray, ax: np.ndarray) -> float:
    # 0.5 x^T A x - b_bar^T x + c_bar, given ax = A x
    return float(0.5 * x @ ax - obj.quad_b.mean(axis=0) @ x + obj.quad_const.mean())


def loss(obj: ObjectiveSet, x: np.ndarray) -> float:
    """Global objective f(x) = (1/n) sum_i f_i(x).

    For the quadratic kind this is 0.5 x^T A x - b_bar^T x + c_bar, one
    matrix-vector product instead of n."""
    if obj.kind == "quadratic":
        return _quad_loss(obj, x, obj.quad_a @ x)
    return sum(_local_loss(obj, i, x) for i in range(obj.n)) / obj.n


def full_grad_global(obj: ObjectiveSet, x: np.ndarray) -> np.ndarray:
    """Exact (1/n) sum_i grad f_i(x), for the quadratic kind A x - b_bar;
    metrics and checks only."""
    if obj.kind == "quadratic":
        return obj.quad_a @ x - obj.quad_b.mean(axis=0)
    g = np.zeros(obj.d)
    for i in range(obj.n):
        g += local_grad(obj, i, x)
    return g / obj.n


def shared_curvature_grads(obj: ObjectiveSet, X: np.ndarray) -> np.ndarray | None:
    """Every node's exact gradient at its own row of X (row i is A x_i - b_i)
    from one product X A, A symmetric, that reads the shared curvature
    matrix once; None for the sample-based kinds, which share no matrix.

    A row may differ from local_grad's matrix-vector product by rounding."""
    if obj.kind != "quadratic":
        return None
    return X @ obj.quad_a - obj.quad_b


def loss_and_grad_at_mean(
    obj: ObjectiveSet, x_bar: np.ndarray, grads: np.ndarray
) -> tuple[float, np.ndarray]:
    """(loss, full_grad_global) at the mean x_bar of X's rows, given
    grads = shared_curvature_grads(obj, X), with no product of its own.

    The mean of the rows is x_bar A - b_bar, which is the global gradient,
    and A x_bar is that gradient plus b_bar. Either value may differ from
    the plain calls' by rounding."""
    grad = grads.mean(axis=0)
    return _quad_loss(obj, x_bar, grad + obj.quad_b.mean(axis=0)), grad


def stochastic_grad(
    obj: ObjectiveSet,
    i: int,
    x: np.ndarray,
    rng: np.random.Generator,
    exact: np.ndarray | None = None,
) -> np.ndarray:
    """Unbiased estimate of grad f_i(x).

    For the quadratic kind, exact may hand in the exact gradient A x - b_i
    already computed (row i of shared_curvature_grads); the call then only
    adds node i's noise, drawn from rng exactly as without it."""
    if obj.kind == "quadratic":
        g = local_grad(obj, i, x) if exact is None else exact
        if obj.noise_sigma > 0.0:
            g = g + obj.noise_sigma * rng.standard_normal(obj.d)
        return g
    if exact is not None:
        raise ParameterError(f"a precomputed exact gradient needs the quadratic kind, not {obj.kind!r}")
    a, y = obj.feats[i], obj.labels[i]
    m = len(y)
    if m == 0:
        raise DataError(f"node {i} has no local samples")
    batch = rng.integers(0, m, size=obj.batch_size)
    return _sample_grad(obj, a[batch], y[batch], x)


def optimum(obj: ObjectiveSet) -> tuple[np.ndarray, float] | None:
    """Closed-form (x*, f*) for the quadratic kind; None otherwise."""
    if obj.kind != "quadratic":
        return None
    b_bar = obj.quad_b.mean(axis=0)
    try:
        x_star = np.linalg.solve(obj.quad_a, b_bar)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"curvature matrix is singular: {exc}") from exc
    return x_star, loss(obj, x_star)


def clip_to_norm(g: np.ndarray, G: float) -> np.ndarray:
    """Rescale g onto the ball of radius G; identity inside it.

    This is the construction that makes the second-moment bound G hold
    exactly when a run needs it."""
    norm = float(np.linalg.norm(g))
    if norm > G:
        return g * (G / norm)
    return g


# ---------------------------------------------------------------------------
# generators and data handling


def quadratic_objective(
    n: int,
    d: int,
    rng: np.random.Generator,
    mu: float = 1.0,
    L: float = 10.0,
    noise_sigma: float = 0.0,
    hetero_scale: float = 1.0,
) -> ObjectiveSet:
    """Random quadratic with exact spectrum [mu, L] and heterogeneous b_i."""
    if not 0 < mu <= L:
        raise ParameterError("need 0 < mu <= L")
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.linspace(mu, L, d)
    a = (q * eigs) @ q.T
    a = (a + a.T) / 2.0
    x_center = rng.standard_normal(d)
    b = a @ x_center + hetero_scale * rng.standard_normal((n, d))
    return ObjectiveSet(
        kind="quadratic",
        n=n,
        d=d,
        L=L,
        mu=mu,
        noise_sigma=noise_sigma,
        quad_a=a,
        quad_b=b,
        quad_const=np.zeros(n),
    )


def _ls_smoothness(feats: tuple[np.ndarray, ...]) -> float:
    # np.max, not max: a shard whose Gram matrix overflows makes L nan, not skipped
    return float(np.max([np.linalg.eigvalsh(a.T @ a / len(a)).max() for a in feats]))


def synthetic_shards(
    kind: str,
    n: int,
    d: int,
    samples_per_node: int,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """n nodes' shards of samples_per_node standard-normal feature rows a,
    labelled a^T x_true plus Gaussian noise, for from_shards(kind, ...).

    rng draws x_true, then each node's feature block and its label noise in
    node order. The noise scale is 0.5 for logistic_l2, whose labels
    from_shards turns into signs, and 0.1 for the least-squares kinds."""
    noise = 0.5 if kind == "logistic_l2" else 0.1
    x_true = rng.standard_normal(d)
    feats, labels = [], []
    for _ in range(n):
        a = rng.standard_normal((samples_per_node, d))
        feats.append(a)
        labels.append(a @ x_true + noise * rng.standard_normal(samples_per_node))
    return feats, labels


def from_shards(
    kind: str,
    feats: list[np.ndarray],
    labels: list[np.ndarray],
    batch_size: int = 1,
    alpha: float = 0.0,
    l2_reg: float = 0.0,
) -> ObjectiveSet:
    """Build a sample-based objective from per-node data shards."""
    if any(len(y) == 0 for y in labels):
        raise DataError("every node needs at least one sample")
    n = len(feats)
    d = feats[0].shape[1]
    feats_t = tuple(np.asarray(a, dtype=float) for a in feats)
    labels_t = tuple(np.asarray(y, dtype=float) for y in labels)
    if kind == "logistic_l2":
        labels_t = tuple(np.where(y > 0, 1.0, -1.0) for y in labels_t)
        L = _ls_smoothness(feats_t) / 4.0 + l2_reg
        mu = l2_reg
    elif kind == "least_squares":
        L = _ls_smoothness(feats_t)
        mu = 0.0
    elif kind == "least_squares_nonconvex":
        L = _ls_smoothness(feats_t) + 2.0 * alpha
        mu = 0.0
    else:
        raise ParameterError(f"unknown sample-based kind {kind!r}")
    return ObjectiveSet(
        kind=kind,
        n=n,
        d=d,
        L=L,
        mu=mu,
        feats=feats_t,
        labels=labels_t,
        batch_size=batch_size,
        alpha=alpha,
        l2_reg=l2_reg,
    )


def partition_heterogeneous(
    features: np.ndarray,
    targets: np.ndarray,
    n: int,
    mode: str,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a dataset into n disjoint shards.

    iid shuffles then deals round-robin (shard sizes differ by at most one);
    sorted_by_label hands each node one contiguous label-sorted block, the
    standard way to make shards heterogeneous.
    """
    m = len(targets)
    if m == 0:
        raise DataError("dataset is empty")
    if n > m:
        raise DataError(f"cannot split {m} samples across {n} nodes")
    if mode == "iid":
        order = rng.permutation(m)
        idx_sets = [order[i::n] for i in range(n)]
    elif mode == "sorted_by_label":
        order = np.argsort(targets, kind="stable")
        idx_sets = np.array_split(order, n)
    else:
        raise ParameterError(f"unknown partition mode {mode!r}")
    return (
        [features[idx] for idx in idx_sets],
        [targets[idx] for idx in idx_sets],
    )


def load_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a plain numeric text file: one sample per line, comma-separated
    features with the label/target in the last field."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None
    if data.shape[1] < 2:
        raise DataError("dataset rows need at least one feature and a label")
    return data[:, :-1], data[:, -1]
