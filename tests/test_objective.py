import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import central_diff_grad
from squarm.config import seed_streams
from squarm.errors import DataError, ParameterError
from squarm.objective import (
    ObjectiveSet,
    clip_to_norm,
    from_shards,
    full_grad_global,
    load_dataset,
    local_grad,
    loss,
    loss_and_grad_at_mean,
    optimum,
    partition_heterogeneous,
    quadratic_objective,
    shared_curvature_grads,
    stochastic_grad,
    stochastic_grads,
    synthetic_shards,
)

SRC = Path(__file__).resolve().parent.parent / "src"
# `python -c BUILD_PEAK` prints how far quadratic_objective(2, 2000, ...) raises its
# process's peak RSS (VmHWM) above the RSS before it, in (d, d) float matrices
BUILD_PEAK = """
import numpy as np
from squarm.objective import quadratic_objective

def kib(field):
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith(field)).split()[1])

d = 2000
rng = np.random.default_rng(0)
before = kib("VmRSS:")
quadratic_objective(2, d, rng)
print((kib("VmHWM:") - before) * 1024 / (8 * d * d))
"""


def mean_shift_quadratic(n, d, centers, noise_sigma=0.0):
    """f_i(x) = 0.5 ||x - c_i||^2 - 0.5 ||c_i||^2; x* is the mean of the
    centers, f* in closed form."""
    centers = np.asarray(centers, dtype=float).reshape(n, d)
    return ObjectiveSet(
        kind="quadratic", n=n, d=d, L=1.0, mu=1.0, noise_sigma=noise_sigma,
        quad_a=np.eye(d), quad_b=centers.copy(),
    )


def all_kinds(rng):
    return [
        quadratic_objective(4, 6, rng, mu=0.5, L=4.0, noise_sigma=0.2),
        from_shards("least_squares", *synthetic_shards("least_squares", 4, 6, 12, rng)),
        from_shards(
            "least_squares_nonconvex", *synthetic_shards("least_squares_nonconvex", 4, 6, 12, rng), alpha=0.3
        ),
        from_shards("logistic_l2", *synthetic_shards("logistic_l2", 4, 6, 12, rng), l2_reg=0.05),
    ]


class TestGradients:
    def test_identity_quadratic(self):
        obj = mean_shift_quadratic(2, 3, np.zeros((2, 3)))
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(stochastic_grad(obj, 0, x, np.random.default_rng(0)), x, atol=0)

    def test_quadratic_hand_value(self):
        obj = mean_shift_quadratic(2, 3, np.vstack([np.array([1.0, 0, 0])] * 2))
        g = stochastic_grad(obj, 0, np.zeros(3), np.random.default_rng(0))
        assert np.allclose(g, [-1.0, 0.0, 0.0], atol=0)

    def test_least_squares_single_sample(self):
        feats = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
        labels = [np.array([1.0]), np.array([0.0])]
        obj = from_shards("least_squares", feats, labels)
        g = local_grad(obj, 0, np.zeros(2))
        assert np.allclose(g, [-1.0, 0.0], atol=0)

    def test_full_grad_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for obj in all_kinds(rng):
            for _ in range(5):
                x = rng.standard_normal(obj.d)
                g = full_grad_global(obj, x)
                fd = central_diff_grad(lambda y: loss(obj, y), x)
                denom = 1.0 + np.abs(g).max()
                assert np.abs(g - fd).max() / denom < 1e-4

    def test_full_grad_is_mean_of_locals(self):
        rng = np.random.default_rng(2)
        obj = quadratic_objective(5, 4, rng)
        x = rng.standard_normal(4)
        mean = np.mean([local_grad(obj, i, x) for i in range(5)], axis=0)
        assert np.abs(full_grad_global(obj, x) - mean).max() < 1e-12


class TestSmoothness:
    def test_probe_all_kinds(self):
        rng = np.random.default_rng(3)
        for obj in all_kinds(rng):
            for _ in range(100):
                x = rng.standard_normal(obj.d)
                y = rng.standard_normal(obj.d)
                gap = np.linalg.norm(full_grad_global(obj, x) - full_grad_global(obj, y))
                assert gap <= obj.L * (1 + 1e-6) * np.linalg.norm(x - y)


class TestStochasticity:
    def test_unbiased(self):
        rng = np.random.default_rng(4)
        for obj in all_kinds(rng):
            x = rng.standard_normal(obj.d)
            exact = local_grad(obj, 1, x)
            trials = 10_000
            acc = np.zeros(obj.d)
            sq = np.zeros(obj.d)
            for _ in range(trials):
                g = stochastic_grad(obj, 1, x, rng)
                acc += g
                sq += g * g
            mean = acc / trials
            se = np.sqrt(np.maximum(sq / trials - mean**2, 1e-30) / trials)
            assert np.all(np.abs(mean - exact) <= 4 * se + 1e-9)

    def test_quadratic_noise_variance(self):
        rng = np.random.default_rng(5)
        sigma = 0.7
        obj = quadratic_objective(2, 8, rng, noise_sigma=sigma)
        x = rng.standard_normal(8)
        exact = local_grad(obj, 0, x)
        draws = np.stack(
            [stochastic_grad(obj, 0, x, rng) - exact for _ in range(100_000)]
        )
        assert draws.var() == pytest.approx(sigma**2, rel=0.05)

    @pytest.mark.parametrize("d", [20, 200, 2000])
    def test_block_normal_draw_is_the_per_step_draws(self, d):
        # a node's noise for K steps may be drawn in one call: the same
        # numbers, and the stream left where the K draws leave it
        K = 64
        for seed in range(1, 6):
            per_step, block = (seed_streams(seed, 1)[2][0] for _ in range(2))
            steps = np.stack([per_step.standard_normal(d) for _ in range(K)])
            assert np.array_equal(block.standard_normal((K, d)), steps)
            assert block.bit_generator.state == per_step.bit_generator.state

    @pytest.mark.parametrize("m,b", [(32, 1), (32, 8), (1000, 3)])
    def test_block_batch_draw_is_the_per_step_draws(self, m, b):
        K = 64
        for seed in range(1, 6):
            per_step, block = (seed_streams(seed, 1)[2][0] for _ in range(2))
            steps = np.stack([per_step.integers(0, m, size=b) for _ in range(K)])
            assert np.array_equal(block.integers(0, m, size=(K, b)), steps)
            assert block.bit_generator.state == per_step.bit_generator.state


class TestGradientPhase:
    """stochastic_grads equals its per-node loop, bit for bit, streams included."""

    @staticmethod
    def per_node(obj, X, rngs, exact, clip):
        rows = []
        for i in range(obj.n):
            g = stochastic_grad(obj, i, X[i], rngs[i], None if exact is None else exact[i])
            rows.append(g if clip is None else clip_to_norm(g, clip))
        return np.array(rows)

    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize(
        "kind", ["quadratic", "quadratic exact", "least_squares", "least_squares_nonconvex", "logistic_l2"]
    )
    def test_is_the_per_node_loop(self, kind, clip):
        rng = np.random.default_rng(30)
        obj = {o.kind: o for o in all_kinds(rng)}[kind.split()[0]]
        for seed in range(5):
            X = 3.0 * rng.standard_normal((obj.n, obj.d))
            exact = shared_curvature_grads(obj, X) if kind.endswith("exact") else None
            X_before = X.copy()
            radius = None
            if clip:  # a radius that rescales about half of the rows
                unclipped = self.per_node(obj, X, seed_streams(seed, obj.n)[2], exact, None)
                radius = float(np.median(np.linalg.norm(unclipped, axis=1)))
            rngs, want_rngs = seed_streams(seed, obj.n)[2], seed_streams(seed, obj.n)[2]
            G = stochastic_grads(obj, X, rngs, exact, radius)
            assert np.array_equal(G, self.per_node(obj, X, want_rngs, exact, radius))
            assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in want_rngs]
            assert np.array_equal(X, X_before)


class TestSharedCurvature:
    @staticmethod
    def direct_quadratic(rng, a, n=5):
        d = len(a)
        return ObjectiveSet(
            kind="quadratic", n=n, d=d, L=1.0, mu=1.0, noise_sigma=0.3,
            quad_a=a, quad_b=rng.standard_normal((n, d)),
        )

    @classmethod
    def symmetric_quadratic(cls, rng, d=7):
        # built directly, not by quadratic_objective's spectral construction
        s = rng.standard_normal((d, d))
        return cls.direct_quadratic(rng, s + s.T + 3.0 * np.eye(d))

    def test_nonsymmetric_curvature_is_refused(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal((7, 7))
        a = s + s.T + 3.0 * np.eye(7)
        self.direct_quadratic(rng, a)
        one_ulp_off = a.copy()
        one_ulp_off[0, 1] = np.nextafter(a[0, 1], np.inf)
        for broken in (s + 3.0 * np.eye(7), one_ulp_off):
            with pytest.raises(ParameterError, match="quad_a"):
                self.direct_quadratic(rng, broken)

    def test_rows_are_each_nodes_exact_gradient(self):
        rng = np.random.default_rng(11)
        for obj in (quadratic_objective(6, 40, rng, mu=0.5, L=4.0), self.symmetric_quadratic(rng)):
            X = rng.standard_normal((obj.n, obj.d))
            rows = shared_curvature_grads(obj, X)
            assert rows.shape == (obj.n, obj.d)
            for i in range(obj.n):
                want = local_grad(obj, i, X[i])
                assert np.abs(rows[i] - want).max() <= 1e-12 * np.abs(want).max()

    def test_none_for_sample_based_kinds(self):
        rng = np.random.default_rng(12)
        for obj in all_kinds(rng)[1:]:
            assert shared_curvature_grads(obj, np.zeros((obj.n, obj.d))) is None

    def test_precomputed_row_gets_the_same_noise(self):
        rng = np.random.default_rng(13)
        for obj in (quadratic_objective(4, 9, rng, noise_sigma=0.4), self.symmetric_quadratic(rng)):
            X = rng.standard_normal((obj.n, obj.d))
            rows = shared_curvature_grads(obj, X)
            for i in range(obj.n):
                plain, given = np.random.default_rng(i), np.random.default_rng(i)
                noise = obj.noise_sigma * np.random.default_rng(i).standard_normal(obj.d)
                g_plain = stochastic_grad(obj, i, X[i], plain)
                g_given = stochastic_grad(obj, i, X[i], given, exact=rows[i])
                # the same draws, in the same order, each added to its exact gradient
                assert np.array_equal(g_plain, local_grad(obj, i, X[i]) + noise)
                assert np.array_equal(g_given, rows[i] + noise)
                assert plain.bit_generator.state == given.bit_generator.state

    def test_precomputed_row_refused_for_sample_based_kinds(self):
        rng = np.random.default_rng(14)
        obj = all_kinds(rng)[1]
        with pytest.raises(ParameterError, match="quadratic"):
            stochastic_grad(obj, 0, np.zeros(obj.d), rng, exact=np.zeros(obj.d))

    def test_loss_and_grad_at_mean_match_the_plain_calls(self):
        rng = np.random.default_rng(15)
        for obj in (quadratic_objective(6, 40, rng, mu=0.5, L=4.0), self.symmetric_quadratic(rng)):
            for _ in range(5):
                X = rng.standard_normal((obj.n, obj.d))
                x_bar = X.mean(axis=0)
                value, grad = loss_and_grad_at_mean(obj, x_bar, shared_curvature_grads(obj, X))
                f, g = loss(obj, x_bar), full_grad_global(obj, x_bar)
                assert abs(value - f) <= 1e-12 * max(1.0, abs(f))
                assert np.abs(grad - g).max() <= 1e-12 * np.abs(g).max()


class TestOptimum:
    def test_mean_shift(self):
        centers = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        obj = mean_shift_quadratic(3, 2, centers)
        x_star, f_star = optimum(obj)
        assert np.allclose(x_star, [1.0, 1.0], atol=1e-12)
        # f(x*) = 0.5 ||x* - c||^2 - 0.5 ||c||^2 with ||c||^2 = 2
        assert f_star == pytest.approx(-1.0, abs=1e-12)

    def test_two_node_opposed(self):
        # f1 = x^2/2 - x, f2 = x^2/2 + x: x* = 0, f* = f(0) = 0
        centers = np.array([[1.0], [-1.0]])
        obj = mean_shift_quadratic(2, 1, centers)
        x_star, f_star = optimum(obj)
        assert x_star[0] == pytest.approx(0.0, abs=1e-12)
        assert f_star == pytest.approx(0.0, abs=1e-12)

    def test_grad_zero_at_optimum(self):
        rng = np.random.default_rng(6)
        obj = quadratic_objective(4, 5, rng, noise_sigma=0.0)
        x_star, _ = optimum(obj)
        assert np.abs(full_grad_global(obj, x_star)).max() < 1e-10

    def test_none_for_logistic(self):
        rng = np.random.default_rng(7)
        assert optimum(from_shards("logistic_l2", *synthetic_shards("logistic_l2", 2, 3, 8, rng))) is None

    def test_singular_curvature_has_no_optimum(self):
        obj = ObjectiveSet(
            kind="quadratic", n=1, d=2, L=1.0, mu=0.0,
            quad_a=np.zeros((2, 2)), quad_b=np.ones((1, 2)),
        )
        with pytest.raises(ParameterError, match="curvature matrix is singular"):
            optimum(obj)


class TestPartition:
    def test_single_node(self):
        rng = np.random.default_rng(8)
        x = np.arange(12.0).reshape(6, 2)
        y = np.arange(6.0)
        xs, ys = partition_heterogeneous(x, y, 1, "iid", rng)
        assert len(xs) == 1 and len(ys[0]) == 6

    def test_sorted_by_label(self):
        rng = np.random.default_rng(9)
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        xs, ys = partition_heterogeneous(x, y, 2, "sorted_by_label", rng)
        assert set(ys[0]) == {0.0}
        assert set(ys[1]) == {1.0}

    def test_iid_balanced(self):
        rng = np.random.default_rng(10)
        x = np.zeros((100, 1))
        y = np.arange(100.0)
        _, ys = partition_heterogeneous(x, y, 8, "iid", rng)
        sizes = [len(s) for s in ys]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(np.concatenate(ys)) == sorted(y)

    def test_too_many_nodes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="cannot split 3 samples across 4 nodes"):
            partition_heterogeneous(np.zeros((3, 1)), np.zeros(3), 4, "iid", rng)

    def test_unknown_mode(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            partition_heterogeneous(np.zeros((3, 1)), np.zeros(3), 2, "striped", rng)


class TestDataHandling:
    def test_load_dataset_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        features, targets = load_dataset(str(path))
        assert features.shape == (2, 2)
        assert list(targets) == [0.0, 1.0]

    def test_empty_shard_rejected(self):
        with pytest.raises(DataError):
            from_shards("least_squares", [np.zeros((0, 2))], [np.zeros(0)])


def one_column_dataset(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("0\n1\n")
    return load_dataset(str(path))


# a node with no samples, which from_shards refuses to build
EMPTY_SHARD = ObjectiveSet(
    kind="least_squares", n=1, d=2, L=1.0, mu=0.0, feats=(np.zeros((0, 2)),), labels=(np.zeros(0),)
)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (
            lambda _: quadratic_objective(2, 3, np.random.default_rng(0), mu=2.0, L=1.0),
            ParameterError,
            r"^L: must be >= mu=2.0, got 1.0$",
        ),
        (
            lambda _: from_shards("bogus", [np.ones((2, 2))], [np.ones(2)]),
            ParameterError,
            "unknown sample-based kind 'bogus'",
        ),
        (
            lambda _: partition_heterogeneous(np.zeros((0, 2)), np.zeros(0), 2, "iid", np.random.default_rng(0)),
            DataError,
            "dataset is empty",
        ),
        (one_column_dataset, DataError, "dataset rows need at least one feature and a label"),
        (
            lambda _: stochastic_grad(EMPTY_SHARD, 0, np.zeros(2), np.random.default_rng(0)),
            DataError,
            "node 0 has no local samples",
        ),
    ],
    ids=["mu_above_L", "unknown_kind", "empty_dataset", "one_column_file", "empty_shard_grad"],
)
def test_argument_and_data_guards(tmp_path, build, error, match):
    with pytest.raises(error, match=match):
        build(tmp_path)


class TestClip:
    def test_inside_ball_untouched(self):
        g = np.array([0.3, 0.4])
        assert clip_to_norm(g, 1.0) is g

    def test_rescaled_to_radius(self):
        g = np.array([3.0, 4.0])
        out = clip_to_norm(g, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_quadratic_L_mu_are_valid_bounds():
    rng = np.random.default_rng(11)
    obj = quadratic_objective(6, 10, rng, mu=0.1, L=1.0)
    eigs = np.linalg.eigvalsh(obj.quad_a)
    assert eigs.max() <= obj.L * (1 + 1e-12)
    assert eigs.min() >= obj.mu * (1 - 1e-12)
    assert obj.L / obj.mu == pytest.approx(10.0, rel=1e-9)


class TestQuadraticSetup:
    """The quadratic's curvature bounds are its construction values; set-up
    makes no spectral decomposition of the (d, d) matrix."""

    def test_no_spectral_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("O(d^3) spectral call in quadratic set-up")

        for name in ("eigvalsh", "eigh", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        quadratic_objective(3, 30, np.random.default_rng(0), mu=0.5, L=4.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 20, 200, 333])
    def test_matrix_is_the_spelled_out_construction(self, d):
        mu, L, n = 0.5, 4.0, 3
        obj = quadratic_objective(n, d, np.random.default_rng(7), mu=mu, L=L)
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = (q * np.linspace(mu, L, d)) @ q.T
        a = (a + a.T) / 2.0
        b = a @ rng.standard_normal(d) + rng.standard_normal((n, d))
        assert np.array_equal(obj.quad_a, a)
        assert np.array_equal(obj.quad_b, b)

    def test_the_build_holds_fewer_than_five_matrices_at_once(self):
        # in a child process, so that its peak is not this process's; the
        # build peaks at the draw, the QR gufunc's two work copies and Q
        proc = subprocess.run(
            [sys.executable, "-c", BUILD_PEAK], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC)}, check=True,
        )
        assert float(proc.stdout) < 4.8, proc.stdout

    def test_bounds_are_construction_values(self):
        mu, L = 0.25, 8.0
        obj = quadratic_objective(2, 200, np.random.default_rng(3), mu=mu, L=L)
        assert obj.mu == mu and obj.L == L
        assert abs(np.linalg.eigvalsh(obj.quad_a).min() - mu) <= 1e-12 * L
