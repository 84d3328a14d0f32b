import math

import numpy as np
import pytest

from squarm.errors import ConnectivityError, StochasticityError, SymmetryError, TopologyError
from squarm.topology import (
    build_complete,
    build_custom,
    build_ring,
    power_deviation,
    spectral_quantities,
)


def ring_eigs(n, s):
    # circulant spectrum, the independent route for the eigensolver pipeline
    return np.array([s + (1 - s) * math.cos(2 * math.pi * k / n) for k in range(n)])


def analytic_delta(n, s):
    by_abs = np.sort(np.abs(ring_eigs(n, s)))[::-1]
    return 1.0 - by_abs[1]


class TestBuildRing:
    def test_n8_third_delta(self):
        w = build_ring(8, 1 / 3)
        assert w.delta == pytest.approx(analytic_delta(8, 1 / 3), abs=1e-12)
        assert w.delta == pytest.approx(0.19526214587563495, abs=1e-9)

    def test_n3_is_complete(self):
        w = build_ring(3, 1 / 3)
        assert np.allclose(w.w, np.full((3, 3), 1 / 3), atol=0)
        assert w.delta == pytest.approx(1.0, abs=1e-12)

    def test_n8_half_delta(self):
        w = build_ring(8, 0.5)
        assert w.delta == pytest.approx(0.14644660940672627, abs=1e-9)

    def test_lambda_dev_ring8(self):
        w = build_ring(8, 1 / 3)
        # lambda_min = 1/3 - 2/3
        assert w.lambda_dev == pytest.approx(4 / 3, abs=1e-12)

    def test_structure(self):
        w = build_ring(8, 1 / 3)
        assert np.array_equal(w.w, w.w.T)
        assert np.abs(w.w.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(w.w.sum(axis=1) - 1).max() < 1e-12
        assert w.neighbors(0) == (1, 7)

    def test_rejects_small_n(self):
        with pytest.raises(TopologyError):
            build_ring(2, 1 / 3)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_self_weight(self, s):
        with pytest.raises(TopologyError):
            build_ring(8, s)


class TestBuildComplete:
    def test_n2(self):
        w = build_complete(2)
        assert np.allclose(w.w, [[0.5, 0.5], [0.5, 0.5]], atol=0)
        assert w.delta == pytest.approx(1.0, abs=1e-12)

    def test_n4_entries(self):
        w = build_complete(4)
        assert np.allclose(w.w, 0.25, atol=0)
        assert np.abs(w.w.sum(axis=1) - 1).max() < 1e-12

    def test_n8_lambda_dev(self):
        assert build_complete(8).lambda_dev == pytest.approx(1.0, abs=1e-12)

    def test_rejects_n1(self):
        with pytest.raises(TopologyError):
            build_complete(1)


class TestBuildCustom:
    def test_two_node_path(self):
        w = build_custom(2, [(0, 1)], [0.5], [0.5, 0.5])
        assert np.allclose(w.w, build_complete(2).w, atol=0)

    def test_ring4_half(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        w = build_custom(4, edges, [0.25] * 4, [0.5] * 4)
        assert w.delta == pytest.approx(0.5, abs=1e-12)

    def test_asymmetric_weights_rejected(self):
        # star with both directions listed at different weights
        edges = [(0, 1), (1, 0), (0, 2), (2, 0)]
        with pytest.raises(SymmetryError):
            build_custom(3, edges, [0.3, 0.4, 0.3, 0.3], [0.4, 0.7, 0.7])

    def test_bad_row_sums_rejected(self):
        with pytest.raises(StochasticityError):
            build_custom(3, [(0, 1), (1, 2)], [0.5, 0.5], [0.5, 0.5, 0.5])

    def test_disconnected_rejected(self):
        with pytest.raises(ConnectivityError):
            build_custom(4, [(0, 1), (2, 3)], [0.5, 0.5], [0.5, 0.5, 0.5, 0.5])

    def test_reproduces_build_ring(self):
        ring = build_ring(6, 0.4)
        edges, weights = [], []
        for i in range(6):
            j = (i + 1) % 6
            edges.append((i, j))
            weights.append(ring.w[i, j])
        rebuilt = build_custom(6, edges, weights, list(np.diag(ring.w)))
        assert np.array_equal(rebuilt.w, ring.w)


class TestSpectralQuantities:
    def test_identity_matrix(self):
        delta, lam = spectral_quantities(np.eye(4))
        assert delta == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(TopologyError):
            build_custom(4, [], [], [1.0] * 4)  # W = I is rejected upstream

    def test_complete_values(self):
        delta, lam = spectral_quantities(np.full((5, 5), 0.2))
        assert delta == pytest.approx(1.0, abs=1e-12)
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_ring8_values(self):
        w = build_ring(8, 1 / 3)
        delta, lam = spectral_quantities(w.w)
        assert delta == pytest.approx(analytic_delta(8, 1 / 3), abs=1e-12)
        assert lam == pytest.approx(4 / 3, abs=1e-12)

    def test_lambda_dev_equals_w_minus_i_norm(self):
        # the two definitions coincide for symmetric W
        for n, s in [(5, 0.3), (8, 1 / 3), (12, 0.6)]:
            w = build_ring(n, s)
            assert w.lambda_dev == pytest.approx(
                np.linalg.norm(w.w - np.eye(n), 2), abs=1e-12
            )


class TestPowerDeviation:
    def test_k0_is_one(self):
        w = build_ring(8, 1 / 3)
        assert power_deviation(w.w, 0) == pytest.approx(1.0, abs=1e-10)

    def test_complete_k1_is_zero(self):
        w = build_complete(6)
        assert power_deviation(w.w, 1) == pytest.approx(0.0, abs=1e-12)

    def test_ring8_cubed(self):
        w = build_ring(8, 1 / 3)
        assert power_deviation(w.w, 3) == pytest.approx(
            (1 - analytic_delta(8, 1 / 3)) ** 3, abs=1e-9
        )

    @pytest.mark.parametrize("n,s", [(4, 1 / 3), (8, 1 / 3), (16, 1 / 3), (8, 0.5)])
    def test_matches_spectral_gap_power(self, n, s):
        w = build_ring(n, s)
        for k in range(11):
            assert abs(power_deviation(w.w, k) - (1 - w.delta) ** k) < 1e-8


def test_matrix_is_readonly():
    w = build_ring(8, 1 / 3)
    with pytest.raises(ValueError):
        w.w[0, 0] = 2.0
