import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from squarm import verify
from squarm.errors import ParameterError, TopologyError
from squarm.topology import (
    _validate,
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
        assert w.adjacency[0] == (1, 7)

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
        assert w.adjacency == ((1,), (0,))
        assert w.delta == pytest.approx(1.0, abs=1e-12)

    def test_ring4_half(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        w = build_custom(4, edges, [0.25] * 4, [0.5] * 4)
        assert w.delta == pytest.approx(0.5, abs=1e-12)

    def test_asymmetric_weights_rejected(self):
        # star with both directions listed at different weights
        edges = [(0, 1), (1, 0), (0, 2), (2, 0)]
        with pytest.raises(TopologyError, match=r"edge \(1, 0\) and \(0, 1\) given different weights"):
            build_custom(3, edges, [0.3, 0.4, 0.3, 0.3], [0.4, 0.7, 0.7])

    def test_bad_row_sums_rejected(self):
        with pytest.raises(TopologyError, match="rows/columns must sum to 1"):
            build_custom(3, [(0, 1), (1, 2)], [0.5, 0.5], [0.5, 0.5, 0.5])

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError, match="^edges: communication graph is not connected$"):
            build_custom(4, [(0, 1), (2, 3)], [0.5, 0.5], [0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize(
        "build, arg",
        [
            (lambda: build_custom(1, [], [], [1.0]), "n"),
            (lambda: build_custom(3, [(0, 5)], [0.5], [0.5, 0.5, 1.0]), "edges"),
            (lambda: build_custom(2, [(0, 1)], [-0.5], [0.5, 0.5]), "edge_weights"),
            (lambda: build_custom(3, [(0, 1), (1, 2)], [0.5, 0.5], [0.5, 0.5, 0.5]), "self_weights"),
            (lambda: build_custom(4, [(0, 1), (2, 3)], [0.5, 0.5], [0.5] * 4), "edges"),
            (lambda: build_ring(2), "n"),
            (lambda: build_ring(5, 1.5), "self_weight"),
            (lambda: build_complete(1), "n"),
        ],
    )
    def test_errors_name_the_argument_to_change(self, build, arg):
        with pytest.raises(TopologyError, match=f"^{arg}: "):
            build()

    @pytest.mark.parametrize(
        "build, match, arg",
        [
            (lambda: build_custom(2, [(0, 1)], [0.5], [-0.5, 0.5]), r"must be in \[0, inf\), got -0.5$", "self_weights"),
            # the two-node swap: eigenvalues 1 and -1
            (lambda: build_custom(2, [(0, 1)], [1.0], [0.0, 0.0]), "spectral gap is not positive", "self_weights"),
            # in range, but 2s - 1 rounds to -1: the even ring's gap is exactly 0
            (lambda: build_ring(8, 1e-17), "spectral gap is not positive", "self_weight"),
        ],
        ids=["negative_self_weight", "zero_spectral_gap", "ring_gap_rounds_to_zero"],
    )
    def test_matrix_guards(self, build, match, arg):
        with pytest.raises(TopologyError, match=f"^{arg}: {match}"):
            build()

    @pytest.mark.parametrize(
        "edges, edge_weights, self_weights, message",
        [
            ([(0, 1, 2)], [0.5], [0.5, 0.5], "edges: expected [i, j] pairs, got (0, 1, 2)"),
            ([(0,)], [0.5], [0.5, 0.5], "edges: expected [i, j] pairs, got (0,)"),
            ([5], [0.5], [0.5, 0.5], "edges: expected [i, j] pairs, got 5"),
            ([(0, 0.5)], [0.5], [0.5, 0.5], "edges: expected int, got 0.5"),
            ([(True, 1)], [0.5], [0.5, 0.5], "edges: expected int, got True"),
            ([(0, "a")], [0.5], [0.5, 0.5], "edges: expected int, got 'a'"),
            # a nan weight is refused by name, where w would fail no check (nan != nan)
            ([(0, 1)], [math.nan], [0.5, 0.5], "edge_weights: expected a finite number, got nan"),
            ([(0, 1)], [math.inf], [0.5, 0.5], "edge_weights: expected a finite number, got inf"),
            ([(0, 1)], ["x"], [0.5, 0.5], "edge_weights: expected a finite number, got 'x'"),
            ([(0, 1)], [-0.5], [0.5, 0.5], "edge_weights: must be in [0, inf), got -0.5"),
            ([(0, 1)], [0.5], [0.5, math.nan], "self_weights: expected a finite number, got nan"),
            ([(0, 1)], [0.5], [-math.inf, 0.5], "self_weights: expected a finite number, got -inf"),
            ([(0, 1)], [0.5], ["x", 0.5], "self_weights: expected a finite number, got 'x'"),
            ([(0, 1)], [0.5], [0.5, -0.5], "self_weights: must be in [0, inf), got -0.5"),
            # a second listing, in the same direction, at another weight
            ([(0, 1), (0, 1)], [0.3, 0.5], [0.5, 0.5], "edge_weights: edge (0, 1) and (0, 1) given different weights"),
            # every edge, then every edge weight, then every self-weight, then the lengths
            ([(0, 1, 2)], ["x"], ["x"], "edges: expected [i, j] pairs, got (0, 1, 2)"),
            ([(0, 1)], ["x"], ["x"], "edge_weights: expected a finite number, got 'x'"),
            ([(0, 1)], [], ["x"], "self_weights: expected a finite number, got 'x'"),
            ([(0, 1)], [], [0.5], "edge_weights: edges and edge_weights must have equal length"),
        ],
        ids=["3-tuple", "1-tuple", "not_a_pair", "float_end", "bool_end", "string_end", "nan_edge_weight",
             "inf_edge_weight", "string_edge_weight", "negative_edge_weight", "nan_self_weight", "inf_self_weight",
             "string_self_weight", "negative_self_weight", "edge_listed_twice", "edges_first", "edge_weights_second", "self_weights_third",
             "lengths_last"],
    )
    def test_entries_are_checked_by_their_argument(self, edges, edge_weights, self_weights, message):
        with pytest.raises(TopologyError) as err:
            build_custom(2, edges, edge_weights, self_weights)
        assert str(err.value) == message

    def test_entries_are_read_as_a_config_reads_them(self):
        # an integral float or a digit string is an int end, a number string a weight
        built = build_custom(2, [(0.0, "1")], ["0.5"], [0.5, "0.5"])
        assert built.w.tobytes() == build_complete(2).w.tobytes()

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

    def test_failed_eigensolver_is_a_numerical_error(self):
        # eigvalsh raises LinAlgError ("did not converge") on a nan matrix
        with pytest.raises(ParameterError, match="eigendecomposition failed"):
            spectral_quantities(np.full((3, 3), np.nan))

    @pytest.mark.parametrize("n", [0, 1])
    def test_matrix_below_2x2_is_a_parameter_error(self, n):
        with pytest.raises(ParameterError, match=rf"n >= 2, got shape \({n}, {n}\)"):
            spectral_quantities(np.ones((n, n)))

    def test_lambda_dev_equals_w_minus_i_norm(self):
        # the two definitions coincide for symmetric W
        for n, s in [(5, 0.3), (8, 1 / 3), (12, 0.6)]:
            w = build_ring(n, s)
            assert w.lambda_dev == pytest.approx(
                np.linalg.norm(w.w - np.eye(n), 2), abs=1e-12
            )


NO_EIGENSOLVER = """
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("O(n^3) spectral call in ring or complete set-up")

np.linalg.eigvalsh = np.linalg.eigh = np.linalg.eigvals = refuse
from squarm.topology import build_complete, build_ring
build_ring(4096)
build_complete(64)
"""


class TestClosedFormSpectra:
    """Rings and complete graphs carry closed-form (delta, lambda_dev), held
    to eigvalsh by the same check as `squarm verify --suite spectral`; only a
    custom graph is decomposed."""

    @pytest.mark.parametrize("s", verify.RING_SELF_WEIGHTS)
    @pytest.mark.parametrize("n", verify.RING_SIZES)
    def test_ring_matches_eigvalsh(self, n, s):
        m = verify.closed_form_spectrum(build_ring(n, s))
        assert m.ok, m

    @pytest.mark.parametrize("n", verify.COMPLETE_SIZES)
    def test_complete_matches_eigvalsh(self, n):
        m = verify.closed_form_spectrum(build_complete(n))
        assert m.ok, m

    def test_no_spectral_decomposition(self):
        # in a child process: the 128 MB matrix would raise this process's peak
        # RSS, which the `squarm run` children of later tests inherit and measure
        proc = subprocess.run(
            [sys.executable, "-c", NO_EIGENSOLVER], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr

    def test_custom_graph_calls_eigvalsh(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        build_custom(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0.25] * 4, [0.5] * 4)
        assert shapes == [(4, 4)]


class TestValidByConstruction:
    """Ring and complete set-up skips the full check and eigvalsh; the full
    check must accept every such matrix and find the builder's neighbour
    lists, and eigvalsh its spectrum to CLOSED_FORM_TOL (the two spectra
    differ in the last bits at some n, so they cannot be held bitwise)."""

    @staticmethod
    def assert_rechecked(built):
        w = built.w.copy()  # _validate freezes what it checks
        full = _validate(w)
        assert full.n == built.n
        assert full.w.tobytes() == built.w.tobytes()
        assert full.adjacency == built.adjacency
        assert all(type(j) is int for row in built.adjacency for j in row)
        assert abs(full.delta - built.delta) < verify.CLOSED_FORM_TOL
        assert abs(full.lambda_dev - built.lambda_dev) < verify.CLOSED_FORM_TOL
        assert not built.w.flags.writeable

    @pytest.mark.parametrize("s", verify.RING_SELF_WEIGHTS)
    @pytest.mark.parametrize("n", verify.RING_SIZES)
    def test_ring(self, n, s):
        self.assert_rechecked(build_ring(n, s))

    @pytest.mark.parametrize("n", verify.COMPLETE_SIZES)
    def test_complete(self, n):
        self.assert_rechecked(build_complete(n))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_ring(7, 0.4),
        lambda: build_complete(5),
        # a path 0-1-2-3-4 with a chord 0-3
        lambda: build_custom(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)], [0.25] * 5, [0.5, 0.5, 0.5, 0.25, 0.75]),
    ],
    ids=["ring", "complete", "custom"],
)
def test_neighbors_are_the_off_diagonal_nonzeros(build):
    w = build()
    for i in range(w.n):
        assert w.adjacency[i] == tuple(int(j) for j in np.flatnonzero(w.w[i]) if j != i)


class TestPowerDeviation:
    def test_k0_is_one(self):
        w = build_ring(8, 1 / 3)
        assert power_deviation(w.w, 0) == pytest.approx(1.0, abs=1e-10)

    def test_negative_k_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match=r"^k: must be in \[0, inf\), got -1$"):
            power_deviation(build_ring(8).w, -1)
        with pytest.raises(ParameterError, match="^k: expected int, got 1.5$"):
            power_deviation(build_ring(8).w, 1.5)

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
