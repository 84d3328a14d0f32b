import numpy as np
import pytest

from squarm.compress import (
    KINDS,
    CompressorSpec,
    _top_k_indices,
    bit_cost,
    compress,
    decode,
    estimate_contraction,
    omega_of,
)
from squarm.errors import ParameterError


def spec_for(kind, d):
    if kind == "top_k":
        return CompressorSpec(kind, k=max(1, d // 4))
    if kind == "rand_k":
        return CompressorSpec(kind, k=max(1, d // 2))
    if kind == "qsgd":
        return CompressorSpec(kind, s=int(np.ceil(np.sqrt(d))) + 1)
    if kind == "sign_top_k":
        return CompressorSpec(kind, k=max(1, d // 10))
    if kind == "qsgd_top_k":
        return CompressorSpec(kind, k=max(1, d // 4), s=4)
    return CompressorSpec(kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [8, 64])
def test_zero_maps_to_zero(kind, d):
    rng = np.random.default_rng(0)
    out = decode(compress(spec_for(kind, d), np.zeros(d), rng))
    assert not out.any()


class TestTopK:
    def test_k_equals_d_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(12)
        out = decode(compress(CompressorSpec("top_k", k=12), x, rng))
        assert np.array_equal(out, x)

    def test_keeps_largest(self):
        rng = np.random.default_rng(1)
        out = decode(compress(CompressorSpec("top_k", k=1), np.array([3.0, -1.0, 2.0]), rng))
        assert np.array_equal(out, [3.0, 0.0, 0.0])

    def test_tie_break_lowest_index(self):
        rng = np.random.default_rng(1)
        msg = compress(CompressorSpec("top_k", k=2), np.array([1.0, -1.0, 1.0, 1.0]), rng)
        assert list(msg.support) == [0, 1]

    @pytest.mark.parametrize("d", [1, 2, 3, 20, 200, 2000])
    def test_support_is_the_stable_sort_support_for_every_k(self, d):
        rng = np.random.default_rng(d)
        # few distinct magnitudes with both signs, and zeros of both signs
        rounded = np.round(rng.standard_normal(d), 1)
        rounded[rng.random(d) < 0.2] = -0.0
        unit = rng.choice([-1.0, 1.0, 0.0, -0.0], size=d)
        for x in (rounded, unit):
            for k in range(1, d + 1):
                want = np.sort(np.argsort(-np.abs(x), kind="stable")[:k])
                assert np.array_equal(_top_k_indices(x, k), want), (d, k)

    def test_deterministic_contraction_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(2, 40))
            k = int(rng.integers(1, d + 1))
            x = rng.standard_normal(d) * rng.uniform(0.1, 10)
            err = x - decode(compress(CompressorSpec("top_k", k=k), x, rng))
            assert err @ err <= (1 - k / d) * (x @ x) + 1e-12

    def test_k_too_large(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            compress(CompressorSpec("top_k", k=5), np.zeros(3), rng)


class TestScaledSign:
    def test_hand_example(self):
        rng = np.random.default_rng(0)
        x = np.array([3.0, 1.0])
        out = decode(compress(CompressorSpec("scaled_sign"), x, rng))
        assert np.array_equal(out, [2.0, 2.0])
        assert (x - out) @ (x - out) == pytest.approx(2.0, abs=1e-12)

    def test_exact_residual_identity(self):
        rng = np.random.default_rng(3)
        spec = CompressorSpec("scaled_sign")
        for _ in range(1000):
            d = int(rng.integers(2, 100))
            x = rng.standard_normal(d) * rng.uniform(0.01, 100)
            c = decode(compress(spec, x, rng))
            lhs = float((x - c) @ (x - c))
            rhs = float(x @ x) - float(np.abs(x).sum()) ** 2 / d
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_sign_of_zero_entry(self):
        rng = np.random.default_rng(0)
        out = decode(compress(CompressorSpec("scaled_sign"), np.array([2.0, 0.0]), rng))
        assert out[1] == 0.0


class TestQsgd:
    def test_unbiased_componentwise(self):
        rng = np.random.default_rng(4)
        d, s, trials = 16, 4, 10_000
        spec = CompressorSpec("qsgd", s=s)
        x = rng.standard_normal(d)
        acc = np.zeros(d)
        sq = np.zeros(d)
        for _ in range(trials):
            c = decode(compress(spec, x, rng))
            acc += c
            sq += c * c
        mean = acc / trials
        se = np.sqrt(np.maximum(sq / trials - mean**2, 1e-30) / trials)
        assert np.all(np.abs(mean - x) <= 4 * se + 1e-12)

    def test_levels_bounded(self):
        rng = np.random.default_rng(5)
        spec = CompressorSpec("qsgd", s=3)
        for _ in range(100):
            x = rng.standard_normal(10)
            msg = compress(spec, x, rng)
            assert np.all(np.abs(msg.values) <= 3)

    def test_zero_norm(self):
        rng = np.random.default_rng(0)
        out = decode(compress(CompressorSpec("qsgd", s=2), np.zeros(6), rng))
        assert not out.any()


class TestRandK:
    def test_expected_residual(self):
        rng = np.random.default_rng(6)
        d = 16
        spec = CompressorSpec("rand_k", k=8)
        ratio = estimate_contraction(spec, d, 10_000, rng)
        assert ratio == pytest.approx(0.5, abs=0.02)

    def test_unscaled_values(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(10)
        msg = compress(CompressorSpec("rand_k", k=4), x, rng)
        assert np.array_equal(msg.values, x[msg.support])


class TestSignTopK:
    def test_support_and_scale(self):
        rng = np.random.default_rng(8)
        x = np.array([3.0, -1.0, 2.0, 0.5])
        msg = compress(CompressorSpec("sign_top_k", k=2), x, rng)
        assert list(msg.support) == [0, 2]
        assert msg.scale == pytest.approx(2.5)
        out = decode(msg)
        assert np.array_equal(out, [2.5, 0.0, 2.5, 0.0])


class TestOmegaOf:
    def test_top_k(self):
        assert omega_of(CompressorSpec("top_k", k=1), 100) == pytest.approx(0.01)

    def test_identity(self):
        assert omega_of(CompressorSpec("identity"), 7) == 1.0

    def test_qsgd_top_k(self):
        # beta_{4,2} = min{4/4, 2/2} = 1, so omega = 4/(8*2)
        assert omega_of(CompressorSpec("qsgd_top_k", k=4, s=2), 8) == pytest.approx(0.25)

    def test_qsgd_top_k_residual_obeys_omega(self):
        # the contraction parameter must be consistent with the definition:
        # a near-lossless operator (k = d, huge s) has omega near 1
        rng = np.random.default_rng(20)
        spec = CompressorSpec("qsgd_top_k", k=16, s=64)
        omega = omega_of(spec, 16)
        assert omega > 0.9
        assert estimate_contraction(spec, 16, 2000, rng) <= (1 - omega) + 0.02

    def test_qsgd_none_when_beta_large(self):
        assert omega_of(CompressorSpec("qsgd", s=1), 64) is None

    def test_sign_kinds_are_empirical(self):
        assert omega_of(CompressorSpec("scaled_sign"), 16) is None
        assert omega_of(CompressorSpec("sign_top_k", k=2), 16) is None


class TestEstimateContraction:
    def test_identity_exactly_zero(self):
        rng = np.random.default_rng(9)
        assert estimate_contraction(CompressorSpec("identity"), 8, 100, rng) == 0.0

    def test_scaled_sign_gaussian_band(self):
        rng = np.random.default_rng(10)
        ratio = estimate_contraction(CompressorSpec("scaled_sign"), 64, 10_000, rng)
        assert ratio == pytest.approx(1 - 2 / np.pi, abs=0.02)

    @pytest.mark.parametrize("kind", ["top_k", "rand_k", "qsgd", "qsgd_top_k", "identity"])
    def test_formulaic_bound(self, kind):
        rng = np.random.default_rng(11)
        d = 32
        spec = spec_for(kind, d)
        omega = omega_of(spec, d)
        assert estimate_contraction(spec, d, 2000, rng) <= (1 - omega) + 0.02

    def test_rejects_few_trials(self):
        with pytest.raises(ParameterError):
            estimate_contraction(CompressorSpec("identity"), 4, 10, np.random.default_rng(0))


class TestBitCost:
    def test_identity(self):
        rng = np.random.default_rng(0)
        spec = CompressorSpec("identity")
        msg = compress(spec, np.zeros(100), rng)
        assert bit_cost(spec, 100, msg) == 3200

    def test_sign_top_k(self):
        rng = np.random.default_rng(0)
        spec = CompressorSpec("sign_top_k", k=1)
        msg = compress(spec, np.ones(100), rng)
        assert bit_cost(spec, 100, msg) == 7 + 1 + 32

    def test_top_k(self):
        rng = np.random.default_rng(0)
        spec = CompressorSpec("top_k", k=2)
        msg = compress(spec, np.ones(128), rng)
        assert bit_cost(spec, 128, msg) == 2 * (7 + 32)

    def test_qsgd(self):
        rng = np.random.default_rng(0)
        spec = CompressorSpec("qsgd", s=2)
        msg = compress(spec, np.ones(16), rng)
        # ceil(log2(2s+1)) = 3 bits per level plus the norm
        assert bit_cost(spec, 16, msg) == 16 * 3 + 32

    def test_kind_mismatch(self):
        rng = np.random.default_rng(0)
        msg = compress(CompressorSpec("top_k", k=1), np.ones(8), rng)
        with pytest.raises(ParameterError, match="message kind 'top_k' does not match spec kind 'rand_k'"):
            bit_cost(CompressorSpec("rand_k", k=1), 8, msg)


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("kind", ["identity", "top_k", "rand_k"])
    def test_sparsifier_residual_exact(self, kind):
        # payload values are entries of x, so q + (x - q) == x bit for bit
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = int(rng.integers(2, 50))
            x = rng.standard_normal(d) * rng.uniform(0.01, 100)
            q = decode(compress(spec_for(kind, d), x, rng))
            assert np.array_equal(q + (x - q), x)

    @pytest.mark.parametrize("kind", KINDS)
    def test_decode_deterministic(self, kind):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(24)
        msg = compress(spec_for(kind, 24), x, rng)
        assert np.array_equal(decode(msg), decode(msg))
        assert decode(msg).shape == (24,)


def test_non_finite_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="input vector has non-finite entries"):
        compress(CompressorSpec("identity"), np.array([1.0, np.nan]), rng)


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        CompressorSpec("middle_k", k=3)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: CompressorSpec("top_k"), "top_k needs k >= 1"),
        (lambda: CompressorSpec("sign_top_k", k=0), "sign_top_k needs k >= 1"),
        (lambda: CompressorSpec("qsgd"), "qsgd needs s >= 1"),
        (lambda: CompressorSpec("qsgd_top_k", k=2, s=0), "qsgd_top_k needs s >= 1"),
        (lambda: CompressorSpec("identity", value_bits=0), "value_bits must be >= 1"),
        (
            lambda: bit_cost(
                CompressorSpec("identity"),
                9,
                compress(CompressorSpec("identity"), np.ones(8), np.random.default_rng(0)),
            ),
            "message dimension 8 != 9",
        ),
    ],
    ids=["k_unset", "k_zero", "s_unset", "s_zero", "value_bits", "bit_cost_dimension"],
)
def test_argument_guards(build, match):
    with pytest.raises(ParameterError, match=match):
        build()
