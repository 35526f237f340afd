import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mc_reference import draw_masks
from scalar_reference import dft_atom, evaluate, trig_sums
from spectral_mask import ModelParams, ParameterDomainError, Part
from spectral_mask.model import _inclusion_threshold, atom_table


def mask(*indices):
    return frozenset(indices)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(8, 3, 5)
        assert (p.N, p.l, p.m) == (8, 3, 5)
        assert not p.is_degenerate_2l

    def test_flags(self):
        assert not ModelParams(8, 0, 1).is_degenerate_2l
        assert ModelParams(8, 4, 1).is_degenerate_2l

    @pytest.mark.parametrize(
        "N,l,m",
        [(0, 0, 1), (8, 8, 1), (8, -1, 1), (8, 1, 0), (8, 1, 9), (-2, 0, 1)],
    )
    def test_domain_errors(self, N, l, m):
        with pytest.raises(ParameterDomainError):
            ModelParams(N, l, m)

    def test_non_integer_rejected(self):
        with pytest.raises(ParameterDomainError):
            ModelParams(8.0, 1, 3)

    def test_p_is_exact(self):
        # 1/3 is not representable in binary floating point; the inclusion
        # threshold u < ceil(2^64 m / N) on a uniform 64-bit u is exact.
        params = ModelParams(3, 1, 1)
        threshold = _inclusion_threshold(params.m, params.N)
        assert threshold == math.ceil(Fraction(params.m * 2**64, params.N))
        assert 0 <= Fraction(threshold, 2**64) - Fraction(1, 3) < Fraction(1, 2**64)


class TestDftAtom:
    @pytest.mark.parametrize(
        "n,l,N,expected",
        [
            (5, 0, 8, 1 + 0j),
            (1, 1, 4, -1j),
            (2, 1, 4, -1 + 0j),
        ],
    )
    def test_examples(self, n, l, N, expected):
        atom = dft_atom(n, l, N)
        assert atom == pytest.approx(expected, abs=1e-15)

    @given(
        st.integers(min_value=1, max_value=512).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.integers(min_value=0, max_value=N - 1),
                st.integers(min_value=1, max_value=N),
            )
        )
    )
    def test_unit_modulus(self, nln):
        N, l, n = nln
        assert abs(abs(dft_atom(n, l, N)) - 1.0) <= 1e-15

    def test_large_argument_reduction(self):
        # Exact mod-N reduction keeps huge n*l products accurate.
        N = 7
        assert dft_atom(7, 6, 7) == pytest.approx(1 + 0j, abs=1e-15)

    @pytest.mark.parametrize("n,l,N", [(0, 1, 4), (5, 1, 4), (1, 4, 4), (1, -1, 4)])
    def test_domain_errors(self, n, l, N):
        with pytest.raises(ParameterDomainError):
            dft_atom(n, l, N)

    def test_matches_atom_table(self):
        # The vectorised table the oracle and the Monte Carlo engine read
        # agrees with the scalar reference atom by atom.
        for N in range(1, 33):
            for l in range(N):
                table = atom_table(N, l)
                for n in range(1, N + 1):
                    assert abs(table[n - 1] - dft_atom(n, l, N)) <= 1e-15


class TestEvaluate:
    def test_empty_mask(self):
        assert evaluate(mask(), ModelParams(8, 1, 3), Part.COMPLEX) == 0

    def test_full_mask_vanishes(self):
        params = ModelParams(8, 1, 3)
        value = evaluate(mask(*range(1, 9)), params, Part.COMPLEX)
        assert abs(value) <= 1e-12 * params.N

    def test_two_atom_hand_sum(self):
        value = evaluate(mask(1, 2), ModelParams(4, 1, 2), Part.COMPLEX)
        assert value == pytest.approx(-1 - 1j, abs=1e-15)

    def test_parts_consistent_with_complex(self):
        params = ModelParams(12, 5, 4)
        m = mask(1, 4, 7, 12)
        z = evaluate(m, params, Part.COMPLEX)
        assert evaluate(m, params, Part.REAL) == z.real
        assert evaluate(m, params, Part.IMAG) == z.imag
        assert evaluate(m, params, Part.MODULUS) == pytest.approx(abs(z), abs=1e-15)

    def test_imag_sign_convention(self):
        # Single atom at n=1, l=1, N=4 sits at -j: imaginary part is -sin.
        assert evaluate(mask(1), ModelParams(4, 1, 1), Part.IMAG) == pytest.approx(-1.0)

    def test_modulus_centered_rejected(self):
        with pytest.raises(ParameterDomainError):
            evaluate(mask(1), ModelParams(4, 1, 1), Part.MODULUS_CENTERED)

    def test_mask_outside_n_rejected(self):
        with pytest.raises(ParameterDomainError):
            evaluate(mask(9), ModelParams(8, 1, 1), Part.REAL)

    @given(
        st.integers(min_value=2, max_value=16).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.integers(min_value=0, max_value=N - 1),
                st.sets(st.integers(min_value=1, max_value=N)),
                st.sets(st.integers(min_value=1, max_value=N)),
            )
        )
    )
    def test_linearity_on_disjoint_masks(self, case):
        N, l, a, b = case
        b = b - a
        params = ModelParams(N, l, 1)
        total = evaluate(a | b, params, Part.COMPLEX)
        split = evaluate(a, params, Part.COMPLEX) + evaluate(b, params, Part.COMPLEX)
        assert abs(total - split) <= 1e-12 * N

    @given(
        st.integers(min_value=2, max_value=16).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.integers(min_value=1, max_value=N - 1),
                st.sets(st.integers(min_value=1, max_value=N)),
            )
        )
    )
    def test_conjugate_symmetry(self, case):
        N, l, indices = case
        z_l = evaluate(indices, ModelParams(N, l, 1), Part.COMPLEX)
        z_refl = evaluate(indices, ModelParams(N, N - l, 1), Part.COMPLEX)
        assert abs(z_l - z_refl.conjugate()) <= 1e-12 * N


class TestTrigSums:
    def test_identity_exhaustive(self):
        for N in range(2, 65):
            for l in range(1, N):
                cos_sum, sin_sum = trig_sums(N, l)
                if N == 2 * l:
                    assert abs(cos_sum - N) <= 1e-10 * N
                    assert abs(sin_sum) <= 1e-10 * N
                else:
                    assert abs(cos_sum) <= 1e-10 * N
                    assert abs(sin_sum) <= 1e-10 * N

    @pytest.mark.parametrize("N,l", [(8, 0), (8, 8), (8, 9), (1, 1)])
    def test_domain_errors(self, N, l):
        with pytest.raises(ParameterDomainError):
            trig_sums(N, l)


class TestSampleMask:
    """The Bernoulli mask draw of the Monte Carlo reference (``mc_reference``),
    which every Monte Carlo unit equals bit for bit."""

    def test_full_inclusion(self):
        rng = np.random.default_rng(0)
        assert (draw_masks(ModelParams(10, 1, 10), rng, 5) == 1.0).all()

    def test_single_certain_trial(self):
        rng = np.random.default_rng(0)
        assert draw_masks(ModelParams(1, 0, 1), rng, 1).tolist() == [[1.0]]

    def test_inclusion_frequencies_within_six_sigma(self):
        params = ModelParams(10, 3, 3)
        draws = 20_000
        rng = np.random.default_rng(1234)
        masks = draw_masks(params, rng, draws)
        assert set(np.unique(masks)) <= {0.0, 1.0}
        p = params.m / params.N
        sigma = math.sqrt(p * (1 - p) / draws)
        freqs = masks.mean(axis=0)
        assert np.all(np.abs(freqs - p) <= 6 * sigma)
        # Expected support size is m.
        size_sigma = math.sqrt(params.N * p * (1 - p) / draws)
        assert abs(masks.sum() / draws - params.m) <= 6 * size_sigma
