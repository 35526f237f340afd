import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_mask import (
    CrossoverKind,
    HypothesisViolationError,
    ModelParams,
    PSI2_UPPER_COEFFICIENT,
    ParameterDomainError,
    binomial_pmf,
    crossover_region,
    diff_binomial_pmf,
    exp_moment_bound,
    moment_bound,
    psi2_sup_upper,
    psi2_upper,
    q_function,
    q_sandwich,
    tail_bound_combined,
    tail_bound_entropy,
    tail_bound_mod,
    tail_bound_q,
    tail_bound_uv,
    variance_formula,
)


class TestVarianceFormula:
    def test_values(self):
        assert variance_formula(ModelParams(8, 1, 4)) == (2.0, 1.0, 1.0)
        var_x, var_u, var_v = variance_formula(ModelParams(5, 2, 2))
        assert (var_x, var_u, var_v) == pytest.approx((1.2, 0.6, 0.6))

    def test_deterministic_full_mask(self):
        assert variance_formula(ModelParams(8, 1, 8)) == (0.0, 0.0, 0.0)

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisViolationError):
            variance_formula(ModelParams(8, 0, 4))
        with pytest.raises(HypothesisViolationError):
            variance_formula(ModelParams(8, 4, 4))


class TestTailBounds:
    def test_uv_example(self):
        assert tail_bound_uv(8, math.sqrt(2)) == pytest.approx(2 * math.exp(-1))

    def test_cosine_coefficients_reproduce_uv_bound(self):
        # The bounded-difference bound 2 exp(-2 t^2 / sum c_k^2) with
        # c_k = |cos(2 k l pi / N)|, whose squares sum to N/2 when N != 2l.
        N, l, t = 12, 5, 1.3
        ssq = math.fsum(math.cos(2 * math.pi * k * l / N) ** 2 for k in range(1, N + 1))
        assert 2 * math.exp(-2 * t * t / ssq) == pytest.approx(tail_bound_uv(N, t), rel=1e-10)

    def test_mod_example(self):
        assert tail_bound_mod(8, 2.0) == pytest.approx(2 * math.exp(-1))

    def test_at_zero(self):
        assert tail_bound_uv(8, 0.0) == 2.0
        assert tail_bound_mod(8, 0.0) == 2.0
        assert tail_bound_entropy(8, 3, 0.0) == 1.0
        assert tail_bound_combined(8, 3, 0.0) == 1.0

    def test_entropy_example(self):
        assert tail_bound_entropy(3, 1, 1.0) == pytest.approx(0.5)

    def test_entropy_near_half_density_limit(self):
        # Coefficient tends to 2/N as m/N -> 1/2.
        value = tail_bound_entropy(1000, 499, 1.0)
        assert value == pytest.approx(math.exp(-2.0 / 1000.0), rel=1e-4)

    def test_combined_example(self):
        assert tail_bound_combined(3, 1, 1.0) == pytest.approx(0.5)
        assert tail_bound_combined(3, 1, 1.0) == pytest.approx(
            min(tail_bound_uv(3, 1.0), tail_bound_entropy(3, 1, 1.0))
        )

    @given(
        st.integers(min_value=3, max_value=512).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.integers(min_value=1, max_value=(N - 1) // 2),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            )
        )
    )
    @settings(max_examples=200)
    def test_combined_equals_min_identity(self, case):
        N, m, t = case
        combined = tail_bound_combined(N, m, t)
        expected = min(tail_bound_uv(N, t), tail_bound_entropy(N, m, t))
        assert combined == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_half_density_hypothesis(self):
        for fn in (lambda: tail_bound_entropy(8, 4, 1.0), lambda: tail_bound_combined(8, 4, 1.0)):
            with pytest.raises(HypothesisViolationError):
                fn()


class TestCrossover:
    def test_named_cases(self):
        assert crossover_region(2304, 48).kind is CrossoverKind.SECOND_FOR_ALL_T
        assert crossover_region(470, 10).kind is CrossoverKind.FIRST_BEYOND_T_STAR

    def test_small_case_with_t_star(self):
        verdict = crossover_region(4, 1)
        assert verdict.kind is CrossoverKind.FIRST_BEYOND_T_STAR
        expected = math.sqrt(math.log(2.0) / (1.0 - math.log(3.0) / 2.0))
        assert verdict.t_star == pytest.approx(expected, rel=1e-12)

    def test_coefficients(self):
        verdict = crossover_region(470, 10)
        assert verdict.coeff_first == pytest.approx(4 / 470)
        assert verdict.coeff_second == pytest.approx(math.log(46) / 450)

    @given(
        st.integers(min_value=3, max_value=4096).flatmap(
            lambda N: st.tuples(st.just(N), st.integers(min_value=1, max_value=(N - 1) // 2))
        )
    )
    @settings(max_examples=200)
    def test_branch_consistency(self, case):
        N, m = case
        verdict = crossover_region(N, m)

        def first(t):
            return verdict.coeff_first * t * t - math.log(2.0)

        def second(t):
            return verdict.coeff_second * t * t

        if verdict.kind is CrossoverKind.SECOND_FOR_ALL_T:
            assert verdict.t_star is None
            for t in (0.0, 0.5, 1.0, 5.0, 50.0):
                assert second(t) >= first(t) - 1e-12
        else:
            t_star = verdict.t_star
            assert first(2 * t_star) > second(2 * t_star)
            assert first(t_star / 2) < second(t_star / 2)
            # At t* itself the branches tie.
            assert first(t_star) == pytest.approx(second(t_star), abs=1e-9)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolationError):
            crossover_region(8, 4)


class TestMomentBound:
    def test_n1_is_half_n(self):
        assert moment_bound(10, 1) == pytest.approx(5.0)

    def test_example(self):
        assert moment_bound(8, 2) == pytest.approx(64.0 / math.e, rel=1e-12)

    def test_log_space_overflow(self):
        assert moment_bound(8, 400) == math.inf

    def test_large_n_matches_mpmath(self):
        n, N = 150, 16
        expected = float(
            mpmath.mpf(n) ** (n + 1) * mpmath.mpf(N) ** n / (2 ** (2 * n - 1) * mpmath.e ** (n - 1))
        )
        assert moment_bound(N, n) == pytest.approx(expected, rel=1e-10)


class TestExpMomentBound:
    def test_limit(self):
        assert exp_moment_bound(8, 1e9) == pytest.approx(1.0)

    def test_example(self):
        assert exp_moment_bound(8, 4.0) == pytest.approx(1 + 8 * math.e * 8 * 16 / 56**2)

    def test_root_identity_with_psi2_upper(self):
        for N in (1, 2, 3, 8, 12, 64, 1000):
            assert abs(exp_moment_bound(N, psi2_upper(N)) - 2.0) <= 1e-9

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolationError):
            exp_moment_bound(8, 1.0)
        with pytest.raises(HypothesisViolationError):
            exp_moment_bound(4, 1.0)
        assert exp_moment_bound(4, 1.0000001) > 1.0


class TestPsi2Uppers:
    def test_unit_coefficient_twelve_digits(self):
        mpmath.mp.dps = 30
        expected = (mpmath.sqrt(2 * mpmath.e) + mpmath.sqrt(2 * mpmath.e + 4)) / 4
        assert abs(PSI2_UPPER_COEFFICIENT - float(expected)) < 1e-12

    def test_sqrt_scaling(self):
        assert psi2_upper(4) == pytest.approx(2 * psi2_upper(1))

    def test_sup_upper_unit(self):
        assert psi2_sup_upper(1) == pytest.approx(1.0 / math.sqrt(math.log(2.0)))

    def test_ordering_from_two(self):
        for N in range(2, 200):
            assert psi2_upper(N) <= psi2_sup_upper(N)
        # N = 1 is the one size where the sup-norm route is tighter.
        assert psi2_upper(1) > psi2_sup_upper(1)


class TestQFunction:
    def test_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_reference_value(self):
        assert q_function(1.0) == pytest.approx(0.15865525393145705, abs=1e-13)

    def test_sandwich_example(self):
        lower, upper = q_sandwich(2.0)
        q2 = q_function(2.0)
        assert lower < q2 < upper
        assert lower == pytest.approx((2 / 5) * math.exp(-2) / math.sqrt(2 * math.pi))
        assert upper == pytest.approx(math.exp(-2) / (2 * math.sqrt(2 * math.pi)))

    @given(st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
    @settings(max_examples=200)
    def test_sandwich_strict(self, x):
        lower, upper = q_sandwich(x)
        assert lower < q_function(x) < upper

    def test_sandwich_domain(self):
        with pytest.raises(ParameterDomainError):
            q_sandwich(0.0)
        with pytest.raises(ParameterDomainError):
            q_sandwich(-1.0)


class TestTailBoundQ:
    def test_example(self):
        expected = 40 * math.sqrt(math.pi) / (2 * math.sqrt(8)) * q_function(2.0)
        assert tail_bound_q(8, 2.0) == pytest.approx(expected, rel=1e-14)
        assert tail_bound_q(8, 2.0) == pytest.approx(0.2851, abs=5e-4)

    @given(
        st.integers(min_value=1, max_value=256),
        st.floats(min_value=1e-6, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_dominates_direct_bound(self, N, t):
        assert tail_bound_q(N, t) >= tail_bound_uv(N, t) - 1e-12

    def test_vanishes_at_infinity(self):
        assert tail_bound_q(8, 1e3) == pytest.approx(0.0, abs=1e-300)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            tail_bound_q(8, 0.0)


class TestBinomialHelpers:
    def test_pmf_example(self):
        assert binomial_pmf(8, 3, 8, 0) == pytest.approx((5 / 8) ** 8, rel=1e-15)

    def test_pmf_out_of_range(self):
        assert binomial_pmf(8, 3, 8, -1) == 0.0
        assert binomial_pmf(8, 3, 8, 9) == 0.0

    def test_pmf_normalization(self):
        assert math.fsum(binomial_pmf(9, 2, 9, k) for k in range(10)) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_p_one(self):
        assert binomial_pmf(5, 5, 5, 5) == 1.0
        assert binomial_pmf(5, 5, 5, 4) == 0.0

    def test_diff_pmf_mean_zero(self):
        mean = math.fsum(k * diff_binomial_pmf(4, 3, 8, k) for k in range(-4, 5))
        assert mean == pytest.approx(0.0, abs=1e-15)

    def test_diff_pmf_normalization_and_symmetry(self):
        total = math.fsum(diff_binomial_pmf(4, 3, 8, k) for k in range(-4, 5))
        assert total == pytest.approx(1.0, abs=1e-15)
        for k in range(5):
            assert diff_binomial_pmf(4, 3, 8, k) == diff_binomial_pmf(4, 3, 8, -k)

    def test_diff_pmf_center_identity(self):
        # P(D = 0) equals the sum of squared binomial masses.
        l, m, den = 3, 2, 6
        expected = math.fsum(binomial_pmf(l, m, den, j) ** 2 for j in range(l + 1))
        assert diff_binomial_pmf(l, m, den, 0) == pytest.approx(expected, rel=1e-15)

    def test_diff_pmf_out_of_range(self):
        assert diff_binomial_pmf(3, 1, 3, 4) == 0.0

    def test_bad_probability_pair(self):
        with pytest.raises(ParameterDomainError):
            binomial_pmf(5, 7, 6, 2)
