import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_mask
from spectral_mask import oracle
from spectral_mask import (
    CapabilityError,
    ModelParams,
    ParameterDomainError,
    Part,
    Psi2Definition,
    binomial_pmf,
    enumerate_distribution,
    exact_exp_moment,
    exact_moment,
    exact_psi2_moment_norm,
    exact_psi2_norm,
    exact_tail_curve,
    psi2_upper,
    weight_table,
)
from scalar_reference import evaluate
from spectral_mask.model import VALUE_GROUPING_TOL, atom_table


def brute_force_law(params, part):
    """Independent oracle: plain itertools sweep with exact Fraction weights,
    grouped on rounded values."""
    outcomes = {}
    p = Fraction(params.m, params.N)
    for bits in itertools.product((0, 1), repeat=params.N):
        indices = frozenset(n for n, b in enumerate(bits, start=1) if b)
        value = evaluate(indices, params, part)
        weight = p ** len(indices) * (1 - p) ** (params.N - len(indices))
        if part is Part.COMPLEX:
            key = (round(value.real, 7), round(value.imag, 7))
        else:
            key = round(value, 7)
        outcomes[key] = outcomes.get(key, Fraction(0)) + weight
    return {k: v for k, v in outcomes.items() if v > 0}


def dist_as_dict(dist):
    if dist.part is Part.COMPLEX:
        return {
            (round(float(v.real), 7), round(float(v.imag), 7)): float(p)
            for v, p in zip(dist.values, dist.probs)
        }
    return {round(float(v), 7): float(p) for v, p in zip(dist.values, dist.probs)}


def doubling_law(N, l, m, part):
    """Brute-force reference: every 2^N subset sum by doubling, gap-clustered
    after sorting, each mask weighted by its popcount.  No frequency class is
    shared and nothing is cached."""
    atoms = atom_table(N, l)
    comps = {Part.REAL: atoms.real, Part.IMAG: atoms.imag}.get(part, atoms)
    vals = np.zeros(1, dtype=comps.dtype)
    pops = np.zeros(1, dtype=np.int8)
    for c in comps:
        vals = np.concatenate([vals, vals + c])
        pops = np.concatenate([pops, pops + 1])
        if part in (Part.REAL, Part.IMAG):
            # Kept sorted: two sorted runs merge in linear time, where one
            # sort of all 2^N sums at the end is the slow step at N = 23.
            order = np.argsort(vals, kind="stable")
            vals, pops = vals[order], pops[order]
    if part in (Part.MODULUS, Part.MODULUS_CENTERED):
        vals = np.abs(vals)
    if part is Part.COMPLEX:
        # Gap clusters of the real coordinate, then of the imaginary one.
        order_re = np.argsort(vals.real, kind="stable")
        re_id = np.empty(vals.size, dtype=np.int64)
        re_id[order_re] = np.concatenate(
            ([0], np.cumsum(np.diff(vals.real[order_re]) > VALUE_GROUPING_TOL))
        )
        order = np.lexsort((vals.imag, re_id))
        breaks = (np.diff(re_id[order]) != 0) | (np.diff(vals.imag[order]) > VALUE_GROUPING_TOL)
    else:
        order = np.argsort(vals, kind="stable")
        breaks = np.diff(vals[order]) > VALUE_GROUPING_TOL
    starts = np.concatenate(([0], np.nonzero(breaks)[0] + 1))
    sizes = np.diff(np.append(starts, vals.size))
    values = np.add.reduceat(vals[order], starts) / sizes
    probs = np.add.reduceat(weight_table(N, m)[pops[order]], starts)
    if part is Part.MODULUS_CENTERED:
        values = values - np.dot(values, probs)
    keep = probs > 0.0
    return values[keep], probs[keep]


def assert_same_law(got, want):
    (gv, gp), (wv, wp) = got, want
    assert gv.shape == wv.shape
    assert np.abs(gv - wv).max() <= 1e-12
    assert np.abs(gp - wp).max() <= 1e-12


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def modulus_via_complex(N, g):
    """Reference modulus law of class (N, g), derived from the complex law:
    the complex outcomes with their coordinates in Z[zeta_d], convolved one
    atom per step in the natural atom order and put in the complex law's
    sort order, are
    grouped on their packed |z|^2 (``_modulus_keys``), each group's counts
    summed and its |z| taken at its first member.  Asserts on the way that
    the outcomes and counts are those of ``_law(N, g, Part.COMPLEX)``."""
    d = N // math.gcd(g, N)
    powers = oracle._powers(d, d)
    theta = 2.0 * np.pi * np.arange(powers.shape[1]) / d
    coords, rows = oracle._convolve(class_vectors(N, d, np.arange(1, N + 1)[:, None])[Part.COMPLEX])
    re, im = oracle._complex_parts(coords, powers, np.cos(theta), -np.sin(theta))
    order = np.argsort(re + 1j * im, kind="stable")
    joint = oracle._law(N, g, Part.COMPLEX)
    assert same_bytes((re + 1j * im)[order], joint.values)
    assert same_bytes(rows.T[:, order], joint.counts)
    first, gid = oracle._group(oracle._modulus_keys(coords[order], powers))
    values = np.abs(joint.values[first])
    grouped = oracle._regroup(joint.counts.T, gid, first.size).T
    order = np.argsort(values, kind="stable")
    return values[order], grouped[:, order]


def class_vectors(N, d, r):
    """The complex, real and imaginary vectors of the atoms zeta^r of the
    class of order d, one per entry of ``r``: rows of ``r`` are steps."""
    powers = oracle._powers(d, d)
    atoms, conj = powers[r % d], powers[-r % d]
    return {Part.COMPLEX: atoms, Part.REAL: atoms + conj, Part.IMAG: atoms - conj}


class TestEnumerateDistribution:
    def test_three_point_law(self):
        dist = enumerate_distribution(ModelParams(2, 1, 1), Part.REAL)
        assert dist_as_dict(dist) == pytest.approx({-1.0: 0.25, 0.0: 0.5, 1.0: 0.25})

    def test_single_certain_atom(self):
        dist = enumerate_distribution(ModelParams(1, 0, 1), Part.REAL)
        assert dist_as_dict(dist) == pytest.approx({1.0: 1.0})

    def test_binomial_cross_check(self):
        params = ModelParams(8, 0, 3)
        dist = enumerate_distribution(params, Part.REAL)
        for v, p in zip(dist.values, dist.probs):
            assert p == pytest.approx(binomial_pmf(8, 3, 8, round(float(v))), abs=1e-12)

    def test_deterministic_full_mask_drops_zero_atoms(self):
        dist = enumerate_distribution(ModelParams(4, 1, 4), Part.REAL)
        assert dist.values.size == 1
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-15)
        assert abs(dist.values[0]) <= 1e-12

    @pytest.mark.parametrize("part", [Part.REAL, Part.IMAG, Part.MODULUS, Part.COMPLEX])
    @pytest.mark.parametrize("N,l,m", [(5, 2, 2), (6, 1, 3), (7, 3, 6), (4, 1, 1), (8, 2, 3)])
    def test_against_brute_force(self, N, l, m, part):
        params = ModelParams(N, l, m)
        expected = brute_force_law(params, part)
        got = dist_as_dict(enumerate_distribution(params, part))
        assert set(got) == set(expected)
        for key, prob in expected.items():
            assert got[key] == pytest.approx(float(prob), abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=9).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.integers(min_value=0, max_value=N - 1),
                st.integers(min_value=1, max_value=N),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_normalization_and_support_bound(self, nlm):
        params = ModelParams(*nlm)
        dist = enumerate_distribution(params, Part.REAL)
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12
        assert (dist.probs > 0).all()
        assert float(np.abs(dist.values).max()) <= params.N + 1e-9
        if dist.values.size > 1:
            assert (np.diff(dist.values) > 0).all()  # grouped values distinct

    def test_modulus_centered_mean_zero(self):
        params = ModelParams(9, 2, 4)
        assert exact_moment(params, Part.MODULUS_CENTERED, 1) == pytest.approx(0.0, abs=1e-12)

    def test_guard(self):
        # Counts are int32: C(33, 16) < 2^31 <= C(34, 17).  Past N = 33 every
        # law is refused, however small: (34, 17) has 35 real outcomes.
        for params, part in [
            (ModelParams(34, 17, 1), Part.REAL),
            (ModelParams(34, 1, 1), Part.MODULUS),
            (ModelParams(1024, 0, 3), Part.COMPLEX),
        ]:
            with pytest.raises(CapabilityError, match="int32"):
                enumerate_distribution(params, part)
        assert enumerate_distribution(ModelParams(33, 11, 5), Part.REAL).values.size > 0

    def test_count_overflow_is_refused(self):
        # The (40, 20) real law counts C(40, 20) > 2^31 masks at outcome 0;
        # an int32 table would store it negative.  Refused, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapabilityError, match="int32"):
                enumerate_distribution(ModelParams(40, 20, 20), Part.REAL)

    def test_weight_table_matches_fractions(self):
        for N in range(1, oracle._COUNT_N_MAX + 1):
            for m in range(1, N + 1):
                w = weight_table(N, m)
                p = Fraction(m, N)
                for k in range(N + 1):
                    assert w[k] == float(p**k * (1 - p) ** (N - k))


class TestExactMoment:
    def test_mean_zero(self):
        assert exact_moment(ModelParams(8, 1, 4), Part.REAL, 1) == pytest.approx(0.0, abs=1e-12)

    def test_second_moment(self):
        assert exact_moment(ModelParams(8, 1, 4), Part.REAL, 2) == pytest.approx(1.0, abs=1e-12)

    def test_full_mask_vanishes(self):
        assert exact_moment(ModelParams(8, 1, 8), Part.REAL, 2) == pytest.approx(0.0, abs=1e-12)

    def test_complex_part_rejected(self):
        with pytest.raises(ParameterDomainError):
            exact_moment(ModelParams(4, 1, 2), Part.COMPLEX, 1)

    def test_bad_order(self):
        with pytest.raises(ParameterDomainError):
            exact_moment(ModelParams(4, 1, 2), Part.REAL, 0)


class TestExactTail:
    def test_at_zero(self):
        assert exact_tail_curve(ModelParams(6, 1, 3), Part.REAL, [0.0])[0] == pytest.approx(1.0)

    def test_beyond_support(self):
        assert exact_tail_curve(ModelParams(6, 1, 3), Part.REAL, [7.0])[0] == 0.0

    def test_hand_enumerated_value(self):
        tail = exact_tail_curve(ModelParams(3, 1, 1), Part.REAL, [1.0])[0]
        assert tail == pytest.approx(6 / 27, abs=1e-12)

    def test_threshold_tolerance_counts_boundary_atoms(self):
        # Mass sitting analytically at t must be included even though the
        # floating sums land an ulp away.
        params = ModelParams(3, 1, 1)
        at_t = exact_tail_curve(params, Part.REAL, [1.0])[0]
        assert at_t == exact_tail_curve(params, Part.REAL, [1.0 - 1e-13])[0]

    def test_monotone_and_matches_curve(self):
        # One threshold at a time gives the entries of the whole grid's curve.
        params = ModelParams(7, 2, 3)
        ts = np.linspace(0.0, 8.0, 40)
        curve = exact_tail_curve(params, Part.REAL, ts)
        assert (np.diff(curve) <= 1e-15).all()
        for t, v in zip(ts, curve):
            one = exact_tail_curve(params, Part.REAL, [float(t)])[0]
            assert one == pytest.approx(float(v), abs=1e-15)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterDomainError):
            exact_tail_curve(ModelParams(4, 1, 2), Part.REAL, [-0.5])

    @pytest.mark.parametrize("N,l", [(5, 1), (6, 2), (8, 1), (8, 4)])
    @pytest.mark.parametrize("part", [Part.REAL, Part.IMAG, Part.MODULUS])
    def test_tail_counts_are_mask_counts(self, N, l, part):
        # S[k, j] counts the masks of popcount k with |value| >= t_j - tol,
        # exactly; the grid includes outcomes analytically at t (0, 1, 2).
        ts = np.linspace(0.0, N, 2 * N + 1)
        law = oracle._law(N, math.gcd(l, N) % N, part)
        want = np.zeros((N + 1, ts.size), dtype=np.int64)
        for bits in itertools.product((0, 1), repeat=N):
            indices = [n for n, b in enumerate(bits, start=1) if b]
            value = abs(evaluate(indices, ModelParams(N, l, 1), part))
            want[len(indices)] += value >= ts - VALUE_GROUPING_TOL
        assert np.array_equal(oracle._tail_counts(law.values, law.counts, ts), want)

    def test_curve_sums_integer_counts(self):
        # One rounding per popcount term, however many outcomes: the tail at
        # t = 0 is 1 within 4 ulp on every law at N <= 12.
        worst = 0.0
        for N in range(1, 13):
            for l in range(N):
                for m in range(1, N + 1):
                    for part in REAL_PARTS:
                        curve = exact_tail_curve(ModelParams(N, l, m), part, np.zeros(1))
                        worst = max(worst, abs(float(curve[0]) - 1.0))
        assert worst <= 4 * np.spacing(1.0)


class TestExactExpMoment:
    def test_limit_at_large_scale(self):
        assert exact_exp_moment(ModelParams(6, 1, 3), Part.REAL, 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_three_point_closed_form(self):
        value = exact_exp_moment(ModelParams(2, 1, 1), Part.REAL, 1.0)
        assert value == pytest.approx(0.5 + 0.5 * math.e, rel=1e-15)

    def test_log_space_path_matches_high_precision(self):
        params = ModelParams(2, 1, 1)
        K = 0.03  # atom exponent 1/K^2 > 700 forces the log-space path
        value = exact_exp_moment(params, Part.REAL, K)
        expected = float(0.5 + 0.5 * mpmath.e ** (1.0 / mpmath.mpf(K) ** 2))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_overflow_returns_inf(self):
        assert exact_exp_moment(ModelParams(2, 1, 1), Part.REAL, 1e-3) == math.inf

    def test_strictly_decreasing_in_scale(self):
        params = ModelParams(6, 1, 2)
        ks = [0.5, 1.0, 2.0, 4.0, 8.0]
        values = [exact_exp_moment(params, Part.REAL, k) for k in ks]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bad_scale(self):
        with pytest.raises(ParameterDomainError):
            exact_exp_moment(ModelParams(4, 1, 2), Part.REAL, 0.0)


class TestExactPsi2Norm:
    def test_zero_variable(self):
        est = exact_psi2_norm(ModelParams(4, 1, 4), Part.REAL, 1e-9)
        assert est.norm == 0.0
        assert est.definition is Psi2Definition.ORLICZ_EXP_MOMENT

    def test_three_point_closed_form(self):
        est = exact_psi2_norm(ModelParams(2, 1, 1), Part.REAL, 1e-10)
        assert abs(est.norm - 1.0 / math.sqrt(math.log(3.0))) <= 1e-9
        lo, hi = est.bracket
        assert lo <= est.norm <= hi and hi - lo <= 1e-10

    def test_root_consistency(self):
        params = ModelParams(8, 1, 4)
        tol = 1e-9
        est = exact_psi2_norm(params, Part.REAL, tol)
        at_root = exact_exp_moment(params, Part.REAL, est.norm)
        h = 1e-6 * est.norm
        slope = abs(
            exact_exp_moment(params, Part.REAL, est.norm + h)
            - exact_exp_moment(params, Part.REAL, est.norm - h)
        ) / (2 * h)
        assert abs(at_root - 2.0) <= 10 * tol * slope + 1e-12

    def test_under_closed_form_bound(self):
        params = ModelParams(8, 1, 4)
        assert exact_psi2_norm(params, Part.REAL, 1e-9).norm <= psi2_upper(8)

    def test_constant_variable_norm(self):
        # Full mask at l=0: the value is the constant N, with norm N/sqrt(ln 2).
        est = exact_psi2_norm(ModelParams(4, 0, 4), Part.REAL, 1e-10)
        assert est.norm == pytest.approx(4.0 / math.sqrt(math.log(2.0)), abs=1e-8)

    def test_bad_tol(self):
        with pytest.raises(ParameterDomainError):
            exact_psi2_norm(ModelParams(4, 1, 2), Part.REAL, 0.0)


class TestExactPsi2MomentNorm:
    def test_zero_variable(self):
        assert exact_psi2_moment_norm(ModelParams(4, 1, 4), Part.REAL).norm == 0.0

    def test_three_point_analytic_supremum(self):
        # E|X|^p = 1/2 for every p; the supremum of p^(-1/2) 2^(-1/p) sits at
        # p = 2 ln 2 with value exp(-1/2)/sqrt(2 ln 2).
        est = exact_psi2_moment_norm(ModelParams(2, 1, 1), Part.REAL)
        expected = math.exp(-0.5) / math.sqrt(2.0 * math.log(2.0))
        assert est.norm == pytest.approx(expected, rel=1e-9)
        assert est.definition is Psi2Definition.MOMENT_SUP

    def test_below_sup_norm(self):
        params = ModelParams(9, 2, 4)
        dist = enumerate_distribution(params, Part.REAL)
        sup_norm = float(np.abs(dist.values).max())
        assert exact_psi2_moment_norm(params, Part.REAL).norm <= sup_norm + 1e-9

    @pytest.mark.parametrize(
        "N,l,m",
        [(8, 4, m) for m in (3, 4, 5)]
        + [(10, 5, m) for m in range(3, 8)]
        + [(12, 6, m) for m in range(3, 10)]
        + [(13, 1, 6), (13, 12, 7), (14, 7, 3), (14, 2, 9), (15, 1, 5), (15, 7, 10), (16, 4, 11), (16, 1, 5)],
    )
    def test_bracket_width_is_its_tolerance(self, N, l, m):
        # At these points best + pad - best exceeds pad by an ulp of best.
        est = exact_psi2_moment_norm(ModelParams(N, l, m), Part.REAL)
        lo, hi = est.bracket
        assert lo == est.norm and hi - lo == est.tolerance
        values, probs = doubling_law(N, l, m, Part.REAL)
        absv = np.abs(values)
        dense = max(
            float(np.dot(probs, absv**p)) ** (1.0 / p) / math.sqrt(p)
            for p in np.geomspace(1.0, 200.0, 2000)
        )
        assert est.norm == pytest.approx(dense, rel=1e-6)
        assert dense <= est.norm + 1e-12


ALL_PARTS = [Part.REAL, Part.IMAG, Part.MODULUS, Part.MODULUS_CENTERED, Part.COMPLEX]


class TestConvolutionLaw:
    @pytest.mark.parametrize("part", ALL_PARTS)
    def test_matches_doubling_reference(self, part):
        for N in range(1, 13):
            for l in range(N):
                for m in sorted({1, (N + 1) // 2, N}):
                    params = ModelParams(N, l, m)
                    assert_same_law(
                        oracle._dist_arrays(params, part),
                        doubling_law(N, l, m, part),
                    )

    @given(
        st.integers(min_value=1, max_value=14).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.integers(min_value=0, max_value=N - 1),
                st.integers(min_value=1, max_value=N),
                st.sampled_from(ALL_PARTS),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_law_depends_on_gcd_only(self, case):
        N, l, m, part = case
        assert_same_law(doubling_law(N, l, m, part), doubling_law(N, math.gcd(l, N) % N, m, part))

    def test_counts_are_binomial(self):
        # Column k of the count table covers every mask of popcount k once.
        for part in (Part.REAL, Part.IMAG, Part.MODULUS, Part.COMPLEX):
            law = oracle._law(13, 1, part)
            assert law.counts.dtype == np.int32
            assert law.counts.sum(axis=1).tolist() == [math.comb(13, k) for k in range(14)]

    @pytest.mark.parametrize("N,l,m,part", [(19, 1, 7, Part.MODULUS), (23, 1, 5, Part.REAL), (23, 1, 9, Part.IMAG)])
    def test_exact_where_float_grouping_was_refused(self, N, l, m, part):
        # Distinct outcomes here lie 3.0e-7 (modulus) and 8.5e-8, 7.4e-7 apart:
        # within the old 1e3 x 1e-9 margin, far outside the reference's 1e-9.
        assert_same_law(oracle._dist_arrays(ModelParams(N, l, m), part), doubling_law(N, l, m, part))

    @pytest.mark.parametrize("N", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_outcome_counts_at_prime_n(self, N):
        # Pairs {r, N - r} share a cosine and only 1 + 2 sum cos = 0 relates
        # them; the sines are independent; only the empty and the full mask
        # sum alike.
        h = (N - 1) // 2
        assert oracle._law(N, 1, Part.REAL).values.size == 2 * 3**h - 1
        assert oracle._law(N, 1, Part.IMAG).values.size == 3**h
        if N <= 17:
            assert oracle._law(N, 1, Part.COMPLEX).values.size == 2**N - 1

    def test_cyclotomic_coordinates(self):
        assert oracle._cyclotomic(12).tolist() == [1, 0, -1, 0, 1]
        assert oracle._cyclotomic(15).tolist() == [1, -1, 0, 1, -1, 1, 0, -1, 1]
        for d in range(1, 2 * oracle._COUNT_N_MAX):
            powers = oracle._powers(d, d + 1)
            assert powers.shape[1] == sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
            assert powers[d].tolist() == powers[0].tolist()  # zeta^d = 1
            zeta = np.exp(-2j * np.pi * np.arange(powers.shape[1]) / d)
            assert np.allclose(powers @ zeta, np.exp(-2j * np.pi * np.arange(d + 1) / d))

    def test_key_widths_fit(self):
        # At N <= 33 every coordinate fits in int8 (at most 66), and every
        # convolution key fits in int64 but those of the real and imaginary
        # parts of five classes, which ``_strides`` refuses; the widest key
        # admitted takes 62.7 bits.  The |z|^2 lags of a complex outcome (at
        # most 1089) and their products with the form's entries (at most
        # 2178) fit in int16 (``_modulus_keys``).
        widest, refused, coord, lag, product = 0.0, [], 0, 0, 0
        for N in range(1, oracle._COUNT_N_MAX + 1):
            for d in (d for d in range(1, N + 1) if N % d == 0):
                powers = oracle._powers(d, d)
                n = np.arange(1, N + 1)
                atoms, conj = powers[n % d], powers[-n % d]
                for part, vectors in [
                    (Part.COMPLEX, atoms), (Part.REAL, atoms + conj), (Part.IMAG, atoms - conj)
                ]:
                    lo = np.minimum(vectors, 0).sum(axis=0)
                    hi = np.maximum(vectors, 0).sum(axis=0)
                    coord = max(coord, -lo.min(), hi.max())
                    try:
                        oracle._strides(lo, hi)
                    except CapabilityError:
                        refused.append((N, d, part))
                    else:
                        widest = max(widest, float(np.log2(hi - lo + 1).sum()))
                lo, hi = np.minimum(atoms, 0).sum(axis=0), np.maximum(atoms, 0).sum(axis=0)
                square = np.maximum(lo**2, hi**2).sum()
                phi = powers.shape[1]
                form = np.abs(powers[:phi] + powers[-np.arange(phi) % d]).max()
                lag, product = max(lag, square), max(product, form * square)
        assert coord == 66 and lag == 1089 and product == 2178 < 2**15
        assert refused == [
            (29, 29, Part.IMAG), (31, 31, Part.REAL), (31, 31, Part.IMAG),
            (33, 33, Part.REAL), (33, 33, Part.IMAG),
        ]
        assert 62.6 < widest < 62.7

    def test_byte_guard(self, monkeypatch):
        # The complex sum at N = 17 (odd d, one atom per step) passes 256 KiB
        # of counts after 13 atoms: 8192 outcomes x 14 columns.
        budget = 1 << 18
        monkeypatch.setattr(oracle, "LAW_BYTES", budget)
        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(budget))
        tracemalloc.start()
        try:
            with pytest.raises(CapabilityError, match="byte budget .8192 outcomes after 13 atoms"):
                enumerate_distribution(ModelParams(17, 1, 3), Part.MODULUS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * budget
        assert enumerate_distribution(ModelParams(16, 1, 3), Part.REAL).values.size > 0

    def test_byte_guard_charges_the_expansion(self, monkeypatch):
        # At N = 16 the pair table of the complex sum is 6561 x 9 int32 counts
        # (231 KiB), but its law expands them to 6561 x 17 (436 KiB, with its
        # values 538 KiB).  The modulus groups before it expands and stays
        # under the budget.
        budget = 1 << 18
        monkeypatch.setattr(oracle, "LAW_BYTES", budget)
        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(budget))
        tracemalloc.start()
        try:
            with pytest.raises(CapabilityError, match="byte budget .6561 outcomes x 17 popcounts"):
                enumerate_distribution(ModelParams(16, 1, 3), Part.COMPLEX)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * budget
        assert enumerate_distribution(ModelParams(16, 1, 3), Part.MODULUS).values.size == 241

    def test_direct_modulus_equals_modulus_of_complex_law(self):
        for N in range(1, 17):
            for g in sorted({math.gcd(l, N) % N for l in range(N)}):
                values, counts = modulus_via_complex(N, g)
                law = oracle._build_law(N, g, Part.MODULUS)
                assert same_bytes(law.values, values), (N, g)
                assert same_bytes(law.counts, counts), (N, g)

    def test_steps_pair_opposite_atoms(self):
        assert oracle._steps(8, 4).tolist() == [[0, 2], [0, 2], [1, 3], [1, 3]]
        assert oracle._steps(6, 3).tolist() == [[0], [0], [1], [1], [2], [2]]
        for N in range(1, oracle._COUNT_N_MAX + 1):
            for d in (d for d in range(1, N + 1) if N % d == 0):
                r = oracle._steps(N, d)
                assert sorted(r.ravel().tolist()) == sorted((np.arange(1, N + 1) % d).tolist())
                assert r.shape == ((N // 2, 2) if d % 2 == 0 else (N, 1))
                assert r[:, 0].tolist() == sorted(r[:, 0].tolist())
                if d % 2 == 0:
                    powers = oracle._powers(d, d)
                    assert (powers[r[:, 1]] == -powers[r[:, 0]]).all()

    @given(st.integers(min_value=1, max_value=14).flatmap(lambda N: st.permutations(range(N))))
    @settings(max_examples=60, deadline=None)
    def test_convolution_ignores_atom_order(self, perm):
        # The complex, real and imaginary vectors of every class of N.
        N = len(perm)
        for d in (d for d in range(1, N + 1) if N % d == 0):
            for vectors in class_vectors(N, d, np.arange(1, N + 1)[:, None]).values():
                want = oracle._convolve(vectors)
                got = oracle._convolve(vectors[list(perm)])
                assert all(same_bytes(a, b) for a, b in zip(got, want)), (N, d)

    @staticmethod
    def assert_pairs_equal_single_atoms(N, d, r, part):
        # Coordinates decode the keys one to one, over the same ranges on
        # both sides, so equal coordinates are equal keys in equal order.
        pairs = class_vectors(N, d, r)[part]
        single = class_vectors(N, d, np.arange(1, N + 1)[:, None])[part]
        coords, rows = oracle._convolve(pairs)
        want_coords, want_rows = oracle._convolve(single)
        assert rows.shape[1] == N // 2 + 1 and want_rows.shape[1] == N + 1
        assert same_bytes(coords, want_coords), (N, d, part)
        counts = oracle._popcounts(rows, np.arange(len(rows)), N)
        assert same_bytes(counts, np.ascontiguousarray(want_rows.T)), (N, d, part)

    def test_pair_steps_equal_single_atom_steps(self):
        for N in range(2, 17, 2):
            for d in (d for d in range(2, N + 1, 2) if N % d == 0):
                for part in (Part.COMPLEX, Part.REAL, Part.IMAG):
                    self.assert_pairs_equal_single_atoms(N, d, oracle._steps(N, d), part)

    @given(
        st.sampled_from([(N, d) for N in range(2, 17, 2) for d in range(2, N + 1, 2) if N % d == 0])
        .flatmap(lambda c: st.tuples(st.just(c), st.permutations(range(c[0] // 2))))
    )
    @settings(max_examples=40, deadline=None)
    def test_pair_steps_ignore_pair_order(self, case):
        (N, d), perm = case
        for part in (Part.COMPLEX, Part.REAL, Part.IMAG):
            self.assert_pairs_equal_single_atoms(N, d, oracle._steps(N, d)[list(perm)], part)

    def test_expansion_counts_every_mask_once(self):
        # Column j of P = N/2 pairs holds C(P, j) 2^j pair states; each
        # expands to the C(N, k) masks of popcount k.
        for N in range(2, oracle._COUNT_N_MAX + 1, 2):
            P = N // 2
            states = np.array([math.comb(P, j) * 2**j for j in range(P + 1)], dtype=np.float64)
            assert (oracle._expansion(P) @ states).tolist() == [math.comb(N, k) for k in range(N + 1)]

    def test_guard_refuses_before_building(self, monkeypatch):
        # N >= 34 is refused on the count type before any lookup or build.
        def no_build(*key):
            raise AssertionError(f"law {key} built past the int32 counts")

        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(oracle.LAW_BYTES))
        monkeypatch.setattr(oracle, "_build_law", no_build)
        tracemalloc.start()
        try:
            for N in (34, 35, 256, 1024):
                params = ModelParams(N, 1, 3)
                for query in class_queries(params, Part.MODULUS_CENTERED):
                    with pytest.raises(CapabilityError, match="int32"):
                        query()
                with pytest.raises(CapabilityError, match="int32"):
                    enumerate_distribution(params, Part.COMPLEX)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert not oracle._LAWS._entries and not oracle._LAWS._refused

    def test_refused_build_is_not_retried(self, monkeypatch):
        # A law the byte budget refuses is built once per cache: every later
        # query of its key, at any l of the class, any m or any part that
        # reads it, is refused at once.  A fresh cache forgets the refusal.
        builds = []
        real_build = oracle._build_law

        def counted(*key):
            builds.append(key)
            return real_build(*key)

        monkeypatch.setattr(oracle, "LAW_BYTES", 1 << 18)
        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(1 << 18))
        monkeypatch.setattr(oracle, "_build_law", counted)
        for l, m, part in [(1, 3, Part.MODULUS), (2, 5, Part.MODULUS_CENTERED), (1, 9, Part.MODULUS)]:
            for query in class_queries(ModelParams(17, l, m), part):
                with pytest.raises(CapabilityError, match="byte budget"):
                    query()
        assert builds == [(17, 1, Part.MODULUS)]
        assert exact_moment(ModelParams(12, 1, 3), Part.MODULUS, 2) > 0
        assert builds[1:] == [(12, 1, Part.MODULUS)]
        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(1 << 18))
        with pytest.raises(CapabilityError, match="byte budget"):
            exact_moment(ModelParams(17, 1, 3), Part.MODULUS, 1)
        assert builds[2:] == [(17, 1, Part.MODULUS)]

    def test_admitted_law_is_built_once(self, monkeypatch):
        # The real law at (25, 1) holds 756,857 outcomes (81 MiB): admitted
        # by the byte budget, so a cache of the module's bound keeps it for
        # every m.
        builds = []
        real_build = oracle._build_law

        def counted(*key):
            builds.append(key)
            return real_build(*key)

        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(oracle._LAWS.max_bytes))
        monkeypatch.setattr(oracle, "_build_law", counted)
        ts = np.arange(4) * 2.5
        for m in range(1, 26):
            curve = exact_tail_curve(ModelParams(25, 1, m), Part.REAL, ts)
            assert abs(curve[0] - 1.0) <= 4 * 2.0**-52
        assert builds == [(25, 1, Part.REAL)]
        assert oracle._LAWS.nbytes > 80 << 20


class TestLawDigests:
    def test_laws_hash_equal_to_the_recorded_digests(self):
        # SHA-256 of the values and counts bytes, with dtype and shape, of
        # every class and law part at N <= 16 and of (20, 1) and (22, 1),
        # recorded from the single-atom convolution.  A change to the bits
        # of any law needs a new LAW_ALGORITHM tag and a new record.
        recorded = json.loads((Path(__file__).parent / "law_digests.json").read_text())
        assert len(recorded) == 4 * (sum(len({math.gcd(l, N) for l in range(N)}) for N in range(1, 17)) + 2)
        for key, want in recorded.items():
            N, g, part = key.split(",")
            law = oracle._build_law(int(N), int(g), Part(part))
            for name in ("values", "counts"):
                a = getattr(law, name)
                got = [a.dtype.str, list(a.shape), hashlib.sha256(a.tobytes()).hexdigest()]
                assert got == want[name], (key, name)
        assert oracle.LAW_ALGORITHM == "cyclotomic-keys-count-tails-v1"


_PROBS_SCRIPT = """
import hashlib, json, sys
from spectral_mask import oracle, weight_table
from spectral_mask.model import Part

# The laws of the recorded digests, every m: the sliced product, and on one
# BLAS thread whether it equals one product over the whole count table.
for key in json.loads(sys.argv[1]):
    N, g, part = key.split(",")
    law = oracle._build_law(int(N), int(g), Part(part))
    h, whole = hashlib.sha256(), True
    for m in range(1, int(N) + 1):
        probs = oracle._probs(law, int(N), m)
        h.update(probs.tobytes())
        if sys.argv[2] == "1":
            whole &= probs.tobytes() == (weight_table(int(N), m) @ law.counts).tobytes()
    print(key, h.hexdigest(), whole)
"""


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _run_script(script, *args, threads="1"):
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env={
            **os.environ,
            "PYTHONPATH": str(Path(spectral_mask.__file__).parents[1]),
            "OPENBLAS_NUM_THREADS": threads,
        },
        stdout=subprocess.PIPE,
        text=True,
    )


class TestWeights:
    @pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs for two BLAS threads")
    def test_probabilities_independent_of_blas_threads(self):
        # Column slices bound the float64 copy of the count table.  Their
        # probabilities equal one product over the whole table on one BLAS
        # thread, bit for bit, and do not change at two threads (where that
        # one product differs for the complex sum at (20, 1) and (22, 1)).
        keys = list(json.loads((Path(__file__).parent / "law_digests.json").read_text()))
        procs = {t: _run_script(_PROBS_SCRIPT, json.dumps(keys), t, threads=t) for t in ("1", "2")}
        out = {t: proc.communicate()[0].splitlines() for t, proc in procs.items()}
        assert all(proc.returncode == 0 for proc in procs.values())
        assert len(out["1"]) == len(out["2"]) == len(keys)
        for one, two in zip(out["1"], out["2"]):
            key, digest, whole = one.split(" ")
            assert whole == "True", key
            assert two.split(" ")[:2] == [key, digest]

    def test_exact_queries_skip_the_masked_array_import(self):
        # ``np.unique`` without optional outputs imports ``numpy.ma``; the
        # oracle dedupes by sort and compare instead.
        script = (
            "import sys\n"
            "from spectral_mask import ModelParams, Part, exact_tail_curve\n"
            "exact_tail_curve(ModelParams(12, 1, 3), Part.MODULUS_CENTERED, [0.0, 1.0, 2.5])\n"
            "exact_tail_curve(ModelParams(14, 1, 3), Part.REAL, [0.0, 1.0, 2.5])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = _run_script(script)
        assert proc.communicate()[0] == "False\n" and proc.returncode == 0


class TestLawCache:
    def test_concurrent_requests_keep_one_entry(self):
        # Threads that miss one key at once may each build it; the first
        # insert is kept, every caller gets that value, and the key is
        # charged once.
        cache = oracle._ByteCache(1 << 20)
        builds = []
        lock = threading.Lock()

        def build(*key):
            with lock:
                builds.append(key)
            time.sleep(0.05)
            return SimpleNamespace(nbytes=100)

        keys = [(5, 1, Part.REAL), (5, 1, Part.IMAG), (6, 2, Part.REAL)]
        got = {}
        start = threading.Barrier(8)

        def worker(i):
            start.wait(timeout=10)
            key = keys[i % len(keys)]
            law = cache.get(key, build)
            with lock:
                got.setdefault(key, set()).add(id(law))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert set(builds) == set(keys)
        assert all(len(ids) == 1 for ids in got.values()) and len(got) == len(keys)
        assert set(cache._entries) == set(keys)
        assert all(id(cache._entries[key].value) in got[key] for key in keys)
        assert cache.nbytes == 300

    def test_concurrent_answers_keep_the_byte_count(self):
        # Eight threads add answers to four keys in a cache that holds two
        # values with a few answers, so entries are evicted and rebuilt
        # while answers arrive; a lost update would break the byte count.
        cache = oracle._ByteCache(2 * 1000 + 4 * oracle._ANSWER_BYTES)
        got = []
        lock = threading.Lock()
        start = threading.Barrier(8)

        def build(*key):
            return SimpleNamespace(nbytes=1000)

        def worker(i):
            start.wait(timeout=10)
            for j in range(300):
                key, query = ((i + j) % 4,), ("q", j % 5)
                answer = cache.answer(key, build, query, lambda value: (key, query))
                with lock:
                    got.append(answer == (key, query))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 * 300 and all(got)
        assert cache.nbytes <= cache.max_bytes
        assert cache.nbytes == sum(entry.nbytes for entry in cache._entries.values())
        for entry in cache._entries.values():
            assert entry.nbytes == 1000 + len(entry.answers) * oracle._ANSWER_BYTES

    def test_get_many_builds_each_missing_key_once(self):
        cache = oracle._ByteCache(250)
        calls = []

        def build_many(missing):
            calls.append(list(missing))
            return [SimpleNamespace(nbytes=key[1], key=key) for key in missing]

        got = cache.get_many([("a", 100), ("b", 300), ("a", 100)], build_many)
        assert calls == [[("a", 100), ("b", 300)]]
        assert [v.key for v in got] == [("a", 100), ("b", 300), ("a", 100)] and got[0] is got[2]
        # "b" is larger than the bound: returned, not kept.
        assert list(cache._entries) == [("a", 100)] and cache.nbytes == 100
        got = cache.get_many([("c", 100), ("a", 100)], build_many)
        assert calls[-1] == [("c", 100)] and got[1].key == ("a", 100)
        cache.get_many([("a", 100)], build_many)
        assert len(calls) == 2
        cache.get_many([("d", 100)], build_many)
        # Least recently used first: "c" goes, "a" was read after it.
        assert list(cache._entries) == [("a", 100), ("d", 100)] and cache.nbytes == 200

    def test_bytes_stay_under_bound(self):
        bound = 200_000
        cache = oracle._ByteCache(bound)
        for N in range(1, 17):
            for part in (Part.REAL, Part.COMPLEX):
                cache.get((N, 1 % N, part), oracle._build_law)
                assert cache.nbytes <= bound
                assert cache.nbytes == sum(entry.nbytes for entry in cache._entries.values())
        assert (16, 1, Part.COMPLEX) not in cache._entries  # larger than the bound
        assert (16, 1, Part.REAL) in cache._entries

    def test_module_cache_under_bound(self):
        for N in range(1, 17):
            for l in range(N):
                for part in ALL_PARTS:
                    oracle._dist_arrays(ModelParams(N, l, 1), part)
        cache = oracle._LAWS
        assert 0 < cache.nbytes <= oracle.LAW_BYTES
        assert cache.nbytes == sum(entry.nbytes for entry in cache._entries.values())


REAL_PARTS = [Part.REAL, Part.IMAG, Part.MODULUS, Part.MODULUS_CENTERED]


def class_queries(params, part):
    """Every cached exact query at (params, part)."""
    N = params.N
    ts = np.arange(9) / 4 * math.sqrt(N)
    return [
        lambda: exact_tail_curve(params, part, ts),
        lambda: exact_moment(params, part, 2),
        lambda: exact_moment(params, part, 3),
        lambda: exact_exp_moment(params, part, 0.8 * math.sqrt(N)),
        lambda: exact_psi2_norm(params, part, 1e-6),
        lambda: exact_psi2_moment_norm(params, part),
    ]


def class_answers(params, part):
    """The answers of ``class_queries`` as bytes or reprs, so that equal
    answers are equal bit for bit."""
    answers = [query() for query in class_queries(params, part)]
    return [a.tobytes() if isinstance(a, np.ndarray) else repr(a) for a in answers]


class TestClassAnswers:
    def test_cached_answers_equal_cold(self, monkeypatch):
        # l runs downward, so most warm answers were computed at another l
        # of the same class.  Each (point, part) gets a fresh cold cache; it
        # starts from the laws built at that l alone, to save rebuilding them.
        warm = oracle._ByteCache(oracle.LAW_BYTES)
        for N in range(1, 13):
            for l in reversed(range(N)):
                laws = oracle._ByteCache(oracle.LAW_BYTES)
                monkeypatch.setattr(oracle, "_LAWS", laws)
                for part in REAL_PARTS:
                    oracle._dist_arrays(ModelParams(N, l, 1), part)
                for m in range(1, N + 1):
                    params = ModelParams(N, l, m)
                    for part in REAL_PARTS:
                        monkeypatch.setattr(oracle, "_LAWS", warm)
                        got = class_answers(params, part)
                        cold = oracle._ByteCache(oracle.LAW_BYTES)
                        for key, entry in laws._entries.items():
                            cold.get(key, lambda *key, law=entry.value: law)
                        monkeypatch.setattr(oracle, "_LAWS", cold)
                        assert got == class_answers(params, part), (params, part)
        assert warm.nbytes == sum(entry.nbytes for entry in warm._entries.values())
        # One answer table per frequency class and law, not per l: the real,
        # imaginary and modulus laws; no complex law is built on the way.
        classes = {(N, math.gcd(l, N) % N) for N in range(1, 13) for l in range(N)}
        assert len(warm._entries) == len(classes) * 3

    def test_cached_arrays_read_only(self, monkeypatch):
        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(oracle.LAW_BYTES))
        ts = np.array([0.0, 1.0, 2.0])
        curves = []
        for params in (ModelParams(9, 2, 4), ModelParams(9, 4, 4)):  # a miss, then a hit
            curves.append(exact_tail_curve(params, Part.REAL, ts))
            assert not curves[-1].flags.writeable
            with pytest.raises(ValueError):
                curves[-1][0] = 0.5
        assert curves[1] is curves[0]

    def test_answer_bytes_and_eviction(self, monkeypatch):
        laws = [oracle._build_law(10, g, Part.REAL) for g in (1, 2)]
        budget = sum(law.nbytes for law in laws) + 40 * oracle._ANSWER_BYTES
        cache = oracle._ByteCache(budget)
        monkeypatch.setattr(oracle, "_LAWS", cache)

        def bounded():
            assert cache.nbytes <= budget
            assert cache.nbytes == sum(entry.nbytes for entry in cache._entries.values())

        first = ModelParams(10, 1, 3)
        exact_moment(first, Part.REAL, 2)
        bounded()
        entry = cache._entries[(10, 1, Part.REAL)]
        assert entry.nbytes == laws[0].nbytes + oracle._ANSWER_BYTES
        # Answers of the second class grow it until the first class, least
        # recently used, is evicted with its answers.
        k = 1
        while (10, 1, Part.REAL) in cache._entries:
            exact_moment(ModelParams(10, 2, 3), Part.REAL, k)
            bounded()
            k += 1
        assert k > 2
        exact_moment(first, Part.REAL, 4)
        bounded()
        assert list(cache._entries[(10, 1, Part.REAL)].answers) == [("moment", 3, Part.REAL, 4)]

    def test_law_over_budget_keeps_no_answers(self, monkeypatch):
        cache = oracle._ByteCache(1024)
        monkeypatch.setattr(oracle, "_LAWS", cache)
        first = exact_psi2_norm(ModelParams(12, 1, 5), Part.REAL)
        assert repr(exact_psi2_norm(ModelParams(12, 5, 5), Part.REAL)) == repr(first)
        assert cache.nbytes == 0 and not cache._entries

    def test_cached_answer_keeps_the_guard(self, monkeypatch):
        # Answers are cached per class; the count-type and argument checks
        # still run on every call.
        monkeypatch.setattr(oracle, "_LAWS", oracle._ByteCache(oracle.LAW_BYTES))
        params = ModelParams(20, 1, 3)
        for query, refused in zip(
            class_queries(params, Part.REAL), class_queries(ModelParams(40, 2, 3), Part.REAL)
        ):
            assert repr(query()) == repr(query())  # now an answer of the cache
            with pytest.raises(CapabilityError):
                refused()
        assert list(oracle._LAWS._entries) == [(20, 1, Part.REAL)]
        with pytest.raises(ParameterDomainError):
            exact_tail_curve(params, Part.REAL, [-1.0])
        with pytest.raises(ParameterDomainError):
            exact_moment(params, Part.COMPLEX, 2)
        with pytest.raises(ParameterDomainError):
            exact_moment(params, Part.REAL, 0)
