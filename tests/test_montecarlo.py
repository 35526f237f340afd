import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spectral_mask
from mc_reference import (
    chunk_part_values,
    class_l,
    dense_psi2_norm,
    own_atom_chunks,
    stream_chunks,
    stream_mask_chunks,
    unit_chunks,
)
from spectral_mask import (
    CapabilityError,
    CIMethod,
    McConfig,
    McQueries,
    ModelParams,
    ParameterDomainError,
    Part,
    QueryError,
    enumerate_distribution,
    exact_moment,
    exact_tail_curve,
    mc_moment,
    mc_psi2,
    mc_psi2_many,
    mc_run,
    mc_run_many,
    mc_tail,
    merge,
    psi2_sup_upper,
)
from spectral_mask import montecarlo
from spectral_mask.model import VALUE_GROUPING_TOL, atom_table
from spectral_mask.montecarlo import (
    Accumulator,
    _accumulate,
    _chunk_plan,
    _draw_unit,
    _map_ordered,
    _units,
    _z_value,
)
from spectral_mask.oracle import _exp_moment, _psi2_bisect

PARAMS = ModelParams(8, 1, 4)


def run(samples=50_000, seed=7, queries=None, **kwargs):
    queries = queries or McQueries(tail_thresholds=(0.0, 1.0, 9.0))
    return mc_run(PARAMS, queries, McConfig(samples=samples, seed=seed), **kwargs)


def chunk_accumulators(params, queries, cfg, chunks=stream_chunks):
    """One accumulator per chunk that ``chunks`` draws for ``cfg``, by
    default the one-stream reference."""
    accs = []
    for re, im in chunks(params, cfg.seed, cfg.samples):
        acc = Accumulator.zero(params, queries, cfg)
        _accumulate(acc, re, im)
        accs.append(acc)
    return accs


def fold(accs):
    """Left fold in stream order."""
    total = accs[0]
    for acc in accs[1:]:
        total = merge(total, acc)
    return total


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 0, "seed": 0},
            {"samples": 10, "seed": -1},
            {"samples": 10, "seed": 2**64},
            {"samples": 10.0, "seed": 0},
            {"samples": 10, "seed": 0, "confidence": 1.0},
            {"samples": 10, "seed": 0, "confidence": 0.0},
            {"samples": True, "seed": 0},
            {"samples": 10, "seed": False},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ParameterDomainError):
            McConfig(**kwargs)

    @pytest.mark.parametrize("workers", [0, True, 2.0])
    def test_rejects_workers(self, workers):
        cfg = McConfig(samples=10, seed=0)
        with pytest.raises(ParameterDomainError):
            mc_run(PARAMS, McQueries(), cfg, workers=workers)
        with pytest.raises(ParameterDomainError):
            mc_psi2(PARAMS, Part.REAL, cfg, workers=workers)

    def test_queries_validation(self):
        with pytest.raises(ParameterDomainError):
            McQueries(parts=(Part.COMPLEX,))
        with pytest.raises(ParameterDomainError):
            McQueries(parts=())
        with pytest.raises(ParameterDomainError):
            McQueries(tail_thresholds=(-1.0,))
        for orders in ((0,), (1.5,), (True,), (1.5, True), (2.0,)):
            with pytest.raises(ParameterDomainError):
                McQueries(moment_orders=orders)

    def test_centered_part_needs_center(self):
        with pytest.raises(ParameterDomainError):
            McQueries(parts=(Part.MODULUS_CENTERED,))
        q = McQueries(parts=(Part.MODULUS_CENTERED,), modulus_center=1.5)
        assert q.modulus_center == 1.5


class TestReproducibility:
    def test_bit_identical_repeat_runs(self):
        assert run() == run()

    def test_worker_count_invariance(self, monkeypatch):
        # Seven chunks of 8192 rows, so the workers share the run.
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 8 * 8_192)
        assert len(list(_units(McConfig(samples=50_000, seed=7), 8))) == 7
        assert run(workers=1) == run(workers=3) == run(workers=8)

    def test_seed_sensitivity(self):
        assert run(seed=7) != run(seed=8)


class TestSingleStream:
    """A run draws one stream from its start, however many chunks and
    samples it spans."""

    def test_chunks_cap_rows(self):
        # 2^22 elements per chunk, but at most 2^18 rows.
        cfg = McConfig(samples=2**18 + 3, seed=0)
        assert list(_units(cfg, 8)) == [(0, 2**18), (2**18, 3)]
        assert list(_units(cfg, 1024))[-1] == (64 * 4096, 3)

    def test_long_run_is_the_fold_of_one_stream(self, monkeypatch):
        # 1000-row chunks at N = 5: 263 of them and more than 2^18 samples,
        # each reference product small enough for one BLAS thread.
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 5 * 1_000)
        params = ModelParams(5, 2, 2)
        queries = McQueries(
            parts=(Part.REAL, Part.MODULUS), moment_orders=(1, 3), tail_thresholds=(0.5, 1.5)
        )
        cfg = McConfig(samples=2**18 + 7, seed=19)
        accs = chunk_accumulators(params, queries, cfg)
        assert len(accs) == len(list(_units(cfg, params.N))) == 263
        want = fold(accs)
        assert want.n == cfg.samples
        for workers in (1, 3, 8):
            assert mc_run(params, queries, cfg, workers=workers) == want


class TestPrefixRule:
    """Every mask bit is u < thr for the 64-bit u that ``mc_reference``
    rebuilds from the element's lane and, on a tie, its tie-stream word."""

    N = 1001
    CFG = McConfig(samples=1_500, seed=37)

    @pytest.fixture(autouse=True)
    def nine_row_chunks(self, monkeypatch):
        # 9-row chunks of 9009 elements: 167 units whose starts fall mid-word
        # and mid-counter (9009 % 32 = 17, so they meet all 32 lanes of a
        # counter step's four words), each reference product small enough
        # for one BLAS thread.
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 9 * self.N)

    # m = 500 keeps about half the elements, so a lane read from the wrong
    # word flips its bit half the time.
    @pytest.mark.parametrize("m", [1, 500, 1000, 1001])
    def test_masks_are_u_below_threshold(self, m):
        params = ModelParams(self.N, 1, m)
        units = list(_units(self.CFG, self.N))
        assert len(units) == 167
        assert {start * self.N % 32 for start, _ in units} == set(range(32))
        ties = kept = 0
        chunks = stream_mask_chunks(params, self.CFG.seed, self.CFG.samples)
        for (start, rows), (first, want, tied) in zip(units, chunks, strict=True):
            assert first == start * self.N
            # Blocks of 1, 3 and 5 rows leave every lane offset to carry.
            draw = montecarlo._UnitMasks(self.CFG.seed, self.N, (start, rows), (m,), rows)
            got = []
            for n in (1, 3, rows - 4):
                draw.next_block(n)
                got.append(draw.masks(m).copy())
            assert np.concatenate(got).tobytes() == want.tobytes()
            ties += int(np.count_nonzero(tied))
            kept += int(np.count_nonzero(want[tied]))
        # About 5,900 ties per m < N, some kept and some dropped.
        assert (0 < kept < ties) if m < self.N else ties == 0

    def test_runs_fold_the_reference(self):
        queries = McQueries(
            parts=(Part.REAL, Part.MODULUS), moment_orders=(1,), tail_thresholds=(0.5, 2.0)
        )
        runs = [(ModelParams(self.N, 1, m), queries) for m in (1, 500, 1000, 1001)]
        want = [fold(chunk_accumulators(p, q, self.CFG)) for p, q in runs]
        for workers in (1, 3, 8):
            assert [mc_run(p, q, self.CFG, workers=workers) for p, q in runs] == want
            assert mc_run_many(runs, self.CFG, workers=workers) == want


class TestMainStreamReads:
    """Each main-stream word decides eight mask entries and is read once: a
    unit of E elements from element f reads ceil((f + E) / 8) - floor(f / 8)
    words, however its blocks split them and however many m it decides, and
    none when every m equals N."""

    SEED = 41

    @pytest.fixture
    def reads(self, monkeypatch):
        # 64-bit outputs read from each stream the engine positions, by key.
        counts: dict = {}
        philox_at = montecarlo._philox_at

        class Counting:
            def __init__(self, key, index):
                self.key, self.bits = key, philox_at(key, index)
                counts.setdefault(key, 0)

            def random_raw(self, size):
                counts[self.key] += size
                return self.bits.random_raw(size)

        monkeypatch.setattr(montecarlo, "_philox_at", Counting)
        return counts

    def main_words(self, reads):
        return reads.get(self.SEED ^ montecarlo._splitmix64(0))

    @staticmethod
    def words(N, unit):
        f, E = unit[0] * N, unit[1] * N
        return -(-(f + E) // 8) - f // 8

    # Unit starts and block ends fall mid-word, so blocks carry a word.
    @pytest.mark.parametrize("N,unit", [(5, (7, 301)), (1001, (3, 9)), (1003, (2, 10))])
    def test_blocks_read_each_word_once(self, reads, N, unit):
        ms = (1, N // 2, N)
        draw = montecarlo._UnitMasks(self.SEED, N, unit, ms, unit[1])
        for rows in (1, 3, unit[1] - 4):
            draw.next_block(rows)
            for m in ms:
                draw.masks(m)
        assert self.main_words(reads) == self.words(N, unit)

    def test_draw_unit_reads_each_word_once(self, monkeypatch, reads):
        # 4-row calls in 60-row blocks of 300 elements: 17 blocks, each
        # ending mid-word.
        monkeypatch.setattr(montecarlo, "_GEMV_SINGLE_THREAD_ELEMENTS", 24)
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 300)
        N, unit = 5, (7, 1001)
        _draw_unit(N, {(2, m): (True, True) for m in (1, 2, 4, 5)}, self.SEED, unit)
        assert self.main_words(reads) == self.words(N, unit)

    @pytest.mark.parametrize("N", [1, 5, 1001])
    def test_full_masks_read_nothing(self, reads, N):
        _draw_unit(N, {(0, N): (True, True), (N - 1, N): (True, False)}, self.SEED, (3, 50))
        assert reads == {}


class TestFrequencyClasses:
    """The law at (N, l, m) depends on l only through gcd(l, N): the
    engine's run at l, which draws with its class point's atoms, and a run
    drawn with l's own atoms (``mc_reference.own_atom_chunks``), on
    independent seeds, agree within their intervals."""

    @pytest.mark.parametrize("N,l,m", [(12, 5, 4), (12, 10, 3), (256, 6, 21), (256, 255, 8)])
    def test_tails_agree_across_the_class(self, N, l, m):
        g = math.gcd(l, N)
        assert atom_table(N, l).tobytes() != atom_table(N, g).tobytes()
        thresholds = tuple(f * math.sqrt(m) for f in (0.25, 0.5, 1.0, 1.5))
        queries = McQueries(tail_thresholds=thresholds)
        params = ModelParams(N, l, m)
        a = mc_run(params, queries, McConfig(samples=20_000, seed=101))
        own = McConfig(samples=20_000, seed=202)
        b = fold(chunk_accumulators(params, queries, own, own_atom_chunks))
        inner = 0
        for part in queries.parts:
            for t in thresholds:
                x, y = mc_tail(a, part, t), mc_tail(b, part, t)
                assert abs(x.estimate - y.estimate) <= x.half_width + y.half_width, (part, t)
                inner += 0.05 < x.estimate < 0.95
        assert inner >= 4


class TestClassDraws:
    """A run at (N, l, m) draws with the atoms of its class point
    (N, gcd(l, N) mod N, m): its results equal the class point's bit for
    bit, and a grouped call computes each class point once."""

    @pytest.mark.parametrize("N", [1, 2, 6, 12, 30, 256, 1000])
    def test_atom_multiset_is_the_class_points(self, N):
        for l in range(N):
            g = math.gcd(l, N) % N
            assert ModelParams(N, l, 1).class_point == ModelParams(N, g, 1)
            got, want = np.sort(atom_table(N, l)), np.sort(atom_table(N, g))
            assert got.tobytes() == want.tobytes(), l

    # l coprime to N, l = N - 1, another class, then l = 0 and N = 2l, each
    # its own class point; at N = 12, 30 and 1000 (several chunks there).
    @pytest.mark.parametrize(
        "N,l,m,g",
        [
            (12, 5, 4, 1),
            (12, 11, 3, 1),
            (12, 10, 5, 2),
            (12, 0, 5, 0),
            (12, 6, 4, 6),
            (30, 21, 7, 3),
            (1000, 999, 333, 1),
            (1000, 500, 1000, 500),
        ],
    )
    def test_runs_equal_their_class_point(self, monkeypatch, N, l, m, g):
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 1 << 18)
        params = ModelParams(N, l, m)
        assert params.class_point == ModelParams(N, g, m)
        cfg = McConfig(samples=1_500, seed=53)
        queries = McQueries(
            parts=(Part.REAL, Part.IMAG, Part.MODULUS, Part.MODULUS_CENTERED),
            moment_orders=(1, 3),
            tail_thresholds=(0.0, 0.5 * math.sqrt(N), math.sqrt(N)),
            modulus_center=0.5 * math.sqrt(m),
        )
        got = mc_run(params, queries, cfg, workers=2)
        want = mc_run(params.class_point, queries, cfg)
        assert got.params == params
        assert (got.n, got.power_sums, got.threshold_hits) == (
            want.n,
            want.power_sums,
            want.threshold_hits,
        )
        assert got == fold(chunk_accumulators(params, queries, cfg))
        for part, center in ((Part.REAL, None), (Part.IMAG, None), (Part.MODULUS_CENTERED, 1.5)):
            est = mc_psi2(params, part, cfg, center=center)
            assert est == mc_psi2(params.class_point, part, cfg, center=center), part

    def test_each_class_point_computed_once(self, monkeypatch):
        # Four l of one class and two of another at N = 12, two m: the
        # draws carry one column pair per class point, every run gets its
        # class point's reductions as its own copy, and psi2 estimates once
        # per (class point, part, center).
        draws = []
        estimates = []
        real_draw, real_estimate = montecarlo._draw_unit, montecarlo._psi2_estimate

        def spy_draw(N, columns, seed, unit):
            draws.append(sorted(columns))
            return real_draw(N, columns, seed, unit)

        def spy_estimate(sq, N, tol):
            estimates.append(N)
            return real_estimate(sq, N, tol)

        monkeypatch.setattr(montecarlo, "_draw_unit", spy_draw)
        monkeypatch.setattr(montecarlo, "_psi2_estimate", spy_estimate)
        cfg = McConfig(samples=3_000, seed=5)
        queries = McQueries(parts=(Part.REAL,), moment_orders=(2,), tail_thresholds=(1.0,))
        points = [ModelParams(12, l, m) for m in (3, 4) for l in (1, 5, 7, 11, 2, 10)]
        accs = mc_run_many([(p, queries) for p in points], cfg)
        assert draws == [[(1, 3), (1, 4), (2, 3), (2, 4)]]
        for p, acc in zip(points, accs):
            alone = mc_run(p.class_point, queries, cfg)
            assert acc.params == p
            assert (acc.power_sums, acc.threshold_hits) == (alone.power_sums, alone.threshold_hits)
        assert accs[0].threshold_hits is not accs[1].threshold_hits
        runs = [(p, part, None) for p in points for part in (Part.REAL, Part.IMAG)]
        ests = mc_psi2_many(runs, cfg)
        assert len(estimates) == 8  # two classes, two m, two parts
        for (p, part, _), est in zip(runs, ests):
            assert est == mc_psi2(p.class_point, part, cfg)


class TestMergeAlgebra:
    def test_merge_matches_single_pass(self, monkeypatch):
        # The chunk accumulators of a four-chunk run, folded left to right,
        # are mc_run's result bit for bit; merged as a balanced tree they
        # agree with it: hits exactly, power sums up to reassociation of four
        # terms.
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 8 * 11_000)
        queries = McQueries(moment_orders=(1, 2), tail_thresholds=(0.5, 1.0, 2.0))
        cfg = McConfig(samples=40_000, seed=3)
        accs = chunk_accumulators(PARAMS, queries, cfg)
        assert len(accs) == 4
        whole = mc_run(PARAMS, queries, cfg)
        assert fold(accs) == whole
        tree = merge(merge(accs[0], accs[1]), merge(accs[2], accs[3]))
        assert tree.n == whole.n == cfg.samples
        assert tree.threshold_hits == whole.threshold_hits
        assert tree.power_sums.keys() == whole.power_sums.keys()
        for key, value in whole.power_sums.items():
            assert tree.power_sums[key] == pytest.approx(value, rel=1e-12, abs=1e-9)

    def test_merge_commutative_and_tolerant(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 8 * 10_000)
        queries = McQueries(moment_orders=(2,), tail_thresholds=(1.0,))
        cfg = McConfig(samples=30_000, seed=11)
        accs = chunk_accumulators(PARAMS, queries, cfg)
        ab = merge(accs[0], accs[1])
        ba = merge(accs[1], accs[0])
        assert ab == ba  # float addition of two terms is commutative
        right_fold = merge(accs[0], merge(accs[1], accs[2]))
        left_fold = fold(accs)
        assert right_fold.n == left_fold.n == 30_000
        key = (Part.REAL, 2)
        assert right_fold.power_sums[key] == pytest.approx(left_fold.power_sums[key], rel=1e-10)
        assert right_fold.threshold_hits == left_fold.threshold_hits

    def test_merge_rejects_mismatched_runs(self):
        a = run(samples=1_000)
        b = mc_run(
            ModelParams(8, 2, 4),
            McQueries(tail_thresholds=(0.0, 1.0, 9.0)),
            McConfig(samples=1_000, seed=7),
        )
        with pytest.raises(ParameterDomainError):
            merge(a, b)


class TestEstimates:
    def test_tail_trivial_thresholds(self):
        acc = run()
        at_zero = mc_tail(acc, Part.REAL, 0.0)
        assert at_zero.estimate == 1.0
        assert at_zero.method is CIMethod.HOEFFDING_INTERVAL
        expected_half = math.sqrt(math.log(2 / 0.01) / (2 * acc.n))
        assert at_zero.half_width == pytest.approx(expected_half)
        assert mc_tail(acc, Part.REAL, 9.0).estimate == 0.0

    def test_tail_unregistered_threshold(self):
        acc = run()
        with pytest.raises(QueryError):
            mc_tail(acc, Part.REAL, 0.5)
        with pytest.raises(QueryError):
            mc_tail(acc, Part.MODULUS_CENTERED, 1.0)

    def test_tail_matches_oracle(self):
        acc = run(samples=200_000)
        est = mc_tail(acc, Part.REAL, 1.0)
        assert est.covers(exact_tail_curve(PARAMS, Part.REAL, [1.0])[0])

    def test_moments_match_oracle(self):
        acc = run(samples=200_000, queries=McQueries(moment_orders=(1, 2)))
        mean = mc_moment(acc, Part.REAL, 1)
        second = mc_moment(acc, Part.REAL, 2)
        assert mean.method is CIMethod.NORMAL_APPROX
        assert mean.covers(0.0)
        assert second.covers(exact_moment(PARAMS, Part.REAL, 2))

    def test_registered_higher_moment(self):
        queries = McQueries(moment_orders=(3,))
        acc = mc_run(PARAMS, queries, McConfig(samples=100_000, seed=5))
        est = mc_moment(acc, Part.REAL, 3)
        assert est.covers(exact_moment(PARAMS, Part.REAL, 3))

    def test_unregistered_moment_order(self):
        acc = run()
        with pytest.raises(QueryError):
            mc_moment(acc, Part.REAL, 7)

    def test_deterministic_full_mask(self):
        params = ModelParams(6, 1, 6)
        acc = mc_run(
            params,
            McQueries(moment_orders=(2,), tail_thresholds=(0.5,)),
            McConfig(samples=10_000, seed=1),
        )
        assert mc_tail(acc, Part.REAL, 0.5).estimate == 0.0
        assert acc.power_sums[(Part.REAL, 2)] <= 1e-20

    def test_modulus_centered_tail(self):
        params = ModelParams(6, 1, 3)
        dist = enumerate_distribution(params, Part.MODULUS)
        center = float(np.dot(dist.values, dist.probs))
        queries = McQueries(
            parts=(Part.MODULUS_CENTERED,),
            tail_thresholds=(1.0,),
            modulus_center=center,
        )
        acc = mc_run(params, queries, McConfig(samples=200_000, seed=9))
        est = mc_tail(acc, Part.MODULUS_CENTERED, 1.0)
        assert est.covers(exact_tail_curve(params, Part.MODULUS_CENTERED, [1.0])[0])


class TestPowerSums:
    def test_moments_equal_direct_reductions(self):
        params = ModelParams(8, 3, 3)
        parts = (Part.IMAG, Part.MODULUS_CENTERED)
        queries = McQueries(parts=parts, moment_orders=(1, 2, 3), modulus_center=1.25)
        # One chunk, so each sum is a single reduction.
        cfg = McConfig(samples=5_000, seed=17)
        acc = mc_run(params, queries, cfg)
        assert set(acc.power_sums) == {(p, k) for p in parts for k in (1, 2, 3, 4, 6)}
        re, im = chunk_part_values(params, cfg.seed, cfg.samples)
        samples = {Part.IMAG: im, Part.MODULUS_CENTERED: np.hypot(re, im) - 1.25}
        z = _z_value(cfg.confidence)
        for part, x in samples.items():
            direct = {1: float(x.sum())}
            direct.update({k: float(np.sum(x**k)) for k in (2, 3, 4, 6)})
            for k in (1, 2, 3):
                est = mc_moment(acc, part, k)
                mean = direct[k] / x.size
                half = z * math.sqrt(max(direct[2 * k] / x.size - mean * mean, 0.0) / x.size)
                assert (est.estimate, est.half_width, est.n) == (mean, half, x.size)

    @pytest.mark.parametrize("orders", [(), (1,), (2,), (1, 2), (3, 6)])
    def test_registration_is_exact(self, orders):
        parts = (Part.REAL, Part.MODULUS)
        queries = McQueries(parts=parts, moment_orders=orders)
        acc = Accumulator.zero(PARAMS, queries, McConfig(samples=1_000, seed=0))
        expected = {(p, j) for p in parts for k in orders for j in (k, 2 * k)}
        assert set(acc.power_sums) == expected
        if not orders:
            with pytest.raises(QueryError):
                mc_moment(acc, Part.REAL, 1)

    def test_unregistered_part(self):
        acc = mc_run(
            PARAMS,
            McQueries(parts=(Part.IMAG,), tail_thresholds=(1.0,)),
            McConfig(samples=1_000, seed=3),
        )
        for part in (Part.REAL, Part.MODULUS, Part.MODULUS_CENTERED):
            with pytest.raises(QueryError):
                mc_moment(acc, part, 1)
            with pytest.raises(QueryError):
                mc_tail(acc, part, 1.0)


class TestThresholdHits:
    @pytest.mark.parametrize("max_counted", [0, 10**6])
    def test_sorted_hits_equal_direct_counts(self, monkeypatch, max_counted):
        # Thresholds on the exact outcome values, on sampled values and one
        # tolerance either side of both, some repeated: the hits read from one
        # sort, and those counted one pass per threshold, equal counting
        # |x| >= t - tol per threshold.
        monkeypatch.setattr(montecarlo, "_MAX_COUNTED_THRESHOLDS", max_counted)
        params = ModelParams(6, 1, 3)
        center = 1.25
        parts = (Part.REAL, Part.IMAG, Part.MODULUS, Part.MODULUS_CENTERED)
        re, im = chunk_part_values(params, 4, 3_000)
        samples = {
            Part.REAL: re,
            Part.IMAG: im,
            Part.MODULUS: np.hypot(re, im),
            Part.MODULUS_CENTERED: np.hypot(re, im) - center,
        }
        base = [0.0, 1.0, 1.0]
        for part in (Part.REAL, Part.IMAG, Part.MODULUS):
            base += [abs(float(v)) for v in enumerate_distribution(params, part).values]
        base += [abs(float(v)) for x in samples.values() for v in x[:40]]
        ts = tuple(t + d for t in base for d in (-VALUE_GROUPING_TOL, 0.0, VALUE_GROUPING_TOL))
        queries = McQueries(parts=parts, tail_thresholds=tuple(max(t, 0.0) for t in ts),
                            modulus_center=center)
        acc = Accumulator.zero(params, queries, McConfig(samples=3_000, seed=4))
        _accumulate(acc, re, im)
        _accumulate(acc, re[:1_000], im[:1_000])
        assert len(acc.threshold_hits) < len(parts) * len(queries.tail_thresholds)
        for (part, t), hits in acc.threshold_hits.items():
            x = np.abs(samples[part])
            direct = np.count_nonzero(x >= t - VALUE_GROUPING_TOL)
            direct += np.count_nonzero(x[:1_000] >= t - VALUE_GROUPING_TOL)
            assert hits == direct, (part, t)
        assert 0 < acc.threshold_hits[(Part.REAL, 1.0)] < 4_000


class TestDrawLayout:
    """Each unit draws its chunk block by block on its own positioned stream
    but equals the whole-chunk reference bit for bit, on shapes whose
    reference product runs on one BLAS thread whatever the machine (rows x N
    below 9216)."""

    @staticmethod
    def assert_matches_reference(params, size, seed=29):
        got = list(unit_chunks(params, seed, size))
        want = list(stream_chunks(params, seed, size))
        assert len(got) == len(want)
        for (re, im), (ref_re, ref_im) in zip(got, want):
            assert re.tobytes() == ref_re.tobytes()
            assert im.tobytes() == ref_im.tobytes()

    @pytest.mark.parametrize(
        "N,l,m", [(1, 0, 1), (3, 1, 1), (3, 2, 3), (64, 5, 21), (1000, 7, 1), (1000, 3, 333)]
    )
    def test_small_sizes(self, N, l, m):
        for size in range(1, 10):
            self.assert_matches_reference(ModelParams(N, l, m), size)

    @pytest.mark.parametrize("N,l,m", [(1, 0, 1), (2, 1, 1), (2, 1, 2)])
    def test_one_call_chunks(self, N, l, m):
        for size in (4096, 4097):
            self.assert_matches_reference(ModelParams(N, l, m), size)

    @pytest.mark.parametrize("threshold", [96, 24])
    @pytest.mark.parametrize("m", [2, 5])
    def test_many_blocks_and_chunks(self, monkeypatch, threshold, m):
        # Shrunk constants give 16- and 4-row calls, several 48- and 60-row
        # blocks per chunk and an odd chunk size (200 rows of N = 5), so one
        # run spans many chunks and every tail shape while each reference
        # product stays small enough for one BLAS thread.
        monkeypatch.setattr(montecarlo, "_GEMV_SINGLE_THREAD_ELEMENTS", threshold)
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 300)
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 1001)
        params = ModelParams(5, 2, m)
        assert montecarlo._gemv_rows(5) == {96: 16, 24: 4}[threshold]
        for size in [*range(1, 131), 1617, 4096, 4097]:
            self.assert_matches_reference(params, size)

    @pytest.mark.parametrize("step,block_rows", [(4, 5), (4, 60), (8, 9), (16, 48), (1148, 32144)])
    def test_chunk_plan(self, step, block_rows):
        for rows in [*range(1, 6 * step), 524_288]:
            sizes, starts, at = [], [], 0
            for start, slices, tail in _chunk_plan(rows, step, block_rows):
                assert start == at
                assert slices * step + sum(tail) <= block_rows
                for k in [step] * slices + list(tail):
                    starts.append(at)
                    sizes.append(k)
                    at += k
            assert at == rows
            # Calls start on 4-row boundaries, stay within one step (or 5
            # rows), and only a 1-row chunk is a 1-row call.
            assert all(s % 4 == 0 for s in starts)
            assert all(k <= step or k == 5 for k in sizes)
            assert 1 not in sizes or rows == 1

    @pytest.mark.parametrize("chunk_elements", [999, 1001])
    @pytest.mark.parametrize("N", [1, 3, 5, 7, 12, 1000, 1024])
    def test_units_start_anywhere(self, monkeypatch, N, chunk_elements):
        # Odd chunk sizes put unit starts off the 4-value boundaries of the
        # Philox counter; every unit, drawn alone in any order, still equals
        # its chunk of the reference's sequential draw.
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", chunk_elements)
        rows_per_chunk = max(1, chunk_elements // N)
        samples = max(12, 5 * rows_per_chunk + 7)
        cfg = McConfig(samples=samples, seed=31)
        units = list(_units(cfg, N))
        assert len(units) >= 6
        l = min(1, N - 1)
        for m in sorted({1, max(1, N // 3), N}):
            params = ModelParams(N, l, m)
            want = dict(
                zip(range(0, samples, rows_per_chunk), stream_chunks(params, cfg.seed, samples))
            )
            for unit in reversed(units):
                re, im = _draw_unit(N, {(l, m): (True, True)}, cfg.seed, unit)[(l, m)]
                ref_re, ref_im = want[unit[0]]
                assert re.tobytes() == ref_re.tobytes()
                assert im.tobytes() == ref_im.tobytes()

    @pytest.mark.parametrize("N,l,m", [(12, 5, 4), (1000, 3, 333)])
    def test_reads_only_requested_columns(self, monkeypatch, N, l, m):
        # A real-only draw returns the bits of the full draw's re and
        # multiplies the real atom column only; an imag-only draw the
        # reverse.
        atoms = atom_table(N, l)
        assert not np.array_equal(atoms.real, atoms.imag)
        unit = (0, 301)
        products = []
        matmul = np.matmul

        def spy(masks, col, **kwargs):
            products.append(col.copy())
            return matmul(masks, col, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        both = _draw_unit(N, {(l, m): (True, True)}, 29, unit)[(l, m)]
        calls = len(products)
        assert calls % 2 == 0
        for reads, column, kept in (((True, False), atoms.real, 0), ((False, True), atoms.imag, 1)):
            products.clear()
            got = _draw_unit(N, {(l, m): reads}, 29, unit)[(l, m)]
            assert got[1 - kept] is None
            assert got[kept].tobytes() == both[kept].tobytes()
            assert len(products) == calls // 2
            assert all(np.array_equal(col, column) for col in products)

    def test_working_set_is_one_block(self):
        params = ModelParams(1024, 1, 8)
        queries = McQueries(parts=(Part.REAL, Part.MODULUS), tail_thresholds=(1.0, 30.0))

        def peak(size):
            tracemalloc.start()
            try:
                mc_run(params, queries, McConfig(samples=size, seed=0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10_000), peak(50_000)
        assert large < 8 * 2**20
        assert large <= small + 2**16

    @pytest.mark.parametrize("workers", [1, 3])
    def test_working_set_is_flat_in_chunks_and_batches(self, monkeypatch, workers):
        # 16-row chunks at N = 1024: 256 against 1024 units.  Folding the
        # partials as they arrive keeps the peak flat; holding one
        # accumulator per unit until the end adds about 1.5 MB.
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 1024 * 16)
        params = ModelParams(1024, 1, 8)
        queries = McQueries(
            parts=(Part.REAL, Part.MODULUS), tail_thresholds=tuple(range(10))
        )

        def peak(size):
            cfg = McConfig(samples=size, seed=0)
            assert len(list(_units(cfg, 1024))) == size // 16
            mc_run(params, queries, McConfig(samples=16, seed=0))  # warm the caches
            tracemalloc.start()
            try:
                mc_run(params, queries, cfg, workers=workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4_096), peak(16_384)
        assert large <= small + 2**14


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


_HASH_SCRIPT = """
import hashlib, sys
from mc_reference import stream_chunks, unit_chunks
from spectral_mask import ModelParams

def digest(chunks):
    h = hashlib.sha256()
    for re, im in chunks:
        h.update(re.tobytes())
        h.update(im.tobytes())
    return h.hexdigest()

for N, size in [
    (100, 20003), (1000, 20000), (1024, 20003), (3000, 4099), (12, 20001), (1001, 12571)
]:
    for m in (1, N // 3, N):
        params = ModelParams(N, 1, m)
        line = [N, m, size, digest(unit_chunks(params, 5, size))]
        if sys.argv[1] == "1":
            line.append(digest(stream_chunks(params, 5, size)))
        print(*line)
"""


@pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs for two BLAS threads")
def test_samples_independent_of_blas_threads():
    # Row counts that no thread split keeps on 4-row kernel boundaries:
    # one product over each whole chunk gives samples that depend on the
    # BLAS thread count; the drawn samples must not, and must equal that
    # product on one thread.
    path = os.pathsep.join(
        [str(Path(spectral_mask.__file__).parents[1]), str(Path(__file__).parent)]
    )
    procs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", _HASH_SCRIPT, str(threads)],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in (1, 2)
    }
    out = {threads: proc.communicate()[0].splitlines() for threads, proc in procs.items()}
    assert all(proc.returncode == 0 for proc in procs.values())
    assert len(out[1]) == len(out[2]) == 18
    for one, two in zip(out[1], out[2]):
        case, drawn, reference = one.rsplit(" ", 2)
        assert two == f"{case} {drawn}"
        assert drawn == reference, case


_POWER_SUM_SCRIPT = """
from spectral_mask import montecarlo

# One 262,144-row chunk at N = 12 and two prefixes of it; OpenBLAS threads a
# dot product from 16,384 elements up.
re, _ = montecarlo._draw_unit(12, {(1, 4): (True, False)}, 42, (0, 262_144))[(1, 4)]
for rows in (20_000, 65_537, 262_144):
    print(rows, repr(montecarlo._power_sum(re[:rows], 2)))
"""


@pytest.mark.skipif(_cpus() < 2, reason="needs two CPUs for two BLAS threads")
def test_power_sums_independent_of_blas_threads():
    # The order-2 power sum of a long chunk, as the accumulator takes it,
    # has the same bits at one and at two BLAS threads.
    path = str(Path(spectral_mask.__file__).parents[1])
    procs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", _POWER_SUM_SCRIPT],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in (1, 2)
    }
    out = {threads: proc.communicate()[0].splitlines() for threads, proc in procs.items()}
    assert all(proc.returncode == 0 for proc in procs.values())
    assert len(out[1]) == 3
    assert out[1] == out[2]


class TestMcPsi2:
    def test_three_point_case(self):
        params = ModelParams(2, 1, 1)
        est = mc_psi2(params, Part.REAL, McConfig(samples=1_000_000, seed=21))
        target = 1.0 / math.sqrt(math.log(3.0))
        assert abs(est.norm - target) <= 0.02
        lo, hi = est.bracket
        assert lo <= est.norm <= hi

    def test_zero_variable(self):
        est = mc_psi2(ModelParams(4, 1, 4), Part.REAL, McConfig(samples=10_000, seed=2))
        assert est.norm == 0.0

    def test_below_sup_norm_bound(self):
        params = ModelParams(6, 1, 2)
        est = mc_psi2(params, Part.REAL, McConfig(samples=100_000, seed=3))
        assert est.norm <= psi2_sup_upper(params.N) + est.tolerance

    def test_reproducible(self):
        params = ModelParams(6, 1, 2)
        cfg = McConfig(samples=50_000, seed=13)
        a = mc_psi2(params, Part.REAL, cfg, workers=1)
        b = mc_psi2(params, Part.REAL, cfg, workers=4)
        assert a == b

    def test_centered_needs_center(self):
        with pytest.raises(ParameterDomainError):
            mc_psi2(PARAMS, Part.MODULUS_CENTERED, McConfig(samples=1_000, seed=0))

    @pytest.mark.parametrize("part", [Part.REAL, Part.MODULUS_CENTERED])
    def test_matches_concatenated_samples(self, monkeypatch, part):
        # Three chunks: the norm and the bracket equal those of all samples
        # concatenated in stream order, taken as their empirical law.  At
        # N = 1024 every sample is distinct and the law keeps them all; at
        # N = 12 (4096-row chunks) a few hundred distinct squares carry
        # weights count / n.
        cfg = McConfig(samples=12_000, seed=23)
        center = 5.5
        tol = 1e-6
        for params, chunk_elements, compacted in (
            (ModelParams(1024, 5, 32), 1 << 22, False),
            (ModelParams(12, 5, 4), 12 * 4096, True),
        ):
            monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", chunk_elements)
            assert len(list(_units(cfg, params.N))) == 3
            chunks = []
            for re, im in unit_chunks(params, cfg.seed, cfg.samples):
                chunks.append(re if part is Part.REAL else np.hypot(re, im) - center)
            values = np.concatenate(chunks)
            sq = np.sort(values * values)
            distinct, counts = np.unique(sq, return_counts=True)
            assert (2 * distinct.size <= sq.size) is compacted
            if compacted:
                squares, weights = distinct, counts / sq.size
            else:
                squares, weights = sq, np.full(sq.size, 1.0 / sq.size)

            def objective(K):
                return _exp_moment(squares, weights, K)

            lo, hi = _psi2_bisect(squares, weights, params.N, tol)
            root = 0.5 * (lo + hi)
            at_root = np.exp(squares / (root * root))
            var = np.add.reduce(weights * np.square(at_root - objective(root)))
            se = math.sqrt(float(var)) / math.sqrt(sq.size)
            h = max(1e-6, 1e-3 * root)
            widen = se / max(abs(objective(root + h) - objective(root - h)) / (2.0 * h), 1e-300)
            expected = (root, (max(lo - widen, 0.0), hi + widen))
            for workers in (1, 3):
                est = mc_psi2(params, part, cfg, tol, center=center, workers=workers)
                assert (est.norm, est.bracket) == expected

    def test_sample_bytes_guard(self):
        limit = montecarlo._PSI2_MAX_BYTES // montecarlo._PSI2_BYTES_PER_SAMPLE
        with pytest.raises(CapabilityError):
            mc_psi2(PARAMS, Part.REAL, McConfig(samples=limit + 1, seed=0))

    def test_call_stays_within_the_byte_budget(self, monkeypatch):
        # Four 1M-sample runs at N = 64, one per group, each 24 MB at peak;
        # a 50 MB budget lets two run at once.  The waves change no bit.
        cfg = McConfig(samples=1_000_000, seed=5)
        runs = [(ModelParams(64, l, 21), Part.REAL, None) for l in (1, 3, 5, 7)]
        want = mc_psi2_many(runs, cfg, workers=4)
        budget = 50_000_000
        monkeypatch.setattr(montecarlo, "_PSI2_MAX_BYTES", budget)
        assert [len(w) for w in montecarlo._psi2_waves([[0], [1], [2], [3]], cfg, 4)] == [2, 2]
        tracemalloc.start()
        try:
            got = mc_psi2_many(runs, cfg, workers=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= budget

    def test_memory_per_sample(self):
        # The draw temporaries of one chunk stay small next to the retained
        # squared samples, the probe buffer and std's temporary.
        cfg = McConfig(samples=1_000_000, seed=5)
        tracemalloc.start()
        try:
            mc_psi2(ModelParams(8, 1, 4), Part.REAL, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / cfg.samples < 28


    def test_all_distinct_samples_stay_within_the_byte_budget(self, monkeypatch):
        # At N = 1024 every squared sample is distinct, so the empirical law
        # keeps the samples whole under one broadcast weight.
        cfg = McConfig(samples=1_000_000, seed=5)
        params = ModelParams(1024, 1, 128)
        mc_psi2(params, Part.REAL, McConfig(samples=16, seed=0))  # warm the caches
        laws = []
        empirical_law = montecarlo._empirical_law

        def spy(sq):
            n = sq.size
            squares, weights = empirical_law(sq)
            laws.append((n, squares.size, weights.strides))
            return squares, weights

        monkeypatch.setattr(montecarlo, "_empirical_law", spy)
        tracemalloc.start()
        try:
            mc_psi2(params, Part.REAL, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert laws == [(cfg.samples, cfg.samples, (0,))]
        assert peak <= montecarlo._PSI2_BYTES_PER_SAMPLE * cfg.samples

    def test_empirical_law_compacts_repeats(self):
        sq = np.array([4.0, 1.0, 4.0, 0.0, 4.0, 1.0])
        squares, weights = montecarlo._empirical_law(sq)
        assert squares.tolist() == [0.0, 1.0, 4.0]
        assert weights.tolist() == [1 / 6, 2 / 6, 3 / 6]
        sq = np.array([3.0, 1.0, 2.0, 2.0])
        squares, weights = montecarlo._empirical_law(sq)
        assert squares is sq and squares.tolist() == [1.0, 2.0, 2.0, 3.0]
        assert weights.tolist() == [0.25] * 4

    def test_compacted_norm_matches_dense(self):
        # Every (N, l, m) with N <= 12, part real: the norm bisected on the
        # compacted empirical law lies within tol of the dense bisection
        # over every sample.
        cfg = McConfig(samples=20_000, seed=1)
        tol = 1e-6
        points = [
            ModelParams(N, l, m) for N in range(1, 13) for l in range(N) for m in range(1, N + 1)
        ]
        got = mc_psi2_many([(p, Part.REAL, None) for p in points], cfg, tol)
        identical = 0
        for N in range(1, 13):
            assert list(_units(cfg, N)) == [(0, cfg.samples)]
            at_n = [(p, est) for p, est in zip(points, got) if p.N == N]
            columns = {(class_l(p), p.m): (True, False) for p, _ in at_n}
            draws = _draw_unit(N, columns, cfg.seed, (0, cfg.samples))
            for p, est in at_n:
                re = draws[(class_l(p), p.m)][0]
                want = dense_psi2_norm(re * re, N, tol)
                assert abs(est.norm - want) <= tol, p
                identical += est.norm == want
        print(f"{identical} of {len(points)} norms bit-identical to the dense reference")


class TestGroupedRuns:
    """One draw per N serves every run of a grouped call; each result equals
    the run's own one-run call bit for bit."""

    POINTS = [
        ModelParams(1000, 1, 1),
        ModelParams(12, 5, 4),
        ModelParams(1000, 3, 333),
        ModelParams(1000, 3, 1000),
        ModelParams(12, 5, 12),
        ModelParams(1000, 7, 333),
        ModelParams(1000, 3, 333),
    ]
    # Nine chunks at N = 1000 (under a 2^18-element chunk), so any other fold
    # would reassociate; one chunk at N = 12.
    CFG = McConfig(samples=2_250, seed=41)

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 1 << 18)

    # Group byte limits: the default (one group per N), one run per group,
    # groups of two two-column tails runs (up to four real-only ones), and
    # groups of two modulus psi2 runs.
    GROUP_BYTES = (montecarlo._GROUP_BYTES, 1, 2 * 16 * 262, 2 * (16 * 262 + 8 * 2_250))

    def test_mc_run_many(self, monkeypatch):
        runs = [
            (
                p,
                McQueries(
                    parts=(Part.REAL, Part.IMAG, Part.MODULUS_CENTERED)[: 1 + i % 3],
                    moment_orders=(1, 3)[: i % 3],
                    tail_thresholds=(0.0, 0.3 * math.sqrt(p.N), 0.9 * math.sqrt(p.N)),
                    modulus_center=2.0 + i,
                ),
            )
            for i, p in enumerate(self.POINTS)
        ]
        assert len(list(_units(self.CFG, 1000))) == 9
        alone = [mc_run(params, queries, self.CFG) for params, queries in runs]
        assert alone == [fold(chunk_accumulators(p, q, self.CFG)) for p, q in runs]
        for group_bytes in self.GROUP_BYTES:
            monkeypatch.setattr(montecarlo, "_GROUP_BYTES", group_bytes)
            for workers in (1, 3):
                assert mc_run_many(runs, self.CFG, workers=workers) == alone

    def test_mc_psi2_many(self, monkeypatch):
        runs = [
            (p, part, 1.5 if part is Part.MODULUS_CENTERED else None)
            for p in self.POINTS[1:5]
            for part in (Part.REAL, Part.MODULUS_CENTERED)
        ]
        alone = [
            (est.norm, est.bracket)
            for est in (mc_psi2(p, part, self.CFG, 1e-6, center=c) for p, part, c in runs)
        ]
        for group_bytes in self.GROUP_BYTES:
            monkeypatch.setattr(montecarlo, "_GROUP_BYTES", group_bytes)
            for workers in (1, 3):
                grouped = mc_psi2_many(runs, self.CFG, 1e-6, workers=workers)
                assert [(est.norm, est.bracket) for est in grouped] == alone

    def test_shared_draw_is_one_stream_per_n(self, monkeypatch):
        draws = []
        real_draw = montecarlo._draw_unit

        def spy(N, columns, seed, unit):
            draws.append((N, len(columns)))
            assert set(columns.values()) == {(True, False)}
            return real_draw(N, columns, seed, unit)

        monkeypatch.setattr(montecarlo, "_draw_unit", spy)
        runs = [(p, McQueries(parts=(Part.REAL,))) for p in self.POINTS]
        mc_run_many(runs, self.CFG)
        # One draw per chunk and N, for the distinct class points (l, m) of
        # its runs: l = 3 and 7 at N = 1000 are both in the class of l = 1.
        assert sorted(draws) == [(12, 2)] + [(1000, 3)] * 9

    def test_groups_share_one_m(self, monkeypatch):
        # Six class points at N = 12 and three m, given l-major; in groups
        # of two runs ordered by m, each group decides its masks for one m.
        compares = []
        real_masks = montecarlo._UnitMasks.masks

        def spy(self, m):
            compares.append(m)
            return real_masks(self, m)

        monkeypatch.setattr(montecarlo._UnitMasks, "masks", spy)
        # Two real-only runs: 8 B per row each.
        monkeypatch.setattr(montecarlo, "_GROUP_BYTES", 2 * 8 * self.CFG.samples)
        points = [ModelParams(12, l, m) for l in (0, 1, 2, 3, 4, 6) for m in (3, 4, 12)]
        runs = [(p, McQueries(parts=(Part.REAL,), tail_thresholds=(1.0,))) for p in points]
        accs = mc_run_many(runs, self.CFG)
        assert compares == [3] * 3 + [4] * 3 + [12] * 3
        assert accs == [mc_run(p, q, self.CFG) for p, q in runs]

    def test_groups_charge_the_columns_read(self, monkeypatch):
        # A run is charged 8 B per chunk row for each atom column its parts
        # read: under a bound that holds two modulus runs, real-only runs
        # share one draw four at a time.
        draws = []
        real_draw = montecarlo._draw_unit

        def spy(N, columns, seed, unit):
            draws.append(len(columns))
            return real_draw(N, columns, seed, unit)

        monkeypatch.setattr(montecarlo, "_draw_unit", spy)
        monkeypatch.setattr(montecarlo, "_GROUP_BYTES", 2 * 16 * self.CFG.samples)
        points = [ModelParams(12, l, 4) for l in (0, 1, 2, 3)]
        for parts, want in (((Part.REAL,), [4]), ((Part.MODULUS,), [2, 2])):
            runs = [(p, McQueries(parts=parts, tail_thresholds=(1.0,))) for p in points]
            alone = [mc_run(p, q, self.CFG) for p, q in runs]
            draws.clear()
            assert mc_run_many(runs, self.CFG) == alone
            assert draws == want

    def test_empty_and_invalid(self):
        assert mc_run_many([], self.CFG) == []
        assert mc_psi2_many([], self.CFG) == []
        with pytest.raises(ParameterDomainError):
            mc_run_many([(PARAMS, McQueries())], self.CFG, workers=0)
        with pytest.raises(ParameterDomainError):
            mc_psi2_many([(PARAMS, Part.REAL, None), (PARAMS, Part.COMPLEX, None)], self.CFG)


class TestCalibration:
    def test_ci_coverage_over_grid(self):
        # Across an exhaustive small grid, estimates should land inside their
        # stated intervals for at least the nominal confidence fraction.
        # Hoeffding tail intervals are conservative; normal-approximation
        # moment intervals are close to nominal.  Seeded, so deterministic.
        inside = 0
        total = 0
        for N in (9, 12):
            for l in range(1, N):
                if N == 2 * l:
                    continue
                for m in range(1, N + 1):
                    params = ModelParams(N, l, m)
                    t = 0.5 * math.sqrt(N)
                    queries = McQueries(
                        parts=(Part.REAL,), moment_orders=(1, 2), tail_thresholds=(t,)
                    )
                    cfg = McConfig(samples=16_384, seed=1000 + 31 * N + m + 977 * l)
                    acc = mc_run(params, queries, cfg)
                    checks = (
                        mc_tail(acc, Part.REAL, t).covers(
                            exact_tail_curve(params, Part.REAL, [t])[0]
                        ),
                        mc_moment(acc, Part.REAL, 1).covers(exact_moment(params, Part.REAL, 1)),
                        mc_moment(acc, Part.REAL, 2).covers(exact_moment(params, Part.REAL, 2)),
                    )
                    inside += sum(checks)
                    total += len(checks)
        assert total >= 500
        assert inside / total >= 0.99


class TestWorkerPool:
    """``_map_ordered`` runs on one pool per worker count."""

    def test_threads_stay_bounded(self):
        # Many maps, one after another and from concurrent callers: the
        # pool threads that run items, and the threads alive at once, stay
        # bounded by the worker count.
        runners = set()  # the thread objects, kept so no identity is reused
        peak = [0]
        lock = threading.Lock()

        def square(x):
            with lock:
                runners.add(threading.current_thread())
                peak[0] = max(peak[0], threading.active_count())
            return x * x

        want = [x * x for x in range(10)]
        base = threading.active_count()
        for _ in range(50):
            assert list(_map_ordered(square, range(10), 3)) == want
        failures = []

        def caller():
            for _ in range(20):
                if list(_map_ordered(square, range(10), 3)) != want:
                    failures.append(threading.current_thread())

        callers = [threading.Thread(target=caller) for _ in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in callers)
        assert failures == []
        assert threading.current_thread() not in runners
        assert len(runners) <= 3
        assert peak[0] <= base + len(callers) + 3
        assert threading.active_count() <= base + 3

    def test_nested_map_runs_inline(self):
        # A map called from a pool thread runs on that thread, so it never
        # waits on a pool its caller keeps busy.
        def outer(x):
            return sum(_map_ordered(lambda y: x * y, range(5), 2))

        out = []
        thread = threading.Thread(target=lambda: out.extend(_map_ordered(outer, range(8), 2)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert out == [10 * x for x in range(8)]

    def test_closed_early_cancels_pending(self):
        # Items 1 and 2 block until released; closing the map after its
        # first result cancels item 3, still queued, and waits for the
        # running ones.
        started = []
        release = threading.Event()

        def fn(x):
            started.append(x)
            if x:
                release.wait(10)
            return x

        results = _map_ordered(fn, range(100), 2)
        assert next(results) == 0
        timer = threading.Timer(0.2, release.set)
        timer.start()
        results.close()
        timer.join(timeout=10)
        time.sleep(0.05)
        assert set(started) <= {0, 1, 2}
