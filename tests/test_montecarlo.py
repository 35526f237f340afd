import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spectral_mask
from mc_reference import chunk_part_values, stream_chunks, stream_mask_chunks, unit_chunks
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
    exact_tail,
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
from spectral_mask.model import VALUE_GROUPING_TOL
from spectral_mask.montecarlo import (
    Accumulator,
    _accumulate,
    _chunk_plan,
    _draw_unit,
    _units,
    _z_value,
)
from spectral_mask.oracle import _psi2_bisect

PARAMS = ModelParams(8, 1, 4)


def run(samples=50_000, seed=7, queries=None, **kwargs):
    queries = queries or McQueries(tail_thresholds=(0.0, 1.0, 9.0))
    return mc_run(PARAMS, queries, McConfig(samples=samples, seed=seed), **kwargs)


def chunk_accumulators(params, queries, cfg):
    """One accumulator per chunk of the one-stream reference of ``cfg``."""
    accs = []
    for re, im in stream_chunks(params, cfg.seed, cfg.samples):
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
        with pytest.raises(ParameterDomainError):
            McQueries(moment_orders=(0,))

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
        # and mid-counter (9009 % 16 = 1), each reference product small
        # enough for one BLAS thread.
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 9 * self.N)

    # m = 500 keeps about half the elements, so a lane read from the wrong
    # word flips its bit half the time.
    @pytest.mark.parametrize("m", [1, 500, 1000, 1001])
    def test_masks_are_u_below_threshold(self, m):
        params = ModelParams(self.N, 1, m)
        units = list(_units(self.CFG, self.N))
        assert len(units) == 167
        assert {start * self.N % 16 for start, _ in units} == set(range(16))
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
        # About 23 ties per m < N, some kept and some dropped.
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


class TestFrequencyClasses:
    """The law at (N, l, m) depends on l only through gcd(l, N): runs at l
    and at gcd(l, N), on independent seeds, agree within their intervals."""

    @pytest.mark.parametrize("N,l,m", [(12, 5, 4), (12, 10, 3), (256, 6, 21), (256, 255, 8)])
    def test_tails_agree_across_the_class(self, N, l, m):
        g = math.gcd(l, N)
        assert g != l
        thresholds = tuple(f * math.sqrt(m) for f in (0.25, 0.5, 1.0, 1.5))
        queries = McQueries(tail_thresholds=thresholds)
        a = mc_run(ModelParams(N, l, m), queries, McConfig(samples=20_000, seed=101))
        b = mc_run(ModelParams(N, g, m), queries, McConfig(samples=20_000, seed=202))
        inner = 0
        for part in queries.parts:
            for t in thresholds:
                x, y = mc_tail(a, part, t), mc_tail(b, part, t)
                assert abs(x.estimate - y.estimate) <= x.half_width + y.half_width, (part, t)
                inner += 0.05 < x.estimate < 0.95
        assert inner >= 4


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
        assert est.covers(exact_tail(PARAMS, Part.REAL, 1.0))

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
        assert est.covers(exact_tail(params, Part.MODULUS_CENTERED, 1.0))


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
            direct = {1: float(x.sum()), 2: float(np.dot(x, x))}
            direct.update({k: float(np.sum(x**k)) for k in (3, 4, 6)})
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
                re, im = _draw_unit([params], cfg.seed, unit)[(l, m)]
                ref_re, ref_im = want[unit[0]]
                assert re.tobytes() == ref_re.tobytes()
                assert im.tobytes() == ref_im.tobytes()

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
    def test_matches_concatenated_samples(self, part):
        # Three chunks: the norm and the bracket equal those of all samples
        # concatenated in stream order.
        params = ModelParams(1024, 5, 32)
        cfg = McConfig(samples=12_000, seed=23)
        center = 5.5
        assert len(list(_units(cfg, params.N))) == 3
        chunks = []
        for re, im in unit_chunks(params, cfg.seed, cfg.samples):
            chunks.append(re if part is Part.REAL else np.hypot(re, im) - center)
        values = np.concatenate(chunks)
        sq = values * values

        def objective(K):
            with np.errstate(over="ignore"):
                return float(np.mean(np.exp(sq / (K * K))))

        tol = 1e-6
        lo, hi = _psi2_bisect(objective, params.N, tol)
        root = 0.5 * (lo + hi)
        with np.errstate(over="ignore"):
            at_root = np.exp(sq / (root * root))
        se = float(at_root.std()) / math.sqrt(at_root.size)
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
    # groups of two tails runs, and groups of two psi2 runs.
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

        def spy(points, seed, unit):
            draws.append((points[0].N, len(points)))
            return real_draw(points, seed, unit)

        monkeypatch.setattr(montecarlo, "_draw_unit", spy)
        runs = [(p, McQueries(parts=(Part.REAL,))) for p in self.POINTS]
        mc_run_many(runs, self.CFG)
        assert sorted(draws) == [(12, 2)] + [(1000, 5)] * 9

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
                        mc_tail(acc, Part.REAL, t).covers(exact_tail(params, Part.REAL, t)),
                        mc_moment(acc, Part.REAL, 1).covers(exact_moment(params, Part.REAL, 1)),
                        mc_moment(acc, Part.REAL, 2).covers(exact_moment(params, Part.REAL, 2)),
                    )
                    inside += sum(checks)
                    total += len(checks)
        assert total >= 500
        assert inside / total >= 0.99
