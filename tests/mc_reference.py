"""Whole-chunk reference for the Monte Carlo draw.

Each chunk's masks are drawn as one (rows, N) matrix and multiplied by the
atom columns in one product per column, the plain form of what
``montecarlo._draw_unit`` computes block by block.  The two agree bit for
bit wherever this product runs on one BLAS thread (rows x N below 9216, or
``OPENBLAS_NUM_THREADS=1``) or its thread split falls on 4-row boundaries.
``unit_chunks`` gives the engine's side of that comparison, and
``merge_layers`` the plain form of the batch tree ``montecarlo.merge_tree``
folds as batches arrive.
"""

from __future__ import annotations

import numpy as np

from spectral_mask import ModelParams
from spectral_mask import montecarlo
from spectral_mask.model import _inclusion_threshold, atom_table


def draw_masks(params: ModelParams, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` Bernoulli(m/N) masks as a 0/1 float64 matrix of N columns."""
    if params.m == params.N:
        return np.ones((rows, params.N), dtype=np.float64)
    threshold = np.uint64(_inclusion_threshold(params.m, params.N))
    u = rng.integers(0, 2**64, size=(rows, params.N), dtype=np.uint64)
    return (u < threshold).astype(np.float64)


def chunk_part_values(
    params: ModelParams, rng: np.random.Generator, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of ``rows`` samples drawn as one chunk."""
    atoms = atom_table(params.N, params.l)
    incl = draw_masks(params, rng, rows)
    return incl @ np.ascontiguousarray(atoms.real), incl @ np.ascontiguousarray(atoms.imag)


def batch_chunks(params: ModelParams, seed: int, batch_index: int, size: int):
    """The (re, im) chunks of one batch, chunked as ``_CHUNK_ELEMENTS`` says."""
    rng = montecarlo._substream(seed, batch_index)
    rows_per_chunk = max(1, montecarlo._CHUNK_ELEMENTS // params.N)
    for start in range(0, size, rows_per_chunk):
        yield chunk_part_values(params, rng, min(rows_per_chunk, size - start))


def unit_chunks(params: ModelParams, seed: int, batch_index: int, size: int):
    """The same chunks drawn by the engine, each unit on its own positioned
    stream, as ``montecarlo._draw_unit`` yields them."""
    rows_per_chunk = max(1, montecarlo._CHUNK_ELEMENTS // params.N)
    key = (params.l, params.m)
    for start in range(0, size, rows_per_chunk):
        unit = (batch_index, start, min(rows_per_chunk, size - start))
        yield montecarlo._draw_unit([params], seed, unit)[key]


def merge_layers(accs: list) -> montecarlo.Accumulator:
    """The batch tree layer by layer: neighbours merge pairwise, and an odd
    last node moves up unmerged."""
    layer = list(accs)
    while len(layer) > 1:
        layer = [
            montecarlo.merge(*layer[i : i + 2]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
    return layer[0]
