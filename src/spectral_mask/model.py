"""Parameters, atoms and the exact Bernoulli inclusion rule of the masks.

A *mask* is a random subset of {1..N}: index n is kept independently with
probability m/N.  The observed value at integer frequency l is the sum of the
unit atoms exp(-2*pi*j*n*l/N) over the kept indices; its real part, imaginary
part and modulus are the real-valued variables that everything else in this
package enumerates, samples and bounds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterDomainError

#: Float-noise slack, no longer a grouping rule: the oracle groups outcomes
#: exactly, on integer coordinates in Z[zeta_d], since distinct roots-of-unity
#: sums can lie closer than any fixed spacing (4.1e-9 for the modulus at
#: N = 23).  It is the tie rule of tail thresholds: exact and Monte Carlo
#: tails both count |x| >= t - tol, so they make the same call on outcomes
#: analytically at t whatever their float noise (about 1e-12 * N).  The psi2
#: norms also treat a variable with no |x| above it as zero.
VALUE_GROUPING_TOL = 1e-9


class Part(enum.Enum):
    """Selector for which functional of the complex sum is observed."""

    COMPLEX = "complex"
    REAL = "real"
    IMAG = "imag"
    MODULUS = "modulus"
    MODULUS_CENTERED = "modulus_centered"


#: Parts whose value is a single real number.
REAL_VALUED_PARTS = frozenset(
    {Part.REAL, Part.IMAG, Part.MODULUS, Part.MODULUS_CENTERED}
)


@dataclass(frozen=True)
class ModelParams:
    """Problem size N, frequency index l, and expected support size m.

    The inclusion probability is always the exact rational m/N; no float
    ever carries it (see ``_inclusion_threshold``).
    """

    N: int
    l: int
    m: int

    def __post_init__(self) -> None:
        for name in ("N", "l", "m"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterDomainError(f"{name} must be an integer, got {value!r}")
        if self.N < 1:
            raise ParameterDomainError(f"N must be >= 1, got {self.N}")
        if not 0 <= self.l <= self.N - 1:
            raise ParameterDomainError(
                f"l must satisfy 0 <= l <= N-1, got l={self.l} with N={self.N}"
            )
        if not 1 <= self.m <= self.N:
            raise ParameterDomainError(
                f"m must satisfy 1 <= m <= N, got m={self.m} with N={self.N}"
            )

    @property
    def is_degenerate_2l(self) -> bool:
        """True when N == 2l; atoms collapse to +/-1 and several closed forms
        are not claimed there."""
        return self.N == 2 * self.l

    @property
    def class_point(self) -> "ModelParams":
        """(N, gcd(l, N) mod N, m): the point of l's frequency class, whose
        atom multiset equals l's bit for bit, so the two share one law; the
        exact oracle keys its laws on the same l."""
        return ModelParams(self.N, math.gcd(self.l, self.N) % self.N, self.m)


@lru_cache(maxsize=256)
def atom_table(N: int, l: int) -> np.ndarray:
    """All N atoms at frequency l, indexed by n-1, as a read-only complex array."""
    if not isinstance(N, int) or N < 1:
        raise ParameterDomainError(f"N must be a positive integer, got {N!r}")
    if not isinstance(l, int) or not 0 <= l <= N - 1:
        raise ParameterDomainError(f"l must satisfy 0 <= l <= N-1, got l={l!r} with N={N}")
    r = (np.arange(1, N + 1, dtype=np.int64) * l) % N
    theta = 2.0 * np.pi * r / N
    out = np.cos(theta) - 1j * np.sin(theta)
    out.flags.writeable = False
    return out


def _inclusion_threshold(m: int, N: int) -> int:
    # Keep index n iff a uniform 64-bit integer u satisfies u * N < m * 2**64,
    # i.e. u < ceil(m * 2**64 / N): exact integer comparison, no float bias.
    # Monte Carlo decides it from u's top 16 bits against the threshold's,
    # and reads u's low 48 bits only when the top bits tie (``montecarlo.
    # _UnitMasks``); that is the same event, so the law is exactly m/N.
    return -((-m << 64) // N)
