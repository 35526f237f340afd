"""Bernoulli sampling masks and their DFT-coefficient values.

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
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import ParameterDomainError

#: Absolute tolerance under which two evaluated mask values count as the same
#: outcome.  Far above the summation error budget (1e-12 * N).  Distinct
#: roots-of-unity sums can lie closer than any fixed spacing, so the oracle
#: measures the smallest gap of each law and refuses one inside its grouping
#: margin.  Exact and Monte Carlo tail thresholds absorb the same slack so
#: both sides make the same call on boundary atoms.
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

    The inclusion probability is always the exact rational m/N; ``p`` exposes
    it as a ``Fraction`` so no float ever carries the probability parameter.
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
    def p(self) -> Fraction:
        """Exact inclusion probability m/N."""
        return Fraction(self.m, self.N)

    @property
    def is_dc(self) -> bool:
        """True at zero frequency, where the sum is a plain binomial count."""
        return self.l == 0

    @property
    def is_degenerate_2l(self) -> bool:
        """True when N == 2l; atoms collapse to +/-1 and several closed forms
        are not claimed there."""
        return self.N == 2 * self.l


@dataclass(frozen=True)
class SupportMask:
    """A realized subset of {1..N}.

    Masks are 1-based to match the n = 1..N sums; the bit-word encoding maps
    index n to bit n-1.
    """

    indices: frozenset[int]

    def __post_init__(self) -> None:
        if not isinstance(self.indices, frozenset):
            object.__setattr__(self, "indices", frozenset(self.indices))
        for n in self.indices:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ParameterDomainError(
                    f"mask indices must be integers >= 1, got {n!r}"
                )

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "SupportMask":
        return cls(frozenset(indices))

    @classmethod
    def from_word(cls, word: int) -> "SupportMask":
        if not isinstance(word, int) or word < 0:
            raise ParameterDomainError(f"bit word must be a nonnegative integer, got {word!r}")
        return cls(frozenset(n + 1 for n in range(word.bit_length()) if (word >> n) & 1))

    @property
    def word(self) -> int:
        return sum(1 << (n - 1) for n in self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, n: int) -> bool:
        return n in self.indices

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.indices))


def _check_atom_domain(n: int, l: int, N: int) -> None:
    if not isinstance(N, int) or N < 1:
        raise ParameterDomainError(f"N must be a positive integer, got {N!r}")
    if not isinstance(l, int) or not 0 <= l <= N - 1:
        raise ParameterDomainError(f"l must satisfy 0 <= l <= N-1, got l={l!r} with N={N}")
    if not isinstance(n, int) or not 1 <= n <= N:
        raise ParameterDomainError(f"n must satisfy 1 <= n <= N, got n={n!r} with N={N}")


def dft_atom(n: int, l: int, N: int) -> complex:
    """Unit atom exp(-2*pi*j*n*l/N) attached to sample n at frequency l.

    The angle is reduced with exact integer arithmetic on n*l mod N before the
    trigonometric call, so large indices lose no precision; the result has
    unit modulus to within 1e-15.
    """
    _check_atom_domain(n, l, N)
    r = (n * l) % N
    theta = 2.0 * math.pi * r / N
    return complex(math.cos(theta), -math.sin(theta))


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


def _kahan_sum(terms: Iterable[float]) -> float:
    total = 0.0
    comp = 0.0
    for x in terms:
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def evaluate(mask: SupportMask, params: ModelParams, part: Part):
    """Deterministic value of one mask: the atom sum or one of its parts.

    The real and imaginary selectors return the components of the complex
    sum itself, so the imaginary part carries the minus sign of the -sin
    convention.  Sums use compensated (Kahan) accumulation; the error budget
    is 1e-12 * N on every contract downstream.
    """
    if not isinstance(part, Part):
        raise ParameterDomainError(f"part must be a Part, got {part!r}")
    if part is Part.MODULUS_CENTERED:
        raise ParameterDomainError(
            "modulus_centered needs a distribution-level expectation; "
            "evaluate() sees a single mask"
        )
    for n in mask.indices:
        if n > params.N:
            raise ParameterDomainError(
                f"mask index {n} exceeds N={params.N}"
            )
    atoms = [dft_atom(n, params.l, params.N) for n in mask]
    re = _kahan_sum(a.real for a in atoms)
    im = _kahan_sum(a.imag for a in atoms)
    if part is Part.COMPLEX:
        return complex(re, im)
    if part is Part.REAL:
        return re
    if part is Part.IMAG:
        return im
    return math.hypot(re, im)


def _inclusion_threshold(m: int, N: int) -> int:
    # Keep index n iff a uniform 64-bit integer u satisfies u * N < m * 2**64,
    # i.e. u < ceil(m * 2**64 / N): exact integer comparison, no float bias.
    return -((-m << 64) // N)


def sample_mask(params: ModelParams, rng: np.random.Generator) -> SupportMask:
    """Draw a Bernoulli(m/N) mask from ``rng`` via exact integer thresholding."""
    if params.m == params.N:
        return SupportMask(frozenset(range(1, params.N + 1)))
    threshold = np.uint64(_inclusion_threshold(params.m, params.N))
    u = rng.integers(0, 2**64, size=params.N, dtype=np.uint64)
    kept = np.nonzero(u < threshold)[0] + 1
    return SupportMask(frozenset(int(n) for n in kept))


def trig_sums(N: int, l: int) -> tuple[float, float]:
    """Compensated sums of cos and sin of 4*k*l*pi/N over k = 1..N.

    Both sums vanish within 1e-10 * N whenever N != 2l; when N == 2l every
    angle is a multiple of 2*pi and the result is (N, 0) to the same
    tolerance.  l = 0 (and l >= N) are outside the identity's hypotheses.
    """
    if not isinstance(N, int) or N < 1:
        raise ParameterDomainError(f"N must be a positive integer, got {N!r}")
    if not isinstance(l, int) or not 1 <= l <= N - 1:
        raise ParameterDomainError(f"l must satisfy 1 <= l <= N-1, got l={l!r} with N={N}")
    cos_terms = []
    sin_terms = []
    for k in range(1, N + 1):
        r = (2 * k * l) % N
        theta = 2.0 * math.pi * r / N
        cos_terms.append(math.cos(theta))
        sin_terms.append(math.sin(theta))
    return _kahan_sum(cos_terms), _kahan_sum(sin_terms)


class FormKind(enum.Enum):
    BINOMIAL = "binomial"
    DIFFERENCE_OF_BINOMIALS = "difference_of_binomials"
    GENERIC = "generic"


@dataclass(frozen=True)
class SpecialForm:
    """Structural classification of the law of the complex sum.

    ``trials`` is N for the binomial case and l for the difference case,
    where the law is B' - B'' with two independent Binomial(l, m/N) copies.
    """

    kind: FormKind
    trials: int | None = None
    p: Fraction | None = None


def special_form(params: ModelParams) -> SpecialForm:
    """Classify params: l = 0 collapses to Binomial(N, m/N); N = 2l to a
    difference of two independent Binomial(l, m/N) counts; else generic."""
    if params.is_dc:
        return SpecialForm(FormKind.BINOMIAL, trials=params.N, p=params.p)
    if params.is_degenerate_2l:
        return SpecialForm(FormKind.DIFFERENCE_OF_BINOMIALS, trials=params.l, p=params.p)
    return SpecialForm(FormKind.GENERIC)
