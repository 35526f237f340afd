"""Exception taxonomy shared across the package."""


class SpectralMaskError(Exception):
    """Base class for all library-specific errors."""


class ParameterDomainError(SpectralMaskError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class HypothesisViolationError(SpectralMaskError, ValueError):
    """A closed form was invoked outside the hypotheses under which it is
    claimed; the library refuses to extrapolate silently."""


class CapabilityError(SpectralMaskError, RuntimeError):
    """The request exceeds a resource limit (the exact oracle's count type,
    key width or table bytes, or the bytes ``mc_psi2`` would hold)."""


class QueryError(SpectralMaskError, LookupError):
    """A result was requested that the producing run never registered."""
