"""Exception types shared across the package."""


class PosQubitError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianError(PosQubitError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class DegenerateSpectrumError(PosQubitError):
    """Eigenvectors are not unique because the spectrum is degenerate."""


class BasisMismatchError(PosQubitError):
    """A state or basis was supplied in a form the operation does not accept."""


class SignalDomainError(PosQubitError):
    """A tabulated signal was evaluated outside its sampled domain."""


class ZeroProbabilityError(PosQubitError):
    """A projective outcome with (numerically) zero probability was requested."""


class InvalidDensityError(PosQubitError):
    """A density matrix failed Hermiticity or unit-trace validation."""


class OccupancyNotNormalizedError(PosQubitError):
    """Mean-field occupancies for a double-dot do not sum to one."""


class GridTooCoarseError(PosQubitError):
    """A spatial grid is too coarse to resolve the requested basis."""


class QuadratureNotConvergedError(PosQubitError):
    """A numerical integral did not converge under grid refinement."""


class ConfigError(PosQubitError):
    """A scenario configuration file is malformed or inconsistent."""
