"""Exception types shared across the package."""


class AhxrayError(Exception):
    """Base class for all package errors."""


class DomainError(AhxrayError, ValueError):
    """A point or parameter lies outside the permitted domain."""


class TrappedGeodesicError(AhxrayError, RuntimeError):
    """A geodesic exhausted its integration budget before escaping.

    Carries the partial path computed so far in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DegenerateGeodesicError(AhxrayError, ValueError):
    """Requested geodesic with equal boundary angles."""


class RankMismatchError(AhxrayError, ValueError):
    """Bundle data of incompatible ranks were combined."""


class FanMismatchError(AhxrayError, ValueError):
    """Two scattering datasets were compared over incompatible fans."""


class DatasetError(AhxrayError, ValueError):
    """A scattering dataset file is malformed."""


class IllConditionedGaugeError(AhxrayError, RuntimeError):
    """Pair B's fundamental system W_B, inverted in the gauge quotient
    Q = W_A W_B^{-1}, became too ill-conditioned to invert."""


class InsufficientCrossingsError(AhxrayError, ValueError):
    """Not enough geodesics cross a common cell for a degree check."""


class StagnationError(AhxrayError, RuntimeError):
    """The optimizer failed to decrease the residual.

    Carries the partial report in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(AhxrayError, ValueError):
    """Malformed experiment configuration."""

    def __init__(self, message, section=None, key=None):
        loc = ""
        if section is not None:
            loc = f" (section [{section}]" + (f", key '{key}'" if key else "") + ")"
        super().__init__(message + loc)
        self.section = section
        self.key = key
