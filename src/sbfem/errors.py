"""Exception types shared across the package."""


class SbfemError(Exception):
    """Base class for all package errors."""


class MeshError(SbfemError):
    """Invalid mesh topology or failed validation."""


class QuadratureError(SbfemError):
    """Unsupported or non-integrable quadrature request."""


class SpectrumError(SbfemError):
    """Defective or unexpected eigenstructure of an S-element."""

    selement: int | None = None   # id of the S-element the message names


class AssemblyError(SbfemError):
    """Inconsistent degrees of freedom during assembly."""


class SolveError(SbfemError):
    """Linear solver failure or conditioning problem."""


class ConfigError(SbfemError):
    """Malformed run configuration."""
