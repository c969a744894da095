"""Exception types shared across the package."""


class HoloRmtError(Exception):
    """Base class for all package errors."""


class ConfigError(HoloRmtError):
    """Invalid or malformed run configuration (CLI exit code 2)."""


class AssumptionError(HoloRmtError, ValueError):
    """A model input violates an assumption the asymptotics rely on, such as
    a non-positive profile entry (validate's pre-flight gate, CLI exit
    code 1)."""


class ConvergenceError(HoloRmtError):
    """Fixed-point iteration exhausted max_iter without converging.

    Carries the residual history so the failure can be diagnosed.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class NumericalError(HoloRmtError):
    """A factorization or solve failed, or a result left its valid regime."""


class InvalidRegimeError(NumericalError):
    """det(I - B) <= 0 or a singular linear system: the model violates the
    spectral-radius condition the variance formula relies on."""
