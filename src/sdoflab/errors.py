"""Exception types shared across the package."""


class SdofLabError(Exception):
    """Base class for all errors raised by sdoflab.

    ``member`` is the index of the failing matrix when a function on a
    stack of matrices fails for that member alone, else None.
    """

    member: int | None = None


class InvalidMatrix(SdofLabError):
    """A matrix argument contains non-finite entries or has an unusable shape."""


class DimensionMismatch(SdofLabError):
    """Operands live in incompatible spaces."""


class Unsolvable(SdofLabError):
    """A constrained solve has no solution within tolerance."""


class InfeasibleAllocation(SdofLabError):
    """A jamming allocation asks for more dimensions than the channel offers."""


class NumericalFailure(SdofLabError):
    """A numerical routine produced an unusable result."""


class InsufficientData(SdofLabError):
    """Not enough samples or grid points for the requested estimate."""


def located(exc: SdofLabError, where: str) -> SdofLabError:
    """A new error of ``exc``'s type, its message prefixed with ``where``.

    Callers name what reproduces the failure (config, trial, seed) and
    raise it ``from exc``; keeping the type keeps the CLI exit code.
    """
    return type(exc)(f"{where}: {exc}")
