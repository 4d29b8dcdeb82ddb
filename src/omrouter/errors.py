"""Error and warning types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter, grid, band, or config entry violates its documented contract."""


class UnstableOperatingPointError(RuntimeError):
    """The linearized dynamics have a pole on or above the real frequency axis."""


class NumericalFailureError(RuntimeError):
    """A numerical routine lost accuracy.

    Raised for near-singular response denominators, root residuals beyond
    tolerance, and band integrals that are not certified or not finite.
    """


class RegimeWarning(UserWarning):
    """Parameters fall outside the resolved-sideband hierarchy the model assumes."""
