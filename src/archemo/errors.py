"""Exception types shared across the package."""


class NumericsError(RuntimeError):
    """A numerical procedure failed (solver divergence, instability, ...)."""


class EllipticSolveError(NumericsError):
    """A screened-Poisson solve was ill-posed (decay <= 0) or missed its residual tolerance."""


class CFLViolation(NumericsError):
    """The configured time step exceeds the advective stability bound."""


class RecoveryError(NumericsError):
    """A stage of the parameter-recovery pipeline could not complete."""
