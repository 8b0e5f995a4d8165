"""Exception types shared across the library."""


class ProjNormError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(ProjNormError):
    """A constructor or operation received an out-of-range argument."""


class UnderflowRisk(ProjNormError):
    """Requested geometry would produce simplex volumes too close to the
    double-precision underflow threshold to be trusted."""


class DegenerateSimplex(ProjNormError):
    """A simplex has (numerically) zero volume."""


class UnsupportedDimension(ProjNormError):
    """The operation is only defined for a specific ambient dimension."""


class MissingLabels(ProjNormError):
    """The mesh does not carry the constructor vertex labels the operation needs."""


class NotASymmetry(ProjNormError):
    """A vertex permutation does not map the simplex set onto itself."""


class NotEquivariant(ProjNormError):
    """A linear system is not constant on the orbits it is being reduced by."""


class LengthMismatch(ProjNormError):
    """A data vector does not match the mesh entity count it refers to."""


class SolveFailure(ProjNormError):
    """A linear solve failed or left an unacceptably large residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
