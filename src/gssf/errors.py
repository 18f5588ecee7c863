"""Exception types raised by validation and precondition checks."""


class GssfError(ValueError):
    """Base class for every error raised by this package."""


class DimensionMismatch(GssfError):
    """A vector or matrix has the wrong dimension for the operation."""


class DependentInput(GssfError):
    """Input vectors are linearly dependent below the rank pivot."""


class NotOrthonormal(GssfError):
    """Vectors expected to be orthonormal are not, within tolerance."""


class XiNotTangent(GssfError):
    """A structure vector field does not lie in the proposed tangent span."""


class BadShape(GssfError):
    """An array or coefficient block has inconsistent shape or content."""


class NotTangent(GssfError):
    """A vector expected to be tangent to the submanifold is not."""


class NotUnitVector(GssfError):
    """A vector expected to have unit length does not."""


class NotInL(GssfError):
    """A vector is not in the distribution orthogonal to the structure vectors."""


class NotMinimal(GssfError):
    """The operation requires a vanishing mean curvature vector."""


class VariantPreconditionViolated(GssfError):
    """A specialized bound was requested on data that does not satisfy it."""


class BadK(GssfError):
    """The algebraic lemma needs at least two numbers."""


class BadConfig(GssfError):
    """A generator or scenario configuration is invalid."""


class UsageError(GssfError):
    """The command line does not match the command's usage."""


class SchemaViolation(GssfError):
    """A scenario document does not match the scenario schema."""


class NonFinite(GssfError):
    """An input number or a computed value is infinite or not a number."""


class BadDimension(GssfError):
    """The ambient model is too small for the requested construction."""

