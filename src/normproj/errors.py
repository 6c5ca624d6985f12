"""Exception types shared across the package."""


class NormProjError(Exception):
    """Base class for all package-specific failures."""


class ModelNotReady(NormProjError):
    """A support-table norm was used before its table was loaded."""


class NotSmoothHere(NormProjError):
    """The Gauss map is undefined at a corner of a tabulated sphere."""


class NotStrictlyConvex(NormProjError):
    """Construction input does not describe a strictly convex norm."""


class KernelMismatch(NormProjError):
    """Two linear maps passed to the intertwiner have different kernels."""


class CurveInvariantFailed(NormProjError):
    """The sampled staircase arc breaks monotonicity, convexity or orientation."""


class DegenerateSplitting(NormProjError):
    """An angle function touches {0, pi}, so line and kernel coincide."""


class UnderResolved(NormProjError):
    """Requested box scale is below the cloud's sampling resolution."""


class LowQualityFit(NormProjError):
    """The log-log regression is too poor to quote a dimension."""


class TooLarge(NormProjError):
    """Requested generation would produce an unreasonable point count."""
