"""Exception types shared across the package."""

__all__ = [
    "SizeLimitError",
    "InfeasibleMomentsError",
    "RankDeficiencyError",
    "UnsupportedStructureError",
]


class SizeLimitError(Exception):
    """Input exceeds the desk-scale guard of an exact-algebra routine."""


class InfeasibleMomentsError(Exception):
    """Moment targets lie on or outside the moment polytope of the model."""


class RankDeficiencyError(Exception):
    """Linearly dependent constraints leave the fit underdetermined."""


class UnsupportedStructureError(Exception):
    """The computed basis is not triangular enough for back-substitution."""
