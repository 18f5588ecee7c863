"""Central numerical tolerances.

Every comparison threshold used by the package lives in one record so a
whole computation can be tightened or relaxed coherently.  The defaults
separate exact cancellation from O(1) defects in small dense sums.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: pairwise inner products of a basis may deviate from delta_ij by this
    orthonormality: float = 1e-10
    #: slack threshold deciding the equality case of a bound
    equality: float = 1e-9
    #: Gram-Schmidt pivot below which input counts as linearly dependent
    rank_pivot: float = 1e-12
    #: residual allowed when checking that a vector is tangent / in L
    tangency: float = 1e-9
    #: singular values below this count as zero in the null-space kernel
    null_space_pivot: float = 1e-9
    #: residual for subspace membership tests
    membership: float = 1e-8
    #: residual for matching shape-operator equality patterns
    shape_match: float = 1e-8
    #: max deviation of sampled angles for a slant diagnosis
    slant_spread: float = 1e-6


DEFAULT = Tolerances()
