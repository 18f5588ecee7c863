"""Small dense frame utilities: orthonormalization, projection, completion.

Vectors are 1-D float64 arrays in the coordinates of the ambient
orthonormal system; a basis stores its vectors as rows of a matrix.
Everything here is value-semantic: inputs are copied, outputs are
read-only arrays, and no function keeps state between calls.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import BadShape, DependentInput, DimensionMismatch, NotOrthonormal

Vec = np.ndarray


def as_vec(x, dim: int | None = None) -> Vec:
    """Coerce to a finite 1-D float vector, optionally of a fixed dimension.

    Existing float arrays are passed through without copying; callers
    never mutate their inputs.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise BadShape(f"expected a 1-D vector, got array of shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise BadShape("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    return v


@dataclass(frozen=True, eq=False)
class Basis:
    """Ordered orthonormal set, stored as rows of ``matrix``.

    Construction validates pairwise inner products against the
    orthonormality tolerance of ``tol``; instances are immutable
    afterwards.
    """

    matrix: np.ndarray
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol: Tolerances):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise BadShape("a basis is a 2-D array with one vector per row")
        if not np.all(np.isfinite(m)):
            raise BadShape("basis entries must be finite")
        object.__setattr__(self, "matrix", m)
        defect = self.orthonormality_defect()
        if defect > tol.orthonormality:
            raise NotOrthonormal(
                f"pairwise inner products deviate from identity by {defect:.3e}"
            )
        m.setflags(write=False)

    def orthonormality_defect(self) -> float:
        k = self.matrix.shape[0]
        if k == 0:
            return 0.0
        return float(np.max(np.abs(self.matrix @ self.matrix.T - np.eye(k))))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def vectors(self) -> list[Vec]:
        return [row for row in self.matrix]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __iter__(self):
        return iter(self.matrix)


def gram_schmidt(raw, keep_tail_fixed: int = 0, tol: Tolerances = DEFAULT) -> Basis:
    """Orthonormalize ``raw`` with modified Gram-Schmidt.

    The last ``keep_tail_fixed`` vectors must already be orthonormal and
    are returned unchanged (the head is orthogonalized against them);
    the ordering of the head is preserved up to normalization.  One
    re-orthogonalization pass keeps the result stable for the small
    dimensions used here.

    Raises DependentInput when a pivot falls below the rank tolerance.
    """
    vecs = [as_vec(v) for v in raw]
    if not vecs:
        raise BadShape("cannot orthonormalize an empty set of vectors")
    dim = vecs[0].shape[0]
    for v in vecs:
        if v.shape[0] != dim:
            raise DimensionMismatch("all vectors must share one dimension")
    if not 0 <= keep_tail_fixed <= len(vecs):
        raise BadShape("keep_tail_fixed out of range")

    split = len(vecs) - keep_tail_fixed
    head, tail = vecs[:split], vecs[split:]
    if tail:
        gram = np.array(tail) @ np.array(tail).T
        if np.max(np.abs(gram - np.eye(len(tail)))) > tol.orthonormality:
            raise NotOrthonormal("fixed tail vectors must already be orthonormal")

    done: list[Vec] = list(tail)
    out_head: list[Vec] = []
    for v in head:
        scale = float(np.linalg.norm(v))
        if scale == 0.0:
            raise DependentInput("zero vector in input")
        w = v.copy()
        for _ in range(2):
            for u in done:
                w -= (w @ u) * u
            for u in out_head:
                w -= (w @ u) * u
        norm = float(np.linalg.norm(w))
        if norm < tol.rank_pivot * scale:
            raise DependentInput(
                f"rank deficiency detected (pivot {norm / scale:.3e})"
            )
        out_head.append(w / norm)
    return Basis(np.vstack(out_head + done) if out_head or done else np.zeros((0, dim)), tol)


def project(x, onto: Basis) -> Vec:
    """Orthogonal projection of ``x`` onto the span of a basis."""
    v = as_vec(x, dim=onto.dim)
    if len(onto) == 0:
        return np.zeros(onto.dim)
    return onto.matrix.T @ (onto.matrix @ v)


def complete_basis(existing: np.ndarray, count: int, candidates: np.ndarray | None = None) -> np.ndarray:
    """Extend orthonormal rows by ``count`` new orthonormal rows.

    Candidates default to the standard basis; at each step the candidate
    with the largest residual against the span built so far is taken, so
    the completion is deterministic and numerically well conditioned.
    """
    rows = np.array(existing, dtype=float)
    if rows.ndim != 2:
        raise BadShape("existing rows must form a 2-D array")
    dim = rows.shape[1]
    cands = np.eye(dim) if candidates is None else np.array(candidates, dtype=float)
    acc = np.empty((rows.shape[0] + count, dim))
    acc[: rows.shape[0]] = rows
    filled = rows.shape[0]
    for _ in range(count):
        span = acc[:filled]
        resid = cands - (cands @ span.T) @ span
        resid -= (resid @ span.T) @ span
        norms = np.linalg.norm(resid, axis=1)
        best = int(np.argmax(norms))
        if norms[best] < 1e-8:
            raise DependentInput("candidate set cannot complete the basis")
        acc[filled] = resid[best] / norms[best]
        filled += 1
    return acc[rows.shape[0]:].copy()
