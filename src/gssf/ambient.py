"""Ambient metric f-manifold model at a point.

The model lives on R^{2m+2} with the identity metric.  A rank-2m
endomorphism f together with two distinguished unit directions xi_1,
xi_2 (and their dual forms eta_alpha(X) = <X, xi_alpha>) satisfies

    f^3 + f = 0,   f xi_alpha = 0,   eta_alpha . f = 0,
    f^2 = -I + sum_alpha eta_alpha (x) xi_alpha,
    g(X, Y) = g(fX, fY) + sum_alpha eta_alpha(X) eta_alpha(Y).

Curvature is modeled by seven scalars F1, F2, F3, F11, F12, F21, F22
weighting four fixed tensors; the sign convention is

    R(X, Y, Z, W) = g(R(X, Y)Z, W),   K(X ^ Y) = R(X, Y, Y, X),

so that the F1 term alone reproduces constant sectional curvature F1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, BadDimension
from .frames import as_vec

#: largest m of a model; it bounds the (2m + 2)^2 arrays built per model
MAX_M = 256


@dataclass(frozen=True)
class StructureFunctions:
    """Values of the seven curvature-defining scalars at the working point."""

    f1: float
    f2: float
    f3: float
    f11: float
    f12: float
    f21: float
    f22: float

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise BadConfig(f"structure function {name} must be finite")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.f1, self.f2, self.f3, self.f11, self.f12, self.f21, self.f22)

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))

    def pair_matrix(self) -> np.ndarray:
        """The 2x2 block [[F11, F12], [F21, F22]]."""
        return np.array([[self.f11, self.f12], [self.f21, self.f22]])


@dataclass(frozen=True, eq=False)
class AmbientModel:
    """Euclidean coordinate model of dimension 2m + 2 carrying f and xi_1, xi_2.

    The metric is the identity in model coordinates; curved data is
    expressed by pre-transforming frames, never by changing the metric.
    """

    m: int
    f_matrix: np.ndarray
    xi: np.ndarray  # (2, dim), rows are xi_1, xi_2

    def __post_init__(self):
        f = np.array(self.f_matrix, dtype=float)
        xi = np.array(self.xi, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise BadConfig("f must be a square matrix")
        if xi.shape != (2, f.shape[0]):
            raise BadConfig("xi must hold two vectors of ambient dimension")
        f.setflags(write=False)
        xi.setflags(write=False)
        object.__setattr__(self, "f_matrix", f)
        object.__setattr__(self, "xi", xi)

    @property
    def dim(self) -> int:
        return self.f_matrix.shape[0]


@functools.lru_cache(maxsize=64)
def canonical_model(m: int) -> AmbientModel:
    """Coordinate model (x_1, y_1, ..., x_m, y_m, z_1, z_2).

    f sends dx_i -> dy_i, dy_i -> -dx_i and annihilates dz_1, dz_2;
    the structure vectors are xi_alpha = dz_alpha.  Every entry is 0 or
    +-1, so the f-structure axioms hold exactly, with no rounding.
    Models are immutable, so instances are cached and shared.
    """
    if not 1 <= m <= MAX_M:
        raise BadDimension(f"m must be an integer in 1..{MAX_M}, got {m}")
    dim = 2 * m + 2
    f = np.zeros((dim, dim))
    for k in range(m):
        f[2 * k + 1, 2 * k] = 1.0   # f dx_k = dy_k
        f[2 * k, 2 * k + 1] = -1.0  # f dy_k = -dx_k
    xi = np.zeros((2, dim))
    xi[0, 2 * m] = 1.0
    xi[1, 2 * m + 1] = 1.0
    return AmbientModel(m=m, f_matrix=f, xi=xi)


#: each family's structure functions at its curvature c, affine in c
_PRESETS = {
    "s_space_form": lambda c: StructureFunctions(
        f1=(c + 6.0) / 4.0, f2=(c - 2.0) / 4.0, f3=(c - 2.0) / 4.0,
        f11=(c + 2.0) / 4.0, f12=-1.0, f21=-1.0, f22=(c + 2.0) / 4.0),
    "c_space_form": lambda c: StructureFunctions(*[c / 4.0] * 4, 0.0, 0.0, c / 4.0),
    "real_space_form": lambda c: StructureFunctions(c, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}


def preset_structure_functions(kind: str, c: float) -> StructureFunctions:
    """Structure-function values of the classical constant-curvature families.

    ``c`` is the constant f-sectional curvature (plain sectional
    curvature for ``real_space_form``).
    """
    if kind not in _PRESETS:
        raise BadConfig(f"unknown preset {kind!r}; expected one of {tuple(_PRESETS)}")
    return _PRESETS[kind](c)


def ambient_curvature(model: AmbientModel, functions: StructureFunctions,
                      x, y, z, w) -> float:
    """g(R(X, Y)Z, W) of the seven-function curvature model.

    Multilinear in all four slots and antisymmetric in (X, Y); evaluated
    directly from the defining tensors, with no orthonormality
    assumption on the arguments.
    """
    dim = model.dim
    X = as_vec(x, dim)
    Y = as_vec(y, dim)
    Z = as_vec(z, dim)
    W = as_vec(w, dim)
    f = model.f_matrix
    fX, fY, fZ = f @ X, f @ Y, f @ Z
    eX, eY, eZ, eW = model.xi @ X, model.xi @ Y, model.xi @ Z, model.xi @ W

    r1 = (Y @ Z) * (X @ W) - (X @ Z) * (Y @ W)
    r2 = (X @ fZ) * (fY @ W) - (Y @ fZ) * (fX @ W) + 2.0 * (X @ fY) * (fZ @ W)
    r3 = (eX[0] * eY[1] - eX[1] * eY[0]) * (eZ[1] * eW[0] - eZ[0] * eW[1])

    pair = functions.pair_matrix()
    rij = 0.0
    for i in range(2):
        for j in range(2):
            rij += pair[i, j] * (
                eX[i] * eZ[j] * (Y @ W)
                - eY[i] * eZ[j] * (X @ W)
                + (X @ Z) * eY[i] * eW[j]
                - (Y @ Z) * eX[i] * eW[j]
            )
    return float(functions.f1 * r1 + functions.f2 * r2 + functions.f3 * r3 + rij)


def frame_sectional(functions: StructureFunctions, phi: np.ndarray,
                    eta: np.ndarray) -> np.ndarray:
    """Plane curvatures K(e_i ^ e_j) of an orthonormal frame in the model.

    ``phi[i, j] = <e_i, f e_j>`` and ``eta[i, a] = eta_a(e_i)``.  Returns
    the symmetric matrix of sectional values with a zero diagonal.  This
    is the closed form of :func:`ambient_curvature` on orthonormal pairs,
    used in frame summations.  On stacked frames each field of ``functions``
    is a (..., 1, 1) array and its ``pair_matrix()`` a (..., 2, 2) one.
    """
    f = functions
    d1, d2 = eta[..., :, :1], eta[..., :, 1:]  # columns; .mT are the rows
    q = np.einsum("...ia,...ab,...ib->...i", eta, f.pair_matrix(), eta)
    k = (f.f1 + 3.0 * f.f2 * phi ** 2 + f.f3 * (d1 * d2.mT - d2 * d1.mT) ** 2
         - (q[..., :, None] + q[..., None, :]))
    np.einsum("...ii->...i", k)[...] = 0.0  # a view of the diagonal
    return k
