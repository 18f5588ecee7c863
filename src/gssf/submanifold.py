"""Pointwise submanifold data and derived curvature invariants.

A point bundles an orthonormal tangent frame whose last two vectors are
the structure vectors xi_1, xi_2, and formal second fundamental form
coefficients sigma[r][i][j] over that frame and an orthonormal normal
frame, which no invariant needs in coordinates.  The coefficients are
input data, not derived from an immersion: every implemented identity
and bound is frame algebra, so it holds for formal data and can be
fuzzed.  Constraints coming from genuine geometry (for instance
sigma(X, xi_alpha) = 0 over a flat-normal structure) are opt-in flags.

Induced curvature follows the Gauss equation

    R(X, Y, Z, W) = R~(X, Y, Z, W)
                    + g(sigma(X, W), sigma(Y, Z))
                    - g(sigma(X, Z), sigma(Y, W)),

with the ambient R~ evaluated in the seven-function model; the
tangential/normal split of f is fX = TX + NX.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ambient import AmbientModel, StructureFunctions, ambient_curvature, frame_sectional
from .config import DEFAULT, Tolerances
from .errors import (
    BadShape,
    DependentInput,
    DimensionMismatch,
    NonFinite,
    NotInL,
    NotTangent,
    NotUnitVector,
    XiNotTangent,
)
from .frames import Basis, Vec, as_vec


def finite(value, what: str):
    """``value``, a number or an array, if it is finite throughout; else
    ``NonFinite`` saying that ``what`` is not finite.  Each value that can
    leave the float range is checked with this where it is built."""
    ok = np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)
    if not ok:
        raise NonFinite(f"{what} is not finite")
    return value


@dataclass(frozen=True, eq=False)
class SecondFundamentalForm:
    """Formal coefficients sigma[r][i][j] over normal and tangent frames.

    The first axis indexes the normal frame, the last two the tangent
    frame; symmetry in (i, j) is required exactly.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise BadShape("coefficients must have shape (normals, t, t)")
        if not np.all(np.isfinite(c)):
            raise BadShape("coefficients must be finite")
        finite(np.vdot(c, c), "the coefficients' sum of squares")  # BLAS: no warning
        if not np.array_equal(c, np.swapaxes(c, 1, 2)):
            raise BadShape("coefficients must be symmetric in the tangent indices")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, normal_rank: int, tangent_dim: int) -> "SecondFundamentalForm":
        return cls(np.zeros((normal_rank, tangent_dim, tangent_dim)))


@dataclass(frozen=True)
class PointFlags:
    #: enforce sigma(X, xi_alpha) = 0, the constraint a flat-normal
    #: ambient structure imposes on genuine immersions
    c_compatible: bool = False


@dataclass(frozen=True)
class SlantResult:
    """Outcome of probing the angle between f X and the tangent space."""

    kind: str  # "slant" | "not_slant" | "indeterminate"
    angle: float | None
    spread: float

    @property
    def is_slant(self) -> bool:
        return self.kind == "slant"


@dataclass(frozen=True)
class InvariantReport:
    h_normal: np.ndarray  # mean curvature vector in normal-frame coordinates
    h_norm_sq: float
    sigma_norm_sq: float
    t_norm_sq: float
    n_norm_sq: float
    tau: float
    slant: SlantResult


@dataclass(frozen=True)
class ScalarIdentityReport:
    """Twice the scalar curvature against its closed form.  Both sides sum
    terms up to ``scale`` = max(1, |2 tau|, |each closed-form term|) in size,
    so their rounding grows with it even where the terms cancel."""

    lhs: float
    rhs: float
    abs_diff: float
    scale: float

    def holds(self, tol: Tolerances) -> bool:
        """Whether the two sides agree to ``tol.equality`` relative to ``scale``."""
        return self.abs_diff <= tol.equality * self.scale


@dataclass(frozen=True)
class SffClassification:
    minimal: bool
    totally_geodesic: bool
    totally_umbilical: bool
    totally_f_geodesic: bool
    totally_f_umbilical: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "minimal": self.minimal,
            "totally_geodesic": self.totally_geodesic,
            "totally_umbilical": self.totally_umbilical,
            "totally_f_geodesic": self.totally_f_geodesic,
            "totally_f_umbilical": self.totally_f_umbilical,
        }


@dataclass(frozen=True, eq=False)
class SubmanifoldPoint:
    """Immutable pointwise data; all derived quantities are pure queries."""

    ambient: AmbientModel
    functions: StructureFunctions
    tangent: Basis
    sff: SecondFundamentalForm
    flags: PointFlags = field(default_factory=PointFlags)

    @property
    def n(self) -> int:
        """Dimension of the distribution orthogonal to the structure vectors."""
        return len(self.tangent) - 2

    @property
    def normal_rank(self) -> int:
        return self.ambient.dim - len(self.tangent)

    @cached_property
    def phi(self) -> np.ndarray:
        """phi[i, j] = <e_i, f e_j> over the tangent frame."""
        e = self.tangent.matrix
        return e @ self.ambient.f_matrix @ e.T

    @cached_property
    def eta_frame(self) -> np.ndarray:
        """eta[i, a] = eta_a(e_i) over the tangent frame."""
        return self.tangent.matrix @ self.ambient.xi.T

    @cached_property
    def sectional_matrix(self) -> np.ndarray:
        """Induced plane curvatures K(e_i ^ e_j) over the tangent frame.
        Raises NonFinite when one of them overflows."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            k = frame_sectional(self.functions, self.phi, self.eta_frame)
            k = k + _gauss_matrix(self.sff.coeffs)
        np.fill_diagonal(k, 0.0)
        return finite(k, "an induced sectional curvature")

    @cached_property
    def tau(self) -> float:
        """Scalar curvature: half the sum of K over ordered frame pairs.
        Raises NonFinite when the sum overflows."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            return finite(float(np.triu(self.sectional_matrix, 1).sum()),
                          "the scalar curvature tau")

    @cached_property
    def h_normal(self) -> np.ndarray:
        """Mean curvature vector in normal-frame coordinates."""
        traces = np.einsum("rii->r", self.sff.coeffs)
        return traces / (self.n + 2)

    @cached_property
    def h_norm_sq(self) -> float:
        return float(self.h_normal @ self.h_normal)

    @cached_property
    def t_norm_sq(self) -> float:
        n = self.n
        return float(np.sum(self.phi[:n, :n] ** 2))

    @cached_property
    def t_form(self) -> np.ndarray:
        """g(T e_i, T e_k) over the L-frame, so |TU|^2 = c . t_form . c for the
        L-frame coordinates c of U; every question about |TU| over all of L
        is an eigenvalue problem of this matrix."""
        phi_l = self.phi[:, :self.n]
        return phi_l.T @ phi_l

    @cached_property
    def ricci_form(self) -> np.ndarray:
        """Ric(e_i, e_k) over the L-frame, so Ric(U) = c . ricci_form . c for
        the L-frame coordinates c of a unit U in L.

        The ambient part is ((n+1) F1 - (F11 + F22)) g + 3 F2 g(T., T.),
        the Gauss part sum_r tr(sigma_r) sigma_r - <sigma_r ., sigma_r .>.
        Raises NonFinite when an entry overflows.
        """
        n = self.n
        f = self.functions
        s = self.sff.coeffs
        s_l = s[:, :, :n]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            ambient = (((n + 1) * f.f1 - (f.f11 + f.f22)) * np.eye(n)
                       + 3.0 * f.f2 * self.t_form)
            gauss = (np.einsum("r,rik->ik", np.einsum("rjj->r", s), s_l[:, :n])
                     - np.einsum("rji,rjk->ik", s_l, s_l))
            return finite(ambient + gauss, "an entry of the Ricci form")

    def tangent_coords(self, x, tol: Tolerances = DEFAULT) -> np.ndarray:
        """Coordinates of a tangent vector in the tangent frame."""
        v = as_vec(x, dim=self.ambient.dim)
        coords = self.tangent.matrix @ v
        residual = np.linalg.norm(v - self.tangent.matrix.T @ coords)
        if residual > tol.tangency:
            raise NotTangent(f"vector is off the tangent space by {residual:.3e}")
        return coords

    def l_coords(self, x, tol: Tolerances = DEFAULT) -> np.ndarray:
        """Tangent-frame coordinates of a vector required to lie in L."""
        try:
            coords = self.tangent_coords(x, tol)
        except NotTangent as exc:
            raise NotInL(str(exc)) from exc
        xi_part = np.max(np.abs(coords[self.n:])) if self.n < len(coords) else 0.0
        if xi_part > tol.tangency:
            raise NotInL(
                f"vector has structure-vector components of size {xi_part:.3e}"
            )
        return coords


def _gauss_matrix(sigma: np.ndarray) -> np.ndarray:
    """Second-fundamental-form contribution to frame plane curvatures."""
    diag = np.einsum("rii->ri", sigma)
    return np.einsum("ri,rj->ij", diag, diag) - np.einsum("rij,rij->ij", sigma, sigma)


def attach_point(ambient: AmbientModel, functions: StructureFunctions,
                 raw_tangent, sff: SecondFundamentalForm,
                 flags: PointFlags | None = None,
                 tol: Tolerances = DEFAULT) -> SubmanifoldPoint:
    """Assemble and validate a submanifold point from raw tangent data.

    The raw vectors must be linearly independent and their span must
    contain both structure vectors.  The returned tangent frame holds an
    orthonormalized L-part (input order preserved) followed by xi_1,
    xi_2 exactly.
    """
    raw = _raw_vectors(raw_tangent, ambient.dim)
    check_frames(raw[None], ambient.xi, tol)
    return point_on_checked_frame(ambient, functions, raw, sff, flags or PointFlags(), tol)


def _raw_vectors(raw_tangent, dim: int) -> np.ndarray:
    """The raw tangent vectors as the rows of one array of width ``dim``."""
    try:
        raw = np.asarray(raw_tangent, dtype=float)
    except ValueError as exc:
        if len({np.shape(v) for v in raw_tangent}) > 1:  # vectors of unequal length
            raise DimensionMismatch("tangent vectors must share one dimension") from exc
        raise
    if raw.ndim != 2:
        raise BadShape(f"expected one 1-D vector per row, got array of shape {raw.shape}")
    if raw.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {raw.shape[1]}")
    return raw


def check_frames(frames: np.ndarray, xi: np.ndarray, tol: Tolerances) -> None:
    """Every input check on a stack of raw frames, shape (frames, vectors,
    dim): finiteness, count, rank and tangency of xi_1, xi_2.  The error
    and its detail are those of the first frame that fails the first
    failing check, so a stack of one checks a single frame.

    ``|R_ii| / |v_i|`` of ``frame.T = QR`` is the distance of v_i from the
    span of the vectors before it, relative to its length: the pivot
    Gram-Schmidt compares with ``rank_pivot``.
    """
    count, dim = frames.shape[1:]
    if not np.all(np.isfinite(frames)):
        raise BadShape("vector entries must be finite")
    if count < 2:
        raise BadShape("the tangent span must contain both structure vectors")
    with np.errstate(over="ignore"):  # checked below
        sq_norms = finite(np.einsum("bij,bij->bi", frames, frames),
                          "a tangent vector's squared norm")

    if count > dim:
        raise DependentInput(f"{count} vectors cannot be independent in dimension {dim}")
    if not np.all(sq_norms > 0.0):
        raise DependentInput("zero vector in input")
    q, r = np.linalg.qr(frames.transpose(0, 2, 1))
    pivots = np.abs(np.diagonal(r, axis1=1, axis2=2)) / np.sqrt(sq_norms)
    deficient = np.any(pivots < tol.rank_pivot, axis=1)
    if deficient.any():
        pivot = pivots[np.argmax(deficient)].min()
        raise DependentInput(f"rank deficiency detected (pivot {pivot:.3e})")
    residuals = np.linalg.norm(xi - (xi @ q) @ q.transpose(0, 2, 1), axis=2)
    off_span = residuals > tol.tangency
    if off_span.any():
        b, alpha = np.argwhere(off_span)[0]
        raise XiNotTangent(
            f"xi_{alpha + 1} is off the tangent span by {residuals[b, alpha]:.3e}"
        )


def point_on_checked_frame(ambient: AmbientModel, functions: StructureFunctions,
                           raw: np.ndarray, sff: SecondFundamentalForm,
                           flags: PointFlags, tol: Tolerances) -> SubmanifoldPoint:
    """The point of ``attach_point`` on raw vectors, the rows of ``raw``,
    that ``check_frames`` has passed."""
    # Strip structure components, then orthonormalize what is left of each
    # input vector; vectors that were pure xi combinations drop out.
    l_rows: list[Vec] = []
    for v in raw:
        w = v - ambient.xi.T @ (ambient.xi @ v)
        if not w.any():
            continue
        for _ in range(2):
            for u in l_rows:
                w -= (w @ u) * u
        norm = float(np.linalg.norm(w))
        if norm > tol.tangency:
            l_rows.append(w / norm)
    if len(l_rows) != len(raw) - 2:
        raise DependentInput(
            "tangent span does not split into an L-part plus the structure vectors"
        )

    tangent = Basis(np.vstack(l_rows + [ambient.xi[0], ambient.xi[1]]), tol)
    n = len(tangent) - 2

    expected = (ambient.dim - len(tangent), n + 2, n + 2)
    if sff.coeffs.shape != expected:
        raise BadShape(
            f"second fundamental form has shape {sff.coeffs.shape}, expected {expected}"
        )
    if flags.c_compatible and sff.coeffs.size:
        xi_block = sff.coeffs[:, n:, :]
        if np.any(xi_block != 0.0):
            raise BadShape(
                "c_compatible flag requires sigma(., xi_alpha) = 0 exactly"
            )
    return SubmanifoldPoint(ambient=ambient, functions=functions,
                            tangent=tangent, sff=sff, flags=flags)


def induced_curvature(point: SubmanifoldPoint, x, y, z, w,
                      tol: Tolerances = DEFAULT) -> float:
    """Gauss-equation curvature R(X, Y, Z, W) for tangent vectors."""
    a = point.tangent_coords(x, tol)
    b = point.tangent_coords(y, tol)
    c = point.tangent_coords(z, tol)
    d = point.tangent_coords(w, tol)
    s = point.sff.coeffs
    sig = lambda p, q: np.einsum("rij,i,j->r", s, p, q)
    amb = ambient_curvature(point.ambient, point.functions, x, y, z, w)
    return float(amb + sig(a, d) @ sig(b, c) - sig(a, c) @ sig(b, d))


def slant_probe(point: SubmanifoldPoint, tol: Tolerances = DEFAULT) -> SlantResult:
    """The range of the angle between f U and the tangent space over all
    unit U in L, and whether it is constant (a slant point).

    |fU| = |U| on L, so the cosine of the angle at U is
    |TU| = sqrt(c . t_form . c) for the L-frame coordinates c of U: the
    eigenvectors of ``t_form`` for its largest and smallest eigenvalue
    attain the smallest and largest angle.  |TU| is taken at those
    vectors rather than as the root of a rounded eigenvalue, which would
    turn 1e-16 into 1e-8.  ``angle`` is the middle of the range and
    ``spread`` half its width; the point is slant when the spread is
    below ``tol.slant_spread``.  Without L (n = 0) the result is
    indeterminate.
    """
    n = point.n
    if n == 0:
        return SlantResult("indeterminate", None, 0.0)
    _, vecs = np.linalg.eigh(point.t_form)
    cosines = np.linalg.norm(point.phi[:, :n] @ vecs[:, [-1, 0]], axis=0)
    low, high = np.arccos(np.clip(cosines, 0.0, 1.0))
    spread = float(high - low) / 2.0
    if spread < tol.slant_spread:
        return SlantResult("slant", float(low + high) / 2.0, spread)
    return SlantResult("not_slant", None, spread)


def invariant_report(point: SubmanifoldPoint, tol: Tolerances = DEFAULT) -> InvariantReport:
    """All pointwise invariants: H, |sigma|^2, |T|^2, |N|^2, tau, slant."""
    n = point.n
    e_l = point.tangent.matrix[:n]
    f_images = e_l @ point.ambient.f_matrix.T
    t_parts_sq = np.sum(point.phi[:, :n] ** 2, axis=0)
    n_norm_sq = float(np.sum(f_images ** 2) - np.sum(t_parts_sq))
    return InvariantReport(
        h_normal=point.h_normal,
        h_norm_sq=point.h_norm_sq,
        sigma_norm_sq=float(np.sum(point.sff.coeffs ** 2)),
        t_norm_sq=point.t_norm_sq,
        n_norm_sq=n_norm_sq,
        tau=point.tau,
        slant=slant_probe(point, tol=tol),
    )


def scalar_identity_check(point: SubmanifoldPoint) -> ScalarIdentityReport:
    """Brute-force 2*tau against its closed form in H, sigma, T and the scalars.

    The closed form is

        (n+1)(n+2) F1 - 2(n+1)(F11 + F22) + 2 F3
        + 3 F2 |T|^2 + (n+2)^2 |H|^2 - |sigma|^2,

    an identity for arbitrary formal coefficients; the frame summation on
    the left is the independent oracle.  Raises NonFinite when either side
    or their difference is not finite.
    """
    n = point.n
    f = point.functions
    lhs = 2.0 * point.tau
    terms = ((n + 1) * (n + 2) * f.f1, -2.0 * (n + 1) * (f.f11 + f.f22), 2.0 * f.f3,
             3.0 * f.f2 * point.t_norm_sq, (n + 2) ** 2 * point.h_norm_sq,
             -float(np.sum(point.sff.coeffs ** 2)))
    rhs = terms[0] + terms[1] + terms[2] + terms[3] + terms[4] + terms[5]
    abs_diff = finite(abs(lhs - rhs), "scalar_identity's 2 tau - closed form")
    return ScalarIdentityReport(lhs=lhs, rhs=rhs, abs_diff=abs_diff,
                                scale=max(1.0, abs(lhs), *map(abs, terms)))


def _require_unit_l(point: SubmanifoldPoint, u, tol: Tolerances) -> np.ndarray:
    """L-frame coordinates of a unit direction U in L, rescaled to unit length.

    U must have unit length and lie in L, both within ``tol.tangency``.
    """
    v = as_vec(u, dim=point.ambient.dim)
    if abs(np.linalg.norm(v) - 1.0) > tol.tangency:
        raise NotUnitVector("direction must have unit length")
    c = point.l_coords(v, tol)[:point.n]
    return c / np.linalg.norm(c)


def relative_null_space(point: SubmanifoldPoint, tol: Tolerances = DEFAULT) -> list[Vec]:
    """Orthonormal basis of the kernel of X -> sigma(X, .) in the tangent space."""
    s = point.sff.coeffs
    t = point.n + 2
    m = s.transpose(0, 2, 1).reshape(-1, t)
    _, singulars, vh = np.linalg.svd(m, full_matrices=True) if m.size else (None, np.zeros(0), np.eye(t))
    rank = int(np.sum(singulars > tol.null_space_pivot))
    return [row @ point.tangent.matrix for row in vh[rank:]]


def _minimal(point: SubmanifoldPoint, tol: Tolerances) -> bool:
    """Whether H = 0: |H| <= ``tol.equality`` times max(1, max |sigma_r,ii|),
    since the rounding of each trace grows with the diagonal it sums."""
    diagonal = np.einsum("rii->ri", point.sff.coeffs)
    scale = max(1.0, float(np.max(np.abs(diagonal), initial=0.0)))
    return math.sqrt(point.h_norm_sq) <= tol.equality * scale


def classify_sff(point: SubmanifoldPoint, tol: Tolerances = DEFAULT) -> SffClassification:
    """Classical shape classes of the form coefficients.

    The f-variants test only the L x L block, so a form supported on the
    structure directions can be totally f-geodesic without being totally
    geodesic.
    """
    s = point.sff.coeffs
    n = point.n
    t = point.n + 2
    minimal = _minimal(point, tol)
    totally_geodesic = bool(np.max(np.abs(s), initial=0.0) <= tol.equality)

    fitted = s[:, 0, 0]
    umb_model = fitted[:, None, None] * np.eye(t)[None, :, :]
    totally_umbilical = bool(np.max(np.abs(s - umb_model), initial=0.0) <= tol.equality)

    l_block = s[:, :n, :n]
    totally_f_geodesic = bool(np.max(np.abs(l_block), initial=0.0) <= tol.equality)
    umb_model_l = fitted[:, None, None] * np.eye(n)[None, :, :]
    totally_f_umbilical = bool(np.max(np.abs(l_block - umb_model_l), initial=0.0) <= tol.equality)
    return SffClassification(
        minimal=minimal,
        totally_geodesic=totally_geodesic,
        totally_umbilical=totally_umbilical,
        totally_f_geodesic=totally_f_geodesic,
        totally_f_umbilical=totally_f_umbilical,
    )
