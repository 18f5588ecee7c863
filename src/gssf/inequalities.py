"""Chen-type curvature bounds, defect identities and equality classifiers.

Each bound produces a :class:`BoundReport` comparing an intrinsic
left-hand side against an extrinsic right-hand side.  Two facts are used
as oracles throughout the test-suite: the general Ricci bound and the
scalar-vs-plane bound hold for arbitrary formal form coefficients, with
the general Ricci slack equal to an explicit sum of squares (its defect
terms).  The specialized S-form sharpening is reported but, being a
statement about genuine immersions, is not a formal-data theorem.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ambient import AmbientModel, StructureFunctions
from .config import DEFAULT, Tolerances
from .errors import (
    BadK,
    BadShape,
    NonFinite,
    NotMinimal,
    NotOrthonormal,
    VariantPreconditionViolated,
)
from .frames import Vec, as_vec, complete_basis
from .generators import anti_invariant_frame
from .submanifold import (
    PointFlags,
    SecondFundamentalForm,
    SubmanifoldPoint,
    _require_unit_l,
    attach_point,
    classify_sff,
    relative_null_space,
    slant_probe,
)


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: lhs <= rhs, slack = rhs - lhs.

    ``defect_terms``, when present, are named nonnegative contributions
    that sum to the slack exactly (an identity, not an estimate).
    """

    lhs: float
    rhs: float
    slack: float
    equality: bool
    defect_terms: tuple[tuple[str, float], ...] | None = None

    def defect_sum(self) -> float | None:
        if self.defect_terms is None:
            return None
        return float(sum(v for _, v in self.defect_terms))


@dataclass(frozen=True)
class ShapeOperatorForm:
    """Parameters of the shape-operator patterns that mark the equality case.

    The first normal direction carries the 2x2 block [[a, b], [b, c-a]]
    with the trailing diagonal filled by c; every further direction r
    carries a traceless block [[a_r, b_r], [b_r, -a_r]] and zeros.
    """

    a: float
    b: float
    c: float
    pairs: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class ChenLemmaReport:
    hypothesis_holds: bool
    inequality_holds: bool
    equality: bool
    equality_condition_holds: bool


@dataclass(frozen=True)
class RicciEqualityDiagnosis:
    equality: bool
    in_null_space: bool
    consistent: bool


@dataclass(frozen=True)
class CFormEqualityReport:
    all_u_equality: bool
    expected_class: str
    matches: bool


@dataclass(frozen=True)
class ShapeMatchResult:
    matches_forms: bool
    recovered: ShapeOperatorForm


@dataclass(frozen=True)
class GlobalDeltaReport:
    """The sign-split plane bound.  ``bound`` is decided on ``inf_k``, K at
    ``argmin_plane``; ``inf_k_lower`` <= inf K <= ``inf_k`` is the lower end
    of the bracket, certified as ``certificate`` says (see
    :class:`PlaneInfimum`)."""

    branch: str  # "f2_nonneg" | "f2_neg"
    bound: BoundReport
    inf_k: float
    inf_k_lower: float
    certificate: str
    argmin_plane: tuple[Vec, Vec]
    equality_diagnosis: dict
    four_dim_slant: BoundReport | None = None


def chen_lemma_check(a, c: float, tol: Tolerances = DEFAULT) -> ChenLemmaReport:
    """Check the algebraic lemma behind the scalar-vs-plane bound.

    For reals a_1..a_k and c with (sum a_i)^2 = (k-1)(sum a_i^2 + c),
    the product bound 2 a_1 a_2 >= c holds, with equality exactly when
    a_1 + a_2 = a_3 = ... = a_k.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise BadK("need at least two numbers")
    k = arr.size
    total_sq = float(arr.sum()) ** 2
    rhs_h = (k - 1) * (float(np.sum(arr ** 2)) + c)
    hypothesis = abs(total_sq - rhs_h) <= tol.equality
    product = 2.0 * arr[0] * arr[1]
    inequality = product >= c - tol.equality
    equality = abs(product - c) <= tol.equality
    tail = np.concatenate(([arr[0] + arr[1]], arr[2:]))
    condition = float(np.max(tail) - np.min(tail)) <= tol.equality
    return ChenLemmaReport(
        hypothesis_holds=bool(hypothesis),
        inequality_holds=bool(inequality),
        equality=bool(equality),
        equality_condition_holds=bool(condition),
    )


def _require_s_form_preset(f: StructureFunctions, tol: Tolerances):
    """The structure functions must match the constant-curvature S-family."""
    residual = max(
        abs(f.f2 - (f.f1 - 2.0)), abs(f.f3 - (f.f1 - 2.0)),
        abs(f.f11 - (f.f1 - 1.0)), abs(f.f22 - (f.f1 - 1.0)),
        abs(f.f12 + 1.0), abs(f.f21 + 1.0),
    )
    if residual > tol.equality:
        raise VariantPreconditionViolated(
            f"structure functions are not an S-family preset (residual {residual:.3e})"
        )


def _require_c_form_preset(point: SubmanifoldPoint, tol: Tolerances):
    f = point.functions
    if not point.flags.c_compatible:
        raise VariantPreconditionViolated(
            "the C-family bound needs the c_compatible flag (sigma(., xi) = 0)"
        )
    residual = max(
        abs(f.f2 - f.f1), abs(f.f3 - f.f1), abs(f.f11 - f.f1),
        abs(f.f22 - f.f1), abs(f.f12), abs(f.f21),
    )
    if residual > tol.equality:
        raise VariantPreconditionViolated(
            f"structure functions are not a C-family preset (residual {residual:.3e})"
        )


def _ricci_rhs(n: int, f: StructureFunctions, h_sq: float, tu_sq):
    """Right side of the general Ricci bound; ``tu_sq`` = |TU|^2 may be an
    array of directions."""
    return (n + 2) ** 2 / 4.0 * h_sq + (n + 1) * f.f1 + 3.0 * tu_sq * f.f2 - (f.f11 + f.f22)


def _ricci_defect_terms(sigma: np.ndarray, u: np.ndarray, upper: int):
    """Defect terms of the Ricci bound at unit L-directions, in closed form.

    ``u`` holds one direction per row in L-frame coordinates; the trace
    and sigma_r u run over the first ``upper`` frame vectors (n + 2 for
    the general bound, the L-frame alone for ``c_form``).  Returns
    (trace_gaps, mixed), each indexed [r, direction], with
    trace_gap_r = 1/4 (2 sigma_r(u, u) - tr sigma_r)^2 and
    mixed_r = |sigma_r u|^2 - sigma_r(u, u)^2.
    """
    n = u.shape[1]
    su = sigma[:, :upper, :n] @ u.T  # sigma_r(e_j, u)
    uu = np.einsum("rjk,kj->rk", su[:, :n], u)
    trace = np.einsum("rjj->r", sigma[:, :upper, :upper])
    trace_gaps = 0.25 * (2.0 * uu - trace[:, None]) ** 2
    mixed = np.einsum("rjk,rjk->rk", su, su) - uu ** 2
    return trace_gaps, mixed


def ricci_bound(point: SubmanifoldPoint, u, variant: str = "general",
                tol: Tolerances = DEFAULT) -> BoundReport:
    """Upper bound for Ric(U) of a unit direction U in L.

    ``general`` holds for arbitrary formal data and exposes its slack as
    defect terms, one trace gap and one mixed-entry sum per normal
    direction.  ``s_form`` and ``c_form`` are the sharper bounds
    available when the structure functions take the constant-curvature
    S- or C-family values (the latter additionally requires the
    c_compatible flag).  Ric(U) is read off the point's cached Ricci
    form and |TU|^2 is |phi c|^2 for the L-frame coordinates c of U.
    """
    n = point.n
    f = point.functions
    c = _require_unit_l(point, u, tol)
    ric = float(c @ point.ricci_form @ c)
    tu_sq = float(np.sum((point.phi[:, :n] @ c) ** 2))
    h_sq = point.h_norm_sq
    quarter = (n + 2) ** 2 / 4.0

    upper = None
    if variant == "general":
        rhs = _ricci_rhs(n, f, h_sq, tu_sq)
        upper = n + 2
    elif variant == "s_form":
        _require_s_form_preset(f, tol)
        rhs = quarter * h_sq + (n - 1) * f.f1 + (3.0 * f.f1 - 4.0) * tu_sq
    elif variant == "c_form":
        _require_c_form_preset(point, tol)
        rhs = quarter * h_sq + ((n - 1) + 3.0 * tu_sq) * f.f1
        upper = n
    else:
        raise VariantPreconditionViolated(f"unknown variant {variant!r}")

    defects: tuple[tuple[str, float], ...] | None = None
    if upper is not None:
        trace_gaps, mixed = _ricci_defect_terms(point.sff.coeffs, c[None, :], upper)
        defects = tuple(
            term for r in range(trace_gaps.shape[0])
            for term in ((f"trace_gap_r{r + 1}", float(trace_gaps[r, 0])),
                         (f"mixed_r{r + 1}", float(mixed[r, 0])))
        )

    slack = rhs - ric
    return BoundReport(lhs=ric, rhs=rhs, slack=slack,
                       equality=slack <= tol.equality, defect_terms=defects)


def _delta_rhs(n: int, f: StructureFunctions, h_sq: float) -> float:
    """Right side of the plane bound before its F2 term, which callers add
    last (this fixes the order of the additions)."""
    return (
        n * (n + 2) ** 2 / (2.0 * (n + 1)) * h_sq
        + n * (n + 3) / 2.0 * f.f1
        + f.f3
        - (n + 1) * (f.f11 + f.f22)
    )


@dataclass(frozen=True)
class FrameSweep:
    """Every general Ricci and plane-bound slack over one point's frame.

    ``slacks`` lists the Ricci bound at L-frame directions u = 1..n,
    then the plane bound at frame pairs i < j in lexicographic order:
    the order in which ``gssf fuzz`` reports its checks.
    """

    n: int
    slacks: np.ndarray

    @property
    def ricci_slacks(self) -> np.ndarray:
        return self.slacks[:self.n]

    @property
    def delta_slacks(self) -> np.ndarray:
        return self.slacks[self.n:]

    def label(self, k: int) -> str:
        """The check name of ``slacks[k]``, 1-based as fuzz reports it."""
        if k < self.n:
            return f"ricci_bound[general,u={k + 1}]"
        _, pair_i, pair_j = _sweep_layout(self.n)
        return f"delta_bound[{pair_i[k - self.n] + 1},{pair_j[k - self.n] + 1}]"


@functools.cache
def _sweep_layout(n: int):
    """Index arrays of the frame sweep at dimension n.

    Row i of ``order`` is the tangent frame with e_i and e_0 swapped.
    The sectional Ricci sums add in that order, which fixes their
    rounding and so pins the bytes of ``gssf fuzz`` reports for a seed.
    """
    order = np.tile(np.arange(n + 2), (n, 1))
    order[:, 0] = np.arange(n)
    order[np.arange(1, n), np.arange(1, n)] = 0
    layout = (order, *np.triu_indices(n, 1))
    for array in layout:  # shared by every caller
        array.setflags(write=False)
    return layout


def frame_sweep(point: SubmanifoldPoint) -> FrameSweep:
    """The general Ricci bound at every L-frame direction and the plane
    bound at every L-frame pair, in closed form from cached arrays.

    Ric(e_i) is row i of ``sectional_matrix`` summed and |T e_i|^2 the
    squared column i of ``phi``; the plane bound at (e_i, e_j) reads
    K(e_i ^ e_j) and g(e_i, f e_j) off the same arrays.
    :func:`ricci_bound` (variant ``general``, which reads the Ricci form
    instead of the sectional sums) and :func:`delta_bound` on frame
    vectors are the reference the sweep is tested against.

    Unlike those two, the sweep runs no unit, tangency or L-membership
    check: they guard vectors a caller supplies, while the sweep only
    reads rows of a frame that ``attach_point`` has already validated,
    with an orthonormality tolerance (1e-10 by default) tighter than the
    tangency one (1e-9).
    """
    n = point.n
    f = point.functions
    k = point.sectional_matrix
    phi = point.phi
    h_sq = point.h_norm_sq
    order, pair_i, pair_j = _sweep_layout(n)
    own = order[:, :1]  # i, as a column

    ric = k[own, order[:, 1:]].sum(axis=1)
    tu_sq = (phi[order, own] ** 2).sum(axis=1)
    ricci_rhs = _ricci_rhs(n, f, h_sq, tu_sq)

    f_sq = phi[pair_i, pair_j] ** 2
    delta_lhs = point.tau - k[pair_i, pair_j]
    delta_rhs = _delta_rhs(n, f, h_sq) + 3.0 * f.f2 * (point.t_norm_sq / 2.0 - f_sq)

    return FrameSweep(n=n, slacks=np.concatenate([ricci_rhs - ric, delta_rhs - delta_lhs]))


def ricci_equality_diagnosis(point: SubmanifoldPoint, u,
                             tol: Tolerances = DEFAULT) -> RicciEqualityDiagnosis:
    """For minimal points: equality in the general Ricci bound against
    membership of U in the relative null space (the two are equivalent)."""
    if math.sqrt(point.h_norm_sq) > tol.equality:
        raise NotMinimal("the diagnosis applies to minimal points only")
    report = ricci_bound(point, u, "general", tol)
    equality = abs(report.slack) <= tol.equality
    v = as_vec(u, dim=point.ambient.dim)
    kernel = relative_null_space(point, tol)
    proj = np.zeros_like(v)
    for k in kernel:
        proj += (v @ k) * k
    in_null = float(np.linalg.norm(v - proj)) <= tol.membership
    return RicciEqualityDiagnosis(
        equality=equality, in_null_space=in_null, consistent=(equality == in_null)
    )


def _c_form_slack_form(point: SubmanifoldPoint) -> np.ndarray:
    """The C-family Ricci slack as a quadratic form on L: the ``c_form``
    slack at a unit U in L is c . Q . c for its L-frame coordinates c."""
    n = point.n
    f = point.functions
    scalar = (n + 2) ** 2 / 4.0 * point.h_norm_sq + (n - 1) * f.f1
    return scalar * np.eye(n) + 3.0 * f.f1 * point.t_form - point.ricci_form


def c_form_equality_classifier(point: SubmanifoldPoint,
                               tol: Tolerances = DEFAULT) -> CFormEqualityReport:
    """All-direction equality in the C-family bound against the shape class.

    Equality for every unit U in L characterizes totally f-umbilical
    points when n = 2 and totally geodesic points when n > 2.  The slack
    at U is a quadratic form in U, so it vanishes for every U exactly
    when the form's spectral norm is within ``tol.equality``.  That slack
    is quadratic in sigma while the shape class tests sigma's entries,
    so the class is taken with tolerance sqrt(``tol.equality``): both
    sides then compare squares of sigma with ``tol.equality``.
    """
    n = point.n
    if n < 2:
        raise VariantPreconditionViolated("the classifier needs n >= 2")
    _require_c_form_preset(point, tol)

    all_eq = bool(np.linalg.norm(_c_form_slack_form(point), 2) <= tol.equality)
    expected = "totally_f_umbilical" if n == 2 else "totally_geodesic"
    linear = dataclasses.replace(tol, equality=math.sqrt(tol.equality))
    has_class = getattr(classify_sff(point, linear), expected)
    return CFormEqualityReport(
        all_u_equality=all_eq, expected_class=expected, matches=(has_class == all_eq)
    )


def _orthonormal_l_pair(point: SubmanifoldPoint, x, y, tol: Tolerances):
    vx = as_vec(x, dim=point.ambient.dim)
    vy = as_vec(y, dim=point.ambient.dim)
    defect = max(
        abs(vx @ vx - 1.0), abs(vy @ vy - 1.0), abs(vx @ vy)
    )
    if defect > tol.tangency:
        raise NotOrthonormal(f"plane vectors deviate from orthonormal by {defect:.3e}")
    return point.l_coords(vx, tol), point.l_coords(vy, tol)


def plane_f_squared(point: SubmanifoldPoint, x, y, tol: Tolerances = DEFAULT) -> float:
    """Squared f-component g(X, fY)^2 of the plane spanned by X, Y in L.

    Lies in [0, 1] and is independent of the orthonormal basis chosen
    for the plane.
    """
    a, b = _orthonormal_l_pair(point, x, y, tol)
    w = float(a @ point.phi @ b)
    return w * w


def delta_bound(point: SubmanifoldPoint, x, y, slant_mode: bool = False,
                tol: Tolerances = DEFAULT) -> BoundReport:
    """Bound for tau - K(pi) over a plane pi in L spanned by X, Y.

    With ``slant_mode`` the |T|^2 term is replaced by n cos^2(theta)
    using the probed slant angle, which must exist.
    """
    n = point.n
    f = point.functions
    a, b = _orthonormal_l_pair(point, x, y, tol)
    w = float(a @ point.phi @ b)
    f_sq = w * w
    k_plane = float(_plane_k(f, point.phi, point.sff.coeffs, a[None, :], b[None, :])[0])
    lhs = point.tau - k_plane

    if slant_mode:
        slant = slant_probe(point, tol=tol)
        if not slant.is_slant:
            raise VariantPreconditionViolated(
                "slant_mode requires a constant probed angle"
            )
        t_sq = n * math.cos(slant.angle) ** 2
    else:
        t_sq = point.t_norm_sq

    rhs = _delta_rhs(n, f, point.h_norm_sq) + 3.0 * f.f2 * (t_sq / 2.0 - f_sq)
    slack = rhs - lhs
    return BoundReport(lhs=lhs, rhs=rhs, slack=slack, equality=slack <= tol.equality)


def delta_equality_shape_check(point: SubmanifoldPoint, x, y,
                               tol: Tolerances = DEFAULT) -> ShapeMatchResult:
    """Test whether the form coefficients take the equality-case patterns.

    The tangent frame is rotated so the plane pair comes first; when the
    mean curvature does not vanish the first normal direction is aligned
    with it (the patterns single that direction out), otherwise the
    normal frame is kept as is with c = 0 forced by tracelessness.
    """
    n = point.n
    a, b = _orthonormal_l_pair(point, x, y, tol)
    pair = np.vstack([a[:n], b[:n]])
    c_tan = np.eye(n + 2)  # structure rows fixed
    c_tan[:n, :n] = np.vstack([pair, complete_basis(pair, n - 2)]) if n > 2 else pair
    sigma = np.einsum("ai,bj,rij->rab", c_tan, c_tan, point.sff.coeffs)

    rank = sigma.shape[0]
    if rank == 0:
        return ShapeMatchResult(True, ShapeOperatorForm(0.0, 0.0, 0.0, ()))

    h = np.einsum("rii->r", sigma) / (n + 2)
    h_norm = float(np.linalg.norm(h))
    if h_norm > tol.equality:
        first = h / h_norm
        rest = complete_basis(first[None, :], rank - 1)
        q = np.vstack([first[None, :], rest]) if rank > 1 else first[None, :]
        sigma = np.einsum("qr,rab->qab", q, sigma)

    pairs = tuple((float(block[0, 0]), float(block[0, 1])) for block in sigma[1:])
    form = ShapeOperatorForm(float(sigma[0, 0, 0]), float(sigma[0, 0, 1]),
                             float(sigma[0, 0, 0] + sigma[0, 1, 1]), pairs)
    residual = float(np.max(np.abs(sigma - _pattern_coeffs(rank, n, form))))
    return ShapeMatchResult(matches_forms=residual <= tol.shape_match, recovered=form)


def _plane_form(f2: float, phi: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The plane-curvature form M(y) of each coordinate row y, batched:
    K(x ^ y) = F1 + x . M(y) . x for orthonormal x, y in L, with
    M(y) = 3 F2 (phi y)(phi y)^T + sum_r sigma_r(y, y) sigma_r - (sigma_r y)(sigma_r y)^T.
    M(y) y = 0, since phi is antisymmetric.
    """
    v = y @ phi.T  # phi y
    sy = np.tensordot(y, s, axes=([1], [2]))  # (rows, normals, n): sigma_r y
    m = (3.0 * f2) * (v[:, :, None] * v[:, None, :])
    if s.shape[0]:
        syy = np.matmul(sy, y[:, :, None])[:, :, 0]  # sigma_r(y, y)
        m += np.tensordot(syy, s, axes=([1], [0]))
        m -= np.matmul(sy.transpose(0, 2, 1), sy)
    return m


def _plane_k(f: StructureFunctions, phi: np.ndarray, s: np.ndarray,
             x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K of the planes spanned by orthonormal coordinate rows x, y in L."""
    mx = np.matmul(_plane_form(f.f2, phi, s, y), x[:, :, None])[:, :, 0]
    return f.f1 + np.sum(x * mx, axis=1)


def _best_partner(f: StructureFunctions, phi_l: np.ndarray, s_l: np.ndarray,
                  y: np.ndarray):
    """The unit x orthogonal to each row y that minimizes K(x ^ y), and
    that K: one block step of coordinate descent.  M(y) y = 0, so lifting
    y to an eigenvalue above max|M(y)|, which bounds the least eigenvalue
    on y's complement, leaves the smallest eigenpair on that complement."""
    m = _plane_form(f.f2, phi_l, s_l, y)
    peak = np.max(np.abs(m), axis=(1, 2))
    if not peak.max() < 1e307:  # the lift would overflow (or M holds a NaN)
        raise NonFinite("the plane-curvature form is too large to shift for the search")
    shift = peak * 10.0 + 1.0
    vals, vecs = np.linalg.eigh(m + shift[:, None, None] * (y[:, :, None] * y[:, None, :]))
    x = vecs[:, :, 0]
    x -= np.sum(x * y, axis=1)[:, None] * y
    x /= np.linalg.norm(x, axis=1)[:, None]
    return x, f.f1 + vals[:, 0]


@functools.cache
def _bivector_layout(n: int):
    """Index arrays of Lambda^2 L at dimension n, read-only.

    ``pair_i``, ``pair_j`` list the basis e_i ^ e_j, i < j, in
    lexicographic order.  Row k of ``left`` and ``right`` holds the basis
    indices of the three Pluecker pairs (ab, cd), (ac, bd), (ad, bc) of
    the k-th 4-subset a < b < c < d: the 4-form e_a ^ e_b ^ e_c ^ e_d is
    the symmetric form W_k with entries +1, -1, +1 at those pairs.  No two
    4-subsets share a pair of pairs, and left < right entrywise.
    """
    pair_i, pair_j = np.triu_indices(n, 1)
    index = np.zeros((n, n), dtype=np.intp)
    index[pair_i, pair_j] = np.arange(len(pair_i))
    quads = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4)
    a, b, c, d = quads.T
    left = np.stack([index[a, b], index[a, c], index[a, d]], axis=1)
    right = np.stack([index[c, d], index[b, d], index[b, c]], axis=1)
    layout = (pair_i, pair_j, left, right)
    for array in layout:  # shared by every caller
        array.setflags(write=False)
    return layout


_PLUECKER_SIGNS = np.array([1.0, -1.0, 1.0])


def _curvature_operator(f: StructureFunctions, phi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The curvature operator of L on Lambda^2 L in the basis e_i ^ e_j, i < j:
    R_(ij),(kl) = F1 delta + 3 F2 phi_ij phi_kl + sum_r sigma_r,ik sigma_r,jl - sigma_r,il sigma_r,jk.
    K(a ^ b) = v . R . v for orthonormal a, b in L and v = ``_bivector(a, b)``,
    the value ``_plane_k`` gives.
    """
    pair_i, pair_j, _, _ = _bivector_layout(len(phi))
    row_i, row_j = pair_i[:, None], pair_j[:, None]
    t = np.tensordot(s, s, axes=([0], [0]))  # t[i, k, j, l] = sum_r sigma_r,ik sigma_r,jl
    r = t[row_i, pair_i, row_j, pair_j] - t[row_i, pair_j, row_j, pair_i]
    p = phi[pair_i, pair_j]
    r += (3.0 * f.f2) * np.outer(p, p)
    r[np.diag_indices_from(r)] += f.f1
    return r


def _four_form(n: int, t: np.ndarray) -> np.ndarray:
    """sum_k t_k W_k on Lambda^2 L, scattered from each 4-subset's three
    Pluecker pairs.  Every 4-form vanishes on decomposable bivectors, so
    lambda_min(R + sum_k t_k W_k) <= inf K for every t."""
    _, _, left, right = _bivector_layout(n)
    size = n * (n - 1) // 2
    w = np.zeros((size, size))
    w[left, right] = t[:, None] * _PLUECKER_SIGNS
    return w + w.T


def _bivector(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coordinates a_i b_j - a_j b_i, i < j, of a ^ b in Lambda^2 L."""
    pair_i, pair_j, _, _ = _bivector_layout(len(a))
    return a[pair_i] * b[pair_j] - a[pair_j] * b[pair_i]


def _bivector_plane(v: np.ndarray, n: int):
    """An orthonormal pair (a, b) of L-frame coordinates spanning the plane
    of the bivector v (the nearest decomposable one, if v is not)."""
    pair_i, pair_j, _, _ = _bivector_layout(n)
    m = np.zeros((n, n))
    m[pair_i, pair_j] = v
    u = np.linalg.svd(m - m.T)[0]
    return u[:, 0], u[:, 1]


def _closed(upper: float, lower: float) -> bool:
    """Whether a bracket on inf K is certified: its relative gap is at most
    the search's own convergence test."""
    return upper - lower <= _IMPROVEMENT_TOL * max(1.0, abs(upper))


def _isotropic_plane(vecs: np.ndarray, star: np.ndarray, n: int):
    """The plane of a bivector in the span of the two lowest eigenvectors
    ``vecs[:, :2]`` on which the 4-form ``star`` vanishes: the lowest
    one, moved towards the second when ``star`` is indefinite on their
    span (at a kink of lambda_min the bottom eigenspace is that span)."""
    v0, v1 = vecs[:, 0], vecs[:, 1]
    q00, q01, q11 = v0 @ star @ v0, v0 @ star @ v1, v1 @ star @ v1
    disc = q01 * q01 - q00 * q11
    if disc > 0.0:  # the smaller root x of q00 + 2 q01 x + q11 x^2 = 0
        v0 = v0 - q00 / (q01 + math.copysign(math.sqrt(disc), q01)) * v1
    return _bivector_plane(v0, n)


def _thorpe(f: StructureFunctions, phi_l: np.ndarray, s_l: np.ndarray, r: np.ndarray):
    """Thorpe's bound for n <= 4: maximize the concave
    g(t) = lambda_min(R + t star) over t, where star is the one 4-form
    at n = 4 and zero at n = 3 (every bivector is then decomposable).

    Its slope at t is v . star . v for the lowest eigenvector v; at the
    maximum the bottom eigenspace holds a decomposable bivector, whose
    plane attains inf K = max g.  Each probe takes that plane's K as an
    upper value and g(t) as a lower one, and the solve stops once they
    close.  The step is Newton's on the slope, with the second-order
    eigenvalue perturbation as its derivative, inside a bracket kept by
    the slope's sign; a step that leaves the bracket or shrinks by less
    than half over two steps is replaced by bisection.  |t| beyond
    2 (lambda_max(R) - lambda_min(R)) + 1 cannot be the maximum, since
    star has eigenvalues +-1.  Returns (upper, lower, a, b).
    """
    n = len(phi_l)
    star = _four_form(n, np.ones(math.comb(n, 4)))
    t, lo, hi = 0.0, -math.inf, math.inf
    last = older = math.inf
    upper, lower, plane = math.inf, -math.inf, None
    while True:
        vals, vecs = np.linalg.eigh(r + t * star)
        lower = max(lower, float(vals[0]))
        a, b = _isotropic_plane(vecs, star, n)
        k = float(_plane_k(f, phi_l, s_l, a[None, :], b[None, :])[0])
        if plane is None or k < upper:
            upper, plane = k, (a, b)
        if _closed(upper, lower):
            break
        if lo == -math.inf:  # the first probe, at t = 0
            hi = 2.0 * float(vals[-1] - vals[0]) + 1.0
            lo = -hi
        star_v = star @ vecs[:, 0]
        slope = vecs[:, 0] @ star_v
        if slope > 0.0:
            lo = t
        elif slope < 0.0:
            hi = t
        else:  # isotropic (or NaN): no direction left to move in
            break
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # bisect instead
            curvature = -2.0 * np.sum((vecs[:, 1:].T @ star_v) ** 2 / (vals[1:] - vals[0]))
            newton = slope / curvature
        if lo < t - newton < hi and abs(newton) <= 0.5 * older:
            step = float(newton)
        else:
            step = t - 0.5 * (lo + hi)
        older, last = last, abs(step)
        if t - step in (t, lo, hi):  # the bracket is down to adjacent doubles
            break
        t -= step
    return upper, lower, *plane


def _kkt_bound(r: np.ndarray, value: float, a: np.ndarray, b: np.ndarray) -> float:
    """A lower bound on inf K from a converged plane a ^ b of value K.

    The multipliers t of its KKT system (R - K I) v + sum_k t_k W_k v = 0
    come from least squares: the least-norm solution of the normal
    equations, whose matrix is scattered from the six entries of each
    column W_k v, so no 4-form is held densely.  lambda_min(R + sum_k
    t_k W_k) bounds inf K for any t, and equals K when t certifies it.
    """
    n = len(a)
    _, _, left, right = _bivector_layout(n)
    v = _bivector(a, b)
    rows = np.concatenate([left, right], axis=1)
    entries = np.tile(_PLUECKER_SIGNS, 2) * v[np.concatenate([right, left], axis=1)]
    gram = np.zeros((len(v), len(v)))
    np.add.at(gram, (rows[:, :, None], rows[:, None, :]), entries[:, :, None] * entries[:, None, :])
    y = np.linalg.lstsq(gram, value * v - r @ v, rcond=None)[0]
    t = np.sum(entries * y[rows], axis=1)
    return float(np.linalg.eigvalsh(r + _four_form(n, t))[0])


#: the plane search: seeded random starts beside the L-frame pairs, the
#: least gain in K per round that keeps a start going (also the relative
#: gap at which an upper and a lower value count as closed), the round
#: cap, and the largest n searched (n(n-1)/2 + 20 starts, each n x n arrays)
_RANDOM_STARTS = 20
_SEARCH_SEED = 0
_IMPROVEMENT_TOL = 1e-10
_MAX_ROUNDS = 10_000
_MAX_SEARCH_N = 32


@functools.cache
def _search_starts(n: int):
    """The search's starting planes (a, b) at dimension n, read-only: every
    L-frame pair in lexicographic order, then the seeded random pairs."""
    rng = np.random.default_rng(_SEARCH_SEED)
    random_q = [np.linalg.qr(rng.normal(size=(n, 2)))[0] for _ in range(_RANDOM_STARTS)]
    starts = tuple(np.vstack([np.eye(n)[frame], [q[:, k] for q in random_q]])
                   for k, frame in enumerate(np.triu_indices(n, 1)))
    for array in starts:  # shared by every search at n
        array.setflags(write=False)
    return starts


def _plane_search(f: StructureFunctions, phi_l: np.ndarray, s_l: np.ndarray,
                  r: np.ndarray | None = None):
    """Multi-start alternating minimization of K over planes in L.

    Starts at every L-frame pair plus seeded random pairs, and repeatedly
    replaces one plane vector by the exact minimizer in the other's
    orthogonal complement until a full round improves less than
    ``_IMPROVEMENT_TOL`` or ``_MAX_ROUNDS`` rounds have run.  Given the
    curvature operator ``r``, the lower value starts at lambda_min(r),
    each converged best start raises it by its KKT bound, and the search
    stops once the two close; without ``r`` it stays -inf.  Returns
    (value, lower, a, b): the value is F1 plus the smallest eigenvalue of
    the plane form, K of the returned plane to rounding, so an upper
    bound on inf K even when the round cap stops the search.
    """
    n = len(phi_l)
    a, b = (start.copy() for start in _search_starts(n))
    values = _plane_k(f, phi_l, s_l, a, b)
    active = np.ones(len(values), dtype=bool)
    lower = -math.inf if r is None else float(np.linalg.eigvalsh(r)[0])
    rounds, checked = 0, -1
    while active.any() and rounds < _MAX_ROUNDS:
        rounds += 1
        idx = np.flatnonzero(active)
        a_act, _ = _best_partner(f, phi_l, s_l, b[idx])
        b_act, new_values = _best_partner(f, phi_l, s_l, a_act)
        improvement = values[idx] - new_values
        a[idx], b[idx] = a_act, b_act
        values[idx] = new_values
        active[idx] = improvement > _IMPROVEMENT_TOL
        best = int(np.argmin(values))
        if r is not None and not active[best] and best != checked:
            checked = best
            lower = max(lower, _kkt_bound(r, float(values[best]), a[best], b[best]))
            if _closed(float(values[best]), lower):
                break
    best = int(np.argmin(values))
    return float(values[best]), lower, a[best], b[best]


class PlaneInfimum(NamedTuple):
    """A bracket lower <= inf K <= upper over planes in L, the kind of
    certificate behind ``lower`` and a plane (a, b), in L-frame
    coordinates, at which K = ``upper`` to rounding.

    ``certificate`` is ``exact`` (n <= 3: every bivector is decomposable,
    so lambda_min of the curvature operator is inf K), ``thorpe`` (n = 4:
    Thorpe's max over t of lambda_min(R + t star)), ``kkt`` (n >= 5: the
    multipliers of the search's converged argmin), or ``none``, when the
    bracket did not close to ``_IMPROVEMENT_TOL`` relative: Thorpe's solve
    stopped at a zero slope or a bracket of adjacent doubles, no converged
    best start had KKT multipliers that certify it, or the search hit
    ``_MAX_ROUNDS``.  ``lower`` is then the best of the bounds tried, and
    ``upper`` is still K at (a, b).
    """

    upper: float
    lower: float
    certificate: str
    a: np.ndarray
    b: np.ndarray


def minimize_sectional_plane(point: SubmanifoldPoint) -> PlaneInfimum:
    """The infimum of induced K over 2-planes inside L, bracketed.

    Every 4-form vanishes on decomposable bivectors, so lambda_min of the
    curvature operator R on Lambda^2 L plus any sum of 4-forms is a lower
    bound; the upper value is K at a plane.  At n = 2 L is the only plane.
    At n = 3 and 4 the plane comes from the bottom eigenspace of Thorpe's
    maximizer and no search runs.  At n >= 5 the multi-start search gives
    the upper value, and the KKT multipliers of its converged best start
    the lower one; it stops as soon as they close.  The upper value
    decides the plane bound; the argmin is for diagnosis.  n is capped at
    ``_MAX_SEARCH_N``, since the starts grow as n^4 in memory; an operator
    that overflows raises ``NonFinite`` before any eigensolver sees it.
    """
    n = point.n
    if n < 2:
        raise BadShape("planes in L need n >= 2")
    if n > _MAX_SEARCH_N:
        raise BadShape(f"the plane search is capped at n <= {_MAX_SEARCH_N}, got n = {n}")
    f = point.functions
    phi_l = point.phi[:n, :n]
    s_l = point.sff.coeffs[:, :n, :n]

    if n == 2:  # L is the only plane
        a, b = np.eye(2)
        value = float(_plane_k(f, phi_l, s_l, a[None, :], b[None, :])[0])
        return PlaneInfimum(value, value, "exact", a, b)

    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        r = _curvature_operator(f, phi_l, s_l)
    if not np.isfinite(r).all():
        raise NonFinite("the curvature operator on Lambda^2 L is not finite")
    if n <= 4:
        kind = "exact" if n == 3 else "thorpe"
        upper, lower, a, b = _thorpe(f, phi_l, s_l, r)
    else:
        kind = "kkt"
        upper, lower, a, b = _plane_search(f, phi_l, s_l, r)
    if not _closed(upper, lower):
        kind = "none"
    # K at a plane bounds inf K from above, so a lower value beyond it is rounding
    return PlaneInfimum(upper, min(lower, upper), kind, a, b)


def _off_plane_t_norm(point: SubmanifoldPoint, a: np.ndarray, b: np.ndarray) -> float:
    """max |Tw| over unit w in L orthogonal to the plane of the orthonormal
    L-frame coordinates a, b.

    The top eigenvector of t_form compressed to that complement W attains
    it.  |Tw| is taken at the eigenvector, pushed into W, rather than as
    the root of its eigenvalue: the root would turn rounding of 1e-16
    into 1e-8, the size of ``membership``, and when W is anti-invariant
    the plane directions share the zero eigenvalue.
    """
    off_plane = np.eye(point.n) - np.outer(a, a) - np.outer(b, b)
    _, vecs = np.linalg.eigh(off_plane @ point.t_form @ off_plane)
    return float(np.linalg.norm(point.phi[:, :point.n] @ (off_plane @ vecs[:, -1])))


def global_delta_bounds(point: SubmanifoldPoint,
                        tol: Tolerances = DEFAULT) -> GlobalDeltaReport:
    """Bounds for tau - inf K over planes in L, split by the sign of F2.

    For F2 >= 0 the bound carries the extra 3n/2 F2 term and equality is
    characterized by |T|^2 = n with n even (an invariant point); for
    F2 < 0 the term is dropped and the characterization asks the
    complement of the argmin plane in L to be anti-invariant, reported
    as max |Tw| over its unit vectors w.  For n = 2 slant points the
    specialized four-dimensional bound is reported too.
    """
    n = point.n
    f = point.functions
    inf_k, inf_k_lower, certificate, a, b = minimize_sectional_plane(point)
    e_l = point.tangent.matrix[:n]
    argmin = (a @ e_l, b @ e_l)
    lhs = point.tau - inf_k

    base = _delta_rhs(n, f, point.h_norm_sq)
    diagnosis: dict = {}
    if f.f2 >= 0.0:
        branch = "f2_nonneg"
        rhs = base + 1.5 * n * f.f2
        diagnosis["t_norm_sq"] = point.t_norm_sq
        diagnosis["t_norm_full"] = bool(abs(point.t_norm_sq - n) <= tol.equality)
        diagnosis["n_even"] = (n % 2 == 0)
    else:
        branch = "f2_neg"
        rhs = base
        t_max = _off_plane_t_norm(point, a, b)
        diagnosis["trailing_t_norm_max"] = t_max
        diagnosis["trailing_anti_invariant"] = t_max <= tol.membership

    slack = rhs - lhs
    bound = BoundReport(lhs=lhs, rhs=rhs, slack=slack,
                        equality=slack <= tol.equality)

    four_dim = None
    if n == 2:
        slant = slant_probe(point, tol=tol)
        if slant.is_slant:
            # at n = 2 the corollary's right side is ``base``, the plane
            # bound's before its F2 term: |H|^2 part + 5 F1 + F3 - 3 (F11 + F22)
            slack4 = base - lhs
            defects = None
            if point.flags.c_compatible:
                defects = (
                    ("mean_curvature_term",
                     n * (n + 2) ** 2 / (2.0 * (n + 1)) * point.h_norm_sq),
                )
            four_dim = BoundReport(lhs=lhs, rhs=base, slack=slack4,
                                   equality=slack4 <= tol.equality,
                                   defect_terms=defects)

    return GlobalDeltaReport(branch=branch, bound=bound, inf_k=inf_k,
                             inf_k_lower=inf_k_lower, certificate=certificate,
                             argmin_plane=argmin, equality_diagnosis=diagnosis,
                             four_dim_slant=four_dim)


def equality_pattern(n: int, form: ShapeOperatorForm) -> list[tuple[int, int, int, float]]:
    """The upper-triangle entries (r, i, j, value), 0-based, of the
    equality-case form coefficients on n + 2 tangent directions.

    The order is fixed, since ``gssf construct`` writes the entries as
    they come, zeros included: the first normal's block, its trailing
    diagonal, then each further normal's traceless block.
    """
    a, b, c = form.a, form.b, form.c
    entries = [(0, 0, 0, a), (0, 0, 1, b), (0, 1, 1, c - a)]
    entries += [(0, i, i, c) for i in range(2, n + 2)]
    for r, (ar, br) in enumerate(form.pairs, start=1):
        entries += [(r, 0, 0, ar), (r, 0, 1, br), (r, 1, 1, -ar)]
    return entries


def _pattern_coeffs(rank: int, n: int, form: ShapeOperatorForm) -> np.ndarray:
    """The symmetric form coefficients of ``equality_pattern`` on ``rank``
    normal directions."""
    coeffs = np.zeros((rank, n + 2, n + 2))
    for r, i, j, value in equality_pattern(n, form):
        coeffs[r, i, j] = coeffs[r, j, i] = value
    return coeffs


def equality_instance(ambient: AmbientModel, functions: StructureFunctions,
                      n: int, form: ShapeOperatorForm) -> SubmanifoldPoint:
    """Build a point whose form coefficients follow the equality patterns.

    The resulting point attains equality in the scalar-vs-plane bound at
    the plane of its first two frame vectors, for any structure-function
    values.  The frame is the anti-invariant coordinate frame, which
    needs m >= n.
    """
    if n < 2:
        raise BadShape("the equality patterns single out a plane, so n >= 2")
    frame = anti_invariant_frame(ambient, n)
    rank = ambient.dim - (n + 2)
    if rank < 1 + len(form.pairs):
        raise BadShape(
            f"need normal rank >= {1 + len(form.pairs)}, model provides {rank}"
        )
    return attach_point(ambient, functions, frame,
                        SecondFundamentalForm(_pattern_coeffs(rank, n, form)), PointFlags())
