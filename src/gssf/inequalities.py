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

from .ambient import _PRESETS, AmbientModel, StructureFunctions
from .config import DEFAULT, Tolerances
from .errors import (
    BadK,
    BadShape,
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
    _minimal,
    _require_unit_l,
    attach_point,
    classify_sff,
    finite,
    relative_null_space,
    slant_probe,
)


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: lhs <= rhs, slack = rhs - lhs.

    It ``passed`` when slack >= -margin and is an ``equality`` when
    |slack| <= margin (see ``_margin``), so a failed bound is no equality.
    ``defect_terms``, when present, are named nonnegative contributions
    that sum to the slack exactly (an identity, not an estimate).
    """

    lhs: float
    rhs: float
    slack: float
    equality: bool
    passed: bool
    defect_terms: tuple[tuple[str, float], ...] | None = None

    def defect_sum(self) -> float | None:
        if self.defect_terms is None:
            return None
        return float(sum(v for _, v in self.defect_terms))


def _margin(tol: Tolerances, lhs, rhs):
    """The margin of a bound's verdicts: ``tol.equality`` times max(1, |lhs|,
    |rhs|), elementwise, since rounding grows with the size of the sides;
    infinite where that product overflows."""
    with np.errstate(over="ignore"):
        return tol.equality * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _bound_report(what: str, lhs: float, rhs: float, tol: Tolerances,
                  defect_terms=None) -> BoundReport:
    """The report of lhs <= rhs; NonFinite, naming ``what``, when the slack
    (finite only if both sides are) or a defect term is not finite."""
    slack = finite(rhs - lhs, f"the slack of the {what}")
    for name, value in defect_terms or ():
        finite(value, f"the {name} term of the {what}")
    margin = float(_margin(tol, lhs, rhs))
    return BoundReport(lhs=lhs, rhs=rhs, slack=slack, equality=abs(slack) <= margin,
                       passed=slack >= -margin, defect_terms=defect_terms)


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
    of the dual ascent's bracket, an eigenvalue of R plus 4-forms,
    certified as ``certificate`` says (see :class:`PlaneInfimum`)."""

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
    a_1 + a_2 = a_3 = ... = a_k, each decided against ``_margin`` of its
    sides.  Raises NonFinite when a side of the hypothesis or 2 a_1 a_2 - c
    is not finite, as where an a_i or c is.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise BadK("need at least two numbers")
    k = arr.size
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        total_sq = finite(float(np.square(arr.sum())), "the lemma's (sum a_i)^2")
        rhs_h = finite((k - 1) * (float(np.sum(arr ** 2)) + c),
                       "the lemma's (k - 1)(sum a_i^2 + c)")
    bound = _bound_report("lemma's product bound", c, 2.0 * float(arr[0]) * float(arr[1]), tol)
    tail = np.concatenate(([arr[0] + arr[1]], arr[2:]))
    top, bottom = float(np.max(tail)), float(np.min(tail))
    return ChenLemmaReport(
        hypothesis_holds=bool(abs(total_sq - rhs_h) <= _margin(tol, total_sq, rhs_h)),
        inequality_holds=bound.passed,
        equality=bound.equality,
        equality_condition_holds=bool(top - bottom <= _margin(tol, top, bottom)),
    )


def _require_preset(point: SubmanifoldPoint, kind: str, tol: Tolerances):
    """The structure functions must be the ``kind`` preset at the point's own
    F1; every preset is affine in c, so c is read off F1 by two evaluations
    of the preset.  The C-family also needs the c_compatible flag."""
    f = point.functions
    if kind == "c_space_form" and not point.flags.c_compatible:
        raise VariantPreconditionViolated(
            "the C-family bound needs the c_compatible flag (sigma(., xi) = 0)"
        )
    preset = _PRESETS[kind]
    f1_at_0 = preset(0.0).f1
    c = finite((f.f1 - f1_at_0) / (preset(1.0).f1 - f1_at_0),
               f"the {kind} curvature c of F1 = {f.f1!r}")
    residual = max(abs(x - y) for x, y in zip(f.as_tuple(), preset(c).as_tuple()))
    if residual > tol.equality:
        raise VariantPreconditionViolated(
            f"structure functions are not a {kind} preset (residual {residual:.3e})"
        )


def _ricci_rhs(n: int, f: StructureFunctions, h_sq: float, tu_sq):
    """Right side of the general Ricci bound; ``tu_sq`` = |TU|^2 may be an
    array of directions."""
    return (n + 2) ** 2 / 4.0 * h_sq + (n + 1) * f.f1 + 3.0 * tu_sq * f.f2 - (f.f11 + f.f22)


#: every Ricci variant: the preset it needs (None: any), how many frame
#: vectors past L its defect terms run over (None: no defect terms), and
#: its right side from (n, f, |H|^2, |TU|^2)
_RICCI_VARIANTS = {
    "general": (None, 2, _ricci_rhs),
    "s_form": ("s_space_form", None, lambda n, f, h_sq, tu_sq: (
        (n + 2) ** 2 / 4.0 * h_sq + (n - 1) * f.f1 + (3.0 * f.f1 - 4.0) * tu_sq)),
    "c_form": ("c_space_form", 0, lambda n, f, h_sq, tu_sq: (
        (n + 2) ** 2 / 4.0 * h_sq + ((n - 1) + 3.0 * tu_sq) * f.f1)),
}


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
    with np.errstate(over="ignore"):  # the bound's report checks it
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
    c = _require_unit_l(point, u, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # the report checks it
        ric = float(c @ point.ricci_form @ c)
    tu_sq = float(np.sum((point.phi[:, :n] @ c) ** 2))
    if variant not in _RICCI_VARIANTS:
        raise VariantPreconditionViolated(f"unknown variant {variant!r}")
    preset, extra, rhs_of = _RICCI_VARIANTS[variant]
    if preset is not None:
        _require_preset(point, preset, tol)
    rhs = rhs_of(n, point.functions, point.h_norm_sq, tu_sq)

    defects: tuple[tuple[str, float], ...] | None = None
    if extra is not None:
        trace_gaps, mixed = _ricci_defect_terms(point.sff.coeffs, c[None, :], n + extra)
        defects = tuple(
            term for r in range(trace_gaps.shape[0])
            for term in ((f"trace_gap_r{r + 1}", float(trace_gaps[r, 0])),
                         (f"mixed_r{r + 1}", float(mixed[r, 0])))
        )

    return _bound_report("Ricci bound", ric, rhs, tol, defects)


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
    the order in which ``gssf fuzz`` reports its checks.  ``passed`` marks
    each slack that passes, decided as :class:`BoundReport` decides it.
    """

    n: int
    slacks: np.ndarray
    passed: np.ndarray

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


def frame_sweep(point: SubmanifoldPoint, tol: Tolerances = DEFAULT) -> FrameSweep:
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
    tangency one (1e-9).  On a ``_Stack``, slacks and passed gain its axes.
    """
    n = point.n
    f = point.functions
    k = point.sectional_matrix
    phi = point.phi
    h_sq = point.h_norm_sq
    order, pair_i, pair_j = _sweep_layout(n)
    own = order[:, :1]  # i, as a column

    # gathered rows are copied: numpy sums a strided row of a stack in another order
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        ric = np.ascontiguousarray(k[..., own, order[:, 1:]]).sum(-1)
        tu_sq = np.ascontiguousarray(phi[..., order, own] ** 2).sum(-1)
        f_sq = phi[..., pair_i, pair_j] ** 2
        delta_rhs = _delta_rhs(n, f, h_sq) + 3.0 * f.f2 * (point.t_norm_sq / 2.0 - f_sq)
        lhs = np.concatenate([ric, point.tau - k[..., pair_i, pair_j]], axis=-1)
        rhs = np.concatenate([_ricci_rhs(n, f, h_sq, tu_sq), delta_rhs], axis=-1)
        slacks = finite(rhs - lhs, "a slack of the frame sweep")
    return FrameSweep(n=n, slacks=slacks, passed=slacks >= -_margin(tol, lhs, rhs))


def ricci_equality_diagnosis(point: SubmanifoldPoint, u,
                             tol: Tolerances = DEFAULT) -> RicciEqualityDiagnosis:
    """For minimal points: equality in the general Ricci bound against
    membership of U in the relative null space (the two are equivalent)."""
    if not _minimal(point, tol):
        raise NotMinimal("the diagnosis applies to minimal points only")
    defects = ricci_bound(point, u, "general", tol).defect_sum()  # sigma's alone
    equality = defects <= tol.equality * max(1.0, point.sigma_norm_sq)
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        return finite(scalar * np.eye(n) + 3.0 * f.f1 * point.t_form - point.ricci_form,
                      "an entry of the C-family Ricci slack form")


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
    _require_preset(point, "c_space_form", tol)

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
    return _bound_report("plane bound", lhs, rhs, tol)


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
    c_tan[:n, :n] = np.vstack([pair, complete_basis(pair, n - 2)])
    sigma = np.einsum("ai,bj,rij->rab", c_tan, c_tan, point.sff.coeffs)

    rank = sigma.shape[0]
    if rank == 0:
        return ShapeMatchResult(True, ShapeOperatorForm(0.0, 0.0, 0.0, ()))

    h = np.einsum("rii->r", sigma) / (n + 2)
    h_norm = float(np.linalg.norm(h))
    if h_norm > tol.equality:
        first = h / h_norm
        q = np.vstack([first[None, :], complete_basis(first[None, :], rank - 1)])
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
    """K of the planes spanned by orthonormal coordinate rows x, y in L, or NonFinite."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mx = np.matmul(_plane_form(f.f2, phi, s, y), x[:, :, None])[:, :, 0]
        return finite(f.f1 + np.sum(x * mx, axis=1), "the sectional curvature of a plane")


def _best_partner(f: StructureFunctions, phi_l: np.ndarray, s_l: np.ndarray,
                  y: np.ndarray):
    """The unit x orthogonal to each row y that minimizes K(x ^ y), and
    that K: one block step of coordinate descent.  Each M(y) is divided by
    a power of two above its largest entry, as the ascent scales R, so
    every entry is below 1 and the spectral radius below n; M(y) y = 0,
    so lifting y to the eigenvalue n + 1 leaves the smallest eigenpair on
    y's complement.  Raises NonFinite when M(y) is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # M(y) is checked below
        m = finite(_plane_form(f.f2, phi_l, s_l, y), "the plane form M(y) of a block step")
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(m), axis=(1, 2)))[1])
    lifted = m / scale[:, None, None] + (y.shape[1] + 1.0) * (y[:, :, None] * y[:, None, :])
    vals, vecs = np.linalg.eigh(lifted)
    x = vecs[:, :, 0]
    x -= np.sum(x * y, axis=1)[:, None] * y
    x /= np.linalg.norm(x, axis=1)[:, None]
    with np.errstate(over="ignore"):  # unchecked: the ascent reads K off _plane_k
        return x, f.f1 + vals[:, 0] * scale


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


#: the relative gap at which an upper and a lower value on inf K count as
#: closed (also the least relative gain that keeps the block steps going),
#: the caps on the ascent's barrier levels and on Newton steps per level,
#: and the largest n bracketed (the 4-form stack holds C(n, 4) + 1
#: matrices of (n(n - 1)/2)^2 entries)
_IMPROVEMENT_TOL = 1e-10
_BARRIER_LEVELS = 12
_NEWTON_STEPS = 50
_MAX_PLANE_N = 10


def _closed(upper: float, lower: float) -> bool:
    """Whether a bracket on inf K is certified: its gap is at most
    ``_IMPROVEMENT_TOL`` relative to max(1, |upper|)."""
    return upper - lower <= _IMPROVEMENT_TOL * max(1.0, abs(upper))


@functools.cache
def _form_stack(n: int) -> np.ndarray:
    """The 4-forms W_k on Lambda^2 L, one per 4-subset, then -I, read-only.

    W_k is scattered from its subset's three Pluecker pairs.  Every 4-form
    vanishes on decomposable bivectors, so lambda_min(R + sum_k t_k W_k)
    <= inf K for every t.
    """
    _, _, left, right = _bivector_layout(n)
    size = n * (n - 1) // 2
    stack = np.zeros((len(left) + 1, size, size))
    rows = np.arange(len(left))[:, None]
    stack[rows, left, right] = stack[rows, right, left] = (1.0, -1.0, 1.0)  # Pluecker signs
    stack[-1] = -np.eye(size)
    stack.setflags(write=False)
    return stack


def _dual_ascent(f: StructureFunctions, phi_l: np.ndarray, s_l: np.ndarray, r: np.ndarray):
    """Bracket inf K by the semidefinite program max lambda subject to
    S = R + sum_k t_k W_k - lambda I >= 0, on its log-det barrier.

    Each barrier level runs damped Newton on lambda / mu + log det S in
    x = (t, lambda), for R scaled by a power of two so that S is of order
    one (unscaled, the Newton system of an R near 1e200 underflows), then
    shrinks mu by 200.  The lower value is lambda_min(R + sum_k t_k W_k)
    at the level's t, never the barrier's lambda, the upper one K at the
    plane of its bottom eigenvector, and the ascent stops once they
    close: at t = 0 already for n = 3, where every bivector is a plane.
    It also stops once size * mu, the central path's duality gap in
    units of R's scale, is below 1e-12: the bounds have nothing left to
    gain in double precision, and S would turn singular to working
    precision; where S or the Newton system turns singular sooner, the
    levels end there too, with the bracket reached.  If the bracket is
    still open, as where no t makes the relaxation tight, block steps
    from the best plane lower the upper value.  Returns (upper, lower,
    a, b), with upper = ``_plane_k`` at the plane (a, b).
    """
    n = len(phi_l)
    size = len(r)
    stack = _form_stack(n)
    flat = stack.reshape(len(stack), -1)  # row i: A_i = W_i, then -I
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(r))))[1] - 1)

    def probe(x):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            s = r + (scale * x[:-1] @ flat[:-1]).reshape(size, size)  # R + sum_k t_k W_k
            vals, vecs = np.linalg.eigh(finite(s, "the dual ascent's R + sum_k t_k W_k"))
            a, b = _bivector_plane(vecs[:, 0], n)
            v = _bivector(a, b)
            return float(vals[0]), float(v @ r @ v), a, b

    x = np.zeros(len(stack))
    lower, upper, a, b = probe(x)
    mu = finite((upper - lower + 1e-3 * max(1.0, abs(upper))) / scale,
                "the width of the plane infimum's first bracket")
    x[-1] = lower / scale - mu
    r_scaled = r / scale
    for _ in range(_BARRIER_LEVELS):
        if _closed(upper, lower) or size * mu <= 1e-12:
            break
        try:
            for _ in range(_NEWTON_STEPS):
                z = np.linalg.inv(r_scaled + (x @ flat).reshape(size, size))
                z_stack = z @ stack  # Z A_i, with Z = S^-1
                grad = -(flat @ z.ravel())  # -tr(Z A_i)
                grad[-1] -= 1.0 / mu
                z_flat = z_stack.reshape(len(stack), -1)
                hess = z_flat @ z_stack.transpose(0, 2, 1).reshape(len(stack), -1).T  # tr(Z A_i Z A_j)
                step = np.linalg.solve(hess, -grad)
                decrement = math.sqrt(max(0.0, float(-grad @ step)))
                x += step / (1.0 + decrement) if decrement > 0.25 else step
                if decrement < 0.5:
                    break
        except np.linalg.LinAlgError:  # S singular to working precision: the floor's case
            break
        mu *= 0.005
        level_lower, k, level_a, level_b = probe(x)
        lower = max(lower, level_lower)
        if k < upper:
            upper, a, b = k, level_a, level_b
    upper = float(_plane_k(f, phi_l, s_l, a[None, :], b[None, :])[0])
    while not _closed(upper, lower):
        a_new, _ = _best_partner(f, phi_l, s_l, b[None, :])
        b_new, _ = _best_partner(f, phi_l, s_l, a_new)
        k = float(_plane_k(f, phi_l, s_l, a_new, b_new)[0])
        if not upper - k > _IMPROVEMENT_TOL * max(1.0, abs(upper)):
            break
        upper, a, b = k, a_new[0], b_new[0]
    return upper, lower, a, b


class PlaneInfimum(NamedTuple):
    """A bracket lower <= inf K <= upper over planes in L, the kind of
    certificate behind ``lower`` and a plane (a, b), in L-frame
    coordinates, at which K = ``upper``.

    ``certificate`` is ``exact`` (n <= 3: every bivector is decomposable,
    so lambda_min of the curvature operator is inf K), ``thorpe`` (n = 4:
    the one multiplier t of the ascent is Thorpe's max over t of
    lambda_min(R + t star)), ``kkt`` (n >= 5: the ascent's multipliers t
    of the 4-forms), or ``none``, when the bracket did not close to
    ``_IMPROVEMENT_TOL`` relative: ``_BARRIER_LEVELS`` levels of the
    ascent and the block steps after them left a gap, as where no t makes
    the relaxation tight.  ``lower`` is then the best lambda_min(R +
    sum_k t_k W_k) the ascent reached, and ``upper`` is still K at (a, b).
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
    At n >= 3 one dual ascent over the 4-form multipliers gives both (see
    ``_dual_ascent``).  The upper value decides the plane bound; the
    argmin is for diagnosis.  n is capped at ``_MAX_PLANE_N``, since the
    4-form stack and the Newton system grow as n^6 to n^8; an operator
    that overflows raises ``NonFinite`` before any eigensolver sees it.
    """
    n = point.n
    if n < 2:
        raise BadShape("planes in L need n >= 2")
    if n > _MAX_PLANE_N:
        raise BadShape(f"the plane infimum is capped at n <= {_MAX_PLANE_N}, got n = {n}")
    f = point.functions
    phi_l = point.phi[:n, :n]
    s_l = point.sff.coeffs[:, :n, :n]

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        r = finite(_curvature_operator(f, phi_l, s_l),
                   "the curvature operator on Lambda^2 L")
    if n == 2:  # L is the only plane
        a, b = np.eye(2)
        value = float(_plane_k(f, phi_l, s_l, a[None, :], b[None, :])[0])
        return PlaneInfimum(value, value, "exact", a, b)
    upper, lower, a, b = _dual_ascent(f, phi_l, s_l, r)
    kind = {3: "exact", 4: "thorpe"}.get(n, "kkt") if _closed(upper, lower) else "none"
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

    bound = _bound_report("global plane bound", lhs, rhs, tol)

    four_dim = None
    if n == 2:
        slant = slant_probe(point, tol=tol)
        if slant.is_slant:
            # at n = 2 the corollary's right side is ``base``, the plane
            # bound's before its F2 term: |H|^2 part + 5 F1 + F3 - 3 (F11 + F22)
            defects = None
            if point.flags.c_compatible:
                defects = (
                    ("mean_curvature_term",
                     n * (n + 2) ** 2 / (2.0 * (n + 1)) * point.h_norm_sq),
                )
            four_dim = _bound_report("4-dimensional slant bound", lhs, base, tol, defects)

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
