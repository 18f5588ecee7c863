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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientModel, StructureFunctions
from .config import DEFAULT, Tolerances
from .errors import (
    BadK,
    BadShape,
    NotMinimal,
    NotOrthonormal,
    SearchDidNotConverge,
    VariantPreconditionViolated,
)
from .frames import Vec, as_vec, complete_basis
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
class PlaneSearchOptions:
    random_starts: int = 20
    improvement_tol: float = 1e-10
    max_rounds: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class GlobalDeltaReport:
    branch: str  # "f2_nonneg" | "f2_neg"
    bound: BoundReport
    inf_k: float
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
    ``ricci_defects`` holds the sum of the general Ricci defect terms
    per L-frame direction, computed from the form coefficients alone.
    """

    n: int
    slacks: np.ndarray
    ricci_defects: np.ndarray

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
    K(e_i ^ e_j) and g(e_i, f e_j) off the same arrays.  The defect sums
    come from the kernel :func:`ricci_bound` uses, at the frame vectors.
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

    trace_gaps, mixed = _ricci_defect_terms(point.sff.coeffs, np.eye(n), n + 2)
    return FrameSweep(
        n=n,
        slacks=np.concatenate([ricci_rhs - ric, delta_rhs - delta_lhs]),
        ricci_defects=(trace_gaps + mixed).sum(axis=0),
    )


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


def c_form_equality_classifier(point: SubmanifoldPoint, samples: int = 100,
                               seed: int = 0, tol: Tolerances = DEFAULT) -> CFormEqualityReport:
    """All-direction equality in the C-family bound against the shape class.

    Equality for every unit U in L characterizes totally f-umbilical
    points when n = 2 and totally geodesic points when n > 2; the
    all-direction test runs over the L-frame plus seeded random unit
    combinations.
    """
    n = point.n
    if n < 2:
        raise VariantPreconditionViolated("the classifier needs n >= 2")
    _require_c_form_preset(point, tol)

    e_l = point.tangent.matrix[:n]
    rng = np.random.default_rng(seed)
    combos = rng.normal(size=(samples, n))
    combos /= np.linalg.norm(combos, axis=1)[:, None]
    directions = np.vstack([np.eye(n), combos]) @ e_l

    all_eq = True
    for direction in directions:
        report = ricci_bound(point, direction, "c_form", tol)
        if abs(report.slack) > tol.equality:
            all_eq = False
            break
    expected = "totally_f_umbilical" if n == 2 else "totally_geodesic"
    has_class = getattr(classify_sff(point, tol), expected)
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
    _orthonormal_l_pair(point, x, y, tol)
    vx = as_vec(x, dim=point.ambient.dim)
    vy = as_vec(y, dim=point.ambient.dim)
    return float((vx @ point.ambient.f_matrix @ vy) ** 2)


def delta_bound(point: SubmanifoldPoint, x, y, slant_mode: bool = False,
                tol: Tolerances = DEFAULT) -> BoundReport:
    """Bound for tau - K(pi) over a plane pi in L spanned by X, Y.

    With ``slant_mode`` the |T|^2 term is replaced by n cos^2(theta)
    using the probed slant angle, which must exist.
    """
    n = point.n
    f = point.functions
    a, b = _orthonormal_l_pair(point, x, y, tol)
    # Both vectors lie in L, so the structure terms of the model
    # curvature vanish and K(pi) reduces to F1 + 3 F2 g(X, fY)^2 plus
    # the Gauss contribution of the form coefficients.
    w = float(a @ point.phi @ b)
    f_sq = w * w
    s = point.sff.coeffs
    sa = np.einsum("rij,j->ri", s, a)
    sb = np.einsum("rij,j->ri", s, b)
    gauss = float((sa @ a) @ (sb @ b) - (sa @ b) @ (sb @ a))
    k_plane = f.f1 + 3.0 * f.f2 * f_sq + gauss
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


def _adapted_pair_rotation(point: SubmanifoldPoint, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tangent-frame rotation with the plane pair first, structure rows fixed."""
    n = point.n
    pair = np.vstack([a[:n], b[:n]])
    rest = complete_basis(pair, n - 2) if n > 2 else np.zeros((0, n))
    c = np.eye(n + 2)
    c[:n, :n] = np.vstack([pair, rest])
    return c


def delta_equality_shape_check(point: SubmanifoldPoint, x, y,
                               tol: Tolerances = DEFAULT) -> ShapeMatchResult:
    """Test whether the form coefficients take the equality-case patterns.

    The tangent frame is rotated so the plane pair comes first; when the
    mean curvature does not vanish the first normal direction is aligned
    with it (the patterns single that direction out), otherwise the
    normal frame is kept as is with c = 0 forced by tracelessness.
    """
    a, b = _orthonormal_l_pair(point, x, y, tol)
    c_tan = _adapted_pair_rotation(point, a, b)
    sigma = np.einsum("ai,bj,rij->rab", c_tan, c_tan, point.sff.coeffs)

    rank = sigma.shape[0]
    if rank == 0:
        return ShapeMatchResult(True, ShapeOperatorForm(0.0, 0.0, 0.0, ()))

    h = np.einsum("rii->r", sigma) / (point.n + 2)
    h_norm = float(np.linalg.norm(h))
    if h_norm > tol.equality:
        first = h / h_norm
        rest = complete_basis(first[None, :], rank - 1)
        q = np.vstack([first[None, :], rest]) if rank > 1 else first[None, :]
        sigma = np.einsum("qr,rab->qab", q, sigma)

    a0 = float(sigma[0, 0, 0])
    b0 = float(sigma[0, 0, 1])
    c0 = float(sigma[0, 0, 0] + sigma[0, 1, 1])

    residual = 0.0
    lead = sigma[0]
    residual = max(residual, float(np.max(np.abs(lead[:2, 2:]), initial=0.0)))
    trailing = lead[2:, 2:] - c0 * np.eye(point.n)
    residual = max(residual, float(np.max(np.abs(trailing), initial=0.0)))
    pairs = []
    for r in range(1, rank):
        block = sigma[r]
        residual = max(residual, abs(float(block[0, 0] + block[1, 1])))
        residual = max(residual, float(np.max(np.abs(block[:2, 2:]), initial=0.0)))
        residual = max(residual, float(np.max(np.abs(block[2:, 2:]), initial=0.0)))
        pairs.append((float(block[0, 0]), float(block[0, 1])))

    return ShapeMatchResult(
        matches_forms=residual <= tol.shape_match,
        recovered=ShapeOperatorForm(a0, b0, c0, tuple(pairs)),
    )


def _plane_curvature_batch(f: StructureFunctions, phi_l: np.ndarray,
                           s_l: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K of planes spanned by orthonormal coordinate pairs, batched."""
    w = np.sum(a * (b @ phi_l.T), axis=1)
    sa = np.tensordot(a, s_l, axes=([1], [2]))  # (starts, normals, n)
    sb = np.tensordot(b, s_l, axes=([1], [2]))
    saa = np.matmul(sa, a[:, :, None])[:, :, 0]
    sbb = np.matmul(sb, b[:, :, None])[:, :, 0]
    sab = np.matmul(sa, b[:, :, None])[:, :, 0]
    gauss = np.sum(saa * sbb - sab ** 2, axis=1)
    return f.f1 + 3.0 * f.f2 * w ** 2 + gauss


def _update_block(f: StructureFunctions, phi_l: np.ndarray, s_l: np.ndarray,
                  fixed: np.ndarray) -> np.ndarray:
    """Exact minimizers over unit vectors orthogonal to each fixed vector.

    Minimizes K(x, fixed_s) over unit x with x . fixed_s = 0; each update
    is a rotation of the free plane vector inside the orthogonal
    complement, the block form of a coordinate-descent sweep.
    """
    v = fixed @ phi_l.T
    sf = np.tensordot(fixed, s_l, axes=([1], [2]))  # (starts, normals, n)
    sff_val = np.matmul(sf, fixed[:, :, None])[:, :, 0]
    m = (3.0 * f.f2) * (v[:, :, None] * v[:, None, :])
    if s_l.shape[0]:
        m += np.tensordot(sff_val, s_l, axes=([1], [0]))
        m -= np.matmul(sf.transpose(0, 2, 1), sf)

    # Conjugate by the projector off the fixed direction, then lift that
    # direction to a dominant eigenvalue so the smallest eigenvector of
    # the result is the constrained minimizer.
    mo = np.matmul(m, fixed[:, :, None])[:, :, 0]
    omo = np.sum(fixed * mo, axis=1)
    shift = np.max(np.abs(m), axis=(1, 2)) * 10.0 + 1.0
    m = (
        m
        - fixed[:, :, None] * mo[:, None, :]
        - mo[:, :, None] * fixed[:, None, :]
        + (omo + shift)[:, None, None] * (fixed[:, :, None] * fixed[:, None, :])
    )

    _, vecs = np.linalg.eigh(m)
    new = vecs[:, :, 0]
    new -= np.sum(new * fixed, axis=1)[:, None] * fixed
    new /= np.linalg.norm(new, axis=1)[:, None]
    return new


def minimize_sectional_plane(point: SubmanifoldPoint,
                             options: PlaneSearchOptions = PlaneSearchOptions()):
    """Best-effort infimum of induced K over 2-planes inside L.

    Multi-start alternating minimization: starts at every L-frame pair
    plus seeded random pairs, and repeatedly replaces one plane vector
    by the exact minimizer in the other's orthogonal complement until a
    full round improves less than ``options.improvement_tol``.  Returns
    (value, a, b) with the plane in L-frame coordinates.  The value is K
    of an actual plane, so it is an upper bound for the true infimum: it
    can refute a bound on tau - inf K, but a bound that holds at it is
    not certified.  The argmin is best-effort, for diagnosis.
    """
    n = point.n
    if n < 2:
        raise BadShape("planes in L need n >= 2")
    f = point.functions
    phi_l = point.phi[:n, :n]
    s_l = point.sff.coeffs[:, :n, :n]

    if n == 2:
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        value = _plane_curvature_batch(f, phi_l, s_l, a[None, :], b[None, :])[0]
        return float(value), a, b

    starts_a = []
    starts_b = []
    eye = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            starts_a.append(eye[i])
            starts_b.append(eye[j])
    rng = np.random.default_rng(options.seed)
    for _ in range(options.random_starts):
        q, _ = np.linalg.qr(rng.normal(size=(n, 2)))
        starts_a.append(q[:, 0])
        starts_b.append(q[:, 1])
    a = np.array(starts_a)
    b = np.array(starts_b)

    values = _plane_curvature_batch(f, phi_l, s_l, a, b)
    active = np.ones(len(values), dtype=bool)
    rounds = 0
    while active.any() and rounds < options.max_rounds:
        rounds += 1
        idx = np.flatnonzero(active)
        a_act = _update_block(f, phi_l, s_l, b[idx])
        b_act = _update_block(f, phi_l, s_l, a_act)
        new_values = _plane_curvature_batch(f, phi_l, s_l, a_act, b_act)
        improvement = values[idx] - new_values
        a[idx], b[idx] = a_act, b_act
        values[idx] = new_values
        active[idx] = improvement > options.improvement_tol
    best = int(np.argmin(values))
    if active[best]:
        raise SearchDidNotConverge(
            "plane search hit the round cap before converging",
            best_value=float(values[best]),
            best_pair=(a[best].copy(), b[best].copy()),
        )
    return float(values[best]), a[best], b[best]


def global_delta_bounds(point: SubmanifoldPoint,
                        options: PlaneSearchOptions = PlaneSearchOptions(),
                        tol: Tolerances = DEFAULT) -> GlobalDeltaReport:
    """Bounds for tau - inf K over planes in L, split by the sign of F2.

    For F2 >= 0 the bound carries the extra 3n/2 F2 term and equality is
    characterized by |T|^2 = n with n even (an invariant point); for
    F2 < 0 the term is dropped and the characterization asks the frame
    completed from the argmin plane to be anti-invariant in its trailing
    directions (an adapted-frame check, reported as such).  For n = 2
    slant points the specialized four-dimensional bound is reported too.
    """
    n = point.n
    f = point.functions
    inf_k, a, b = minimize_sectional_plane(point, options)
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
        full_a = np.concatenate([a, np.zeros(2)])
        full_b = np.concatenate([b, np.zeros(2)])
        c_tan = _adapted_pair_rotation(point, full_a, full_b)
        trailing = []
        for j in range(2, n):
            ej = c_tan[j, :n] @ e_l
            fej = point.ambient.f_matrix @ ej
            t_part = (point.tangent.matrix.T @ (point.tangent.matrix @ fej))
            trailing.append(float(np.linalg.norm(t_part)))
        diagnosis["trailing_t_norms"] = tuple(trailing)
        diagnosis["trailing_anti_invariant_adapted_frame"] = bool(
            max(trailing, default=0.0) <= tol.membership
        )

    slack = rhs - lhs
    bound = BoundReport(lhs=lhs, rhs=rhs, slack=slack,
                        equality=slack <= tol.equality)

    four_dim = None
    if n == 2:
        slant = slant_probe(point, tol=tol)
        if slant.is_slant:
            rhs4 = (
                n * (n + 2) ** 2 / (2.0 * (n + 1)) * point.h_norm_sq
                + 5.0 * f.f1
                - 3.0 * (f.f11 + f.f22)
                + f.f3
            )
            slack4 = rhs4 - lhs
            defects = None
            if point.flags.c_compatible:
                defects = (
                    ("mean_curvature_term",
                     n * (n + 2) ** 2 / (2.0 * (n + 1)) * point.h_norm_sq),
                )
            four_dim = BoundReport(lhs=lhs, rhs=rhs4, slack=slack4,
                                   equality=slack4 <= tol.equality,
                                   defect_terms=defects)

    return GlobalDeltaReport(branch=branch, bound=bound, inf_k=inf_k,
                             argmin_plane=argmin, equality_diagnosis=diagnosis,
                             four_dim_slant=four_dim)


def equality_instance(ambient: AmbientModel, functions: StructureFunctions,
                      n: int, form: ShapeOperatorForm,
                      frame_spec=None) -> SubmanifoldPoint:
    """Build a point whose form coefficients follow the equality patterns.

    The resulting point attains equality in the scalar-vs-plane bound at
    the plane of its first two frame vectors, for any structure-function
    values.  ``frame_spec`` may supply raw tangent vectors (structure
    vectors in the span); the default is the anti-invariant coordinate
    frame, which needs m >= n.
    """
    if n < 2:
        raise BadShape("the equality patterns single out a plane, so n >= 2")
    if frame_spec is None:
        if ambient.m < n:
            raise BadShape("the default frame needs m >= n")
        frame_spec = [np.eye(ambient.dim)[2 * k] for k in range(n)] \
            + [ambient.xi[0], ambient.xi[1]]
    frame_spec = [as_vec(v, dim=ambient.dim) for v in frame_spec]
    if len(frame_spec) - 2 != n:
        raise BadShape(f"frame spec yields n = {len(frame_spec) - 2}, expected {n}")

    rank = ambient.dim - (n + 2)
    if rank < 1 + len(form.pairs):
        raise BadShape(
            f"need normal rank >= {1 + len(form.pairs)}, model provides {rank}"
        )
    t = n + 2
    coeffs = np.zeros((rank, t, t))
    coeffs[0, 0, 0] = form.a
    coeffs[0, 0, 1] = coeffs[0, 1, 0] = form.b
    coeffs[0, 1, 1] = form.c - form.a
    for i in range(2, t):
        coeffs[0, i, i] = form.c
    for p, (ar, br) in enumerate(form.pairs, start=1):
        coeffs[p, 0, 0] = ar
        coeffs[p, 0, 1] = coeffs[p, 1, 0] = br
        coeffs[p, 1, 1] = -ar
    return attach_point(ambient, functions, frame_spec,
                        SecondFundamentalForm(coeffs), PointFlags())
