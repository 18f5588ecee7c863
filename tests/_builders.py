"""Shared construction helpers and reference computations for the test-suite."""

from __future__ import annotations

import numpy as np

import gssf as G
from gssf.inequalities import _best_partner, _orthonormal_l_pair, _plane_k, _ricci_defect_terms


def spot_point():
    """n = 2 invariant frame, vanishing form, S-family with c = 2, m = 2.

    Hand-computed values: tau = 6, Ric(e1) = 4, K(plane) = 2,
    delta bound 4 = 4 with equality.
    """
    ambient = G.canonical_model(2)
    functions = G.preset_structure_functions("s_space_form", 2.0)
    raw = G.slant_frame(ambient, 2, 0.0)
    sff = G.SecondFundamentalForm.zeros(2, 4)
    return G.attach_point(ambient, functions, raw, sff)


def invariant_point(n=2, m=None, functions=None, sff=None, flags=None):
    m = m or n
    ambient = G.canonical_model(m)
    functions = functions or G.StructureFunctions(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    rank = ambient.dim - (n + 2)
    sff = sff if sff is not None else G.SecondFundamentalForm.zeros(rank, n + 2)
    return G.attach_point(ambient, functions, G.slant_frame(ambient, n, 0.0), sff, flags)


def anti_invariant_point(n=2, m=None, functions=None, sff=None, flags=None):
    m = m or n
    ambient = G.canonical_model(m)
    functions = functions or G.StructureFunctions(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    rank = ambient.dim - (n + 2)
    sff = sff if sff is not None else G.SecondFundamentalForm.zeros(rank, n + 2)
    return G.attach_point(ambient, functions, G.anti_invariant_frame(ambient, n), sff, flags)


def project(x, onto):
    """Orthogonal projection of ``x`` onto the span of a ``G.Basis``."""
    v = G.as_vec(x, dim=onto.matrix.shape[1])
    return onto.matrix.T @ (onto.matrix @ v)


def tn_decompose(point, x, tol=G.DEFAULT):
    """Split f X into tangential and normal parts (TX, NX), TX + NX = fX;
    NotTangent when X is off the tangent space."""
    v = G.as_vec(x, dim=point.ambient.dim)
    point.tangent_coords(v, tol)
    fx = point.ambient.f_matrix @ v
    tx = project(fx, point.tangent)
    return tx, fx - tx


def normal_frame(point, tol=G.DEFAULT):
    """Orthonormal complement of the tangent frame, validated with ``tol``."""
    return G.Basis(G.complete_basis(point.tangent.matrix, point.normal_rank), tol)


def plane_f_squared(point, x, y, tol=G.DEFAULT):
    """Squared f-component g(X, fY)^2 of the plane spanned by orthonormal
    X, Y in L: in [0, 1], and independent of the basis of the plane."""
    a, b = _orthonormal_l_pair(point, x, y, tol)
    w = float(a @ point.phi @ b)
    return w * w


def sff_with(rank, t_dim, entries):
    """Zero coefficients plus symmetric entries {(r, i, j): value}, 0-based."""
    coeffs = np.zeros((rank, t_dim, t_dim))
    for (r, i, j), value in entries.items():
        coeffs[r, i, j] = value
        coeffs[r, j, i] = value
    return G.SecondFundamentalForm(coeffs)


def frame_ricci_defects(point):
    """Sum of the general Ricci defect terms at each L-frame direction,
    from the form coefficients alone."""
    trace_gaps, mixed = _ricci_defect_terms(point.sff.coeffs, np.eye(point.n), point.n + 2)
    return (trace_gaps + mixed).sum(axis=0)


def plane_bound_defects(point):
    """Chen's sum of squares D_r of the plane bound, one row per L-frame pair
    i < j (in the order of ``frame_sweep``'s plane slacks), one column per
    normal r, from the form coefficients alone (Chen, Arch. Math. 60, 1993):

        D_r = sum_{k < l, {k, l} != {i, j}} sigma_r,kl^2
              + sum_{p < q} (b_p - b_q)^2 / (2 (N - 1)),

    over the N = n + 2 frame vectors, with b = (sigma_r,ii + sigma_r,jj,
    then sigma_r,kk for each k outside {i, j}).  Every term is a square,
    and the slack at (e_i, e_j) is sum_r D_r.
    """
    s = point.sff.coeffs
    big_n = s.shape[1]
    pair_i, pair_j = np.triu_indices(point.n, 1)
    pairs = np.arange(len(pair_i))
    off_plane = np.triu(np.ones((big_n, big_n)), 1)[None].repeat(len(pairs), axis=0)
    off_plane[pairs, pair_i, pair_j] = 0.0
    rest = np.array([[k for k in range(big_n) if k not in (i, j)]
                     for i, j in zip(pair_i, pair_j)], dtype=np.intp).reshape(len(pairs), -1)
    diag = np.einsum("rkk->rk", s)
    b = np.concatenate([(diag[:, pair_i] + diag[:, pair_j]).T[:, :, None],
                        diag[:, rest].transpose(1, 0, 2)], axis=2)  # (pairs, normals, N - 1)
    spread = ((b[:, :, :, None] - b[:, :, None, :]) ** 2).sum(axis=(2, 3)) / 2.0
    return np.einsum("pkl,rkl->pr", off_plane, s ** 2) + spread / (2.0 * (big_n - 1))


def random_unit_l(point, rng):
    """Seeded random unit vector in the L-part of the tangent space."""
    coeffs = rng.normal(size=point.n)
    coeffs /= np.linalg.norm(coeffs)
    return coeffs @ point.tangent.matrix[: point.n]


def reference_plane_search(point):
    """inf K over planes in L from a multi-start block descent that never
    reads the curvature operator: an independent upper value for the
    bracket of ``minimize_sectional_plane``.

    Starts at every L-frame pair plus 20 random pairs (seed 0), and
    repeatedly replaces one plane vector by the exact minimizer in the
    other's orthogonal complement until a full round improves less than
    1e-10 or 10 000 rounds have run.  Returns (value, a, b) in L-frame
    coordinates, value = K at (a, b) to rounding.
    """
    n = point.n
    f, phi_l, s_l = point.functions, point.phi[:n, :n], point.sff.coeffs[:, :n, :n]
    rng = np.random.default_rng(0)
    random_q = [np.linalg.qr(rng.normal(size=(n, 2)))[0] for _ in range(20)]
    a, b = (np.vstack([np.eye(n)[frame], [q[:, k] for q in random_q]])
            for k, frame in enumerate(np.triu_indices(n, 1)))
    values = _plane_k(f, phi_l, s_l, a, b)
    active = np.ones(len(values), dtype=bool)
    for _ in range(10_000):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        a_act, _ = _best_partner(f, phi_l, s_l, b[idx])
        b_act, new_values = _best_partner(f, phi_l, s_l, a_act)
        a[idx], b[idx] = a_act, b_act
        active[idx] = values[idx] - new_values > 1e-10
        values[idx] = new_values
    best = int(np.argmin(values))
    return float(values[best]), a[best], b[best]
