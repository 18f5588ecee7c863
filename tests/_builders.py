"""Shared construction helpers for the test-suite."""

from __future__ import annotations

import numpy as np

import gssf as G
from gssf.inequalities import _ricci_defect_terms


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


def random_unit_l(point, rng):
    """Seeded random unit vector in the L-part of the tangent space."""
    coeffs = rng.normal(size=point.n)
    coeffs /= np.linalg.norm(coeffs)
    return coeffs @ point.tangent.matrix[: point.n]
