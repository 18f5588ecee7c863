import math

import numpy as np
import pytest

import gssf as G


def random_unit_rank_block(rng, model):
    """Unit vector orthogonal to both structure directions."""
    v = np.zeros(model.dim)
    v[: 2 * model.m] = rng.normal(size=2 * model.m)
    return v / np.linalg.norm(v)


def test_canonical_model_examples():
    model = G.canonical_model(1)
    assert model.dim == 4
    assert np.linalg.matrix_rank(model.f_matrix) == 2

    model2 = G.canonical_model(2)
    x1 = np.eye(6)[0]
    assert np.allclose(model2.f_matrix @ (model2.f_matrix @ x1), -x1)


@pytest.mark.parametrize("m", [1, 2, 3, 7, G.MAX_M])
def test_canonical_model_satisfies_the_f_structure_axioms_exactly(m):
    # every entry is 0 or +-1, so each axiom holds with no rounding
    model = G.canonical_model(m)
    f, xi, eye = model.f_matrix, model.xi, np.eye(model.dim)
    eta_xi = xi.T @ xi  # sum_alpha eta_alpha (x) xi_alpha
    assert np.array_equal(f @ f @ f + f, np.zeros_like(f))
    assert np.array_equal(f @ xi.T, np.zeros((model.dim, 2)))  # f xi_alpha = 0
    assert np.array_equal(xi @ f, np.zeros((2, model.dim)))    # eta_alpha . f = 0
    # with f xi = 0 this also fixes the rank of f at 2m
    assert np.array_equal(f @ f, -eye + eta_xi)
    assert np.array_equal(f.T @ f + eta_xi, eye)  # g = g(f., f.) + sum eta (x) eta
    assert np.array_equal(xi @ xi.T, np.eye(2))


def test_presets():
    s = G.preset_structure_functions("s_space_form", 2.0)
    assert s.as_tuple() == (2.0, 0.0, 0.0, 1.0, -1.0, -1.0, 1.0)
    c = G.preset_structure_functions("c_space_form", 0.0)
    assert c.as_tuple() == (0.0,) * 7
    r = G.preset_structure_functions("real_space_form", 1.0)
    assert r.as_tuple() == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(G.BadConfig):
        G.preset_structure_functions("nope", 1.0)


def test_f_sectional_value():
    model = G.canonical_model(2)
    functions = G.preset_structure_functions("s_space_form", 2.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = random_unit_rank_block(rng, model)
        fx = model.f_matrix @ x
        k = G.ambient_curvature(model, functions, x, fx, fx, x)
        assert abs(k - 2.0) < 1e-9


def test_antisymmetry_and_degenerate_slots():
    model = G.canonical_model(3)
    rng = np.random.default_rng(4)
    functions = G.StructureFunctions(*rng.uniform(-2, 2, 7))
    for _ in range(25):
        x, y, z, w = rng.normal(size=(4, model.dim))
        lhs = G.ambient_curvature(model, functions, x, y, z, w)
        rhs = G.ambient_curvature(model, functions, y, x, z, w)
        assert abs(lhs + rhs) < 1e-12 * max(1.0, abs(lhs))
        assert abs(G.ambient_curvature(model, functions, x, x, z, w)) < 1e-12


def test_structure_plane_value():
    model = G.canonical_model(2)
    rng = np.random.default_rng(5)
    functions = G.StructureFunctions(*rng.uniform(-2, 2, 7))
    value = G.ambient_curvature(model, functions, model.xi[0], model.xi[1],
                                model.xi[1], model.xi[0])
    expected = functions.f1 + functions.f3 - (functions.f11 + functions.f22)
    assert abs(value - expected) < 1e-12


def test_real_space_form_constant_curvature():
    model = G.canonical_model(3)
    functions = G.preset_structure_functions("real_space_form", -0.7)
    rng = np.random.default_rng(6)
    for _ in range(25):
        pair = G.gram_schmidt(list(rng.normal(size=(2, model.dim))))
        x, y = pair.matrix
        k = G.ambient_curvature(model, functions, x, y, y, x)
        assert abs(k + 0.7) < 1e-9


def test_plane_value_rotation_invariant():
    model = G.canonical_model(2)
    rng = np.random.default_rng(7)
    functions = G.StructureFunctions(*rng.uniform(-2, 2, 7))
    pair = G.gram_schmidt(list(rng.normal(size=(2, model.dim))))
    x, y = pair.matrix
    base = G.ambient_curvature(model, functions, x, y, y, x)
    for angle in rng.uniform(0, 2 * math.pi, size=8):
        xr = math.cos(angle) * x + math.sin(angle) * y
        yr = -math.sin(angle) * x + math.cos(angle) * y
        assert abs(G.ambient_curvature(model, functions, xr, yr, yr, xr) - base) < 1e-9


def test_frame_sectional_matches_general_path():
    model = G.canonical_model(3)
    rng = np.random.default_rng(8)
    functions = G.StructureFunctions(*rng.uniform(-2, 2, 7))
    frame = G.gram_schmidt(list(rng.normal(size=(model.dim, model.dim))))
    phi = frame.matrix @ model.f_matrix @ frame.matrix.T
    eta = frame.matrix @ model.xi.T
    fast = G.frame_sectional(functions, phi, eta)
    for i in range(4):
        for j in range(i + 1, 6):
            literal = G.ambient_curvature(
                model, functions, frame.matrix[i], frame.matrix[j],
                frame.matrix[j], frame.matrix[i],
            )
            assert abs(fast[i, j] - literal) < 1e-10


def test_dimension_mismatch():
    model = G.canonical_model(1)
    functions = G.preset_structure_functions("real_space_form", 1.0)
    with pytest.raises(G.DimensionMismatch):
        G.ambient_curvature(model, functions, np.ones(3), np.ones(4),
                            np.ones(4), np.ones(4))
