import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gssf as G
from _builders import project


def test_already_orthonormal_unchanged():
    basis = G.gram_schmidt([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(basis.matrix, np.eye(2))


def test_orthonormalization_forced():
    basis = G.gram_schmidt([np.array([2.0, 0.0]), np.array([1.0, 1.0])])
    assert np.allclose(basis.matrix, np.eye(2))


def test_dependent_input_detected():
    with pytest.raises(G.DependentInput):
        G.gram_schmidt([np.array([1.0, 0.0]), np.array([2.0, 0.0])])


def test_tail_vectors_kept_fixed():
    tail = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])]
    head = [np.array([1.0, 2.0, 3.0])]
    basis = G.gram_schmidt(head + tail, keep_tail_fixed=2)
    assert np.array_equal(basis.matrix[1], tail[0])
    assert np.array_equal(basis.matrix[2], tail[1])
    assert np.allclose(basis.matrix[0], [1.0, 0.0, 0.0])


def test_tail_must_be_orthonormal():
    with pytest.raises(G.NotOrthonormal):
        G.gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])],
                       keep_tail_fixed=1)


def test_project_examples():
    basis = G.gram_schmidt([np.array([1.0, 0.0])])
    assert np.allclose(project([1.0, 1.0], basis), [1.0, 0.0])
    assert np.allclose(project([1.0, 0.0], basis), [1.0, 0.0])
    assert np.allclose(project([0.0, 2.0], basis), [0.0, 0.0])


def test_project_dimension_mismatch():
    basis = G.gram_schmidt([np.array([1.0, 0.0])])
    with pytest.raises(G.DimensionMismatch):
        project([1.0, 0.0, 0.0], basis)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(2, 10), st.integers(0, 2**31 - 1))
def test_gram_schmidt_output_orthonormal(k, extra, seed):
    rng = np.random.default_rng(seed)
    dim = k + extra % 4
    mat = rng.normal(size=(min(k, dim), dim))
    if np.linalg.svd(mat, compute_uv=False).min() < 1e-3:
        return  # nearly dependent draws are exercised elsewhere
    basis = G.gram_schmidt(list(mat))
    assert basis.orthonormality_defect() <= 1e-10
    # spans agree: original vectors reproduce under projection
    for row in mat:
        assert np.linalg.norm(row - project(row, basis)) < 1e-8 * np.linalg.norm(row)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_project_idempotent(k, seed):
    rng = np.random.default_rng(seed)
    dim = k + 3
    mat = rng.normal(size=(k, dim))
    if np.linalg.svd(mat, compute_uv=False).min() < 1e-3:
        return
    basis = G.gram_schmidt(list(mat))
    x = rng.normal(size=dim)
    once = project(x, basis)
    twice = project(once, basis)
    assert np.max(np.abs(once - twice)) <= 1e-12
    # residual orthogonal to the span
    assert np.max(np.abs(basis.matrix @ (x - once))) <= 1e-10 * max(1, np.linalg.norm(x))


def test_complete_basis_fills_complement():
    rows = np.eye(5)[:2]
    rest = G.complete_basis(rows, 3)
    full = G.Basis(np.vstack([rows, rest]))
    assert len(full) == 5


def test_basis_rejects_sloppy_rows():
    with pytest.raises(G.NotOrthonormal):
        G.Basis(np.array([[1.0, 1e-6], [0.0, 1.0]]))
