import hashlib
import math

import numpy as np
import pytest

import gssf as G


def test_slant_frame_theta_zero_is_invariant():
    ambient = G.canonical_model(2)
    frame = G.slant_frame(ambient, 2, 0.0)
    eye = np.eye(6)
    assert np.array_equal(frame[0], eye[0])
    assert np.array_equal(frame[1], eye[1])
    assert np.array_equal(frame[2], ambient.xi[0])
    assert np.array_equal(frame[3], ambient.xi[1])


def test_slant_frame_right_angle_is_anti_invariant():
    ambient = G.canonical_model(2)
    functions = G.StructureFunctions(1, 0, 0, 0, 0, 0, 0)
    frame = G.slant_frame(ambient, 2, math.pi / 2)
    point = G.attach_point(ambient, functions, frame,
                           G.SecondFundamentalForm.zeros(2, 4))
    probe = G.slant_probe(point)
    assert probe.is_slant and abs(probe.angle - math.pi / 2) < 1e-9
    assert point.t_norm_sq < 1e-18


def test_slant_frame_t_norm():
    ambient = G.canonical_model(2)
    functions = G.StructureFunctions(1, 0, 0, 0, 0, 0, 0)
    frame = G.slant_frame(ambient, 2, math.pi / 3)
    point = G.attach_point(ambient, functions, frame,
                           G.SecondFundamentalForm.zeros(2, 4))
    assert abs(point.t_norm_sq - 0.5) < 1e-12


def test_slant_frame_row_sums():
    # each L-frame vector carries squared f-components summing to cos^2
    ambient = G.canonical_model(4)
    theta = 1.1
    functions = G.StructureFunctions(1, 0, 0, 0, 0, 0, 0)
    point = G.attach_point(ambient, functions, G.slant_frame(ambient, 4, theta),
                           G.SecondFundamentalForm.zeros(ambient.dim - 6, 6))
    for i in range(4):
        assert abs(float(np.sum(point.phi[i] ** 2)) - math.cos(theta) ** 2) < 1e-9


def test_slant_frame_dimension_errors():
    ambient = G.canonical_model(2)
    with pytest.raises(G.BadDimension):
        G.slant_frame(ambient, 3, 0.5)
    with pytest.raises(G.BadDimension):
        G.slant_frame(ambient, 4, 0.5)


def test_anti_invariant_frame_cases():
    ambient = G.canonical_model(1)
    functions = G.StructureFunctions(1, 1, 0, 0, 0, 0, 0)
    frame = G.anti_invariant_frame(ambient, 1)
    point = G.attach_point(ambient, functions, frame,
                           G.SecondFundamentalForm.zeros(1, 3))
    assert point.t_norm_sq == 0.0

    ambient2 = G.canonical_model(2)
    frame2 = G.anti_invariant_frame(ambient2, 2)
    point2 = G.attach_point(ambient2, functions, frame2,
                            G.SecondFundamentalForm.zeros(2, 4))
    assert abs(G.plane_f_squared(point2, point2.tangent.matrix[0],
                                 point2.tangent.matrix[1])) < 1e-12

    with pytest.raises(G.BadDimension):
        G.anti_invariant_frame(ambient, 2)


def test_random_instance_deterministic():
    cfg = G.GeneratorConfig(seed=1, n=3, m=4, constraint="minimal")
    first = G.random_instance(cfg)
    second = G.random_instance(cfg)
    assert np.array_equal(first.tangent.matrix, second.tangent.matrix)
    assert np.array_equal(first.sff.coeffs, second.sff.coeffs)
    assert first.functions == second.functions


def test_random_instance_minimal_constraint():
    cfg = G.GeneratorConfig(seed=1, n=3, m=3, constraint="minimal")
    point = G.random_instance(cfg)
    assert math.sqrt(point.h_norm_sq) <= 1e-12


def test_random_instance_c_compatible_constraint():
    cfg = G.GeneratorConfig(seed=2, n=3, m=3, constraint="c_compatible")
    point = G.random_instance(cfg)
    assert point.flags.c_compatible
    assert np.all(point.sff.coeffs[:, 3:, :] == 0.0)
    assert np.all(point.sff.coeffs[:, :, 3:] == 0.0)


def test_random_instance_combined_constraint():
    cfg = G.GeneratorConfig(seed=3, n=3, m=4,
                            constraint="minimal_and_c_compatible")
    point = G.random_instance(cfg)
    assert math.sqrt(point.h_norm_sq) <= 1e-12
    assert np.all(point.sff.coeffs[:, 3:, :] == 0.0)


def test_random_instance_frames_validate():
    for trial in range(30):
        n = 1 + trial % 6
        cfg = G.GeneratorConfig(seed=100 + trial, n=n, m=max(n, 2))
        point = G.random_instance(cfg)
        assert point.tangent.orthonormality_defect() <= 1e-10
        assert np.array_equal(point.tangent.matrix[n], point.ambient.xi[0])
        assert np.array_equal(point.tangent.matrix[n + 1], point.ambient.xi[1])


def test_bad_configs():
    with pytest.raises(G.BadConfig):
        G.GeneratorConfig(seed=0, n=0, m=1)
    with pytest.raises(G.BadConfig):
        G.GeneratorConfig(seed=0, n=5, m=2)
    with pytest.raises(G.BadConfig):
        G.GeneratorConfig(seed=0, n=2, m=2, sigma_scale=0.0)
    with pytest.raises(G.BadConfig):
        G.GeneratorConfig(seed=0, n=2, m=2, constraint="sometimes")
    with pytest.raises(G.BadConfig):
        G.GeneratorConfig(seed=0, n=2, m=2, f_ranges=((0.0, 1.0),) * 6)
    with pytest.raises(G.BadConfig):
        G.GeneratorConfig(seed=0, n=2, m=G.MAX_M + 1)
    with pytest.raises(G.BadConfig):  # the draws span 2 * scale, which overflows
        G.random_instance(G.GeneratorConfig(seed=0, n=2, m=2, sigma_scale=1e308))


_CONSTRAINTS = ("none", "minimal", "c_compatible", "minimal_and_c_compatible")
# n = 1..6, m = n..n+2, every constraint, three seeds each; about half
# the even-n draws take the slant-frame branch
_PIN_CONFIGS = [
    G.GeneratorConfig(seed=1000 * n + 100 * (m - n) + 10 * c + k, n=n, m=m,
                      constraint=_CONSTRAINTS[c])
    for n in range(1, 7) for m in range(n, n + 3) for c in range(4) for k in range(3)
]
# sha256 over tangent.matrix, sff.coeffs, the structure functions and
# normal.matrix of every _PIN_CONFIGS instance: fuzz reports and the
# test corpus are only reproducible while these bits stay fixed
GENERATOR_GOLDEN = "5c669545b273f5cce69ad611fa1432911f242647d7195efc3d019b386add9459"


def test_generator_output_bits_are_pinned(monkeypatch):
    slant_draws = []
    slant_frame = G.generators.slant_frame
    monkeypatch.setattr(G.generators, "slant_frame",
                        lambda *args: slant_draws.append(args) or slant_frame(*args))
    digest = hashlib.sha256()
    for config in _PIN_CONFIGS:
        point = G.random_instance(config)
        normal = G.complete_basis(point.tangent.matrix, point.normal_rank)
        assert point.normal.matrix.tobytes() == normal.tobytes()
        for array in (point.tangent.matrix, point.sff.coeffs,
                      np.array(point.functions.as_tuple()), point.normal.matrix):
            digest.update(array.tobytes())
    assert 0 < len(slant_draws) < len(_PIN_CONFIGS)
    assert digest.hexdigest() == GENERATOR_GOLDEN
