import hashlib
import math
import random

import numpy as np
import pytest

import gssf as G
from _builders import normal_frame, plane_f_squared


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
    assert abs(plane_f_squared(point2, point2.tangent.matrix[0],
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
# the completed normal frame of every _PIN_CONFIGS instance: fuzz reports
# and the test corpus are only reproducible while these bits stay fixed
GENERATOR_GOLDEN = "5c669545b273f5cce69ad611fa1432911f242647d7195efc3d019b386add9459"


def test_generator_output_bits_are_pinned(monkeypatch):
    slant_draws = []
    slant_frame = G.generators.slant_frame
    monkeypatch.setattr(G.generators, "slant_frame",
                        lambda *args: slant_draws.append(args) or slant_frame(*args))
    digest = hashlib.sha256()
    for config in _PIN_CONFIGS:
        point = G.random_instance(config)
        for array in (point.tangent.matrix, point.sff.coeffs,
                      np.array(point.functions.as_tuple()), normal_frame(point).matrix):
            digest.update(array.tobytes())
    assert 0 < len(slant_draws) < len(_PIN_CONFIGS)
    assert digest.hexdigest() == GENERATOR_GOLDEN


@pytest.mark.parametrize("batch_entries", [G.generators.BATCH_ENTRIES, 1000])
def test_batched_generation_keeps_the_bits_of_single_calls(monkeypatch, batch_entries):
    # 720 configs, n = 1..12 and m = n..n+2, every constraint, in shuffled
    # order, cut into 164 batches of 1 to 3 configs at 1000 entries
    configs = [G.GeneratorConfig(seed=5000 + 100 * n + 10 * (m - n) + k, n=n, m=m,
                                 constraint=_CONSTRAINTS[k % 4])
               for n in range(1, 13) for m in range(n, n + 3) for k in range(5)]
    random.Random(18).shuffle(configs)
    singles = [G.random_instance(config) for config in configs]
    monkeypatch.setattr(G.generators, "BATCH_ENTRIES", batch_entries)
    batched = list(G.generators.random_instances(configs))
    assert len(batched) == len(configs)
    for config, single, point in zip(configs, singles, batched):
        assert point.functions == single.functions, config
        assert point.flags == single.flags, config
        for a, b in ((point.tangent.matrix, single.tangent.matrix),
                     (point.sff.coeffs, single.sff.coeffs)):
            assert a.tobytes() == b.tobytes(), config


def test_no_configs_give_no_instances():
    assert list(G.generators.random_instances([])) == []


def test_batches_keep_the_order_and_fill_the_entry_budget():
    gen = G.generators
    configs = [G.GeneratorConfig(seed=k, n=n, m=n + k % 2)
               for k, n in enumerate([1, 6, 30, 2, 60, 3, 12] * 20)]
    cut = list(gen.batches(iter(configs)))
    assert [config for batch in cut for config in batch] == configs
    entries = [sum(map(gen._entries, batch)) for batch in cut]
    # over the budget only alone; each batch stops where the next config overflows it
    assert all(len(batch) == 1 or total <= gen.BATCH_ENTRIES for batch, total in zip(cut, entries))
    assert all(total + gen._entries(following[0]) > gen.BATCH_ENTRIES
               for total, following in zip(entries, cut[1:]))
    assert list(gen.batches([])) == []


def _reference_rotation(dim, angles):
    """The Givens sweep one rotation at a time, row by row on Python floats."""
    block = dim - 2
    g = np.eye(block).tolist()
    for (i, j), angle in zip(G.generators._givens_sweep(block), angles):
        c, s = math.cos(angle), math.sin(angle)
        gi, gj = g[i], g[j]
        g[i] = [c * x - s * y for x, y in zip(gi, gj)]
        g[j] = [s * x + c * y for x, y in zip(gi, gj)]
    rotation = np.eye(dim)
    rotation[:block, :block] = g
    return rotation


@pytest.mark.parametrize("m", [1, 2, 3, 6, 13])
def test_stacked_givens_sweep_matches_the_loop_bit_for_bit(m):
    dim = 2 * m + 2
    rng = np.random.default_rng(m)
    angles = rng.uniform(0.0, 2.0 * math.pi,
                         size=(7, len(G.generators._givens_sweep(2 * m)))).tolist()
    stacked = G.generators._rotations(dim, angles)
    for rotation, row in zip(stacked, angles):
        assert rotation.tobytes() == _reference_rotation(dim, row).tobytes()
