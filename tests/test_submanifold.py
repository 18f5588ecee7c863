import dataclasses
import math

import numpy as np
import pytest

import gssf as G
from gssf.scenario import assemble
from gssf.submanifold import tangent_frames
from _builders import (anti_invariant_point, invariant_point, normal_frame, project, random_unit_l,
                       sff_with, spot_point, tn_decompose)


def test_attach_full_tangent_space():
    ambient = G.canonical_model(2)
    functions = G.preset_structure_functions("s_space_form", 2.0)
    raw = list(np.eye(ambient.dim))
    point = G.attach_point(ambient, functions, raw,
                           G.SecondFundamentalForm.zeros(0, 6))
    assert point.n == 4
    assert point.normal_rank == 0
    assert np.array_equal(point.tangent.matrix[4], ambient.xi[0])
    assert np.array_equal(point.tangent.matrix[5], ambient.xi[1])


def test_attach_missing_xi():
    ambient = G.canonical_model(2)
    functions = G.preset_structure_functions("s_space_form", 2.0)
    raw = [np.eye(6)[0], np.eye(6)[1], ambient.xi[0]]
    with pytest.raises(G.XiNotTangent):
        G.attach_point(ambient, functions, raw, G.SecondFundamentalForm.zeros(3, 3))


def test_attach_shape_mismatch():
    ambient = G.canonical_model(2)
    functions = G.preset_structure_functions("s_space_form", 2.0)
    raw = G.slant_frame(ambient, 2, 0.0)
    with pytest.raises(G.BadShape):
        G.attach_point(ambient, functions, raw, G.SecondFundamentalForm.zeros(1, 4))


def test_attach_point_validates_frames_with_its_tolerance():
    point = G.random_instance(G.GeneratorConfig(seed=0, n=3, m=4))
    raw = point.tangent.matrix
    again = G.attach_point(point.ambient, point.functions, raw, point.sff)
    defect = max(again.tangent.orthonormality_defect(),
                 normal_frame(again).orthonormality_defect())
    assert 0.0 < defect <= G.DEFAULT.orthonormality
    loose = G.Tolerances(orthonormality=2.0 * defect)
    strict = G.Tolerances(orthonormality=defect / 2.0)
    G.attach_point(point.ambient, point.functions, raw, point.sff, tol=loose)
    with pytest.raises(G.NotOrthonormal):
        G.attach_point(point.ambient, point.functions, raw, point.sff, tol=strict)


def test_normal_frame_is_validated_lazily_with_the_point_tolerance():
    point = G.random_instance(G.GeneratorConfig(seed=11, n=3, m=4))
    raw = point.tangent.matrix
    again = G.attach_point(point.ambient, point.functions, raw, point.sff)
    tangent_defect = again.tangent.orthonormality_defect()
    normal_defect = normal_frame(again).orthonormality_defect()
    assert tangent_defect < normal_defect
    between = G.Tolerances(orthonormality=(tangent_defect + normal_defect) / 2.0)
    strict = G.attach_point(point.ambient, point.functions, raw, point.sff, tol=between)
    assert strict.normal_rank == 5
    with pytest.raises(G.NotOrthonormal):
        normal_frame(strict, between)


def _reference_span_check(ambient, raw, tol=G.DEFAULT):
    """The rank and structure-vector tests as Gram-Schmidt plus projection."""
    basis = G.gram_schmidt(raw, tol=tol)
    for xi in ambient.xi:
        if np.linalg.norm(xi - project(xi, basis)) > tol.tangency:
            raise G.XiNotTangent("xi is off the span")


def _span_cases():
    ambient = G.canonical_model(3)
    xi1, xi2 = ambient.xi
    eye = np.eye(ambient.dim)
    rng = np.random.default_rng(5)
    cases = {}
    for k in range(6):
        l_part = list(rng.normal(size=(1 + k % 5, ambient.dim)))
        cases[f"random-{k}"] = l_part + [xi1 + l_part[0], 2.0 * xi2 - xi1]
    v = rng.normal(size=ambient.dim)
    cases["repeated"] = [v, eye[2], v, xi1, xi2]
    # relative pivot 1e-14: only the rank test sees it, the L-part keeps 1e-8
    cases["near-dependent-long"] = [1e6 * eye[0], 1e6 * eye[0] + 1e-8 * eye[1], xi1, xi2]
    cases["zero"] = [v, np.zeros(ambient.dim), xi1, xi2]
    cases["more-than-dim"] = list(rng.normal(size=(ambient.dim + 1, ambient.dim)))
    cases["xi-off-1e-8"] = [eye[0], eye[2], xi1, xi2 + 1e-8 * eye[1]]
    cases["xi-off-1e-11"] = [eye[0], eye[2], xi1, xi2 + 1e-11 * eye[1]]
    return ambient, cases


_SPAN_AMBIENT, _SPAN_CASES = _span_cases()


@pytest.mark.parametrize("name", sorted(_SPAN_CASES))
def test_attach_point_span_checks_match_gram_schmidt(name):
    ambient, raw = _SPAN_AMBIENT, _SPAN_CASES[name]
    try:
        _reference_span_check(ambient, raw)
        expected = None
    except G.GssfError as exc:
        expected = type(exc)
    assert (expected is None) == (name.startswith("random") or name == "xi-off-1e-11")
    t = len(raw)
    sff = G.SecondFundamentalForm.zeros(max(ambient.dim - t, 0), t)
    functions = G.preset_structure_functions("s_space_form", 2.0)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        if expected is None:
            assert G.attach_point(ambient, functions, raw, sff).n == t - 2
        else:
            with pytest.raises(expected):
                G.attach_point(ambient, functions, raw, sff)


# pivot 1e-10 passes the rank test (and gram_schmidt), but the second
# vector's L-part beyond the first is 1e-10, below tangency: no split
_SPLIT = [np.eye(8)[0], np.eye(8)[0] + 1e-10 * np.eye(8)[1], *_SPAN_AMBIENT.xi]


@pytest.mark.parametrize("name", ["repeated", "near-dependent-long", "zero", "xi-off-1e-8",
                                  "split"])
def test_frame_stack_check_reports_a_bad_frame_as_it_does_alone(name):
    # the stacked frames of generated batches, on one bad frame between
    # good ones of its shape: same error class, same detail
    ambient = _SPAN_AMBIENT
    bad = np.array(_SPLIT if name == "split" else _SPAN_CASES[name])
    rng = np.random.default_rng(8)
    good = [np.vstack([rng.normal(size=(len(bad) - 2, ambient.dim)), ambient.xi])
            for _ in range(4)]
    tangent_frames(np.stack(good), ambient.xi, G.DEFAULT)
    with pytest.raises(G.GssfError) as alone:
        tangent_frames(bad[None], ambient.xi, G.DEFAULT)
    with pytest.raises(type(alone.value)) as stacked:
        tangent_frames(np.stack(good[:2] + [bad] + good[2:]), ambient.xi, G.DEFAULT)
    assert str(stacked.value) == str(alone.value)
    if name == "split":
        assert str(alone.value).startswith("tangent span does not split")


def _explicit_frames(rng, ambient, count, t):
    """``count`` random raw frames of ``t`` vectors whose span holds xi_1, xi_2:
    L-rows with xi parts, xi rows that may carry L parts, rows permuted, and
    in half of them a first column of -0.0."""
    frames = []
    for _ in range(count):
        l_rows = rng.normal(size=(t - 2, ambient.dim))
        xi_rows = rng.normal(size=(2, 2)) @ ambient.xi
        if rng.random() < 0.5:  # then the L part of an xi row drops out
            xi_rows += rng.normal(size=(2, t - 2)) @ l_rows
        frame = np.vstack([l_rows, xi_rows])[rng.permutation(t)]
        if rng.random() < 0.5:
            frame[:, 0] = -0.0
        frames.append(frame)
    return np.stack(frames)


@pytest.mark.parametrize("m, t", [(1, 3), (2, 4), (3, 5), (4, 8), (5, 11)])
def test_tangent_frames_of_a_stack_are_those_of_each_frame_alone(m, t):
    # bit for bit, signs of zero included: rows one frame drops must not
    # touch the rows of another
    ambient = G.canonical_model(m)
    frames = _explicit_frames(np.random.default_rng(m), ambient, 40, t)
    stacked = tangent_frames(frames, ambient.xi, G.DEFAULT)
    for frame, built in zip(frames, stacked):
        alone = tangent_frames(frame[None], ambient.xi, G.DEFAULT)[0]
        assert alone.tobytes() == built.tobytes()
        G.Basis(alone)  # orthonormal
        assert np.array_equal(alone[-2:], ambient.xi)


@pytest.mark.parametrize("raw, error", [
    ([[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0, 0]], G.DimensionMismatch),
    ([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], G.DimensionMismatch),
    ([[math.nan, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]], G.BadShape),
    ([[[1.0, 0, 0, 0]], [[0, 0, 1.0, 0]]], G.BadShape),
    ([[0, 0, 1.0, 0]], G.BadShape),
    ([[1e308, 1e308, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]], G.NonFinite),
], ids=["ragged", "wrong-dim", "nan", "not-rows", "one-vector", "norm-overflow"])
def test_attach_point_rejects_malformed_vectors(raw, error):
    ambient = G.canonical_model(1)
    functions = G.preset_structure_functions("s_space_form", 2.0)
    with np.errstate(divide="raise", over="raise", invalid="raise"), pytest.raises(error):
        G.attach_point(ambient, functions, raw, G.SecondFundamentalForm.zeros(1, 3))


def test_attach_c_compatible_requires_zero_xi_rows():
    ambient = G.canonical_model(2)
    functions = G.preset_structure_functions("c_space_form", 1.0)
    raw = G.slant_frame(ambient, 2, 0.0)
    sff = sff_with(2, 4, {(0, 0, 2): 1.0})
    with pytest.raises(G.BadShape):
        G.attach_point(ambient, functions, raw, sff,
                       G.PointFlags(c_compatible=True))


@pytest.mark.parametrize("case, error", [
    ("normal-rank", G.BadShape), ("tangent-size", G.BadShape), ("c_compatible", G.BadShape),
    ("tangent-dimension", G.DimensionMismatch)])
def test_point_checks_its_own_form_as_attach_point_does(case, error):
    # built directly or through dataclasses.replace, a point takes only a
    # frame of the ambient's dimension, a form of the frame's shape, and
    # under c_compatible a form that vanishes on xi
    point = spot_point()  # n = 2, m = 2: four tangent vectors, normal rank 2
    ambient, functions = point.ambient, point.functions
    tangent, sff, flags = {
        "normal-rank": (point.tangent, G.SecondFundamentalForm.zeros(1, 4), G.PointFlags()),
        "tangent-size": (G.Basis(np.eye(ambient.dim)[[0, 4, 5]]), point.sff, G.PointFlags()),
        "c_compatible": (point.tangent, sff_with(2, 4, {(0, 0, 2): 1.0}),
                         G.PointFlags(c_compatible=True)),
        "tangent-dimension": (G.Basis(np.eye(8)[[0, 2, 6, 7]]), point.sff, G.PointFlags()),
    }[case]
    with pytest.raises(error) as attached:
        G.attach_point(ambient, functions, tangent.matrix, sff, flags)
    with pytest.raises(error) as direct:
        G.SubmanifoldPoint(ambient, functions, tangent, sff, flags)
    with pytest.raises(error) as replaced:
        dataclasses.replace(point, tangent=tangent, sff=sff, flags=flags)
    assert str(direct.value) == str(replaced.value) == str(attached.value)


def test_sff_symmetry_enforced():
    coeffs = np.zeros((1, 3, 3))
    coeffs[0, 0, 1] = 1.0
    with pytest.raises(G.BadShape):
        G.SecondFundamentalForm(coeffs)


def test_tn_decompose_examples():
    point = spot_point()
    xi1 = point.ambient.xi[0]
    t, n = tn_decompose(point, xi1)
    assert np.allclose(t, 0.0) and np.allclose(n, 0.0)

    x1 = point.tangent.matrix[0]
    t, n = tn_decompose(point, x1)
    assert np.allclose(t, point.tangent.matrix[1])  # f dx1 = dy1, tangent
    assert np.allclose(n, 0.0)

    anti = anti_invariant_point(n=2, m=2)
    t, n = tn_decompose(anti, anti.tangent.matrix[0])
    assert np.allclose(t, 0.0)
    assert np.allclose(n, np.eye(6)[1])  # dy1 is normal here


def test_tn_decompose_rejects_non_tangent():
    point = spot_point()
    with pytest.raises(G.NotTangent):
        tn_decompose(point, np.eye(6)[2])


def test_invariant_report_spot_values():
    point = spot_point()
    report = G.invariant_report(point)
    assert report.h_norm_sq == 0.0
    assert report.sigma_norm_sq == 0.0
    assert abs(report.t_norm_sq - 2.0) < 1e-12
    assert abs(report.n_norm_sq) < 1e-12
    assert abs(report.tau - 6.0) < 1e-12
    assert report.slant.is_slant and abs(report.slant.angle) < 1e-9


def test_induced_matches_ambient_when_sigma_vanishes():
    point = spot_point()
    rng = np.random.default_rng(9)
    for _ in range(10):
        coeffs = rng.normal(size=(4, 4))
        vs = [c @ point.tangent.matrix for c in coeffs]
        lit = G.ambient_curvature(point.ambient, point.functions, *vs)
        ind = G.induced_curvature(point, *vs)
        assert abs(lit - ind) < 1e-10


def test_induced_sectional_spot():
    point = spot_point()
    assert abs(point.sectional_matrix[0, 1] - 2.0) < 1e-12


def test_gauss_product_term():
    functions = G.preset_structure_functions("real_space_form", 0.0)
    sff = sff_with(2, 4, {(0, 0, 0): 1.0, (0, 1, 1): 1.0})
    point = invariant_point(n=2, m=2, functions=functions, sff=sff)
    assert abs(point.sectional_matrix[0, 1] - 1.0) < 1e-12


def test_ricci_examples():
    point = spot_point()
    assert abs(G.ricci_bound(point, point.tangent.matrix[0]).lhs - 4.0) < 1e-12

    inv = invariant_point(n=2, m=2)
    assert abs(G.ricci_bound(inv, inv.tangent.matrix[0]).lhs - 6.0) < 1e-12

    anti = anti_invariant_point(n=2, m=2)
    assert abs(G.ricci_bound(anti, anti.tangent.matrix[0]).lhs - 3.0) < 1e-12


def test_ricci_preconditions():
    point = spot_point()
    with pytest.raises(G.NotUnitVector):
        G.ricci_bound(point, 2.0 * point.tangent.matrix[0])
    with pytest.raises(G.NotInL):
        G.ricci_bound(point, point.ambient.xi[0])
    with pytest.raises(G.NotInL):
        G.ricci_bound(point, np.eye(6)[2])


def test_ricci_frame_independent_of_completion():
    # Ricci of U must agree with the row sum over the original frame when
    # U is itself a frame vector, and with the brute-force Gauss trace
    # sum_j R(U, e_j, e_j, U) over that frame for any unit U in L.
    for trial in range(10):
        cfg = G.GeneratorConfig(seed=500 + trial, n=3 + trial % 3, m=6,
                                constraint="none")
        point = G.random_instance(cfg)
        i = trial % point.n
        direct = float(np.sum(point.sectional_matrix[i])) - float(
            point.sectional_matrix[i, i]
        )
        assert abs(G.ricci_bound(point, point.tangent.matrix[i]).lhs - direct) < 1e-9

    rng = np.random.default_rng(10)
    constraints = ("none", "minimal", "c_compatible", "minimal_and_c_compatible")
    for n in range(1, 7):
        for k, constraint in enumerate(constraints):
            cfg = G.GeneratorConfig(seed=600 + 4 * n + k, n=n, m=n + k % 2,
                                    constraint=constraint)
            point = G.random_instance(cfg)
            for _ in range(2):
                u = random_unit_l(point, rng)
                trace = sum(G.induced_curvature(point, u, e, e, u)
                            for e in point.tangent.matrix)
                value = G.ricci_bound(point, u).lhs
                assert abs(value - trace) <= 1e-10 * max(1.0, abs(value)), (n, constraint)


def test_scalar_identity_spot_and_structure():
    point = spot_point()
    result = G.scalar_identity_check(point)
    assert abs(result.lhs - 12.0) < 1e-12
    assert abs(result.rhs - 12.0) < 1e-12

    # anti-invariant points: |T| = 0, so the rhs cannot depend on F2
    base = G.StructureFunctions(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    bumped = G.StructureFunctions(1.0, -1.5, 1.0, 0.0, 0.0, 0.0, 0.0)
    p1 = anti_invariant_point(n=2, m=2, functions=base)
    p2 = anti_invariant_point(n=2, m=2, functions=bumped)
    assert abs(G.scalar_identity_check(p1).rhs - G.scalar_identity_check(p2).rhs) < 1e-12


def test_scalar_identity_fuzz():
    configs = [G.GeneratorConfig(seed=3_000 + trial, n=1 + trial % 6, m=max(1 + trial % 6, 2),
                                 constraint="none") for trial in range(150)]
    for point in G.generators.random_instances(configs):
        result = G.scalar_identity_check(point)
        assert result.abs_diff <= 1e-9 * max(1.0, abs(result.lhs))


@pytest.mark.parametrize("values, finite_sectional", [
    ([1, -5.9e307, 0, 0, 0, 0, 0], True),  # each K is finite, their sum tau is not
    ([1e308, -1e308, 1, 1, 0, 0, 1], False),  # 3 F2 overflows inside K
])
def test_overflowing_invariants_raise_non_finite_where_the_point_builds_them(values,
                                                                            finite_sectional):
    point, _, _ = assemble({"ambient": {"m": 5}, "structure": {"values": values},
                            "frame": {"mode": "slant", "n": 4, "theta": 0.6},
                            "sigma": {"constraint": "none", "seed": 1}, "checks": []})
    e = point.tangent.matrix
    if finite_sectional:
        assert np.isfinite(point.sectional_matrix).all()
        assert math.isfinite(G.ricci_bound(point, e[0]).slack)  # Ric(e_1) does not read tau
    else:
        with pytest.raises(G.NonFinite):
            G.ricci_bound(point, e[0])  # (n + 1) F1 and 3 F2 overflow in the Ricci form
    for query in (lambda: point.tau, lambda: G.scalar_identity_check(point),
                  lambda: G.frame_sweep(point), lambda: G.invariant_report(point),
                  lambda: G.delta_bound(point, e[0], e[1]), lambda: G.global_delta_bounds(point)):
        with pytest.raises(G.NonFinite):
            query()  # a RuntimeWarning here is an error too (pyproject's filterwarnings)
    # the rest return finite numbers or raise NonFinite; a loose equality
    # tolerance lets the Ricci diagnosis past its minimality check
    loose = dataclasses.replace(G.DEFAULT, equality=1e3)
    for query in (lambda: G.ricci_equality_diagnosis(point, e[0], loose),
                  lambda: G.delta_equality_shape_check(point, e[0], e[1]),
                  lambda: G.classify_sff(point), lambda: G.slant_probe(point)):
        try:
            result = query()
        except G.NonFinite:
            continue
        assert all(map(math.isfinite, _floats(dataclasses.astuple(result)))), result


def _floats(value) -> list[float]:
    """The floats inside nested tuples, as ``dataclasses.astuple`` gives them."""
    if isinstance(value, tuple):
        return [x for item in value for x in _floats(item)]
    return [value] if isinstance(value, float) else []


def test_slant_probe_cases():
    assert G.slant_probe(invariant_point(n=2, m=2)).angle == pytest.approx(0.0, abs=1e-9)
    anti = G.slant_probe(anti_invariant_point(n=2, m=2))
    assert anti.is_slant and abs(anti.angle - math.pi / 2) < 1e-9

    ambient = G.canonical_model(4)
    functions = G.StructureFunctions(1, 0, 0, 0, 0, 0, 0)
    raw = G.slant_frame(ambient, 2, math.pi / 3)
    point = G.attach_point(ambient, functions, raw,
                           G.SecondFundamentalForm.zeros(ambient.dim - 4, 4))
    probe = G.slant_probe(point)
    assert probe.is_slant and abs(probe.angle - math.pi / 3) < 1e-6
    assert abs(point.t_norm_sq - 2 * math.cos(math.pi / 3) ** 2) < 1e-9


def test_slant_probe_mixed_frame_is_not_slant():
    ambient = G.canonical_model(4)
    functions = G.StructureFunctions(1, 0, 0, 0, 0, 0, 0)
    eye = np.eye(ambient.dim)
    raw = [eye[0], eye[1], eye[2], eye[4], ambient.xi[0], ambient.xi[1]]
    point = G.attach_point(ambient, functions, raw,
                           G.SecondFundamentalForm.zeros(ambient.dim - 6, 6))
    assert G.slant_probe(point).kind == "not_slant"


def _brute_angle(point, c):
    """Angle between fU and the tangent space at U = c . L-frame, from the
    tangential/normal split of fU."""
    tu, nu = tn_decompose(point, c @ point.tangent.matrix[:point.n])
    return math.acos(min(1.0, np.linalg.norm(tu) / np.linalg.norm(tu + nu)))


def _slant_oracle_points():
    """Slant points (slant frames, n even; anti-invariant frames, n odd),
    their L-parts mixed by a random rotation so no frame vector is
    special, and generic not-slant points, n = 2..6."""
    rng = np.random.default_rng(606)
    functions = G.StructureFunctions(1, 0, 0, 0, 0, 0, 0)
    for n in range(2, 7):
        for extra in (0, 1):
            ambient = G.canonical_model(n + extra)
            if n % 2:
                raw = G.anti_invariant_frame(ambient, n)
                theta = math.pi / 2
            else:
                # arccos amplifies rounding by 1/sin(theta), so theta stays
                # away from 0 for a 1e-12 comparison of angles
                theta = float(rng.uniform(0.2, math.pi / 2))
                raw = G.slant_frame(ambient, n, theta)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            l_part = q @ np.array(raw[:n])
            rank = ambient.dim - (n + 2)
            point = G.attach_point(ambient, functions, list(l_part) + raw[n:],
                                   G.SecondFundamentalForm.zeros(rank, n + 2))
            yield point, theta
        for seed in range(4):
            yield G.random_instance(G.GeneratorConfig(seed=6_060 + 10 * n + seed,
                                                      n=n, m=n + 1)), None


def test_slant_probe_range_matches_brute_force_angles():
    rng = np.random.default_rng(607)
    kinds = set()
    for point, theta in _slant_oracle_points():
        probe = G.slant_probe(point)
        kinds.add(probe.kind)
        _, vecs = np.linalg.eigh(point.t_form)
        low = _brute_angle(point, vecs[:, -1])
        high = _brute_angle(point, vecs[:, 0])
        assert abs(probe.spread - (high - low) / 2) <= 1e-12
        if theta is not None:
            assert probe.is_slant and abs(probe.angle - theta) <= 1e-12
        if probe.is_slant:
            assert abs(probe.angle - probe.spread - low) <= 1e-12
            assert abs(probe.angle + probe.spread - high) <= 1e-12
        for _ in range(50):
            c = rng.normal(size=point.n)
            angle = _brute_angle(point, c / np.linalg.norm(c))
            assert low - 1e-12 <= angle <= high + 1e-12
    assert kinds == {"slant", "not_slant"}


def test_slant_probe_indeterminate_without_l():
    ambient = G.canonical_model(1)
    functions = G.StructureFunctions(1, 0, 0, 0, 0, 0, 0)
    point = G.attach_point(ambient, functions, [ambient.xi[0], ambient.xi[1]],
                           G.SecondFundamentalForm.zeros(2, 2))
    assert G.slant_probe(point).kind == "indeterminate"


def test_relative_null_space_cases():
    point = spot_point()
    kernel = G.relative_null_space(point)
    assert len(kernel) == 4  # vanishing form: the whole tangent space

    sff = sff_with(2, 4, {(0, 0, 0): 1.0})
    pinned = invariant_point(n=2, m=2, sff=sff)
    kernel = G.relative_null_space(pinned)
    assert len(kernel) == 3
    for vec in kernel:
        assert abs(vec @ pinned.tangent.matrix[0]) < 1e-12

    rng = np.random.default_rng(11)
    dense = rng.normal(size=(2, 4, 4))
    dense = (dense + dense.transpose(0, 2, 1)) / 2
    generic = invariant_point(n=2, m=2, sff=G.SecondFundamentalForm(dense))
    assert G.relative_null_space(generic) == []


def test_null_space_vectors_annihilate_sigma():
    for trial in range(20):
        cfg = G.GeneratorConfig(seed=700 + trial, n=2 + trial % 4,
                                m=3 + trial % 3, constraint="minimal")
        point = G.random_instance(cfg)
        s = point.sff.coeffs
        for vec in G.relative_null_space(point):
            coords = point.tangent.matrix @ vec
            assert np.max(np.abs(np.einsum("rij,i->rj", s, coords))) <= 1e-8


def test_classify_cases():
    point = spot_point()
    flags = G.classify_sff(point)
    assert all(flags.as_dict().values())

    # identity block on L only: f-umbilical but not umbilical
    n, rank = 3, 3
    entries = {(0, i, i): 1.0 for i in range(n)}
    sff = sff_with(rank, n + 2, entries)
    point_f = anti_invariant_point(n=n, m=3, sff=sff)
    flags = G.classify_sff(point_f)
    assert flags.totally_f_umbilical and not flags.totally_umbilical
    assert not flags.totally_geodesic and not flags.totally_f_geodesic
    assert not flags.minimal

    # single off-diagonal entry: traceless, hence minimal, nothing else
    sff = sff_with(2, 4, {(0, 0, 1): 1.0})
    point_o = invariant_point(n=2, m=2, sff=sff)
    flags = G.classify_sff(point_o)
    assert flags.minimal
    assert not flags.totally_geodesic and not flags.totally_umbilical
    assert not flags.totally_f_geodesic and not flags.totally_f_umbilical


def test_t_plus_n_splits_f_norms():
    for trial in range(25):
        cfg = G.GeneratorConfig(seed=1_500 + trial, n=1 + trial % 6,
                                m=max(2, 1 + trial % 6), constraint="none")
        point = G.random_instance(cfg)
        report = G.invariant_report(point)
        f_norms = sum(
            float(np.linalg.norm(point.ambient.f_matrix @ e) ** 2)
            for e in point.tangent.matrix[: point.n]
        )
        assert abs(report.t_norm_sq + report.n_norm_sq - f_norms) < 1e-9


def test_tau_invariant_under_l_reordering():
    rng = np.random.default_rng(12)
    for trial in range(10):
        cfg = G.GeneratorConfig(seed=2_500 + trial, n=3 + trial % 4, m=6,
                                constraint="none")
        point = G.random_instance(cfg)
        n = point.n
        perm = rng.permutation(n)
        order = np.concatenate([perm, [n, n + 1]])
        raw = [point.tangent.matrix[i] for i in order]
        coeffs = point.sff.coeffs[:, order][:, :, order]
        shuffled = G.attach_point(point.ambient, point.functions, raw,
                                  G.SecondFundamentalForm(coeffs), point.flags)
        assert abs(shuffled.tau - point.tau) < 1e-9


def test_slant_metric_relation():
    rng = np.random.default_rng(13)
    ambient = G.canonical_model(4)
    functions = G.StructureFunctions(1, 1, 1, 0, 0, 0, 0)
    theta = 0.9
    raw = G.slant_frame(ambient, 4, theta)
    sff = G.random_sff(rng, ambient.dim - 6, 6, 1.0, "none", 4)
    point = G.attach_point(ambient, functions, raw, sff)
    for _ in range(10):
        x = rng.normal(size=6) @ point.tangent.matrix
        y = rng.normal(size=6) @ point.tangent.matrix
        _, nx = tn_decompose(point, x)
        _, ny = tn_decompose(point, y)
        fx = ambient.f_matrix @ x
        fy = ambient.f_matrix @ y
        assert abs(float(nx @ ny) - math.sin(theta) ** 2 * float(fx @ fy)) < 1e-9
