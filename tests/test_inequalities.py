import contextlib
import dataclasses
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gssf as G
from gssf import cli
from gssf.inequalities import (_MAX_PLANE_N, _bivector, _c_form_slack_form, _curvature_operator,
                               _dual_ascent, _form_stack, _off_plane_t_norm, _plane_form, _plane_k)
from _builders import (anti_invariant_point, frame_ricci_defects, invariant_point, plane_f_squared,
                       random_unit_l, reference_plane_search, sff_with, spot_point, tn_decompose)

_CONSTRAINTS = ("none", "minimal", "c_compatible", "minimal_and_c_compatible")


# ---------------------------------------------------------------- lemma

def test_chen_lemma_examples():
    r = G.chen_lemma_check([1.0, 1.0, 2.0], 2.0)
    assert r.hypothesis_holds and r.inequality_holds
    assert r.equality and r.equality_condition_holds

    r = G.chen_lemma_check([3.0, 1.0], 6.0)
    assert r.hypothesis_holds and r.equality and r.equality_condition_holds

    r = G.chen_lemma_check([1.0, 0.0, 0.0], -0.5)
    assert r.hypothesis_holds and r.inequality_holds and not r.equality

    with pytest.raises(G.BadK):
        G.chen_lemma_check([1.0], 0.0)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8))
def test_chen_lemma_property(values):
    arr = np.asarray(values)
    k = arr.size
    # choose c so the hypothesis holds by construction
    c = float(arr.sum()) ** 2 / (k - 1) - float(np.sum(arr ** 2))
    r = G.chen_lemma_check(arr, c)
    assert r.hypothesis_holds
    assert r.inequality_holds
    if r.equality_condition_holds:
        assert 2 * arr[0] * arr[1] >= c - 1e-7


# ---------------------------------------------------------- ricci bounds

def test_ricci_bound_equality_spot():
    point = invariant_point(n=2, m=2)
    report = G.ricci_bound(point, point.tangent.matrix[0], "general")
    assert abs(report.lhs - 6.0) < 1e-12
    assert abs(report.rhs - 6.0) < 1e-12
    assert report.equality
    assert abs(report.defect_sum()) < 1e-12


def test_ricci_defect_sum_matches_slack():
    # general on arbitrary data; c_form, whose traces and sigma_r u run
    # over the L-frame only, on C-family points with sigma(., xi) = 0
    c_rng = np.random.default_rng(15)
    for trial in range(60):
        n = 1 + trial % 6
        c_family = G.preset_structure_functions("c_space_form",
                                                float(c_rng.uniform(-4, 4)))
        cases = (
            ("general", G.GeneratorConfig(seed=4_000 + trial, n=n, m=max(n, 2),
                                          constraint="none")),
            ("c_form", G.GeneratorConfig(seed=4_100 + trial, n=n, m=n + trial % 2,
                                         constraint="c_compatible",
                                         f_ranges=tuple((v, v) for v in c_family.as_tuple()))),
        )
        for variant, cfg in cases:
            point = G.random_instance(cfg)
            rng = np.random.default_rng(trial)
            u = random_unit_l(point, rng)
            report = G.ricci_bound(point, u, variant)
            assert report.slack >= -1e-9
            assert abs(report.slack - report.defect_sum()) <= 1e-8
            assert all(v >= -1e-12 for _, v in report.defect_terms)


def test_s_form_gap_is_twice_normal_part():
    rng = np.random.default_rng(14)
    for trial in range(60):
        n = 1 + trial % 5
        functions = G.preset_structure_functions("s_space_form", float(rng.uniform(-2, 6)))
        cfg = G.GeneratorConfig(seed=5_000 + trial, n=n, m=n + 1,
                                f_ranges=tuple((v, v) for v in functions.as_tuple()))
        point = G.random_instance(cfg)
        u = random_unit_l(point, rng)
        general = G.ricci_bound(point, u, "general")
        sharper = G.ricci_bound(point, u, "s_form")
        _, nu = tn_decompose(point, u)
        assert abs((general.rhs - sharper.rhs) - 2.0 * float(nu @ nu)) < 1e-9


def test_s_form_common_value_for_invariant_directions():
    rng = np.random.default_rng(15)
    for trial in range(20):
        n = 2 + 2 * (trial % 2)
        c = float(rng.uniform(-2, 6))
        functions = G.preset_structure_functions("s_space_form", c)
        sff = G.random_sff(np.random.default_rng(trial), 2 * n - n, n + 2, 1.0, "none", n)
        point = invariant_point(n=n, m=n, functions=functions, sff=sff)
        u = point.tangent.matrix[0]
        general = G.ricci_bound(point, u, "general")
        sharper = G.ricci_bound(point, u, "s_form")
        common = (n + 2) ** 2 / 4 * point.h_norm_sq + (n + 2) * functions.f1 - 4.0
        assert abs(general.rhs - sharper.rhs) < 1e-9
        assert abs(general.rhs - common) < 1e-9


def test_variant_preconditions():
    point = invariant_point(n=2, m=2)  # generic functions, no flag
    with pytest.raises(G.VariantPreconditionViolated):
        G.ricci_bound(point, point.tangent.matrix[0], "s_form")
    with pytest.raises(G.VariantPreconditionViolated):
        G.ricci_bound(point, point.tangent.matrix[0], "c_form")
    functions = G.preset_structure_functions("c_space_form", 1.0)
    unflagged = invariant_point(n=2, m=2, functions=functions)
    with pytest.raises(G.VariantPreconditionViolated):
        G.ricci_bound(unflagged, unflagged.tangent.matrix[0], "c_form")
    with pytest.raises(G.VariantPreconditionViolated):
        G.ricci_bound(point, point.tangent.matrix[0], "no_such_variant")


# ------------------------------------------------- minimal equality case

def test_ricci_equality_diagnosis_cases():
    point = spot_point()  # vanishing form is minimal
    diag = G.ricci_equality_diagnosis(point, point.tangent.matrix[0])
    assert diag.equality and diag.in_null_space and diag.consistent

    # trace-compensated form away from e1: equality with membership
    sff = sff_with(3, 5, {(0, 1, 1): 1.0, (0, 2, 2): -1.0})
    away = anti_invariant_point(n=3, m=3, sff=sff)
    diag = G.ricci_equality_diagnosis(away, away.tangent.matrix[0])
    assert diag.equality and diag.in_null_space and diag.consistent

    # mixed entry touching e1: no equality, not a null direction
    sff = sff_with(3, 5, {(0, 0, 1): 1.0})
    mixed = anti_invariant_point(n=3, m=3, sff=sff)
    diag = G.ricci_equality_diagnosis(mixed, mixed.tangent.matrix[0])
    assert not diag.equality and not diag.in_null_space and diag.consistent


def test_ricci_equality_requires_minimal():
    sff = sff_with(2, 4, {(0, 0, 0): 1.0})
    point = invariant_point(n=2, m=2, sff=sff)
    with pytest.raises(G.NotMinimal):
        G.ricci_equality_diagnosis(point, point.tangent.matrix[0])


# --------------------------------------------------- c-form classifier

def _c_point(n, entries, m=None):
    functions = G.preset_structure_functions("c_space_form", 1.2)
    m = m or max(n, 3)
    ambient = G.canonical_model(m)
    rank = ambient.dim - (n + 2)
    sff = sff_with(rank, n + 2, entries)
    return G.attach_point(ambient, functions, G.anti_invariant_frame(ambient, n),
                          sff, G.PointFlags(c_compatible=True))


def test_c_form_classifier_cases():
    geodesic = _c_point(3, {})
    rep = G.c_form_equality_classifier(geodesic)
    assert rep.all_u_equality and rep.expected_class == "totally_geodesic" and rep.matches

    umbilical = _c_point(2, {(0, 0, 0): 0.8, (0, 1, 1): 0.8, (1, 0, 0): -0.3, (1, 1, 1): -0.3})
    rep = G.c_form_equality_classifier(umbilical)
    assert rep.all_u_equality and rep.expected_class == "totally_f_umbilical" and rep.matches

    broken = _c_point(3, {(0, 0, 0): 1.0})
    rep = G.c_form_equality_classifier(broken)
    assert not rep.all_u_equality and rep.matches


def test_c_form_classifier_spectral_oracle():
    # the C-family slack at U is c . Q . c: the eigenvector of the largest
    # |eigenvalue| of Q is where ricci_bound's slack is furthest from 0
    functions = G.preset_structure_functions("c_space_form", 1.3)
    fixed = tuple((v, v) for v in functions.as_tuple())
    for trial in range(40):
        n = 2 + trial % 5
        constraint = ("c_compatible", "minimal_and_c_compatible")[trial % 2]
        point = G.random_instance(G.GeneratorConfig(
            seed=1_600 + trial, n=n, m=n + trial % 2, f_ranges=fixed, constraint=constraint))
        values, vecs = np.linalg.eigh(_c_form_slack_form(point))
        k = int(np.argmax(np.abs(values)))
        u = vecs[:, k] @ point.tangent.matrix[:n]
        assert abs(G.ricci_bound(point, u, "c_form").slack - values[k]) <= 1e-12
        # equality for every U holds exactly up to the largest |slack|
        for factor, expected in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
            tol = dataclasses.replace(G.DEFAULT, equality=abs(values[k]) * factor)
            assert G.c_form_equality_classifier(point, tol).all_u_equality == expected


def test_c_form_classifier_compares_sigma_on_one_scale():
    # at sigma scale 1e-6 the slack, quadratic in sigma, is ~1e-12: within
    # tol.equality for every U, and so is |sigma|^2, so the shape class holds
    functions = G.preset_structure_functions("c_space_form", 1.3)
    fixed = tuple((v, v) for v in functions.as_tuple())
    for trial in range(150):
        n = 2 + trial % 5
        point = G.random_instance(G.GeneratorConfig(
            seed=trial, n=n, m=n + trial % 2, sigma_scale=1e-6, f_ranges=fixed,
            constraint="c_compatible"))
        rep = G.c_form_equality_classifier(point)
        assert rep.all_u_equality and rep.matches, (trial, rep)


# ------------------------------------------------------ plane quantities

def test_plane_f_squared_cases():
    inv = invariant_point(n=2, m=2)
    assert abs(plane_f_squared(inv, inv.tangent.matrix[0], inv.tangent.matrix[1]) - 1.0) < 1e-12

    anti = anti_invariant_point(n=2, m=2)
    assert abs(plane_f_squared(anti, anti.tangent.matrix[0], anti.tangent.matrix[1])) < 1e-12

    ambient = G.canonical_model(4)
    theta = math.pi / 5
    functions = G.StructureFunctions(1, 0, 0, 0, 0, 0, 0)
    point = G.attach_point(ambient, functions, G.slant_frame(ambient, 2, theta),
                           G.SecondFundamentalForm.zeros(ambient.dim - 4, 4))
    value = plane_f_squared(point, point.tangent.matrix[0], point.tangent.matrix[1])
    assert abs(value - math.cos(theta) ** 2) < 1e-12


def test_plane_f_squared_rotation_invariance_and_errors():
    rng = np.random.default_rng(16)
    cfg = G.GeneratorConfig(seed=42, n=4, m=4, constraint="none")
    point = G.random_instance(cfg)
    x, y = point.tangent.matrix[0], point.tangent.matrix[1]
    base = plane_f_squared(point, x, y)
    for angle in rng.uniform(0, 2 * math.pi, 6):
        xr = math.cos(angle) * x + math.sin(angle) * y
        yr = -math.sin(angle) * x + math.cos(angle) * y
        assert abs(plane_f_squared(point, xr, yr) - base) < 1e-9

    with pytest.raises(G.NotOrthonormal):
        plane_f_squared(point, x, x)
    with pytest.raises(G.NotInL):
        plane_f_squared(point, x, point.ambient.xi[0])


# ---------------------------------------------------------- delta bound

def test_delta_bound_spot():
    point = spot_point()
    report = G.delta_bound(point, point.tangent.matrix[0], point.tangent.matrix[1])
    assert abs(report.lhs - 4.0) < 1e-12
    assert abs(report.rhs - 4.0) < 1e-12
    assert report.equality


def test_delta_bound_matches_literal_gauss_route():
    for trial in range(25):
        cfg = G.GeneratorConfig(seed=6_000 + trial, n=2 + trial % 4, m=6,
                                constraint="none")
        point = G.random_instance(cfg)
        x, y = point.tangent.matrix[0], point.tangent.matrix[1]
        literal = point.tau - G.induced_curvature(point, x, y, y, x)
        assert abs(G.delta_bound(point, x, y).lhs - literal) < 1e-9


def test_delta_bound_rhs_rotation_invariant():
    cfg = G.GeneratorConfig(seed=77, n=4, m=4, constraint="none")
    point = G.random_instance(cfg)
    x, y = point.tangent.matrix[0], point.tangent.matrix[1]
    base = G.delta_bound(point, x, y)
    rng = np.random.default_rng(17)
    for angle in rng.uniform(0, 2 * math.pi, 5):
        xr = math.cos(angle) * x + math.sin(angle) * y
        yr = -math.sin(angle) * x + math.cos(angle) * y
        rotated = G.delta_bound(point, xr, yr)
        assert abs(rotated.rhs - base.rhs) < 1e-9
        assert abs(rotated.lhs - base.lhs) < 1e-9


def test_delta_bound_slant_mode():
    ambient = G.canonical_model(4)
    functions = G.StructureFunctions(0.5, -1.2, 0.3, 0.2, 0.0, 0.0, -0.1)
    theta = 0.8
    sff = G.random_sff(np.random.default_rng(3), ambient.dim - 6, 6, 1.0, "none", 4)
    point = G.attach_point(ambient, functions, G.slant_frame(ambient, 4, theta), sff)
    plain = G.delta_bound(point, point.tangent.matrix[0], point.tangent.matrix[1])
    slanted = G.delta_bound(point, point.tangent.matrix[0], point.tangent.matrix[1],
                            slant_mode=True)
    assert abs(plain.rhs - slanted.rhs) < 1e-8  # |T|^2 = n cos^2 theta here
    assert slanted.slack >= -1e-9

    generic = G.random_instance(G.GeneratorConfig(seed=123, n=3, m=4))
    if not G.slant_probe(generic).is_slant:
        with pytest.raises(G.VariantPreconditionViolated):
            G.delta_bound(generic, generic.tangent.matrix[0],
                          generic.tangent.matrix[1], slant_mode=True)


# ---------------------------------------------------------- frame sweep

def test_frame_sweep_matches_per_point_bounds(corpus):
    for point in corpus.points[::10]:
        n, e = point.n, point.tangent.matrix
        sweep = G.frame_sweep(point)
        expected = [G.ricci_bound(point, e[i], "general") for i in range(n)]
        labels = [f"ricci_bound[general,u={i + 1}]" for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                expected.append(G.delta_bound(point, e[i], e[j]))
                labels.append(f"delta_bound[{i + 1},{j + 1}]")
        assert sweep.slacks.shape == (len(expected),)
        for k, report in enumerate(expected):
            assert sweep.label(k) == labels[k]
            assert abs(sweep.slacks[k] - report.slack) <= 1e-12, (labels[k], report)
        defects = frame_ricci_defects(point)
        for i in range(n):
            assert abs(defects[i] - expected[i].defect_sum()) <= 1e-12


def test_frame_sweep_spot():
    point = spot_point()
    sweep = G.frame_sweep(point)
    assert [sweep.label(k) for k in range(3)] == [
        "ricci_bound[general,u=1]", "ricci_bound[general,u=2]", "delta_bound[1,2]"]
    assert np.allclose(sweep.slacks, 0.0, atol=1e-12)
    assert np.array_equal(frame_ricci_defects(point), [0.0, 0.0])


# ------------------------------------------------ equality shape forms

def test_equality_instance_examples():
    ambient = G.canonical_model(3)
    functions = G.preset_structure_functions("s_space_form", 2.0)

    geodesic = G.equality_instance(ambient, functions, 2,
                                   G.ShapeOperatorForm(0.0, 0.0, 0.0))
    assert G.classify_sff(geodesic).totally_geodesic
    report = G.delta_bound(geodesic, geodesic.tangent.matrix[0],
                           geodesic.tangent.matrix[1])
    assert abs(report.slack) < 1e-9

    minimal = G.equality_instance(ambient, functions, 2,
                                  G.ShapeOperatorForm(1.0, 0.0, 0.0))
    assert G.classify_sff(minimal).minimal
    report = G.delta_bound(minimal, minimal.tangent.matrix[0],
                           minimal.tangent.matrix[1])
    assert abs(report.slack) < 1e-9

    curved = G.equality_instance(G.canonical_model(4), functions, 3,
                                 G.ShapeOperatorForm(0.0, 0.0, 1.0))
    assert math.sqrt(curved.h_norm_sq) > 0.1
    report = G.delta_bound(curved, curved.tangent.matrix[0],
                           curved.tangent.matrix[1])
    assert abs(report.slack) < 1e-9


def test_equality_instance_rank_check():
    ambient = G.canonical_model(2)
    functions = G.preset_structure_functions("s_space_form", 2.0)
    with pytest.raises(G.BadShape):
        G.equality_instance(ambient, functions, 2,
                            G.ShapeOperatorForm(0.0, 0.0, 0.0,
                                                ((1.0, 1.0), (2.0, 2.0))))


def test_shape_check_round_trip_and_perturbation():
    ambient = G.canonical_model(4)
    functions = G.preset_structure_functions("s_space_form", 1.0)
    form = G.ShapeOperatorForm(1.0, 0.5, 2.0, ((0.3, -0.2),))
    point = G.equality_instance(ambient, functions, 3, form)

    result = G.delta_equality_shape_check(point, point.tangent.matrix[0],
                                          point.tangent.matrix[1])
    assert result.matches_forms
    assert result.recovered.a == pytest.approx(1.0, abs=1e-8)
    assert result.recovered.b == pytest.approx(0.5, abs=1e-8)
    assert result.recovered.c == pytest.approx(2.0, abs=1e-8)
    assert result.recovered.pairs[0][0] == pytest.approx(0.3, abs=1e-8)
    assert result.recovered.pairs[0][1] == pytest.approx(-0.2, abs=1e-8)

    coeffs = np.array(point.sff.coeffs)
    coeffs[0, 2, 2] += 0.1
    bumped = G.attach_point(ambient, functions, list(point.tangent.matrix),
                            G.SecondFundamentalForm(coeffs))
    result = G.delta_equality_shape_check(bumped, bumped.tangent.matrix[0],
                                          bumped.tangent.matrix[1])
    assert not result.matches_forms
    report = G.delta_bound(bumped, bumped.tangent.matrix[0], bumped.tangent.matrix[1])
    assert report.slack > 1e-9


def test_shape_check_zero_form():
    point = spot_point()
    result = G.delta_equality_shape_check(point, point.tangent.matrix[0],
                                          point.tangent.matrix[1])
    assert result.matches_forms
    assert result.recovered == G.ShapeOperatorForm(0.0, 0.0, 0.0, ((0.0, 0.0),))


def test_shape_check_survives_normal_relabeling():
    # The equality patterns quantify over a choice of normal basis; after
    # an arbitrary orthogonal mix of the normal coordinates the recognizer
    # must still match, recover the same trace parameter, and the plane
    # bound must stay exactly tight.
    rng = np.random.default_rng(21)
    for trial in range(15):
        n = 2 + trial % 3
        ambient = G.canonical_model(n + 2)
        functions = G.StructureFunctions(*rng.uniform(-2, 2, 7))
        form = G.ShapeOperatorForm(
            a=float(rng.uniform(-2, 2)), b=float(rng.uniform(-2, 2)),
            c=float(rng.uniform(0.3, 2.0)),
            pairs=((float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))),),
        )
        point = G.equality_instance(ambient, functions, n, form)
        rank = point.normal_rank
        q, _ = np.linalg.qr(rng.normal(size=(rank, rank)))
        mixed = G.SecondFundamentalForm(
            np.einsum("qr,rij->qij", q, point.sff.coeffs)
        )
        remixed = G.attach_point(ambient, functions,
                                 list(point.tangent.matrix), mixed)
        x, y = remixed.tangent.matrix[0], remixed.tangent.matrix[1]
        assert abs(G.delta_bound(remixed, x, y).slack) <= 1e-9
        result = G.delta_equality_shape_check(remixed, x, y)
        assert result.matches_forms, trial
        assert abs(abs(result.recovered.c) - form.c) <= 1e-8


def test_shape_check_fails_off_the_equality_plane():
    ambient = G.canonical_model(5)
    functions = G.preset_structure_functions("s_space_form", 1.0)
    form = G.ShapeOperatorForm(1.0, 0.5, 2.0)
    point = G.equality_instance(ambient, functions, 3, form)
    result = G.delta_equality_shape_check(point, point.tangent.matrix[0],
                                          point.tangent.matrix[2])
    assert not result.matches_forms


# ------------------------------------------------------- global bounds

def test_global_delta_spot():
    point = spot_point()
    report = G.global_delta_bounds(point)
    assert report.branch == "f2_nonneg"
    assert abs(report.inf_k - 2.0) < 1e-12
    assert abs(report.bound.lhs - 4.0) < 1e-12
    assert abs(report.bound.rhs - 4.0) < 1e-12
    four = report.four_dim_slant
    assert four is not None and abs(four.rhs - 4.0) < 1e-12 and four.equality
    assert G.classify_sff(point).minimal


def test_global_delta_f2_zero_matches_plain_rhs():
    functions = G.StructureFunctions(0.7, 0.0, -0.4, 0.3, 0.0, 0.0, 0.1)
    point = anti_invariant_point(n=3, m=3, functions=functions)
    report = G.global_delta_bounds(point)
    n = 3
    base = (n * (n + 2) ** 2 / (2 * (n + 1)) * point.h_norm_sq
            + n * (n + 3) / 2 * functions.f1 + functions.f3
            - (n + 1) * (functions.f11 + functions.f22))
    assert report.branch == "f2_nonneg"
    assert abs(report.bound.rhs - base) < 1e-12


def test_global_delta_anti_invariant_odd_n_gap():
    functions = G.StructureFunctions(0.7, 1.3, -0.4, 0.3, 0.0, 0.0, 0.1)
    sff = G.random_sff(np.random.default_rng(8), 3, 5, 1.0, "none", 3)
    point = anti_invariant_point(n=3, m=3, functions=functions, sff=sff)
    report = G.global_delta_bounds(point)
    assert report.branch == "f2_nonneg"
    # |T|^2 = 0 < n makes equality unreachable: gap at least 3n/2 F2
    assert report.bound.slack > 1.5 * 3 * functions.f2 - 1e-9
    assert not report.equality_diagnosis["t_norm_full"]


def test_global_delta_f2_negative_adapted_frame_diagnosis():
    functions = G.StructureFunctions(0.7, -1.3, -0.4, 0.3, 0.0, 0.0, 0.1)
    point = anti_invariant_point(n=4, m=4, functions=functions)
    report = G.global_delta_bounds(point)
    assert report.branch == "f2_neg"
    # anti-invariant: T vanishes identically, so the trailing directions
    # of any adapted frame are anti-invariant and the bound is met exactly
    assert report.equality_diagnosis["trailing_anti_invariant"]
    assert report.bound.slack == pytest.approx(0.0, abs=1e-9)


def _brute_t_form(point):
    """g(T e_i, T e_k) over the L-frame from the tangential parts of f e_i."""
    t_parts = np.array([tn_decompose(point, e)[0] for e in point.tangent.matrix[:point.n]])
    return t_parts @ t_parts.T


def test_f2_neg_diagnosis_matches_brute_force_and_ignores_the_plane_basis():
    ranges = ((-2.0, 2.0), (-2.0, -0.1)) + ((-2.0, 2.0),) * 5  # F2 < 0
    rng = np.random.default_rng(20)
    for trial in range(24):
        n = 3 + trial % 4
        point = G.random_instance(G.GeneratorConfig(
            seed=2_000 + trial, n=n, m=n + trial % 2, f_ranges=ranges))
        report = G.global_delta_bounds(point)
        assert report.branch == "f2_neg"
        diag = report.equality_diagnosis
        a, b = (point.l_coords(v)[:n] for v in report.argmin_plane)

        off_plane = np.eye(n) - np.outer(a, a) - np.outer(b, b)
        _, vecs = np.linalg.eigh(off_plane @ _brute_t_form(point) @ off_plane)
        tw, _ = tn_decompose(point, vecs[:, -1] @ point.tangent.matrix[:n])
        assert abs(diag["trailing_t_norm_max"] - np.linalg.norm(tw)) <= 1e-12
        assert diag["trailing_anti_invariant"] == (
            diag["trailing_t_norm_max"] <= G.DEFAULT.membership)

        for angle in rng.uniform(0.0, 2.0 * math.pi, 3):
            c, s = math.cos(angle), math.sin(angle)
            rotated = _off_plane_t_norm(point, c * a + s * b, c * b - s * a)
            assert abs(rotated - diag["trailing_t_norm_max"]) <= 1e-12


def test_f2_neg_diagnosis_is_exact_on_rotated_equality_frames():
    # invariant pairs plus anti-invariant vectors, mixed by a rotation of
    # L, with sigma = 0 and F2 < 0: the argmin plane is an invariant pair
    # and, with one pair, its complement is anti-invariant.  The root of a
    # rounded eigenvalue would put |Tw| near 1e-8, at the membership
    # tolerance; |Tw| itself is rounding small.
    rng = np.random.default_rng(21)
    for n in (3, 4, 5, 6):
        ambient = G.canonical_model(n + 1)
        eye = np.eye(ambient.dim)
        rows = [eye[0], eye[1]] + [eye[2 * k] for k in range(1, n - 1)]
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        raw = list(q @ np.array(rows)) + [ambient.xi[0], ambient.xi[1]]
        functions = G.StructureFunctions(0.3, -1.5, 0.2, 0.1, 0.0, 0.0, 0.1)
        point = G.attach_point(ambient, functions, raw,
                               G.SecondFundamentalForm.zeros(ambient.dim - n - 2, n + 2))
        diag = G.global_delta_bounds(point).equality_diagnosis
        assert diag["trailing_anti_invariant"]
        assert diag["trailing_t_norm_max"] <= 1e-13


def test_global_delta_invariant_even_n_equality():
    rng = np.random.default_rng(19)
    for _ in range(5):
        values = rng.uniform(-2, 2, 7)
        values[1] = abs(values[1]) + 0.1  # F2 > 0
        functions = G.StructureFunctions(*values)
        point = invariant_point(n=4, m=4, functions=functions)
        report = G.global_delta_bounds(point)
        assert report.bound.slack == pytest.approx(0.0, abs=1e-9)
        assert report.equality_diagnosis["t_norm_full"]
        assert report.equality_diagnosis["n_even"]


def test_global_delta_needs_planes():
    point = anti_invariant_point(n=1, m=1)
    with pytest.raises(G.BadShape):
        G.global_delta_bounds(point)


def test_search_round_cap_returns_an_open_bracket(monkeypatch, tmp_path):
    point = G.random_instance(G.GeneratorConfig(seed=9, n=5, m=5, constraint="none"))
    monkeypatch.setattr("gssf.inequalities._BARRIER_LEVELS", 0)
    result = G.minimize_sectional_plane(point)
    assert result.certificate == "none" and result.lower <= result.upper
    # K at the best plane: an upper bound on inf K, though no level ran
    e_l = point.tangent.matrix[:5]
    a, b = result.a @ e_l, result.b @ e_l
    assert abs(result.upper - G.induced_curvature(point, a, b, b, a)) <= 1e-12
    q = np.linalg.qr(np.random.default_rng(53).normal(size=(50, 5, 2)))[0]
    k = _plane_k(point.functions, point.phi[:5, :5], point.sff.coeffs[:, :5, :5],
                 q[:, :, 0], q[:, :, 1])
    assert result.lower <= k.min()
    # a report on an uncertified bracket exits on its verdict, not as an input error
    scenario = {"ambient": {"m": 6}, "structure": {"preset": "s_space_form", "c": 1.0},
                "frame": {"mode": "anti_invariant", "n": 5},
                "sigma": {"constraint": "none", "seed": 9}, "checks": [{"name": "global_delta"}]}
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(scenario))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["report", str(path)])
    assert code in (0, 1) and err.getvalue() == ""
    assert json.loads(out.getvalue())["checks"][0]["diagnostics"]["certificate"] == "none"


def _random_l_pair(point, rng):
    """Orthonormal L-frame coordinates of a random plane in L."""
    q, _ = np.linalg.qr(rng.normal(size=(point.n, 2)))
    return q[:, 0], q[:, 1]


def test_plane_k_matches_the_curvature_tensor():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = 2 + trial % 5
        point = G.random_instance(G.GeneratorConfig(
            seed=7_000 + trial, n=n, m=n + trial % 2, constraint=_CONSTRAINTS[trial % 4]))
        phi_l, s_l = point.phi[:n, :n], point.sff.coeffs[:, :n, :n]
        e_l = point.tangent.matrix[:n]
        for _ in range(3):
            a, b = _random_l_pair(point, rng)
            k = _plane_k(point.functions, phi_l, s_l, a[None, :], b[None, :])[0]
            assert abs(k - G.induced_curvature(point, a @ e_l, b @ e_l, b @ e_l, a @ e_l)) <= 1e-12
            assert np.linalg.norm(_plane_form(point.functions.f2, phi_l, s_l, b[None, :])[0] @ b) <= 1e-12
            v = _bivector(a, b)
            assert abs(v @ _curvature_operator(point.functions, phi_l, s_l) @ v - k) <= 1e-12


def test_search_value_is_k_at_its_plane_and_below_every_frame_pair():
    for trial in range(24):
        n = 3 + trial % 4
        point = G.random_instance(G.GeneratorConfig(
            seed=8_000 + trial, n=n, m=n + trial % 2, constraint=_CONSTRAINTS[trial % 4]))
        value, _, _, a, b = G.minimize_sectional_plane(point)
        e_l = point.tangent.matrix[:n]
        k_at = G.induced_curvature(point, a @ e_l, b @ e_l, b @ e_l, a @ e_l)
        assert abs(value - k_at) <= 1e-12 * max(1.0, abs(k_at))
        pair_i, pair_j = np.triu_indices(n, 1)
        assert value <= point.sectional_matrix[pair_i, pair_j].min() + 1e-12


def test_form_stack_is_cached_read_only_and_the_bracket_deterministic():
    for n in (3, 6):
        stack = _form_stack(n)
        assert _form_stack(n) is stack and not stack.flags.writeable
        size = n * (n - 1) // 2
        assert stack.shape == (math.comb(n, 4) + 1, size, size)
        assert np.array_equal(stack[-1], -np.eye(size))
    point = G.random_instance(G.GeneratorConfig(seed=9, n=5, m=5))
    first, second = G.minimize_sectional_plane(point), G.minimize_sectional_plane(point)
    assert first.upper == second.upper and first.lower == second.lower
    assert np.array_equal(first.a, second.a)


def test_search_beyond_the_size_cap_raises_before_building_starts(monkeypatch):
    monkeypatch.setattr("gssf.inequalities._form_stack", None)  # must not be called
    point = anti_invariant_point(n=_MAX_PLANE_N + 1, m=_MAX_PLANE_N + 1)
    with pytest.raises(G.BadShape):
        G.minimize_sectional_plane(point)
    with pytest.raises(G.BadShape):
        G.global_delta_bounds(point)


def test_four_forms_vanish_on_decomposable_bivectors():
    rng = np.random.default_rng(41)
    for n in range(4, 8):
        stack = _form_stack(n)[:-1]
        assert len(stack) == math.comb(n, 4)
        for w in stack:  # three +-1 pairs, symmetric
            assert np.array_equal(w, w.T) and np.sum(np.abs(w)) == 6.0 and w.sum() == 2.0
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(n, 2)))
            v = _bivector(q[:, 0], q[:, 1])
            assert max(abs(v @ w @ v) for w in stack) <= 1e-15
    # the one 4-form at n = 4 has eigenvalues -1, -1, -1, 1, 1, 1
    assert np.allclose(np.linalg.eigvalsh(_form_stack(4)[0]), [-1, -1, -1, 1, 1, 1])


def test_plane_infimum_lower_value_is_below_k_at_random_planes():
    rng = np.random.default_rng(43)
    kinds = []
    for trial in range(24):
        n = 3 + trial % 4
        point = G.random_instance(G.GeneratorConfig(
            seed=9_000 + trial, n=n, m=n + trial % 2, constraint=_CONSTRAINTS[trial % 4]))
        result = G.minimize_sectional_plane(point)
        q = np.linalg.qr(rng.normal(size=(50, n, 2)))[0]
        k = _plane_k(point.functions, point.phi[:n, :n], point.sff.coeffs[:, :n, :n],
                     q[:, :, 0], q[:, :, 1])
        assert result.lower <= k.min()
        assert result.lower <= result.upper
        if result.certificate != "none":
            assert result.upper - result.lower <= 1e-10 * max(1.0, abs(result.upper))
        kinds.append(result.certificate)
    assert kinds[0::4] == ["exact"] * 6 and kinds[1::4] == ["thorpe"] * 6
    assert kinds[2::4] + kinds[3::4] == ["kkt"] * 12


def test_small_n_infimum_matches_the_search_without_running_it():
    kinds = {3: "exact", 4: "thorpe", 5: "kkt", 6: "kkt"}
    for trial in range(200):
        n = 3 + trial % 4
        point = G.random_instance(G.GeneratorConfig(
            seed=10_000 + trial, n=n, m=n + (trial // 4) % 2,
            constraint=_CONSTRAINTS[(trial // 8) % 4]))
        result = G.minimize_sectional_plane(point)
        assert result.certificate == kinds[n]
        searched, _, _ = reference_plane_search(point)
        assert abs(result.upper - searched) <= 1e-10 * max(1.0, abs(searched))
        assert result.lower <= searched + 1e-12 * max(1.0, abs(searched))  # K to rounding


def test_open_thorpe_bracket_reports_none_at_thorpes_plane(monkeypatch):
    solved = {}

    def loose(*args):
        solved["upper"], lower, solved["a"], solved["b"] = _dual_ascent(*args)
        return solved["upper"], lower - 1.0, solved["a"], solved["b"]

    monkeypatch.setattr("gssf.inequalities._dual_ascent", loose)
    point = G.random_instance(G.GeneratorConfig(seed=9, n=4, m=4))
    result = G.minimize_sectional_plane(point)
    assert result.certificate == "none" and result.upper == solved["upper"]
    assert result.a is solved["a"] and result.b is solved["b"]
    # still a sound bracket: K at the ascent's plane above, the loosened bound below
    e_l = point.tangent.matrix[:4]
    a, b = result.a @ e_l, result.b @ e_l
    assert abs(result.upper - G.induced_curvature(point, a, b, b, a)) <= 1e-12
    q = np.linalg.qr(np.random.default_rng(59).normal(size=(50, 4, 2)))[0]
    k = _plane_k(point.functions, point.phi[:4, :4], point.sff.coeffs[:, :4, :4],
                 q[:, :, 0], q[:, :, 1])
    assert result.lower < result.upper - 0.5 and result.lower <= k.min()


def test_plane_infimum_at_the_size_cap_closes_within_16_mb():
    n = _MAX_PLANE_N
    point = G.random_instance(G.GeneratorConfig(seed=3, n=n, m=n))
    _form_stack.cache_clear()  # the stack counts towards the peak
    tracemalloc.start()
    try:
        result = G.minimize_sectional_plane(point)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert result.certificate == "kkt"
    assert result.upper - result.lower <= 1e-10 * max(1.0, abs(result.upper))


@pytest.mark.parametrize("sigma_scale", [1e-150, 1e100])
def test_plane_infimum_closes_at_any_scale_of_the_operator(sigma_scale):
    # R ~ sigma^2: unscaled, the Newton system would underflow to a singular matrix
    point = G.random_instance(G.GeneratorConfig(seed=7, n=5, m=5, sigma_scale=sigma_scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = G.minimize_sectional_plane(point)
    assert result.certificate == "kkt"
    assert result.upper - result.lower <= 1e-10 * max(1.0, abs(result.upper))


def test_search_finds_known_minimum():
    # invariant geodesic point with F2 > 0: inf K = F1 on f-orthogonal planes
    functions = G.StructureFunctions(1.0, 0.7, -0.3, 0.2, 0.1, -0.4, 0.5)
    point = invariant_point(n=4, m=4, functions=functions)
    value, lower, _, _, _ = G.minimize_sectional_plane(point)
    assert abs(value - 1.0) < 1e-9 and abs(lower - 1.0) < 1e-9


def test_slant_ricci_specialization():
    # on slant points |TU|^2 = cos^2 theta for every unit U in L, so the
    # Ricci bounds realize their slant forms with no separate code path
    rng = np.random.default_rng(18)
    theta = 0.6
    for variant, preset in (("general", None), ("s_form", "s_space_form"),
                            ("c_form", "c_space_form")):
        ambient = G.canonical_model(4)
        n = 4
        if preset:
            functions = G.preset_structure_functions(preset, 1.7)
        else:
            functions = G.StructureFunctions(*rng.uniform(-2, 2, 7))
        constraint = "c_compatible" if variant == "c_form" else "none"
        sff = G.random_sff(rng, ambient.dim - 6, 6, 1.0, constraint, n)
        flags = G.PointFlags(c_compatible=(variant == "c_form"))
        point = G.attach_point(ambient, functions,
                               G.slant_frame(ambient, n, theta), sff, flags)
        probe = G.slant_probe(point)
        assert probe.is_slant
        u = random_unit_l(point, rng)
        report = G.ricci_bound(point, u, variant)
        cos_sq = math.cos(probe.angle) ** 2
        f = functions
        quarter = (n + 2) ** 2 / 4.0 * point.h_norm_sq
        if variant == "general":
            expected = quarter + (n + 1) * f.f1 + 3.0 * cos_sq * f.f2 - (f.f11 + f.f22)
        elif variant == "s_form":
            expected = quarter + (n - 1) * f.f1 + (3.0 * f.f1 - 4.0) * cos_sq
        else:
            expected = quarter + ((n - 1) + 3.0 * cos_sq) * f.f1
        assert abs(report.rhs - expected) < 1e-8


# ------------------------------------------- structure-function probes

def test_bounds_ignore_off_diagonal_pair_functions():
    for trial in range(8):
        n = 2 + trial % 4
        cfg = G.GeneratorConfig(seed=8_000 + trial, n=n, m=n + 1, constraint="none")
        point = G.random_instance(cfg)
        f = point.functions
        bumped = G.StructureFunctions(f.f1, f.f2, f.f3, f.f11,
                                      f.f12 + 5.0, f.f21 - 5.0, f.f22)
        other = G.attach_point(point.ambient, bumped, list(point.tangent.matrix),
                               point.sff, point.flags)
        for i in range(n):
            r1 = G.ricci_bound(point, point.tangent.matrix[i], "general")
            r2 = G.ricci_bound(other, other.tangent.matrix[i], "general")
            assert abs(r1.lhs - r2.lhs) <= 1e-12
            assert abs(r1.rhs - r2.rhs) <= 1e-12
            assert abs(r1.slack - r2.slack) <= 1e-12
        d1 = G.delta_bound(point, point.tangent.matrix[0], point.tangent.matrix[1])
        d2 = G.delta_bound(other, other.tangent.matrix[0], other.tangent.matrix[1])
        assert abs(d1.lhs - d2.lhs) <= 1e-12
        assert abs(d1.rhs - d2.rhs) <= 1e-12
