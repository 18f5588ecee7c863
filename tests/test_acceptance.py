"""Acceptance criteria, one test per criterion.

Each test asserts its criterion at the stated tolerance and prints one
pass line (visible with ``pytest -s``); a failing criterion fails its
test.  Criteria 1-3 and 9-10 run over the shared 10,000-instance fuzz
corpus from conftest; the remainder build their own instance families.
"""

import math

import numpy as np
import pytest

import gssf as G
from _builders import invariant_point, random_unit_l, sff_with, spot_point
from conftest import CORPUS_SIZE


def _report(line):
    print(f"\n[acceptance] {line}")


def test_c01_scalar_identity_oracle(corpus):
    worst = float(np.max(corpus.identity_rel))
    assert worst <= 1e-9, f"worst relative identity defect {worst:.3e}"

    point = spot_point()
    assert abs(point.tau - 6.0) < 1e-12

    # independent route: per-pair Gauss-equation summation through the
    # general curvature evaluator, on a deterministic subsample
    for index in range(0, CORPUS_SIZE, 67):
        p = corpus.points[index]
        t = p.n + 2
        tau_literal = sum(
            G.induced_curvature(p, p.tangent.matrix[i], p.tangent.matrix[j],
                                p.tangent.matrix[j], p.tangent.matrix[i])
            for i in range(t) for j in range(i + 1, t)
        )
        assert abs(tau_literal - p.tau) <= 1e-9 * max(1.0, abs(p.tau))

    _report(f"criterion 1 PASS: scalar identity over {CORPUS_SIZE} instances, "
            f"worst relative defect {worst:.3e}, spot tau = 6")


def test_c02_ricci_bound_and_defects(corpus):
    worst_slack = float(np.min(corpus.ricci_min_slack))
    worst_gap = float(np.max(corpus.ricci_defect_gap))
    assert worst_slack >= -1e-9, f"Ricci slack {worst_slack:.3e}"
    assert worst_gap <= 1e-8, f"defect-sum gap {worst_gap:.3e}"
    _report(f"criterion 2 PASS: Ricci bound over {CORPUS_SIZE} instances, "
            f"worst slack {worst_slack:.3e}, worst defect gap {worst_gap:.3e}")


def test_c03_delta_bound_and_equality_instances(corpus):
    finite = corpus.delta_min_slack[np.isfinite(corpus.delta_min_slack)]
    worst = float(np.min(finite))
    assert worst >= -1e-9, f"plane-bound slack {worst:.3e}"

    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = 2 + trial % 4
        pair_count = trial % 3
        m = max(n, (n + 3 + pair_count) // 2 + 1)
        ambient = G.canonical_model(m)
        functions = G.StructureFunctions(*rng.uniform(-2, 2, 7))
        form = G.ShapeOperatorForm(
            a=float(rng.uniform(-2, 2)), b=float(rng.uniform(-2, 2)),
            c=float(rng.uniform(-2, 2)),
            pairs=tuple(
                (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
                for _ in range(pair_count)
            ),
        )
        point = G.equality_instance(ambient, functions, n, form)
        x, y = point.tangent.matrix[0], point.tangent.matrix[1]
        report = G.delta_bound(point, x, y)
        assert abs(report.slack) <= 1e-9, (trial, report.slack)

        result = G.delta_equality_shape_check(point, x, y)
        assert result.matches_forms, trial
        sign = 1.0 if form.c >= 0 else -1.0
        got = result.recovered
        assert abs(got.a - sign * form.a) <= 1e-8
        assert abs(got.b - sign * form.b) <= 1e-8
        assert abs(got.c - sign * form.c) <= 1e-8
        for k, (ar, br) in enumerate(form.pairs):
            assert abs(got.pairs[k][0] - ar) <= 1e-8
            assert abs(got.pairs[k][1] - br) <= 1e-8

    _report(f"criterion 3 PASS: plane bound over {CORPUS_SIZE} instances "
            f"(worst slack {worst:.3e}); 100 equality instances exact and "
            f"round-tripped")


def test_c04_s_form_sharpening():
    rng = np.random.default_rng(41)
    worst_gap = 0.0
    worst_common = 0.0
    for trial in range(1000):
        c = float(rng.uniform(-2.0, 6.0))
        functions = G.preset_structure_functions("s_space_form", c)
        if trial % 5 == 0:
            # invariant frame, U = e1: the normal part of fU vanishes
            n = 2 + 2 * (trial % 2)
            sff = G.random_sff(np.random.default_rng(trial), n, n + 2, 1.0, "none", n)
            point = invariant_point(n=n, m=n, functions=functions, sff=sff)
            u = point.tangent.matrix[0]
        else:
            n = 1 + trial % 5
            cfg = G.GeneratorConfig(
                seed=60_000 + trial, n=n, m=n + 1,
                f_ranges=tuple((v, v) for v in functions.as_tuple()),
            )
            point = G.random_instance(cfg)
            u = random_unit_l(point, rng)
        general = G.ricci_bound(point, u, "general")
        sharper = G.ricci_bound(point, u, "s_form")
        _, nu = G.tn_decompose(point, u)
        nu_sq = float(nu @ nu)
        gap = abs((general.rhs - sharper.rhs) - 2.0 * nu_sq)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9, (trial, gap)
        if nu_sq <= 1e-18:
            n = point.n
            common = ((n + 2) ** 2 / 4.0 * point.h_norm_sq
                      + (n + 2) * functions.f1 - 4.0)
            defect = max(abs(general.rhs - common), abs(sharper.rhs - common))
            worst_common = max(worst_common, defect)
            assert defect <= 1e-9, (trial, defect)
    _report(f"criterion 4 PASS: 1000 S-family instances, worst gap defect "
            f"{worst_gap:.3e}, worst common-value defect {worst_common:.3e}")


def test_c05_minimal_equality_iff_null_space():
    rng = np.random.default_rng(55)
    for trial in range(200):
        n = 2 + trial % 4
        ambient = G.canonical_model(n)
        functions = G.StructureFunctions(*rng.uniform(-2, 2, 7))
        rank = ambient.dim - (n + 2)
        coeffs = np.zeros((rank, n + 2, n + 2))
        expect = trial % 2 == 0
        if expect:
            # U = e1 in the null space by construction: first row and
            # column vanish, the rest is traceless
            sub = rng.uniform(-1, 1, (rank, n + 1, n + 1))
            sub = (sub + sub.transpose(0, 2, 1)) / 2
            idx = np.arange(n + 1)
            sub[:, idx, idx] -= np.einsum("rii->r", sub)[:, None] / (n + 1)
            coeffs[:, 1:, 1:] = sub
        else:
            # engineered defect: mixed entry at e1, still trace-free
            coeffs[:, 0, 1] = coeffs[:, 1, 0] = rng.uniform(0.2, 1.0, rank)
        point = G.attach_point(ambient, functions,
                               G.anti_invariant_frame(ambient, n),
                               G.SecondFundamentalForm(coeffs))
        diag = G.ricci_equality_diagnosis(point, point.tangent.matrix[0])
        assert diag.consistent, trial
        assert diag.equality == expect and diag.in_null_space == expect
    _report("criterion 5 PASS: 200 minimal instances, equality <-> null "
            "space in every case")


def test_c06_c_form_classifier():
    functions = G.preset_structure_functions("c_space_form", 1.4)
    rng = np.random.default_rng(66)

    for n in (3, 4, 5):
        ambient = G.canonical_model(max(n, 3))
        rank = ambient.dim - (n + 2)
        geodesic = G.attach_point(
            ambient, functions, G.anti_invariant_frame(ambient, n),
            G.SecondFundamentalForm.zeros(rank, n + 2),
            G.PointFlags(c_compatible=True),
        )
        rep = G.c_form_equality_classifier(geodesic)
        assert rep.all_u_equality and rep.expected_class == "totally_geodesic"
        assert rep.matches

        coeffs = np.zeros((rank, n + 2, n + 2))
        coeffs[0, 0, 0] = 0.1
        bumped = G.attach_point(
            ambient, functions, G.anti_invariant_frame(ambient, n),
            G.SecondFundamentalForm(coeffs), G.PointFlags(c_compatible=True),
        )
        rep = G.c_form_equality_classifier(bumped)
        assert not rep.all_u_equality and rep.matches

    for trial in range(10):
        ambient = G.canonical_model(3)
        rank = ambient.dim - 4
        entries = {}
        for r in range(rank):
            v = float(rng.uniform(-1.5, 1.5))
            entries[(r, 0, 0)] = v
            entries[(r, 1, 1)] = v
        umbilical = G.attach_point(
            ambient, functions, G.slant_frame(ambient, 2, rng.uniform(0, math.pi / 2)),
            sff_with(rank, 4, entries), G.PointFlags(c_compatible=True),
        )
        rep = G.c_form_equality_classifier(umbilical)
        assert rep.all_u_equality and rep.expected_class == "totally_f_umbilical"
        assert rep.matches

        entries_bumped = dict(entries)
        entries_bumped[(0, 0, 0)] = entries[(0, 0, 0)] + 0.1
        perturbed = G.attach_point(
            ambient, functions, G.slant_frame(ambient, 2, 0.4),
            sff_with(rank, 4, entries_bumped), G.PointFlags(c_compatible=True),
        )
        rep = G.c_form_equality_classifier(perturbed)
        assert not rep.all_u_equality and rep.matches
    _report("criterion 6 PASS: C-family classifier on geodesic, umbilical "
            "and perturbed instances")


def test_c07_slant_machinery():
    rng = np.random.default_rng(77)
    thetas = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
    for n in (2, 4):
        for theta in thetas:
            ambient = G.canonical_model(n)
            raw = G.slant_frame(ambient, n, theta)
            rank = ambient.dim - (n + 2)
            sff = G.random_sff(np.random.default_rng(int(theta * 100) + n),
                               rank, n + 2, 1.0, "none", n)
            functions = G.StructureFunctions(*rng.uniform(-2, 2, 7))
            point = G.attach_point(ambient, functions, raw, sff)

            probe = G.slant_probe(point)
            assert probe.is_slant and abs(probe.angle - theta) <= 1e-6

            report = G.invariant_report(point)
            assert abs(report.t_norm_sq - n * math.cos(theta) ** 2) <= 1e-9
            assert abs(report.n_norm_sq - n * math.sin(theta) ** 2) <= 1e-9

            for i in range(n):
                row = float(np.sum(point.phi[i] ** 2))
                assert abs(row - math.cos(theta) ** 2) <= 1e-9

            for _ in range(10):
                x = rng.normal(size=n + 2) @ point.tangent.matrix
                y = rng.normal(size=n + 2) @ point.tangent.matrix
                _, nx = G.tn_decompose(point, x)
                _, ny = G.tn_decompose(point, y)
                fx = ambient.f_matrix @ x
                fy = ambient.f_matrix @ y
                gap = abs(float(nx @ ny) - math.sin(theta) ** 2 * float(fx @ fy))
                assert gap <= 1e-9
    _report("criterion 7 PASS: slant frames for theta in {0, pi/6, pi/4, "
            "pi/3, pi/2}, n in {2, 4}")


def test_c08_four_dimensional_slant_corollary():
    worst = np.inf
    for trial in range(500):
        constraint = ("c_compatible" if trial % 2 == 0
                      else "minimal_and_c_compatible")
        cfg = G.GeneratorConfig(seed=80_000 + trial, n=2, m=2 + trial % 3,
                                constraint=constraint)
        point = G.random_instance(cfg)
        report = G.global_delta_bounds(point)
        four = report.four_dim_slant
        assert four is not None, trial
        assert four.slack >= -1e-9
        worst = min(worst, four.slack)
        minimal = math.sqrt(point.h_norm_sq) <= 1e-9
        assert (four.slack <= 1e-9) == minimal, (trial, four.slack, point.h_norm_sq)

    spot = spot_point()
    report = G.global_delta_bounds(spot)
    assert abs(report.bound.lhs - 4.0) < 1e-12
    assert abs(report.four_dim_slant.rhs - 4.0) < 1e-12
    assert report.four_dim_slant.equality
    _report(f"criterion 8 PASS: 500 four-dimensional slant instances, "
            f"worst slack {worst:.3e}, equality exactly at minimal points; "
            f"spot value 4 = 4")


def test_c09_f2_sign_bounds(corpus):
    worst = {"f2_nonneg": np.inf, "f2_neg": np.inf}
    counts = {"f2_nonneg": 0, "f2_neg": 0}
    for index in range(CORPUS_SIZE):
        point = corpus.points[index]
        if point.n < 2:
            continue  # no planes inside L
        if point.n > 4 and index % 8:
            continue  # search-based subsample for the larger Grassmannians
        report = G.global_delta_bounds(point)
        worst[report.branch] = min(worst[report.branch], report.bound.slack)
        counts[report.branch] += 1
        assert report.bound.slack >= -1e-9, (index, report.bound.slack)
        assert report.inf_k_lower <= report.inf_k, index
        if point.n <= 4:  # certified: the bracket closes and the bound holds on its lower end
            gap = report.inf_k - report.inf_k_lower
            assert gap <= 1e-10 * max(1.0, abs(report.inf_k)), (index, gap)
            certified_slack = report.bound.rhs - (point.tau - report.inf_k_lower)
            assert certified_slack >= -1e-9, (index, certified_slack)

    rng = np.random.default_rng(99)
    for trial in range(20):
        values = rng.uniform(-2, 2, 7)
        values[1] = abs(values[1]) + 0.05  # F2 > 0
        functions = G.StructureFunctions(*values)
        point = invariant_point(n=4, m=4, functions=functions)
        report = G.global_delta_bounds(point)
        assert report.branch == "f2_nonneg"
        assert abs(report.bound.slack) <= 1e-9
        assert report.equality_diagnosis["t_norm_full"]
        assert report.equality_diagnosis["n_even"]
    _report(f"criterion 9 PASS: sign-split bounds on "
            f"{counts['f2_nonneg']}+{counts['f2_neg']} corpus instances "
            f"(worst slacks {worst['f2_nonneg']:.3e} / {worst['f2_neg']:.3e}); "
            f"20 invariant instances reach equality with its diagnosis")


def test_c10_pair_function_independence(corpus):
    checked = 0
    for index in range(0, CORPUS_SIZE, 257):
        point = corpus.points[index]
        f = point.functions
        bumped = G.StructureFunctions(f.f1, f.f2, f.f3, f.f11,
                                      f.f12 + 5.0, f.f21 - 5.0, f.f22)
        other = G.attach_point(point.ambient, bumped,
                               list(point.tangent.matrix), point.sff,
                               point.flags)
        n = point.n
        for i in range(n):
            r1 = G.ricci_bound(point, point.tangent.matrix[i], "general")
            r2 = G.ricci_bound(other, other.tangent.matrix[i], "general")
            assert abs(r1.lhs - r2.lhs) <= 1e-12
            assert abs(r1.rhs - r2.rhs) <= 1e-12
            assert abs(r1.slack - r2.slack) <= 1e-12
            assert r1.equality == r2.equality
            for (_, v1), (_, v2) in zip(r1.defect_terms, r2.defect_terms):
                assert abs(v1 - v2) <= 1e-12
        for i in range(n):
            for j in range(i + 1, n):
                d1 = G.delta_bound(point, point.tangent.matrix[i],
                                   point.tangent.matrix[j])
                d2 = G.delta_bound(other, other.tangent.matrix[i],
                                   other.tangent.matrix[j])
                assert abs(d1.lhs - d2.lhs) <= 1e-12
                assert abs(d1.rhs - d2.rhs) <= 1e-12
                assert abs(d1.slack - d2.slack) <= 1e-12
        if n >= 2:
            g1 = G.global_delta_bounds(point)
            g2 = G.global_delta_bounds(other)
            assert abs(g1.bound.lhs - g2.bound.lhs) <= 1e-12
            assert abs(g1.bound.rhs - g2.bound.rhs) <= 1e-12
        checked += 1
    _report(f"criterion 10 PASS: bounds of {checked} instances unchanged "
            f"under +-5 shifts of the off-diagonal pair functions")
