import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, validators
from jsonschema.exceptions import best_match

import gssf
from gssf import (DEFAULT, MAX_M, BadConfig, NonFinite, SchemaViolation, ShapeOperatorForm, canonical_model,
                  cli, equality_instance, minimize_sectional_plane, preset_structure_functions)
from gssf import scenario as scenario_module
from gssf.inequalities import _MAX_PLANE_N
from gssf.jsonutil import dumps
from gssf.scenario import SCENARIO_SCHEMA, assemble, run_checks, validate_scenario

SPOT_SCENARIO = {
    "ambient": {"m": 2},
    "structure": {"preset": "s_space_form", "c": 2.0},
    "frame": {"mode": "invariant", "n": 2},
    "sigma": {"coeffs": []},
    "checks": [
        {"name": "scalar_identity", "expect": {"tau": 6.0}},
        {"name": "ricci_bound", "variant": "general", "u": 1},
        {"name": "ricci_equality", "u": "all"},
        {"name": "delta_bound", "plane": [1, 2]},
        {"name": "global_delta"},
        {"name": "invariant_report", "expect": {"t_norm_sq": 2.0}},
        {"name": "classify", "expect": {"minimal": True}},
    ],
}


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    full_env.pop("GSSF_TOL", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "gssf", *args],
        capture_output=True, text=True, env=full_env,
    )


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(dumps(data))
    return str(path)


def test_report_spot_scenario(tmp_path):
    path = write_scenario(tmp_path, SPOT_SCENARIO)
    out = str(tmp_path / "report.json")
    proc = run_cli("report", path, "--out", out)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(open(out).read())
    assert report["summary"]["fail_count"] == 0
    assert report["resolved"]["structure_functions"]["f1"] == 2.0
    identity = report["checks"][0]
    assert identity["diagnostics"]["tau"] == 6.0
    ricci = report["checks"][1]
    assert ricci["lhs"] == 4.0 and ricci["equality"] is True


def test_report_missing_xi_exits_2(tmp_path):
    scenario = dict(SPOT_SCENARIO)
    scenario["frame"] = {
        "mode": "explicit",
        "vectors": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]],
    }
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("report", path)
    assert proc.returncode == 2
    error = json.loads(proc.stderr.strip())
    assert error["error"] == "XiNotTangent"


def test_report_corrupted_expectation_exits_1(tmp_path):
    scenario = dict(SPOT_SCENARIO)
    scenario["checks"] = [{"name": "ricci_bound", "u": 1, "expect": {"rhs": 999.0}}]
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("report", path)
    assert proc.returncode == 1


def test_tol_env_override(tmp_path):
    scenario = dict(SPOT_SCENARIO)
    scenario["checks"] = [{"name": "ricci_bound", "u": 1, "expect": {"rhs": 999.0}}]
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("report", path, env={"GSSF_TOL": "1e6"})
    assert proc.returncode == 0


def test_unknown_fields_rejected(tmp_path):
    scenario = dict(SPOT_SCENARIO)
    scenario["surprise"] = True
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("report", path)
    assert proc.returncode == 2
    assert json.loads(proc.stderr.strip())["error"] == "SchemaViolation"


def test_fuzz_deterministic_and_green(tmp_path):
    out1 = str(tmp_path / "f1.json")
    out2 = str(tmp_path / "f2.json")
    proc1 = run_cli("fuzz", "--seed", "7", "--count", "40", "--n-range", "1..5",
                    "--out", out1)
    proc2 = run_cli("fuzz", "--seed", "7", "--count", "40", "--n-range", "1..5",
                    "--out", out2)
    assert proc1.returncode == 0 and proc2.returncode == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    report = json.loads(open(out1).read())
    assert report["summary"]["violation_count"] == 0
    assert report["summary"]["worst_slack"] >= -1e-9


# sha256 of `gssf fuzz --seed 7 --count 120 --n-range 1..6` on stdout
FUZZ_GOLDEN = {
    "none": "ef1dab2dc0118d62fcd3f667c008be7065bf4399502d50fd14976355a8ec1be5",
    "minimal": "6822527bbd332b04457a32eb348751eb88a4570f1e04a9c31f8637d6b8a8a76e",
    "c_compatible": "36b8755be1ad5c1beb0c574c15c07fcfb5a9c5161899173e931d5ba1834409a4",
}


@pytest.mark.parametrize("constraint", sorted(FUZZ_GOLDEN))
def test_fuzz_output_bytes_are_pinned(constraint):
    code, out, err = run_main("fuzz", "--seed", "7", "--count", "120",
                              "--n-range", "1..6", "--constraint", constraint)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FUZZ_GOLDEN[constraint]


# sha256 of the exit code and stdout of `gssf report` on each scenario
REPORT_GOLDEN = {
    "spot": "2be6288139fd6e341ca2ea0d80473151388a0771bbc42c0d9792cffadfe8a00e",
    "generated": "ca61131cf16da5429e06a856b21946b4e5b841c1fb3069aba18ad271f023a49c",
    "explicit": "19251874bc61a93bec3a420073fba6f54fa23e9931bc4a7bfeeb967989fc9218",
}


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_report_output_bytes_are_pinned(tmp_path, name):
    # together the three run every check, Ricci variant, selector form,
    # slant_mode, four_dim_slant and expect; all are n = 2
    scenario = {"spot": SPOT_SCENARIO, "generated": _GENERATED_SCENARIO,
                "explicit": _EXPLICIT_SCENARIO}[name]
    code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert err == ""
    assert hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest() == REPORT_GOLDEN[name]


def test_fuzz_count_zero_exits_2():
    proc = run_cli("fuzz", "--seed", "7", "--count", "0")
    assert proc.returncode == 2


def test_fuzz_bad_range_exits_2():
    proc = run_cli("fuzz", "--seed", "7", "--count", "5", "--n-range", "oops")
    assert proc.returncode == 2


@pytest.mark.parametrize("seed", ["-5", "-1"])
def test_fuzz_negative_seed_exits_2(seed):
    code, out, err = run_main("fuzz", "--seed", seed, "--count", "2")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "BadConfig", "detail": "seed must be at least 0"}


def test_construct_round_trip(tmp_path):
    out = str(tmp_path / "eq.json")
    proc = run_cli("construct", "--form", "1,0.5,2", "--pairs", "0.3,-0.2",
                   "--n", "3", "--m", "4", "--out", out)
    assert proc.returncode == 0, proc.stderr
    report_path = str(tmp_path / "eq_report.json")
    proc = run_cli("report", out, "--out", report_path)
    assert proc.returncode == 0
    report = json.loads(open(report_path).read())
    delta = report["checks"][0]
    assert abs(delta["slack"]) <= 1e-9
    assert delta["equality"] is True


def test_construct_all_zero_form_is_geodesic(tmp_path):
    out = str(tmp_path / "zero.json")
    proc = run_cli("construct", "--form", "0,0,0", "--n", "2", "--m", "2",
                   "--out", out)
    assert proc.returncode == 0
    scenario = json.loads(open(out).read())
    values = [entry[3] for entry in scenario["sigma"]["coeffs"]]
    assert all(v == 0.0 for v in values)


def test_construct_pairs_overflow_exits_2(tmp_path):
    proc = run_cli("construct", "--form", "1,0,0",
                   "--pairs", "1,1;2,2;3,3;4,4;5,5",
                   "--n", "3", "--m", "4", "--out", str(tmp_path / "x.json"))
    assert proc.returncode == 2


@pytest.mark.parametrize("form, pairs", [
    ("a,b,c", ""),          # not numbers
    ("1,2", ""),            # too few entries
    ("1,nan,0", ""),        # not finite
    ("1,0,0", "1,x"),       # a pair entry that is not a number
    ("1,0,0", "1,1;inf,2"),
])
def test_construct_bad_numbers_exit_2(tmp_path, form, pairs):
    proc = run_cli("construct", "--form", form, "--pairs", pairs,
                   "--n", "3", "--m", "4", "--out", str(tmp_path / "x.json"))
    assert_input_error(proc, "BadConfig")
    assert not (tmp_path / "x.json").exists()


# sha256 of `gssf construct --form F --pairs P --n 3 --m 4` on stdout
CONSTRUCT_GOLDEN = {
    ("1,0,0", ""): "7756f52d88c5e4d47bd78c8ac18aabe89f65962bcb8e7496762b369f1f7c8f15",
    ("0,0,0", ""): "928d16d6c153a207748b967e6c3f47f82d5dd7692297b4ea6a598da342483cdf",
    ("2,-1,3", "0.3,-0.2;0,0.5"):
        "2392c0480d69545cbefa42a71fc473d4f6117c8ab747fe2da090d9e04f20f4dd",
}


@pytest.mark.parametrize("form, pairs", sorted(CONSTRUCT_GOLDEN))
def test_construct_matches_equality_instance(form, pairs):
    code, out, err = run_main("construct", "--form", form, "--pairs", pairs,
                              "--n", "3", "--m", "4")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONSTRUCT_GOLDEN[form, pairs]
    scenario = json.loads(out)
    validate_scenario(scenario)
    point, _, _ = assemble(scenario)
    a, b, c = (float(v) for v in form.split(","))
    pair_values = tuple(tuple(float(v) for v in chunk.split(","))
                        for chunk in pairs.split(";") if chunk)
    reference = equality_instance(canonical_model(4),
                                  preset_structure_functions("s_space_form", 2.0), 3,
                                  ShapeOperatorForm(a, b, c, pair_values))
    assert np.array_equal(point.sff.coeffs, reference.sff.coeffs)


def test_report_to_stdout(tmp_path):
    path = write_scenario(tmp_path, SPOT_SCENARIO)
    proc = run_cli("report", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["summary"]["fail_count"] == 0


def test_run_checks_applies_the_whole_tolerance_record():
    # L = two invariant pairs plus one anti-invariant vector, sigma = 0,
    # F2 < 0: the slant angle runs over [0, pi/2] (spread pi/4), and the
    # argmin plane is one invariant pair, so the other keeps |Tw| = 1
    eye = [[float(i == j) for j in range(12)] for i in range(12)]
    scenario = {
        "ambient": {"m": 5},
        "structure": {"values": [1.0, -1.0, 0.5, 0.2, 0.0, 0.0, 0.1]},
        "frame": {"mode": "explicit", "vectors": eye[:5] + eye[10:]},
        "sigma": {"coeffs": []},
        "checks": [{"name": "invariant_report"}, {"name": "global_delta"}],
    }
    validate_scenario(scenario)
    point, checks, _ = assemble(scenario)

    def diagnostics(tol):
        records, _ = run_checks(point, checks, tol)
        return {record["name"]: record["diagnostics"] for record in records}

    default = diagnostics(DEFAULT)
    loose = diagnostics(dataclasses.replace(DEFAULT, slant_spread=1.0, membership=2.0))
    assert default["invariant_report"]["slant_kind"] == "not_slant"
    assert loose["invariant_report"]["slant_kind"] == "slant"
    assert loose["invariant_report"]["slant_angle"] == pytest.approx(math.pi / 4)
    assert default["global_delta[f2_neg]"]["trailing_t_norm_max"] == pytest.approx(1.0)
    assert not default["global_delta[f2_neg]"]["trailing_anti_invariant"]
    assert loose["global_delta[f2_neg]"]["trailing_anti_invariant"]


@pytest.mark.parametrize("bad", [
    {"structure": {"preset": "s_space_form"}},          # missing c
    {"sigma": {}},                                      # neither coeffs nor constraint
    {"frame": {"mode": "slant", "n": 2}},               # missing theta
])
def test_semantic_validation_exits_2(tmp_path, bad):
    scenario = dict(SPOT_SCENARIO)
    scenario.update(bad)
    path = write_scenario(tmp_path, scenario)
    proc = run_cli("report", path)
    assert proc.returncode == 2


def test_specialized_variants_through_scenarios(tmp_path):
    s_scenario = {
        "ambient": {"m": 3},
        "structure": {"preset": "s_space_form", "c": 1.5},
        "frame": {"mode": "slant", "n": 2, "theta": 0.6},
        "sigma": {"constraint": "none", "seed": 5, "scale": 0.5},
        "checks": [{"name": "ricci_bound", "variant": "s_form", "u": "all"}],
    }
    path = write_scenario(tmp_path, s_scenario, "s_form.json")
    proc = run_cli("report", path)
    assert proc.returncode == 0, proc.stderr + proc.stdout

    c_scenario = {
        "ambient": {"m": 3},
        "structure": {"preset": "c_space_form", "c": 1.0},
        "frame": {"mode": "invariant", "n": 2},
        "sigma": {"constraint": "c_compatible", "seed": 5, "scale": 0.5},
        "checks": [{"name": "ricci_bound", "variant": "c_form", "u": "all"}],
    }
    path = write_scenario(tmp_path, c_scenario, "c_form.json")
    proc = run_cli("report", path)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    report = json.loads(proc.stdout)
    assert all(rec["slack"] >= -1e-9 for rec in report["checks"])

    # the specialized variant on mismatched structure functions is an
    # input error, not a failed check
    wrong = dict(c_scenario)
    wrong["structure"] = {"preset": "s_space_form", "c": 1.0}
    path = write_scenario(tmp_path, wrong, "wrong.json")
    proc = run_cli("report", path)
    assert proc.returncode == 2
    assert json.loads(proc.stderr.strip())["error"] == "VariantPreconditionViolated"


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


_DROP = object()


def _locate(doc, path):
    """The container that holds the last key of ``path``, and that key."""
    *parents, key = path
    for part in parents:
        doc = doc[part]
    return doc, key


def _with(path, value):
    """A copy of SPOT_SCENARIO with the value at ``path`` set, or removed
    for ``_DROP``."""
    scenario = copy.deepcopy(SPOT_SCENARIO)
    target, key = _locate(scenario, path)
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    return scenario


def assert_input_error(proc, name):
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == name


@pytest.mark.parametrize("args, env", [
    (["report", "{path}"], {"GSSF_TOL": "abc"}),
    (["report", "{path}", "--tol", "nan"], None),
    (["report", "{path}", "--tol", "inf"], None),
    (["fuzz", "--count", "3", "--tol", "-1"], None),
])
def test_bad_tolerance_exits_2(tmp_path, args, env):
    path = write_scenario(tmp_path, SPOT_SCENARIO)
    proc = run_cli(*[arg.format(path=path) for arg in args], env=env)
    assert_input_error(proc, "BadConfig")


def test_ricci_equality_u_out_of_range_exits_2(tmp_path):
    scenario = _with(["checks"], [{"name": "ricci_equality", "u": 7}])
    proc = run_cli("report", write_scenario(tmp_path, scenario))
    assert_input_error(proc, "BadConfig")


def test_overflowing_result_exits_2(tmp_path):
    scenario = _with(["structure"], {"preset": "s_space_form", "c": 1e308})
    proc = run_cli("report", write_scenario(tmp_path, scenario))
    assert_input_error(proc, "NonFinite")
    assert "scalar_identity" in json.loads(proc.stderr)["detail"]


@pytest.mark.parametrize("literal", [
    "NaN", "-Infinity", "1e400",
    pytest.param("1" + "0" * 400, id="integer-1e400"),
])
def test_non_finite_scenario_number_exits_2(tmp_path, literal):
    path = write_scenario(tmp_path, SPOT_SCENARIO)
    text = open(path).read().replace('"c": 2.0', f'"c": {literal}')
    open(path, "w").write(text)
    assert_input_error(run_cli("report", path), "NonFinite")


def test_overflowing_frame_vector_exits_2(tmp_path):
    vectors = [[1e308, 1e308, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    scenario = _with(["frame"], {"mode": "explicit", "vectors": vectors})
    proc = run_cli("report", write_scenario(tmp_path, scenario))
    assert_input_error(proc, "NonFinite")


@pytest.mark.parametrize("scale", [9e307, 1e308])
def test_sigma_scale_whose_draw_width_overflows_exits_2(tmp_path, scale):
    scenario = _with(["sigma"], {"constraint": "none", "seed": 5, "scale": scale})
    assert_input_error(run_cli("report", write_scenario(tmp_path, scenario)), "BadConfig")


_CHECK_NAMES = tuple(scenario_module.CHECKS)


def test_check_name_enum_is_the_checks_table():
    names = SCENARIO_SCHEMA["properties"]["checks"]["items"]["properties"]["name"]["enum"]
    assert names == list(scenario_module.CHECKS)
    point, _, _ = assemble(SPOT_SCENARIO)
    with pytest.raises(BadConfig):  # a library caller may pass any name
        run_checks(point, [{"name": "validate_ambient"}], DEFAULT)


@pytest.mark.parametrize("check, key", [
    ({"name": "classify", "u": 3}, "u"),
    ({"name": "global_delta", "slant_mode": True}, "slant_mode"),
    ({"name": "scalar_identity", "plane": [1, 2]}, "plane"),
    ({"name": "delta_bound", "variant": "s_form", "u": 1}, "variant"),
], ids=["u-on-classify", "slant_mode-on-global_delta", "plane-on-scalar_identity",
        "variant-and-u-on-delta_bound"])
def test_key_on_a_check_that_does_not_read_it_exits_2(tmp_path, check, key):
    code, out, err = run_main("report", write_scenario(tmp_path, _with(["checks"], [check])))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "BadConfig",
                               "detail": f"check {check['name']!r} does not read {key!r}"}


@pytest.mark.parametrize("value", [1e155, 1e200])
@pytest.mark.parametrize("check", _CHECK_NAMES)
def test_coefficients_whose_squares_overflow_exit_2(tmp_path, check, value):
    scenario = {"ambient": {"m": 4}, "structure": {"preset": "s_space_form", "c": 2.0},
                "frame": {"mode": "anti_invariant", "n": 4},
                "sigma": {"coeffs": [[1, 1, 1, value], [1, 2, 3, 1.0]]},
                "checks": [{"name": check}]}
    code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert (code, out, len(err.splitlines())) == (2, "", 1), err
    assert json.loads(err)["error"] == "NonFinite"


_SLANT_NEAR_LIMIT = [
    (5, 4, {"values": [1e308, -1e308, 1, 1, 0, 0, 1]}),  # 3 F2 overflows into R
    (7, 6, {"preset": "s_space_form", "c": 1e308}),  # tau overflows; the bracket closes
    (5, 4, {"preset": "s_space_form", "c": 1e308}),  # tau overflows
]
_PLANE_INFIMUM_NON_FINITE = [
    _SLANT_NEAR_LIMIT[0],
    (7, 6, {"values": [1e308, -3.5e307, 0, 0, 0, 0, 0]}),  # the t = 0 bracket's width overflows
    (3, 2, _SLANT_NEAR_LIMIT[0][2]),  # n = 2: R, which is K of the one plane, overflows
]


def _slant_global_delta(m, n, structure):
    return {"ambient": {"m": m}, "structure": structure,
            "frame": {"mode": "slant", "n": n, "theta": 0.6},
            "sigma": {"constraint": "none", "seed": 1}, "checks": [{"name": "global_delta"}]}


@pytest.mark.parametrize("m, n, structure", _SLANT_NEAR_LIMIT)
def test_global_delta_near_the_float_limit_exits_2(tmp_path, m, n, structure):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main("report", write_scenario(tmp_path, _slant_global_delta(m, n, structure)))
    assert (code, out, len(err.splitlines())) == (2, "", 1), err
    assert json.loads(err)["error"] == "NonFinite"


@pytest.mark.parametrize("m, n, structure", _PLANE_INFIMUM_NON_FINITE)
def test_plane_infimum_raises_non_finite_before_any_eigensolver(m, n, structure):
    point, _, _ = assemble(_slant_global_delta(m, n, structure))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            minimize_sectional_plane(point)


def test_plane_infimum_at_the_float_limit_closes_without_a_warning():
    point, _, _ = assemble(_slant_global_delta(*_SLANT_NEAR_LIMIT[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = minimize_sectional_plane(point)
    f1 = point.functions.f1  # 2.5e307
    assert result.certificate == "kkt" and result.upper == f1
    assert 0.0 <= result.upper - result.lower <= 1e-10 * f1


_LARGE_IDENTITY = {"ambient": {"m": 4}, "structure": {"preset": "s_space_form", "c": 2.0},
                   "frame": {"mode": "anti_invariant", "n": 4},
                   "sigma": {"coeffs": [[1, 1, 1, 1e9], [1, 2, 3, 1.0]]},
                   "checks": [{"name": "scalar_identity"}]}


def test_scalar_identity_is_measured_against_its_largest_term(tmp_path, monkeypatch):
    # (n+2)^2 |H|^2 and |sigma|^2 are 1e18 and cancel in both sides
    code, out, _ = run_main("report", write_scenario(tmp_path, _LARGE_IDENTITY))
    record = json.loads(out)["checks"][0]
    assert code == 0 and record["passed"] and record["equality"]
    assert record["diagnostics"]["abs_diff"] > 1.0  # rounding of 1e18-sized terms
    # an O(1) error at O(1) coefficients still fails
    scenario = copy.deepcopy(_LARGE_IDENTITY)
    scenario["sigma"]["coeffs"][0][3] = 1.0
    identity = scenario_module.scalar_identity_check
    monkeypatch.setattr(scenario_module, "scalar_identity_check",
                        lambda point: dataclasses.replace(identity(point), abs_diff=1.0))
    code, out, _ = run_main("report", write_scenario(tmp_path, scenario))
    record = json.loads(out)["checks"][0]
    assert code == 1 and not record["passed"] and not record["equality"]


def test_global_delta_beyond_the_search_cap_exits_2(tmp_path):
    n = _MAX_PLANE_N + 1
    scenario = {"ambient": {"m": n}, "structure": {"preset": "s_space_form", "c": 1.0},
                "frame": {"mode": "anti_invariant", "n": n}, "sigma": {"coeffs": []},
                "checks": [{"name": "global_delta"}]}
    code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert (code, out, json.loads(err)["error"]) == (2, "", "BadShape")


def _no_model(m):
    raise AssertionError(f"a model was built for m = {m}")


@pytest.mark.parametrize("command", ["report"])
def test_scenario_m_beyond_the_cap_is_schema_violation(tmp_path, monkeypatch, command):
    monkeypatch.setattr("gssf.scenario.canonical_model", _no_model)
    path = write_scenario(tmp_path, _with(["ambient", "m"], 10**9))
    code, out, err = run_main(command, path)
    assert (code, out, json.loads(err)["error"]) == (2, "", "SchemaViolation")
    validate_scenario(_with(["ambient", "m"], MAX_M))
    with pytest.raises(SchemaViolation):
        validate_scenario(_with(["ambient", "m"], MAX_M + 1))


@pytest.mark.parametrize("n_range", ["1..1000000000", f"1..{MAX_M}", f"{MAX_M}..{MAX_M}"])
def test_fuzz_n_range_beyond_the_m_cap_exits_2(monkeypatch, n_range):
    monkeypatch.setattr("gssf.generators.canonical_model", _no_model)
    code, out, err = run_main("fuzz", "--count", "3", "--n-range", n_range)
    assert (code, out, json.loads(err)["error"]) == (2, "", "BadConfig")


def test_fuzz_n_range_up_to_the_m_cap_runs():
    code, out, err = run_main("fuzz", "--count", "2", "--n-range", f"1..{MAX_M - 1}")
    assert (code, err) == (0, "")
    assert json.loads(out)["n_range"] == [1, MAX_M - 1]


def test_scenario_schema_is_valid():
    Draft202012Validator.check_schema(SCENARIO_SCHEMA)


@pytest.mark.parametrize("scenario", [
    _with(["surprise"], True),                              # unknown field
    _with(["ambient", "m"], "two"),                         # wrong type
    _with(["sigma", "coeffs"], [[1, 1, 1]]),                # coeffs entry too short
    _with(["frame", "mode"], "sideways"),                   # bad enum
    _with(["checks"], _DROP),                               # missing checks
    _with(["checks"], [{"name": "ricci_bound", "u": 0}]),   # bad u
    _with(["checks"], [{"name": "ricci_bound", "u": "some"}]),
    _with(["sigma"], {"constraint": "none", "seed": -1}),   # negative seed
    _with(["checks"], [{"name": "validate_ambient"}]),      # removed check kind
    _with(["sigma", "coeffs"], [[True, 1, 1, 0.5]]),        # bool as an index
    _with(["sigma", "coeffs"], [[1, 0, 1, 0.5]]),           # index below 1
    _with(["sigma", "coeffs"], [[1, 1, 1, 0.5, 2]]),        # coeffs entry too long
    _with(["frame"], {"mode": "explicit", "vectors": [[1, 0, 0, 0, "x", 0]]}),
    {**_with(["sigma", "coeffs"], [[1, 0, 1, 0.5]]), "surprise": True},  # shallower wins
])
def test_schema_violation_detail_matches_jsonschema(tmp_path, scenario):
    with pytest.raises(jsonschema.ValidationError) as raised:
        jsonschema.validate(scenario, SCENARIO_SCHEMA)
    code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "SchemaViolation",
                               "detail": " ".join(raised.value.message.split())}


@pytest.mark.parametrize("path, value", [
    (["ambient", "m"], 2.0),
    (["frame", "n"], 2.0),
    (["checks", 1, "u"], 1.0),
    (["sigma", "coeffs"], [[1.0, 1, 1, 0.5]]),
])
def test_float_in_integer_field_is_schema_violation(tmp_path, path, value):
    code, _, err = run_main("report", write_scenario(tmp_path, _with(path, value)))
    assert (code, json.loads(err)["error"]) == (2, "SchemaViolation")


@pytest.mark.parametrize("argv", [
    ["fuzz", "--count", "x"],
    ["fuzz", "--count", "3", "--constraint", "bogus"],
    ["construct", "--form", "1,0,0"],
    ["frobnicate"],
    [],
    ["validate", "scenario.json"],  # removed: the canonical model cannot fail it
])
def test_usage_errors_exit_2_with_one_json_line(argv):
    code, out, err = run_main(*argv)
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["error"] == "UsageError"


def test_help_still_prints_usage():
    proc = run_cli("fuzz", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: gssf fuzz")


def test_fuzz_does_not_load_jsonschema():
    code = ("import sys; from gssf import cli; "
            "cli.main(['fuzz', '--count', '2']); "
            "sys.exit('jsonschema' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_public_names_are_pinned():
    # the library contract: a name added or removed here is a contract change
    names = sorted(name for name, value in vars(gssf).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == [
        "AmbientModel", "BadConfig", "BadDimension", "BadK", "BadShape", "Basis", "BoundReport",
        "CFormEqualityReport", "ChenLemmaReport", "DEFAULT", "DependentInput", "DimensionMismatch",
        "FrameSweep", "GeneratorConfig", "GlobalDeltaReport", "GssfError", "InvariantReport",
        "MAX_M", "NonFinite", "NotInL", "NotMinimal", "NotOrthonormal", "NotTangent",
        "NotUnitVector", "PlaneInfimum", "PointFlags", "RicciEqualityDiagnosis", "ScalarIdentityReport",
        "SchemaViolation", "SecondFundamentalForm", "SffClassification", "ShapeMatchResult",
        "ShapeOperatorForm", "SlantResult", "StructureFunctions", "SubmanifoldPoint", "Tolerances",
        "UsageError", "VariantPreconditionViolated", "Vec", "XiNotTangent", "ambient_curvature",
        "anti_invariant_frame", "as_vec", "attach_point", "c_form_equality_classifier",
        "canonical_model", "chen_lemma_check", "classify_sff", "complete_basis", "delta_bound",
        "delta_equality_shape_check", "equality_instance", "frame_sectional", "frame_sweep",
        "global_delta_bounds", "gram_schmidt", "induced_curvature", "invariant_report",
        "minimize_sectional_plane", "preset_structure_functions", "random_instance", "random_sff",
        "relative_null_space", "ricci_bound", "ricci_equality_diagnosis", "scalar_identity_check",
        "slant_frame", "slant_probe",
    ]


_GENERATED_SCENARIO = {
    "ambient": {"m": 3},
    "structure": {"values": [2.0, 0.0, 0.0, 1.0, -1.0, -1.0, 1.0]},
    "frame": {"mode": "slant", "n": 2, "theta": 0.6},
    "sigma": {"constraint": "minimal", "seed": 5, "scale": 0.5},
    "checks": [
        {"name": "ricci_bound", "variant": "s_form", "u": "all"},
        {"name": "delta_bound", "plane": "all", "slant_mode": True},
        {"name": "ricci_equality", "u": 2},
    ],
}
_EXPLICIT_SCENARIO = {
    "ambient": {"m": 2},
    "structure": {"preset": "c_space_form", "c": 1.0},
    "frame": {"mode": "explicit", "vectors": [
        [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]},
    "sigma": {"coeffs": [[1, 1, 1, 0.5], [2, 1, 2, -1.0]], "c_compatible": True},
    "checks": [{"name": "ricci_bound", "variant": "c_form", "u": 1},
               {"name": "delta_bound", "plane": [1, 2], "expect": {"equality": False}}],
}
_KEYS = ("m", "c", "n", "u", "plane", "theta", "vectors", "values", "coeffs",
         "constraint", "seed", "scale", "c_compatible", "slant_mode", "expect",
         "surprise")
_VALUES = (None, True, "all", "x", -1, 0, 1, 2, 3, 7, 0.5, -2.5, 1e308, -1e308,
           float("nan"), float("inf"), [], [1, 2], [[1, 1, 1, 1.0]], {},
           {"name": "classify"})


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    scenario = copy.deepcopy(draw(st.sampled_from(
        [SPOT_SCENARIO, _GENERATED_SCENARIO, _EXPLICIT_SCENARIO])))
    for _ in range(draw(st.integers(1, 3))):
        target, key = _locate(scenario, draw(st.sampled_from(list(_paths(scenario)))))
        action = draw(st.sampled_from(("drop", "retype", "add")))
        if action == "drop":
            del target[key]
        elif action == "retype":
            target[key] = copy.deepcopy(draw(st.sampled_from(_VALUES)))
        elif isinstance(target, dict):
            target[draw(st.sampled_from(_KEYS))] = copy.deepcopy(draw(st.sampled_from(_VALUES)))
    return scenario


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenario=mutated_scenarios())
def test_report_exit_contract_on_mutated_scenarios(tmp_path_factory, scenario):
    path = tmp_path_factory.mktemp("mutant") / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, _, err = run_main("report", str(path))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1 and "error" in json.loads(err)


_STRICT_VALIDATOR = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)),
)(SCENARIO_SCHEMA)
_BULK_VALUES = (True, None, 0, -1, 1.0, "x", [], {}, 10**30, 1e308)


@st.composite
def bulk_mutants(draw):
    """_EXPLICIT_SCENARIO with one or two of its frame vector entries or
    rows, coeffs quadruples, bulk arrays or top-level keys mutated."""
    scenario = copy.deepcopy(_EXPLICIT_SCENARIO)
    frame, sigma = scenario["frame"], scenario["sigma"]
    bulk = st.sampled_from(_BULK_VALUES)
    for _ in range(draw(st.integers(1, 2))):
        site = draw(st.sampled_from(("entry", "row", "quadruple", "length", "array", "key")))
        rows = frame.get("vectors")
        row = rows[0] if type(rows) is list and rows else None
        if site == "entry" and type(row) is list and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(bulk)
        elif site == "row" and type(rows) is list and rows:
            rows[draw(st.integers(0, len(rows) - 1))] = draw(bulk)
        elif site in ("quadruple", "length") and type(sigma.get("coeffs")) is list:
            quad = [draw(st.integers(1, 3)) for _ in range(3)] + [0.5]
            if site == "quadruple":
                quad[draw(st.integers(0, 3))] = draw(bulk)
            else:
                quad = (quad + [1])[:draw(st.sampled_from((3, 5)))]
            sigma["coeffs"].append(quad)
        elif site == "array":
            section, key = draw(st.sampled_from(((frame, "vectors"), (sigma, "coeffs"))))
            section[key] = draw(bulk)
        elif site == "key":
            key = draw(st.sampled_from(sorted(scenario) + ["surprise"]))
            if key in scenario and draw(st.booleans()):
                del scenario[key]
            else:
                scenario[key] = draw(bulk)
    return scenario


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario=bulk_mutants())
def test_bulk_item_pass_matches_the_full_schema(scenario):
    expected = best_match(_STRICT_VALIDATOR.iter_errors(scenario))
    try:
        validate_scenario(scenario)
        detail = None
    except SchemaViolation as error:
        detail = str(error)
    except BadConfig:
        detail = None
    assert detail == (None if expected is None else expected.message)
