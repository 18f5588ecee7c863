import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import gssf
from gssf import (DEFAULT, MAX_M, BadConfig, NonFinite, SchemaViolation, ShapeOperatorForm, canonical_model,
                  cli, equality_instance, minimize_sectional_plane, preset_structure_functions)
from gssf import scenario as scenario_module
from gssf.inequalities import _MAX_PLANE_N
from gssf.jsonutil import dumps
from gssf.scenario import assemble, run_checks, validate_scenario

from _scenario_schema import CHECK_NAMES, SCENARIO_SCHEMA, STRICT

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
    return subprocess.run(
        [sys.executable, "-m", "gssf", *args],
        capture_output=True, text=True, env={**os.environ, **(env or {})},
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


def test_report_expectation_keeps_booleans_and_numbers_apart(tmp_path):
    # 1.0 == True in Python: a number must not match a boolean, nor a boolean a number
    scenario = dict(SPOT_SCENARIO)
    scenario["checks"] = [{"name": "delta_bound", "plane": [1, 2],
                           "expect": {"equality": 1.0, "rhs": 4.0}},
                          {"name": "classify", "expect": {"minimal": 0, "totally_geodesic": True}},
                          {"name": "scalar_identity", "expect": {"tau": True}}]
    code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert (code, err) == (1, "")
    failures = [check["diagnostics"].get("expect_failures") for check in json.loads(out)["checks"]]
    assert failures == [["equality"], ["minimal"], ["tau"]]


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


# sha256 of fuzz runs the benchmark does not reach: the violation path at
# --tol 0 (181 violations in 4760 checks), and n up to 12, where n + 2
# crosses numpy's 8-entry pairwise-sum boundary in the stacked sweep
@pytest.mark.parametrize("args, digest", [
    (("--seed", "5", "--count", "300", "--n-range", "1..8", "--tol", "0",
      "--constraint", "minimal"),
     "e6bcc43784a4ffb2dece3972a696c15cb718b073de92936d2115a3bd2cafd6ba"),
    (("--seed", "11", "--count", "480", "--n-range", "1..12"),
     "9c801e38e8f47b66021b7ec56832f2526dcf33a3a8e93c8a08ae427e3d120233"),
])
def test_fuzz_output_bytes_off_the_benchmark_are_pinned(args, digest):
    code, out, err = run_main("fuzz", *args)
    assert err == "" and code == (1 if "--tol" in args else 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_fuzz_output_bytes_across_generation_batches_are_pinned():
    # 600 trials span several generation batches: the bytes of one at a time
    code, out, err = run_main("fuzz", "--seed", "7", "--count", "600", "--n-range", "1..6",
                              "--constraint", "minimal_and_c_compatible")
    assert (code, err) == (0, "")
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "2db861c7aec0975ef6d2bc76e7d4c9617115434307111a75b491bed848ffe07e")


# sha256 of the exit code and stdout of `gssf report` on each scenario
REPORT_GOLDEN = {
    "spot": "2be6288139fd6e341ca2ea0d80473151388a0771bbc42c0d9792cffadfe8a00e",
    "generated": "ca61131cf16da5429e06a856b21946b4e5b841c1fb3069aba18ad271f023a49c",
    "explicit": "19251874bc61a93bec3a420073fba6f54fa23e9931bc4a7bfeeb967989fc9218",
    "mixed": "71eb505181d0f20e195d6e1f9c5a27d0147bf377587db72d7e6e70f780f77a0b",
}


@pytest.mark.parametrize("name", sorted(REPORT_GOLDEN))
def test_report_output_bytes_are_pinned(tmp_path, name):
    # together the first three run every check, Ricci variant, selector form,
    # slant_mode, four_dim_slant and expect; all are n = 2.  "mixed" is an
    # explicit n = 2 frame with a pure-xi row and a row that is xi_2 plus half
    # another, which the tangency rule drops on a rounding residue
    scenario = {"spot": SPOT_SCENARIO, "generated": _GENERATED_SCENARIO,
                "explicit": _EXPLICIT_SCENARIO, "mixed": _MIXED_SCENARIO}[name]
    code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert err == ""
    assert hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest() == REPORT_GOLDEN[name]


def test_tolerance_in_the_environment_changes_nothing(tmp_path, monkeypatch):
    # only --tol sets the tolerance: a stray exported value, even an invalid
    # one, neither fails a report nor moves a verdict
    monkeypatch.setenv("GSSF_TOL", "-1")
    code, out, err = run_main("report", write_scenario(tmp_path, SPOT_SCENARIO))
    assert (code, err) == (0, "")
    assert hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest() == REPORT_GOLDEN["spot"]


def test_fuzz_memory_does_not_grow_with_the_count_at_large_n():
    # an n = 40 trial is over the generation budget, so it is generated in
    # a batch of its own and dropped before the next: ten peak where one does
    def peak(count):
        tracemalloc.start()
        try:
            code, _, err = run_main("fuzz", "--count", str(count), "--n-range", "40..40",
                                    "--out", os.devnull)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        return top

    assert peak(10) < 1.5 * peak(1)


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


def test_construct_with_large_entries_reports_its_equality(tmp_path):
    # delta_bound[1,2] has slack 2.4e-4 on sides of 8.3e11: rounding, and
    # an equality against the size of its sides
    out = str(tmp_path / "eq.json")
    code, _, err = run_main("construct", "--form", "123456.78,87654.321,234567.89",
                            "--pairs", "31234.567,-21234.57", "--n", "5", "--m", "6",
                            "--out", out)
    assert (code, err) == (0, "")
    code, report, _ = run_main("report", out)
    delta, identity = json.loads(report)["checks"]
    assert code == 0
    assert delta["slack"] > 1e-9 and delta["equality"] and delta["passed"]
    assert identity["passed"]


_STRUCTURE_VALUES = [0.3712, -1.234, 0.77, 0.11, 0.2, -0.3, 0.9]


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("structure", ["preset", "values"])
def test_construct_scenarios_exit_0_at_any_scale(tmp_path, structure, scale):
    # 40 seeded equality scenarios with form entries uniform in +-scale;
    # with ``values`` the bound's slack can round below zero
    rng = np.random.default_rng(int(scale) + (structure == "values"))
    path = str(tmp_path / "eq.json")
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = n + int(rng.integers(1, 3))
        form, pairs = (",".join(map(repr, rng.uniform(-scale, scale, k).tolist()))
                       for k in (3, 2))
        code, _, err = run_main("construct", f"--form={form}", f"--pairs={pairs}",
                                "--n", str(n), "--m", str(m), "--out", path)
        assert (code, err) == (0, "")
        if structure == "values":
            scenario = json.loads(open(path).read())
            scenario["structure"] = {"values": _STRUCTURE_VALUES}
            scenario["checks"].append({"name": "global_delta"})
            write_scenario(tmp_path, scenario, "eq.json")
        code, out, err = run_main("report", path)
        failed = [record for record in json.loads(out)["checks"] if not record["passed"]]
        assert code == 0 and not failed, (n, m, form, pairs, failed)


def test_bound_failing_beyond_its_margin_at_scale_1e6_exits_1(tmp_path):
    # F1 = 1e6, sigma = 0, |TU| = 0: the S-form sharpening misses the
    # general bound's equality by 2, far beyond 1e-9 of sides of 1e6
    scenario = {"ambient": {"m": 2}, "structure": {"preset": "s_space_form", "c": 3999994.0},
                "frame": {"mode": "anti_invariant", "n": 2}, "sigma": {"coeffs": []},
                "checks": [{"name": "ricci_bound", "variant": "s_form", "u": 1},
                           {"name": "ricci_bound", "variant": "general", "u": 1}]}
    code, out, _ = run_main("report", write_scenario(tmp_path, scenario))
    s_form, general = json.loads(out)["checks"]
    assert code == 1
    assert s_form["lhs"] == 1000002.0 and s_form["slack"] == -2.0
    assert not s_form["passed"] and not s_form["equality"]
    assert general["passed"] and general["equality"]


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


def assert_matches_the_oracle(scenario):
    """``validate_scenario`` raises SchemaViolation exactly when the JSON
    Schema oracle rejects ``scenario``, with a detail that starts with the
    dotted path of a field the document holds or misses and echoes no value."""
    rejected = not STRICT.is_valid(scenario)
    try:
        validate_scenario(scenario)
    except SchemaViolation as error:
        detail = str(error)
        assert rejected, detail
        path, _, rest = detail.partition(" ")
        assert rest in ("is missing", "is not a known field") or rest.startswith("must be "), detail
        assert "[[" not in rest, detail
        target, key = _locate(scenario, [int(token[1:-1]) if token.startswith("[") else token
                                         for token in re.split(r"\.|(?=\[)", path)])
        present = key < len(target) if isinstance(target, list) else key in target
        assert present == (rest != "is missing"), detail
        return
    except BadConfig:
        pass
    assert not rejected, scenario


def assert_input_error(proc, name):
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == name


@pytest.mark.parametrize("args, env", [
    (["report", "{path}", "--tol", "abc"], {"GSSF_TOL": "1e-3"}),  # the environment has no say
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
    assert CHECK_NAMES == list(scenario_module.CHECKS)
    point, _, _ = assemble(SPOT_SCENARIO)
    with pytest.raises(BadConfig):  # a library caller may pass any name
        run_checks(point, [{"name": "validate_ambient"}], DEFAULT)
    # every other enum lists the keys of the table that owns it, in order
    for path, field, owner in [
            (["structure", "preset"], "structure.preset", gssf.ambient._PRESETS),
            (["frame", "mode"], "frame.mode", scenario_module._FRAMES),
            (["checks", 1, "variant"], "checks[1].variant", gssf.inequalities._RICCI_VARIANTS),
            (["sigma", "constraint"], "sigma.constraint", gssf.generators._CONSTRAINTS)]:
        with pytest.raises(SchemaViolation) as caught:
            validate_scenario(_with(path, "x"))
        assert str(caught.value) == f"{field} must be one of " + ", ".join(owner)
    with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit):
        cli.main(["fuzz", "--help"])
    assert "{" + ",".join(gssf.generators._CONSTRAINTS) + "}" in out.getvalue()


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


def test_infinite_ricci_rhs_exits_2_where_the_check_passed(tmp_path):
    # (n + 1) F1 + 3 F2 |TU|^2 overflows at c = 1e308 while each term is
    # finite; an infinite right side once decided this check as passed
    scenario = {"ambient": {"m": 8}, "structure": {"preset": "s_space_form", "c": 1e308},
                "frame": {"mode": "slant", "n": 6, "theta": 0.6},
                "sigma": {"constraint": "minimal", "seed": 839, "scale": 0.001},
                "checks": [{"name": "ricci_equality"}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert (code, out, len(err.splitlines())) == (2, "", 1), err
    assert json.loads(err)["error"] == "NonFinite"


_NEAR_LIMIT = st.sampled_from([1e308, -1e308, 5.9e307, -5.9e307, 1e307, -3.5e307,
                               1e200, -1e200, 1e154, 1.0, -1.0, 0.5, 0.0, 2.0])
_NEAR_LIMIT_COEFF = st.sampled_from([1e154, 9e153, 1e150, 1.0, -3e153])


@st.composite
def _near_limit_scenarios(draw):
    """Scenarios whose structure values, preset c or form coefficients sit
    near the float limit, n = 2..8, with two checks from the table."""
    n = draw(st.integers(2, 8))
    m = n + draw(st.integers(0, 2))
    numbers = st.one_of(_NEAR_LIMIT, st.floats(-1e308, 1e308))
    structure = draw(st.one_of(
        st.builds(lambda v: {"values": v}, st.lists(numbers, min_size=7, max_size=7)),
        st.builds(lambda p, c: {"preset": p, "c": c},
                  st.sampled_from(["s_space_form", "c_space_form", "real_space_form"]),
                  numbers)))
    generated = st.fixed_dictionaries({
        "constraint": st.sampled_from(["none", "minimal", "c_compatible",
                                       "minimal_and_c_compatible"]),
        "seed": st.integers(0, 2 ** 16),
        "scale": st.sampled_from([1.0, 1e-3, 1e100, 1e150, 1e153])})
    rank = 2 * m - n
    coeff = st.tuples(st.integers(1, rank), st.integers(1, n + 2), st.integers(1, n + 2),
                      st.one_of(_NEAR_LIMIT_COEFF, st.floats(-1e154, 1e154))).map(list)
    sigma = draw(st.one_of(generated, st.builds(lambda c: {"coeffs": c},
                                                 st.lists(coeff, min_size=1, max_size=3))))
    return {"ambient": {"m": m}, "structure": structure,
            "frame": draw(st.sampled_from([{"mode": "slant", "n": n, "theta": 0.6},
                                           {"mode": "anti_invariant", "n": n}])),
            "sigma": sigma,
            "checks": [{"name": draw(st.sampled_from(_CHECK_NAMES))} for _ in range(2)]}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenario=_near_limit_scenarios())
def test_near_limit_scenarios_exit_with_a_verdict_or_one_error_line(tmp_path_factory, scenario):
    # every value a check decides on is checked where it is built: no
    # numpy warning, no traceback, and on exit 2 exactly one JSON line
    path = write_scenario(tmp_path_factory.getbasetemp(), scenario, "near_limit.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main("report", path)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, err
        assert json.loads(err)["error"]
    else:
        assert err == "" and json.loads(out)["summary"]


def test_plane_infimum_at_the_float_limit_closes_without_a_warning():
    point, _, _ = assemble(_slant_global_delta(*_SLANT_NEAR_LIMIT[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = minimize_sectional_plane(point)
    f1 = point.functions.f1  # 2.5e307
    assert result.certificate == "kkt" and result.upper == f1
    assert 0.0 <= result.upper - result.lower <= 1e-10 * f1


def test_block_steps_run_where_the_lifted_form_is_finite():
    # M(y) of a block step reaches 1e307 here; scaled, its lift stays finite
    point, _, _ = assemble({"ambient": {"m": 4},
                            "structure": {"preset": "c_space_form", "c": -3.5e307},
                            "frame": {"mode": "slant", "n": 4, "theta": 0.6},
                            "sigma": {"coeffs": [[1, 1, 4, 1e150], [2, 5, 4, 1e150],
                                                 [3, 3, 3, 1e154]]},
                            "checks": []})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = minimize_sectional_plane(point)
    assert result.certificate == "none"
    assert 0.0 <= result.upper - result.lower <= 1e-8 * abs(result.upper)


def test_block_steps_scale_the_plane_form_at_the_float_limit():
    # sigma is negligible beside F: the ascent leaves the bracket open, and
    # the lift 10 max|M(y)| + 1 of the block steps once overflowed here
    point, _, _ = assemble(_slant_global_delta(5, 4, {"values": [1e308, -3.5e307, 0, 0, 0, 0, 0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = minimize_sectional_plane(point)
    assert result.lower <= result.upper


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e6, 1e7, 1e8, 1e10, 1e12, 1e15, 1e20])
def test_ricci_equality_takes_generated_minimal_forms_at_every_scale(tmp_path, scale):
    # the rounding of H grows with the diagonal of a traceless form; an
    # absolute test of |H| once raised NotMinimal for 2 of these 20 seeds
    # at 1e7 and for all 20 at 1e8
    for seed in range(20):
        scenario = {"ambient": {"m": 4}, "structure": {"preset": "s_space_form", "c": 2.0},
                    "frame": {"mode": "slant", "n": 4, "theta": 0.6},
                    "sigma": {"constraint": "minimal", "seed": seed, "scale": scale},
                    "checks": [{"name": "ricci_equality"}]}
        code, _, err = run_main("report", write_scenario(tmp_path, scenario))
        assert (code, err) == (0, ""), (seed, err)


def test_ricci_equality_reads_the_defects_where_the_structure_swamps_sigma(tmp_path):
    # lhs = rhs = 3.5e307 round sigma's part of the slack to 0.0, while the
    # defect terms, built from sigma alone, sum to 1.4e200: no equality, and
    # U is outside the null space, so the diagnosis is consistent
    scenario = {"ambient": {"m": 2},
                "structure": {"values": [1.9, 1.9, -9.521839875071002e+278, -3.5e+307, 1e+308,
                                         1.9, 1.9]},
                "frame": {"mode": "slant", "n": 2, "theta": 0.6},
                "sigma": {"constraint": "minimal", "seed": 2, "scale": 1e+100},
                "checks": [{"name": "ricci_equality"}]}
    code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert (code, err) == (0, "")
    records = json.loads(out)["checks"]
    assert [r["name"] for r in records] == ["ricci_equality[u=1]", "ricci_equality[u=2]"]
    for record in records:
        assert record["passed"] and not record["equality"]
        assert record["diagnostics"]["in_null_space"] is False
        assert record["diagnostics"]["consistent"] is True


def test_singular_barrier_system_ends_the_levels_without_a_traceback(tmp_path):
    # F1 = F2 = -1.475e307 swamp sigma: S turns singular in the Newton loop
    # before size * mu reaches its floor, where np.linalg.inv once raised
    scenario = {"ambient": {"m": 10}, "structure": {"preset": "s_space_form", "c": -5.9e307},
                "frame": {"mode": "slant", "n": 8, "theta": 0.6},
                "sigma": {"constraint": "none", "seed": 26662, "scale": 1e100},
                "checks": [{"name": "global_delta"}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, err
        assert json.loads(err)["error"]
    else:
        assert err == "" and json.loads(out)["summary"]


def test_integer_structure_value_near_the_float_limit_exits_2(tmp_path):
    # (n + 1) F1 on the Python int 10^308 once ended in an OverflowError
    scenario = _slant_global_delta(5, 4, {"values": [10 ** 308, 1, 1, 1, 0, 0, 1]})
    scenario["checks"] = [{"name": "ricci_bound"}]
    code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert (code, out, len(err.splitlines())) == (2, "", 1), err
    assert json.loads(err)["error"] == "NonFinite"


def test_integer_structure_values_are_echoed_as_given(tmp_path):
    values = [2, 0, 0, 1, -1, -1, 1]
    code, out, _ = run_main("report", write_scenario(
        tmp_path, _slant_global_delta(5, 4, {"values": values})))
    echoed = json.loads(out)["resolved"]["structure_functions"]
    assert code in (0, 1)
    assert [(type(v), v) for v in echoed.values()] == [(int, v) for v in values]


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
    {**_with(["sigma", "coeffs"], [[1, 0, 1, 0.5]]), "surprise": True},  # two errors
])
def test_schema_violation_detail_matches_jsonschema(tmp_path, scenario):
    assert_matches_the_oracle(scenario)
    code, out, err = run_main("report", write_scenario(tmp_path, scenario))
    assert (code, out, json.loads(err)["error"]) == (2, "", "SchemaViolation")


_GENERATED_SIGMA = {"constraint": "none", "seed": 0}


@pytest.mark.parametrize("path, value", [
    (["ambient", "m"], MAX_M), (["ambient", "m"], MAX_M + 1), (["ambient", "m"], True),
    (["structure"], {"values": [0.1] * 7}), (["structure"], {"values": [0.1] * 8}),
    (["structure"], {"values": [0.1] * 6 + [True]}), (["structure", "c"], 10**30),
    (["frame", "n"], 0), (["frame", "theta"], "x"), (["frame", "vectors"], [[]]),
    (["frame", "vectors"], [[1, True]]), (["sigma", "coeffs"], [[1, 1, 1, 1]]),
    (["sigma", "coeffs"], [[1, 1, 1, True]]), (["sigma", "c_compatible"], 1),
    (["sigma"], _GENERATED_SIGMA), (["sigma"], {**_GENERATED_SIGMA, "seed": True}),
    (["sigma"], {**_GENERATED_SIGMA, "scale": 0}), (["sigma"], {**_GENERATED_SIGMA, "scale": 1e-300}),
    (["sigma"], {**_GENERATED_SIGMA, "scale": -math.inf}),
    (["sigma"], {**_GENERATED_SIGMA, "scale": math.nan}),
    (["checks"], []), (["checks"], {}), (["checks", 1, "u"], True), (["checks", 1, "u"], "all"),
    (["checks", 3, "plane"], [1, 2, 3]), (["checks", 3, "plane"], [1, True]),
    (["checks", 3, "plane"], "all"), (["checks", 1, "slant_mode"], 1),
    (["checks", 1, "variant"], "x"), (["checks", 0, "expect"], {"tau": None}),
    (["checks", 0, "expect"], {"tau": [1]}), (["checks", 0, "expect"], {"tau": True}),
    (["checks", 0, "expect"], []), (["checks", 0, "name"], _DROP), (["checks", 0, "name"], 3),
])
def test_validator_matches_the_oracle_at_each_boundary(path, value):
    assert_matches_the_oracle(_with(path, value))


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


def test_fuzz_does_not_load_jsonschema(tmp_path):
    code = ("import sys; from gssf import cli; "
            "codes = [cli.main(['fuzz', '--count', '2']), cli.main(['report', sys.argv[1]])]; "
            "sys.exit(codes != [0, 0] or 'jsonschema' in sys.modules)")
    path = write_scenario(tmp_path, SPOT_SCENARIO)
    proc = subprocess.run([sys.executable, "-c", code, path], capture_output=True, text=True)
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
_MIXED_SCENARIO = {
    "ambient": {"m": 3},
    "structure": {"values": [1.5, -0.7, 0.3, 0.2, 0.1, -0.4, 0.5]},
    "frame": {"mode": "explicit", "vectors": [
        [0, 0, 0, 0, 0, 0, 1, 0.5], [0.6, 0.8, 0, 0, 0, 0, 0.3, -0.1],
        [0.3, 0.4, 0.0, 0.0, 0.0, 0.0, 0.15, 0.95], [0.1, 0.2, 0.7, 0.1, 0, 0, 0, 0.4],
        [0, 0.3, -0.2, 0.9, 0.1, 0.05, 0, 0]]},
    "sigma": {"constraint": "none", "seed": 3},
    "checks": [{"name": "invariant_report"}, {"name": "scalar_identity"},
               {"name": "ricci_bound"}, {"name": "delta_bound"}, {"name": "global_delta"}],
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
    assert_matches_the_oracle(scenario)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario=mutated_scenarios())
def test_validator_matches_the_oracle_on_mutated_scenarios(scenario):
    assert_matches_the_oracle(scenario)
