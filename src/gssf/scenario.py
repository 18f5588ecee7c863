"""Scenario files in, structured verification reports out.

A scenario is a JSON document describing one submanifold point (ambient
size, structure functions, tangent frame, form coefficients) plus a
list of checks to run on it.  Unknown fields are rejected, and so is a
key on a check that does not read it.  Indices in scenario files are
1-based, matching the frame conventions of the underlying geometry; the
Python API is 0-based.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .ambient import _PRESETS, MAX_M, StructureFunctions, canonical_model, preset_structure_functions
from .config import Tolerances
from .errors import BadConfig, NonFinite, SchemaViolation
from .generators import _CONSTRAINTS, anti_invariant_frame, random_sff, slant_frame
from .inequalities import (_RICCI_VARIANTS, delta_bound, global_delta_bounds, ricci_bound,
                           ricci_equality_diagnosis)
from .submanifold import (
    PointFlags,
    SecondFundamentalForm,
    SubmanifoldPoint,
    attach_point,
    classify_sff,
    invariant_report,
    scalar_identity_check,
)


def _record(name: str, lhs=None, rhs=None, slack=None, equality=None,
            passed=True, diagnostics=None) -> dict:
    return {"name": name, "lhs": lhs, "rhs": rhs, "slack": slack, "equality": equality,
            "passed": passed, "diagnostics": diagnostics or {}}


def _bound_record(name: str, report, diagnostics: dict) -> dict:
    diag = dict(diagnostics)
    if report.defect_terms is not None:
        diag["defect_terms"] = [[k, v] for k, v in report.defect_terms]
    return _record(name, lhs=report.lhs, rhs=report.rhs, slack=report.slack,
                   equality=report.equality, passed=report.passed, diagnostics=diag)


def _directions(check: dict, n: int) -> list[int]:
    """The 1-based L-frame directions a Ricci check's ``u`` selects."""
    selector = check.get("u", "all")
    if selector == "all":
        return list(range(1, n + 1))
    if not 1 <= selector <= n:
        raise BadConfig(f"u index {selector} outside 1..{n}")
    return [selector]


def _planes(check: dict, n: int) -> list[tuple[int, int]]:
    """The 1-based L-frame pairs a plane check's ``plane`` selects."""
    selector = check.get("plane", "all")
    if selector == "all":
        return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    i, j = selector
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise BadConfig(f"plane ({i}, {j}) outside the L-frame 1..{n}")
    return [(i, j)]


def _scalar_identity(point: SubmanifoldPoint, check: dict, tol: Tolerances) -> list[dict]:
    result = scalar_identity_check(point)
    within = result.holds(tol)
    return [_record("scalar_identity", lhs=result.lhs, rhs=result.rhs,
                    slack=result.rhs - result.lhs, equality=within, passed=within,
                    diagnostics={"tau": point.tau, "abs_diff": result.abs_diff})]


def _invariant_report(point: SubmanifoldPoint, check: dict, tol: Tolerances) -> list[dict]:
    rep = invariant_report(point, tol)
    diag = {key: getattr(rep, key) for key in
            ("tau", "h_norm_sq", "sigma_norm_sq", "t_norm_sq", "n_norm_sq", "h_normal")}
    diag.update(slant_kind=rep.slant.kind, slant_angle=rep.slant.angle)
    return [_record("invariant_report", diagnostics=diag)]


def _ricci_bound(point: SubmanifoldPoint, check: dict, tol: Tolerances) -> list[dict]:
    variant = check.get("variant", "general")
    frame = point.tangent.matrix
    return [_bound_record(f"ricci_bound[{variant},u={u}]",
                          ricci_bound(point, frame[u - 1], variant, tol),
                          {"variant": variant, "u": u})
            for u in _directions(check, point.n)]


def _ricci_equality(point: SubmanifoldPoint, check: dict, tol: Tolerances) -> list[dict]:
    records = []
    for u in _directions(check, point.n):
        diag = ricci_equality_diagnosis(point, point.tangent.matrix[u - 1], tol)
        records.append(_record(
            f"ricci_equality[u={u}]", passed=diag.consistent, equality=diag.equality,
            diagnostics={"u": u, "in_null_space": diag.in_null_space,
                         "consistent": diag.consistent},
        ))
    return records


def _delta_bound(point: SubmanifoldPoint, check: dict, tol: Tolerances) -> list[dict]:
    slant_mode = bool(check.get("slant_mode", False))
    frame = point.tangent.matrix
    return [_bound_record(f"delta_bound[{i},{j}]",
                          delta_bound(point, frame[i - 1], frame[j - 1], slant_mode, tol),
                          {"plane": [i, j], "slant_mode": slant_mode})
            for i, j in _planes(check, point.n)]


def _global_delta(point: SubmanifoldPoint, check: dict, tol: Tolerances) -> list[dict]:
    report = global_delta_bounds(point, tol=tol)
    diag = {"inf_k": report.inf_k, "inf_k_lower": report.inf_k_lower,
            "certificate": report.certificate, **report.equality_diagnosis}
    records = [_bound_record(f"global_delta[{report.branch}]", report.bound, diag)]
    if report.four_dim_slant is not None:
        records.append(_bound_record("global_delta[four_dim_slant]",
                                     report.four_dim_slant, {}))
    return records


def _classify(point: SubmanifoldPoint, check: dict, tol: Tolerances) -> list[dict]:
    return [_record("classify", diagnostics=classify_sff(point, tol).as_dict())]


# Every frame mode: its raw vectors from (ambient model, frame section)
_FRAMES = {
    "slant": lambda ambient, frame: slant_frame(ambient, frame["n"], frame["theta"]),
    "invariant": lambda ambient, frame: slant_frame(ambient, frame["n"], 0.0),
    "anti_invariant": lambda ambient, frame: anti_invariant_frame(ambient, frame["n"]),
    "explicit": lambda ambient, frame: frame["vectors"],
}


# Value tests: each takes (value, path) and raises SchemaViolation naming
# the dotted path of a value of the wrong type or range.  A number is an
# int or a float and an integer an int, never a bool, as JSON parses them.


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_index(value, lowest=1) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= lowest


def _value(ok, expected: str):
    def test(value, path):
        if not ok(value):
            raise SchemaViolation(f"{path} must be {expected}")
    return test


def _one_of(words):
    return _value(lambda v: isinstance(v, str) and v in words, "one of " + ", ".join(words))


def _fields(tests: dict, required=()):
    """The test of an object whose keys all have a test in ``tests``,
    ``required`` among them."""
    def test(value, path):
        if not isinstance(value, dict):
            raise SchemaViolation(f"{path or 'a scenario'} must be an object")
        prefix = f"{path}." if path else ""
        for key in required:
            if key not in value:
                raise SchemaViolation(f"{prefix}{key} is missing")
        for key, item in value.items():
            if key not in tests:
                raise SchemaViolation(f"{prefix}{key} is not a known field")
            tests[key](item, f"{prefix}{key}")
    return test


_NUMBER = _value(_is_number, "a number")
_BOOLEAN = _value(lambda v: isinstance(v, bool), "true or false")
_U = _value(lambda v: _is_index(v) or v == "all", 'an integer >= 1 or "all"')
_PLANE = _value(lambda v: v == "all" or (isinstance(v, list) and len(v) == 2
                                         and all(map(_is_index, v))),
                'a pair of integers >= 1 or "all"')

# Every scenario check: the value tests of the keys it reads besides
# "name" and "expect", and its runner (point, check, tol) -> records.
# A key outside its entry is rejected.
CHECKS = {
    "scalar_identity": ({}, _scalar_identity),
    "invariant_report": ({}, _invariant_report),
    "ricci_bound": ({"variant": _one_of(_RICCI_VARIANTS), "u": _U},
                    _ricci_bound),
    "ricci_equality": ({"u": _U}, _ricci_equality),
    "delta_bound": ({"plane": _PLANE, "slant_mode": _BOOLEAN}, _delta_bound),
    "global_delta": ({}, _global_delta),
    "classify": ({}, _classify),
}
_CHECK = _fields({
    "name": _one_of(tuple(CHECKS)),
    **{key: test for reads, _ in CHECKS.values() for key, test in reads.items()},
    "expect": _value(lambda v: isinstance(v, dict) and all(
        isinstance(wanted, (int, float, str)) for wanted in v.values()),
        "an object of numbers, booleans and strings"),
}, required=("name",))


def _checks(value, path):
    if not isinstance(value, list):
        raise SchemaViolation(f"{path} must be an array")
    for k, check in enumerate(value):
        _CHECK(check, f"{path}[{k}]")


_SCENARIO = _fields({
    "ambient": _fields({"m": _value(lambda v: _is_index(v) and v <= MAX_M,
                                    f"an integer in 1..{MAX_M}")}, required=("m",)),
    "structure": _fields({
        "preset": _one_of(_PRESETS),
        "c": _NUMBER,
        "values": _value(lambda v: isinstance(v, list) and len(v) == 7
                         and all(map(_is_number, v)), "an array of seven numbers"),
    }),
    "frame": _fields({
        "mode": _one_of(_FRAMES),
        "n": _value(_is_index, "an integer >= 1"),
        "theta": _NUMBER,
        "vectors": _value(lambda v: isinstance(v, list) and all(
            isinstance(row, list) and all(map(_is_number, row)) for row in v),
            "an array of arrays of numbers"),
    }, required=("mode",)),
    "sigma": _fields({
        "coeffs": _value(lambda v: isinstance(v, list) and all(
            isinstance(q, list) and len(q) == 4 and all(map(_is_index, q[:3]))
            and _is_number(q[3]) for q in v), "an array of [r, i, j, value] with indices >= 1"),
        "c_compatible": _BOOLEAN,
        "constraint": _one_of(_CONSTRAINTS),
        "seed": _value(lambda v: _is_index(v, 0), "an integer >= 0"),
        # NaN passes, as under JSON Schema's exclusiveMinimum (loading rejects it)
        "scale": _value(lambda v: _is_number(v) and not v <= 0, "a number > 0"),
    }),
    "checks": _checks,
}, required=("ambient", "structure", "frame", "sigma", "checks"))


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise NonFinite(f"scenario number {text} is not finite")
    return value


def _float_sized_int(text: str) -> int:
    # Where the schema takes a number, an integer literal stands for a
    # float: one beyond the float range is the integer twin of 1e400.
    if not math.isfinite(float(text)):
        raise NonFinite(
            f"scenario integer of {len(text.lstrip('-'))} digits does not fit a float"
        )
    return int(text)


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle, parse_float=_finite_number,
                         parse_int=_float_sized_int,
                         parse_constant=_finite_number)
    validate_scenario(data)
    return data


def validate_scenario(data: dict):
    """Check a parsed scenario: one pass of value tests raises ``SchemaViolation``
    at a field of a wrong type or range, an unknown field or a missing one;
    then the rules between fields raise ``BadConfig``."""
    _SCENARIO(data, "")
    structure = data["structure"]
    if ("preset" in structure) == ("values" in structure):
        raise BadConfig("structure needs exactly one of 'preset' or 'values'")
    if "preset" in structure and "c" not in structure:
        raise BadConfig("a structure preset needs its curvature constant 'c'")
    frame = data["frame"]
    if frame["mode"] == "explicit":
        if "vectors" not in frame:
            raise BadConfig("explicit frames need 'vectors'")
    else:
        if "n" not in frame:
            raise BadConfig(f"frame mode {frame['mode']!r} needs 'n'")
    if frame["mode"] == "slant" and "theta" not in frame:
        raise BadConfig("slant frames need 'theta'")
    sigma = data["sigma"]
    if ("coeffs" in sigma) == ("constraint" in sigma):
        raise BadConfig("sigma needs exactly one of 'coeffs' or 'constraint'")
    if "constraint" in sigma and "seed" not in sigma:
        raise BadConfig("generated sigma needs a 'seed'")
    for check in data["checks"]:
        reads = CHECKS[check["name"]][0]
        for key in check:
            if key not in reads and key not in ("name", "expect"):
                raise BadConfig(f"check {check['name']!r} does not read {key!r}")


def assemble(data: dict) -> tuple[SubmanifoldPoint, list[dict], dict]:
    """Build the point a scenario describes; returns (point, checks, echo)."""
    ambient = canonical_model(data["ambient"]["m"])

    structure = data["structure"]
    if "preset" in structure:
        given = preset_structure_functions(structure["preset"], structure["c"])
    else:
        given = StructureFunctions(*structure["values"])
    # echoed as given but computed in floats, so that arithmetic on an
    # integer near the float limit ends in NonFinite, not OverflowError
    functions = StructureFunctions(*map(float, given.as_tuple()))

    frame_cfg = data["frame"]
    raw = _FRAMES[frame_cfg["mode"]](ambient, frame_cfg)
    n = len(raw) - 2
    rank = ambient.dim - (n + 2)
    if rank < 0:
        raise BadConfig("the frame does not fit inside the ambient model")

    sigma_cfg = data["sigma"]
    c_compatible = bool(sigma_cfg.get("c_compatible", False))
    if "coeffs" in sigma_cfg:
        coeffs = np.zeros((rank, n + 2, n + 2))
        for r, i, j, value in sigma_cfg["coeffs"]:
            if not (1 <= r <= rank and 1 <= i <= n + 2 and 1 <= j <= n + 2):
                raise BadConfig(
                    f"sigma index ({r}, {i}, {j}) out of range for "
                    f"{rank} normals and {n + 2} tangent directions"
                )
            coeffs[r - 1, i - 1, j - 1] = value
            coeffs[r - 1, j - 1, i - 1] = value
        sff = SecondFundamentalForm(coeffs)
    else:
        rng = np.random.default_rng(sigma_cfg["seed"])
        constraint = sigma_cfg["constraint"]
        sff = random_sff(rng, rank, n + 2, sigma_cfg.get("scale", 1.0), constraint, n)
        c_compatible = c_compatible or _CONSTRAINTS[constraint][1]

    point = attach_point(ambient, functions, raw, sff,
                         PointFlags(c_compatible=c_compatible))
    echo = {
        "m": ambient.m,
        "n": point.n,
        "structure_functions": given.as_dict(),
        "frame": point.tangent.matrix,
        "flags": {"c_compatible": point.flags.c_compatible},
    }
    return point, list(data["checks"]), echo


def _apply_expect(record: dict, expect: dict | None, tol_eq: float):
    if not expect:
        return
    failures = []
    for key, wanted in expect.items():
        value = record.get(key, record["diagnostics"].get(key))
        if isinstance(wanted, (int, float)) and not isinstance(wanted, bool):
            ok = (
                isinstance(value, (int, float))
                and abs(float(value) - float(wanted)) <= max(tol_eq, tol_eq * abs(wanted))
            )
        else:
            ok = value == wanted
        if not ok:
            failures.append(key)
    if failures:
        record["passed"] = False
        record["diagnostics"]["expect_failures"] = failures


def run_checks(point: SubmanifoldPoint, checks: list[dict],
               tol: Tolerances) -> tuple[list[dict], dict]:
    records: list[dict] = []
    for check in checks:
        entry = CHECKS.get(check["name"])
        if entry is None:  # a library caller's; the schema admits none
            raise BadConfig(f"unknown check {check['name']!r}")
        produced = entry[1](point, check, tol)
        for rec in produced:
            _apply_expect(rec, check.get("expect"), tol.equality)
        records.extend(produced)
    slacks = [r["slack"] for r in records if r["slack"] is not None]
    summary = {
        "pass_count": sum(1 for r in records if r["passed"]),
        "fail_count": sum(1 for r in records if not r["passed"]),
        "worst_slack": min(slacks) if slacks else None,
    }
    return records, summary


def build_report(echo: dict, records: list[dict], summary: dict,
                 tol_eq: float) -> dict:
    return {
        "tool": "gssf",
        "command": "report",
        "tolerance": tol_eq,
        "resolved": echo,
        "checks": records,
        "summary": summary,
    }
