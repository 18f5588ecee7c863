"""Scenario files in, structured verification reports out.

A scenario is a JSON document describing one submanifold point (ambient
size, structure functions, tangent frame, form coefficients) plus a
list of checks to run on it.  Unknown fields are rejected, and so is a
key on a check that does not read it.  Indices in scenario files are
1-based, matching the frame conventions of the underlying geometry; the
Python API is 0-based.
"""

from __future__ import annotations

import copy
import functools
import json
import math

import numpy as np

from .ambient import MAX_M, StructureFunctions, canonical_model, preset_structure_functions
from .config import Tolerances
from .errors import BadConfig, NonFinite, SchemaViolation
from .generators import anti_invariant_frame, random_sff, slant_frame
from .inequalities import delta_bound, global_delta_bounds, ricci_bound, ricci_equality_diagnosis
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


_NUMBER = {"type": "number"}
_EXPECT = {
    "type": "object",
    "additionalProperties": {"type": ["number", "boolean", "string"]},
}
_U = {"anyOf": [{"type": "integer", "minimum": 1}, {"const": "all"}]}
_PLANE = {"anyOf": [{"type": "array", "items": {"type": "integer", "minimum": 1},
                      "minItems": 2, "maxItems": 2}, {"const": "all"}]}

# Every scenario check, in the order of the schema's enum: the schema of
# the keys it reads besides "name" and "expect", and its runner
# (point, check, tol) -> records.  A key outside its entry is rejected.
CHECKS = {
    "scalar_identity": ({}, _scalar_identity),
    "invariant_report": ({}, _invariant_report),
    "ricci_bound": ({"variant": {"enum": ["general", "s_form", "c_form"]}, "u": _U},
                    _ricci_bound),
    "ricci_equality": ({"u": _U}, _ricci_equality),
    "delta_bound": ({"plane": _PLANE, "slant_mode": {"type": "boolean"}}, _delta_bound),
    "global_delta": ({}, _global_delta),
    "classify": ({}, _classify),
}
_CHECK = {
    "type": "object",
    "properties": {
        "name": {"enum": list(CHECKS)},
        **{key: fragment for keys, _ in CHECKS.values() for key, fragment in keys.items()},
        "expect": _EXPECT,
    },
    "required": ["name"],
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "ambient": {
            "type": "object",
            "properties": {"m": {"type": "integer", "minimum": 1, "maximum": MAX_M}},
            "required": ["m"],
            "additionalProperties": False,
        },
        "structure": {
            "type": "object",
            "properties": {
                "preset": {"enum": ["s_space_form", "c_space_form", "real_space_form"]},
                "c": _NUMBER,
                "values": {"type": "array", "items": _NUMBER,
                           "minItems": 7, "maxItems": 7},
            },
            "additionalProperties": False,
        },
        "frame": {
            "type": "object",
            "properties": {
                "mode": {"enum": ["slant", "invariant", "anti_invariant", "explicit"]},
                "n": {"type": "integer", "minimum": 1},
                "theta": _NUMBER,
                "vectors": {"type": "array",
                            "items": {"type": "array", "items": _NUMBER}},
            },
            "required": ["mode"],
            "additionalProperties": False,
        },
        "sigma": {
            "type": "object",
            "properties": {
                "coeffs": {
                    "type": "array",
                    "items": {"type": "array",
                              "prefixItems": [
                                  {"type": "integer", "minimum": 1},
                                  {"type": "integer", "minimum": 1},
                                  {"type": "integer", "minimum": 1},
                                  _NUMBER,
                              ],
                              "minItems": 4, "maxItems": 4},
                },
                "c_compatible": {"type": "boolean"},
                "constraint": {
                    "enum": ["none", "minimal", "c_compatible",
                             "minimal_and_c_compatible"]
                },
                "seed": {"type": "integer", "minimum": 0},
                "scale": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "checks": {"type": "array", "items": _CHECK},
    },
    "required": ["ambient", "structure", "frame", "sigma", "checks"],
    "additionalProperties": False,
}


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


def _bulk_items_valid(data) -> bool:
    # One plain pass over the two bulk arrays, in place of jsonschema's
    # descent into every entry.  False when any frame vector row or
    # coefficient quadruple breaks its item schema.  A missing or
    # mistyped container is left for the schema to report, with the
    # schema's own isinstance tests, so that no array it descends into
    # goes unchecked here.  Entries need exact types: bool, numpy
    # scalars and the like go to the full schema.
    frame = data.get("frame") if isinstance(data, dict) else None
    sigma = data.get("sigma") if isinstance(data, dict) else None
    vectors = frame.get("vectors") if isinstance(frame, dict) else None
    coeffs = sigma.get("coeffs") if isinstance(sigma, dict) else None
    if isinstance(vectors, list):
        for row in vectors:
            if type(row) is not list:
                return False
            for x in row:
                if type(x) not in (int, float):
                    return False
    if isinstance(coeffs, list):
        for quad in coeffs:
            if type(quad) is not list or len(quad) != 4:
                return False
            r, i, j, value = quad
            if (type(r) is not int or type(i) is not int or type(j) is not int
                    or r < 1 or i < 1 or j < 1
                    or type(value) not in (int, float)):
                return False
    return True


@functools.cache
def _schema_validator(full: bool):
    # jsonschema loads here, not at import, so that commands which never
    # read a scenario (fuzz, the library) do not pay for it.  The schema
    # is a constant that a test checks against the meta-schema once.
    # "integer" is narrowed to integer literals: the draft also admits
    # 2.0 or 1e308, which are no index, size or seed.  The light
    # validator (not ``full``) checks ``vectors`` and ``coeffs`` only to
    # be arrays, and none of their entries.  It runs on documents that
    # ``_bulk_items_valid`` passed, where the item schemas it drops add
    # no error, so both validators give the same error list.
    from jsonschema import Draft202012Validator, validators

    integers = Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    strict = validators.extend(Draft202012Validator, type_checker=integers)
    if full:
        return strict(SCENARIO_SCHEMA)
    light = copy.deepcopy(SCENARIO_SCHEMA)
    light["properties"]["frame"]["properties"]["vectors"] = {"type": "array"}
    light["properties"]["sigma"]["properties"]["coeffs"] = {"type": "array"}
    return strict(light)


def validate_scenario(data: dict):
    """Check a parsed scenario against the schema and the rules the schema
    cannot express, such as a check carrying only the keys its ``CHECKS``
    entry reads; raises ``SchemaViolation`` or ``BadConfig``."""
    from jsonschema.exceptions import best_match

    validator = _schema_validator(full=not _bulk_items_valid(data))
    error = best_match(validator.iter_errors(data))
    if error is not None:
        raise SchemaViolation(error.message) from error
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
    mode = frame_cfg["mode"]
    if mode == "explicit":
        raw = frame_cfg["vectors"]
        n = len(raw) - 2
    else:
        n = frame_cfg["n"]
        if mode == "invariant":
            raw = slant_frame(ambient, n, 0.0)
        elif mode == "anti_invariant":
            raw = anti_invariant_frame(ambient, n)
        else:
            raw = slant_frame(ambient, n, frame_cfg["theta"])

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
        c_compatible = c_compatible or "c_compatible" in constraint

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
