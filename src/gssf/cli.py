"""Command-line harness: scenario reports, seeded fuzzing, construction.

Exit codes follow a CI-friendly contract: 0 when every check passes,
1 when some verified inequality or expectation fails, 2 on input
errors.  The equality tolerance is ``DEFAULT``'s unless ``--tol`` sets
it; nothing in the environment changes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .ambient import MAX_M, canonical_model, preset_structure_functions
from .config import DEFAULT, Tolerances
from .errors import BadConfig, GssfError, UsageError
from .generators import _CONSTRAINTS, GeneratorConfig, random_instances
from .inequalities import ShapeOperatorForm, equality_instance, equality_pattern, frame_sweep
from .jsonutil import dumps
from .scenario import assemble, build_report, load_scenario, run_checks
from .submanifold import scalar_identity_check


def _resolve_tol(args) -> Tolerances:
    """``DEFAULT`` with the equality tolerance of ``--tol``, if given;
    anything but a finite number >= 0 is a ``BadConfig``."""
    if args.tol is None:
        return DEFAULT
    tol = _finite(args.tol, "--tol")
    if tol < 0.0:
        raise BadConfig(f"--tol must be a finite number >= 0, got {args.tol!r}")
    return dataclasses.replace(DEFAULT, equality=tol)


def _finite(text: str, source: str) -> float:
    """``text`` as a finite float, else a ``BadConfig`` naming ``source``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise BadConfig(f"{source} must be a finite number, got {text.strip()!r}")
    return value


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _input_error(name: str, message: str) -> int:
    line = json.dumps({"error": name, "detail": " ".join(str(message).split())})
    print(line, file=sys.stderr)
    return 2


def _cmd_report(args) -> int:
    tol = _resolve_tol(args)
    data = load_scenario(args.scenario)
    point, checks, echo = assemble(data)
    records, summary = run_checks(point, checks, tol)
    _emit(dumps(build_report(echo, records, summary, tol.equality)), args.out)
    return 0 if summary["fail_count"] == 0 else 1


def _cmd_fuzz(args) -> int:
    if args.count < 1:
        raise BadConfig("--count must be at least 1")
    try:
        lo, hi = (int(part) for part in args.n_range.split(".."))
    except ValueError:
        raise BadConfig("--n-range must look like 'a..b'") from None
    if not 1 <= lo <= hi:
        raise BadConfig("--n-range must satisfy 1 <= a <= b")
    if hi + 1 > MAX_M:  # trials alternate m = n and m = n + 1
        raise BadConfig(f"--n-range must end at most at {MAX_M - 1} (m <= {MAX_M})")
    tol = _resolve_tol(args)

    worst_slack = None
    worst_slack_info = None
    worst_ident = 0.0
    worst_ident_seed = None
    violations = []
    checks_run = 0

    width = hi - lo + 1
    configs = (GeneratorConfig(seed=args.seed + trial, n=lo + trial % width,
                               m=lo + trial % width + trial % 2, constraint=args.constraint)
               for trial in range(args.count))
    for seed, point in enumerate(random_instances(configs), start=args.seed):
        identity = scalar_identity_check(point)
        rel = identity.abs_diff / max(1.0, abs(identity.lhs), abs(identity.rhs))
        if rel > worst_ident:
            worst_ident = rel
            worst_ident_seed = seed
        if not identity.holds(tol):
            violations.append({"seed": seed, "check": "scalar_identity", "slack": -rel})

        # Ricci at every L-frame direction, then every frame plane pair;
        # argmin keeps the first of equal slacks, so ties go to the
        # check reported first.
        sweep = frame_sweep(point, tol)
        slacks = sweep.slacks
        checks_run += 1 + slacks.size
        k = int(np.argmin(slacks))
        if worst_slack is None or slacks[k] < worst_slack:
            worst_slack = float(slacks[k])
            worst_slack_info = {"seed": seed, "check": sweep.label(k)}
        for k in np.flatnonzero(~sweep.passed):
            violations.append({"seed": seed, "check": sweep.label(k),
                               "slack": float(slacks[k])})

    report = {
        "tool": "gssf",
        "command": "fuzz",
        "seed": args.seed,
        "count": args.count,
        "n_range": [lo, hi],
        "constraint": args.constraint,
        "tolerance": tol.equality,
        "summary": {
            "trials": args.count,
            "checks_run": checks_run,
            "violation_count": len(violations),
            "worst_slack": worst_slack,
            "worst_slack_at": worst_slack_info,
            "worst_identity_rel_diff": worst_ident,
            "worst_identity_seed": worst_ident_seed,
        },
        "violations": violations,
    }
    _emit(dumps(report), args.out)
    return 0 if not violations else 1


def _parse_form(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise BadConfig("--form must be 'a,b,c'")
    a, b, c = (_finite(p, "--form entry") for p in parts)
    return a, b, c


def _parse_pairs(text: str) -> list[tuple[float, float]]:
    if not text.strip():
        return []
    pairs = []
    for chunk in text.split(";"):
        parts = [p for p in chunk.split(",") if p.strip()]
        if len(parts) != 2:
            raise BadConfig("--pairs must look like 'a1,b1;a2,b2'")
        pairs.append(tuple(_finite(p, "--pairs entry") for p in parts))
    return pairs


def _cmd_construct(args) -> int:
    a, b, c = _parse_form(args.form)
    form = ShapeOperatorForm(a, b, c, tuple(_parse_pairs(args.pairs)))
    n, m = args.n, args.m
    structure = {"preset": "s_space_form", "c": 2.0}
    # building the point runs every check on n, m, the normal rank and
    # the coefficients (finite: c - a can overflow)
    equality_instance(canonical_model(m),
                      preset_structure_functions(structure["preset"], structure["c"]),
                      n, form)
    coeffs = [[r + 1, i + 1, j + 1, value]
              for r, i, j, value in equality_pattern(n, form)]
    scenario = {
        "ambient": {"m": m},
        "structure": structure,
        "frame": {"mode": "anti_invariant", "n": n},
        "sigma": {"coeffs": coeffs},
        "checks": [
            {"name": "delta_bound", "plane": [1, 2], "expect": {"equality": True}},
            {"name": "scalar_identity"},
        ],
    }
    _emit(dumps(scenario), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``UsageError``, so that
    they exit 2 with the one-line JSON error of every other input error;
    ``--help`` still prints the help text and exits 0."""

    def error(self, message):
        raise UsageError(message)


@functools.cache  # main() runs many times in one process under tests and embedding
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gssf",
        description="Verify curvature bounds for submanifold points "
                    "described by JSON scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="run the checks of a scenario file")
    rep.add_argument("scenario")
    rep.add_argument("--out", default=None, help="report path (default: stdout)")
    rep.add_argument("--tol", default=None)
    rep.set_defaults(func=_cmd_report)

    fuzz = sub.add_parser("fuzz", help="random instances against the bound oracles")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=int, required=True)
    fuzz.add_argument("--n-range", default="1..5")
    fuzz.add_argument("--constraint", choices=_CONSTRAINTS, default="none")
    fuzz.add_argument("--out", default=None)
    fuzz.add_argument("--tol", default=None)
    fuzz.set_defaults(func=_cmd_fuzz)

    con = sub.add_parser("construct", help="emit an equality-case scenario")
    con.add_argument("--form", required=True, help="'a,b,c'")
    con.add_argument("--pairs", default="", help="'a1,b1;a2,b2' for further normals")
    con.add_argument("--n", type=int, required=True)
    con.add_argument("--m", type=int, required=True)
    con.add_argument("--out", default=None)
    con.set_defaults(func=_cmd_construct)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except GssfError as exc:
        return _input_error(type(exc).__name__, str(exc))
    except json.JSONDecodeError as exc:
        return _input_error("InvalidJson", str(exc))
    except OSError as exc:
        return _input_error("IoError", str(exc))


if __name__ == "__main__":
    sys.exit(main())
