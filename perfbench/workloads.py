"""The three benchmark workloads: inputs made from the seed, the timed
call, the bytes that go into the output digest, and the output oracles.

Every workload is a list of inputs built during set-up.  One timed
operation is one call on one input: a ``gssf fuzz`` or ``gssf report``
call through ``gssf.cli.main`` in process, or one library call to
``global_delta_bounds``.  The oracles run after the timed region and use
a different path to the same quantity where one exists: the brute-force
Gauss sum of ``induced_curvature`` over frame pairs for tau, the exact
check count of the fuzz trial schedule, slacks recomputed from defect
terms or from Gauss sums, and K recomputed from the full curvature
tensor at the reported argmin plane.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gssf
import gssf.cli
from gssf import inequalities, jsonutil

CONSTRAINTS = ("none", "minimal", "c_compatible", "minimal_and_c_compatible")
TAU_TOL = 1e-9  # relative: program tau against the brute-force Gauss sum
DEFECT_TOL = 1e-8  # a slack against its recomputation: absolute, relative above 1
PLANE_TOL = 1e-9  # inf K against frame-pair K and against K at the argmin plane
SEED_STRIDE = 10_000  # instance seeds of benchmark seed s start at s * SEED_STRIDE


def brute_force_tau(point) -> float:
    """Scalar curvature as the Gauss sum of K over tangent-frame pairs,
    each K taken from the full curvature tensor."""
    e = point.tangent.matrix
    return float(sum(gssf.induced_curvature(point, e[i], e[j], e[j], e[i])
                     for i in range(len(e)) for j in range(i + 1, len(e))))


def tau_problems(point, tau: float) -> list[str]:
    expected = brute_force_tau(point)
    if abs(tau - expected) <= TAU_TOL * max(1.0, abs(expected)):
        return []
    return [f"tau {tau!r} differs from the Gauss sum {expected!r}"]


def plane_problems(point, inf_k: float, a, b) -> list[str]:
    """inf K must not exceed any L-frame pair's K, and must be K at the
    reported argmin plane."""
    e = point.tangent.matrix
    n = point.n
    pair_k = min(gssf.induced_curvature(point, e[i], e[j], e[j], e[i])
                 for i in range(n) for j in range(i + 1, n))
    problems = []
    if inf_k > pair_k + PLANE_TOL:
        problems.append(f"inf_k {inf_k!r} above the frame-pair K {pair_k!r}")
    gram = (a @ a) * (b @ b) - (a @ b) ** 2
    k_at = gssf.induced_curvature(point, a, b, b, a) / gram
    if abs(k_at - inf_k) > PLANE_TOL * max(1.0, abs(inf_k)):
        problems.append(f"inf_k {inf_k!r} is not K at the argmin plane ({k_at!r})")
    return problems


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gssf.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_problems(result: CliResult) -> list[str]:
    problems = []
    if result.code != 0:
        problems.append(f"exit code {result.code}")
    if result.stderr:
        problems.append(f"stderr: {result.stderr.strip()[:200]}")
    return problems


class Workload:
    name: str
    unit: str  # what one instance is
    inputs: list

    def fresh(self, item):
        """The argument of one timed call, made before the pass starts."""
        return item

    def instances(self, item) -> int:
        return 1

    def call(self, arg):
        raise NotImplementedError

    def emitted(self, item, output) -> str:
        return output.stdout

    def check(self, item, output) -> list[str]:
        raise NotImplementedError

    def probe(self) -> dict:
        """What a cold-start probe runs as its one warm-up operation."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"operations": len(self.inputs), "instance": self.unit}


N_RANGE = (1, 6)  # --n-range of every fuzz call
FUZZ_TRIALS = 600  # trials per fuzz call, one call per constraint
PROBE_TRIALS = 12  # a cold-start probe's fuzz call: each n in 1..6, both parities of m
FUZZ_SAMPLES = 3  # trials per fuzz call that go through the per-trial oracles


@dataclass(frozen=True)
class FuzzCall:
    constraint: str
    seed: int  # seed of the call's first trial
    count: int
    samples: tuple[int, ...]  # trials that go through the per-trial oracles

    def argv(self, count: int | None = None) -> list[str]:
        lo, hi = N_RANGE
        return ["fuzz", "--seed", str(self.seed), "--count", str(count or self.count),
                "--n-range", f"{lo}..{hi}", "--constraint", self.constraint]

    def trial_config(self, t: int) -> gssf.GeneratorConfig:
        """Trial t of the call, following the fuzz command's schedule."""
        lo, hi = N_RANGE
        n = lo + t % (hi - lo + 1)
        return gssf.GeneratorConfig(seed=self.seed + t, n=n, m=n + t % 2,
                                    constraint=self.constraint)


def fuzz_check_labels(n: int) -> list[str]:
    """The bound checks one fuzz trial runs, by the labels it reports."""
    return ([f"ricci_bound[general,u={i + 1}]" for i in range(n)]
            + [f"delta_bound[{i + 1},{j + 1}]" for i in range(n) for j in range(i + 1, n)])


def independent_slack(point, label: str) -> float:
    """The slack of one fuzz check, recomputed off the library's rhs - lhs
    path: a general Ricci bound's slack as the sum of its defect terms, a
    delta bound's with tau and K(pi) taken as Gauss sums of the full
    curvature tensor."""
    name, _, args = label.rstrip("]").partition("[")
    e = point.tangent.matrix
    if name == "ricci_bound":
        i = int(args.split("u=")[1]) - 1
        return inequalities.ricci_bound(point, e[i], "general").defect_sum()
    i, j = (int(k) - 1 for k in args.split(","))
    n, f = point.n, point.functions
    lhs = brute_force_tau(point) - gssf.induced_curvature(point, e[i], e[j], e[j], e[i])
    w = float(e[i] @ point.ambient.f_matrix @ e[j])
    rhs = (n * (n + 2) ** 2 / (2.0 * (n + 1)) * point.h_norm_sq
           + n * (n + 3) / 2.0 * f.f1 + f.f3 - (n + 1) * (f.f11 + f.f22)
           + 3.0 * f.f2 * (point.t_norm_sq / 2.0 - w * w))
    return rhs - lhs


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= DEFECT_TOL * max(1.0, abs(expected))


class Fuzz(Workload):
    """Four ``gssf fuzz`` calls, one per constraint, of 600 trials each."""

    name = "fuzz"
    unit = "trial"

    def __init__(self, seed: int, workdir: Path, count: int = FUZZ_TRIALS):
        rng = np.random.default_rng(seed)
        self.inputs = [
            FuzzCall(constraint, seed * SEED_STRIDE + index * count, count,
                     tuple(sorted(int(t) for t in rng.choice(count, FUZZ_SAMPLES,
                                                             replace=False))))
            for index, constraint in enumerate(CONSTRAINTS)
        ]

    def instances(self, item: FuzzCall) -> int:
        return item.count

    def call(self, item: FuzzCall) -> CliResult:
        return run_cli(item.argv())

    def check(self, item: FuzzCall, output: CliResult) -> list[str]:
        """Counts against the trial schedule; the worst slack against its
        independent recomputation at the reported check; and, on the
        sampled trials, tau against the Gauss sum and every recomputed
        slack against the reported worst."""
        problems = cli_problems(output)
        if problems:
            return problems
        summary = json.loads(output.stdout)["summary"]
        expected = sum(1 + n + n * (n - 1) // 2
                       for n in (item.trial_config(t).n for t in range(item.count)))
        if summary["checks_run"] != expected:
            problems.append(f"checks_run {summary['checks_run']}, schedule gives {expected}")
        if summary["trials"] != item.count:
            problems.append(f"trials {summary['trials']}, asked for {item.count}")
        if summary["violation_count"] != 0:
            problems.append(f"{summary['violation_count']} violations")
        if not summary["worst_identity_rel_diff"] <= TAU_TOL:
            problems.append(f"worst identity difference {summary['worst_identity_rel_diff']!r}")

        worst, at = summary["worst_slack"], summary["worst_slack_at"]
        trial = at["seed"] - item.seed
        if not 0 <= trial < item.count:
            return problems + [f"worst slack at seed {at['seed']}, outside the call"]
        recomputed = independent_slack(gssf.random_instance(item.trial_config(trial)),
                                       at["check"])
        if not _close(worst, recomputed):
            problems.append(f"worst slack {worst!r} at {at}, recomputed {recomputed!r}")
        for t in item.samples:
            point = gssf.random_instance(item.trial_config(t))
            problems += tau_problems(point, point.tau)
            for label in fuzz_check_labels(point.n):
                slack = independent_slack(point, label)
                if slack < worst and not _close(worst, slack):
                    problems.append(f"trial {t} {label} slack {slack!r} below the "
                                    f"reported worst {worst!r}")
        return problems

    def checks_run(self, outputs) -> int:
        return sum(json.loads(out.stdout)["summary"]["checks_run"] for out in outputs)

    def probe(self) -> dict:
        return {"argv": self.inputs[0].argv(PROBE_TRIALS)}

    def describe(self) -> dict:
        """Adds a shell command that makes the same calls and prints the
        sha256 of their output."""
        calls = "; ".join(f"PYTHONPATH=src python3 -m gssf {' '.join(item.argv())}"
                          for item in self.inputs)
        return {**super().describe(), "trials_per_call": self.inputs[0].count,
                "replay": f"({calls}) | sha256sum"}


def scenario_for(point) -> dict:
    """A scenario file describing a generated point by its explicit frame,
    structure values and form coefficients."""
    n = point.n
    coeffs = point.sff.coeffs
    entries = [[r + 1, i + 1, j + 1, float(coeffs[r, i, j])]
               for r in range(coeffs.shape[0])
               for i in range(n + 2) for j in range(i, n + 2)
               if coeffs[r, i, j] != 0.0]
    checks = [{"name": "scalar_identity"}, {"name": "invariant_report"},
              {"name": "ricci_bound", "variant": "general", "u": "all"},
              {"name": "classify"}]
    if n >= 2:
        checks += [{"name": "delta_bound", "plane": "all"}, {"name": "global_delta"}]
    return {
        "ambient": {"m": point.ambient.m},
        "structure": {"values": [float(v) for v in point.functions.as_tuple()]},
        "frame": {"mode": "explicit", "vectors": point.tangent.matrix.tolist()},
        "sigma": {"coeffs": entries, "c_compatible": point.flags.c_compatible},
        "checks": checks,
    }


@dataclass(frozen=True)
class ScenarioFile:
    path: str
    point: gssf.SubmanifoldPoint  # the generated point the file describes


def _config(seed: int, index: int, n: int, m_extra: int, constraint: str):
    return gssf.GeneratorConfig(seed=seed * SEED_STRIDE + index, n=n, m=n + m_extra,
                                constraint=constraint)


class Report(Workload):
    """``gssf report`` on scenario files written during set-up, n = 1..6."""

    name = "report"
    unit = "scenario"

    def __init__(self, seed: int, workdir: Path, count: int = 200):
        workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for i in range(count):
            config = _config(seed, i, 1 + i % 6, (i // 6) % 2, CONSTRAINTS[(i // 12) % 4])
            point = gssf.random_instance(config)
            path = workdir / f"scenario-{i:04d}.json"
            path.write_text(json.dumps(scenario_for(point)), encoding="utf-8")
            self.inputs.append(ScenarioFile(str(path), point))

    def call(self, item: ScenarioFile) -> CliResult:
        return run_cli(["report", item.path])

    def check(self, item: ScenarioFile, output: CliResult) -> list[str]:
        problems = cli_problems(output)
        if problems:
            return problems
        report = json.loads(output.stdout)
        if report["summary"]["fail_count"]:
            problems.append(f"{report['summary']['fail_count']} checks failed")
        ricci = taus = 0
        for record in report["checks"]:
            if record["name"].startswith("ricci_bound[general"):
                ricci += 1
                terms = sum(value for _, value in record["diagnostics"]["defect_terms"])
                if not _close(record["slack"], terms):
                    problems.append(f"{record['name']} slack {record['slack']!r} "
                                    f"!= defect sum {terms!r}")
            elif record["name"] == "scalar_identity":
                taus += 1
                problems += tau_problems(item.point, record["diagnostics"]["tau"])
        if (ricci, taus) != (item.point.n, 1):
            problems.append(f"{ricci} Ricci and {taus} identity records, "
                            f"expected {item.point.n} and 1")
        return problems

    def probe(self) -> dict:
        return {"argv": ["report", self.inputs[min(2, len(self.inputs) - 1)].path]}


def _bound(report) -> dict | None:
    if report is None:
        return None
    return {"lhs": report.lhs, "rhs": report.rhs, "slack": report.slack,
            "equality": report.equality, "defect_terms": report.defect_terms}


class PlaneSearch(Workload):
    """``global_delta_bounds`` on points generated during set-up, n = 3..6
    in equal shares."""

    name = "plane-search"
    unit = "point"

    def __init__(self, seed: int, workdir: Path, count: int = 400):
        self.inputs = [
            gssf.random_instance(
                _config(seed, i, 3 + i % 4, (i // 4) % 2, CONSTRAINTS[(i // 8) % 4]))
            for i in range(count)
        ]
        self.first_config = _config(seed, 0, 3, 0, CONSTRAINTS[0])

    def fresh(self, point):
        # A copy without the cached invariants (tau, phi, ...), so every
        # pass computes them inside the timed call, as the first one did.
        return dataclasses.replace(point)

    def call(self, point):
        return inequalities.global_delta_bounds(point)

    def emitted(self, point, report) -> str:
        return jsonutil.dumps({
            "branch": report.branch,
            "inf_k": report.inf_k,
            "argmin_plane": list(report.argmin_plane),
            "bound": _bound(report.bound),
            "equality_diagnosis": report.equality_diagnosis,
            "four_dim_slant": _bound(report.four_dim_slant),
        })

    def check(self, point, report) -> list[str]:
        return plane_problems(point, report.inf_k, *report.argmin_plane)

    def probe(self) -> dict:
        c = self.first_config
        return {"instance": {"seed": c.seed, "n": c.n, "m": c.m, "constraint": c.constraint}}


WORKLOADS = {w.name: w for w in (Fuzz, Report, PlaneSearch)}
