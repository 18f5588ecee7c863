"""Tiny-size smoke run of the benchmark.

Checks that both kinds of run report exactly the metrics BENCHMARK.json
names, each with its unit; that unmodified code passes every oracle; and
that a wrong output (a perturbed worst slack, tau or inf K) is counted as
a failed operation.

Usage (from the root of a checkout): python3 perfbench/selftest.py
Exits 0 when every check holds and prints each problem otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

TINY = {"fuzz": {"count": 12}, "report": {"count": 6},
        "plane-search": {"count": 4}}


class Perturbed:
    """A workload whose every output is wrong in one number."""

    def __init__(self, inner, perturb):
        self.inner = inner
        self.perturb = perturb

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def call(self, arg):
        return self.perturb(self.inner.call(arg))


def _fuzz_wrong(out):
    report = json.loads(out.stdout)
    report["summary"]["worst_slack"] += 1e-6
    return dataclasses.replace(out, stdout=json.dumps(report))


def _report_wrong(out):
    report = json.loads(out.stdout)
    for record in report["checks"]:
        if record["name"] == "scalar_identity":
            record["diagnostics"]["tau"] += 1e-6
    return dataclasses.replace(out, stdout=json.dumps(report))


def _plane_wrong(report):
    return dataclasses.replace(report, inf_k=report.inf_k + 1e-6)


WRONG = {"fuzz": _fuzz_wrong, "report": _report_wrong, "plane-search": _plane_wrong}


def main() -> int:
    if not (run.SRC / "gssf" / "__init__.py").is_file():
        print(f"error: no gssf sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import gssf
    from workloads import tau_problems

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = run.RESULTS / "selftest"
    problems = []

    for name, sizes in TINY.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run(name, 3, 0, trace, sizes=sizes, probes=1, out_dir=out_dir)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} {key}: missing or mislabelled "
                                f"{sorted(set(wanted.items()) ^ set(got.items()))}")
            if record["failed"]:
                problems.append(f"{name} trace={int(trace)}: {record['failures'][:3]}")

        record = run.run(name, 3, 0, False, sizes=sizes, probes=1, out_dir=out_dir,
                         wrap=lambda w, name=name: Perturbed(w, WRONG[name]))
        if record["failed"] != record["attempted"]:
            problems.append(f"{name}: {record['failed']} of {record['attempted']} wrong "
                            "outputs counted as failed")

    point = gssf.random_instance(gssf.GeneratorConfig(seed=5, n=4, m=5))
    if tau_problems(point, point.tau) or not tau_problems(point, point.tau + 1e-6):
        problems.append("the tau oracle does not separate the true tau from a perturbed one")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
