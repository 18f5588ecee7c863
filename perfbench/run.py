"""gssf benchmark: one workload per run, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {fuzz,report,plane-search} \
        --seed N --seconds S --trace {0,1}

Set-up builds the workload's inputs from the seed and runs one untimed
warm-up operation in this process.  The run then makes passes over the
inputs until ``--seconds`` of passes have run, timing each operation;
between passes, fresh interpreters import gssf and finish one warm-up
operation (``setup_s``).  Every output is checked against the oracles in
``workloads.py`` after the timed region.  With ``--trace 1``
untraced passes alternate with passes that record spans around the
library's public functions; the per-layer metrics come from the traced
passes, and both throughputs are reported as the overhead.

Human-readable lines go first; the last line of standard output is the
JSON result.  A fuller record (environment, digests, failures) goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # one single-threaded process, set before numpy loads
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (layer, stats) in the traced run; a layer is <module>.<function>.
LAYER_STATS = (
    ("generators.random_instance", ("calls", "self_ms", "ms_per_call")),
    ("submanifold.attach_point", ("calls", "busy_ms")),
    ("frames.gram_schmidt", ("busy_ms",)),
    ("frames.complete_basis", ("busy_ms",)),
    ("submanifold.scalar_identity_check", ("busy_ms",)),
    ("ambient.frame_sectional", ("calls", "busy_ms")),
    ("inequalities.ricci_bound", ("calls", "busy_ms")),
    ("inequalities.delta_bound", ("calls", "busy_ms")),
    ("inequalities.minimize_sectional_plane",
     ("calls", "busy_ms", "not_converged", "n3.ms_per_call", "n4.ms_per_call",
      "n5.ms_per_call", "n6.ms_per_call")),
    ("inequalities.global_delta_bounds", ("self_ms", "ms_per_call")),
    ("scenario.validate_scenario", ("busy_ms",)),
    ("scenario.assemble", ("busy_ms",)),
    ("scenario.run_checks", ("self_ms",)),
    ("jsonutil.dumps", ("calls", "busy_ms", "bytes")),
    ("cli.main", ("calls", "self_ms")),
)
STAT_UNITS = {"calls": "count", "busy_ms": "ms", "self_ms": "ms", "ms_per_call": "ms",
              "bytes": "bytes", "not_converged": "count"}
SWEEP_LAYERS = ("submanifold.scalar_identity_check", "inequalities.ricci_bound",
                "inequalities.delta_bound")


@dataclass
class Pass:
    seconds: list[float]  # one per operation
    digests: list[str | None]
    errors: list[str | None]
    traced: bool


class Recorder:
    """Timed passes over a workload's inputs; the first pass's outputs
    go through the oracles, later passes must reproduce their bytes."""

    def __init__(self, workload):
        self.workload = workload
        self.passes: list[Pass] = []
        self.reference: list = []

    def run_for(self, seconds: float, tracer=None, between=None):
        """Passes until they have taken ``seconds``; ``between`` runs after
        each pass, outside the measured time.  The first pass and every
        traced pass are whole; an untraced pass stops when time is up."""
        spent = 0.0
        first = len(self.passes)
        while len(self.passes) == first or spent < seconds:
            start = time.perf_counter()
            whole = len(self.passes) == first or tracer is not None
            self.run_pass(tracer, None if whole else start + seconds - spent)
            spent += time.perf_counter() - start
            if between is not None:
                between()

    def run_pass(self, tracer=None, deadline: float | None = None):
        w = self.workload
        args = [w.fresh(item) for item in w.inputs]
        times, outputs, errors = [], [], []
        if tracer is not None:
            tracer.phase = len(self.passes)
            tracer.recording = True
        for arg in args:
            start = time.perf_counter()
            if deadline is not None and start >= deadline:
                break
            try:
                output, error = w.call(arg), None
            except Exception as exc:  # a failed operation is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
            outputs.append(output)
            errors.append(error)
        if tracer is not None:
            tracer.recording = False
        digests = [None if out is None else sha256(w.emitted(item, out))
                   for item, out in zip(w.inputs, outputs)]
        if not self.passes:
            self.reference = outputs
        self.passes.append(Pass(times, digests, errors, tracer is not None))

    def failures(self) -> list[str]:
        w = self.workload
        first = self.passes[0]
        verdicts = []
        for item, output, error in zip(w.inputs, self.reference, first.errors):
            if error:
                verdicts.append([error])
                continue
            try:
                verdicts.append(w.check(item, output))
            except Exception as exc:  # an output the oracle cannot read
                verdicts.append([f"oracle error {type(exc).__name__}: {exc}"])
        failed = []
        for index, p in enumerate(self.passes):
            for op, verdict in zip(range(len(p.seconds)), verdicts):
                problems = list(verdict)
                if p.errors[op] and index:
                    problems.append(p.errors[op])
                elif p.digests[op] != first.digests[op]:
                    problems.append("output differs from the first pass")
                if problems:
                    failed.append(f"pass {index} op {op}: " + "; ".join(problems))
        return failed

    def op_seconds(self, traced: bool) -> list[float]:
        """Each operation's time as the mean of its repetitions."""
        passes = [p.seconds for p in self.passes if p.traced == traced]
        return [statistics.fmean(times[op] for times in passes if op < len(times))
                for op in range(len(self.workload.inputs))]

    def throughput(self, traced: bool) -> float:
        per_pass = sum(self.workload.instances(item) for item in self.workload.inputs)
        return per_pass / sum(self.op_seconds(traced))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def probe_setup(spec: dict) -> dict:
    """Wall time of a fresh interpreter doing the workload's first operation."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"setup probe exited {done.returncode}: {done.stderr.strip()}")
    return {"wall_s": wall, **json.loads(done.stdout.splitlines()[-1])}


def end_to_end(recorder: Recorder, probes: list[dict]) -> dict[str, float]:
    times = recorder.op_seconds(traced=False)
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    return {
        "instances_per_s": recorder.throughput(traced=False),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p95_ms": cuts[94] * 1e3,
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _stat(entry, stat: str) -> float:
    if stat == "calls":
        return entry.calls
    if stat == "busy_ms":
        return entry.busy_s * 1e3
    if stat == "self_ms":
        return entry.self_s * 1e3
    if stat == "bytes":
        return entry.nbytes
    if stat == "not_converged":
        return entry.errors.get("SearchDidNotConverge", 0)
    tag, _, _ = stat.rpartition(".")
    calls, busy = entry.by_tag.get(tag, (0, 0.0)) if tag else (entry.calls, entry.busy_s)
    return busy / calls * 1e3 if calls else 0.0


def per_layer(recorder: Recorder, tracer, probes: list[dict]) -> dict[str, tuple]:
    """Per-pass layer figures from the traced passes (medians over passes;
    counts repeat exactly), plus cold-start split and tracing overhead."""
    from tracing import LayerStats, layer_stats

    rows: dict[str, list] = {}
    units: dict[str, str] = {}
    for phase, p in enumerate(recorder.passes):
        if not p.traced:
            continue
        stats = layer_stats(tracer.spans, phase)
        for layer, wanted in LAYER_STATS:
            entry = stats.get(layer, LayerStats())
            for stat in wanted:
                name = f"{layer}.{stat}"
                rows.setdefault(name, []).append(_stat(entry, stat))
                units[name] = STAT_UNITS[stat.rpartition(".")[2]]
        trials = stats.get("generators.random_instance", LayerStats()).calls
        sweep = sum(stats.get(layer, LayerStats()).busy_s for layer in SWEEP_LAYERS)
        rows.setdefault("cli.fuzz.sweep_ms_per_trial", []).append(
            sweep / trials * 1e3 if trials else 0.0)
        units["cli.fuzz.sweep_ms_per_trial"] = "ms"
    metrics = {name: (statistics.median_low(values) if units[name] in ("count", "bytes")
                      else statistics.median(values), units[name])
               for name, values in rows.items()}
    checks = getattr(recorder.workload, "checks_run", None)
    metrics["cli.fuzz.checks_run"] = (checks(recorder.reference) if checks else 0, "count")
    metrics["setup.import_ms"] = (statistics.median(p["import_s"] for p in probes) * 1e3, "ms")
    metrics["setup.first_call_ms"] = (
        statistics.median(p["first_call_s"] for p in probes) * 1e3, "ms")
    untraced = recorder.throughput(traced=False)
    traced = recorder.throughput(traced=True)
    metrics["trace.untraced_instances_per_s"] = (untraced, "1/s")
    metrics["trace.traced_instances_per_s"] = (traced, "1/s")
    metrics["trace.overhead_frac"] = (untraced / traced - 1.0, "ratio")
    return metrics


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=30, check=False)
    except OSError:
        return "unavailable (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "git_describe": git_describe(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None, probes: int = SETUP_PROBES,
        out_dir: Path = RESULTS, wrap=None) -> dict:
    """One benchmark run; returns the full record.  ``sizes`` shrinks a
    workload and ``wrap`` decorates it, both for the self-test."""
    from tracing import Tracer
    from workloads import WORKLOADS

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    workdir = out_dir / f"work-{stem}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = WORKLOADS[workload_name](seed, workdir, **(sizes or {}))
        if wrap is not None:
            workload = wrap(workload)
        setup: list[dict] = []

        def probe_once():
            # Probes are spread over the run, so that one burst of load
            # on the machine does not set them all.
            if len(setup) < probes:
                setup.append(probe_setup(workload.probe()))

        probe_once()
        workload.call(workload.fresh(workload.inputs[0]))  # lazy init, untimed
        recorder = Recorder(workload)
        tracer = None
        if trace:
            # Untraced and traced passes alternate, so that a change in the
            # machine's load does not pass for tracing overhead.
            tracer = Tracer()
            start = time.perf_counter()
            while not recorder.passes or time.perf_counter() - start < seconds:
                recorder.run_for(0, between=probe_once)
                with tracer:
                    recorder.run_for(0, tracer, between=probe_once)
        else:
            recorder.run_for(seconds, between=probe_once)
        while len(setup) < probes:
            probe_once()
        failures = recorder.failures()
        digest = sha256("".join(workload.emitted(item, out) for item, out
                                in zip(workload.inputs, recorder.reference)
                                if out is not None))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.seconds) for p in recorder.passes)
    if trace:
        metrics = per_layer(recorder, tracer, setup)
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(recorder, setup).items()}
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "inputs": workload.describe(),
        "passes": len(recorder.passes),
        "pass_seconds": [sum(p.seconds) for p in recorder.passes],
        "attempted": attempted,
        "failed": len(failures),
        "failed_ops_frac": len(failures) / attempted,
        "latency_samples": len(workload.inputs),
        "untraced_passes": sum(1 for p in recorder.passes if not p.traced),
        "output_sha256": digest,
        "setup_probes": setup,
        "op_seconds_by_pass": [p.seconds for p in recorder.passes],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "failures": failures[:50],
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fuzz", "report", "plane-search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gssf" / "__init__.py").is_file():
        print(f"error: no gssf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {record['workload']} seed {record['seed']}: {record['passes']} passes, "
          f"{record['attempted']} operations, {record['latency_samples']} latency samples "
          f"(each the mean over {record['untraced_passes']} untraced passes), "
          f"output sha256 {record['output_sha256']}")
    for name, entry in record["metrics"].items():
        print(f"{name:<48} {entry['value']:>16.6f} {entry['unit']}")
    print(f"{'failed_ops_frac':<48} {record['failed_ops_frac']:>16.6f} ratio")
    for line in record["failures"][:5]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
