#!/usr/bin/env python3
"""quivex benchmark: three seeded workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 bench/run.py --workload oracle_verify --seed 0 --seconds 20 --trace 0

Each workload runs in this one process, on one thread, as a closed loop:
the next decision starts only after the previous one returned.  It runs
whole cycles of passes (every pool input once per cycle), as many as fill
``--seconds`` at the reference speed.  Time metrics are given at that fixed
reference machine speed (``speed.py``); the unscaled times are printed and
recorded beside them.  Every output is checked against a digest recorded at the
commit that defined the benchmark (``reference.json``, rebuilt by
``record.py``) and every oracle witness is re-checked in plain Python ints.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-module metrics of a traced run.
Lines before it repeat every metric by name and unit, and a full record
(machine, speed, per-cell medians, failures, spans) goes to ``bench/out/``.
"""

import os

# one BLAS thread, pinned before numpy is imported here or in a child
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
SETUP_SAMPLES = 3  # speed kernel samples before each set-up run, and after the last
WARMUP_SECONDS = 1.0
# traced spans and the per-module fields reported for each (BENCHMARK.json's per_layer)
PER_LAYER = (
    ("finfield.rref_mod", ("calls", "self_s", "calls_per_decision")),
    ("finfield.batch_rank", ("calls", "matrices", "self_s")),
    ("finfield.batch_rank_le", ("calls", "matrices", "self_s")),
    ("finfield.is_expander_rep", ("self_s",)),
    ("finfield.has_subrep_of_dim", ("self_s",)),
    ("finfield.random_rep", ("self_s",)),
    ("finfield.enumerate_subspaces", ("yielded",)),
    ("finfield.image_sum_dim", ("calls", "self_s")),
    ("schofield.generic_subdims", ("calls", "self_s")),
    ("schofield.embeds", ("calls", "self_s")),
    ("kronecker.c_d_ceil", ("calls", "self_s")),
    ("kronecker.c_d_exact", ("calls", "self_s")),
    ("surd.QuadraticSurd", ("calls", "self_s")),
    ("expander.expander_exists", ("self_s",)),
    ("expander.epsilon_m_alpha_delta", ("self_s",)),
    ("expander.theta_epsilon_supremum", ("self_s",)),
    ("quiver", ("self_s",)),
    ("cli.run", ("self_s",)),
)


def import_library():
    """Import quivex from this checkout's src/, and nothing else."""
    package = SRC / "quivex"
    if not (package / "__init__.py").is_file():
        sys.exit(f"benchmark: no library at {package}; run from a full checkout")
    os.chdir(ROOT)  # CLI commands name the quiver file relative to the root
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import quivex

    if Path(quivex.__file__).resolve().parent != package.resolve():
        sys.exit(f"benchmark: quivex imported from {quivex.__file__}, not {package}")
    import workloads

    return workloads


class Checker:
    """Judges decisions' results: compares digests and collects failures."""

    def __init__(self, reference: dict, digest):
        self.reference = reference
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.digest_mismatches = 0
        self.witness_failures = 0
        self.errors = 0
        self.failures: list[str] = []

    def judge(self, decision, result, error: Exception | None):
        """Count the decision failed unless it returned, matched and re-checked."""
        self.attempted += 1
        key, index = decision.ref
        if error is not None:
            self.errors += 1
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            output, problems = decision.judge(result)
            if problems:
                self.witness_failures += 1
            if self.digest(output) != self.reference[key][index]:
                self.digest_mismatches += 1
                problems = problems + ["digest mismatch"]
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{key}[{index}]: " + "; ".join(problems))


def run_pass(decisions, checker: Checker, tracer=None, probe=None) -> tuple[float, list]:
    """Run a pass's decisions back to back, then judge their results untimed.

    With a speed probe, its kernel runs between decisions when it is due.
    Returns the pass's wall time and each decision's (cell, start, seconds).
    """
    outcomes = []
    start = time.perf_counter()
    for decision in decisions:
        if probe is not None and probe.due():
            probe.sample()
        if tracer is not None:
            tracer.decision += 1
            tracer.begin("bench.decision")
        began = time.perf_counter()
        try:
            result, error = decision.call(), None
        except Exception as exc:  # a raising decision is a failed decision
            result, error = None, exc
        outcomes.append((result, error, began, time.perf_counter() - began))
        if tracer is not None:
            tracer.end()
    wall = time.perf_counter() - start
    for decision, (result, error, _, _) in zip(decisions, outcomes):
        checker.judge(decision, result, error)
    return wall, [(d.cell, began, seconds) for d, (_, _, began, seconds) in zip(decisions, outcomes)]


def run_passes(passes, checker: Checker, tracer=None, probe=None) -> tuple[float, list]:
    """Closed loop over the given passes."""
    wall, samples = 0.0, []
    for decisions in passes:
        pass_wall, pass_samples = run_pass(decisions, checker, tracer, probe)
        wall += pass_wall
        samples += pass_samples
    if probe is not None:
        probe.sample()  # the last decisions get a sample after them too
    return wall, samples


def warm_up(decisions, checker: Checker):
    """Untimed, unscored decisions from the warm-up pass, so lazy set-up is paid first."""
    scratch = Checker(checker.reference, checker.digest)
    speed.kernel()
    deadline = time.perf_counter() + WARMUP_SECONDS
    for decision in decisions:
        if time.perf_counter() >= deadline:
            break
        run_pass([decision], scratch)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def machine() -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "processor": platform.machine(),
    }


def measure_setup(args) -> tuple[list[float], float]:
    """Wall times of fresh interpreters that import quivex and build the seed's
    inputs, and the speed scale of the spell they ran in."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    probe = speed.Probe()
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_SAMPLES):
            probe.sample()
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            sys.exit(f"benchmark: set-up run failed: {done.stderr.decode().strip()}")
        times.append(elapsed)
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    return times, probe.overall()


def load_reference(name: str) -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"][name]


def cell_medians(cells_and_seconds) -> dict:
    cells: dict[str, list[float]] = {}
    for cell, seconds in cells_and_seconds:
        cells.setdefault(cell, []).append(seconds)
    return {
        cell: {"decisions": len(v), "median_ms": round(1000 * statistics.median(v), 4)}
        for cell, v in sorted(cells.items())
    }


def write_record(args, data: dict, suffix: str = "") -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def timings(latencies: list[float], setup_s: float) -> dict:
    """The end-to-end time metrics of one run's latencies and set-up time."""
    tail_s, _, _ = tail(latencies)
    return {
        "decisions_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "decision_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "decision_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
    }


def cycles(workload, seconds: float) -> int:
    """Whole cycles that fill ``seconds`` at the reference speed: a fixed
    amount of work, so every run of a workload times the same decisions."""
    return math.ceil(seconds / workload.cycle_seconds)


def end_to_end(args, workloads) -> tuple[dict, Checker, dict]:
    setup_times, setup_scale = measure_setup(args)
    workload = workloads.WORKLOADS[args.workload]
    n = cycles(workload, args.seconds) * workload.cycle_passes
    checker = Checker(load_reference(args.workload), workloads.digest)
    passes = workload.passes(workload.inputs(args.seed))
    warm_up(next(passes), checker)
    probe = speed.Probe()
    wall, samples = run_passes(islice(passes, n), checker, probe=probe)
    raw = [seconds for _, _, seconds in samples]
    scaled = [seconds * probe.scale(began, began + seconds) for _, began, seconds in samples]
    _, tail_pct, beyond = tail(scaled)
    setup_raw = statistics.median(setup_times)
    metrics = {
        **timings(scaled, setup_raw * setup_scale),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (checker.failed / checker.attempted, "frac"),
    }
    record = {
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "decisions": len(samples),
        "wall_s": wall,
        "setup_runs_s": setup_times,
        "speed": {
            "reference_kernel_s": speed.REFERENCE_S,
            "kernel_samples": len(probe.seconds),
            "kernel_median_s": statistics.median(probe.seconds),
            "run_scale": probe.overall(),
            "setup_scale": setup_scale,
        },
        "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in timings(raw, setup_raw).items()},
        "cells": cell_medians((cell, s) for (cell, _, _), s in zip(samples, scaled)),
    }
    return metrics, checker, record


def traced(args, workloads) -> tuple[dict, Checker, dict]:
    import spans

    workload = workloads.WORKLOADS[args.workload]
    n = workload.cycle_passes
    checker = Checker(load_reference(args.workload), workloads.digest)
    passes = workload.passes(workload.inputs(args.seed))
    warm_up(next(passes), checker)
    untraced_wall, _ = run_passes(islice(passes, n), checker)

    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        tracer.begin("bench.setup")
        inputs = workload.inputs(args.seed)  # fresh caches, random_rep traced
        tracer.end()
        passes = workload.passes(inputs)
        next(passes)  # the warm-up pass: both phases time passes 1..n
        traced_wall, samples = run_passes(islice(passes, n), checker, tracer)
    finally:
        restore()

    decisions = len(samples)
    fields = {
        "calls": lambda span: tracer.calls[span],
        "self_s": lambda span: tracer.self_ns[span] / 1e9,
        "calls_per_decision": lambda span: tracer.calls[span] / decisions,
        "matrices": lambda span: tracer.counts[span + ".matrices"],
        "yielded": lambda span: tracer.counts[span + ".yielded"],
    }
    metrics = {
        f"{span}.{field}": (fields[field](span), "s" if field == "self_s" else "count")
        for span, names in PER_LAYER
        for field in names
    }
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "frac")
    record = {
        "trace_passes": n,
        "decisions_per_phase": decisions,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "calls": dict(sorted(tracer.calls.items())),
        "counts": dict(sorted(tracer.counts.items())),
        "self_s": {k: v / 1e9 for k, v in sorted(tracer.self_ns.items())},
    }
    write_record(args, tracer.spans(), ".spans")
    return metrics, checker, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        choices = ", ".join(sorted(workloads.WORKLOADS))
        parser.error(f"unknown workload {args.workload!r}; choose from {choices}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload].inputs(args.seed)
        return 0

    measure = traced if args.trace else end_to_end
    metrics, checker, record = measure(args, workloads)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine(),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        attempted=checker.attempted,
        failed=checker.failed,
        digest_mismatches=checker.digest_mismatches,
        witness_failures=checker.witness_failures,
        errors=checker.errors,
        failures=checker.failures,
    )
    path = write_record(args, record)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload}.{name} = {value:.6g} {unit}")
    if "unscaled" in record:
        for name, entry in record["unscaled"].items():
            print(f"{args.workload}.{name} unscaled = {entry['value']:.6g} {entry['unit']}")
        print(f"{args.workload}: speed scale {record['speed']['run_scale']:.4f} over the run, "
              f"{record['speed']['setup_scale']:.4f} over set-up")
    if "decision_tail_ms" in metrics:
        print(f"{args.workload}.decision_tail_ms is p{record['tail_percentile']:.2f} "
              f"of {record['decisions']} decisions ({record['tail_samples_beyond']} beyond)")
        for cell, info in record["cells"].items():
            print(f"{args.workload}.cell {cell}: median {info['median_ms']} ms "
                  f"over {info['decisions']}")
    print(f"{args.workload}: attempted {checker.attempted}, failed {checker.failed}, "
          f"digest mismatches {checker.digest_mismatches}, witness failures "
          f"{checker.witness_failures}, errors {checker.errors}; record {path.relative_to(ROOT)}")
    box = record["machine"]
    print(f"{args.workload}: machine nproc {box['nproc']}, Python {box['python']}, "
          f"numpy {box['numpy']}, BLAS threads {box['blas_threads']['OPENBLAS_NUM_THREADS']}")
    for failure in checker.failures[:5]:
        print(f"  failure: {failure}")

    reported = {k: v for k, v in metrics.items() if k != "failed_frac"}
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
