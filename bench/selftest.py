#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, briefly, traced and untraced.

Run from the root of a checkout:

    python3 bench/selftest.py

For each workload it runs ``run.py`` for SECONDS at SEED, with ``--trace 0``
and ``--trace 1``, and asserts that every metric BENCHMARK.json declares is
printed with its unit, that the six end-to-end metrics (``failed_frac`` included) are in the
run record, that no decision failed, and that every output matched its
reference digest.  Exits non-zero on the first broken expectation.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = 3
SEED = 0
END_TO_END = {
    "decisions_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(BENCH / "out" / f"{workload}-seed{SEED}-trace{trace}.json", encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, record = run(workload, trace)
            tag = f"{workload} trace={trace}"
            metrics = result["metrics"]
            names = {entry["name"] for entry in declared[trace]}
            expect(set(metrics) == names, f"{tag}: printed {sorted(metrics)}")
            for entry in declared[trace]:
                unit = metrics[entry["name"]]["unit"]
                expect(unit == entry["unit"], f"{tag}: {entry['name']} in {unit}")
            if trace == 0:
                for name, unit in END_TO_END.items():
                    got = record["metrics"].get(name)
                    expect(got is not None and got["unit"] == unit, f"{tag}: record lacks {name}")
                failed_frac = record["metrics"]["failed_frac"]["value"]
                expect(failed_frac == 0, f"{tag}: failed_frac {failed_frac}")
            expect(result["attempted"] >= 1, f"{tag}: nothing attempted")
            ok = result["failed"] == 0 and result["correct"]
            expect(ok, f"{tag}: failures {record['failures']}")
            expect(record["digest_mismatches"] == 0, f"{tag}: digest mismatches")
            expect(record["witness_failures"] == 0, f"{tag}: witness re-checks failed")
            print(f"ok {tag}: {result['attempted']} decisions, all digests match", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
