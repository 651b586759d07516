#!/usr/bin/env python3
"""Rebuild bench/reference.json: the digest of every pool item's output.

Run from the root of a checkout, at the commit whose outputs are the
reference (the one that defined the benchmark):

    python3 bench/record.py

It records every workload afresh, and refuses when an oracle witness fails
its independent re-check or a CLI command exits non-zero, since such an
output cannot be a reference.
"""

import json
import sys
import time

import run


def main() -> int:
    workloads = run.import_library()
    reference = {
        "about": (
            "sha256 (first 12 hex digits) of each pool item's canonical output, "
            "indexed [workload][key][pool index]; written by bench/record.py"
        ),
        "digests": {},
    }
    for name, workload in workloads.WORKLOADS.items():
        start = time.perf_counter()
        digests: dict[str, list[str]] = {}
        for decision in workload.pool():
            key, index = decision.ref
            output, problems = decision.judge(decision.call())
            if problems:
                sys.exit(f"record: {name} {key}[{index}] fails its check: {problems}")
            entries = digests.setdefault(key, [])
            if index != len(entries):
                sys.exit(f"record: {name} {key} pool indices out of order")
            entries.append(workloads.digest(output))
        reference["digests"][name] = digests
        count = sum(len(v) for v in digests.values())
        print(f"{name}: {count} digests in {time.perf_counter() - start:.1f} s", flush=True)
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
