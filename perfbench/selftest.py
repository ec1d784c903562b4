"""The benchmark's own test: the deterministic counters repeat exactly.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default) it runs the traced worker twice
under PYTHONHASHSEED=0 and once under PYTHONHASHSEED=123, and compares
every count the trace records: calls per function, tabulate calls,
distinct tables, entries and Mbit, apply calls and raised, decode hits and
misses, pinned machine steps, and the verdict counts.  Timings are not
compared.  Exits 1 on any difference.
"""

from __future__ import annotations

import sys
import time

from run import WORKLOADS, Runner

SEED = 1
HASH_SEEDS = ("0", "0", "123")


def counters(result) -> dict:
    out = {k: v for k, v in result["layers"].items()
           if not k.endswith("self_s")}
    for key in ("steps", "attempted", "failed", "unknown"):
        out[key] = result[key]
    return out


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    bad = 0
    for name in names:
        runs = []
        for hash_seed in HASH_SEEDS:
            runner = Runner(name, SEED, time.monotonic())
            runner.env["PYTHONHASHSEED"] = hash_seed
            runs.append(counters(runner.worker(True)))
        first = runs[0]
        diffs = {k: [r.get(k) for r in runs] for k in first
                 if any(r.get(k) != first[k] for r in runs[1:])}
        if first["failed"]:
            diffs["failed"] = [r["failed"] for r in runs]
        status = "ok" if not diffs else "DIFFERS"
        print(f"{name}: {len(first)} counters over {len(runs)} runs "
              f"(hash seeds {', '.join(HASH_SEEDS)}): {status}")
        for k, vals in diffs.items():
            print(f"  {k}: {vals}")
        bad += bool(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
