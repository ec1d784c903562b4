"""effpath benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh single-threaded
worker processes (perfbench/worker.py), one after another, never
concurrently.  With --trace 0 the run starts workers until S seconds have
passed, and at least two, and reports the end-to-end metrics: medians over
workers of set-up time, timed-region wall time, peak RSS and each worker's
verdict latency percentiles.  With --trace 1 it
runs one untraced and one traced worker and reports the per-layer metrics
of the traced one; spans go to perfbench/out/.

The last stdout line is the result object; the line before it records the
environment, the sample count and the failure and UNKNOWN shares.  Exit
code 2 means the benchmark could not run (no effpath sources, a worker that
crashed or overran).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "commands", "check", "machine")
MIN_WORKERS = 2        # set-up is reported as a median over workers
DEADLINE_S = 170.0     # a run must end within 180 s
# a percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10


class BenchError(Exception):
    pass


def percentile(samples, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def environment(hash_seed):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "hash_seed": hash_seed,
        "loadavg_start": os.getloadavg(),
    }


class Runner:
    def __init__(self, workload, seed, started):
        self.workload, self.seed, self.started = workload, seed, started
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env.setdefault("PYTHONHASHSEED", "0")

    def worker(self, trace, spans_path=None):
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload,
               str(self.seed), "1" if trace else "0"]
        if spans_path is not None:
            cmd.append(str(spans_path))
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"worker overran the {DEADLINE_S:.0f} s "
                             "deadline") from e
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(lines[-1])


def end_to_end(results):
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
    }
    for p in (50, 90):
        # per worker, then the median over workers: pooling workers that
        # ran at different machine speeds would let the p90 rank jump
        # between the suite's tenth and eleventh slowest expectations
        values = []
        for r in results:
            value, beyond = percentile(r["samples"], p)
            if beyond < TAIL_SAMPLES:
                raise BenchError(f"p{p} has {beyond} samples beyond it, "
                                 f"fewer than {TAIL_SAMPLES}")
            values.append(value)
        metrics[f"verdict_p{p}_ms"] = (statistics.median(values) * 1e3, "ms")
    metrics["peak_rss_mb"] = (
        statistics.median(r["maxrss_kb"] for r in results) / 1024, "MB")
    return metrics


def summary(results):
    attempted = sum(r["attempted"] for r in results)
    wall = sum(r["wall_s"] for r in results)
    return {
        "workers": len(results),
        "verdict_samples": sum(len(r["samples"]) for r in results),
        "failed_ratio": sum(r["failed"] for r in results) / attempted,
        "unknown_ratio": sum(r["unknown"] for r in results) / attempted,
        "steps_per_s": sum(r["steps"] for r in results) / wall,
        "errors": [e for r in results for e in r["errors"]][:20],
    }


def per_layer(untraced, traced):
    facts = summary([untraced])
    metrics = {name: (value, _layer_unit(name))
               for name, value in traced["layers"].items()}
    metrics["pca.steps"] = (traced["steps"], "count")
    metrics["trace.overhead_ratio"] = (
        traced["wall_s"] / untraced["wall_s"], "ratio")
    for name in ("failed_ratio", "unknown_ratio"):
        metrics[name] = (facts[name], "ratio")
    metrics["steps_per_s"] = (facts["steps_per_s"], "1/s")
    metrics["verdict_samples"] = (facts["verdict_samples"], "count")
    return metrics


def _layer_unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("mbit"):
        return "Mbit"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "effpath" / "__init__.py").is_file():
        print(f"error: no effpath sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, started)
    info = {"workload": args.workload, "seed": args.seed,
            "env": environment(runner.env["PYTHONHASHSEED"])}
    try:
        if args.trace:
            untraced = runner.worker(False)
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            traced = runner.worker(
                True, out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
            results = [untraced, traced]
            metrics = per_layer(untraced, traced)
        else:
            results = []
            while (len(results) < MIN_WORKERS
                   or time.monotonic() - started < args.seconds):
                results.append(runner.worker(False))
            metrics = end_to_end(results)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    info.update(summary([untraced] if args.trace else results))
    print(json.dumps(info))
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
