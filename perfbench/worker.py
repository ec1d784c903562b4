"""One benchmark process: import, set up and run one workload once.

    python3 perfbench/worker.py WORKLOAD SEED TRACE [SPANS_PATH]

Run from the repository root with ``src`` on PYTHONPATH (run.py does this).
Prints one JSON object on its last stdout line.  With TRACE 1 the layer
wrappers are installed after import, so per-layer figures cover set-up and
the timed region, and the spans are written to SPANS_PATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    start = time.perf_counter()
    import workloads  # imports every effpath module
    import_s = time.perf_counter() - start

    setup, run = workloads.WORKLOADS[workload]
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    state = setup(seed)
    setup_s = import_s + time.perf_counter() - start

    rec = workloads.Recorder()
    start = time.perf_counter()
    run(state, rec)
    wall_s = time.perf_counter() - start

    result = {
        "workload": workload,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "samples": rec.samples,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "unknown": rec.unknown,
        "errors": rec.errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # machine steps the oracle pins for the timed region (machine only)
        "steps": state["steps"] if workload == "machine" else 0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if len(argv) > 3:
            tracer.write(argv[3])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
