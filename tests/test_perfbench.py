"""The benchmark's `machine`, `check` and `commands` workloads, run
in-process as tests.

The `machine` oracle pins each raw chain lookup to the machine's step
formula, 15*(rank+1)+1 on a hit and 15*n+1 off the domain, at the exact
fuel boundary; a drift in the step loop fails here before any benchmark
run.  The `check` oracle pins the verdicts of the exhaustive checkers on
P(Z2), Z2 x Z2 and the library, and the `commands` oracle the status and
exit code of each CLI call, so a change to the obligation generators or
the handlers they read fails here too.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_the_machine_workload_meets_its_oracle(workloads, seed):
    state = workloads.machine_setup(seed)
    rec = workloads.Recorder()
    workloads.machine_run(state, rec)
    assert rec.attempted == len(state["calls"]) > 0
    assert rec.failed == 0, rec.errors


@pytest.mark.parametrize("workload", ["check", "commands"])
def test_the_workload_meets_its_oracle(workloads, workload):
    state = getattr(workloads, f"{workload}_setup")(1)
    rec = workloads.Recorder()
    getattr(workloads, f"{workload}_run")(state, rec)
    assert rec.attempted > 0
    assert rec.failed == 0, rec.errors
