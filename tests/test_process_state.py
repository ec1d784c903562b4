"""Nothing a command builds outlives it: each verdict is a property of its
inputs alone, so no module of effpath keeps what an earlier command built.
decode's cache is bounded and a pure function of its int, and stays."""

import contextlib
import io
import sys
import tracemalloc

from effpath import cli
from effpath.pca import apply, tabulate


def _module_containers() -> dict:
    """The size of every module-level dict, list and set of effpath."""
    return {(name, attr): len(value)
            for name, module in list(sys.modules.items())
            if name == "effpath" or name.startswith("effpath.")
            for attr, value in vars(module).items()
            if isinstance(value, (dict, list, set))}


def test_commands_leave_no_module_level_state():
    before = _module_containers()
    assert before
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["pi", "E2I"], ["eff1-pullback", "eff1:E2I", "eff1:E2I"],
                     ["pi", "E2I"]):
            assert cli.main(argv) == 0, argv
    after = _module_containers()
    assert after.keys() == before.keys()
    assert {k: (before[k], n) for k, n in after.items() if n != before[k]} \
        == {}


def test_a_large_table_is_freed_once_nothing_holds_it():
    table = {n: 2 * n for n in range(50_000)}
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        code = tabulate(table)
        assert apply(code, 49_999, fuel=10 ** 6) == 99_998
        held = tracemalloc.get_traced_memory()[0] - start
        del code
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held > 1e6, held  # the Table's own copy of the values
    assert left < 1e5, left
