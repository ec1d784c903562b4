"""Level 0 as a view of level 1: every level-0 decision on a library input
gives the same status as its level-1 counterpart on the inflated input
(``inflate_morphism``).  An object stands for its map to the point."""

import functools

import pytest

from effpath.classify import discrete_decide, hlevel_check
from effpath.core import UNKNOWN
from effpath.eff1 import (
    discrete1_decide, fibration1_decide, hlevel1_check, inflate_morphism,
    is_equivalence1_decide, pullback1, trivial1_decide,
)
from effpath.fixtures import fixture_library
from effpath.path import (
    fibration_decide, is_equivalence_decide, is_trivial_fibration, pullback,
    terminal_map,
)


def _status(decide):
    return lambda f: decide(f).status


def _hlevel(n):
    return (lambda f: hlevel_check(f, n).status,
            lambda f: hlevel1_check(f, n).status)


# procedure -> (level 0, level 1)
PROCEDURES = {
    **{f"hlevel({n})": _hlevel(n) for n in (-2, -1, 0, 1)},
    "discrete": (_status(discrete_decide), _status(discrete1_decide)),
    "trivial": (_status(is_trivial_fibration), _status(trivial1_decide)),
    "equivalence": (_status(is_equivalence_decide),
                    _status(is_equivalence1_decide)),
    "fibration": (_status(fibration_decide), _status(fibration1_decide)),
    "pullback cells": (lambda f: len(pullback(f, f).obj.cells),
                       lambda f: len(pullback1(f, f).obj.cells)),
}
OVER_THE_POINT = ("hlevel(-2)", "hlevel(-1)", "hlevel(0)", "hlevel(1)",
                  "discrete", "trivial", "equivalence")
FIBRATIONS = ("hlevel(-1)", "hlevel(0)", "hlevel(1)", "fibration",
              "discrete", "equivalence", "pullback cells")
CASES = ([(name, p) for name in ("0", "1", "2", "I", "J", "N5")
          for p in OVER_THE_POINT]
         + [(name, p) for name in ("E2I", "L") for p in FIBRATIONS])


@functools.cache
def _maps(name):
    v = fixture_library()[name].value
    f = v if name in ("E2I", "L") else terminal_map(v)
    return f, inflate_morphism(f)


@pytest.mark.parametrize("name, procedure", CASES)
def test_level_0_decides_as_level_1_on_the_inflated_input(name, procedure):
    f, f1 = _maps(name)
    level0, level1 = PROCEDURES[procedure]
    got = level0(f)
    assert got == level1(f1) and got != UNKNOWN
