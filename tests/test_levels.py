"""Level 0 as a view of level 1: every level-0 decision on a library input
gives the same status as its level-1 counterpart on the inflated input
(``inflate_morphism``).  An object stands for its map to the point.

The level-0 statuses of seven decisions are also pinned to a table, so a
level-0 procedure rewritten on top of level 1 must still give them, and
every YES witness is checked at level 0.  The two pinned maps whose
hom-sets have more than one element, ``*->loop`` and ``twins->U``, are not
compared live: there triviality and discreteness at level 1 ask for 1-cells
to be equal where level 0 asks for nothing, so the levels differ."""

import functools

import pytest

from effpath.classify import (
    discrete_decide, hlevel_check, is_standard_discrete, prop_truncate,
)
from effpath.core import (
    UNKNOWN, YES, check_morphism, check_object, compose, identity,
    make_object, synthesize_morphism,
)
from effpath.eff1 import (
    discrete1_decide, fibration1_decide, hlevel1_check, inflate_morphism,
    is_equivalence1_decide, pullback1, trivial1_decide,
)
from effpath.fixtures import fixture_library
from effpath.path import (
    check_homotopy, fibration_decide, is_equivalence_decide,
    is_trivial_fibration, pullback, terminal_map, terminal_object,
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

# The level-0 statuses of these decisions, one letter each: Y yes, N no,
# V verified, R refuted.
PINNED = ("equivalence", "trivial", "discrete",
          "hlevel(-2)", "hlevel(-1)", "hlevel(0)", "hlevel(1)")
REFERENCE = {
    "0": "NNYRVVV",
    "1": "YYYVVVV",
    "2": "NNYRRVV",
    "I": "YYYVVVV",
    "J": "NNNRRVV",
    "N5": "NNYRRVV",
    "E2I": "NNYRRVV",
    "L": "YYYVVVV",
    "P(I).st": "YYYVVVV",
    "P(I).r": "YNYRVVV",
    "P(J).st": "NNYRVVV",
    "P(J).r": "YYYVVVV",
    "P(1).st": "YYYVVVV",
    "P(1).r": "YYYVVVV",
    "P(2).st": "NNYRVVV",
    "P(2).r": "YYYVVVV",
    "P(N5).st": "NNYRVVV",
    "P(N5).r": "YYYVVVV",
    "|J|->1": "YYYVVVV",
    "fibre(E2I)": "NNYRRVV",
    "*->loop": "YYYVVVV",
    "twins->U": "NNYRVVV",
}
_LETTER = {"yes": "Y", "no": "N", "verified": "V", "refuted": "R"}


def _loop_under_point():
    """The point into one cell with the two loops {0, 1}.  Its one section
    sends both loops to the point's 1-cell 0, which f sends to 0: f s is
    the identity on cells but not on the loop 1."""
    A = make_object(("a",), {"a": 0}, {("a", "a"): {0, 1}}, name="loop")
    return synthesize_morphism(terminal_object(), A, {"*": "a"},
                               name="*->loop")


def _twins_over_a_forced_unit():
    """Two realizer twins over a, whose realizer a' shares: the unit code
    must pick 1 there, the one loop a and a' both have, while f sends every
    1-cell between the twins to 0."""
    A = make_object(("a", "a'"), {"a": 0, "a'": 0},
                    {("a", "a"): {0, 1}, ("a'", "a'"): {1, 2}}, name="U")
    twins = ("b0", "b1")
    B = make_object(twins, {"b0": 0, "b1": 0},
                    {(x, y): {0} for x in twins for y in twins}, name="T")
    return synthesize_morphism(B, A, {"b0": "a", "b1": "a"},
                               name="twins->U")


@functools.cache
def _map(name):
    """The level-0 map a name in REFERENCE stands for."""
    lib = fixture_library()
    if name in lib and lib[name].kind == "object":
        return terminal_map(lib[name].value)
    if name in lib:
        return lib[name].value
    if name.startswith("P("):
        bundle = lib[name[:name.index(")") + 1]].value
        return bundle.st if name.endswith(".st") else bundle.r
    if name == "|J|->1":
        return prop_truncate(terminal_map(lib["J"].value)).h
    if name == "*->loop":
        return _loop_under_point()
    if name == "twins->U":
        return _twins_over_a_forced_unit()
    assert name == "fibre(E2I)"
    p = lib["E2I"].value
    pt = synthesize_morphism(terminal_object(), p.cod, {"*": "0"})
    return pullback(p, pt).to_g_dom


@functools.cache
def _inflated(name):
    return inflate_morphism(_map(name))


@functools.cache
def _decide(name, procedure):
    f = _map(name)
    if procedure.startswith("hlevel"):
        return hlevel_check(f, int(procedure[7:-1]))
    return {"equivalence": is_equivalence_decide,
            "trivial": is_trivial_fibration,
            "discrete": discrete_decide}[procedure](f)


@pytest.mark.parametrize("name", REFERENCE)
def test_level_0_statuses_match_the_reference(name):
    got = "".join(_LETTER.get(_decide(name, p).status, "?") for p in PINNED)
    assert got == REFERENCE[name]


@pytest.mark.parametrize("name, procedure", CASES)
def test_level_0_decides_as_level_1_on_the_inflated_input(name, procedure):
    level0, level1 = PROCEDURES[procedure]
    got = level0(_map(name))
    assert got == level1(_inflated(name)) and got != UNKNOWN


@pytest.mark.parametrize("name", REFERENCE)
def test_yes_witnesses_check_at_level_0(name):
    f = _map(name)
    B, A = f.dom, f.cod
    for procedure in ("equivalence", "trivial"):
        d = _decide(name, procedure)
        if d.status != YES:
            continue
        w = d.witness
        g = w.inverse
        assert (g.dom, g.cod) == (A, B)
        assert check_morphism(g), procedure
        assert check_homotopy(identity(B), compose(g, f), w.eta), procedure
        assert check_homotopy(compose(f, g), identity(A), w.eps), procedure
    d = _decide(name, "discrete")
    if d.status == YES:
        nf = d.witness
        assert check_object(nf.quotient)
        assert check_morphism(nf.inclusion) and check_morphism(nf.standard)
        assert (nf.inclusion.cod, nf.standard.cod) == (B, A)
        assert is_standard_discrete(nf.standard)
