"""Curated fixture library: small named objects, morphisms and fibrations
with their expected verdicts.  Everything is built through the synthesis
helpers so structure codes are canonical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .core import EffObject, EffMorphism, synthesize_morphism
from .pca import (
    DEFAULT_BUDGET, DEFAULT_DEPTH, DEFAULT_FUEL, budget_limit, depth_limit,
    fuel_limit,
)
from .path import discrete_n, make_object, terminal_object, path_object
from .eff1 import (
    Eff1Morphism, inflate, inflate_morphism, terminal_map1, z2_object,
)


def interval() -> EffObject:
    """Two points, every hom-set {0}: the interval; I -> 1 is trivial."""
    cells = ("0", "1")
    hom = {(a, b): {0} for a in cells for b in cells}
    return make_object(cells, {"0": 0, "1": 1}, hom, name="I")


def walking_pair() -> EffObject:
    """Two points with a shared realizer and no cross 1-cells (the object
    that detects discreteness)."""
    cells = ("0", "1")
    hom = {(a, b): ({0} if a == b else frozenset())
           for a in cells for b in cells}
    return make_object(cells, {"0": 0, "1": 0}, hom, name="J")


def empty() -> EffObject:
    return make_object((), {}, {}, name="0")


def point() -> EffObject:
    return terminal_object()


def two() -> EffObject:
    return discrete_n(2, name="2")


def nat_trunc(k: int = 5) -> EffObject:
    return discrete_n(k + 1, name=f"N{k}")


def swap_morphism(obj: EffObject, name: str = "swap") -> EffMorphism | None:
    """The 0 <-> 1 swap on a two-cell object, if it is trackable."""
    a, b = obj.cells
    return synthesize_morphism(obj, obj, {a: b, b: a}, name=name)


def two_point_bundle():
    """A two-point-fibre fibration over the interval.

    Cells e[x][y]: point x of the fibre over base cell y; realizer <x, y>;
    paths only between points with the same x.  Transport along 0 -> 1
    carries e[x][0] to e[x][1].
    """
    from .pca import tuple_encode
    base = interval()
    cells = [f"e{x}{y}" for x in (0, 1) for y in (0, 1)]
    realizer = {c: tuple_encode(int(c[1]), int(c[2])) for c in cells}
    hom = {(c, d): ({0} if c[1] == d[1] else frozenset())
           for c in cells for d in cells}
    total = make_object(cells, realizer, hom, name="E2I")
    p = synthesize_morphism(total, base, {c: c[2] for c in cells},
                            name="E2I->I")
    assert p is not None
    return total, base, p


@dataclass
class Fixture:
    """A named object at either level with its expected verdicts."""
    name: str
    obj: EffObject
    expect: dict = field(default_factory=dict)


_OBJECTS = {  # name: (its constructor, expected verdicts)
    "I": (interval, {"valid": True, "trivial_over_1": True,
                     "discrete_over_1": True, "hlevel0": True}),
    "J": (walking_pair, {"valid": True, "trivial_over_1": False,
                         "discrete_over_1": False, "hlevel0": True}),
    "0": (empty, {"valid": True, "trivial_over_1": False,
                  "discrete_over_1": True, "hlevel0": True}),
    "1": (point, {"valid": True, "trivial_over_1": True,
                  "discrete_over_1": True, "hlevel0": True}),
    "2": (two, {"valid": True, "trivial_over_1": False,
                "discrete_over_1": True, "hlevel0": True}),
    "N5": (nat_trunc, {"valid": True, "trivial_over_1": False,
                       "discrete_over_1": True, "hlevel0": True}),
}


def fixture_objects() -> dict[str, Fixture]:
    """Named objects with declared expected verdicts.

    trivial_over_1: the map to the terminal object is a trivial fibration
    (contractibility); discrete_over_1: it is discrete; hlevel0: it is a
    fibration of sets.
    """
    return {name: Fixture(name, build(), dict(expect))
            for name, (build, expect) in _OBJECTS.items()}


# --- two-level fixtures -----------------------------------------------------

def line_bundle():
    """A one-point-per-fibre propositional fibration over the interval in
    classification normal form: cells (a, n), realizer n, f = fst."""
    base = interval()
    cells = [("0", 5), ("1", 7)]
    hom = {(x, y): base.hom_of(x[0], y[0]) for x in cells for y in cells}
    total = make_object(cells, {c: c[1] for c in cells}, hom, name="L")
    f = synthesize_morphism(total, base, {c: c[0] for c in cells},
                            name="L->I")
    assert f is not None
    return total, base, f


def set_bundle():
    """A two-points-per-fibre discrete set fibration over the interval in
    classification normal form."""
    base = interval()
    cells = [("0", 2), ("0", 3), ("1", 4), ("1", 5)]
    hom = {(x, y): base.hom_of(x[0], y[0]) for x in cells for y in cells}
    total = make_object(cells, {c: c[1] for c in cells}, hom, name="L22")
    f = synthesize_morphism(total, base, {c: c[0] for c in cells},
                            name="L22->I")
    assert f is not None
    return total, base, f


def universe_subsets():
    """Small subsets of the naturals used as points of the propositional
    universe (and as discrete-set carriers for the set universe)."""
    return frozenset({3, 5}), frozenset({2})


_Z2_EXPECT = {"valid": True, "trivial_over_1": False,
              "discrete_over_1": False, "hlevel0": False,
              "set_over_1": False, "groupoid_over_1": True}


def _expect1(expect: dict) -> dict:
    """The expectations of the two-level image of a groupoid-level fixture
    expected to answer ``expect``."""
    return dict(expect, groupoid_over_1=True, set_over_1=expect["hlevel0"])


def fixture_objects1() -> dict[str, Fixture]:
    """Two-level objects with expected verdicts over the point.

    groupoid_over_1: the map to the terminal object is a fibration of
    groupoids (hlevel 1); set_over_1: of sets (hlevel 0).
    """
    lib = {name: Fixture(name, inflate(build(), name=name), _expect1(expect))
           for name, (build, expect) in _OBJECTS.items()}
    lib["Z2"] = Fixture("Z2", z2_object(), dict(_Z2_EXPECT))
    return lib


def fixture_fibrations1() -> dict[str, Eff1Morphism]:
    """Named two-level fibrations (the inflated groupoid-level bundle and
    the terminal maps of the two-level objects), as the library ships
    them."""
    return {e.name.removeprefix("eff1:"): e.value
            for e in fixture_library().values() if e.kind == "fibration1"}


# --- the shipped library ----------------------------------------------------

@dataclass
class LibraryEntry:
    """A named fixture with its declared expected verdicts.

    ``kind`` selects how the suite runner interprets ``value``:
    object / fibration / pathobj / subsets at the groupoid level,
    object1 / fibration1 at the two-dimensional level.  ``value`` is made
    by ``build`` on first access, so naming one entry builds only what that
    entry needs, and at the default limits whatever limits are in force: a
    fixture is an input, not part of a verdict's work.
    """
    name: str
    kind: str
    build: Callable[[], object] = field(repr=False)
    expect: dict = field(default_factory=dict)
    note: str = ""

    @cached_property
    def value(self):
        with fuel_limit(DEFAULT_FUEL), budget_limit(DEFAULT_BUDGET), \
                depth_limit(DEFAULT_DEPTH):
            return self.build()


def fixture_library() -> dict[str, LibraryEntry]:
    """The shipped library.  Names, kinds and expectations are fixed here;
    the values are built on first access, and entries over the same
    fixture share one instance of it."""
    lib: dict[str, LibraryEntry] = {}
    notes = {
        "I": "two points with singleton hom-sets: the map to the point "
             "has a section and is a trivial fibration",
        "J": "two points sharing a realizer with no connecting 1-cell: "
             "the map to the point is a fibration but far from trivial, "
             "and not discrete",
        "0": "the empty object",
        "1": "the point",
        "2": "two points with distinct realizers and no cross cells",
        "N5": "the naturals truncated at five",
    }
    for name, (build, expect) in _OBJECTS.items():
        lib[name] = LibraryEntry(name, "object", build, dict(expect),
                                 notes.get(name, ""))
    lib["E2I"] = LibraryEntry(
        "E2I", "fibration", lambda: two_point_bundle()[2],
        {"fibration": True, "hlevel0": True, "discrete": True},
        "a two-point fibre over each end of the interval; transport "
        "follows the fibre index")
    for name in _OBJECTS:
        if name == "0":  # the empty object has no path-object entry
            continue
        lib[f"P({name})"] = LibraryEntry(
            f"P({name})", "pathobj", lambda e=lib[name]: path_object(e.value),
            {"valid": True, "st_fibration": True, "st_discrete": True},
            "the path object; its endpoint projection is a discrete "
            "fibration")
    lib["L"] = LibraryEntry(
        "L", "fibration", lambda: line_bundle()[2],
        {"fibration": True, "propositional": True, "discrete": True,
         "classifies": True},
        "one point per fibre in classification normal form; classifies "
        "into the propositional universe with verified recovery")
    lib["U"] = LibraryEntry(
        "U", "subsets", universe_subsets,
        {"reflexive": True, "cross": True, "empty_isolated": True},
        "two inhabited universe points: reflexive 1-cells exist and, "
        "propositionally, so do connecting 1-cells; the empty subset "
        "connects to neither")
    objects1 = {name: (lambda name=name, e=lib[name]:
                       inflate(e.value, name=name), _expect1(expect))
                for name, (_, expect) in _OBJECTS.items()}
    objects1["Z2"] = (z2_object, dict(_Z2_EXPECT, twist_equivalence=True,
                                      modifications_differ=True))
    for name, (build, expect) in objects1.items():
        lib[f"eff1:{name}"] = LibraryEntry(
            f"eff1:{name}", "object1", build,
            {k: v for k, v in expect.items() if k != "hlevel0"},
            "two-dimensional image of the groupoid-level fixture"
            if name != "Z2" else
            "one cell per bit with loops under addition modulo two; the "
            "twist is an equivalence homotopic to the identity in two "
            "essentially different ways")
    # the inflated bundle and the terminal maps, over the entries above
    fibrations1 = {"E2I": lambda e=lib["E2I"]: inflate_morphism(e.value)}
    for name in objects1:
        fibrations1[f"{name}->1"] = \
            lambda x=lib[f"eff1:{name}"]: terminal_map1(x.value)
    for name, build in fibrations1.items():
        lib[f"eff1:{name}"] = LibraryEntry(
            f"eff1:{name}", "fibration1", build,
            {"fibration": True, "groupoid_over_1": True},
            "every fixture fibration is a fibration of groupoids")
    return lib
