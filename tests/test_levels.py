"""The decisions about fibrations, pinned across the two levels.  An object
stands for its map to the point.

Triviality, discreteness and the h-levels are defined for fibrations: a map
that is not one is NO (REFUTED) for each.  At level 0, triviality is the
fibration test followed by the equivalence search, and h-level -1 asks
whether the fibrewise path object is trivial; discreteness and the h-levels
from 0 up are level 1 on the inflated map (``inflate_morphism``).

The level-0 statuses of seven decisions are pinned to a table, and every YES
witness is checked at level 0.  The decisions are also compared live with
level 1 on the inflated map, each under the one name that serves both
levels: where each level has its own implementation or stages (equivalence,
triviality, fibration, the pullback) the two must agree, and elsewhere level
0 must stay a view of level 1.  Random maps check the same laws beyond the
library.  Each construction both levels have returns one result type at
either level, and each generic name dispatches to its level-1
implementation."""

import functools
import inspect

import pytest
from hypothesis import HealthCheck, given, settings

from effpath import eff1
from effpath.classify import (
    Classification, DiscreteNormalForm, REFUTED, ResizeBundle,
    TruncationBundle, VERIFIED, classify_prop_discrete, discrete_decide,
    hlevel_check, is_standard_discrete, prop_truncate, resize,
)
from effpath.constructions import (
    HomExponential, JExponential, PiBundle, _pi_fibre, _pi_skeleton, hexp,
    hexp_J, pi_type,
)
from effpath.core import (
    EffMorphism, EffObject, NO, UNKNOWN, YES, _borrowed, _to_lender,
    check_morphism, check_object, compose, identity, make_object,
    synthesize_morphism,
)
from effpath.eff1 import (
    Eff1Morphism, Eff1Object, check_fibration1, check_morphism1,
    check_object1, classify_discrete_set, compose1, discrete1_decide,
    fib_path_object1, fibrewise_homotopic1_decide, hexp_J1, hlevel1_check,
    identity1, inflate_morphism, morphism_candidates1, path_object1,
    pullback1, synthesize_fibration1_witness, synthesize_morphism1,
    terminal_map1, terminal_object1, truncate1, z2_object,
)
from effpath.fixtures import (
    Fixture, fixture_library, fixture_objects, fixture_objects1, interval,
)
from effpath.pca import DEFAULT_FUEL, budget_limit, fuel_limit
from effpath.path import (
    EquivalenceWitness, PathObjectBundle, PullbackBundle, _homotopy_stages,
    check_fibration, check_homotopy, fib_path_object, fibration_decide,
    fibrewise_homotopic_decide, is_equivalence_decide,
    is_trivial_fibration, morphism_candidates, path_object, pullback,
    synthesize_fibration_witness, terminal_map, terminal_object,
)

import strategies


def _status(decide):
    return lambda f: decide(f).status


# procedure -> its one name at both levels
PROCEDURES = {
    **{f"hlevel({n})": lambda f, n=n: hlevel_check(f, n).status
       for n in (-2, -1, 0, 1)},
    "discrete": _status(discrete_decide),
    "trivial": _status(is_trivial_fibration),
    "equivalence": _status(is_equivalence_decide),
    "fibration": _status(fibration_decide),
    "pullback cells": lambda f: len(pullback(f, f).obj.cells),
}
OVER_THE_POINT = ("hlevel(-2)", "hlevel(-1)", "hlevel(0)", "hlevel(1)",
                  "discrete", "trivial", "equivalence")
FIBRATIONS = ("hlevel(-1)", "hlevel(0)", "hlevel(1)", "fibration",
              "discrete", "equivalence", "pullback cells")
CASES = ([(name, p) for name in ("0", "1", "2", "I", "J", "N5")
          for p in OVER_THE_POINT]
         + [(name, p) for name in ("E2I", "L") for p in FIBRATIONS]
         + [(name, p) for name in ("P(I).r", "*->loop", "twins->U")
            for p in ("fibration", "trivial")])

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
    "P(I).r": "YNNRRRR",
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
    "*->loop": "YNNRRRR",
    "twins->U": "NNNRRRR",
}
_LETTER = {"yes": "Y", "no": "N", "verified": "V", "refuted": "R"}


def _loop_under_point():
    """The point into one cell with the two loops {0, 1}: not a fibration,
    since the loop 1 has no lift."""
    A = make_object(("a",), {"a": 0}, {("a", "a"): {0, 1}}, name="loop")
    return synthesize_morphism(terminal_object(), A, {"*": "a"},
                               name="*->loop")


def _twins_over_a_forced_unit():
    """Two realizer twins over a, whose realizer a' shares: the unit code
    must pick 1 there, the one loop a and a' both have, while f sends every
    1-cell between the twins to 0, so the loop 1 has no lift."""
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
def _decide(name, procedure, fuel=DEFAULT_FUEL):
    f = _map(name)
    with fuel_limit(fuel):
        if procedure.startswith("hlevel"):
            return hlevel_check(f, int(procedure[7:-1]))
        return {"equivalence": is_equivalence_decide,
                "trivial": is_trivial_fibration,
                "discrete": discrete_decide}[procedure](f)


@pytest.mark.parametrize("name", REFERENCE)
def test_level_0_statuses_match_the_reference(name):
    got = "".join(_LETTER.get(_decide(name, p).status, "?") for p in PINNED)
    assert got == REFERENCE[name]


def test_running_out_of_fuel_is_unknown():
    for name, procedure in (("P(N5).st", "hlevel(-1)"), ("I", "discrete")):
        d = _decide(name, procedure, 7)
        assert (d.status, d.reason) == (UNKNOWN, "fuel 7 exhausted")


@pytest.mark.parametrize("decide", (is_equivalence_decide,
                                    is_trivial_fibration))
def test_running_out_of_budget_is_unknown_at_both_levels(decide):
    f = terminal_map(interval())
    for level in (f, inflate_morphism(f)):
        with budget_limit(0):
            d = decide(level)
        assert (d.status, d.reason) == (UNKNOWN, "budget 0 exhausted")


@pytest.mark.parametrize("fuel", (7, 100, 1000))
def test_low_fuel_never_raises(fuel):
    # a status may be UNKNOWN below the default fuel, but it is a status
    for name in REFERENCE:
        for procedure in PINNED:
            assert _decide(name, procedure, fuel).status in _LETTER.keys() \
                | {UNKNOWN}, (name, procedure)


@pytest.mark.parametrize("name, procedure", CASES)
def test_level_0_decides_as_level_1_on_the_inflated_input(name, procedure):
    decide = PROCEDURES[procedure]
    got = decide(_map(name))
    assert got == decide(_inflated(name)) and got != UNKNOWN


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


# --- one result type at either level ---------------------------------------

def _lib(name):
    return fixture_library()[name].value


def _pi(pi, witness, ident, f):
    """Pi along f of the identity of its domain."""
    return pi(f, witness(f), ident(f.dom))


def _classify(classify, witness, f):
    return classify(f, witness(f))


# construction -> (its result type, level 0 on a library input, level 1 on
# the two-level image of that input)
RESULTS = {
    "pullback": (PullbackBundle,
                 lambda: pullback(_lib("E2I"), _lib("E2I")),
                 lambda: pullback1(_inflated("E2I"), _inflated("E2I"))),
    "path object": (PathObjectBundle,
                    lambda: path_object(_lib("I")),
                    lambda: path_object1(_lib("eff1:I"))),
    "J-exponential": (JExponential,
                      lambda: hexp_J(_lib("2")),
                      lambda: hexp_J1(_lib("eff1:2"))),
    "Pi": (PiBundle,
           lambda: _pi(pi_type, synthesize_fibration_witness, identity,
                       _lib("E2I")),
           lambda: _pi(pi_type, synthesize_fibration1_witness, identity1,
                       _inflated("E2I"))),
    "truncation": (TruncationBundle,
                   lambda: prop_truncate(_map("J")),
                   lambda: truncate1(_lib("eff1:J->1"), -1)),
    "resizing": (ResizeBundle,
                 lambda: resize(_lib("L")),
                 lambda: resize(_inflated("L"))),
    "equivalence witness": (
        EquivalenceWitness,
        lambda: is_equivalence_decide(_map("I")).witness,
        lambda: is_equivalence_decide(_lib("eff1:I->1")).witness),
    "discrete normal form": (
        DiscreteNormalForm,
        lambda: discrete_decide(_lib("E2I")).witness,
        lambda: discrete1_decide(_inflated("E2I")).witness),
    "classification": (
        Classification,
        lambda: _classify(classify_prop_discrete,
                          synthesize_fibration_witness, _lib("L")),
        lambda: _classify(classify_discrete_set,
                          synthesize_fibration1_witness, _inflated("L"))),
    "fixture": (Fixture,
                lambda: fixture_objects()["I"],
                lambda: fixture_objects1()["I"]),
    "exponential": (HomExponential,
                    lambda: hexp(_lib("I"), terminal_object()),
                    lambda: hexp(_lib("eff1:I"), terminal_object1())),
}


@pytest.mark.parametrize("construction", RESULTS)
def test_each_construction_returns_one_type_at_either_level(construction):
    result, level0, level1 = RESULTS[construction]
    assert type(level0()) is result
    assert type(level1()) is result


def test_resize_behaves_the_same_at_both_levels():
    # J's two cells over the point share a realizer: the round trip over
    # the small model, which comes first, holds and the other does not
    for f in (_map("J"), _inflated("J")):
        rs = resize(f)
        assert rs.obj.name == "rsz(J)"
        assert [d.status for d in rs.laws] == [YES, NO]
    # the projection is the identity on 1-cells, also on Z2, whose hom-sets
    # have two members: collapsing each onto its least member would turn
    # the undecided discreteness of Z2's projection into NO
    Z2 = z2_object()
    for f in (_map("J"), _inflated("J"), identity(eff1.flatten(Z2)),
              identity1(Z2)):
        rs = resize(f)
        C = rs.obj
        assert all(rs.proj.one_map[x, y][p] == p for x in C.cells
                   for y in C.cells for p in C.hom_of(x, y)), f.name
    assert discrete_decide(resize(identity1(Z2)).proj).status == UNKNOWN
    # and at level 1 the identity on 2-cells, here on a loop's two 2-cells
    X = eff1.make_object1(("a",), {"a": 0}, {("a", "a"): {0}},
                          {("a", "a", 0, 0): {0, 1}}, name="X")
    assert resize(identity1(X)).proj.two_map == {
        (("a", 0), ("a", 0), 0, 0): {0: 0, 1: 1}}


# --- random maps ------------------------------------------------------------

@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(strategies.maps())
def test_decisions_about_fibrations_on_random_maps(f):
    # discreteness and h-levels from 0 up are level 1 on the inflated map
    # already, so level 1 is called here only where level 0 has its own code
    f1 = inflate_morphism(f)
    levels = [hlevel_check(f, n).status for n in (-2, -1, 0)]
    trivial, discrete = is_trivial_fibration(f).status, \
        discrete_decide(f).status
    assert is_trivial_fibration(f1).status == trivial
    assert [hlevel_check(f1, n).status for n in (-2, -1)] == levels[:2]
    if fibration_decide(f).status == NO:
        assert (trivial, discrete) == (NO, NO)
        assert levels == [REFUTED] * 3
        return
    assert trivial == is_equivalence_decide(f).status
    assert UNKNOWN not in (*levels, trivial, discrete)
    for lower, higher in zip(levels, levels[1:]):
        assert lower != VERIFIED or higher == VERIFIED
    assert discrete != YES or levels[2] == VERIFIED


# --- one name at both levels ------------------------------------------------

@functools.cache
def _lib1(name):
    return fixture_library()[f"eff1:{name}"].value


def _made(m):
    """The status of a map a construction made: its check."""
    return check_morphism1(m).status


def _built(bundle):
    """The status of a construction: the check of the object it built."""
    return check_object1(bundle.obj).status


def _witness(f):
    return synthesize_fibration1_witness(f)


def _e2i():
    return _lib1("E2I")


# generic name -> (its eff1 implementation, the status of calling either on
# the level-1 library)
REGISTERED = {
    check_object: (check_object1, lambda fn: fn(_lib1("I")).status),
    check_morphism: (check_morphism1, lambda fn: fn(_e2i()).status),
    synthesize_morphism: (synthesize_morphism1, lambda fn: _made(
        fn(_lib1("I"), _lib1("I"), {"0": "1", "1": "0"}))),
    identity: (identity1, lambda fn: _made(fn(_lib1("2")))),
    compose: (compose1, lambda fn: _made(
        fn(terminal_map1(_e2i().cod), _e2i()))),
    terminal_map: (terminal_map1, lambda fn: _made(fn(_lib1("2")))),
    check_fibration: (check_fibration1,
                      lambda fn: fn(_e2i(), _witness(_e2i())).status),
    synthesize_fibration_witness: (
        synthesize_fibration1_witness,
        lambda fn: check_fibration1(_e2i(), fn(_e2i())).status),
    pullback: (pullback1, lambda fn: _built(fn(_e2i(), _e2i()))),
    fib_path_object: (fib_path_object1,
                      lambda fn: _built(fn(_lib1("I->1")))),
    fibrewise_homotopic_decide: (
        fibrewise_homotopic1_decide,
        lambda fn: fn(_e2i(), _e2i(), identity1(_e2i().cod)).status),
    morphism_candidates: (morphism_candidates1, lambda fn: [
        _made(m) for m in fn(_lib1("I"), _lib1("I"), {"0": "1", "1": "0"})]),
    hexp_J: (hexp_J1, lambda fn: _built(fn(_lib1("2")))),
    hlevel_check: (hlevel1_check, lambda fn: fn(_e2i(), 0).status),
    discrete_decide: (discrete1_decide, lambda fn: fn(_e2i()).status),
}

# private hook -> its eff1 implementation; a hook has no public level-1
# name to call
HOOKS = {
    _homotopy_stages: eff1._homotopy1_stages,
    _borrowed: eff1._borrowed1,
    _to_lender: eff1._to_lender1,
    _pi_fibre: eff1._pi_fibre1,
    _pi_skeleton: eff1._pi_skeleton1,
}
IMPLEMENTATIONS = {**{generic: impl for generic, (impl, _call)
                      in REGISTERED.items()}, **HOOKS}

# the level-1 copies whose level-0 bodies now serve both levels
MERGED = ("not_a_fibration1", "fibration1_decide", "trivial1_decide",
          "mediate1", "enumerate_members1", "hexp_J1_morphism",
          "homotopy_pullback1_check", "freyd_square1_check",
          "pi_transpose1_round_trip", "is_equivalence1_decide",
          "_inverse_search1", "homotopic1_decide", "_homotopic1",
          "HomExponential1", "pi_type1", "pi_transpose1", "_section_key1",
          "resize1", "hexp1", "check_homotopy1", "homotopy1_from_h1",
          "Homotopy1")


@pytest.mark.parametrize("generic", REGISTERED, ids=lambda g: g.__name__)
def test_each_generic_name_dispatches_to_its_level_1_implementation(generic):
    impl, call = REGISTERED[generic]
    assert impl in (generic.dispatch(Eff1Object),
                    generic.dispatch(Eff1Morphism))
    assert impl.__module__ == "effpath.eff1"
    assert call(generic) == call(impl)


@pytest.mark.parametrize("generic", IMPLEMENTATIONS,
                         ids=lambda g: g.__name__)
def test_each_generic_registers_its_level_0_class(generic):
    level0 = {Eff1Object: EffObject, Eff1Morphism: EffMorphism}
    impl = IMPLEMENTATIONS[generic]
    level1 = next(cls for cls in level0 if generic.registry.get(cls) is impl)
    assert impl.__module__ == "effpath.eff1"
    assert generic.registry[level0[level1]] is generic.registry[object]


def test_terminal_map_takes_the_same_parameters_at_both_levels():
    def parameters(fn):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(fn).parameters.values()]
    assert parameters(terminal_map) == parameters(terminal_map1) == [
        ("obj", inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty)]


def test_the_merged_level_1_copies_are_gone():
    assert len(REGISTERED) == 15
    assert [name for name in MERGED if hasattr(eff1, name)] == []
