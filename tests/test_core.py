import pytest
from hypothesis import HealthCheck, given, settings

from effpath import pca
from effpath.core import (
    EffMorphism, MapsDoNotFit, check_morphism, check_object, compose,
    ho_equal, identity, make_object, p_morphism, p_object,
    synthesize_morphism,
)
from effpath.fixtures import (
    interval, nat_trunc, swap_morphism, two, walking_pair,
)
from effpath.path import homotopic_decide, terminal_map, terminal_object

import strategies


def test_walking_pair_is_valid():
    assert check_object(walking_pair())


def test_broken_composition_is_invalid():
    j = walking_pair()
    # a composition code outputting 1, which is outside hom(0,0) = {0}
    j.comp_code = pca.compose_codes(pca.SUCC_C, pca.const_code(0))
    v = check_object(j)
    assert v.status == "invalid"
    assert "composition" in v.reason


def test_truncated_nno_is_valid():
    assert check_object(nat_trunc(3))


def test_interval_is_valid():
    assert check_object(interval())


def test_identity_is_valid():
    i = interval()
    assert check_morphism(identity(i))


def test_swap_on_walking_pair_is_valid():
    j = walking_pair()
    f = EffMorphism(j, j, {"0": "1", "1": "0"},
                    {(a, b): {0: 0} if a == b else {}
                     for a in j.cells for b in j.cells},
                    pca.tabulate({0: 0}),
                    pca.tabulate({pca.tuple_encode(0, 0, 0): 0}))
    assert check_morphism(f)


def test_swap_on_two_with_identity_tracking_is_invalid():
    t = two()
    f = swap_morphism(t)
    assert f is not None and check_morphism(f)
    f.tracking0 = pca.ID
    v = check_morphism(f)
    assert v.status == "invalid"
    assert "tracking0" in v.reason


def test_identity_is_unit_for_composition():
    i = interval()
    f = swap_morphism(i)
    left = compose(identity(i), f)
    right = compose(f, identity(i))
    assert left.zero_map == f.zero_map == right.zero_map
    assert left.one_map == f.one_map == right.one_map
    assert check_morphism(left) and check_morphism(right)


def test_composition_is_associative_on_cells():
    j = walking_pair()
    f = swap_morphism(j)
    assert f is not None
    lhs = compose(compose(f, f), f)
    rhs = compose(f, compose(f, f))
    assert lhs.zero_map == rhs.zero_map
    assert lhs.one_map == rhs.one_map


def test_composite_tracking_agrees_with_composite_map():
    n = nat_trunc(4)
    cells = n.cells
    rot = synthesize_morphism(n, n, {c: cells[(int(c) + 1) % 5]
                                     for c in cells})
    back = synthesize_morphism(n, n, {c: cells[(int(c) + 4) % 5]
                                      for c in cells})
    assert rot is not None and back is not None
    comp = compose(back, rot)
    assert check_morphism(comp)
    for c in cells:
        assert pca.apply(comp.tracking0, n.realizer[c]) == n.realizer[c]


def test_maps_that_do_not_fit_do_not_compose():
    # I -> 1 after J -> 1: J -> 1 ends at the point, not at I
    i, j = terminal_map(interval()), terminal_map(walking_pair())
    with pytest.raises(MapsDoNotFit,
                       match=r"^I->1 does not start where J->1 ends$"):
        compose(i, j)


def test_synthesize_rejects_untrackable_map():
    # swapping the two cells of J is trackable, but J -> 2 hitting both
    # points is not: both J-cells carry realizer 0
    j, t = walking_pair(), two()
    assert synthesize_morphism(j, t, {"0": "0", "1": "1"}) is None
    assert synthesize_morphism(j, t, {"0": "1", "1": "1"}) is not None


# --- homotopy quotient functor ---------------------------------------------

def test_p_object_of_interval():
    p = p_object(interval())
    assert len(p.carrier) == 2
    assert all(p.equality[k] for k in p.equality)


def test_p_object_formula():
    # frozen from the defining display: <alpha a, pi, alpha a'> per 1-cell
    j = walking_pair()
    p = p_object(j)
    assert p.equality[("0", "0")] == {pca.tuple_encode(0, 0, 0)}
    assert p.equality[("0", "1")] == frozenset()


def test_ho_equal_identity_vs_swap_on_interval():
    i = interval()
    assert ho_equal(identity(i), swap_morphism(i)).status == "yes"


def test_ho_equal_identity_vs_swap_on_walking_pair():
    j = walking_pair()
    assert ho_equal(identity(j), swap_morphism(j)).status == "no"


def test_ho_equal_is_entailment_by_a_uniform_realizer():
    # the points a and b give relations that differ as sets, but one code
    # takes each to the other: <0, 0, 0> <-> <0, 1, 1>, <0, 1, 0> <-> <0, 0, 1>
    A = make_object("ab", {"a": 0, "b": 1},
                    {("a", "a"): {0}, ("b", "b"): {0},
                     ("a", "b"): {1}, ("b", "a"): {1}})
    one = terminal_object()
    at_a, at_b = (synthesize_morphism(one, A, {"*": c}) for c in "ab")
    assert homotopic_decide(at_a, at_b).status == "yes"
    assert ho_equal(at_a, at_b).status == "yes"
    j = walking_pair()
    d = ho_equal(identity(j), swap_morphism(j))
    assert d.reason.startswith("p(f) <= p(g): empty at input"), d


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(strategies.parallel_maps())
def test_homotopic_iff_ho_equal(maps):
    f, g = maps
    assert ho_equal(f, g).status == homotopic_decide(f, g).status


def test_p_morphism_table_entries():
    i = interval()
    f = identity(i)
    table = p_morphism(f)
    assert table[("0", "1")] == {pca.tuple_encode(0, 0, 1)}
