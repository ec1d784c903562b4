import pytest

from effpath import pca
from effpath.core import check_morphism, identity, make_object, \
    synthesize_morphism
from effpath.classify import (
    NotNormalized, classify_prop_discrete, discrete_decide, hlevel_check,
    is_standard_discrete, prop_truncate, resize, truncation_compare,
    two_self_equivalences, u_hom_status, u_one_cell, u_pullback,
    univalence_check_prop,
)
from effpath.fixtures import interval, two, two_point_bundle, walking_pair
from effpath.path import (
    is_equivalence_decide, path_object, pullback,
    synthesize_fibration_witness, terminal_map, terminal_object,
)


# --- hlevels ----------------------------------------------------------------

def test_interval_is_contractible():
    assert hlevel_check(terminal_map(interval()), -2).status == "verified"


def test_depth_budget_is_checked_before_building(monkeypatch):
    f = terminal_map(interval())

    def refuse(*_args, **_kwargs):
        raise AssertionError("built an object past the depth budget")
    monkeypatch.setattr("effpath.eff1.make_object1", refuse)
    with pca.depth_limit(3):
        hv = hlevel_check(f, 1)
    assert hv.status == "unknown"
    assert hv.reason == "path object has 4 cells"


def test_walking_pair_is_a_set_but_not_a_proposition():
    f = terminal_map(walking_pair())
    assert hlevel_check(f, -1).status == "refuted"
    assert hlevel_check(f, 0).status == "verified"


def test_every_fixture_fibration_is_a_fibration_of_sets():
    total, base, p = two_point_bundle()
    for f in (p, terminal_map(interval()), terminal_map(two()),
              terminal_map(walking_pair())):
        assert hlevel_check(f, 0).status == "verified"


def test_hlevel_cumulativity():
    f = terminal_map(interval())
    for n in (-2, -1, 0):
        assert hlevel_check(f, n).status == "verified"


def test_hlevel_stable_under_pullback():
    total, base, p = two_point_bundle()
    pt = synthesize_morphism(terminal_object(), base, {"*": "0"})
    fibre = pullback(p, pt)
    assert hlevel_check(p, 0).status == "verified"
    assert hlevel_check(fibre.to_g_dom, 0).status == "verified"
    assert hlevel_check(fibre.to_g_dom, -1).status == "refuted"
    assert hlevel_check(p, -1).status == "refuted"


# --- propositional truncation -----------------------------------------------

def test_truncated_walking_pair_is_contractible_over_the_point():
    tr = prop_truncate(terminal_map(walking_pair()))
    assert check_morphism(tr.g) and check_morphism(tr.h)
    assert hlevel_check(tr.h, -1).status == "verified"
    # the truncation is equivalent to the interval: both are contractible
    c = tr.g.cod
    to_i = synthesize_morphism(c, interval(), {b: "0" for b in c.cells})
    assert to_i is not None
    assert is_equivalence_decide(to_i).status == "yes"


def test_truncation_is_idempotent_up_to_equivalence():
    total, base, p = two_point_bundle()
    tr = prop_truncate(p)
    tr2 = prop_truncate(tr.h)
    d = synthesize_morphism(tr.g.cod, tr2.g.cod,
                            {b: b for b in tr.g.cod.cells})
    assert d is not None
    assert is_equivalence_decide(d).status == "yes"


def test_truncation_compare_finds_the_connecting_map():
    total, base, p = two_point_bundle()
    tr = prop_truncate(p)
    tr2 = prop_truncate(tr.h)
    d, law = truncation_compare(tr, tr2.g if False else
                                synthesize_morphism(
                                    total, tr2.g.cod,
                                    {b: b for b in total.cells}),
                                tr2.h)
    assert d is not None
    assert law.status == "yes"


def test_truncation_preserves_standard_discreteness():
    total, base, p = two_point_bundle()
    assert is_standard_discrete(p)
    assert is_standard_discrete(prop_truncate(p).h)


def test_truncation_makes_any_fixture_propositional():
    for f in (terminal_map(walking_pair()), terminal_map(two()),
              two_point_bundle()[2]):
        tr = prop_truncate(f)
        assert hlevel_check(tr.h, -1).status == "verified"


# --- discreteness -----------------------------------------------------------

def test_two_over_point_is_discrete():
    d = discrete_decide(terminal_map(two()))
    assert d.status == "yes"
    assert is_standard_discrete(d.witness.standard)


def test_path_space_projection_is_discrete():
    for x in (interval(), two(), walking_pair()):
        bundle = path_object(x)
        assert discrete_decide(bundle.st).status == "yes"


def test_walking_pair_over_point_is_not_discrete():
    d = discrete_decide(terminal_map(walking_pair()))
    assert d.status == "no"


def test_interval_is_discrete():
    # injective realizers: discrete even though not a set of points
    assert discrete_decide(terminal_map(interval())).status == "yes"


def test_quotient_collapses_connected_realizer_twins():
    cells = ("x", "y")
    hom = {(a, b): {0} for a in cells for b in cells}
    obj = make_object(cells, {"x": 0, "y": 0}, hom, name="T")
    d = discrete_decide(terminal_map(obj))
    assert d.status == "yes"
    assert len(d.witness.quotient.cells) == 1
    assert is_equivalence_decide(d.witness.inclusion).status == "yes"


# --- the propositional universe ---------------------------------------------

def _normalized_line_bundle():
    """A one-point-per-fibre standard discrete propositional fibration over
    the interval, in normal form (cells (a, n), realizer n)."""
    base = interval()
    cells = [("0", 5), ("1", 7)]
    hom = {(x, y): base.hom_of(x[0], y[0]) for x in cells for y in cells}
    total = make_object(cells, {c: c[1] for c in cells}, hom, name="L")
    f = synthesize_morphism(total, base, {c: c[0] for c in cells})
    assert f is not None
    w = synthesize_fibration_witness(f)
    assert w is not None
    return f, w


def test_classification_of_a_line_bundle():
    f, w = _normalized_line_bundle()
    cl = classify_prop_discrete(f, w)
    assert cl.k.zero == {"0": frozenset({5}), "1": frozenset({7})}
    assert cl.comparison.status == "yes"


def test_classifying_one_cells_land_in_the_universe():
    f, w = _normalized_line_bundle()
    cl = classify_prop_discrete(f, w)
    for (a, a2, pi), (r, s) in cl.k.one.items():
        status = u_hom_status(cl.k.zero[a], cl.k.zero[a2],
                              pca.tuple_encode(r, s))
        assert status == "yes"


def test_empty_fibration_classifies_to_constant_empty():
    base = interval()
    total = make_object((), {}, {}, name="0")
    f = synthesize_morphism(total, base, {})
    w = synthesize_fibration_witness(f)
    cl = classify_prop_discrete(f, w)
    assert cl.k.zero == {"0": frozenset(), "1": frozenset()}
    assert cl.comparison.status == "yes"


def test_classification_rejects_unnormalized_input():
    total, base, p = two_point_bundle()
    w = synthesize_fibration_witness(p)
    with pytest.raises(NotNormalized):
        classify_prop_discrete(p, w)


def test_universe_one_cell_between_equal_subsets():
    x = frozenset({3, 5})
    n = u_one_cell(x, x)
    assert n is not None and u_hom_status(x, x, n) == "yes"
    assert u_one_cell(x, frozenset()) is None
    assert u_one_cell(frozenset(), frozenset()) is not None


def test_universe_one_cell_out_of_fuel_is_unknown_not_no():
    # NO comes only from definite emptiness: a tabulated 1-cell whose
    # lookups run out of fuel is UNKNOWN
    x = frozenset({3, 5})
    n = u_one_cell(x, x)
    with pca.fuel_limit(0):
        assert u_hom_status(x, x, n) == "unknown"
    assert u_hom_status(x, x, n) == "yes"


def test_universe_membership_rejects_partial_trackings():
    x, y = frozenset({3, 5}), frozenset({4})
    n = pca.tuple_encode(pca.tabulate({3: 4}), pca.tabulate({4: 3}))
    # r diverges on 5, so <r, s> is not a 1-cell from x to y
    assert u_hom_status(x, y, n) == "no"


def test_univalence_for_the_identity_equivalence():
    z = interval()
    assignment = {"0": frozenset({2}), "1": frozenset({2})}
    p_obj = u_pullback(z, assignment)
    proj = synthesize_morphism(p_obj, z, {c: c[0] for c in p_obj.cells})
    w = identity(p_obj)
    H, d = univalence_check_prop(w, proj, proj)
    assert d.status == "yes"
    for zc, (r, s) in H.items():
        assert pca.apply(r, 2) == 2


def test_univalence_for_a_swap_equivalence():
    z = terminal_object()
    assignment = {"*": frozenset({3, 5})}
    p_obj = u_pullback(z, assignment, name="P")
    q_obj = u_pullback(z, assignment, name="Q")
    proj_p = synthesize_morphism(p_obj, z, {c: "*" for c in p_obj.cells})
    proj_q = synthesize_morphism(q_obj, z, {c: "*" for c in q_obj.cells})
    w = synthesize_morphism(p_obj, q_obj,
                            {("*", 3): ("*", 5), ("*", 5): ("*", 3)})
    assert w is not None
    H, d = univalence_check_prop(w, proj_p, proj_q)
    assert d.status == "yes"
    r, s = H["*"]
    assert pca.apply(r, 3) == 5 and pca.apply(r, 5) == 3


def test_classifying_maps_of_the_same_fibration_are_homotopic():
    f, w = _normalized_line_bundle()
    cl1 = classify_prop_discrete(f, w)
    cl2 = classify_prop_discrete(f, w)
    for a in f.cod.cells:
        n = u_one_cell(cl1.k.zero[a], cl2.k.zero[a])
        assert n is not None
        assert u_hom_status(cl1.k.zero[a], cl2.k.zero[a], n) == "yes"


# --- resizing ---------------------------------------------------------------

def test_resize_of_normal_form_is_an_isomorphism():
    f, w = _normalized_line_bundle()
    rs = resize(f)
    assert len(rs.obj.cells) == len(f.dom.cells)
    assert [d.status for d in rs.laws] == ["yes", "yes"]


def test_resize_collapses_realizer_twins():
    cells = ("x", "y")
    hom = {(a, b): {0} for a in cells for b in cells}
    obj = make_object(cells, {"x": 0, "y": 0}, hom, name="T")
    rs = resize(terminal_map(obj))
    assert len(rs.obj.cells) == 1
    assert [d.status for d in rs.laws] == ["yes", "yes"]


def test_resize_output_is_discrete():
    for f in (prop_truncate(terminal_map(walking_pair())).h,
              _normalized_line_bundle()[0]):
        rs = resize(f)
        assert discrete_decide(rs.proj).status == "yes"


# --- the obstruction --------------------------------------------------------

def test_two_has_two_distinct_self_equivalences():
    rep = two_self_equivalences()
    assert rep.first_is_equivalence.status == "yes"
    assert rep.second_is_equivalence.status == "yes"
    assert rep.homotopic.status == "no"


def test_interval_self_equivalences_are_homotopic():
    rep = two_self_equivalences(interval())
    assert rep.first_is_equivalence.status == "yes"
    assert rep.second_is_equivalence.status == "yes"
    assert rep.homotopic.status == "yes"
