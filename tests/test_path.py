import dataclasses

import pytest

from effpath import pca
from effpath.core import check_morphism, check_object, compose, identity
from effpath.eff1 import (
    inflate, synthesize_fibration1_witness, terminal_map1, trivial1_section,
)
from effpath.fixtures import (
    fixture_library, interval, nat_trunc, swap_morphism, two,
    two_point_bundle, walking_pair,
)
from effpath.path import (
    FibrationWitness, NotTrivial, TransportFailed, check_fibration,
    check_homotopy, construct_section, fib_path_object,
    fibration_decide, fibrewise_homotopic_decide, groupoid_structure,
    homotopic_decide, is_equivalence_decide, is_trivial_fibration,
    lift_endpoint, mediate, pair_morphism, path_object, pullback,
    sum_object, synthesize_fibration_witness, synthesize_morphism,
    terminal_map, terminal_object,
)


# --- fibrations -------------------------------------------------------------

def test_terminal_map_is_a_fibration():
    for obj in (interval(), walking_pair(), two()):
        f = terminal_map(obj)
        w = synthesize_fibration_witness(f)
        assert w is not None
        assert check_fibration(f, w)


def test_path_object_projection_is_a_fibration():
    bundle = path_object(interval())
    assert bundle.witness is not None
    assert check_fibration(bundle.st, bundle.witness)


def test_point_into_interval_is_not_a_fibration():
    i = interval()
    pt = synthesize_morphism(terminal_object(), i, {"*": "0"})
    assert pt is not None and check_morphism(pt)
    # no lift over the path 0 -> 1: the image misses cell 1
    assert fibration_decide(pt).status == "no"


def test_fixture_bundle_is_a_fibration():
    total, base, p = two_point_bundle()
    assert check_object(total) and check_morphism(p)
    w = synthesize_fibration_witness(p)
    assert w is not None and check_fibration(p, w)


def test_check_fibration_rejects_wrong_witness():
    f = terminal_map(walking_pair())
    w = synthesize_fibration_witness(f)
    bad = FibrationWitness(pca.const_code(99), w.lift1, w.lift2)
    v = check_fibration(f, bad)
    assert v.status == "invalid"


# --- pullbacks --------------------------------------------------------------

def test_pullback_along_identity_is_isomorphic():
    total, base, p = two_point_bundle()
    pb = pullback(p, identity(base))
    assert len(pb.obj.cells) == len(total.cells)
    assert check_object(pb.obj)
    assert fibration_decide(pb.to_g_dom).status == "yes"


def test_pullback_of_pair_along_point_is_a_pair():
    one = terminal_object()
    pb = pullback(terminal_map(walking_pair()), identity(one))
    assert len(pb.obj.cells) == 2


def test_pullback_of_path_fibration_along_diagonal():
    j = walking_pair()
    bundle = path_object(j)
    assert len(bundle.obj.cells) == 2  # only diagonal triples: J(0,1) is empty
    diag = pair_morphism(bundle.st.cod, identity(j), identity(j))
    pb = pullback(bundle.st, diag)
    assert len(pb.obj.cells) == 2


def test_mediating_map_into_pullback():
    total, base, p = two_point_bundle()
    pb = pullback(p, identity(base))
    med = mediate(pb, p, identity(total))
    assert check_morphism(med)
    for x in total.cells:
        assert pb.to_f_dom.zero_map[med.zero_map[x]] == x


# --- path objects -----------------------------------------------------------

def test_path_object_sizes():
    assert len(path_object(interval()).obj.cells) == 4
    assert len(path_object(walking_pair()).obj.cells) == 2


def test_path_object_factorisation():
    i = interval()
    bundle = path_object(i)
    diag = compose(bundle.st, bundle.r)
    for a in i.cells:
        assert diag.zero_map[a] == (a, a)
    assert is_equivalence_decide(bundle.r).status == "yes"


def test_fibrewise_path_object_of_fixture_bundle():
    total, base, p = two_point_bundle()
    bundle = fib_path_object(p)
    assert check_object(bundle.obj)
    assert bundle.witness is not None
    assert check_fibration(bundle.st, bundle.witness)
    assert is_equivalence_decide(bundle.r).status == "yes"


# --- homotopy ---------------------------------------------------------------

def test_identity_homotopic_to_swap_on_interval():
    i = interval()
    d = homotopic_decide(identity(i), swap_morphism(i))
    assert d.status == "yes"
    assert check_homotopy(identity(i), swap_morphism(i), d.witness)


def test_identity_not_homotopic_to_swap_on_walking_pair():
    j = walking_pair()
    assert homotopic_decide(identity(j), swap_morphism(j)).status == "no"


def test_identity_homotopic_to_itself():
    for obj in (interval(), walking_pair(), two(), nat_trunc(3)):
        d = homotopic_decide(identity(obj), identity(obj))
        assert d.status == "yes"


def test_fibrewise_homotopy_reflexive():
    total, base, p = two_point_bundle()
    s = synthesize_morphism(base, total, {"0": "e00", "1": "e01"})
    assert s is not None
    assert fibrewise_homotopic_decide(s, s, p).status == "yes"


def test_fibre_swapping_sections_not_fibrewise_homotopic():
    total, base, p = two_point_bundle()
    s0 = synthesize_morphism(base, total, {"0": "e00", "1": "e01"})
    s1 = synthesize_morphism(base, total, {"0": "e10", "1": "e11"})
    assert s0 is not None and s1 is not None
    assert fibrewise_homotopic_decide(s0, s1, p).status == "no"


def test_fibrewise_agrees_with_plain_over_point():
    objs = [interval(), walking_pair(), two()]
    for obj in objs:
        p = terminal_map(obj)
        fs = [identity(obj), swap_morphism(obj)]
        for f in fs:
            for g in fs:
                plain = homotopic_decide(f, g).status
                fib = fibrewise_homotopic_decide(f, g, p).status
                assert plain == fib


# --- equivalences and sections ----------------------------------------------

def test_swap_on_two_is_an_equivalence():
    assert is_equivalence_decide(swap_morphism(two())).status == "yes"


def test_interval_to_point_is_an_equivalence():
    assert is_equivalence_decide(terminal_map(interval())).status == "yes"


def test_walking_pair_to_point_is_not_an_equivalence():
    assert is_equivalence_decide(terminal_map(walking_pair())).status == "no"


def test_interval_to_point_is_trivial():
    assert is_trivial_fibration(terminal_map(interval())).status == "yes"


def test_walking_pair_to_point_is_not_trivial():
    assert is_trivial_fibration(terminal_map(walking_pair())).status == "no"


def test_constructed_section_of_trivial_fibration():
    i = interval()
    f = terminal_map(i)
    w = synthesize_fibration_witness(f)
    eq = is_equivalence_decide(f)
    assert eq.status == "yes"
    s = construct_section(f, w, eq.witness.inverse, eq.witness.eps)
    assert check_morphism(s)
    assert compose(f, s).zero_map == {"*": "*"}
    assert homotopic_decide(compose(s, f), identity(i)).status == "yes"


def test_section_of_identity_fibration_is_identity():
    i = interval()
    f = identity(i)
    w = synthesize_fibration_witness(f)
    eq = is_equivalence_decide(f)
    s = construct_section(f, w, eq.witness.inverse, eq.witness.eps)
    assert s.zero_map == {a: a for a in i.cells}


# --- lifting through a witness ---------------------------------------------

def _library_fibrations():
    """Every fibration of the shipped library at both levels, with its
    synthesized witness."""
    for name, entry in sorted(fixture_library().items()):
        if entry.kind in ("fibration", "pathobj"):
            f = entry.value.st if entry.kind == "pathobj" else entry.value
            yield name, f, synthesize_fibration_witness(f)
        elif entry.kind == "fibration1":
            yield name, entry.value, synthesize_fibration1_witness(entry.value)


def _lift_inputs(f):
    for y in f.dom.cells:
        for x2 in f.cod.cells:
            for pi in sorted(f.cod.hom_of(f.zero_map[y], x2)):
                yield y, x2, pi


def test_lift_endpoint_lands_over_the_target_by_a_lift_of_pi():
    for name, f, w in _library_fibrations():
        assert w is not None, name
        for y, x2, pi in _lift_inputs(f):
            y2, rho = lift_endpoint(f, w, y, x2, pi)
            assert f.zero_map[y2] == x2, (name, y, x2, pi)
            assert rho in f.dom.hom_of(y, y2), (name, y, x2, pi)
            assert f.one_map[(y, y2)][rho] == pi, (name, y, x2, pi)


def _moved_lift0(f, w, y, x2, pi):
    """w with its lift0 entry at <y, x2, pi> moved off every realizer."""
    R, RA = f.dom.realizer, f.cod.realizer
    table = {}
    for y_, x_, pi_ in _lift_inputs(f):
        t = pca.tuple_encode(R[y_], RA[x_], pi_)
        table[t] = pca.apply(w.lift0, t)
    table[pca.tuple_encode(R[y], RA[x2], pi)] = max(R.values()) + 1
    return dataclasses.replace(w, lift0=pca.tabulate(table))


def test_a_moved_lift_names_no_cell_and_no_section():
    # the sections of I -> 1 lift the counit at * starting from g(*)
    f = terminal_map(interval())
    eq = is_equivalence_decide(f).witness
    g0, e = eq.inverse.zero_map["*"], pca.apply(eq.eps.h1, 0)
    w = _moved_lift0(f, synthesize_fibration_witness(f), g0, "*", e)
    with pytest.raises(TransportFailed):
        lift_endpoint(f, w, g0, "*", e)
    with pytest.raises(NotTrivial):
        construct_section(f, w, eq.inverse, eq.eps)

    f1 = terminal_map1(inflate(interval()))
    eq1 = is_equivalence_decide(f1).witness
    g1, e1 = eq1.inverse.zero_map["*"], pca.apply(eq1.eps.h1, 0)
    w1 = _moved_lift0(f1, synthesize_fibration1_witness(f1), g1, "*", e1)
    with pytest.raises(TransportFailed):
        lift_endpoint(f1, w1, g1, "*", e1)
    with pytest.raises(NotTrivial):
        trivial1_section(f1, w1, eq1)


def test_section_of_pulled_back_trivial_fibration():
    # stability of trivial fibrations under pullback, witnessed by a section
    j = walking_pair()
    f = terminal_map(interval())
    pb = pullback(f, terminal_map(j))
    d = is_trivial_fibration(pb.to_g_dom)
    assert d.status == "yes"
    w = synthesize_fibration_witness(pb.to_g_dom)
    s = construct_section(pb.to_g_dom, w, d.witness.inverse,
                          d.witness.eps)
    assert check_morphism(s)


# --- sums -------------------------------------------------------------------

def test_sum_of_points_is_the_discrete_pair():
    one = terminal_object()
    summ, inl, inr = sum_object(one, one)
    assert len(summ.cells) == 2
    assert summ.hom_of(("L", "*"), ("R", "*")) == frozenset()
    assert check_object(summ)
    assert check_morphism(inl) and check_morphism(inr)


def test_sum_of_standard_discrete_is_standard_discrete():
    summ, _, _ = sum_object(two(), nat_trunc(2))
    seen = {}
    for c in summ.cells:
        key = summ.realizer[c]
        assert key not in seen
        seen[key] = c


def test_copair_of_the_two_points_is_homotopic_to_a_constant():
    one = terminal_object()
    i = interval()
    summ, _, _ = sum_object(one, one)
    p0 = synthesize_morphism(summ, i, {c: "0" for c in summ.cells})
    mixed = synthesize_morphism(summ, i,
                                {("L", "*"): "0", ("R", "*"): "1"})
    assert mixed is not None
    assert homotopic_decide(mixed, p0).status == "yes"


# --- groupoid structure -----------------------------------------------------

def test_sigma_swaps_endpoints_on_interval_paths():
    i = interval()
    g = groupoid_structure(i)
    for (a, b, rho) in g.bundle.obj.cells:
        assert g.sigma.zero_map[(a, b, rho)][:2] == (b, a)


def test_groupoid_laws_on_walking_pair():
    g = groupoid_structure(walking_pair())
    assert [d.status for d in g.laws] == ["yes"] * 5


def test_groupoid_laws_on_truncated_nno():
    g = groupoid_structure(nat_trunc(3))
    assert [d.status for d in g.laws] == ["yes"] * 5


def test_groupoid_laws_on_interval():
    g = groupoid_structure(interval())
    assert [d.status for d in g.laws] == ["yes"] * 5
