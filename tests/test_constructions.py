import contextlib
import dataclasses
import functools
import hashlib

import pytest
from hypothesis import HealthCheck, example, given, settings

from effpath import constructions, eff1, pca
from effpath.core import (
    MapsDoNotFit, NO, YES, check_morphism, compose, forced, identity,
    make_object, synthesize_morphism,
)
from effpath.constructions import (
    curry, curry_uniqueness_check, enumerate_members, freyd_square_check,
    hexp, hexp_J, hexp_J_morphism, homotopy_pullback_check,
    induced_fiber_map, pi_functor_map, pi_transpose,
    pi_transpose_round_trip, pi_type, transport, transport_properties_check,
)
from effpath.eff1 import inflate, inflate_morphism, terminal_object1
from effpath.fixtures import (
    fixture_library, interval, two, two_point_bundle, walking_pair,
)
from effpath.path import (
    discrete_n, fibration_decide, homotopic_decide, path_object, product,
    pullback, synthesize_fibration_witness, terminal_map, terminal_object,
)

import strategies


# --- transport --------------------------------------------------------------

def _e2i_transport():
    total, base, p = two_point_bundle()
    w = synthesize_fibration_witness(p)
    assert w is not None
    return total, base, p, w


def test_transport_along_reflexivity_is_identity():
    total, base, p, w = _e2i_transport()
    tr = transport(p, w)
    assert tr.refl_law.status == "yes"


def test_transport_moves_fibre_points_along_the_cross_path():
    total, base, p, w = _e2i_transport()
    tr = transport(p, w)
    # the single path 0 -> 1 in the base carries each fibre-0 point to the
    # fibre-1 point with the same first coordinate
    assert tr.cell("e00", ("0", "1", 0)) == "e01"
    assert tr.cell("e10", ("0", "1", 0)) == "e11"
    assert tr.cell("e01", ("1", "0", 0)) == "e00"


def test_transport_commutes_with_pullback_projection():
    total, base, p, w = _e2i_transport()
    tr = transport(p, w)
    pb = pullback(p, identity(base))
    w2 = synthesize_fibration_witness(pb.to_g_dom)
    tr2 = transport(pb.to_g_dom, w2)
    for (c, b) in pb.obj.cells:
        for path in path_object(base).obj.cells:
            if path[0] != c:
                continue
            c2, b2 = tr2.cell((c, b), path)
            assert b2 == tr.cell(b, path)


def test_transport_properties_on_fixture_bundle():
    total, base, p, w = _e2i_transport()
    assert [d.status for d in transport_properties_check(p, w)] == ["yes"] * 3


def test_transport_properties_on_path_fibration_source():
    i = interval()
    bundle = path_object(i)
    s = synthesize_morphism(bundle.obj, i,
                            {x: x[0] for x in bundle.obj.cells}, name="s")
    w = synthesize_fibration_witness(s)
    assert w is not None
    props = transport_properties_check(s, w)
    assert props[2].status == "yes"
    assert [d.status for d in props] == ["yes"] * 3


def test_transport_properties_over_degenerate_base():
    i = interval()
    f = terminal_map(i)
    w = synthesize_fibration_witness(f)
    assert [d.status for d in transport_properties_check(f, w)] == ["yes"] * 3


# --- induced fibre maps -----------------------------------------------------

def test_reflexivity_homotopy_induces_an_identity_like_map():
    total, base, p, w = _e2i_transport()
    h = homotopic_decide(identity(base), identity(base))
    m, eq = induced_fiber_map(p, w, identity(base), identity(base), h.witness)
    assert eq.status == "yes"
    for (z, y) in m.dom.cells:
        assert m.zero_map[(z, y)] == (z, y)


def test_cross_path_homotopy_induces_the_fibre_bijection():
    total, base, p, w = _e2i_transport()
    one = terminal_object()
    f0 = synthesize_morphism(one, base, {"*": "0"})
    f1 = synthesize_morphism(one, base, {"*": "1"})
    h = homotopic_decide(f0, f1)
    assert h.status == "yes"
    m, eq = induced_fiber_map(p, w, f0, f1, h.witness)
    assert eq.status == "yes"
    assert m.zero_map == {("*", "e00"): ("*", "e01"),
                         ("*", "e10"): ("*", "e11")}


# --- J-exponentials ---------------------------------------------------------

def test_J_exponential_of_interval_is_the_diagonal():
    exp = hexp_J(interval())
    assert len(exp.obj.cells) == 2  # injective realizers force a0 = a1


def test_J_exponential_of_walking_pair_has_four_cells():
    exp = hexp_J(walking_pair())
    assert len(exp.obj.cells) == 4  # constant realizer admits every pair


def test_J_exponential_realizer_is_the_shared_one():
    for obj in (interval(), walking_pair(), two()):
        exp = hexp_J(obj)
        for (a0, a1) in exp.obj.cells:
            assert exp.obj.realizer[(a0, a1)] == obj.realizer[a0]


def test_J_exponential_squares_commute_strictly():
    total, base, p = two_point_bundle()
    expB, expA = hexp_J(total), hexp_J(base)
    pj = hexp_J_morphism(p, expB, expA)
    assert check_morphism(pj)
    for x in expB.obj.cells:
        assert expA.ev0.zero_map[pj.zero_map[x]] == \
            p.zero_map[expB.ev0.zero_map[x]]
    for b in total.cells:
        assert pj.zero_map[expB.diag.zero_map[b]] == \
            expA.diag.zero_map[p.zero_map[b]]


# --- homotopy pullbacks -----------------------------------------------------

def test_strict_pullback_square_is_a_homotopy_pullback():
    total, base, p = two_point_bundle()
    pb = pullback(p, identity(base))
    d = homotopy_pullback_check(p, identity(base), pb.to_g_dom, pb.to_f_dom)
    assert d.status == "yes"


def test_a_square_with_an_untracked_mediating_map_is_not_a_homotopy_pullback():
    # f: B -> A and g: C -> A fix 1-cells; C's cross 1-cells are 1, B's
    # are 0, so the pullback has no 1-cell from (0, 0) to (1, 1), while D
    # has one between the cells its maps send there
    A = make_object(("*",), {"*": 0}, {("*", "*"): {0, 1}}, name="A")
    cells, R = ("0", "1"), {"0": 1, "1": 2}
    B, D = (make_object(cells, R, {(a, b): {0} for a in cells
                                   for b in cells}, name=n) for n in "BD")
    C = make_object(cells, R, {(a, b): {0} if a == b else {1}
                               for a in cells for b in cells}, name="C")
    f, g = (synthesize_morphism(X, A, dict.fromkeys(cells, "*"),
                                one=lambda t, h, *cell: forced(cell[-1], h))
            for X in (B, C))
    h, k = (synthesize_morphism(D, X, {c: c for c in cells}) for X in (C, B))
    d = homotopy_pullback_check(f, g, h, k)
    assert (d.status, d.reason) == ("no", "no tracked mediating morphism")


def test_freyd_square_of_a_discrete_object_is_a_homotopy_pullback():
    assert freyd_square_check(terminal_map(two())).status == "yes"


def test_freyd_square_of_walking_pair_is_not_a_homotopy_pullback():
    assert freyd_square_check(terminal_map(walking_pair())).status == "no"


# --- exponentials up to homotopy --------------------------------------------

def test_powers_of_the_point_enumerate_cells():
    one = terminal_object()
    for obj, count in ((two(), 2), (interval(), 2)):
        members = enumerate_members(hexp(obj, one))
        assert len(members) == count
        for m in members:
            assert hexp(obj, one).virtual.contains(m) == "yes"


def test_power_of_point_identifies_shared_realizers():
    one = terminal_object()
    exp = hexp(walking_pair(), one)
    members = enumerate_members(exp)
    assert len(members) == 2
    # both point-selections carry the same tracking tables
    assert len({exp.virtual.realizer_of(m) for m in members}) == 1


@pytest.mark.parametrize("lift", [lambda A: A, inflate],
                         ids=["J", "inflate(J)"])
def test_the_virtual_exponential_answers_any_presentation_at_either_level(
        lift):
    # a presentation that is no map 1 -> J is no member, with no realizer
    # and no 1-cell to or from it, even one with a dom and a cod; a
    # member's loop is coded by the codes of its homotopy
    A = lift(walking_pair())
    exp = hexp(A, terminal_map(A).cod)
    virt = exp.virtual
    member = enumerate_members(exp)[0]
    H = homotopic_decide(member, member).witness
    loop = pca.tuple_encode(*(getattr(H, c) for c in member.HOMOTOPY_CODES))
    assert virt.contains(member) == YES
    assert virt.realizer_of(member) == pca.tuple_encode(
        *(getattr(member, t) for t in member.TRACKINGS))
    assert virt.hom_status(member, member, loop) == YES
    assert virt.hom_status(5, 6, 0) == NO
    for pres in (5, ("x",), None, exp, identity(A), terminal_map(A)):
        assert virt.contains(pres) == NO, pres
        assert virt.realizer_of(pres) is None, pres
        assert virt.hom_status(pres, member, loop) == NO, pres
        assert virt.hom_status(member, pres, loop) == NO, pres


def test_curry_of_projection_is_pointwise_projection():
    c_obj, b_obj = two(), interval()
    prod, p1, p2 = product(c_obj, b_obj)
    cur = curry(p2, c_obj, b_obj)
    exp = hexp(b_obj, b_obj)
    for c in c_obj.cells:
        m = cur[c]
        assert m.zero_map == {b: b for b in b_obj.cells}
        assert check_morphism(m)
        assert exp.virtual.contains(m) == "yes"


def test_evaluation_of_curried_map_matches_original():
    c_obj, b_obj = interval(), two()
    prod, p1, p2 = product(c_obj, b_obj)
    h = synthesize_morphism(prod, c_obj,
                            {(c, b): c for (c, b) in prod.cells},
                            name="proj1")
    cur = curry(h, c_obj, b_obj)
    exp = hexp(c_obj, b_obj)
    for c in c_obj.cells:
        for b in b_obj.cells:
            got = exp.eval_realizer(cur[c], b)
            assert got == c_obj.realizer[h.zero_map[(c, b)]]
    # the same evaluation reads tracking0 out of a level-1 realizer
    I1 = inflate(c_obj)
    exp1 = hexp(I1, terminal_object1())
    members = enumerate_members(exp1)
    assert len(members) == 2
    for m in members:
        assert exp1.eval_realizer(m, "*") == I1.realizer[m.zero_map["*"]]


def test_curry_uniqueness_against_resynthesized_competitors():
    c_obj, b_obj = two(), interval()
    prod, p1, p2 = product(c_obj, b_obj)
    cur = curry(p2, c_obj, b_obj)
    competitor = {c: synthesize_morphism(b_obj, b_obj, cur[c].zero_map)
                  for c in c_obj.cells}
    assert curry_uniqueness_check(cur, competitor).status == "yes"
    swapped = {c: synthesize_morphism(
        b_obj, b_obj, {"0": "1", "1": "0"}) for c in c_obj.cells}
    assert curry_uniqueness_check(cur, swapped).status == "yes"
    const = {c: synthesize_morphism(
        b_obj, b_obj, {"0": "0", "1": "0"}) for c in c_obj.cells}
    assert curry_uniqueness_check(cur, const).status == "yes"


# --- Pi-types ---------------------------------------------------------------

def _two_one_pi():
    """Pi along 2 -> 1 of a 4-point standard discrete fibration over 2."""
    t = two()
    f = terminal_map(t)
    wf = synthesize_fibration_witness(f)
    four = discrete_n(4, name="4")
    g = synthesize_morphism(four, t,
                            {"0": "0", "1": "0", "2": "1", "3": "1"},
                            name="4->2")
    assert g is not None
    return f, wf, g, t, four


def test_pi_along_identity_fibration_recovers_fibres():
    i = interval()
    total, base, p = two_point_bundle()
    f = identity(base)
    wf = synthesize_fibration_witness(f)
    pi = pi_type(f, wf, p)
    # one section per point of the total space: fibres are singletons
    assert len(pi.obj.cells) == len(total.cells)


def test_pi_of_standard_discrete_is_standard_discrete():
    f, wf, g, t, four = _two_one_pi()
    pi = pi_type(f, wf, g)
    assert len(pi.obj.cells) == 4  # 2 x 2 choices of section
    realizers = [pi.obj.realizer[k] for k in pi.obj.cells]
    assert len(set(realizers)) == len(realizers)


def test_pi_membership_accepts_exactly_the_sections():
    f, wf, g, t, four = _two_one_pi()
    pi = pi_type(f, wf, g)
    for key, s in pi.sections.items():
        assert pi.virtual.contains((key[0], s)) == "yes"
    bad = synthesize_morphism(pi.fibres["*"], four,
                              {"0": "0", "1": "0"})
    assert pi.virtual.contains(("*", bad)) == "no"  # not a section over "1"
    assert pi.virtual.realizer_of(("*", bad)) is None


def test_a_member_is_realized_as_its_skeleton_cell():
    # a section tracked by a larger table than the skeleton's is a member
    # with the skeleton cell's realizer
    f, wf, g, t, four = _two_one_pi()
    pi = pi_type(f, wf, g)
    for key, s in pi.sections.items():
        wider = dataclasses.replace(s, tracking0=pca.tabulate(
            {**s.tracking0.values, 10 ** 9: 0}))
        assert wider.tracking0 != s.tracking0
        for member in ((key[0], s), (key[0], wider)):
            assert pi.virtual.contains(member) == YES
            assert pi.virtual.realizer_of(member) == pi.obj.realizer[key]


@pytest.mark.parametrize("name", ["E2I", "eff1:E2I"])
def test_pi_hom_status_checks_the_homotopy_a_one_cell_names(name):
    f = fixture_library()[name].value
    pi = pi_type(f, synthesize_fibration_witness(f), identity(f.dom))
    member = {k: (k[0], s) for k, s in pi.sections.items()}
    one_cells = [(k1, k2, n) for (k1, k2), h in pi.obj.hom.items()
                 for n in h]
    assert len(one_cells) == 4
    for k1, k2, n in one_cells:
        status = functools.partial(pi.virtual.hom_status, member[k1],
                                   member[k2])
        assert status(n) == YES
        base, _ = pca.cantor_unpair(n)
        # no Pi has a million homotopies
        assert status(pca.tuple_encode(base, 10 ** 6)) == NO


@pytest.mark.parametrize("name", ["E2I", "eff1:E2I"])
def test_the_virtual_pi_answers_any_presentation_at_either_level(name):
    # a presentation that is no (cell, section) pair is no member, with no
    # realizer and no 1-cell to or from it; each skeleton 1-cell is YES and
    # an index in no hom-set NO
    f = fixture_library()[name].value
    pi = pi_type(f, synthesize_fibration_witness(f), identity(f.dom))
    virt = pi.virtual
    member = {k: (k[0], s) for k, s in pi.sections.items()}
    for k, m in member.items():
        assert virt.contains(m) == YES
        assert virt.realizer_of(m) == pi.obj.realizer[k]
    k = next(iter(member))
    cell, section = member[k]
    loop = min(pi.obj.hom[k, k])
    for pres in (5, ("x",), ("nope", None), (cell, "not a morphism"),
                 ("nope", section), (cell, section, section), [cell, section]):
        assert virt.contains(pres) == NO, pres
        assert virt.realizer_of(pres) is None, pres
        assert virt.hom_status(pres, member[k], loop) == NO, pres
        assert virt.hom_status(member[k], pres, loop) == NO, pres
    one_cells = [(k1, k2, n) for (k1, k2), h in pi.obj.hom.items()
                 for n in h]
    assert one_cells
    for k1, k2, n in one_cells:
        status = functools.partial(virt.hom_status, member[k1], member[k2])
        assert status(n) == YES
        base, _ = pca.cantor_unpair(n)
        assert status(pca.tuple_encode(base, 10 ** 6)) == NO


def test_pi_transpose_round_trip():
    f, wf, g, t, four = _two_one_pi()
    pi = pi_type(f, wf, g)
    one = terminal_object()
    h = identity(one)
    pbW = pullback(f, h)
    m = synthesize_morphism(pbW.obj, four,
                            {("*", "0"): "0", ("*", "1"): "2"})
    assert m is not None
    M = pi_transpose(pi, h, pbW, m)
    assert M is not None and check_morphism(M)
    assert pi_transpose_round_trip(pi, h, pbW, m, M).status == "yes"


def test_a_map_into_pi_off_the_base_does_not_round_trip():
    # M sends each base cell to a section over the other one, so the
    # comparison W x_X Y -> Pi x_X Y it induces names no cell
    total, base, p = two_point_bundle()
    f = identity(base)
    pi = pi_type(f, synthesize_fibration_witness(f), p)
    x0, x1 = base.cells
    over = {x: next(k for k in pi.obj.cells if k[0] == x) for x in base.cells}
    M = synthesize_morphism(base, pi.obj, {x0: over[x1], x1: over[x0]})
    pbW = pullback(f, f)
    m = synthesize_morphism(pbW.obj, total, {
        (w, y): pi.sections[over[y]].zero_map[y] for (w, y) in pbW.obj.cells})
    assert M is not None and m is not None
    d = pi_transpose_round_trip(pi, f, pbW, m, M)
    assert (d.status, d.reason) == \
        ("no", "no tracked comparison over the base")


def test_pi_functor_map_collapses_sections():
    f, wf, g, t, four = _two_one_pi()
    piB = pi_type(f, wf, g)
    piA = pi_type(f, wf, identity(t))
    p = synthesize_morphism(four, t,
                            {"0": "0", "1": "0", "2": "1", "3": "1"})
    m = pi_functor_map(piB, piA, p)
    assert m is not None and check_morphism(m)
    assert len(piA.obj.cells) == 1
    assert len({m.zero_map[k] for k in piB.obj.cells}) == 1


def _loops_0_and_2_over_b():
    """f: B -> A, a |-> a, where A has a (realizer 1, loop 0) and b (realizer
    0, loops 0 and 2) and B has one cell (realizer 0, loop 2).  The fibre
    at b is empty, and Pi has two 1-cells at (b, no section), over the loops
    0 and 2."""
    A = make_object("ab", {"a": 1, "b": 0},
                    {("a", "a"): {0}, ("b", "b"): {0, 2}}, name="A")
    B = make_object("a", {"a": 0}, {("a", "a"): {2}}, name="B")
    return synthesize_morphism(B, A, {"a": "a"}, name="f")


@contextlib.contextmanager
def _recorded_enumerations():
    """The enumerations Pi makes, each keeping every run it numbers, at
    both levels."""
    made = []

    class Recorded(constructions._Enumeration):
        def __init__(self):
            super().__init__()
            self.numbered = []
            made.append(self)

        def __call__(self, *codes):
            i = super().__call__(*codes)
            self.numbered.append((codes, i))
            return i
    with pytest.MonkeyPatch.context() as mp:
        for module in (constructions, eff1):
            mp.setattr(module, "_Enumeration", Recorded)
        yield made


def _packed(codes):
    """A run of codes read as numbers, as Pi's codes used to pack them."""
    return tuple(map(int, codes))


def _same_equality(pairs):
    """new == new' exactly where old == old', over (new, old) pairs."""
    pairs = set(pairs)
    return len({n for n, _ in pairs}) == len({o for _, o in pairs}) \
        == len(pairs)


def _assert_pi_keeps_the_packed_equality(f, w, g):
    """Cells, 1-cells and 2-cells of Pi share a code exactly where the
    packed codes <alpha x, t0, t1[, t2]>, <pi, h> and <n, m> would."""
    with _recorded_enumerations() as made:
        pi = pi_type(f, w, g)
    _, homotopies, *modifications = made
    for enum in made:
        assert _same_equality((i, _packed(codes))
                              for codes, i in enum.numbered)
    base, obj = f.cod, pi.obj
    slots = ("tracking0", "tracking1") + ("tracking2",) * len(modifications)
    assert _same_equality(
        (obj.realizer[k], (base.realizer[k[0]],
                           _packed(getattr(s, t) for t in slots)))
        for k, s in pi.sections.items())

    def unpacked(n, enum):
        head, i = pca.cantor_unpair(n)
        return n, (head, _packed(enum.runs[i]))
    assert _same_equality(unpacked(n, homotopies)
                          for h in obj.hom.values() for n in h)
    for enum in modifications:
        assert _same_equality(unpacked(n, enum)
                              for h in obj.hom2.values() for n in h)
    return pi


@pytest.mark.parametrize("name", [
    name for name, e in fixture_library().items()
    if e.kind in ("fibration", "fibration1")])
def test_pi_of_a_library_fibration_keeps_the_packed_equality(name):
    f = fixture_library()[name].value
    _assert_pi_keeps_the_packed_equality(
        f, synthesize_fibration_witness(f), identity(f.dom))


def test_composing_and_transporting_build_no_chain(monkeypatch):
    # compose synthesizes the composite from the cell maps of fresh maps
    # (E2I built anew, so no earlier test has built a chain on its
    # tables), so composing, checking the composite, transport and Pi's
    # transpose round trip read no code as its IFEQ chain
    total, base, p = two_point_bundle()
    w = synthesize_fibration_witness(p)
    calls, chain = [0], pca._chain

    def counted(table):
        calls[0] += 1
        return chain(table)
    monkeypatch.setattr(pca, "_chain", counted)
    assert check_morphism(compose(p, identity(total)))
    assert transport(p, w).refl_law.status == YES
    pi = pi_type(p, w, identity(total))
    M = pi_transpose(pi, pi.proj, pi.ev_domain, pi.ev)
    assert pi_transpose_round_trip(pi, pi.proj, pi.ev_domain, pi.ev,
                                   M).status == YES
    assert calls[0] == 0


def test_building_pi_builds_no_chain(monkeypatch):
    # Pi's codes are indices of contents: nothing reads a tracking, a
    # homotopy or a modification as its IFEQ chain
    fs = [fixture_library()[name].value for name in ("E2I", "eff1:2->1")]
    built = [(f, synthesize_fibration_witness(f), identity(f.dom))
             for f in fs]
    calls, chain = [0], pca._chain

    def counted(table):
        calls[0] += 1
        return chain(table)
    monkeypatch.setattr(pca, "_chain", counted)
    for f, w, g in built:
        pi_type(f, w, g)
    assert calls[0] == 0


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(strategies.fibrations())
@example(_loops_0_and_2_over_b())
def test_the_projection_of_pi_is_a_fibration(f):
    # each 1-cell <pi, j> of Pi is tracked by its first component pi; the
    # index j keeps the equality of the packed <pi, h> it stands for
    w = synthesize_fibration_witness(f)
    pi = _assert_pi_keeps_the_packed_equality(f, w, identity(f.dom))
    assert fibration_decide(pi.proj).status == YES


def test_procedures_refuse_maps_that_do_not_fit():
    total, base, p = two_point_bundle()
    w = synthesize_fibration_witness(p)
    with pytest.raises(MapsDoNotFit, match="not parallel"):
        homotopic_decide(p, identity(base))
    with pytest.raises(MapsDoNotFit, match="does not end where"):
        pi_type(p, w, p)
    one = terminal_object()
    pt0, pt1 = (synthesize_morphism(one, two(), {"*": c}) for c in "01")
    with pytest.raises(MapsDoNotFit, match="does not commute"):
        homotopy_pullback_check(pt0, pt1, identity(one), identity(one))


def test_pi_of_a_map_that_is_not_a_fibration_is_refused():
    # X = {a} -> Y = {p, q} onto p: the 1-cell p -> q has no lift
    X = make_object("a", {"a": 0}, {("a", "a"): {0}}, name="X")
    Y = make_object("pq", {"p": 0, "q": 1},
                    {(x, y): {0} for x in "pq" for y in "pq"}, name="Y")
    g = synthesize_morphism(X, Y, {"a": "p"}, name="g")
    f = identity(Y)
    with pytest.raises(MapsDoNotFit, match=r"^id_Y\.g is not a fibration$"):
        pi_type(f, synthesize_fibration_witness(f), g)


# --- the shape of Pi ---------------------------------------------------------

def _pi_case(name):
    """Pi of the identity along a library fibration, or along an object's
    map to the point (the criterion-10 pairs and their level-1 images), or
    Pi of 4 -> 2 along 2 -> 1 and of the identity along the map with loops
    0 and 2 over b, at level 0 or inflated."""
    lib = fixture_library()
    level1 = name.startswith("inflated ")
    name = name.removeprefix("inflated ")
    if name == "4->2 over 2->1":
        f, _, g, _, _ = _two_one_pi()
    elif name == "loops over b":
        f = _loops_0_and_2_over_b()
        g = identity(f.dom)
    elif name.endswith("->1") and not name.startswith("eff1:"):
        f = terminal_map(lib[name[:-3]].value)
        g = identity(f.dom)
    else:
        f = lib[name].value
        g = identity(f.dom)
    if level1:
        f1 = inflate_morphism(f)
        f, g = f1, inflate_morphism(g, cod1=f1.dom)
    return pi_type(f, synthesize_fibration_witness(f), g)


def _classes(labelled):
    """The partition of items by label, (item, label) pairs in, as a sorted
    list of sorted tuples."""
    by = {}
    for item, label in labelled:
        by.setdefault(label, []).append(item)
    return sorted(tuple(sorted(items)) for items in by.values())


def _pi_shape(pi) -> dict:
    """What Pi is, whatever codes it picked: its cells as (base cell,
    section cell map), the cells that share a realizer, the size of each
    hom-set, the 1-cells (ends, base 1-cell) that share a code index, the
    size of each set of 2-cells (ends, base 1-cells of the two 1-cells) and
    whether the projection is a fibration.  Every part is written with
    repr, so one order serves any cells."""
    obj = pi.obj
    cell = {k: (repr(k[0]), tuple(sorted(map(repr, s.zero_map.items()))))
            for k, s in pi.sections.items()}
    assert set(cell) == set(obj.cells)
    one_cells = [((cell[k1], cell[k2], pca.cantor_unpair(n)[0]),
                  pca.cantor_unpair(n)[1])
                 for (k1, k2), h in obj.hom.items() for n in h]
    return {
        "cells": sorted(cell.values()),
        "realizer classes": _classes((cell[k], obj.realizer[k])
                                     for k in obj.cells),
        "hom sizes": sorted((cell[k1], cell[k2], len(h))
                            for (k1, k2), h in obj.hom.items()),
        "index classes": _classes(one_cells),
        "2-cell sizes": sorted(
            (cell[k1], cell[k2], pca.cantor_unpair(e)[0],
             pca.cantor_unpair(e2)[0], len(h))
            for (k1, k2, e, e2), h in getattr(obj, "hom2", {}).items()),
        "projection": fibration_decide(pi.proj).status,
    }


# name -> (cells, realizer classes, 1-cells, index classes, 2-cells, the
# SHA-256 prefix of the shape's repr)
PI_SHAPES = {
    "E2I": (2, 2, 4, 2, 0, "yes", "5dea9ee84a313ec0"),
    "I->1": (1, 1, 1, 1, 0, "yes", "a7e7d92657e95b48"),
    "2->1": (1, 1, 1, 1, 0, "yes", "a7e7d92657e95b48"),
    "inflated E2I": (2, 2, 4, 2, 4, "yes", "bf16e0a0e23e20cc"),
    "eff1:E2I": (2, 2, 4, 2, 4, "yes", "bf16e0a0e23e20cc"),
    "eff1:2->1": (1, 1, 1, 1, 1, "yes", "62b43ff462394318"),
    "4->2 over 2->1": (4, 4, 4, 1, 0, "yes", "3b04a46a555facd2"),
    "inflated 4->2 over 2->1": (4, 4, 4, 1, 4, "yes", "3f4f48f436142009"),
    "loops over b": (2, 2, 3, 2, 0, "yes", "971fab9fc34494db"),
    "inflated loops over b": (2, 2, 3, 2, 5, "yes", "6436b9bbafc21046"),
}


@pytest.mark.parametrize("name", PI_SHAPES)
def test_the_shape_of_pi_is_pinned(name):
    shape = _pi_shape(_pi_case(name))
    summary = (len(shape["cells"]), len(shape["realizer classes"]),
               sum(n for *_, n in shape["hom sizes"]),
               len(shape["index classes"]),
               sum(n for *_, n in shape["2-cell sizes"]))
    digest = hashlib.sha256(repr(shape).encode()).hexdigest()[:16]
    assert (*summary, shape["projection"], digest) == PI_SHAPES[name]
