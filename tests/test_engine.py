"""The obligation engine: checking and synthesis read one declaration.

Every structure code is a table settled from its obligations, so moving
one entry out of its target must make the matching check fail on exactly
that obligation; synthesis either yields codes that check, or names an
obligation group whose intersection is empty in the raw data.
"""

import dataclasses
import hashlib
import itertools

from hypothesis import given, settings, strategies as st

from effpath import pca
from effpath.core import (
    SynthesisFailed, Verdict, check_morphism, check_object, identity,
    make_object,
)
from effpath.eff1 import (
    check_fibration1, check_morphism1, check_object1, fib_path_object1,
    hlevel1_check, identity1, inflate, inflate_morphism, make_object1,
    pullback1, synthesize_fibration1_witness, synthesize_morphism1,
    terminal_map1, truncate1, z2_homotopies, z2_object, z2_twist,
    _OBJECT1_SLOTS, _morphism1_stages, _object1_stages,
)
from effpath.fixtures import (
    fixture_fibrations1, fixture_library, interval, nat_trunc,
    swap_morphism, two_point_bundle,
)
from effpath.path import (
    check_fibration, check_homotopy, fibration_decide, homotopic_decide,
    synthesize_fibration_witness,
)

from test_stages import flattened

BAD = 10 ** 6 + 7  # a value in no hom-set of the fixtures below


def _structures():
    """(label of each slot, the value holding the codes, its check)."""
    i = interval()
    sw = swap_morphism(i)
    _total, _base, p = two_point_bundle()
    z2 = z2_object()
    tw = z2_twist(z2)
    t1 = terminal_map1(z2)
    H, _K = z2_homotopies(z2, tw)
    return [
        ({"unit_code": "unit", "inv_code": "inverse",
          "comp_code": "composition"}, i, check_object),
        ({"unit_code": "unit", "inv_code": "inverse",
          "comp_code": "composition",
          "coh_lunit": "left unit coherence",
          "coh_runit": "right unit coherence",
          "coh_linv": "left inverse coherence",
          "coh_rinv": "right inverse coherence",
          "coh_assoc": "associativity coherence", "id2": "2-identity",
          "vcomp": "vertical composition", "inv2": "2-inverse",
          "hcomp": "horizontal composition"}, z2, check_object1),
        ({"tracking0": "tracking0", "tracking1": "tracking1"}, sw,
         check_morphism),
        ({"tracking0": "tracking0", "tracking1": "tracking1",
          "tracking2": "2-tracking", "funct_id": "identity preservation",
          "funct_comp": "composite preservation"}, tw, check_morphism1),
        ({"lift0": "lift (1)", "lift1": "lift (1)", "lift2": "lift (2)"},
         synthesize_fibration_witness(p), lambda w: check_fibration(p, w)),
        ({"lift0": "lift (1)", "lift1": "lift (1)", "lift1p": "lift (2)",
          "lift2": "lift (2)", "lift2p": "lift (3)"},
         synthesize_fibration1_witness(t1),
         lambda w: check_fibration1(t1, w)),
        ({"h1": "homotopy 1-cell"}, homotopic_decide(identity(i), sw).witness,
         lambda h: check_homotopy(identity(i), sw, h)),
        ({"h1": "homotopy 1-cell", "h2": "homotopy filler"}, H,
         lambda h: check_homotopy(identity1(z2), tw, h)),
    ]


# a level-0 structure and its check at level 1 on the inflated structure
_INFLATED = {
    check_object: lambda obj: check_object1(inflate(obj)),
    check_morphism: lambda f: check_morphism1(inflate_morphism(f)),
}


def test_moving_an_entry_of_one_table_out_of_its_target_is_invalid():
    slots = 0
    for labels, holder, check in _structures():
        assert check(holder).status == "valid", labels
        for slot, label in labels.items():
            table = dict(getattr(holder, slot).values)
            assert table, slot
            table[min(table)] = BAD
            broken = dataclasses.replace(
                holder, **{slot: pca.tabulate(table)})
            v = check(broken)
            assert v.status == "invalid" and v.reason.startswith(label), \
                (slot, v)
            if check in _INFLATED:
                # both levels read one declaration, so they give one reason
                assert _INFLATED[check](broken) == v, slot
            slots += 1
    assert slots == 3 + 12 + 2 + 5 + 3 + 5 + 1 + 2


def test_a_target_read_off_a_tables_domain_is_invalid():
    # the domain's composition answers outside its hom-sets, so the target
    # of composite preservation reads tracking1 off its table's domain
    f = z2_twist()
    comp = pca.tabulate(dict.fromkeys(f.dom.comp_code.values, BAD))
    broken = dataclasses.replace(
        f, dom=dataclasses.replace(f.dom, comp_code=comp))
    assert check_morphism1(f).status == "valid"
    assert check_morphism1(broken) == Verdict("invalid",
                                              "a target value diverges")


# --- synthesis either checks or names an empty group ------------------------

def _brute_force_group(cells, realizer, hom, slot, t):
    """Every target the raw data imposes on the code ``slot`` at input t,
    found without the engine, intersected."""
    R = realizer
    if slot == "unit_code":
        targets = [hom[(a, a)] for a in cells if R[a] == t]
    elif slot == "inv_code":
        targets = [hom[(b, a)] for a, b in itertools.product(cells, repeat=2)
                   for p in hom[(a, b)]
                   if pca.tuple_encode(R[a], R[b], p) == t]
    else:
        assert slot == "comp_code"
        targets = [hom[(a, c)]
                   for a, b, c in itertools.product(cells, repeat=3)
                   for p in hom[(a, b)] for r in hom[(b, c)]
                   if pca.tuple_encode(R[a], R[b], R[c], p, r) == t]
    assert targets, (slot, t)
    return set.intersection(*map(set, targets))


@st.composite
def _groupoid_data(draw):
    cells = tuple(f"c{i}" for i in range(draw(st.integers(0, 3))))
    realizer = {c: draw(st.sampled_from((0, 1))) for c in cells}
    hom = {(a, b): frozenset(draw(st.sets(st.sampled_from((0, 1, 2)))))
           for a in cells for b in cells}
    return cells, realizer, hom


@settings(max_examples=150, deadline=None)
@given(_groupoid_data())
def test_synthesis_checks_at_both_levels_or_names_an_empty_group(data):
    cells, realizer, hom = data
    try:
        obj = make_object(cells, realizer, hom)
    except SynthesisFailed as e:
        # NO comes only from definite finite emptiness
        assert _brute_force_group(cells, realizer, hom, e.slot, e.t) == set()
        return
    assert check_object(obj).status == "valid"
    assert check_object1(inflate(obj)).status == "valid"


# --- declarations skip empty hom-sets in dense order ------------------------

def _obligations(stage):
    return [(slot, t, sorted(acc), label) for slot, t, acc, label in stage]


def _dense_object1(cells, R, hom, hom2, val):
    """The obligations of the object stages, declared over the dense cell
    product: the reference order that skipping empty hom-sets keeps."""
    P = itertools.product
    enc = pca.tuple_encode
    for a in cells:
        yield "unit_code", R[a], hom[a, a], "unit"
    for a, b in P(cells, repeat=2):
        for p in hom[a, b]:
            yield "inv_code", enc(R[a], R[b], p), hom[b, a], "inverse"
    for a, b, c in P(cells, repeat=3):
        for p, r in P(hom[a, b], hom[b, c]):
            yield ("comp_code", enc(R[a], R[b], R[c], p, r), hom[a, c],
                   "composition")

    def u(a):
        return val("unit_code", R[a])

    def cp(a, b, c, p, r):
        return val("comp_code", enc(R[a], R[b], R[c], p, r))
    for a, b in P(cells, repeat=2):
        for p in hom[a, b]:
            t = enc(R[a], R[b], p)
            pi = val("inv_code", t)
            yield ("coh_lunit", t, hom2[a, b, cp(a, b, b, p, u(b)), p],
                   "left unit coherence")
            yield ("coh_runit", t, hom2[a, b, cp(a, a, b, u(a), p), p],
                   "right unit coherence")
            yield ("coh_linv", t, hom2[a, a, cp(a, b, a, p, pi), u(a)],
                   "left inverse coherence")
            yield ("coh_rinv", t, hom2[b, b, cp(b, a, b, pi, p), u(b)],
                   "right inverse coherence")
            yield "id2", t, hom2[a, b, p, p], "2-identity"
    for a, b, c, d in P(cells, repeat=4):
        for p, r, s in P(hom[a, b], hom[b, c], hom[c, d]):
            yield ("coh_assoc", enc(R[a], R[b], R[c], R[d], p, r, s),
                   hom2[a, d, cp(a, c, d, cp(a, b, c, p, r), s),
                        cp(a, b, d, p, cp(b, c, d, r, s))],
                   "associativity coherence")
    for a, b in P(cells, repeat=2):
        h1 = sorted(hom[a, b])
        for p, r, s in P(h1, repeat=3):
            for n, m in P(hom2[a, b, p, r], hom2[a, b, r, s]):
                yield ("vcomp", enc(R[a], R[b], p, r, s, n, m),
                       hom2[a, b, p, s], "vertical composition")
        for p, r in P(h1, repeat=2):
            for n in hom2[a, b, p, r]:
                yield ("inv2", enc(R[a], R[b], p, r, n), hom2[a, b, r, p],
                       "2-inverse")
    for a, b, c in P(cells, repeat=3):
        hab, hbc = sorted(hom[a, b]), sorted(hom[b, c])
        for p, r, p2, r2 in P(hab, hab, hbc, hbc):
            for n, m in P(hom2[a, b, p, r], hom2[b, c, p2, r2]):
                yield ("hcomp", enc(R[a], R[b], R[c], p, r, p2, r2, n, m),
                       hom2[a, c, cp(a, b, c, p, p2), cp(a, b, c, r, r2)],
                       "horizontal composition")


def _dense_functoriality(f, val):
    """The functoriality obligations of f over the dense cell product."""
    dom, cod, zero, R = f.dom, f.cod, f.zero_map, f.dom.realizer
    enc = pca.tuple_encode

    def f1(b, b2, p):
        return val("tracking1", enc(R[b], R[b2], p))
    for b in dom.cells:
        fb = zero[b]
        yield ("funct_id", R[b],
               cod.hom2_of(fb, fb, f1(b, b, pca.apply(dom.unit_code, R[b])),
                           pca.apply(cod.unit_code, cod.realizer[fb])),
               "identity preservation")
    for b1, b2, b3 in itertools.product(dom.cells, repeat=3):
        z1, z2, z3 = zero[b1], zero[b2], zero[b3]
        for p, r in itertools.product(dom.hom_of(b1, b2),
                                      dom.hom_of(b2, b3)):
            t = enc(R[b1], R[b2], R[b3], p, r)
            cimg = pca.apply(cod.comp_code, enc(
                cod.realizer[z1], cod.realizer[z2], cod.realizer[z3],
                f1(b1, b2, p), f1(b2, b3, r)))
            yield ("funct_comp", t,
                   cod.hom2_of(z1, z3, f1(b1, b3, pca.apply(dom.comp_code, t)),
                               cimg),
                   "composite preservation")


@st.composite
def _sparse_object1_data(draw):
    """Up to four cells split into components: hom-sets across components
    are empty, those inside one and every set of 2-cells between parallel
    1-cells are non-empty, and realizers are distinct, so synthesis always
    succeeds."""
    n = draw(st.integers(1, 4))
    cells = tuple(f"c{i}" for i in range(n))
    component = {c: draw(st.integers(0, 2)) for c in cells}
    cell_sets = st.frozensets(st.sampled_from((0, 1)), min_size=1)
    hom = {(a, b): draw(cell_sets) if component[a] == component[b]
           else frozenset() for a in cells for b in cells}
    hom2 = {(a, b, p, q): draw(cell_sets)
            for (a, b), h in hom.items() for p in h for q in h}
    return cells, {c: i for i, c in enumerate(cells)}, hom, hom2


@settings(max_examples=25, deadline=None)
@given(_sparse_object1_data())
def test_declarations_skip_empty_hom_sets_in_dense_order(data):
    cells, realizer, hom, hom2 = data
    obj = make_object1(cells, realizer, hom, hom2)

    def val(slot, t):
        return pca.apply(getattr(obj, slot), t)
    stages = _object1_stages(obj.cells, obj.realizer, obj.hom, obj.hom2)
    got = [ob for stage in stages(val)
           for ob in _obligations(flattened(stage))]
    assert got == _obligations(
        _dense_object1(obj.cells, obj.realizer, obj.hom, obj.hom2, val))

    f = synthesize_morphism1(obj, obj, {c: c for c in cells})
    assert f is not None

    def fval(slot, t):
        return pca.apply(getattr(f, slot), t)
    *_, functoriality = [_obligations(flattened(stage)) for stage in
                         _morphism1_stages(obj, obj, f.zero_map)(fval)]
    assert functoriality == _obligations(_dense_functoriality(f, fval))


# SHA-256 of the twelve structure codes (hex, space-separated, in slot
# order) of four objects the suite builds, as the dense declaration built
# them; the densest (36 cells, 36 non-empty hom-sets) and the largest
# tables among them
PINNED_CODES = {
    "N5x_1N5":
        "5ef9de15f890639164f77df42d1876010b7a3f43eaf28a17d853f91fb0cc8999",
    "P_Z2->1":
        "b1cb5411495f04d337af977f6b81447165faebcffe0886d294b76d04d01f7e16",
    "set_P_Z2->1":
        "b1cb5411495f04d337af977f6b81447165faebcffe0886d294b76d04d01f7e16",
    "Z2x_1Z2":
        "12544e66c9a676f58ef654c081d1dfb11fbb73b544974ba6022c3ba60f7cc081",
}


def test_structure_codes_of_suite_objects_are_pinned():
    n5 = terminal_map1(inflate(nat_trunc(5)))
    z2 = terminal_map1(z2_object())
    bundle = fib_path_object1(z2)
    built = [pullback1(n5, n5).obj, bundle.obj,
             truncate1(bundle.st, 0).g.cod, pullback1(z2, z2).obj]
    for obj in built:
        codes = " ".join(hex(getattr(obj, slot)) for slot in _OBJECT1_SLOTS)
        assert hashlib.sha256(codes.encode()).hexdigest() == \
            PINNED_CODES[obj.name], obj.name
    assert sorted(o.name for o in built) == sorted(PINNED_CODES)


# --- fuel-honest dependent values -------------------------------------------

def _stored_at_fuel(f, what, n, fuel):
    """The status of hlevel1_check or the shape of truncate1 at fuel, or
    the exception either raises."""
    try:
        with pca.fuel_limit(fuel):
            if what == "hlevel":
                return hlevel1_check(f, n).status
            tr = truncate1(f, n)
        return tr.g.cod.hom, tr.g.cod.hom2, fibration_decide(tr.h).status
    except pca.FuelExhausted as e:
        return type(e)


def test_stored_constructions_answer_other_fuel_as_a_cold_build_does():
    # every level-1 library fibration but Z2->1, which is left out for time
    names = [n for n, e in fixture_library().items()
             if e.kind == "fibration1" and n != "eff1:Z2->1"]
    for name in names:
        warm = fixture_library()[name].value
        for n in (-1, 0, 1):
            hlevel1_check(warm, n)
        for fuel in (0, 50, 500):
            for what, n in (("hlevel", -1), ("hlevel", 0), ("hlevel", 1),
                            ("truncate", -1), ("truncate", 0)):
                cold = fixture_library()[name].value
                assert _stored_at_fuel(warm, what, n, fuel) == \
                    _stored_at_fuel(cold, what, n, fuel), (name, what, n, fuel)


def test_low_fuel_verdicts_do_not_depend_on_warm_caches():
    warm = fixture_fibrations1()
    for name, f in warm.items():
        H = homotopic_decide(f, f).witness
        assert check_morphism1(f).status == "valid", name
        assert check_homotopy(f, f, H).status == "valid", name
        for fuel in (5, 20, 50, 200):
            cold = fixture_fibrations1()[name]
            v = check_morphism1(f, fuel)
            assert isinstance(v, Verdict)
            assert v == check_morphism1(cold, fuel), (name, fuel)
            v = check_homotopy(f, f, H, fuel)
            assert isinstance(v, Verdict)
            cold = fixture_fibrations1()[name]
            assert v == check_homotopy(cold, cold, H, fuel), (name, fuel)
