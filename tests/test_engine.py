"""The obligation engine: checking and synthesis read one declaration.

Every structure code is a table settled from its obligations, so moving
one entry out of its target must make the matching check fail on exactly
that obligation; synthesis either yields codes that check, or names an
obligation group whose intersection is empty in the raw data.
"""

import dataclasses
import itertools

from hypothesis import given, settings, strategies as st

from effpath import pca
from effpath.core import (
    SynthesisFailed, Verdict, check_morphism, check_object, identity,
    make_object,
)
from effpath.eff1 import (
    check_fibration1, check_homotopy1, check_morphism1, check_object1,
    identity1, identity_homotopy1, inflate, synthesize_fibration1_witness,
    terminal_map1, z2_homotopies, z2_object, z2_twist,
)
from effpath.fixtures import (
    fixture_fibrations1, interval, swap_morphism, two_point_bundle,
)
from effpath.path import (
    check_fibration, check_homotopy, homotopic_decide,
    synthesize_fibration_witness,
)

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
        ({"unit1": "unit", "inv1": "inverse", "comp1": "composition",
          "coh_lunit": "left unit coherence",
          "coh_runit": "right unit coherence",
          "coh_linv": "left inverse coherence",
          "coh_rinv": "right inverse coherence",
          "coh_assoc": "associativity coherence", "id2": "2-identity",
          "vcomp": "vertical composition", "inv2": "2-inverse",
          "hcomp": "horizontal composition"}, z2, check_object1),
        ({"tracking0": "tracking0", "tracking1": "tracking1"}, sw,
         check_morphism),
        ({"tracking0": "0-tracking", "tracking1": "1-tracking",
          "tracking2": "2-tracking", "funct_id": "identity preservation",
          "funct_comp": "composite preservation"}, tw, check_morphism1),
        ({"lift0": "lift (1)", "lift1": "lift (1)", "lift2": "lift (2)"},
         synthesize_fibration_witness(p), lambda w: check_fibration(p, w)),
        ({"lift0": "lift (1)", "lift1": "lift (1)", "lift1p": "lift (2)",
          "lift2": "lift (2)", "lift2p": "lift (3)"},
         synthesize_fibration1_witness(t1),
         lambda w: check_fibration1(t1, w)),
        ({"code": "homotopy"}, homotopic_decide(identity(i), sw).witness,
         lambda h: check_homotopy(identity(i), sw, h)),
        ({"h1": "homotopy 1-cell", "h2": "homotopy filler"}, H,
         lambda h: check_homotopy1(identity1(z2), tw, h)),
    ]


def test_moving_one_table_entry_out_of_its_target_is_invalid():
    slots = 0
    for labels, holder, check in _structures():
        assert check(holder).status == "valid", labels
        for slot, label in labels.items():
            table = dict(pca._table_entry(getattr(holder, slot))[0])
            assert table, slot
            table[min(table)] = BAD
            broken = dataclasses.replace(
                holder, **{slot: pca.tabulate(table)})
            v = check(broken)
            assert v.status == "invalid" and v.reason.startswith(label), \
                (slot, v)
            slots += 1
    assert slots == 3 + 12 + 2 + 5 + 3 + 5 + 1 + 2


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


# --- fuel-honest dependent values -------------------------------------------

def test_low_fuel_verdicts_do_not_depend_on_warm_caches():
    warm = fixture_fibrations1()
    for name, f in warm.items():
        H = identity_homotopy1(f)
        assert check_morphism1(f).status == "valid", name
        assert check_homotopy1(f, f, H).status == "valid", name
        for fuel in (5, 20, 50, 200):
            cold = fixture_fibrations1()[name]
            v = check_morphism1(f, fuel)
            assert isinstance(v, Verdict)
            assert v == check_morphism1(cold, fuel), (name, fuel)
            v = check_homotopy1(f, f, H, fuel)
            assert isinstance(v, Verdict)
            cold = fixture_fibrations1()[name]
            assert v == check_homotopy1(cold, cold, H, fuel), (name, fuel)
