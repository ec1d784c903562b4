"""The obligation engine reads blocks as it read single obligations.

A stream declares its obligations in blocks (slot, ts, accs, label), one
obligation per pair of zip(ts, accs).  `settle` must reach the tables and
the SynthesisFailed messages that intersecting one obligation at a time
reaches, realizer twins inside a block and across blocks included, and
`verify` must give the verdict that reading one obligation at a time gives
(the frozen engine of `reference_stages`): at the first, middle and last
element of a large block, and where the charges of a Table straddle the
fuel limit within a block.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from effpath import eff1, pca
from effpath.core import SynthesisFailed, _edges_of, settle, verify
from effpath.eff1 import _assoc_inputs, path_object1, z2_object
from effpath.pca import Table, fuel_limit, tabulate

import reference_stages as ref
from test_stages import BIG_FUEL, _one_by_one, _without_need, flattened


def _settled_one_by_one(blocks, slots):
    """settle on one stage of blocks, intersecting one obligation at a time
    as the engine did before it read blocks."""
    out = {}
    for slot, t, acc, label in flattened(blocks):
        acc = out[slot, t].intersection(acc) if (slot, t) in out \
            else frozenset(acc)
        if not acc:
            raise SynthesisFailed(f"{label}: empty at input {t}")
        out[slot, t] = acc
    tables = {s: {} for s in slots}
    for (slot, t), acc in out.items():
        tables[slot][t] = min(acc)
    return tables


def _outcome(run):
    try:
        return run()
    except SynthesisFailed as e:
        return ("failed", str(e))


SETS = st.frozensets(st.integers(0, 3), max_size=3)
BLOCKS = st.lists(st.tuples(
    st.sampled_from(["a", "b"]),
    st.lists(st.tuples(st.integers(0, 5), SETS), min_size=1, max_size=6),
    st.sampled_from(["x", "y"])), max_size=5).map(
        lambda bs: [(slot, tuple(t for t, _ in obs), [acc for _, acc in obs],
                     label) for slot, obs, label in bs])


@settings(deadline=None, max_examples=300)
@given(BLOCKS)
def test_settle_intersects_blocks_as_one_obligation_at_a_time(blocks):
    got = _outcome(lambda: settle(lambda _val: [blocks], ("a", "b")))
    assert got == _outcome(lambda: _settled_one_by_one(blocks, ("a", "b")))


def test_realizer_twins_inside_a_block_and_across_blocks():
    inside = [("c", (1, 2, 1), [{0, 1}, {3}, {1, 2}], "twins")]
    across = [("c", (1, 2), [{0, 1}, {3}], "twins"),
              ("c", (5, 1), [{4}, {1, 2}], "twins")]
    for blocks in (inside, across):
        assert settle(lambda _val: [blocks], ("c",)) == \
            _settled_one_by_one(blocks, ("c",)) == {"c": {1: 1, 2: 3, 5: 4}
                                                    if len(blocks) == 2
                                                    else {1: 1, 2: 3}}
    empty_inside = [("c", (7, 1, 1), [{0}, {0, 1}, {2}], "twins")]
    empty_across = [("c", (7, 1), [{0}, {0, 1}], "twins"),
                    ("c", (3, 1), [set(), {2}], "twins")]
    for blocks in (empty_inside, empty_across):
        with pytest.raises(SynthesisFailed) as e:
            settle(lambda _val: [blocks], ("c",))
        assert str(e.value) == _outcome(
            lambda: _settled_one_by_one(blocks, ("c",)))[1]
    assert str(e.value) == "twins: empty at input 3"


def test_a_block_whose_lists_differ_in_length_raises():
    code = tabulate({1: 0, 2: 0})
    for ts, accs in (((1, 2), [{0}]), ((1,), [{0}, {0}])):
        with pytest.raises(ValueError):
            settle(lambda _val: [[("c", ts, accs, "short")]], ("c",))
        with pytest.raises(ValueError):
            verify(lambda _val: [[("c", ts, accs, "short")]], {"c": code})


def _verdicts(blocks, codes, fuel):
    """verify on one stage of blocks, and the frozen engine reading them
    one obligation at a time, at ``fuel``."""
    with fuel_limit(fuel):
        return (verify(lambda _val: [blocks], codes),
                _one_by_one(ref.verify)(lambda _val: [blocks], codes))


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.integers(0, 40), st.integers(0, 3), max_size=40),
       st.lists(st.tuples(st.integers(0, 45), SETS), min_size=1,
                max_size=60),
       st.integers(0, 300))
def test_verify_reads_a_block_as_one_obligation_at_a_time(table, obs, fuel):
    block = ("c", [t for t, _ in obs], [acc for _, acc in obs], "probe")
    got, want = _verdicts([block], {"c": tabulate(table)}, fuel)
    assert got.status == want.status
    assert _without_need(got.reason, fuel) == want.reason


def test_charges_that_straddle_the_fuel_within_a_block():
    keys = list(range(0, 3000, 3))
    code = tabulate({k: k % 2 for k in keys})
    fuel = code.charge(keys[599])
    block = ("c", keys, [{0, 1}] * len(keys), "probe")
    got, want = _verdicts([block], {"c": code}, fuel)
    assert want.reason == f"probe: fuel exhausted at {keys[600]}"
    assert got.reason == (f"probe: fuel {fuel} exhausted at {keys[600]}; "
                          f"the lookup needs {code.charge(keys[600])}")
    # a value outside its target before the straddle still comes first
    accs = [{0, 1}] * len(keys)
    accs[300] = {5}
    got, want = _verdicts([("c", keys, accs, "probe")], {"c": code}, fuel)
    assert got == want
    assert got.reason == f"probe: value 0 outside target at {keys[300]}"


@functools.cache
def _pz2_first_assoc_block():
    P = path_object1(z2_object()).obj
    adj, edges = _edges_of(P)
    a, b, _, _ = edges[0]
    return P, _assoc_inputs(P, adj, a, b)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_failure_in_a_large_block_is_named_as_one_at_a_time(where):
    P, ts = _pz2_first_assoc_block()
    assert len(ts) >= 512
    t = ts[{"first": 0, "middle": len(ts) // 2, "last": -1}[where]]
    moved = {**P.coh_assoc.values, t: -1}
    deleted = {k: v for k, v in P.coh_assoc.values.items() if k != t}
    for values, reason in (
            (moved, f"associativity coherence: value -1 outside target "
                    f"at {t}"),
            (deleted, f"associativity coherence: diverges at {t}")):
        bad = dataclasses.replace(P, coh_assoc=Table(values))
        got = eff1.check_object1(bad, fuel=BIG_FUEL)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eff1, "verify", _one_by_one(ref.verify))
            want = eff1.check_object1(bad, fuel=BIG_FUEL)
        assert got == want
        assert got.reason == reason


def test_the_path_object_of_z2_stays_unknown_at_the_default_fuel():
    P, _ = _pz2_first_assoc_block()
    assert eff1.check_object1(P).reason == (
        f"associativity coherence: fuel {pca.DEFAULT_FUEL} exhausted at "
        "60328467484514345085777519194; the lookup needs 115591")
