"""The input tables kept on each object.

The object streams at both levels read their visible inputs, Cantor tuples
of realizers, cells and 2-cells, from tables kept on the object.  Building
an object fills them and every later check reads them; an object made any
other way (by `inflate`, by hand, or as a `dataclasses.replace` copy) fills
its own on its first check.  Driven cold and then warm, the streams yield
what the frozen generators of `reference_stages` yield, and a warm drive
encodes nothing.  A 0-truncation starts from the tables of the object it
is built on, and the single reads of an inverse or a composite read them
too.
"""

import collections
import contextlib
import dataclasses
import functools
import itertools
import sys
from collections import defaultdict

import pytest

from effpath import core, eff1, pca
from effpath.core import (
    EffObject, _adjacency, _object_stages, check_object, settle, verify,
)
from effpath.eff1 import (
    _OBJECT1_SLOTS, _object1_stages, check_object1, inflate, path_object1,
    product1, z2_object,
)
from effpath.fixtures import interval, nat_trunc, walking_pair
from effpath.path import path_object
from effpath.pca import Diverges, apply

import reference_stages as ref
from test_stages import BIG_FUEL, _drive

_ENCODERS = (pca, core, eff1)  # every module that calls tuple_encode here


# the functions that encode an object's inputs, and the kind of input each
# encodes
_ASKERS = {"_one_cell_inputs": "one-cell", "_inv": "one-cell",
           "_id2": "one-cell", "_comp_inputs": "composition",
           "_comp": "composition", "_assoc_inputs": "associativity",
           "_two_cell_inputs": "2-cell", "_vcomp_inputs": "vertical",
           "_hcomp_inputs": "horizontal"}
_SKELETON_KINDS = ("one-cell", "composition", "associativity")


def _asker_kind():
    """The kind of the innermost function of _ASKERS on the stack, or
    "other"."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_name not in _ASKERS:
        frame = frame.f_back
    return "other" if frame is None else _ASKERS[frame.f_code.co_name]


@contextlib.contextmanager
def _counting_encodes(kind=lambda: 0):
    """A Counter of the calls of pca.tuple_encode, under every name the
    object streams reach it by, keyed by kind() (all under 0 by default)."""
    calls, encode = collections.Counter(), pca.tuple_encode

    def counted(*parts):
        calls[kind()] += 1
        return encode(*parts)
    with pytest.MonkeyPatch.context() as mp:
        for module in _ENCODERS:
            mp.setattr(module, "tuple_encode", counted)
        yield calls


@functools.cache
def _z2_objects():
    z2 = z2_object()
    return z2, path_object1(z2).obj, product1(z2, z2)[0]


def test_a_check_reuses_what_the_build_encoded():
    _, pz2, prod = _z2_objects()
    for obj in (pz2, prod):
        with _counting_encodes() as calls:
            assert check_object1(obj, fuel=BIG_FUEL).status == "valid"
        assert calls[0] == 0, obj


def test_an_early_failure_encodes_the_inputs_of_one_edge():
    # a copy of P(Z2) without tables, whose coh_assoc is wrong at its first
    # input: the check reads one edge's associativity inputs, not all
    _, pz2, _ = _z2_objects()
    adj, edges = core._edges_of(pz2)
    first = eff1._assoc_inputs(pz2, adj, *edges[0][:2])[0]
    bad = dataclasses.replace(pz2, coh_assoc=pca.Table(
        {**pz2.coh_assoc.values, first: -1}))
    with _counting_encodes() as calls:
        verdict = check_object1(bad, fuel=BIG_FUEL)
    assert verdict.reason == \
        f"associativity coherence: value -1 outside target at {first}"
    assert calls[0] <= 3_009, calls[0]


def _level0_reference(cells, realizer, hom):
    """core._object_stages with no values given, encoding every input per
    obligation."""
    R, adj = realizer, _adjacency(cells, hom)

    def stages(_val):
        out = [("unit_code", R[a], hom[a, a], "unit") for a in cells]
        for a in cells:
            for b, hab, _ in adj[a]:
                out += [("inv_code", ref.tuple_encode(R[a], R[b], p),
                         hom[b, a], "inverse") for p in hab]
        for a in cells:
            for b, hab, _ in adj[a]:
                for c, hbc, _ in adj[b]:
                    out += [("comp_code",
                             ref.tuple_encode(R[a], R[b], R[c], p, r),
                             hom[a, c], "composition")
                            for p, r in itertools.product(hab, hbc)]
        yield out
    return stages


def _streams(X):
    """(stream of X's data on a holder, frozen stream, engine) for
    synthesis from X's data and for the check of X's codes, at X's level."""
    hom = defaultdict(frozenset, X.hom)
    if isinstance(X, EffObject):
        synth = functools.partial(settle, slots=("unit_code", "inv_code",
                                                 "comp_code"))
        return [(functools.partial(_object_stages, X.cells, X.realizer, hom),
                 _level0_reference(X.cells, X.realizer, hom), engine)
                for engine in (synth, lambda s: verify(s, vars(X)))]
    R = X.realizer

    def run(slot, *xs):
        return apply(getattr(X, slot), ref.tuple_encode(*xs))
    given = (lambda a: run("unit_code", R[a]),
             lambda a, b, p: run("inv_code", R[a], R[b], p),
             lambda a, b, c, p, r: run("comp_code", R[a], R[b], R[c], p, r))
    built = (X.cells, X.realizer, X.hom, X.hom2, *given)
    checked = (X.cells, X.realizer, hom, defaultdict(frozenset, X.hom2))
    return [(functools.partial(_object1_stages, *built),
             ref.object1_stages(*built),
             functools.partial(settle, slots=_OBJECT1_SLOTS)),
            (functools.partial(_object1_stages, *checked),
             ref.object1_stages(*checked), lambda s: verify(s, vars(X)))]


def _cold_then_warm(X) -> list:
    """Each object stream of X driven three times: on a copy of X with no
    tables, again on that copy, and on X; every drive must yield what the
    frozen stream yields.  Returns the encodes of each drive."""
    copy = dataclasses.replace(X)
    encodes = []
    for holder in (copy, copy, X):
        for stream, frozen, engine in _streams(X):
            with pca.fuel_limit(BIG_FUEL):
                with _counting_encodes() as calls:
                    got = _drive(stream(holder=holder), engine)
                want = _drive(frozen, engine)
            assert got == want
            encodes.append(calls[0])
    return encodes


def test_level_1_object_streams_read_their_tables_cold_and_warm():
    z2, _, prod = _z2_objects()
    for X in (z2, prod):
        encodes = _cold_then_warm(X)
        assert encodes[0] > 0 and encodes[1:] == [0] * 5, (X, encodes)
    # an inflated object has no tables until its first drive
    encodes = _cold_then_warm(inflate(nat_trunc(2)))
    assert encodes[0] > 0 and encodes[4] > 0, encodes
    assert encodes[1:4] == [0] * 3 and encodes[5] == 0, encodes


def test_level_0_object_streams_read_their_tables_cold_and_warm():
    for X in (interval(), walking_pair(), nat_trunc(3),
              path_object(interval()).obj):
        encodes = _cold_then_warm(X)
        assert encodes[0] > 0 and encodes[1:] == [0] * 5, (X, encodes)


def test_objects_made_without_a_build_are_checked_on_their_own_data():
    z2 = z2_object()
    I = interval()
    assert check_object1(z2).status == "valid"  # fills z2's tables
    assert check_object(I).status == "valid"
    extra_loop = dataclasses.replace(
        z2, hom={**z2.hom, (0, 0): z2.hom[0, 0] | {7}})
    extra_two_cell = dataclasses.replace(
        z2, hom2={**z2.hom2, (0, 0, 0, 0): z2.hom2[0, 0, 0, 0] | {9}})
    extra_cell = dataclasses.replace(
        I, hom={**I.hom, ("0", "1"): frozenset({0, 3})})
    dropped = dataclasses.replace(I, hom={**I.hom, ("1", "0"): frozenset()})
    inflated = inflate(interval())
    for _ in range(2):  # cold, then warm
        assert check_object1(inflated).status == "valid"
        assert check_object1(extra_loop).reason == \
            "inverse: diverges at 665"
        assert check_object1(extra_two_cell, fuel=BIG_FUEL).reason == (
            "vertical composition: diverges at "
            "30700002123226936025189367747945843590228731689")
        assert check_object(extra_cell).reason == "inverse: diverges at 104"
        assert check_object(dropped).reason == \
            "inverse: no acceptable value at 2"


def test_the_0_truncation_reads_its_sources_skeleton_inputs():
    # the 0-truncation of P(Z2) -> Z2 is built on P(Z2)'s cells, realizer
    # and hom-sets: it encodes only inputs that read its own 2-cells, and
    # builds the codes a build from a copy of P(Z2) without tables builds
    z2, pz2, _ = _z2_objects()
    st = path_object1(z2).st
    assert st.dom is pz2
    bare = dataclasses.replace(st, dom=dataclasses.replace(pz2))

    def truncate(f):
        with _counting_encodes(_asker_kind) as kinds:
            return eff1._truncate1(f, 0), kinds
    (shared, shared_kinds), (alone, alone_kinds) = map(truncate, (st, bare))
    assert all(shared_kinds[k] == 0 for k in _SKELETON_KINDS), shared_kinds
    assert all(alone_kinds[k] > 0 for k in _SKELETON_KINDS), alone_kinds
    assert shared_kinds["2-cell"] > 0, shared_kinds
    C, C_alone = shared.g.cod, alone.g.cod
    for key in eff1._SKELETON_INPUTS:
        assert core._built(C)[key] is core._built(pz2)[key], key
    for slot in _OBJECT1_SLOTS:
        assert getattr(C, slot) == getattr(C_alone, slot), slot
    for m, m_alone in ((shared.g, alone.g), (shared.h, alone.h)):
        for field in ("zero_map", "one_map", "two_map", "tracking0",
                      "tracking1", "tracking2", "funct_id", "funct_comp"):
            assert getattr(m, field) == getattr(m_alone, field), field


def _outcome(read):
    try:
        return read()
    except (Diverges, KeyError) as e:
        return type(e)


def test_inverse_and_composite_read_the_kept_inputs():
    # _inv and _comp on a built object encode no input its tables hold,
    # and encode one outside them (a 1-cell outside its hom-set) to read
    # what the code gives there, a value or Diverges
    z2, pz2, _ = _z2_objects()
    for A in (z2, pz2):
        R, (adj, edges) = A.realizer, core._edges_of(A)
        every = sorted(set().union(*A.hom.values()))
        probes = {(a, b): [*hab, *(sorted(set(every) - set(hab))),
                           max(every) + 1] for a, b, hab, _ in edges}
        with pca.fuel_limit(BIG_FUEL), _counting_encodes() as calls:
            got_inv = {(a, b, p): _outcome(lambda: core._inv(A, a, b, p))
                       for (a, b), ps in probes.items() for p in ps}
            got_comp = {
                (a, b, c, p, r):
                _outcome(lambda: core._comp(A, a, b, c, p, r))
                for a, b, hab, _ in edges for c, hbc, _ in adj[b]
                for p in probes[a, b] for r in hbc}
        outside = sum(p not in A.hom[a, b] for a, b, p in got_inv) + \
            sum(p not in A.hom[a, b] for a, b, _, p, _ in got_comp)
        assert calls[0] == outside > 0, A

        def run(code, *parts):
            return _outcome(lambda: apply(code, ref.tuple_encode(*parts),
                                          BIG_FUEL))
        assert got_inv == {
            (a, b, p): run(A.inv_code, R[a], R[b], p) for a, b, p in got_inv}
        assert got_comp == {
            (a, b, c, p, r): run(A.comp_code, R[a], R[b], R[c], p, r)
            for a, b, c, p, r in got_comp}
        assert Diverges in got_inv.values()
        with pytest.raises(KeyError):
            core._inv(A, "no such cell", A.cells[0], 0)
