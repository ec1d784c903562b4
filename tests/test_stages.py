"""The 2-cell obligation generators and the checking engine against
frozen copies of the ones they replaced.

`reference_stages` reads every composite through a 5-tuple cache and
encodes every composition input per obligation; `eff1` reads composites
from one table per cell triple and composition inputs from tables kept on
each object.  Driven by the engine in both modes (the
value function reading settled tables, and running the codes), the two
must yield the same obligations, stage by stage and element by element,
and reach the same tables or the same verdict.

`reference_stages.verify` applies every code through the machine and keeps
each outcome; `core.verify` reads a Table by lookup.  Every checker at
both levels must give the same verdict through either, at fuel limits on
both sides of each table's largest charge, on the codes as built and on
copies with one table entry moved out of its target, one deleted, and one
slot holding an int code.
"""

import dataclasses
import functools
import re
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings

from effpath import core, eff1, path
from effpath.core import SynthesisFailed, settle, verify
from effpath.eff1 import (
    _MORPHISM1_SLOTS, _OBJECT1_SLOTS, _given, _morphism1_stages,
    _object1_stages, inflate, inflate_morphism,
)
from effpath.fixtures import fixture_library
from effpath.pca import DEFAULT_FUEL, Table, apply, fuel_limit

import reference_stages as ref
import strategies

BIG_FUEL = 10 ** 7


def _as_blocks(stage):
    """The blocks (slot, ts, accs, label) of a stage; a frozen generator's
    single obligation (slot, t, acc, label), whose input is an int, is taken
    as a block of one."""
    for x in stage:
        yield (x[0], (x[1],), (x[2],), x[3]) if isinstance(x[1], int) else x


def flattened(blocks):
    """The single obligations (slot, t, acc, label) of ``blocks`` in
    declaration order."""
    for slot, ts, accs, label in blocks:
        for t, acc in zip(ts, accs, strict=True):
            yield slot, t, acc, label


def _recorded(stages, log):
    """``stages`` with each stage read in full and appended to ``log`` as
    single obligations; the engine is given its blocks."""
    def wrapped(val):
        for stage in stages(val):
            blocks = list(_as_blocks(stage))
            log.append(list(flattened(blocks)))
            yield blocks
    return wrapped


def _one_by_one(verify):
    """The frozen ``verify``, reading the blocks of a stream one obligation
    at a time."""
    def read(stages, codes):
        return verify(lambda val: (flattened(stage) for stage in stages(val)),
                      codes)
    return read


def _drive(stages, engine):
    """The obligations the engine saw and its result (or the SynthesisFailed
    it raised, as its message)."""
    log = []
    try:
        out = engine(_recorded(stages, log))
    except SynthesisFailed as e:
        out = ("failed", str(e))
    return log, out


def _same_stream(new, old, engine):
    with fuel_limit(BIG_FUEL):
        got, want = _drive(new, engine), _drive(old, engine)
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x == y
    assert got[1] == want[1]
    return [x for stage in got[0] for x in stage]


def _labelled(hom2):
    """hom2 with every 2-cell set made distinct, so that a target read at
    the wrong key shows in the stream even where the real sets agree."""
    return {key: frozenset({i}) for i, key in enumerate(hom2)}


def _object_streams_agree(X):
    """Settled from X's cells and hom-sets with its own 1-level values, and
    checked against its codes, as make_object1 and check_object1 do; with
    X's 2-cell sets and with distinct ones.  Returns the settled stream."""
    R = X.realizer

    def run(slot, *xs):
        return apply(getattr(X, slot), ref.tuple_encode(*xs))
    given = (lambda a: run("unit_code", R[a]),
             lambda a, b, p: run("inv_code", R[a], R[b], p),
             lambda a, b, c, p, r: run("comp_code", R[a], R[b], R[c], p, r))
    streams = []
    for hom2 in (X.hom2, _labelled(X.hom2)):
        built = (X.cells, X.realizer, X.hom, hom2, *given)
        checked = (X.cells, X.realizer, defaultdict(frozenset, X.hom),
                   defaultdict(frozenset, hom2))
        streams.append(_same_stream(
            _object1_stages(*built), ref.object1_stages(*built),
            functools.partial(settle, slots=_OBJECT1_SLOTS)))
        _same_stream(_object1_stages(*checked), ref.object1_stages(*checked),
                     lambda stages: verify(stages, vars(X)))
    return streams[0]


def _morphism_streams_agree(f):
    """Settled from f's cell map, and checked against its codes with its
    values forced, as synthesize_morphism1 and check_morphism1 do; into
    f's codomain and into a copy with distinct 2-cell sets."""
    given = _given(lambda b, b2, p: f.one_map.get((b, b2), {}).get(p),
                   lambda b, b2, p, r, n:
                       f.two_map.get((b, b2, p, r), {}).get(n))
    for cod in (f.cod, dataclasses.replace(f.cod,
                                           hom2=_labelled(f.cod.hom2))):
        settled = (f.dom, cod, f.zero_map)
        checked = settled + given
        _same_stream(_morphism1_stages(*settled),
                     ref.morphism1_stages(*settled),
                     functools.partial(settle, slots=_MORPHISM1_SLOTS))
        _same_stream(_morphism1_stages(*checked),
                     ref.morphism1_stages(*checked),
                     lambda stages: verify(stages, vars(f)))


@functools.cache
def _z2_constructions():
    z2 = eff1.z2_object()
    return eff1.path_object1(z2), eff1.product1(z2, z2)


def test_the_path_object_of_z2_and_its_maps_yield_the_same_obligations():
    bundle, _ = _z2_constructions()
    obligations = _object_streams_agree(bundle.obj)
    assert len(obligations) == 37_896
    assert sum(x[0] == "coh_assoc" for x in obligations) == 32_768
    for f in (bundle.st, bundle.r):
        _morphism_streams_agree(f)


def test_the_product_of_z2_and_its_projections_yield_the_same_obligations():
    _, (prod, pr1, pr2) = _z2_constructions()
    _object_streams_agree(prod)
    for f in (pr1, pr2):
        _morphism_streams_agree(f)


def test_the_level_1_library_yields_the_same_obligations():
    kinds = set()
    for entry in fixture_library().values():
        if entry.kind == "object1":
            _object_streams_agree(entry.value)
        elif entry.kind == "fibration1":
            _morphism_streams_agree(entry.value)
        else:
            continue
        kinds.add(entry.kind)
    assert kinds == {"object1", "fibration1"}


_random = settings(deadline=None, max_examples=40,
                   suppress_health_check=[HealthCheck.filter_too_much,
                                          HealthCheck.too_slow])


@_random
@given(strategies.objects())
def test_random_objects_yield_the_same_obligations(X):
    _object_streams_agree(inflate(X))


@_random
@given(strategies.maps())
def test_random_maps_yield_the_same_obligations(f):
    _morphism_streams_agree(inflate_morphism(f))


# --- the engine against the frozen one ---------------------------------------

def _tables(value) -> dict:
    return {k: v for k, v in vars(value).items()
            if type(v) is Table and v.values}


def _fuels(value) -> tuple:
    """0, 7, 50, the charge of the largest-rank entry of value's tables
    and one less, DEFAULT_FUEL and 10^7."""
    top = max(code.charge(max(code.values))
              for code in _tables(value).values())
    return 0, 7, 50, top - 1, top, DEFAULT_FUEL, BIG_FUEL


_NEED = re.compile(r"fuel (\d+) exhausted at (\d+); the lookup needs (\d+)$")


def _without_need(reason: str, fuel: int) -> str:
    """A lookup's UNKNOWN reason as the frozen engine words it, having
    checked that it names the limit and a larger charge."""
    m = _NEED.search(reason)
    if m is None:
        return reason
    assert int(m[1]) == fuel < int(m[3]), reason
    return f"{reason[:m.start()]}fuel exhausted at {m[2]}"


def _same_verdicts(check, *args):
    """check(*args, fuel=...) through both engines at each of _fuels of
    args[-1], the value whose codes are read; returns the statuses."""
    statuses = []
    for fuel in _fuels(args[-1]):
        with pytest.MonkeyPatch.context() as mp:
            for module in (core, path, eff1):
                mp.setattr(module, "verify", _one_by_one(ref.verify))
            want = check(*args, fuel=fuel)
        got = check(*args, fuel=fuel)
        assert got.status == want.status, (check.__name__, fuel, got, want)
        assert _without_need(got.reason, fuel) == want.reason, \
            (check.__name__, fuel)
        statuses.append(got.status)
    return statuses


def _corrupted(value):
    """Copies of value: the largest-rank entry of its largest table moved
    out of every target, then deleted; its smallest table as an int
    code, which the engine runs on the machine."""
    tables = sorted(_tables(value).items(), key=lambda kv: len(kv[1].values))
    big, code = tables[-1]
    key = max(code.values)
    moved = {**code.values, key: -1}
    deleted = {k: v for k, v in code.values.items() if k != key}
    small, small_code = tables[0]
    return (dataclasses.replace(value, **{big: Table(moved)}),
            dataclasses.replace(value, **{big: Table(deleted)}),
            dataclasses.replace(value, **{small: int(small_code)}))


def _corrupted_verdicts(check, *args):
    """_same_verdicts on each corrupted copy of args[-1]; returns the
    statuses at 10^7 fuel."""
    return [_same_verdicts(check, *args[:-1], bad)[-1]
            for bad in _corrupted(args[-1])]


def test_the_engine_reads_z2_constructions_as_the_frozen_one_runs_them():
    bundle, (prod, pr1, pr2) = _z2_constructions()
    # the largest charge suffices; the default fuel does not
    assert _same_verdicts(eff1.check_object1, bundle.obj) == [
        "unknown"] * 4 + ["valid", "unknown", "valid"]
    assert _NEED.search(eff1.check_object1(bundle.obj).reason)
    assert _same_verdicts(eff1.check_object1, prod)[-2:] == ["valid"] * 2
    for f in (bundle.st, bundle.r, pr1, pr2):
        assert _same_verdicts(eff1.check_morphism1, f)[-1] == "valid"
    assert _same_verdicts(eff1.check_fibration1, bundle.st,
                          bundle.witness)[-1] == "valid"
    assert _corrupted_verdicts(eff1.check_object1, bundle.obj) == [
        "invalid", "invalid", "valid"]
    assert _corrupted_verdicts(eff1.check_morphism1, bundle.st) == [
        "invalid", "invalid", "valid"]
    assert _corrupted_verdicts(eff1.check_fibration1, bundle.st,
                               bundle.witness) == [
        "invalid", "invalid", "valid"]


def test_the_engine_reads_the_library_as_the_frozen_one_runs_them():
    kinds = set()
    for entry in fixture_library().values():
        v = entry.value
        if entry.kind == "object1":
            checks = [(eff1.check_object1, v)]
        elif entry.kind == "fibration1":
            checks = [(eff1.check_morphism1, v),
                      (eff1.check_fibration1, v,
                       eff1.synthesize_fibration1_witness(v))]
        elif entry.kind == "object":
            checks = [(core.check_object, v)]
        elif entry.kind == "pathobj":
            checks = [(core.check_object, v.obj),
                      (core.check_morphism, v.st),
                      (path.check_fibration, v.st, v.witness)]
        elif entry.kind == "fibration":
            checks = [(core.check_morphism, v),
                      (path.check_fibration, v,
                       path.synthesize_fibration_witness(v))]
        else:
            continue
        kinds.add(entry.kind)
        for check in checks:
            if not _tables(check[-1]):  # an empty carrier: nothing to read
                continue
            assert _same_verdicts(*check)[-1] == "valid", entry.name
            _corrupted_verdicts(*check)
    assert kinds == {"object", "pathobj", "fibration", "object1",
                     "fibration1"}
