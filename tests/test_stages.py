"""The 2-cell obligation generators against a frozen copy of the ones they
replaced.

`reference_stages` reads every composite through a 5-tuple cache and
encodes every composition input per obligation; `eff1` reads composites
from one table per cell triple and composition inputs from tables kept on
each object.  Driven by the engine in both modes (the
value function reading settled tables, and running the codes), the two
must yield the same obligations, stage by stage and element by element,
and reach the same tables or the same verdict.
"""

import dataclasses
import functools
from collections import defaultdict

from hypothesis import HealthCheck, given, settings

from effpath import eff1
from effpath.core import SynthesisFailed, settle, verify
from effpath.eff1 import (
    _MORPHISM1_SLOTS, _OBJECT1_SLOTS, _given, _morphism1_stages,
    _object1_stages, inflate, inflate_morphism,
)
from effpath.fixtures import fixture_library
from effpath.pca import apply, fuel_limit

import reference_stages as ref
import strategies

BIG_FUEL = 10 ** 7


def _recorded(stages, log):
    """``stages`` with each stage read in full and appended to ``log``."""
    def wrapped(val):
        for stage in stages(val):
            log.append(list(stage))
            yield log[-1]
    return wrapped


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
