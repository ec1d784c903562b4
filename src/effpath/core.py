"""Objects and morphisms of the realizability groupoid category.

An object is a finite carrier with a realizer map, hom-sets of naturals and
three structure codes (unit, inverse, composition).  Validation is exhaustive
and fuel-bounded; whenever a single code sees only realizers, all cells
sharing the same visible input must be served by the same output value
(intersection semantics).

The procedures marked ``@dispatch_on`` here and in path, constructions and
classify serve both levels under one name: each dispatches on the type of its
first argument, and eff1 registers its implementations for Eff1Object and
Eff1Morphism.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import singledispatch
from operator import contains
from types import SimpleNamespace

from .pca import (
    Diverges, FuelExhausted, Table, apply, compile_term, fuel_limit,
    fuel_now, tabulate, tuple_encode, lam, app, Var, SND_C,
)

YES, NO, UNKNOWN = "yes", "no", "unknown"


@dataclass(frozen=True)
class Verdict:
    status: str  # "valid" | "invalid" | "unknown"
    reason: str = ""

    def __bool__(self) -> bool:
        return self.status == "valid"


def valid() -> Verdict:
    return Verdict("valid")


def invalid(reason: str) -> Verdict:
    return Verdict("invalid", reason)


def unknown(reason: str) -> Verdict:
    return Verdict("unknown", reason)


@dataclass
class Decision:
    """Three-way answer for existence questions (homotopy, equivalence, ...).

    NO is only ever produced from definitive finite emptiness; fuel or budget
    exhaustion yields UNKNOWN.
    """
    status: str  # YES | NO | UNKNOWN
    witness: object = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.status == YES


class MapsDoNotFit(ValueError):
    """The maps given to a procedure do not fit together: they are not
    parallel, one does not end where the other starts, a square of them
    does not commute, or a composite of them that must be a fibration is
    not one."""


class SynthesisFailed(Exception):
    """No uniform code can serve the required table (empty intersection).

    ``slot``, ``t`` and the obligations' ``label`` name the failing group
    when the engine raised it."""

    def __init__(self, message: str, slot=None, t=None, label=None):
        super().__init__(message)
        self.slot, self.t, self.label = slot, t, label


def dispatch_on(level0: type):
    """functools.singledispatch on the first argument, with the level-0
    class ``level0`` registered explicitly, so that a first call on a
    level-0 value finds its implementation in the registry instead of
    searching the class's MRO."""
    def generic(func):
        dispatched = singledispatch(func)
        dispatched.register(level0, func)
        return dispatched
    return generic


# --- the obligation engine --------------------------------------------------
# A structure declares its side conditions once, as a function ``stages(val)``
# yielding stages; a stage is an iterable of blocks (slot, ts, accs, label),
# each standing for one obligation per pair (t, acc) of zip(ts, accs): the
# code named by slot, run at visible input t, must return a member of the
# acceptable set acc.  ts and accs are tuples or lists of one length.  A
# slot is a code name, or a tuple of names answering jointly with a tuple of
# values.  A block is a contiguous run of one slot's obligations, so the
# obligations keep their declaration order across blocks; a stream yields
# no empty block, and a single obligation as ``(slot, (t,), (acc,),
# label)``.  Later stages read earlier values through ``val(slot, t)``: the
# table being built when synthesizing, the code being run when checking.
#
# A stream whose targets read codes that may raise (FuelExhausted,
# Diverges) builds such a block in a ``try`` clause, appending each target
# before its input, and yields what it holds in the ``finally`` clause: a
# read that raises ends the block before its obligation, and the exception
# follows once the obligations before it are consumed, so a failure among
# them is still reported first.

def forced(value, target) -> tuple:
    """The acceptable set of an obligation whose value is given."""
    return (value,) if value in target else ()


def _intersect_groups(blocks) -> dict:
    """{slot: {t: acceptable values}}, intersected per (slot, t) in
    declaration order.  A block of fresh inputs with non-empty sets goes in
    by one dict update; only a repeated input (realizer twins) is
    intersected.  Raises SynthesisFailed at the first empty group."""
    out = {}
    for slot, ts, accs, label in blocks:
        group = out.get(slot)
        if group is None:
            group = out[slot] = {}
        if all(accs) and group.keys().isdisjoint(ts):
            n = len(group)
            group.update(zip(ts, accs, strict=True))
            if len(group) - n == len(ts):
                continue
            for t in ts:  # an input repeats within the block
                group.pop(t, None)
        for t, acc in zip(ts, accs, strict=True):
            if t in group:
                acc = frozenset(group[t]).intersection(acc)
            if not acc:
                raise SynthesisFailed(f"{label}: empty at input {t}", slot, t,
                                      label)
            group[t] = acc
    return out


def groups(stages) -> dict:
    """The first stage's acceptable sets intersected per slot and input,
    {slot: {t: set}}, in declaration order (the first stage reads no
    values).  Raises SynthesisFailed at the first empty intersection."""
    return _intersect_groups(next(iter(stages(None))))


def settle(stages, slots) -> dict:
    """Synthesis: per stage, intersect the acceptable sets its blocks
    declare for each (slot, t) and pick the least member of each group.
    Returns {code name: {t: value}} for every name in ``slots``; raises
    SynthesisFailed naming the first empty group."""
    tables = {s: {} for s in slots}
    for stage in stages(lambda slot, t: tables[slot][t]):
        for slot, group in _intersect_groups(stage).items():
            if isinstance(slot, tuple):
                for t, acc in group.items():
                    for s, x in zip(slot, min(acc)):
                        tables[s][t] = x
            else:
                tables[slot].update(zip(group, map(min, group.values())))
    return tables


def tabulate_all(tables: dict) -> dict:
    return {s: tabulate(table) for s, table in tables.items()}


def verify(stages, codes) -> Verdict:
    """Checking: read each (code, t) at the fuel limit in force and test
    every obligation in declaration order; the first failure wins.  A
    block of a Table whose largest charge (a miss's) is within the fuel is
    read in one pass of lookups, and scanned again one obligation at a time
    only to name its first failure; so is every other block.  A Table is
    read by lookup at the fuel its charge names; any other code is run once
    and its outcome kept.  Fuel exhaustion, also while computing a target,
    is UNKNOWN; divergence, an empty target or a value outside it is
    INVALID."""
    runs, fuel = {}, fuel_now()

    def read(name, t):
        # (status, value): "ok"/value, "div"/None, or "fuel"/the charge of
        # a lookup (None for a run); a joint slot reads as the tuple of its
        # slots' values, or as the first of them that is not "ok"
        if isinstance(name, tuple):
            v = ()
            for s in name:
                status, x = read(s, t)
                if status != "ok":
                    return status, x
                v += (x,)
            return "ok", v
        code = codes[name]
        if type(code) is Table:
            need = code.charge(t)
            if need > fuel:
                return "fuel", need
            v = code.values.get(t)
            return ("div", None) if v is None else ("ok", v)
        out = runs.get((name, t))
        if out is None:
            out = runs[name, t] = _run(code, t, fuel)
        return out

    def val(slot, t):
        status, v = read(slot, t)
        if status == "ok":
            return v
        raise FuelExhausted() if status == "fuel" else Diverges()

    try:
        for stage in stages(val):
            for slot, ts, accs, label in stage:
                if len(ts) != len(accs):
                    raise ValueError(f"{label}: a block of {len(ts)} inputs "
                                     f"and {len(accs)} targets")
                code = codes.get(slot)
                if type(code) is Table and code.charge(None) <= fuel and \
                        all(map(contains, accs, map(code.values.get, ts))):
                    continue
                for t, acc in zip(ts, accs):
                    if not acc:
                        return invalid(f"{label}: no acceptable value at {t}")
                    status, v = read(slot, t)
                    if status == "fuel":
                        return unknown(
                            f"{label}: fuel exhausted at {t}" if v is None
                            else f"{label}: fuel {fuel} exhausted at {t}; "
                            f"the lookup needs {v}")
                    if status == "div":
                        return invalid(f"{label}: diverges at {t}")
                    if v not in acc:
                        return invalid(
                            f"{label}: value {v} outside target at {t}")
    except FuelExhausted:
        return unknown("fuel exhausted computing a target")
    except Diverges:
        return invalid("a target value diverges")
    return valid()


# --- objects ----------------------------------------------------------------

@dataclass
class EffObject:
    cells: tuple
    realizer: dict
    hom: dict  # (cell, cell) -> frozenset of naturals
    unit_code: int
    inv_code: int
    comp_code: int
    name: str = ""

    def hom_of(self, a, b):
        return self.hom.get((a, b), frozenset())

    def __repr__(self):
        return f"EffObject({self.name or id(self)}, {len(self.cells)} cells)"


def _run(code: int, arg: int, fuel: int):
    """Returns (status, value): "ok"/value, "div"/None, or "fuel"/None."""
    try:
        return "ok", apply(code, arg, fuel)
    except Diverges:
        return "div", None
    except FuelExhausted:
        return "fuel", None


def _built(owner) -> dict:
    """What is kept on owner: its constructions and its input tables."""
    return owner.__dict__.setdefault("_built", {})


def _owned(owner, key, build):
    # a construction is stored on the instance it is built from, never
    # module-wide; the key names what else it depends on (eff1's carry the
    # fuel limit they were built at), so a call at another limit builds
    # afresh and runs out exactly as a cold call would
    built = _built(owner)
    if key not in built:
        built[key] = build()
    return built[key]


def _adopt(obj, holder):
    """obj, keeping the input tables encoded on holder from its data."""
    _built(obj).update(_built(holder))
    return obj


# --- input tables -----------------------------------------------------------
# The visible inputs of an object's structure codes, and of the codes of
# maps out of it, are Cantor tuples of realizers and cells.  They are
# encoded once per object, into tables kept on it through _owned; they
# depend on the object's realizer and hom-sets only, never on fuel.  An
# owner is an object, or a holder of the data an object is about to be
# built from (make_object installs it on the object it returns), and
# answers ``cells``, ``realizer`` and ``hom`` (and ``hom2`` at level 1).

def _one_cell_inputs(obj) -> dict:
    """{(a, b): {p: <alpha a, alpha b, p>}} over every pair of cells, p
    ascending: the inputs of the inverse, of eff1's unit and inverse
    coherences and id2, and of tracking1 of maps out of obj."""
    def build():
        R, hom = obj.realizer, obj.hom
        return {(a, b): {p: tuple_encode(R[a], R[b], p)
                         for p in sorted(hom.get((a, b), ()))}
                for a, b in itertools.product(obj.cells, repeat=2)}
    return _owned(obj, ("inputs",), build)


def _comp_inputs(obj, a, b, c) -> dict:
    """{(p, r): <alpha a, alpha b, alpha c, p, r>}, the inputs of comp_code
    over hom(a, b) x hom(b, c), each ascending; built per cell triple on
    first use."""
    blocks = _owned(obj, ("inputs3",), dict)
    ts = blocks.get((a, b, c))
    if ts is None:
        R, hom = obj.realizer, obj.hom
        ts = blocks[a, b, c] = {(p, r): tuple_encode(R[a], R[b], R[c], p, r)
                                for p in sorted(hom.get((a, b), ()))
                                for r in sorted(hom.get((b, c), ()))}
    return ts


def _adjacency(cells, hom) -> dict:
    """For each cell a, the cells b with hom(a, b) non-empty, in cell order,
    each with the hom-set and its sorted list.  Loops nested over it declare
    obligations in the order of the dense cell product, skipping the empty
    hom-sets without visiting them."""
    return {a: [(b, h, sorted(h)) for b in cells if (h := hom.get((a, b)))]
            for a in cells}


def _edges_of(obj) -> tuple:
    """The _adjacency of obj's cells and hom-sets, and its edges (a, b,
    hom(a, b), sorted hom(a, b)) in cell order; kept on obj like its input
    tables."""
    def build():
        adj = _adjacency(obj.cells, obj.hom)
        return adj, [(a, *e) for a in obj.cells for e in adj[a]]
    return _owned(obj, ("edges",), build)


def _object_stages(cells, realizer, hom, unit=None, inv=None, comp=None,
                   holder=None):
    """An object's one-dimensional structure at either level, in cell order
    over the non-empty hom-sets of ``hom`` (which answers every key read):
    unit, inverse and composition, forced to the values of the functions
    unit/inv/comp when they are given, in one block for each code.  Inputs
    are read from the tables kept on ``holder``, which must hold the same
    cells, realizer and hom-sets; by default a fresh one."""
    R = realizer
    if holder is None:
        holder = SimpleNamespace(cells=cells, realizer=realizer, hom=hom)
    adj, edges = _edges_of(holder)

    def stages(_val):
        def structure():
            ts, accs = [], []
            try:
                for a in cells:
                    h = hom[a, a]
                    accs.append(h if unit is None else forced(unit(a), h))
                    ts.append(R[a])
            finally:
                if ts:
                    yield "unit_code", ts, accs, "unit"
            ones = _one_cell_inputs(holder)
            ts, accs = [], []
            try:
                for a, b, hab, _ in edges:
                    h, inputs = hom[b, a], ones[a, b]
                    for p in hab:
                        accs.append(h if inv is None else
                                    forced(inv(a, b, p), h))
                        ts.append(inputs[p])
            finally:
                if ts:
                    yield "inv_code", ts, accs, "inverse"
            ts, accs = [], []
            try:
                for a, b, hab, _ in edges:
                    for c, hbc, _ in adj[b]:
                        h, inputs = hom[a, c], _comp_inputs(holder, a, b, c)
                        for pr in itertools.product(hab, hbc):
                            accs.append(h if comp is None else
                                        forced(comp(a, b, c, *pr), h))
                            ts.append(inputs[pr])
            finally:
                if ts:
                    yield "comp_code", ts, accs, "composition"
        yield structure()
    return stages


_OBJECT_SLOTS = ("unit_code", "inv_code", "comp_code")


def _read(code, t):
    """apply(code, t) at the fuel limit in force; a Table is read by lookup
    at its charge, as apply would, without entering the step loop."""
    if type(code) is Table:
        if code.charge(t) > fuel_now():
            raise FuelExhausted()
        v = code.values.get(t)
        if v is None:
            raise Diverges()
        return v
    return apply(code, t)


# the three structure codes of an object at either level, read at the
# inputs _object_stages declares
def _u(A, a) -> int:
    """The unit 1-cell of a."""
    return _read(A.unit_code, A.realizer[a])


def _kept_input(A, key, block, x, *parts) -> int:
    """The Cantor tuple of parts: input x of block in the table A keeps
    under key, or encoded now when A keeps none there; builds no table."""
    t = _built(A).get(key, {}).get(block, {}).get(x)
    return tuple_encode(*parts) if t is None else t


def _inv(A, a, b, p) -> int:
    """The inverse of p: a -> b."""
    R = A.realizer
    return _read(A.inv_code,
                 _kept_input(A, ("inputs",), (a, b), p, R[a], R[b], p))


def _comp(A, a, b, c, p, r) -> int:
    """The composite r . p for p: a -> b, r: b -> c."""
    R = A.realizer
    return _read(A.comp_code, _kept_input(A, ("inputs3",), (a, b, c), (p, r),
                                          R[a], R[b], R[c], p, r))


@dispatch_on(EffObject)
def check_object(obj: EffObject, fuel: int | None = None) -> Verdict:
    """Run every structure code on every instance, at ``fuel`` steps per
    application when it is given (the checkers of path and eff1 take
    ``fuel`` the same way)."""
    with fuel_limit(fuel):
        return verify(_object_stages(obj.cells, obj.realizer,
                                     defaultdict(frozenset, obj.hom),
                                     holder=obj),
                      vars(obj))


def make_object(cells, realizer, hom, name: str = "") -> EffObject:
    """Build an object with structure codes synthesized by
    per-visible-input intersection.

    Over a finite carrier a uniform code exists iff every intersection of
    hom-sets sharing a visible input is inhabited; the witness is a table.
    """
    cells = tuple(cells)
    full_hom = {(a, b): frozenset(hom.get((a, b), frozenset()))
                for a in cells for b in cells}
    holder = SimpleNamespace(cells=cells, realizer=realizer, hom=full_hom)
    codes = tabulate_all(settle(_object_stages(cells, realizer, full_hom,
                                               holder=holder),
                                _OBJECT_SLOTS))
    return _adopt(EffObject(cells, dict(realizer), full_hom, **codes,
                            name=name), holder)


@dispatch_on(EffObject)
def _borrowed(A: EffObject, cells, realizer, phi: dict,
              name: str) -> EffObject:
    """An object on ``cells`` whose hom-sets are A's at the image of the
    cell map ``phi``; level 1 also borrows A's 2-cells, unit, inverse and
    composition."""
    return make_object(cells, realizer, {(x, y): A.hom_of(phi[x], phi[y])
                                         for x in cells for y in cells},
                       name=name)


# --- morphisms --------------------------------------------------------------

@dataclass
class EffMorphism:
    dom: EffObject
    cod: EffObject
    zero_map: dict  # cell -> cell
    one_map: dict   # (b, b') -> {pi -> value}
    tracking0: int
    tracking1: int
    name: str = ""

    # the codes that are part of the identity of the morphism, by which Pi
    # numbers its sections, and the codes of a homotopy between two of them
    TRACKINGS = ("tracking0", "tracking1")
    HOMOTOPY_CODES = ("h1",)

    def __repr__(self):
        return f"EffMorphism({self.name or id(self)})"


def any_image(t, target, *_instance):
    """The narrowing that accepts every image in the codomain."""
    return target


def _read_back(inputs, value) -> dict:
    """The value map {key: {x: value(t)}} of inputs {key: {x: t}}."""
    return {key: {x: value(t) for x, t in ts.items()}
            for key, ts in inputs.items()}


def _morphism_stages(dom, cod, zero: dict, one=any_image):
    """A map's one-dimensional tracking at either level: tracking0 sends
    beta b to the realizer of f(b), tracking1 sends t = <beta b, beta b', p>
    into hom(f b, f b'), narrowed to ``one(t, target, b, b', p)``.  One
    block for each code."""
    R, ones = dom.realizer, _one_cell_inputs(dom)

    def stages(_val):
        def tracking():
            if dom.cells:
                yield ("tracking0", tuple(map(R.__getitem__, dom.cells)),
                       [(cod.realizer[fb],) if fb in cod.cells else ()
                        for fb in map(zero.get, dom.cells)], "tracking0")
            ts, accs = [], []
            try:
                for (b, b2), inputs in ones.items():
                    h = cod.hom_of(zero.get(b), zero.get(b2))
                    for p, t in inputs.items():
                        accs.append(one(t, h, b, b2, p))
                        ts.append(t)
            finally:
                if ts:
                    yield "tracking1", ts, accs, "tracking1"
        yield tracking()
    return stages


@dispatch_on(EffMorphism)
def check_morphism(f: EffMorphism, fuel: int | None = None) -> Verdict:
    def given(t, h, b, b2, p):
        return forced(f.one_map.get((b, b2), {}).get(p), h)
    with fuel_limit(fuel):
        return verify(_morphism_stages(f.dom, f.cod, f.zero_map, given),
                      vars(f))


@dispatch_on(EffObject)
def synthesize_morphism(dom: EffObject, cod: EffObject, zero_map: dict,
                        name: str = "", one=any_image):
    """The morphism with the given cell map and tabulated trackings, or None.

    Trackability is decidable over finite data: group by visible input and
    intersect the target hom-sets, narrowed by ``one`` as in
    _morphism_stages; any empty group kills every candidate one-map at once.
    """
    try:
        T = settle(_morphism_stages(dom, cod, zero_map, one),
                   EffMorphism.TRACKINGS)
    except SynthesisFailed:
        return None
    one_map = _read_back(_one_cell_inputs(dom), T["tracking1"].__getitem__)
    return EffMorphism(dom, cod, dict(zero_map), one_map, **tabulate_all(T),
                       name=name)


@dispatch_on(EffObject)
def _to_lender(C: EffObject, A: EffObject, phi: dict, name: str):
    """The map from an object _borrowed from A along ``phi`` back to A:
    ``phi`` on cells and the identity on 1-cells (on 2-cells too at level
    1), or None if it is not tracked."""
    return synthesize_morphism(C, A, phi, name,
                               lambda t, h, x, y, p: forced(p, h))


@dispatch_on(EffObject)
def identity(obj: EffObject) -> EffMorphism:
    one_map = {(a, b): {pi: pi for pi in obj.hom_of(a, b)}
               for a in obj.cells for b in obj.cells}
    x = Var("x")
    third = compile_term(lam("x", app(SND_C, app(SND_C, x))))
    return EffMorphism(obj, obj, {a: a for a in obj.cells}, one_map,
                       compile_term(lam("x", x)), third,
                       name=f"id_{obj.name}")


@dispatch_on(EffMorphism)
def compose(g: EffMorphism, f: EffMorphism) -> EffMorphism:
    """g after f, synthesized from the composite cell maps with each 1-cell
    image forced, as compose1 builds it: no code of g or f is run."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise MapsDoNotFit(f"{g.name} does not start where {f.name} ends")
    fz = f.zero_map
    m = synthesize_morphism(
        f.dom, g.cod, {b: g.zero_map[fz[b]] for b in f.dom.cells},
        f"{g.name}.{f.name}",
        lambda t, h, b, b2, p: forced(
            g.one_map[fz[b], fz[b2]][f.one_map[b, b2][p]], h))
    assert m is not None  # a composite of tracked maps is tracked
    return m


# --- the functor to the homotopy quotient -----------------------------------

@dataclass(frozen=True)
class EffToposObject:
    carrier: tuple
    equality: dict  # (x, x') -> frozenset of naturals


def p_object(obj: EffObject) -> EffToposObject:
    eq = {}
    for a, a2 in itertools.product(obj.cells, repeat=2):
        eq[(a, a2)] = frozenset(
            tuple_encode(obj.realizer[a], pi, obj.realizer[a2])
            for pi in obj.hom_of(a, a2))
    return EffToposObject(tuple(obj.cells), eq)


def p_morphism(f: EffMorphism) -> dict:
    """The functional relation F(b, a) = {<beta b, pi, alpha a>}."""
    table = {}
    for b in f.dom.cells:
        for a in f.cod.cells:
            table[(b, a)] = frozenset(
                tuple_encode(f.dom.realizer[b], pi, f.cod.realizer[a])
                for pi in f.cod.hom_of(f.zero_map[b], a))
    return table


def ho_equal(f: EffMorphism, g: EffMorphism) -> Decision:
    """Equality of the induced functional relations in the quotient:
    entailment both ways by a uniform realizer, a code r with r(x) in G(b, a)
    for every x in F(b, a), grouped by x.  A NO names the empty group."""
    F, G = p_morphism(f), p_morphism(g)
    for lhs, rhs, label in ((F, G, "p(f) <= p(g)"), (G, F, "p(g) <= p(f)")):
        try:
            settle(lambda _val: [(("r", sorted(lhs[k]),
                                   (rhs[k],) * len(lhs[k]), label)
                                  for k in lhs if lhs[k])], ("r",))
        except SynthesisFailed as e:
            return Decision(NO, reason=str(e))
    return Decision(YES)
