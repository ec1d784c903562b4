"""The two-dimensional layer: objects carry 2-cells between parallel 1-cells
together with coherence codes, morphisms track all three levels, and the
path-category structure (fibrations, path objects, homotopies, truncations,
classification) is rebuilt one dimension up.

The same intersection semantics as the groupoid layer applies throughout: a
single code serving several cells that share a visible input must output a
value accepted by every one of them, so over finite carriers every existence
question reduces to finite intersections.  NO verdicts come only from
definitive finite emptiness; fuel or budget exhaustion yields UNKNOWN.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

from .pca import (
    DEFAULT_FUEL, LimitReached, apply, cantor_unpair, fuel_limit, fuel_now,
    const_code, tabulate, tuple_encode,
)
from .core import (
    Decision, EffMorphism, EffObject, MapsDoNotFit, NO, SynthesisFailed,
    UNKNOWN, Verdict, YES, _OBJECT_SLOTS, _adopt, _borrowed, _built, _comp,
    _edges_of, _comp_inputs, _inv, _kept_input, _read, _morphism_stages,
    _object_stages, _one_cell_inputs, _owned, _read_back, _to_lender, _u,
    any_image, check_morphism, check_object, compose, forced, identity,
    make_object, settle, synthesize_morphism, tabulate_all, verify,
)
from .path import (
    EquivalenceWitness, Homotopy, NotTrivial, PathObjectBundle,
    PullbackBundle, TransportFailed, _choices, _homotopic, _homotopy_stages,
    _lift1_obligations, _zero_map_candidates, check_fibration,
    check_homotopy, fib_path_cells, fib_path_object, fibration_decide,
    fibrewise_homotopic_decide, homotopic_decide, homotopy_from_h1,
    is_equivalence_decide, lift_endpoint, morphism_candidates,
    not_a_fibration, pullback, synthesize_fibration_witness, terminal_map,
    terminal_object as terminal_object0,
)
from .constructions import (
    JExponential, _Enumeration, _pi_fibre, _pi_skeleton, _verdict_status,
    hexp_J,
)
from .classify import (
    Classification, DiscreteNormalForm, HlevelVerdict, NotNormalized,
    REFUTED, TruncationBundle, discrete_decide, hlevel_check, hlevel_verdict,
)

CANDIDATE_LIMIT = 512  # 1-level choices tried per cell map


# --- objects ----------------------------------------------------------------

@dataclass
class Eff1Object:
    """A finite carrier with realizers, 1-cells, 2-cells between parallel
    1-cells, and twelve structure codes.

    ``hom`` maps (a, b) to the set of 1-cells; ``hom2`` maps (a, b, p, q)
    with parallel p, q in hom(a, b) to the set of 2-cells p => q.
    """
    cells: tuple
    realizer: dict
    hom: dict
    hom2: dict
    unit_code: int   # alpha a |-> identity 1-cell of a
    inv_code: int    # <alpha a, alpha b, p> |-> p^-1
    comp_code: int   # <alpha a, alpha b, alpha c, p, r> |-> r . p
    coh_lunit: int   # <alpha a, alpha b, p> |-> 2-cell  1_b . p  =>  p
    coh_runit: int   # <alpha a, alpha b, p> |-> 2-cell  p . 1_a  =>  p
    coh_linv: int    # <alpha a, alpha b, p> |-> 2-cell  p^-1 . p  =>  1_a
    coh_rinv: int    # <alpha a, alpha b, p> |-> 2-cell  p . p^-1  =>  1_b
    coh_assoc: int   # <.., p, r, s> |-> 2-cell  (s.r).p  =>  s.(r.p)
    id2: int         # <alpha a, alpha b, p> |-> identity 2-cell of p
    vcomp: int       # <.., p, r, s, n, m> |-> m *1 n : p => s
    inv2: int        # <.., p, r, n> |-> n^-1 : r => p
    hcomp: int       # <.., p, r, p', r', n, m> |-> m *0 n
    name: str = ""

    def hom_of(self, a, b):
        return self.hom.get((a, b), frozenset())

    def hom2_of(self, a, b, p, q):
        return self.hom2.get((a, b, p, q), frozenset())

    def realizer_image(self):
        return sorted(set(self.realizer.values()))

    def __repr__(self):
        return f"Eff1Object({self.name or hex(id(self))}, " \
               f"{len(self.cells)} cells)"


def _id2(A, a, b, p) -> int:
    R = A.realizer
    return _read(A.id2, _kept_input(A, ("inputs",), (a, b), p, R[a], R[b], p))


_dec2 = cantor_unpair


def _dec3(e):
    a, rest = cantor_unpair(e)
    b, c = cantor_unpair(rest)
    return a, b, c


_TWO_CELL_SLOTS = ("coh_lunit", "coh_runit", "coh_linv", "coh_rinv",
                   "coh_assoc", "id2", "vcomp", "inv2", "hcomp")
_OBJECT1_SLOTS = _OBJECT_SLOTS + _TWO_CELL_SLOTS


# --- input tables -----------------------------------------------------------
# core's input tables, one dimension up.  The last three serve only the
# object stream, and hold most of its inputs: each keeps, per edge (a, b)
# and built on its first use, a tuple of the inputs in the order of
# _object1_stages, which is that edge's block (a tuple of ints is smaller
# than a dict keyed by the parts, and the cyclic GC stops tracking it).
# ``adj`` is the object's _adjacency.

def _two_cell_inputs(obj) -> dict:
    """{(a, b, p, r): {n: <alpha a, alpha b, p, r, n>}} over every parallel
    pair of 1-cells: the inputs of inv2, and of tracking2 of maps out of
    obj."""
    def build():
        R, hom2 = obj.realizer, obj.hom2
        return {(a, b, p, r): {n: tuple_encode(R[a], R[b], p, r, n)
                               for n in hom2.get((a, b, p, r), ())}
                for (a, b), ps in _one_cell_inputs(obj).items()
                for p, r in itertools.product(ps, repeat=2)}
    return _owned(obj, ("inputs2",), build)


def _assoc_inputs(obj, adj, a, b) -> tuple:
    """<alpha a, alpha b, alpha c, alpha d, p, r, s> over the paths
    a -> b -> c -> d, the inputs of coh_assoc on edge (a, b)."""
    tables = _owned(obj, ("inputs7",), dict)
    ts = tables.get((a, b))
    if ts is None:
        R = obj.realizer
        ts = tables[a, b] = tuple(
            tuple_encode(R[a], R[b], R[c], R[d], p, r, s)
            for c, hbc, _ in adj[b] for d, hcd, _ in adj[c]
            for p, r in itertools.product(obj.hom[a, b], hbc) for s in hcd)
    return ts


def _vcomp_inputs(obj, a, b) -> tuple:
    """<alpha a, alpha b, p, r, s, n, m>, the inputs of vcomp on edge
    (a, b)."""
    tables = _owned(obj, ("inputs7v",), dict)
    ts = tables.get((a, b))
    if ts is None:
        R, hom2 = obj.realizer, obj.hom2
        ts = tables[a, b] = tuple(
            tuple_encode(R[a], R[b], p, r, s, n, m)
            for p, r, s in itertools.product(sorted(obj.hom[a, b]), repeat=3)
            for n in hom2.get((a, b, p, r), ())
            for m in hom2.get((a, b, r, s), ()))
    return ts


def _hcomp_inputs(obj, adj, a, b) -> tuple:
    """<alpha a, alpha b, alpha c, p, r, p', r', n, m>, the inputs of hcomp
    on edge (a, b)."""
    tables = _owned(obj, ("inputs9",), dict)
    ts = tables.get((a, b))
    if ts is None:
        R, hom2 = obj.realizer, obj.hom2
        ts = tables[a, b] = tuple(
            tuple_encode(R[a], R[b], R[c], p, r, p2, r2, n, m)
            for c, _, sbc in adj[b]
            for p, r in itertools.product(sorted(obj.hom[a, b]), repeat=2)
            if (h2ab := hom2.get((a, b, p, r)))
            for p2, r2 in itertools.product(sbc, repeat=2)
            for n, m in itertools.product(h2ab, hom2.get((b, c, p2, r2), ())))
    return ts


# the input tables that read only cells, realizers and hom-sets, so an object
# on another's skeleton may share them
_SKELETON_INPUTS = (("inputs",), ("inputs3",), ("inputs7",), ("edges",))


def _object1_stages(cells, realizer, hom, hom2,
                    unit=None, inv=None, comp=None, holder=None):
    """core._object_stages, then the 2-cell structure reading its values;
    ``hom2`` maps (a, b, p, q) to a set and must answer every key read.
    The unit and inverse coherences of a 1-cell are single obligations
    (their five slots interleave); the other 2-cell blocks run over one
    edge.  Inputs are read from the tables kept on ``holder``, which must
    hold the same cells, realizer, hom and hom2; by default a fresh one."""
    if holder is None:
        holder = SimpleNamespace(cells=cells, realizer=realizer, hom=hom,
                                 hom2=hom2)
    structure = _object_stages(cells, realizer, hom, unit, inv, comp, holder)
    adj, edges = _edges_of(holder)

    def stages(val):
        yield from structure(val)
        # the values read below are the first stage's, each settled or
        # checked there, and the 1-cells they name lie in their hom-sets:
        # no read in the second stage can raise, so its blocks may run
        # over a whole edge

        def u(a):
            return val("unit_code", realizer[a])

        composites = {}

        def composed(a, b, c):
            # {p: {r: r . p}} over hom(a, b) x hom(b, c), read on first use
            # and only where the first stage declared a composition
            table = composites.get((a, b, c))
            if table is None:
                ts = _comp_inputs(holder, a, b, c)
                table = composites[a, b, c] = {
                    p: {r: val("comp_code", ts[p, r]) for r in hom[b, c]}
                    for p in hom[a, b]}
            return table

        def coherence():
            ones = _one_cell_inputs(holder)
            for a, b, hab, _ in edges:
                ua, ub, ts = u(a), u(b), ones[a, b]
                for p in hab:
                    t = ts[p]
                    pi = val("inv_code", t)
                    t = (t,)
                    yield ("coh_lunit", t,
                           (hom2[a, b, composed(a, b, b)[p][ub], p],),
                           "left unit coherence")
                    yield ("coh_runit", t,
                           (hom2[a, b, composed(a, a, b)[ua][p], p],),
                           "right unit coherence")
                    yield ("coh_linv", t,
                           (hom2[a, a, composed(a, b, a)[p][pi], ua],),
                           "left inverse coherence")
                    yield ("coh_rinv", t,
                           (hom2[b, b, composed(b, a, b)[pi][p], ub],),
                           "right inverse coherence")
                    yield "id2", t, (hom2[a, b, p, p],), "2-identity"
            for a, b, hab, _ in edges:
                accs = []
                add = accs.append
                for c, hbc, _ in adj[b]:
                    abc = composed(a, b, c)
                    for d, hcd, _ in adj[c]:
                        acd, abd = composed(a, c, d), composed(a, b, d)
                        bcd = composed(b, c, d)
                        for p in hab:
                            abcp, abdp = abc[p], abd[p]
                            for r in hbc:
                                acdrp, bcdr = acd[abcp[r]], bcd[r]
                                for s in hcd:
                                    add(hom2[a, d, acdrp[s], abdp[bcdr[s]]])
                if accs:
                    yield ("coh_assoc", _assoc_inputs(holder, adj, a, b),
                           accs, "associativity coherence")
            twos = _two_cell_inputs(holder)
            for a, b, _, h1 in edges:
                accs = []
                for p, r, s in itertools.product(h1, repeat=3):
                    n = len(hom2[a, b, p, r]) * len(hom2[a, b, r, s])
                    if n:
                        accs += (hom2[a, b, p, s],) * n
                if accs:
                    yield ("vcomp", _vcomp_inputs(holder, a, b), accs,
                           "vertical composition")
                ts, accs = [], []
                for p, r in itertools.product(h1, repeat=2):
                    inputs = twos[a, b, p, r]
                    if inputs:
                        ts += inputs.values()
                        accs += (hom2[a, b, r, p],) * len(inputs)
                if ts:
                    yield "inv2", ts, accs, "2-inverse"
            for a, b, _, sab in edges:
                accs = []
                for c, _, sbc in adj[b]:
                    abc = composed(a, b, c)
                    for p, r in itertools.product(sab, repeat=2):
                        n = len(hom2[a, b, p, r])
                        if not n:
                            continue
                        abcp, abcr = abc[p], abc[r]
                        for p2, r2 in itertools.product(sbc, repeat=2):
                            m = len(hom2[b, c, p2, r2])
                            if m:
                                accs += (hom2[a, c, abcp[p2], abcr[r2]],) \
                                    * (n * m)
                if accs:
                    yield ("hcomp", _hcomp_inputs(holder, adj, a, b), accs,
                           "horizontal composition")
        yield coherence()
    return stages


def make_object1(cells, realizer, hom, hom2, name: str = "",
                 unit=None, inv=None, comp=None,
                 _skeleton_of=None) -> Eff1Object:
    """An object with all twelve structure codes as tables, by
    per-visible-input intersection.  Explicit value functions may be
    supplied for the 1-level structure (a composition law the minimal pick
    would not find); their values are still checked for uniformity and
    membership.  ``_skeleton_of``, an object on the same cells, realizer
    and hom-sets, lends the build the _SKELETON_INPUTS it keeps."""
    cells = tuple(cells)
    full_hom = {(a, b): frozenset(hom.get((a, b), frozenset()))
                for a in cells for b in cells}
    full_hom2 = {}
    for (a, b), h in full_hom.items():
        for p, q in itertools.product(sorted(h), repeat=2):
            full_hom2[(a, b, p, q)] = frozenset(
                hom2.get((a, b, p, q), frozenset()))
    # every pair of cells and every parallel pair has an entry, and settled
    # values stay inside their hom-sets, so plain lookups serve
    holder = SimpleNamespace(cells=cells, realizer=realizer, hom=full_hom,
                             hom2=full_hom2)
    if _skeleton_of is not None:
        lent = _built(_skeleton_of)
        _built(holder).update(
            {key: lent[key] for key in _SKELETON_INPUTS if key in lent})
    stages = _object1_stages(cells, realizer, full_hom, full_hom2,
                             unit, inv, comp, holder)
    codes = tabulate_all(settle(stages, _OBJECT1_SLOTS))
    return _adopt(Eff1Object(cells, dict(realizer), full_hom, full_hom2,
                             **codes, name=name), holder)


@_borrowed.register(Eff1Object)
def _borrowed1(A: Eff1Object, cells, realizer, phi: dict,
               name: str) -> Eff1Object:
    """An object on ``cells`` whose hom-sets, 2-cells, unit, inverse and
    composition are A's at the image of the cell map ``phi``."""
    hom = {(x, y): A.hom_of(phi[x], phi[y]) for x in cells for y in cells}
    hom2 = {(x, y, p, q): A.hom2_of(phi[x], phi[y], p, q)
            for (x, y), h in hom.items() for p in h for q in h}
    return make_object1(
        cells, realizer, hom, hom2, name=name,
        unit=lambda x: _u(A, phi[x]),
        inv=lambda x, y, p: _inv(A, phi[x], phi[y], p),
        comp=lambda x, y, z, p, r: _comp(A, phi[x], phi[y], phi[z], p, r))


@check_object.register(Eff1Object)
def check_object1(obj: Eff1Object, fuel: int | None = None) -> Verdict:
    """Exhaustively run every structure code on every instance."""
    # a value outside the hom-sets reads as having no 2-cells
    stages = _object1_stages(obj.cells, obj.realizer,
                             defaultdict(frozenset, obj.hom),
                             defaultdict(frozenset, obj.hom2), holder=obj)
    with fuel_limit(fuel):
        return verify(stages, vars(obj))


# --- morphisms --------------------------------------------------------------

@dataclass
class Eff1Morphism:
    """A tracked map at all three levels.

    ``one_map`` maps (b, b') to {1-cell: value}; ``two_map`` maps
    (b, b', p, r) to {2-cell: value}.  The functoriality codes witness that
    identities and composites are preserved up to 2-cells; they are not part
    of the identity of the morphism.
    """
    dom: Eff1Object
    cod: Eff1Object
    zero_map: dict
    one_map: dict
    two_map: dict
    tracking0: int
    tracking1: int   # <beta b, beta b', p> |-> f(p)
    tracking2: int   # <beta b, beta b', p, r, n> |-> f(n)
    funct_id: int    # beta b |-> 2-cell  f(1_b) => 1_{f b}
    funct_comp: int  # <beta b1, beta b2, beta b3, p, r> |-> f(r.p) => fr.fp
    name: str = ""

    TRACKINGS = ("tracking0", "tracking1", "tracking2")
    HOMOTOPY_CODES = ("h1", "h2")

    def __repr__(self):
        return f"Eff1Morphism({self.name or hex(id(self))})"


_MORPHISM1_SLOTS = Eff1Morphism.TRACKINGS + ("funct_id", "funct_comp")


def _morphism1_stages(dom: Eff1Object, cod: Eff1Object, zero: dict,
                      one=any_image, two=any_image):
    """The tracking of core._morphism_stages, then tracking2 and
    functoriality.  ``one(t, target, b, b', p)`` and ``two(t, target, b,
    b', p, r, n, f(p), f(r))`` narrow the acceptable images; by default
    every image in the codomain is.  One block for each code."""
    R = dom.realizer
    tracking = _morphism_stages(dom, cod, zero, one)
    ones, twos = _one_cell_inputs(dom), _two_cell_inputs(dom)

    def stages(val):
        yield from tracking(val)
        one_map = _read_back(ones, lambda t: val("tracking1", t))

        def f1(b, b2, p):
            v = one_map[b, b2].get(p)
            return val("tracking1", tuple_encode(R[b], R[b2], p)) \
                if v is None else v

        def level2():
            ts, accs = [], []
            try:
                for (b, b2, p, r), inputs in twos.items():
                    fp, fr = one_map[b, b2][p], one_map[b, b2][r]
                    h = cod.hom2_of(zero[b], zero[b2], fp, fr)
                    for n, t in inputs.items():
                        accs.append(two(t, h, b, b2, p, r, n, fp, fr))
                        ts.append(t)
            finally:
                if ts:
                    yield "tracking2", ts, accs, "2-tracking"
        yield level2()

        def functoriality():
            ts, accs = [], []
            try:
                for b in dom.cells:
                    fb = zero[b]
                    accs.append(cod.hom2_of(fb, fb, f1(b, b, _u(dom, b)),
                                            _u(cod, fb)))
                    ts.append(R[b])
            finally:
                if ts:
                    yield "funct_id", ts, accs, "identity preservation"
            # r . p in dom, and f(r) . f(p) in cod read through one table
            # per cell triple of cod, which the cell triples of dom over it
            # share
            adj = _edges_of(dom)[0]
            into = {}
            ts, accs = [], []
            try:
                for b1 in dom.cells:
                    for b2, _, _ in adj[b1]:
                        for b3, _, _ in adj[b2]:
                            z1, z3 = zero[b1], zero[b3]
                            f12, f23 = one_map[b1, b2], one_map[b2, b3]
                            f13 = one_map[b1, b3]
                            z = (z1, zero[b2], z3)
                            composites = into.get(z)
                            if composites is None:
                                composites = into[z] = {}
                            cod_inputs = _comp_inputs(cod, *z)
                            for (p, r), t in _comp_inputs(dom, b1, b2,
                                                          b3).items():
                                c = _read(dom.comp_code, t)
                                img = f13.get(c)
                                if img is None:
                                    img = f1(b1, b3, c)
                                key = f12[p], f23[r]
                                cimg = composites.get(key)
                                if cimg is None:
                                    cimg = composites[key] = _read(
                                        cod.comp_code, cod_inputs[key])
                                accs.append(cod.hom2_of(z1, z3, img, cimg))
                                ts.append(t)
            finally:
                if ts:
                    yield "funct_comp", ts, accs, "composite preservation"
        yield functoriality()
    return stages


def _given(one=None, two=None):
    """Narrowings forcing the images named by the value functions
    ``one(b, b', p)`` and ``two(b, b', p, r, n)``; None keeps the 1-cell or
    the 2-cell itself."""
    def one_image(t, h, b, b2, p):
        return forced(p if one is None else one(b, b2, p), h)

    def two_image(t, h, b, b2, p, r, n, *_images):
        return forced(n if two is None else two(b, b2, p, r, n), h)
    return one_image, two_image


@synthesize_morphism.register(Eff1Object)
def synthesize_morphism1(dom: Eff1Object, cod: Eff1Object, zero_map: dict,
                         name: str = "", one=any_image,
                         two=any_image) -> Eff1Morphism | None:
    """Extend a cell map to a fully tracked morphism by per-visible-input
    intersection, narrowed by ``one`` and ``two`` as in _morphism1_stages;
    None if some finite intersection is empty."""
    try:
        T = settle(_morphism1_stages(dom, cod, zero_map, one, two),
                   _MORPHISM1_SLOTS)
    except SynthesisFailed:
        return None
    return Eff1Morphism(
        dom, cod, dict(zero_map),
        _read_back(_one_cell_inputs(dom), T["tracking1"].__getitem__),
        _read_back(_two_cell_inputs(dom), T["tracking2"].__getitem__),
        **tabulate_all(T), name=name)


def _build_morphism1(dom: Eff1Object, cod: Eff1Object, zero: dict,
                     one=None, two=None,
                     name: str = "") -> Eff1Morphism | None:
    """Assemble a morphism from explicit values: the cell map ``zero`` and
    the value functions of ``_given``.  Returns None when the values are not
    uniform per visible input, land outside the codomain, or admit no
    functoriality 2-cells."""
    return synthesize_morphism1(dom, cod, zero, name, *_given(one, two))


@_to_lender.register(Eff1Object)
def _to_lender1(C: Eff1Object, A: Eff1Object, phi: dict, name: str):
    return _build_morphism1(C, A, phi, name=name)


@morphism_candidates.register(Eff1Object)
def morphism_candidates1(dom: Eff1Object, cod: Eff1Object, zero_map: dict,
                         name: str = ""):
    """All tracked extensions of a cell map, enumerating the finitely many
    uniform 1-level choices (at most ``CANDIDATE_LIMIT`` of them)."""
    try:
        choices = _choices(_morphism_stages(dom, cod, zero_map), "tracking1",
                           CANDIDATE_LIMIT)
    except SynthesisFailed:
        return
    for choice in choices:
        m = synthesize_morphism1(dom, cod, zero_map, name,
                                 lambda t, h, *_: forced(choice[t], h))
        if m is not None:
            yield m


def identity_like1(dom: Eff1Object, cod: Eff1Object) -> Eff1Morphism | None:
    """For objects on the same carrier: the morphism fixing cells and
    1-cells, with 2-level values by intersection."""
    if dom.cells != cod.cells:
        return None
    return synthesize_morphism1(dom, cod, {b: b for b in dom.cells},
                                one=lambda t, h, b, b2, p: forced(p, h))


@check_morphism.register(Eff1Morphism)
def check_morphism1(f: Eff1Morphism, fuel: int | None = None) -> Verdict:
    """Verify all five tracking/functoriality conditions exhaustively."""
    stages = _morphism1_stages(
        f.dom, f.cod, f.zero_map,
        *_given(lambda b, b2, p: f.one_map.get((b, b2), {}).get(p),
                lambda b, b2, p, r, n:
                    f.two_map.get((b, b2, p, r), {}).get(n)))
    with fuel_limit(fuel):
        return verify(stages, vars(f))


@identity.register(Eff1Object)
def identity1(obj: Eff1Object) -> Eff1Morphism:
    m = _build_morphism1(obj, obj, {a: a for a in obj.cells},
                         name=f"id_{obj.name}")
    assert m is not None
    return m


@compose.register(Eff1Morphism)
def compose1(g: Eff1Morphism, f: Eff1Morphism) -> Eff1Morphism:
    """Value-level composite; the functoriality 2-cells are re-synthesized
    (they always exist for a composite of valid morphisms over finite data
    and are not part of the identity of the morphism)."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise MapsDoNotFit(f"{g.name} does not start where {f.name} ends")
    fz = f.zero_map

    def one(b, b2, p):
        return g.one_map[fz[b], fz[b2]][f.one_map[b, b2][p]]

    def two(b, b2, p, r, n):
        fmap = f.one_map[b, b2]
        return g.two_map[fz[b], fz[b2], fmap[p], fmap[r]][
            f.two_map[b, b2, p, r][n]]
    zero = {b: g.zero_map[fz[b]] for b in f.dom.cells}
    m = _build_morphism1(f.dom, g.cod, zero, one, two,
                         name=f"{g.name}.{f.name}")
    assert m is not None
    return m


def _synthesize_over(p: Eff1Morphism, q: Eff1Morphism, zero: dict,
                     name: str = "") -> Eff1Morphism | None:
    """A morphism s: dom(q) -> dom(p) over the common codomain, with the
    given cell map and p . s = q strictly at every level."""
    def one(t, h, x, x2, pi):
        pmap = p.one_map.get((zero.get(x), zero.get(x2)))
        want = q.one_map[(x, x2)][pi]
        return frozenset(s for s in h if pmap[s] == want)

    def two(t, h, x, x2, pi, rho, n, spi, srho):
        pmap = p.two_map[(zero[x], zero[x2], spi, srho)]
        want = q.two_map[(x, x2, pi, rho)][n]
        return frozenset(m for m in h if pmap[m] == want)
    return synthesize_morphism1(q.dom, p.dom, zero, name, one, two)


# --- embedding the groupoid layer -------------------------------------------

def inflate(obj: EffObject, name: str = "") -> Eff1Object:
    """Embed a groupoid-level object: one 2-cell (coded 0) between every
    pair of parallel 1-cells, and every 2-level structure code constant 0."""
    hom2 = {}
    for (a, b), h in obj.hom.items():
        for p, q in itertools.product(sorted(h), repeat=2):
            hom2[(a, b, p, q)] = frozenset({0})
    return Eff1Object(tuple(obj.cells), dict(obj.realizer),
                      {k: frozenset(v) for k, v in obj.hom.items()}, hom2,
                      **{s: getattr(obj, s) for s in _OBJECT_SLOTS},
                      **dict.fromkeys(_TWO_CELL_SLOTS, const_code(0)),
                      name=name or obj.name)


def inflate_morphism(f: EffMorphism, dom1: Eff1Object | None = None,
                     cod1: Eff1Object | None = None) -> Eff1Morphism:
    dom1 = dom1 if dom1 is not None else inflate(f.dom)
    cod1 = cod1 if cod1 is not None else inflate(f.cod)
    two = {}
    for (b, b2), table in f.one_map.items():
        for p, r in itertools.product(sorted(table), repeat=2):
            two[(b, b2, p, r)] = {0: 0}
    z = const_code(0)
    return Eff1Morphism(dom1, cod1, dict(f.zero_map),
                        {k: dict(v) for k, v in f.one_map.items()}, two,
                        f.tracking0, f.tracking1, z, z, z, name=f.name)


def flatten(obj: Eff1Object) -> EffObject:
    """Forget the 2-cells: the groupoid-level object on the same cells,
    1-cells and unit, inverse and composition codes."""
    return EffObject(tuple(obj.cells), dict(obj.realizer),
                     {k: frozenset(v) for k, v in obj.hom.items()},
                     **{s: getattr(obj, s) for s in _OBJECT_SLOTS},
                     name=obj.name)


def flatten_morphism(m: Eff1Morphism, dom: EffObject,
                     cod: EffObject) -> EffMorphism:
    """Forget the 2-cell map of m: dom and cod are the flattened ends."""
    return EffMorphism(dom, cod, dict(m.zero_map),
                       {k: dict(v) for k, v in m.one_map.items()},
                       m.tracking0, m.tracking1, name=m.name)


def terminal_object1() -> Eff1Object:
    return inflate(terminal_object0(), name="1")


@terminal_map.register(Eff1Object)
def terminal_map1(obj: Eff1Object) -> Eff1Morphism:
    """The map to the point, one per object, so the constructions stored on
    it are shared by every caller.  Built at the default fuel whatever the
    limit in force, as the inputs it is taken of are."""
    def build():
        with fuel_limit(DEFAULT_FUEL):
            m = synthesize_morphism1(obj, terminal_object1(),
                                     {a: "*" for a in obj.cells},
                                     name=f"{obj.name}->1")
        assert m is not None
        return m
    return _owned(obj, ("->1",), build)


def point1(A: Eff1Object, a) -> Eff1Morphism:
    """The point 1 -> A at cell a."""
    ua = _u(A, a)
    m = _build_morphism1(terminal_object1(), A, {"*": a},
                         lambda *_: ua, lambda *_: _id2(A, a, a, ua),
                         name=f"pt_{a}")
    assert m is not None
    return m


# --- fibrations -------------------------------------------------------------

@dataclass
class Fibration1Witness:
    """Codes for the three lifting conditions of a fibration f: B -> A.

    (1) lift0/lift1: <beta b, alpha a, p> with p in A(fb, a) name a cell
        b' (by realizer) and a 1-cell b -> b' over p.
    (2) lift1p/lift2: <beta b, beta b', r, p', n> with r in B(b, b'),
        p' in A(fb, fb') and n: f(r) => p' produce r' over p' and a 2-cell
        m: r => r' with f(m) = n.
    (3) lift2p: <beta b, beta b', p, r, m, n> with m in B2(p, r) and
        n: f(p) => f(r) produces m' in B2(p, r) with f(m') = n.
    """
    lift0: int
    lift1: int
    lift1p: int
    lift2: int
    lift2p: int


def _fibration1_stages(f: Eff1Morphism):
    """(1) as in path._lift1_obligations; (2) <beta b, beta b', r, p', n>
    gives r' over p' and a 2-cell m: r => r' with f(m) = n; (3) <beta b,
    beta b', p, r, m, n> gives m' in B2(p, r) with f(m') = n.  Blocks run
    over one lift's inputs: (1) per cell and base cell, (2) per 1-cell
    and (3) per parallel pair of 1-cells."""
    A, B, fz = f.cod, f.dom, f.zero_map
    R = B.realizer
    edgesB = _edges_of(B)[1]

    def stages(_val):
        def lifts():
            yield from _lift1_obligations(f)
            for b, b2, hb, _ in edgesB:
                one = f.one_map[(b, b2)]
                for rho in hb:
                    sols = {}  # (p', n) -> (r', m) over them
                    for rho2 in hb:
                        for m in B.hom2_of(b, b2, rho, rho2):
                            n = f.two_map[(b, b2, rho, rho2)][m]
                            sols.setdefault((one[rho2], n), set()).add(
                                (rho2, m))
                    ts, accs = [], []
                    for p2 in A.hom_of(fz[b], fz[b2]):
                        for n in A.hom2_of(fz[b], fz[b2], one[rho], p2):
                            ts.append(tuple_encode(R[b], R[b2], rho, p2, n))
                            accs.append(sols.get((p2, n), ()))
                    if ts:
                        yield ("lift1p", "lift2"), ts, accs, "lift (2)"
            for b, b2, _, sb in edgesB:
                for p, r in itertools.product(sb, repeat=2):
                    h2 = B.hom2_of(b, b2, p, r)
                    if not h2:
                        continue
                    sols = {}  # n -> m' in h2 over n
                    for m2 in h2:
                        sols.setdefault(f.two_map[(b, b2, p, r)][m2],
                                        set()).add(m2)
                    fp, fr = f.one_map[(b, b2)][p], f.one_map[(b, b2)][r]
                    ns = A.hom2_of(fz[b], fz[b2], fp, fr)
                    if ns:
                        yield ("lift2p",
                               [tuple_encode(R[b], R[b2], p, r, min(h2), n)
                                for n in ns],
                               [sols.get(n, ()) for n in ns], "lift (3)")
        yield lifts()
    return stages


@synthesize_fibration_witness.register(Eff1Morphism)
def synthesize_fibration1_witness(f: Eff1Morphism) -> Fibration1Witness | None:
    try:
        T = settle(_fibration1_stages(f),
                   ("lift0", "lift1", "lift1p", "lift2", "lift2p"))
    except SynthesisFailed:
        return None
    return Fibration1Witness(**tabulate_all(T))


@check_fibration.register(Eff1Morphism)
def check_fibration1(f: Eff1Morphism, w: Fibration1Witness,
                     fuel: int | None = None) -> Verdict:
    with fuel_limit(fuel):
        return verify(_fibration1_stages(f), vars(w))




# --- finite limits ----------------------------------------------------------

def product1(A: Eff1Object, B: Eff1Object):
    """Binary product, the pullback of B -> 1 along A -> 1 (so A x A is
    the object kept on A -> 1).  Returns (object, first projection, second
    projection)."""
    pb = pullback1(terminal_map1(B), terminal_map1(A))
    return pb.obj, pb.to_g_dom, pb.to_f_dom


def _projection1(pair_obj: Eff1Object, target: Eff1Object, idx: int,
                 name: str = "") -> Eff1Morphism:
    """Componentwise projection from an object whose cells are pairs and
    whose 1- and 2-cells are encoded pairs."""
    m = _build_morphism1(pair_obj, target,
                         {x: x[idx] for x in pair_obj.cells},
                         lambda x, y, e: _dec2(e)[idx],
                         lambda x, y, e, e2, n: _dec2(n)[idx],
                         name=name or f"pr{idx}")
    assert m is not None
    return m


@pullback.register(Eff1Morphism)
def pullback1(f: Eff1Morphism, g: Eff1Morphism,
              name: str = "") -> PullbackBundle:
    """Pullback of the fibration f: B -> A along g: C -> A: pairs with
    equal base image at all three levels.  The object of f x_A f is kept
    on f, one per name and fuel, as its path object is (which holds it as
    the codomain of (s,t))."""
    if f is g:
        obj = _owned(f, ("pullback", name, fuel_now()),
                     lambda: _pullback_object1(f, f, name))
    else:
        obj = _pullback_object1(f, g, name)
    return PullbackBundle(obj, _projection1(obj, g.dom, 0),
                          _projection1(obj, f.dom, 1))


def _pullback_object1(f: Eff1Morphism, g: Eff1Morphism,
                      name: str) -> Eff1Object:
    B, A, C = f.dom, f.cod, g.dom
    cells = [(c, b) for c in C.cells for b in B.cells
             if g.zero_map[c] == f.zero_map[b]]
    realizer = {(c, b): tuple_encode(C.realizer[c], B.realizer[b])
                for (c, b) in cells}
    hom, hom2 = {}, {}
    for x, y in itertools.product(cells, repeat=2):
        (c, b), (c2, b2) = x, y
        h = frozenset(
            tuple_encode(p, r)
            for p in C.hom_of(c, c2) for r in B.hom_of(b, b2)
            if g.one_map[(c, c2)][p] == f.one_map[(b, b2)][r])
        hom[(x, y)] = h
        for e, e2 in itertools.product(sorted(h), repeat=2):
            p, r = _dec2(e)
            p2, r2 = _dec2(e2)
            hom2[(x, y, e, e2)] = frozenset(
                tuple_encode(n, m)
                for n in C.hom2_of(c, c2, p, p2)
                for m in B.hom2_of(b, b2, r, r2)
                if g.two_map[(c, c2, p, p2)][n] ==
                f.two_map[(b, b2, r, r2)][m])

    def unit(x):
        return tuple_encode(_u(C, x[0]), _u(B, x[1]))

    def inv(x, y, e):
        p, r = _dec2(e)
        return tuple_encode(_inv(C, x[0], y[0], p), _inv(B, x[1], y[1], r))

    def comp(x, y, z, e, e2):
        p, r = _dec2(e)
        p2, r2 = _dec2(e2)
        return tuple_encode(_comp(C, x[0], y[0], z[0], p, p2),
                            _comp(B, x[1], y[1], z[1], r, r2))

    return make_object1(cells, realizer, hom, hom2,
                        name=name or f"{C.name}x_{A.name}{B.name}",
                        unit=unit, inv=inv, comp=comp)



# --- path objects -----------------------------------------------------------

def _unit_square(A: Eff1Object, a, b, rho, flip: bool = False):
    """The canonical 2-cell  rho . 1_a  =>  1_b . rho  from the unit
    coherences, or its reverse when ``flip``."""
    t = tuple_encode(A.realizer[a], A.realizer[b], rho)
    sides = [(_comp(A, a, a, b, _u(A, a), rho),
              apply(A.coh_runit, t)),   # rho . 1_a => rho
             (_comp(A, a, b, b, rho, _u(A, b)),
              apply(A.coh_lunit, t))]   # 1_b . rho => rho
    (lhs, to_rho), (rhs, from_rhs) = sides[::-1] if flip else sides
    back = apply(A.inv2, tuple_encode(A.realizer[a], A.realizer[b], rhs, rho,
                                      from_rhs))  # rho => rhs
    return apply(A.vcomp, tuple_encode(A.realizer[a], A.realizer[b], lhs,
                                       rho, rhs, to_rho, back))


def path_object1(A: Eff1Object) -> PathObjectBundle:
    """The fibrewise path object of A -> 1."""
    return fib_path_object1(terminal_map1(A))


@fib_path_object.register(Eff1Morphism)
def fib_path_object1(f: Eff1Morphism) -> PathObjectBundle:
    """Fibrewise paths of a fibration f: B -> A: cells (b, b', rho) over a
    single base cell; 1-cells <mu, nu, n> with equal f-image componentwise
    and n a 2-cell filling the square; 2-cells pairs of 2-cells between the
    respective components, with equal f-image.  One bundle per f and
    fuel; past the depth limit nothing is built or looked up."""
    cells = fib_path_cells(f)
    return _owned(f, ("path", fuel_now()),
                  lambda: _fib_path_object1(f, cells))


def _fib_path_object1(f: Eff1Morphism, cells: list) -> PathObjectBundle:
    B = f.dom
    base = pullback1(f, f).obj
    realizer = {x: tuple_encode(B.realizer[x[0]], B.realizer[x[1]], x[2])
                for x in cells}
    hom, hom2 = {}, {}
    for x, y in itertools.product(cells, repeat=2):
        (a, b, rho), (a2, b2, rho2) = x, y
        ent = set()
        for mu in B.hom_of(a, a2):
            for nu in B.hom_of(b, b2):
                if f.one_map[(a, a2)][mu] != f.one_map[(b, b2)][nu]:
                    continue
                lhs = _comp(B, a, b, b2, rho, nu)    # nu . rho
                rhs = _comp(B, a, a2, b2, mu, rho2)  # rho2 . mu
                for n in B.hom2_of(a, b2, lhs, rhs):
                    ent.add(tuple_encode(mu, nu, n))
        hom[(x, y)] = frozenset(ent)
        for e, e2 in itertools.product(sorted(ent), repeat=2):
            mu, nu, _n = _dec3(e)
            mu2, nu2, _n2 = _dec3(e2)
            hom2[(x, y, e, e2)] = frozenset(
                tuple_encode(p, q)
                for p in B.hom2_of(a, a2, mu, mu2)
                for q in B.hom2_of(b, b2, nu, nu2)
                if f.two_map[(a, a2, mu, mu2)][p] ==
                f.two_map[(b, b2, nu, nu2)][q])

    def unit(x):
        a, b, rho = x
        return tuple_encode(_u(B, a), _u(B, b),
                            _unit_square(B, a, b, rho, flip=True))

    def inv(x, y, e):
        # invert componentwise; the filler of the reversed square is picked
        # minimally from its (by definition non-empty for valid input) set
        mu, nu, n = _dec3(e)
        mi = _inv(B, x[0], y[0], mu)
        ni = _inv(B, x[1], y[1], nu)
        lhs = _comp(B, y[0], y[1], x[1], y[2], ni)
        rhs = _comp(B, y[0], x[0], x[1], mi, x[2])
        fillers = B.hom2_of(y[0], x[1], lhs, rhs)
        if not fillers:
            raise SynthesisFailed(f"no filler for the inverse of {e}")
        return tuple_encode(mi, ni, min(fillers))

    def comp(x, y, z, e, e2):
        mu, nu, n = _dec3(e)
        mu2, nu2, n2 = _dec3(e2)
        mc = _comp(B, x[0], y[0], z[0], mu, mu2)
        nc = _comp(B, x[1], y[1], z[1], nu, nu2)
        lhs = _comp(B, x[0], x[1], z[1], x[2], nc)
        rhs = _comp(B, x[0], z[0], z[1], mc, z[2])
        fillers = B.hom2_of(x[0], z[1], lhs, rhs)
        if not fillers:
            raise SynthesisFailed(f"no filler for the composite of "
                                  f"{e}, {e2}")
        return tuple_encode(mc, nc, min(fillers))

    obj = make_object1(cells, realizer, hom, hom2, name=f"P_{f.name}",
                       unit=unit, inv=inv, comp=comp)
    r = _build_morphism1(
        B, obj, {b: (b, b, _u(B, b)) for b in B.cells},
        lambda b, b2, mu: tuple_encode(mu, mu, _unit_square(B, b, b2, mu)),
        lambda b, b2, p, q, m: tuple_encode(m, m),
        name=f"r_{B.name}")
    st = _build_morphism1(obj, base, {x: (x[0], x[1]) for x in cells},
                          lambda x, y, e: tuple_encode(*_dec3(e)[:2]),
                          name="(s,t)")
    assert r is not None and st is not None
    return PathObjectBundle(obj, r, st, fibration_decide(st).witness)


# --- homotopies -------------------------------------------------------------

@_homotopy_stages.register(Eff1Morphism)
def _homotopy1_stages(f: Eff1Morphism, g: Eff1Morphism, h1=None):
    """The connecting 1-cells of level 0's stages, then h2 filling the
    naturality squares."""
    A, B = f.cod, f.dom
    R, fz, gz = B.realizer, f.zero_map, g.zero_map
    connecting = _homotopy_stages.dispatch(EffMorphism)(f, g, h1)

    def stages(val):
        yield from connecting(val)

        def fillers():
            ones = _one_cell_inputs(B)
            ts, accs = [], []
            try:
                for b, b2 in itertools.product(B.cells, repeat=2):
                    hb, hb2 = val("h1", R[b]), val("h1", R[b2])
                    inputs = ones[b, b2]
                    for p in B.hom_of(b, b2):
                        lhs = _comp(A, fz[b], fz[b2], gz[b2],
                                    f.one_map[(b, b2)][p], hb2)
                        rhs = _comp(A, fz[b], gz[b], gz[b2], hb,
                                    g.one_map[(b, b2)][p])
                        accs.append(A.hom2_of(fz[b], gz[b2], lhs, rhs))
                        ts.append(inputs[p])
            finally:
                if ts:
                    yield "h2", ts, accs, "homotopy filler"
        yield fillers()
    return stages


@fibrewise_homotopic_decide.register(Eff1Morphism)
def fibrewise_homotopic1_decide(f: Eff1Morphism, g: Eff1Morphism,
                                p: Eff1Morphism) -> Decision:
    """Homotopy over the base of p (requires pf = pg on cells; fibrewise
    paths then reduce to the plain criterion)."""
    for b in f.dom.cells:
        if p.zero_map[f.zero_map[b]] != p.zero_map[g.zero_map[b]]:
            return Decision(NO, reason=f"pf and pg differ at {b}")
    # the ends are not compared: univalence_check_set still passes maps
    # that do not fit when the total space of pf is empty
    return _homotopic(f, g)


def _per_realizer(cells, realizer, target, label: str) -> Decision:
    """One code sending the realizer of each cell into target(cell): YES
    with the tabulated code, or NO naming the first empty intersection."""
    try:
        T = settle(lambda _val: [(("code", (realizer[c],), (target(c),),
                                   label) for c in cells)], ("code",))
    except SynthesisFailed as e:
        return Decision(NO, reason=str(e))
    return Decision(YES, witness=tabulate(T["code"]))


def two_homotopic_decide(f: Eff1Morphism, g: Eff1Morphism,
                         H: Homotopy, K: Homotopy) -> Decision:
    """Decide existence of a modification H ~ K: a uniform 2-cell between
    the connecting 1-cells at every cell."""
    A, B = f.cod, f.dom
    hv = {n: apply(H.h1, n) for n in B.realizer_image()}
    kv = {n: apply(K.h1, n) for n in B.realizer_image()}
    return _per_realizer(
        B.cells, B.realizer,
        lambda b: A.hom2_of(f.zero_map[b], g.zero_map[b],
                            hv[B.realizer[b]], kv[B.realizer[b]]),
        "2-cell between the connecting 1-cells")


# --- equivalences -----------------------------------------------------------

@dataclass
class AdjustedEquivalence:
    """The unit eta' = eta^-1_{gfa} . g(eps^-1_{fa}) . eta_a of an
    adjusted equivalence, with the triangle modifications."""
    eta_prime: Homotopy
    M: Decision  # eps_f . f(eta') ~ 1_f  (tabulated 2-cells)
    N: Decision  # g(eps) . eta'_g ~ 1_g


def adjequiv(f: Eff1Morphism, g: Eff1Morphism, eta: Homotopy,
             eps: Homotopy) -> AdjustedEquivalence:
    """Adjust the unit of an equivalence (f, g, eta, eps) so that both
    triangle laws hold up to modifications."""
    A, B = f.dom, f.cod
    vals = {}
    for a in A.cells:
        na = A.realizer[a]
        e = apply(eta.h1, na)                                  # a -> gfa
        fa = f.zero_map[a]
        gfa = g.zero_map[fa]
        ev = apply(eps.h1, A.realizer[gfa])                    # fgfa -> fa
        fgfa = f.zero_map[gfa]
        ei = _inv(B, fgfa, fa, ev)                             # fa -> fgfa
        gei = g.one_map[(fa, fgfa)][ei]                        # gfa -> gfgfa
        gfgfa = g.zero_map[fgfa]
        e2 = apply(eta.h1, A.realizer[gfa])                    # gfa -> gfgfa
        e2i = _inv(A, gfa, gfgfa, e2)                          # gfgfa -> gfa
        c1 = _comp(A, a, gfa, gfgfa, e, gei)
        v = _comp(A, a, gfgfa, gfa, c1, e2i)
        prev = vals.setdefault(na, v)
        assert prev == v, "adjusted unit not uniform"
    gf = compose1(g, f)
    H = homotopy_from_h1(identity1(A), gf, vals)
    assert H is not None, "adjusted unit admits no fillers"

    def first(a):
        fa = f.zero_map[a]
        gfa = g.zero_map[fa]
        fgfa = f.zero_map[gfa]
        fe = f.one_map[(a, gfa)][vals[A.realizer[a]]]          # fa -> fgfa
        ev = apply(eps.h1, A.realizer[gfa])                    # fgfa -> fa
        comp_v = _comp(B, fa, fgfa, fa, fe, ev)
        return B.hom2_of(fa, fa, comp_v, _u(B, fa))

    def second(b):
        gb = g.zero_map[b]
        fgb = f.zero_map[gb]
        gfgb = g.zero_map[fgb]
        e2 = vals[A.realizer[gb]]                              # gb -> gfgb
        ev = apply(eps.h1, B.realizer[b])                      # fgb -> b
        gev = g.one_map[(fgb, b)][ev]                          # gfgb -> gb
        comp_v = _comp(A, gb, gfgb, gb, e2, gev)
        return A.hom2_of(gb, gb, comp_v, _u(A, gb))
    return AdjustedEquivalence(
        H, _per_realizer(A.cells, A.realizer, first, "first triangle"),
        _per_realizer(B.cells, B.realizer, second, "second triangle"))


# --- trivial fibrations -----------------------------------------------------


@dataclass
class Section1:
    section: Eff1Morphism
    tau: dict        # a -> lifted 1-cell g(a) -> s(a) over eps_a
    H: Homotopy      # 1_B ~ s f
    M: int           # tabulated 2-cells witnessing f(H) ~ 1_f


def trivial1_section(f: Eff1Morphism, w: Fibration1Witness,
                     eq: EquivalenceWitness) -> Section1:
    """Build a strict section of a fibration from the inverse and the
    counit of an equivalence, by lifting the counit along the fibration
    structure; raises NotTrivial if any step definitively fails."""
    B, A = f.dom, f.cod
    g = eq.inverse
    zero, tau = {}, {}
    for a in A.cells:
        ev = apply(eq.eps.h1, A.realizer[a])      # f(ga) -> a
        try:
            zero[a], tau[a] = lift_endpoint(f, w, g.zero_map[a], a, ev)
        except TransportFailed:
            raise NotTrivial(
                f"lift of the counit names no cell at {a}") from None
    s = _synthesize_over(f, identity1(A), zero, name=f"sect_{f.name}")
    if s is None:
        raise NotTrivial("section cell map admits no strict trackings")
    vals = {}
    for b in B.cells:
        nb = B.realizer[b]
        e = apply(eq.eta.h1, nb)                  # b -> gfb
        fb = f.zero_map[b]
        gfb = g.zero_map[fb]
        v = _comp(B, b, gfb, zero[fb], e, tau[fb])
        prev = vals.setdefault(nb, v)
        if prev != v:
            raise NotTrivial("homotopy to the section is not uniform")
    H = homotopy_from_h1(identity1(B), compose1(s, f), vals)
    if H is None:
        raise NotTrivial("no square fillers for the section homotopy")
    def trivializing(b):
        fb = f.zero_map[b]
        fh = f.one_map[(b, zero[fb])][vals[B.realizer[b]]]     # fb -> fb
        return A.hom2_of(fb, fb, fh, _u(A, fb))
    M = _per_realizer(B.cells, B.realizer, trivializing,
                      "2-cell trivializing f(H)")
    if M.status != YES:
        raise NotTrivial(M.reason)
    return Section1(s, tau, H, M.witness)


# --- the exponential by the walking pair ------------------------------------

@hexp_J.register(Eff1Object)
def hexp_J1(A: Eff1Object) -> JExponential:
    """The exponential by the walking pair: cells are pairs with equal
    realizer; a 1-cell is a common 1-cell with square fillers against the
    identities on both components; a 2-cell is a common 2-cell."""
    cells = [(a0, a1) for a0 in A.cells for a1 in A.cells
             if A.realizer[a0] == A.realizer[a1]]
    realizer = {x: A.realizer[x[0]] for x in cells}
    hom, hom2, fill = {}, {}, {}
    for x, y in itertools.product(cells, repeat=2):
        ent = set()
        for mu in A.hom_of(x[0], y[0]) & A.hom_of(x[1], y[1]):
            fillers = None
            for s, t in ((x[0], y[0]), (x[1], y[1])):
                lhs = _comp(A, s, s, t, _u(A, s), mu)
                rhs = _comp(A, s, t, t, mu, _u(A, t))
                fs = A.hom2_of(s, t, lhs, rhs)
                fillers = set(fs) if fillers is None else fillers & set(fs)
            for n in fillers:
                ent.add(tuple_encode(mu, n))
            if fillers:
                fill[(x, y, mu)] = min(fillers)
        hom[(x, y)] = frozenset(ent)
        for e, e2 in itertools.product(sorted(hom[(x, y)]), repeat=2):
            mu, _n = _dec2(e)
            mu2, _n2 = _dec2(e2)
            hom2[(x, y, e, e2)] = frozenset(
                frozenset(A.hom2_of(x[0], y[0], mu, mu2)) &
                frozenset(A.hom2_of(x[1], y[1], mu, mu2)))
    def with_fill(x, y, mu, label):
        if (x, y, mu) not in fill:
            raise SynthesisFailed(f"{label}: no common filler for {mu}")
        return tuple_encode(mu, fill[(x, y, mu)])

    obj = make_object1(
        cells, realizer, hom, hom2, name=f"{A.name}^J",
        unit=lambda x: with_fill(x, x, _u(A, x[0]), "unit"),
        inv=lambda x, y, e: with_fill(
            y, x, _inv(A, x[0], y[0], _dec2(e)[0]), "inverse"),
        comp=lambda x, y, z, e, e2: with_fill(
            x, z, _comp(A, x[0], y[0], z[0], _dec2(e)[0], _dec2(e2)[0]),
            "composition"))

    diag = _build_morphism1(
        A, obj, {a: (a, a) for a in A.cells},
        lambda a, a2, mu: tuple_encode(mu, fill[((a, a), (a2, a2), mu)]),
        name=f"diag_{A.name}")
    ev0, ev1 = (_build_morphism1(obj, A, {x: x[idx] for x in cells},
                                 lambda x, y, e: _dec2(e)[0],
                                 name=f"ev{idx}")
                for idx in (0, 1))
    assert diag is not None and ev0 is not None and ev1 is not None
    return JExponential(obj, diag, ev0, ev1)


# --- dependent products -----------------------------------------------------

@_pi_fibre.register(Eff1Morphism)
def _pi_fibre1(f: Eff1Morphism, g: Eff1Morphism, a):
    """The fibre of f at a as the pullback of f along the point a, the
    cell of f's domain under each of its cells, and the sections of g over
    it that are strict at every level."""
    pb = pullback1(f, point1(f.cod, a))
    inc = pb.to_f_dom
    sections = []
    for zero in _zero_map_candidates(
            pb.obj, g.dom,
            cell_filter=lambda x, c: g.zero_map[c] == inc.zero_map[x]):
        s = _synthesize_over(g, inc, zero)
        if s is not None:
            sections.append(s)
    return pb.obj, inc.zero_map, sections


@_pi_skeleton.register(Eff1Morphism)
def _pi_skeleton1(f: Eff1Morphism, cells, realizer, hom, found, name: str):
    """Pi's skeleton with its 2-cells: between two 1-cells over pi and
    pi2 whose homotopies connect the same transported sections, <n, k>
    for each base 2-cell n: pi => pi2, where k is the index of a
    modification's table, when a modification exists."""
    A = f.cod
    modifications = _Enumeration()
    hom2 = {}
    for (k1, k2), h in hom.items():
        for e, e2 in itertools.product(sorted(h), repeat=2):
            pi, pi2 = _dec2(e)[0], _dec2(e2)[0]
            lhs, rhs, H = found[k1, k2, pi]
            lhs2, rhs2, H2 = found[k1, k2, pi2]
            ent = set()
            if lhs.zero_map == lhs2.zero_map and \
                    rhs.zero_map == rhs2.zero_map:
                fib, C = lhs.dom, lhs.cod
                d = _per_realizer(
                    fib.cells, fib.realizer,
                    lambda x: C.hom2_of(
                        lhs.zero_map[x], rhs.zero_map[x],
                        apply(H.h1, fib.realizer[x]),
                        apply(H2.h1, fib.realizer[x])),
                    "modification")
                if d.status == YES:
                    k = modifications(d.witness)
                    ent.update(tuple_encode(n, k) for n in
                               A.hom2_of(k1[0], k2[0], pi, pi2))
            hom2[k1, k2, e, e2] = frozenset(ent)
    obj = make_object1(cells, realizer, hom, hom2, name=name)
    return obj, _projection1(obj, A, 0, name="Pi->base")


# --- truncations and hlevels ------------------------------------------------

def truncate1(f: Eff1Morphism, n: int) -> TruncationBundle:
    """The n-truncation of f for n in {-1, 0}: same carrier, hom-sets
    replaced by the base's at the levels above n.  One bundle per f, n and
    fuel."""
    assert n in (-1, 0), "only (-1)- and 0-truncation are materialized"
    return _owned(f, ("truncate", n, fuel_now()), lambda: _truncate1(f, n))


def _truncate1(f: Eff1Morphism, n: int) -> TruncationBundle:
    B, A = f.dom, f.cod
    fz = f.zero_map
    if n == -1:
        C = _borrowed1(A, B.cells, B.realizer, fz, f"prop_{B.name}")
    else:
        pairs = list(itertools.product(B.cells, repeat=2))
        hom = {(b, b2): B.hom_of(b, b2) for b, b2 in pairs}
        hom2 = {(b, b2, p, q): A.hom2_of(fz[b], fz[b2],
                                         f.one_map[(b, b2)][p],
                                         f.one_map[(b, b2)][q])
                for b, b2 in pairs
                for p in hom[(b, b2)] for q in hom[(b, b2)]}
        C = make_object1(
            B.cells, B.realizer, hom, hom2, name=f"set_{B.name}",
            unit=lambda b: _u(B, b),
            inv=lambda b, b2, p: _inv(B, b, b2, p),
            comp=lambda b, b2, b3, p, r: _comp(B, b, b2, b3, p, r),
            _skeleton_of=B)

    def f1(b, b2, p):
        return f.one_map[b, b2][p]

    def f2(b, b2, p, r, m):
        return f.two_map[b, b2, p, r][m]
    # the 1-cells of f go to g at level -1 and to h at level 0
    g = _build_morphism1(B, C, {b: b for b in B.cells},
                         f1 if n == -1 else None, f2,
                         name=f"trunc{n}_{f.name}")
    h = _build_morphism1(C, A, {b: fz[b] for b in B.cells},
                         None if n == -1 else f1,
                         name=f"{f.name}@{n}")
    assert g is not None and h is not None
    return TruncationBundle(g, h)


def _identity_equivalence1(g: Eff1Morphism) -> Decision:
    """Decide whether g (with equal carriers) is an equivalence, trying the
    identity cell map first."""
    B, C = g.dom, g.cod

    def candidates():
        # the second is built only if the first is not an inverse
        yield identity_like1(C, B)
        yield synthesize_morphism1(C, B, {c: c for c in C.cells})
    for d0 in candidates():
        if d0 is None:
            continue
        e1 = homotopic_decide(identity1(B), compose1(d0, g))
        e2 = homotopic_decide(compose1(g, d0), identity1(C))
        if e1.status == YES and e2.status == YES:
            return Decision(YES, witness=EquivalenceWitness(
                d0, e1.witness, e2.witness))
    return is_equivalence_decide(g)


@hlevel_check.register(Eff1Morphism)
def hlevel1_check(f: Eff1Morphism, n: int) -> HlevelVerdict:
    """Is f a fibration of n-types?  A fibration is of (-2)-types when it
    is an equivalence; of (-1)- and 0-types when the comparison into its
    n-truncation is an equivalence; of (n+1)-types when its fibrewise path
    object is of n-types.  Running out of a limit is UNKNOWN."""
    if n < -2:
        raise ValueError("levels start at -2")
    no = not_a_fibration(f)
    if no is not None:
        return HlevelVerdict(REFUTED, reason=no.reason)
    try:
        if n == -2:
            return hlevel_verdict(is_equivalence_decide(f),
                                  "a fibration and an equivalence")
        if n in (-1, 0):
            return hlevel_verdict(
                _identity_equivalence1(truncate1(f, n).g),
                f"equivalent to its {n}-truncation")
        return hlevel1_check(fib_path_object1(f).st, n - 1)
    except LimitReached as e:
        return HlevelVerdict(UNKNOWN, reason=str(e))


# --- discreteness -----------------------------------------------------------

@dataclass
class PhiPsi:
    """phi: realizer |-> vertical 1-cell between any two cells of the same
    fibre sharing it; psi: <n, m, p> |-> 2-cell filling the naturality
    square of phi against any 1-cell p."""
    phi: int
    psi: int


def _realizer_twins(f: Eff1Morphism):
    B = f.dom
    for b0, b1 in itertools.product(B.cells, repeat=2):
        if f.zero_map[b0] == f.zero_map[b1] and \
                B.realizer[b0] == B.realizer[b1]:
            yield b0, b1


def discrete1_phi_psi(f: Eff1Morphism) -> Decision:
    """The computable-transport criterion for discreteness."""
    B, A = f.dom, f.cod
    for b0, b1 in itertools.product(B.cells, repeat=2):
        h = sorted(B.hom_of(b0, b1))
        for p, q in itertools.combinations(h, 2):
            if f.one_map[(b0, b1)][p] == f.one_map[(b0, b1)][q] \
                    and not B.hom2_of(b0, b1, p, q):
                return Decision(
                    NO, reason=f"parallel lifts {p}, {q} from {b0} to {b1} "
                               "are not two-connected")
    R = B.realizer

    def stages(val):
        yield (("phi", (R[b0],), (frozenset(
                    p for p in B.hom_of(b0, b1) if f.one_map[(b0, b1)][p]
                    == _u(A, f.zero_map[b0])),), "vertical 1-cell")
               for b0, b1 in _realizer_twins(f))
        yield (("psi", (tuple_encode(R[b0], R[c0], p),), (B.hom2_of(
                    b0, c1, _comp(B, b0, c0, c1, p, val("phi", R[c0])),
                    _comp(B, b0, b1, c1, val("phi", R[b0]), p)),),
                "naturality square filler")
               for b0, b1 in _realizer_twins(f)
               for c0, c1 in _realizer_twins(f)
               for p in B.hom_of(b0, c0) & B.hom_of(b1, c1))
    try:
        T = settle(stages, ("phi", "psi"))
    except SynthesisFailed as e:
        return Decision(NO, reason=str(e))
    return Decision(YES, witness=PhiPsi(**tabulate_all(T)))


@discrete_decide.register(Eff1Morphism)
def discrete1_decide(f: Eff1Morphism) -> Decision:
    """Decide whether the fibration f is discrete and, when it is, produce
    the equivalent standard discrete fibration obtained by collapsing
    realizer twins.  Running out of a limit is UNKNOWN."""
    no = not_a_fibration(f)
    if no is not None:
        return no
    try:
        return _discrete1(f)
    except LimitReached as e:
        return Decision(UNKNOWN, reason=str(e))


def _discrete1(f: Eff1Morphism) -> Decision:
    d = discrete1_phi_psi(f)
    if d.status != YES:
        return d
    B = f.dom
    reps = {}
    for b in B.cells:
        reps.setdefault((f.zero_map[b], B.realizer[b]), b)
    qcells = [b for b in B.cells
              if reps[(f.zero_map[b], B.realizer[b])] == b]
    Q = _borrowed1(B, qcells, {b: B.realizer[b] for b in qcells},
                   {b: b for b in qcells}, f"std_{B.name}")
    incl = _build_morphism1(Q, B, {b: b for b in qcells}, name="incl")
    assert incl is not None
    retr = synthesize_morphism1(
        B, Q, {b: reps[(f.zero_map[b], B.realizer[b])] for b in B.cells},
        name="retr")
    if retr is None:
        return Decision(UNKNOWN,
                        reason="no tracked retraction onto the quotient")
    comparison = homotopic_decide(compose1(incl, retr), identity1(B))
    standard = compose1(f, incl)
    nf = DiscreteNormalForm(Q, incl, standard)
    if comparison.status != YES:
        return Decision(UNKNOWN, witness=nf,
                        reason="quotient comparison undecided")
    return Decision(YES, witness=nf)


# --- the universe of sets ---------------------------------------------------

def disc_object(carrier, hom, name: str = "") -> EffObject:
    """An object of the category of discrete sets: natural-number cells
    realized by themselves."""
    return make_object(tuple(carrier), {a: a for a in carrier}, hom,
                       name=name)


def u_set_hom_status(X, Y, quad) -> str:
    """A 1-cell of the universe is a quadruple (fwd, bwd, H, K) exhibiting
    an equivalence of discrete sets."""
    fwd, bwd, H, K = quad
    if fwd.dom is not X or fwd.cod is not Y or \
            bwd.dom is not Y or bwd.cod is not X:
        return NO
    for m in (fwd, bwd):
        s = _verdict_status(check_morphism(m))
        if s != YES:
            return s
    for mor1, mor2, hh in ((identity(X), compose(bwd, fwd), H),
                           (compose(fwd, bwd), identity(Y), K)):
        s = _verdict_status(check_homotopy(mor1, mor2, hh))
        if s != YES:
            return s
    return YES


_SET_NORMAL_FORM = ("expected cells (a, n) with f = fst, realizer = snd and "
                    "base 2-cells")


def _set_normalized(f: Eff1Morphism) -> bool:
    """Normal form for classification: cells (a, n) with f = fst and
    realizer = snd, 2-cells inherited from the base."""
    B, A = f.dom, f.cod
    for b in B.cells:
        if not (isinstance(b, tuple) and len(b) == 2):
            return False
        if f.zero_map[b] != b[0] or B.realizer[b] != b[1]:
            return False
    for (b, b2, p, q), h in B.hom2.items():
        fp = f.one_map[(b, b2)][p]
        fq = f.one_map[(b, b2)][q]
        if set(h) != set(A.hom2_of(f.zero_map[b], f.zero_map[b2], fp, fq)):
            return False
    return True


def _fibre_disc(f: Eff1Morphism, a) -> EffObject:
    B = f.dom
    ns = [b[1] for b in B.cells if b[0] == a]
    ua = _u(f.cod, a)
    hom = {(n, n2): frozenset(
        p for p in B.hom_of((a, n), (a, n2))
        if f.one_map[((a, n), (a, n2))][p] == ua)
        for n in ns for n2 in ns}
    return disc_object(ns, hom, name=f"fib_{a}")


@dataclass
class SetClassifyingMap:
    zero: dict   # a -> EffObject in the universe
    one: dict    # (a, a2, pi) -> (fwd, bwd, H, K)
    two: dict    # (a, a2, pi, pi2, n) -> Homotopy between forward maps


def classify_discrete_set(f: Eff1Morphism,
                          w: Fibration1Witness) -> Classification:
    """Classifying map of a normalized discrete fibration of sets, the
    recovered total space, and the comparison equivalence."""
    if not _set_normalized(f):
        raise NotNormalized(_SET_NORMAL_FORM)
    A, B = f.cod, f.dom
    zero = {a: _fibre_disc(f, a) for a in A.cells}

    def transport_map(a, a2, pi):
        return {n: lift_endpoint(f, w, (a, n), a2, pi)[0][1]
                for n in zero[a].cells}

    one, two = {}, {}
    for a, a2 in itertools.product(A.cells, repeat=2):
        for pi in A.hom_of(a, a2):
            fwd = synthesize_morphism(zero[a], zero[a2],
                                      transport_map(a, a2, pi))
            bwd = synthesize_morphism(
                zero[a2], zero[a],
                transport_map(a2, a, _inv(A, a, a2, pi)))
            assert fwd is not None and bwd is not None
            H = homotopic_decide(identity(zero[a]), compose(bwd, fwd))
            K = homotopic_decide(compose(fwd, bwd), identity(zero[a2]))
            assert H.status == YES and K.status == YES
            one[(a, a2, pi)] = (fwd, bwd, H.witness, K.witness)
    for a, a2 in itertools.product(A.cells, repeat=2):
        for pi in A.hom_of(a, a2):
            for pi2 in A.hom_of(a, a2):
                for n in A.hom2_of(a, a2, pi, pi2):
                    U = homotopic_decide(one[(a, a2, pi)][0],
                                         one[(a, a2, pi2)][0])
                    assert U.status == YES
                    two[(a, a2, pi, pi2, n)] = U.witness

    cells = [(a, n) for a in A.cells for n in zero[a].cells]
    realizer = {(a, n): n for (a, n) in cells}
    hom, hom2 = {}, {}
    for x, y in itertools.product(cells, repeat=2):
        (a, n), (a2, n2) = x, y
        h = set()
        for pi in A.hom_of(a, a2):
            fwd = one[(a, a2, pi)][0]
            for sg in zero[a2].hom_of(fwd.zero_map[n], n2):
                h.add(tuple_encode(pi, sg))
        hom[(x, y)] = frozenset(h)
        for e, e2 in itertools.product(sorted(hom[(x, y)]), repeat=2):
            pi, _sg = _dec2(e)
            pi2, _sg2 = _dec2(e2)
            hom2[(x, y, e, e2)] = frozenset(
                tuple_encode(m, 0) for m in A.hom2_of(a, a2, pi, pi2))
    recovered = make_object1(cells, realizer, hom, hom2,
                             name=f"rec_{B.name}")
    cmp_m = synthesize_morphism1(B, recovered, {b: b for b in B.cells})
    if cmp_m is None:
        comparison = Decision(NO, reason="no tracked comparison morphism")
    else:
        comparison = is_equivalence_decide(cmp_m)
    return Classification(SetClassifyingMap(zero, one, two), recovered,
                          comparison)


def univalence_check_set(wm: Eff1Morphism, pf: Eff1Morphism,
                         pg: Eff1Morphism):
    """From a fibrewise equivalence wm between two normalized discrete set
    fibrations, extract per-base-cell universe 1-cells and check that the
    induced map agrees with wm fibrewise.  Returns (quadruples, Decision);
    raises NotNormalized unless pf and pg are normalized and wm maps the
    cells of pf's total space to those of pg's.
    """
    if not (_set_normalized(pf) and _set_normalized(pg)) or any(
            wm.zero_map.get(b) not in pg.dom.cells for b in pf.dom.cells):
        raise NotNormalized(_SET_NORMAL_FORM)
    A = pf.cod
    H = {}
    for a in A.cells:
        Xa, Ya = _fibre_disc(pf, a), _fibre_disc(pg, a)
        fwd0 = {n: wm.zero_map[(a, n)][1] for n in Xa.cells}
        fwd = synthesize_morphism(Xa, Ya, fwd0)
        if fwd is None:
            return H, Decision(NO, reason=f"fibre map not tracked at {a}")
        d = is_equivalence_decide(fwd)
        if d.status != YES:
            return H, Decision(d.status, reason=d.reason if
                               d.status == UNKNOWN else
                               f"fibre map not invertible at {a}")
        quad = (fwd, d.witness.inverse, d.witness.eta, d.witness.eps)
        if u_set_hom_status(Xa, Ya, quad) != YES:
            return H, Decision(NO, reason=f"universe 1-cell invalid at {a}")
        H[a] = quad
    induced = synthesize_morphism1(
        pf.dom, pg.dom,
        {b: (b[0], H[b[0]][0].zero_map[b[1]]) for b in pf.dom.cells})
    if induced is None:
        return H, Decision(NO, reason="induced morphism not tracked")
    return H, fibrewise_homotopic1_decide(induced, wm, pg)


# --- the cyclic-group obstruction -------------------------------------------

def z2_object() -> Eff1Object:
    """The group of order two as a one-object-per-point 2-object: two
    cells, every 1-hom {0, 1} with composition addition mod 2, and only
    identity 2-cells."""
    cells = (0, 1)
    hom = {(i, j): frozenset({0, 1}) for i in cells for j in cells}
    hom2 = {(i, j, p, q): (frozenset({0}) if p == q else frozenset())
            for i in cells for j in cells for p in (0, 1) for q in (0, 1)}
    return make_object1(cells, {0: 0, 1: 1}, hom, hom2, name="Z2",
                        unit=lambda a: 0,
                        inv=lambda a, b, p: p,
                        comp=lambda a, b, c, p, r: (p + r) % 2)


def z2_twist(A: Eff1Object | None = None) -> Eff1Morphism:
    """The self-morphism fixing cells, fixing loops, and flipping cross
    1-cells; homotopic to the identity in two essentially different ways."""
    A = A if A is not None else z2_object()
    m = _build_morphism1(A, A, {0: 0, 1: 1},
                         lambda i, j, p: p if i == j else 1 - p,
                         name="twist")
    assert m is not None
    return m


def z2_homotopies(A: Eff1Object, wm: Eff1Morphism):
    """Two homotopies 1 ~ twist that admit no modification between them."""
    idA = identity1(A)
    H = homotopy_from_h1(idA, wm, {0: 0, 1: 1})
    K = homotopy_from_h1(idA, wm, {0: 1, 1: 0})
    assert H is not None and K is not None
    return H, K
