"""Homotopy levels, propositional truncation, discreteness, the universe of
propositions with its univalence check, resizing, and the two-self-
equivalences obstruction.

REFUTED verdicts come only from definitive finite emptiness; budget or fuel
exhaustion yields UNKNOWN.  The universe is never materialized: its
zero-cells are presented finite subsets of naturals and its 1-cells are
checked intensionally by running the coded tracking pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .pca import (
    LimitReached, apply, cantor_unpair, const_code, fuel_now, tabulate,
    tuple_encode,
)
from .core import (
    Decision, EffMorphism, EffObject, NO, UNKNOWN, YES, compose,
    dispatch_on, identity, make_object, synthesize_morphism, _inv, _run,
)
from .path import (
    FibrationWitness, fib_path_object, fibrewise_homotopic_decide,
    homotopic_decide, is_equivalence_decide, is_trivial_fibration,
    lift_endpoint, not_a_fibration,
)

VERIFIED, REFUTED = "verified", "refuted"


# --- hlevels ----------------------------------------------------------------

@dataclass
class HlevelVerdict:
    status: str  # VERIFIED | REFUTED | UNKNOWN
    reason: str = ""


def hlevel_verdict(d: Decision, verified: str) -> HlevelVerdict:
    """The h-level verdict a decision gives; VERIFIED gives its reason."""
    if d.status == YES:
        return HlevelVerdict(VERIFIED, reason=verified)
    return HlevelVerdict(REFUTED if d.status == NO else UNKNOWN,
                         reason=d.reason)


@dispatch_on(EffMorphism)
def hlevel_check(f: EffMorphism, n: int) -> HlevelVerdict:
    """Is f a fibration of n-types?  Level -2 means trivial, level -1 that
    the fibrewise path object is trivial; higher levels are decided one
    dimension up, on the inflated map.  Running out of a limit while
    building the path object is UNKNOWN."""
    if n < -2:
        raise ValueError("levels start at -2")
    if n == -2:
        return hlevel_verdict(is_trivial_fibration(f),
                              "a fibration and an equivalence")
    if n == -1:
        # one level-0 path object is cheaper than a level-1 truncation
        no = not_a_fibration(f)
        if no is not None:
            return HlevelVerdict(REFUTED, reason=no.reason)
        try:
            st = fib_path_object(f).st
        except LimitReached as e:
            return HlevelVerdict(UNKNOWN, reason=str(e))
        # st is a fibration (a path-category axiom): trivial = equivalence
        return hlevel_verdict(is_equivalence_decide(st),
                              "its path object is a trivial fibration")
    from .eff1 import inflate_morphism
    return hlevel_check(inflate_morphism(f), n)


# --- propositional truncation -----------------------------------------------

@dataclass
class TruncationBundle:
    """A truncation of f: B -> A through C, at either level."""
    g: EffMorphism          # B -> C, same cells
    h: EffMorphism          # C -> A, the truncated fibration


def prop_truncate(f: EffMorphism) -> TruncationBundle:
    """Factor a fibration B -> A through C = (B, beta, hom pulled from A).

    C's 1-cells between b and b' are A's 1-cells between their images,
    which makes C -> A propositional.
    """
    B, A = f.dom, f.cod
    hom = {(b, b2): A.hom_of(f.zero_map[b], f.zero_map[b2])
           for b in B.cells for b2 in B.cells}
    C = make_object(B.cells, B.realizer, hom, name=f"|{B.name}|")
    g = synthesize_morphism(B, C, {b: b for b in B.cells},
                            name=f"{B.name}->|{B.name}|")
    h = synthesize_morphism(C, A, dict(f.zero_map),
                            name=f"|{B.name}|->{A.name}")
    assert g is not None and h is not None
    return TruncationBundle(g, h)


def truncation_compare(tr: TruncationBundle, g2: EffMorphism,
                       h2: EffMorphism):
    """The comparison map d: C -> C' against another factorisation, with
    d g ~_A g2; returns (d, Decision)."""
    C = tr.g.cod
    d = synthesize_morphism(C, h2.dom,
                            {b: g2.zero_map[b] for b in C.cells},
                            name="truncation_compare")
    if d is None:
        return None, Decision(NO, reason="comparison map untrackable")
    law = fibrewise_homotopic_decide(compose(d, tr.g), g2, h2)
    return d, law


# --- discreteness -----------------------------------------------------------

def is_standard_discrete(f) -> bool:
    """Cells in a fibre are determined by their realizer (at either
    level)."""
    seen = {}
    for b in f.dom.cells:
        key = (f.zero_map[b], f.dom.realizer[b])
        if seen.setdefault(key, b) != b:
            return False
    return True


@dataclass
class DiscreteNormalForm:
    """A discrete fibration's quotient by realizer twins, at either level."""
    quotient: EffObject       # one representative per (fibre, realizer)
    inclusion: EffMorphism    # quotient -> B, an equivalence
    standard: EffMorphism     # quotient -> A, standard discrete by build


@dispatch_on(EffMorphism)
def discrete_decide(f: EffMorphism) -> Decision:
    """Decide whether the fibration f is discrete, one dimension up on the
    inflated map; on YES the quotient by realizer twins is read back."""
    from .eff1 import flatten, flatten_morphism, inflate_morphism
    d = discrete_decide(inflate_morphism(f))
    if d.status != YES:
        return d
    nf = d.witness
    quotient = flatten(nf.quotient)
    return Decision(YES, witness=DiscreteNormalForm(
        quotient, flatten_morphism(nf.inclusion, quotient, f.dom),
        flatten_morphism(nf.standard, quotient, f.cod)))


# --- the universe of propositions -------------------------------------------

def u_hom_status(X, Y, n: int) -> str:
    """Is n = <r, s> a 1-cell between the subsets X and Y?  r must send
    every element of X into Y and s every element of Y into X."""
    r, s = cantor_unpair(n)
    for code, src, dst in ((r, X, Y), (s, Y, X)):
        for x in sorted(src):
            status, v = _run(code, x, fuel_now())
            if status == "fuel":
                return UNKNOWN
            if status == "div" or v not in dst:
                return NO
    return YES


def u_one_cell(X, Y):
    """A canonical 1-cell between two subsets, or None; any pair of total
    maps qualifies, so one exists iff neither side strands the other."""
    if (len(X) == 0) != (len(Y) == 0):
        return None
    r = tabulate({x: min(Y) for x in X}) if X else const_code(0)
    s = tabulate({y: min(X) for y in Y}) if Y else const_code(0)
    return tuple_encode(r, s)


def u_pullback(Z: EffObject, assignment: dict, name: str = "") -> EffObject:
    """The finite total space of the subsets assigned to the cells of Z:
    cells (z, n) with n in assignment[z], realized by <zeta z, n>, with the
    propositional hom-sets pulled from Z."""
    cells = [(z, n) for z in Z.cells for n in sorted(assignment[z])]
    realizer = {(z, n): tuple_encode(Z.realizer[z], n) for (z, n) in cells}
    hom = {(x, y): Z.hom_of(x[0], y[0]) for x in cells for y in cells}
    return make_object(cells, realizer, hom, name=name or f"E|{Z.name}")


@dataclass
class ClassifyingMap:
    zero: dict    # a -> frozenset of naturals (the fibre over a)
    one: dict     # (a, a', pi) -> (r_code, s_code)
    tracking0: int
    tracking1: int


class NotNormalized(Exception):
    """Classification needs cells (a, n) with f = fst and realizer = snd."""


@dataclass
class Classification:
    """A classification at either level (an eff1.SetClassifyingMap at 1)."""
    k: ClassifyingMap
    recovered: EffObject       # pullback of the universe along k
    comparison: Decision       # equivalence with the classified total space


def classify_prop_discrete(f: EffMorphism,
                           w: FibrationWitness) -> Classification:
    """Classifying map of a normalized standard discrete propositional
    fibration: a goes to its fibre set, a 1-cell to the tracking pair of
    the transport equivalence between the fibres."""
    B, A = f.dom, f.cod
    for b in B.cells:
        if not (isinstance(b, tuple) and len(b) == 2
                and f.zero_map[b] == b[0] and B.realizer[b] == b[1]):
            raise NotNormalized(f"cell {b!r}")
    zero = {a: frozenset(n for (a2, n) in B.cells if a2 == a)
            for a in A.cells}

    def fibre_transport(a, a2, pi):
        return tabulate({
            n: B.realizer[lift_endpoint(f, w, (a, n), a2, pi)[0]]
            for n in zero[a]}) if zero[a] else const_code(0)

    one, t1_table = {}, {}
    for a, a2 in itertools.product(A.cells, repeat=2):
        for pi in A.hom_of(a, a2):
            r = fibre_transport(a, a2, pi)
            s = fibre_transport(a2, a, _inv(A, a, a2, pi))
            one[(a, a2, pi)] = (r, s)
            t1_table[tuple_encode(A.realizer[a], A.realizer[a2], pi)] = \
                tuple_encode(r, s)
    k = ClassifyingMap(zero, one, const_code(0), tabulate(t1_table))

    recovered = u_pullback(A, zero, name=f"U*{A.name}")
    comp = synthesize_morphism(B, recovered,
                               {b: b for b in B.cells}, name="recover")
    if comp is None:
        comparison = Decision(NO, reason="comparison map untrackable")
    else:
        comparison = is_equivalence_decide(comp)
    return Classification(k, recovered, comparison)


def univalence_check_prop(w: EffMorphism, pf: EffMorphism, pg: EffMorphism):
    """Read a universe homotopy off an equivalence w: P_f -> P_g over Z
    (pg w = pf; cells (z, n) realized by pairs) and verify that the map it
    induces is fibrewise homotopic to w.  Returns ({z: (r, s)}, Decision);
    raises NotNormalized when a cell of P_f or P_g is not such a pair.
    """
    Z = pf.cod
    eq = is_equivalence_decide(w)
    if eq.status != YES:
        return None, Decision(eq.status, reason=eq.reason if
                              eq.status == UNKNOWN else
                              "w is not an equivalence")
    for p, X in ((pf, w.dom), (pg, w.cod)):
        for c in X.cells:
            if not (isinstance(c, tuple) and len(c) == 2
                    and p.zero_map.get(c) == c[0]):
                raise NotNormalized(f"cell {c!r}")
    inv = eq.witness.inverse
    H = {}
    for z in Z.cells:
        fwd = {n: w.zero_map[(z, n)][1]
               for (z2, n) in w.dom.cells if z2 == z}
        bwd = {n: inv.zero_map[(z, n)][1]
               for (z2, n) in w.cod.cells if z2 == z}
        r = tabulate(fwd) if fwd else const_code(0)
        s = tabulate(bwd) if bwd else const_code(0)
        H[z] = (r, s)
    induced_zero = {(z, n): (z, apply(H[z][0], n))
                    for (z, n) in w.dom.cells}
    induced = synthesize_morphism(w.dom, w.cod, induced_zero,
                                  name="induced_by_H")
    if induced is None:
        return H, Decision(NO, reason="induced map untrackable")
    return H, fibrewise_homotopic_decide(induced, w, pg)


# --- resizing ---------------------------------------------------------------

@dataclass
class ResizeBundle:
    """A resizing of f: B -> A, at either level."""
    obj: EffObject        # C, the discrete replacement
    proj: EffMorphism     # C -> A
    laws: tuple   # both round trips over A, or NO naming an untracked map


@dispatch_on(EffMorphism)
def resize(f: EffMorphism) -> ResizeBundle:
    """Replace a propositional fibration by the discrete C -> A with
    C = {(a, n) : some cell over a is realized by n}, realized by n.  When
    f is not propositional a comparison map is untracked, and the laws are
    a single NO naming it."""
    B, A = f.dom, f.cod
    pairs = sorted({(f.zero_map[b], B.realizer[b]) for b in B.cells},
                   key=lambda p: (A.cells.index(p[0]), p[1]))
    hom = {(p, q): A.hom_of(p[0], q[0]) for p in pairs for q in pairs}
    C = make_object(pairs, {p: p[1] for p in pairs}, hom,
                    name=f"rsz({B.name})")
    proj = synthesize_morphism(C, A, {p: p[0] for p in pairs},
                               name=f"rsz({B.name})->{A.name}")
    assert proj is not None
    to_c = synthesize_morphism(
        B, C, {b: (f.zero_map[b], B.realizer[b]) for b in B.cells})
    choice = {}
    for b in sorted(B.cells, key=B.cells.index, reverse=True):
        choice[(f.zero_map[b], B.realizer[b])] = b
    to_b = synthesize_morphism(C, B, {p: choice[p] for p in pairs})
    laws = _resize_laws(B, C, to_c, to_b, lambda: (
        fibrewise_homotopic_decide(compose(to_c, to_b), identity(C), proj),
        fibrewise_homotopic_decide(compose(to_b, to_c), identity(B), f)))
    return ResizeBundle(C, proj, laws)


def _resize_laws(B, C, to_c, to_b, round_trips):
    """The round trips of a resizing B <-> C, or a single NO naming the
    comparison map that is not tracked (B was not propositional)."""
    for X, Y, m in ((B, C, to_c), (C, B, to_b)):
        if m is None:
            return (Decision(NO, reason=f"comparison map {X.name} -> "
                                        f"{Y.name} is not tracked"),)
    return round_trips()


# --- the obstruction on the two-point discrete object -----------------------

@dataclass
class SelfEquivalenceReport:
    obj: EffObject
    first: EffMorphism
    second: EffMorphism
    first_is_equivalence: Decision
    second_is_equivalence: Decision
    homotopic: Decision


def two_self_equivalences(
        obj: EffObject | None = None) -> SelfEquivalenceReport:
    """The identity and the swap on a two-cell object with their
    equivalence proofs and the (non-)homotopy between them.  On the
    discrete pair the maps are not homotopic, which obstructs a univalent
    classifier for all discrete fibrations."""
    from .path import discrete_n
    obj = obj if obj is not None else discrete_n(2, name="2")
    a, b = obj.cells
    ident = identity(obj)
    swap = synthesize_morphism(obj, obj, {a: b, b: a}, name="swap")
    assert swap is not None
    return SelfEquivalenceReport(
        obj, ident, swap,
        is_equivalence_decide(ident),
        is_equivalence_decide(swap),
        homotopic_decide(ident, swap))
