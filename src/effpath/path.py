"""Path-category structure: fibrations, pullbacks, path objects, homotopy
and equivalence decision procedures, sections of trivial fibrations, sums,
and the groupoid-up-to-homotopy structure.

The homotopy relation is defined by existence of a code; over finite carriers
that existence is decidable: group cells by visible realizer, intersect the
target hom-sets, and tabulate one choice per group.  All NO verdicts come
from definitive finite emptiness, never from fuel exhaustion.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .pca import (
    LimitReached, apply, depth_now, fuel_limit, tuple_encode, within_budget,
)
from .core import (
    Decision, EffMorphism, EffObject, MapsDoNotFit, NO, SynthesisFailed,
    UNKNOWN, Verdict, YES, _comp, _edges_of, _inv, _owned, _u, compose,
    dispatch_on, forced, groups, identity, make_object, settle,
    synthesize_morphism, tabulate_all, verify,
)


# --- fibrations -------------------------------------------------------------

@dataclass
class FibrationWitness:
    lift0: int  # <beta b, alpha a, pi> -> realizer of b'
    lift1: int  # <beta b, alpha a, pi> -> rho: b -> b'
    lift2: int  # <beta b, beta b', rho, pi> -> rho' with f(rho') = pi


def _lift1_obligations(f):
    """Lift (1) of a fibration f: B -> A at either level: <beta b, alpha a,
    p> with p in hom(f b, a) names a lift (realizer of b', rho: b -> b') of
    p, grouped by the image of rho.  A block runs over hom(f b, a)."""
    A, B, fz = f.cod, f.dom, f.zero_map
    R = B.realizer
    adjA, adjB = _edges_of(A)[0], _edges_of(B)[0]
    for b in B.cells:
        for a, _, hp in adjA.get(fz[b], ()):
            sols = {}  # p -> lifts (realizer of b', rho) of p
            for b2, hb, _ in adjB[b]:
                if fz[b2] == a:
                    for rho in hb:
                        sols.setdefault(f.one_map[(b, b2)][rho],
                                        set()).add((R[b2], rho))
            yield (("lift0", "lift1"),
                   [tuple_encode(R[b], A.realizer[a], p) for p in hp],
                   [sols.get(p, ()) for p in hp], "lift (1)")


def _fibration_stages(f: EffMorphism):
    """(1) as in _lift1_obligations; (2) <beta b, beta b', rho, pi> gives
    rho' with f(rho') = pi, in a block per pair of cells."""
    B, A = f.dom, f.cod

    def stages(_val):
        def lifts():
            yield from _lift1_obligations(f)
            for b, b2 in itertools.product(B.cells, repeat=2):
                hb = B.hom_of(b, b2)
                pis = sorted(A.hom_of(f.zero_map[b], f.zero_map[b2]))
                if not (hb and pis):
                    continue
                over = [{r2 for r2 in hb if f.one_map[(b, b2)][r2] == pi}
                        for pi in pis]
                yield ("lift2",
                       [tuple_encode(B.realizer[b], B.realizer[b2], rho, pi)
                        for rho in sorted(hb) for pi in pis],
                       over * len(hb), "lift (2)")
        yield lifts()
    return stages


@dispatch_on(EffMorphism)
def check_fibration(f: EffMorphism, w: FibrationWitness,
                    fuel: int | None = None) -> Verdict:
    with fuel_limit(fuel):
        return verify(_fibration_stages(f), vars(w))


@dispatch_on(EffMorphism)
def synthesize_fibration_witness(f: EffMorphism):
    """A witness bundle from per-visible-input intersections, or None.

    A single pair of codes serves condition 1 iff every group of instances
    sharing a visible input has a common (realizer, rho) solution; similarly
    for condition 2.  Over finite data this decides fibration-hood.
    """
    try:
        T = settle(_fibration_stages(f), ("lift0", "lift1", "lift2"))
    except SynthesisFailed:
        return None
    return FibrationWitness(**tabulate_all(T))


def fibration_decide(f) -> Decision:
    """Is f a fibration, at either level?  The decision reads no codes, so
    it does not depend on the fuel and is kept once per map."""
    def decide():
        w = synthesize_fibration_witness(f)
        if w is None:
            return Decision(NO, reason="no uniform lifting codes exist")
        return Decision(YES, witness=w)
    return _owned(f, ("fibration",), decide)


def not_a_fibration(f: EffMorphism) -> Decision | None:
    """NO, naming why, when f is not a fibration; None for a fibration.
    A NO Decision is falsy, so compare the result with ``is not None``."""
    d = fibration_decide(f)
    return None if d else Decision(NO, reason=f"not a fibration: {d.reason}")


class TransportFailed(Exception):
    """A lift code named no cell of the total space."""


def lift_endpoint(f, w, y, x2, pi):
    """Lift pi: f(y) -> x2 through the witness's condition (1), at either
    level: the endpoint y' over x2 and the 1-cell y -> y' mapping to pi."""
    Y, X = f.dom, f.cod
    t = tuple_encode(Y.realizer[y], X.realizer[x2], pi)
    m = apply(w.lift0, t)
    rho = apply(w.lift1, t)
    for y2 in Y.cells:
        if f.zero_map[y2] == x2 and Y.realizer[y2] == m \
                and rho in Y.hom_of(y, y2) \
                and f.one_map[(y, y2)][rho] == pi:
            return y2, rho
    raise TransportFailed(
        f"lift of {pi}: {f.zero_map[y]} -> {x2} at {y} names no cell")


# --- terminal object and products -------------------------------------------

def terminal_object() -> EffObject:
    return make_object(("*",), {"*": 0}, {("*", "*"): {0}}, name="1")


@dispatch_on(EffObject)
def terminal_map(obj: EffObject) -> EffMorphism:
    one = terminal_object()
    f = synthesize_morphism(obj, one, {a: "*" for a in obj.cells},
                            name=f"{obj.name}->1")
    assert f is not None
    return f


def product(A: EffObject, B: EffObject, name: str = ""):
    """Returns (A x B, p1, p2): the pullback of B -> 1 along A -> 1."""
    pb = pullback(terminal_map(B), terminal_map(A),
                  name=name or f"{A.name}x{B.name}")
    return pb.obj, pb.to_g_dom, pb.to_f_dom


def pair_morphism(prod: EffObject, f: EffMorphism, g: EffMorphism,
                  name: str = "") -> EffMorphism:
    """The map <f, g>: C -> A x B into a product built by product()."""
    zero = {c: (f.zero_map[c], g.zero_map[c]) for c in f.dom.cells}
    m = synthesize_morphism(f.dom, prod, zero, name=name)
    assert m is not None
    return m


# --- pullbacks --------------------------------------------------------------

@dataclass
class PullbackBundle:
    """A pullback D of f: B -> A along g: C -> A, at either level."""
    obj: EffObject
    to_g_dom: EffMorphism  # projection D -> C (along which f was pulled back)
    to_f_dom: EffMorphism  # projection D -> B


@dispatch_on(EffMorphism)
def pullback(f: EffMorphism, g: EffMorphism,
             name: str = "") -> PullbackBundle:
    """Pullback of the fibration f: B -> A along g: C -> A.

    Cells are pairs (c, b) with g(c) = f(b); 1-cells are pairs of 1-cells
    with equal image in the base.
    """
    B, A, C = f.dom, f.cod, g.dom
    cells = [(c, b) for c in C.cells for b in B.cells
             if g.zero_map[c] == f.zero_map[b]]
    realizer = {(c, b): tuple_encode(C.realizer[c], B.realizer[b])
                for (c, b) in cells}
    hom = {}
    for (c, b), (c2, b2) in itertools.product(cells, repeat=2):
        hom[((c, b), (c2, b2))] = frozenset(
            tuple_encode(pi, rho)
            for pi in C.hom_of(c, c2) for rho in B.hom_of(b, b2)
            if g.one_map[(c, c2)][pi] == f.one_map[(b, b2)][rho])
    obj = make_object(cells, realizer, hom,
                      name=name or f"{C.name}x_{A.name}{B.name}")
    p1 = synthesize_morphism(obj, C, {(c, b): c for (c, b) in cells})
    p2 = synthesize_morphism(obj, B, {(c, b): b for (c, b) in cells})
    assert p1 is not None and p2 is not None
    return PullbackBundle(obj, p1, p2)


def mediate(pb: PullbackBundle, h: EffMorphism, k: EffMorphism,
            name: str = "") -> EffMorphism | None:
    """The unique cell-level map X -> D with projections h and k, at either
    level; None when it is not tracked."""
    zero = {x: (h.zero_map[x], k.zero_map[x]) for x in h.dom.cells}
    return synthesize_morphism(h.dom, pb.obj, zero, name=name)


# --- path objects -----------------------------------------------------------

@dataclass
class PathObjectBundle:
    """A path object at either level (an eff1.Fibration1Witness at 1)."""
    obj: EffObject          # PA
    r: EffMorphism          # A -> PA
    st: EffMorphism         # PA -> A x A (or B x_A B in the fibrewise case)
    witness: FibrationWitness  # for st


def _reflexivity_cell(obj: EffObject, a):
    return (a, a, _u(obj, a))


def fib_path_cells(f) -> list:
    """The cells (b, b', rho) of the fibrewise path object of f, at either
    level: rho: b -> b' with f(b) = f(b').  More cells than the depth limit
    raise LimitReached, before anything is built from them."""
    B = f.dom
    cells = [(b, b2, rho) for b in B.cells for b2 in B.cells
             if f.zero_map[b] == f.zero_map[b2]
             for rho in sorted(B.hom_of(b, b2))]
    if len(cells) > depth_now():
        raise LimitReached(f"path object has {len(cells)} cells")
    return cells


def path_object(A: EffObject) -> PathObjectBundle:
    """The fibrewise path object of A -> 1."""
    return fib_path_object(terminal_map(A))


@dispatch_on(EffMorphism)
def fib_path_object(f: EffMorphism) -> PathObjectBundle:
    """The fibrewise path object of a fibration f: B -> A.

    Cells are triples (b, b', rho) with f(b) = f(b'); 1-cells are pairs with
    equal image in the base, matching the hom-sets of B x_A B.
    """
    B = f.dom
    cells = fib_path_cells(f)
    realizer = {(b, b2, rho): tuple_encode(B.realizer[b], B.realizer[b2], rho)
                for (b, b2, rho) in cells}
    hom = {}
    for x, y in itertools.product(cells, repeat=2):
        (b, b2, _), (c, c2, _) = x, y
        hom[(x, y)] = frozenset(
            tuple_encode(m, n)
            for m in B.hom_of(b, c) for n in B.hom_of(b2, c2)
            if f.one_map[(b, c)][m] == f.one_map[(b2, c2)][n])
    obj = make_object(cells, realizer, hom, name=f"P_{f.cod.name}({B.name})")
    base = pullback(f, f)
    r = synthesize_morphism(
        B, obj, {b: _reflexivity_cell(B, b) for b in B.cells},
        name=f"r_{B.name}")
    st = synthesize_morphism(
        obj, base.obj,
        {(b, b2, rho): (b, b2) for (b, b2, rho) in cells},
        name=f"st_{B.name}/{f.cod.name}")
    assert r is not None and st is not None
    return PathObjectBundle(obj, r, st, synthesize_fibration_witness(st))


# --- homotopy ---------------------------------------------------------------

@dataclass
class Homotopy:
    h1: int  # beta b |-> 1-cell f(b) -> g(b)


def _homotopy_stages(f, g, h1=None):
    """A homotopy's connecting 1-cells at either level: beta b goes to a
    1-cell f(b) -> g(b), forced to h1[beta b] when h1 is given."""
    A, R = f.cod, f.dom.realizer

    def stages(_val):
        cells = f.dom.cells
        targets = [A.hom_of(f.zero_map[b], g.zero_map[b]) for b in cells]
        if h1 is not None:
            targets = [forced(h1.get(R[b]), h)
                       for b, h in zip(cells, targets)]
        yield [("h1", tuple(map(R.__getitem__, cells)), targets,
                "homotopy 1-cell")] if cells else []
    return stages


@dispatch_on(EffMorphism)
def check_homotopy(f: EffMorphism, g: EffMorphism, H: Homotopy,
                   fuel: int | None = None) -> Verdict:
    with fuel_limit(fuel):
        return verify(_homotopy_stages(f, g), vars(H))


def require_parallel(f, g):
    """Raise MapsDoNotFit unless f and g have the same ends."""
    if (f.dom, f.cod) != (g.dom, g.cod):
        raise MapsDoNotFit(f"{f.name} and {g.name} are not parallel")


def _choices(stages, slot: str, cap: int | None = None):
    """Each choice {t: value} of one acceptable value of ``slot`` per input
    t of the first stage, in product order over ascending inputs and
    values.  Raises SynthesisFailed at once if some input has none; the
    choices are counted by within_budget."""
    options = sorted((t, sorted(acc))
                     for t, acc in groups(stages).get(slot, {}).items())
    inputs = [t for t, _acc in options]
    return (dict(zip(inputs, combo)) for combo in within_budget(
        itertools.product(*(acc for _t, acc in options)), cap))


@dispatch_on(EffMorphism)
def homotopy_from_h1(f: EffMorphism, g: EffMorphism,
                     h1_values: dict) -> Homotopy | None:
    """Extend per-realizer connecting 1-cells to a homotopy f ~ g; None if
    they do not extend.  At level 0 the 1-cells are the whole homotopy."""
    try:
        T = settle(_homotopy_stages(f, g, h1_values), ("h1",))
    except SynthesisFailed:
        return None
    return Homotopy(**tabulate_all(T))


def homotopic_decide(f, g) -> Decision:
    """Decide existence of a coded homotopy f ~ g, at either level.

    A homotopy exists iff for every visible realizer the connecting
    hom-sets have a common member and some choice of one per realizer
    extends (at level 1, to square fillers); the choices are counted
    against the budget.
    """
    require_parallel(f, g)
    return _homotopic(f, g)


def _homotopic(f, g) -> Decision:
    try:
        choices = _choices(_homotopy_stages(f, g), "h1")
    except SynthesisFailed as e:
        return Decision(NO, reason=f"empty intersection at realizer {e.t}")
    for choice in choices:
        H = homotopy_from_h1(f, g, choice)
        if H is not None:
            return Decision(YES, witness=H)
    return Decision(NO, reason="no level-1 choice admits square fillers")


@dispatch_on(EffMorphism)
def fibrewise_homotopic_decide(f: EffMorphism, g: EffMorphism,
                               p: EffMorphism) -> Decision:
    """Decide f ~_I g over the fibration p: X -> I (requires pf = pg).

    A fibrewise path lives in the triples with equal p-image, so once the
    0-cell maps agree after p the criterion coincides with the plain one.
    """
    for b in f.dom.cells:
        if p.zero_map[f.zero_map[b]] != p.zero_map[g.zero_map[b]]:
            return Decision(NO, reason=f"pf and pg differ at {b}")
    return homotopic_decide(f, g)


# --- equivalences -----------------------------------------------------------

@dataclass
class EquivalenceWitness:
    """A homotopy inverse at either level (eff1.Homotopy1s at 1)."""
    inverse: EffMorphism
    eta: Homotopy  # 1 ~ g f  on the domain
    eps: Homotopy  # f g ~ 1  on the codomain


def _zero_map_candidates(src: EffObject, dst: EffObject, cell_filter=None):
    """Backtracking enumeration of cell maps src -> dst, pruned so that
    cells sharing a realizer are sent to cells sharing a realizer; the maps
    are counted by within_budget."""
    cells = list(src.cells)

    def extend(i, assignment, chosen_realizer):
        if i == len(cells):
            yield dict(assignment)
            return
        a = cells[i]
        n = src.realizer[a]
        for b in dst.cells:
            if cell_filter is not None and not cell_filter(a, b):
                continue
            if n in chosen_realizer and chosen_realizer[n] != dst.realizer[b]:
                continue
            added = n not in chosen_realizer
            if added:
                chosen_realizer[n] = dst.realizer[b]
            assignment[a] = b
            yield from extend(i + 1, assignment, chosen_realizer)
            del assignment[a]
            if added:
                del chosen_realizer[n]

    return within_budget(extend(0, {}, {}))


@dispatch_on(EffObject)
def morphism_candidates(dom: EffObject, cod: EffObject, zero_map: dict,
                        name: str = ""):
    """The tracked morphisms over a cell map that the inverse search tries:
    at level 0 the one synthesize_morphism gives, if there is one."""
    m = synthesize_morphism(dom, cod, zero_map, name=name)
    if m is not None:
        yield m


def is_equivalence_decide(f) -> Decision:
    """Search for a homotopy inverse at either level.

    A candidate cell map sends each a to a cell b with hom(f b, a)
    inhabited (necessary for eps) and with every b0 over a connected to b
    (necessary for eta), consistently on realizer collisions: a cell map
    failing them could only meet an empty homotopy intersection.  Each
    tracked morphism over a candidate is tried, and both homotopies are
    decided exactly.  Running out of a limit, in the search or in one it
    makes, is UNKNOWN.
    """
    B, A = f.dom, f.cod
    fibre = defaultdict(list)
    for b0 in B.cells:
        fibre[f.zero_map[b0]].append(b0)

    def flt(a, b):
        return bool(A.hom_of(f.zero_map[b], a)) and all(
            B.hom_of(b0, b) for b0 in fibre[a])

    tried = 0
    try:
        idA, idB = identity(A), identity(B)
        for zero in _zero_map_candidates(A, B, flt):
            tried += 1
            for g in morphism_candidates(A, B, zero, name=f"{f.name}^-1"):
                eps = homotopic_decide(compose(f, g), idA)
                if eps.status != YES:
                    continue
                eta = homotopic_decide(idB, compose(g, f))
                if eta.status != YES:
                    continue
                return Decision(YES, witness=EquivalenceWitness(
                    g, eta.witness, eps.witness))
    except LimitReached as e:
        return Decision(UNKNOWN, reason=str(e))
    return Decision(NO, reason=f"no homotopy inverse among {tried} cell maps")


class NotTrivial(Exception):
    pass


def is_trivial_fibration(f: EffMorphism) -> Decision:
    """A trivial fibration is a fibration that is an equivalence, at either
    level; construct_section (eff1.trivial1_section one level up) turns the
    inverse into a strict section.  Running out of a limit is UNKNOWN."""
    no = not_a_fibration(f)
    if no is not None:
        return no
    return is_equivalence_decide(f)


def construct_section(f: EffMorphism, w: FibrationWitness, g: EffMorphism,
                      H: Homotopy) -> EffMorphism:
    """Section of a trivial fibration f from g: A -> B and H: fg ~ 1.

    For each a, lift the path H_a: fga -> a through condition 1 starting at
    ga; the endpoint is s(a) and lies strictly over a.
    """
    A = f.cod
    zero = {}
    for a in A.cells:
        ha = apply(H.h1, A.realizer[a])
        try:
            zero[a], _rho = lift_endpoint(f, w, g.zero_map[a], a, ha)
        except TransportFailed:
            raise NotTrivial(
                f"lift of the homotopy at {a} names no cell") from None
    s = synthesize_morphism(A, f.dom, zero, name=f"sect_{f.name}")
    if s is None:
        raise NotTrivial("section cell map admits no trackings")
    return s


# --- sums -------------------------------------------------------------------

def sum_object(A: EffObject, B: EffObject, name: str = ""):
    """Returns (A + B, inl, inr): tagged realizers, empty cross hom-sets."""
    cells = [("L", a) for a in A.cells] + [("R", b) for b in B.cells]
    realizer = {}
    for tag, x in cells:
        src = A if tag == "L" else B
        realizer[(tag, x)] = tuple_encode(0 if tag == "L" else 1,
                                          src.realizer[x])
    hom = {}
    for (t1, x), (t2, y) in itertools.product(cells, repeat=2):
        if t1 != t2:
            hom[((t1, x), (t2, y))] = frozenset()
        else:
            src = A if t1 == "L" else B
            hom[((t1, x), (t2, y))] = frozenset(src.hom_of(x, y))
    obj = make_object(cells, realizer, hom,
                      name=name or f"{A.name}+{B.name}")
    inl = synthesize_morphism(A, obj, {a: ("L", a) for a in A.cells})
    inr = synthesize_morphism(B, obj, {b: ("R", b) for b in B.cells})
    assert inl is not None and inr is not None
    return obj, inl, inr


def discrete_n(n: int, name: str = "") -> EffObject:
    """The discrete object with n points: realizer i, diagonal hom {0}."""
    cells = [str(i) for i in range(n)]
    hom = {(a, b): ({0} if a == b else frozenset())
           for a in cells for b in cells}
    return make_object(cells, {c: int(c) for c in cells}, hom,
                       name=name or str(n))


# --- groupoid structure up to homotopy --------------------------------------

@dataclass
class GroupoidStructure:
    bundle: PathObjectBundle
    pairs: PullbackBundle        # PA x_A PA  (cells (c, b): t(c) = s(b)?)
    triples: EffObject
    mu: EffMorphism
    sigma: EffMorphism
    laws: list


def groupoid_structure(A: EffObject) -> GroupoidStructure:
    """mu (path composition via comp_code), sigma (reversal via inv_code),
    and the five groupoid laws decided as fibrewise homotopies over A x A."""
    bundle = path_object(A)
    PA, st = bundle.obj, bundle.st

    # pairs (x, y) of paths with s(x) = t(y); mu(x, y) = x o y
    s_map = {x: x[0] for x in PA.cells}
    t_map = {x: x[1] for x in PA.cells}
    s_m = synthesize_morphism(PA, A, s_map, name="s")
    t_m = synthesize_morphism(PA, A, t_map, name="t")
    assert s_m is not None and t_m is not None
    pairs = pullback(s_m, t_m, name=f"P{A.name}x_{A.name}P{A.name}")

    def comp_cell(x, y):
        # y: u -> v then x: v -> w
        (v, w_, rx), (u, v2, ry) = x, y
        assert v == v2
        return (u, w_, _comp(A, u, v, w_, ry, rx))

    # a pullback cell (c, b) has t(c) = s(b): first c, then b
    mu = synthesize_morphism(pairs.obj, PA,
                             {(c, b): comp_cell(b, c)
                              for (c, b) in pairs.obj.cells}, name="mu")

    def inv_cell(x):
        a, a2, rho = x
        return (a2, a, _inv(A, a, a2, rho))

    sigma = synthesize_morphism(PA, PA,
                                {x: inv_cell(x) for x in PA.cells},
                                name="sigma")
    assert mu is not None and sigma is not None

    # triples (x, y, z) forming a chain: x then y then z
    tcells = [(x, y, z) for (x, y) in pairs.obj.cells for z in PA.cells
              if z[0] == y[1]]
    trealizer = {(x, y, z): tuple_encode(PA.realizer[x], PA.realizer[y],
                                         PA.realizer[z])
                 for (x, y, z) in tcells}
    thom = {}
    for c1, c2 in itertools.product(tcells, repeat=2):
        (x, y, z), (x2, y2, z2) = c1, c2
        thom[(c1, c2)] = frozenset(
            tuple_encode(cx, cy, cz)
            for cx in PA.hom_of(x, x2) for cy in PA.hom_of(y, y2)
            for cz in PA.hom_of(z, z2))
    triples = make_object(tcells, trealizer, thom, name=f"P3{A.name}")

    def law(dom_obj, lhs_zero, rhs_zero):
        lhs = synthesize_morphism(dom_obj, PA, lhs_zero)
        rhs = synthesize_morphism(dom_obj, PA, rhs_zero)
        assert lhs is not None and rhs is not None
        return fibrewise_homotopic_decide(lhs, rhs, st)

    def refl(a):
        return _reflexivity_cell(A, a)

    laws = []
    # (1) associativity on triples
    laws.append(law(
        triples,
        {(x, y, z): comp_cell(comp_cell(z, y), x)
         for (x, y, z) in triples.cells},
        {(x, y, z): comp_cell(z, comp_cell(y, x))
         for (x, y, z) in triples.cells}))
    # (2) mu(1, rs) ~ 1
    laws.append(law(PA, {x: comp_cell(x, refl(x[0])) for x in PA.cells},
                    {x: x for x in PA.cells}))
    # (3) mu(rt, 1) ~ 1
    laws.append(law(PA, {x: comp_cell(refl(x[1]), x) for x in PA.cells},
                    {x: x for x in PA.cells}))
    # (4) mu(1, sigma) ~ rt
    laws.append(law(PA, {x: comp_cell(x, inv_cell(x)) for x in PA.cells},
                    {x: refl(x[1]) for x in PA.cells}))
    # (5) mu(sigma, 1) ~ rs
    laws.append(law(PA, {x: comp_cell(inv_cell(x), x) for x in PA.cells},
                    {x: refl(x[0]) for x in PA.cells}))
    return GroupoidStructure(bundle, pairs, triples, mu, sigma, laws)
