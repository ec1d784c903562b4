"""Transport along paths, exponentials and Pi-types up to homotopy, and
homotopy-pullback checking.

Exponentials and Pi-types have countable carriers (a zero-cell includes an
arbitrary tracking code), so they are represented virtually: a membership
predicate over presented candidates plus a canonical finite skeleton with one
tabulated tracking per cell map.  Universal properties are verified against
presented competitors only, never over the full code space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .pca import (
    FST_C, PAIR, SND_C, Table, Var, app, apply, cantor_unpair, curry_left,
    lam, compile_term, tuple_decode, tuple_encode,
)
from .core import (
    Decision, EffMorphism, EffObject, MapsDoNotFit, NO, UNKNOWN, YES,
    _borrowed, _comp, _u, check_morphism, compose, dispatch_on, forced,
    identity, make_object, synthesize_morphism,
)
from .path import (
    FibrationWitness, Homotopy, PathObjectBundle, PullbackBundle,
    _zero_map_candidates, check_homotopy, fib_path_object,
    fibrewise_homotopic_decide, homotopic_decide, is_equivalence_decide,
    lift_endpoint, mediate, path_object, pullback,
    synthesize_fibration_witness,
)


# --- transport --------------------------------------------------------------

@dataclass
class Transport:
    fib: EffMorphism               # f: Y -> X, a fibration
    witness: FibrationWitness
    bundle: PathObjectBundle       # PX
    domain: PullbackBundle         # Y x_X PX, matched along s
    gamma: EffMorphism             # domain.obj -> Y
    refl_law: Decision             # Gamma(1, rf) ~_X 1

    def cell(self, y, path_cell):
        """Gamma(y, p) for any p = (x, x', pi) with f(y) = x."""
        _, x2, pi = path_cell
        return lift_endpoint(self.fib, self.witness, y, x2, pi)[0]


def transport(f: EffMorphism, w: FibrationWitness) -> Transport:
    """The transport structure of a verified fibration f: Y -> X.

    Gamma(y, p) is the endpoint of the lift of p through the witness codes;
    it lies strictly over the target of p, and transporting along
    reflexivity paths is fibrewise homotopic to the identity.
    """
    Y, X = f.dom, f.cod
    bundle = path_object(X)
    s_m = synthesize_morphism(bundle.obj, X,
                              {p: p[0] for p in bundle.obj.cells}, name="s")
    assert s_m is not None
    dom = pullback(f, s_m, name=f"{Y.name}x_{X.name}P{X.name}")
    zero = {(p, y): lift_endpoint(f, w, y, p[1], p[2])[0]
            for (p, y) in dom.obj.cells}
    gamma = synthesize_morphism(dom.obj, Y, zero, name=f"transport_{f.name}")
    assert gamma is not None
    for (p, y) in dom.obj.cells:
        assert f.zero_map[zero[(p, y)]] == p[1]
    # Gamma after (reflexivity path, y) against the identity of Y
    refl = synthesize_morphism(
        Y, dom.obj,
        {y: (bundle.r.zero_map[f.zero_map[y]], y) for y in Y.cells},
        name="refl")
    assert refl is not None
    law = fibrewise_homotopic_decide(compose(gamma, refl), identity(Y), f)
    return Transport(f, w, bundle, dom, gamma, law)


def transport_properties_check(f: EffMorphism,
                               w: FibrationWitness) -> list[Decision]:
    """The three transport laws, each as a fibrewise homotopy over the base.

    (1) endpoints of a fibrewise path transport the same way;
    (2) path-homotopic paths transport the same way;
    (3) transporting along a composite is transporting twice.
    """
    Y, X = f.dom, f.cod
    tr = transport(f, w)
    PX = tr.bundle.obj
    s_m = synthesize_morphism(PX, X, {p: p[0] for p in PX.cells}, name="s")
    t_m = synthesize_morphism(PX, X, {p: p[1] for p in PX.cells}, name="t")
    assert s_m is not None and t_m is not None

    def law(dom_obj, lhs_zero, rhs_zero):
        lhs = synthesize_morphism(dom_obj, Y, lhs_zero)
        rhs = synthesize_morphism(dom_obj, Y, rhs_zero)
        assert lhs is not None and rhs is not None
        return fibrewise_homotopic_decide(lhs, rhs, f)

    out = []

    # (1) over P_X(Y) x_X PX: paths q: y -> y' in a fibre, paired with a
    # base path out of that fibre's point
    py = fib_path_object(f)
    u = synthesize_morphism(py.obj, X,
                            {q: f.zero_map[q[0]] for q in py.obj.cells})
    assert u is not None
    d1 = pullback(s_m, u)
    out.append(law(
        d1.obj,
        {(q, p): tr.cell(q[0], p) for (q, p) in d1.obj.cells},
        {(q, p): tr.cell(q[1], p) for (q, p) in d1.obj.cells}))

    # (2) over Y x_X P_{XxX}(PX): a point paired with a path between
    # parallel base paths
    assert tr.bundle.witness is not None
    ppx = fib_path_object(tr.bundle.st)
    v = synthesize_morphism(ppx.obj, X,
                            {c: c[0][0] for c in ppx.obj.cells})
    assert v is not None
    d2 = pullback(f, v)
    out.append(law(
        d2.obj,
        {(c, y): tr.cell(y, c[0]) for (c, y) in d2.obj.cells},
        {(c, y): tr.cell(y, c[1]) for (c, y) in d2.obj.cells}))

    # (3) over Y x_X (composable pairs of base paths)
    prs = pullback(s_m, t_m)
    w_map = synthesize_morphism(prs.obj, X,
                                {(c, b): c[0] for (c, b) in prs.obj.cells})
    assert w_map is not None
    d3 = pullback(f, w_map)

    def comp_cell(b, c):
        # c: x0 -> x1 then b: x1 -> x2, composed through X's code
        (x1, x2, rb), (x0, _, rc) = b, c
        return (x0, x2, _comp(X, x0, x1, x2, rc, rb))

    out.append(law(
        d3.obj,
        {((c, b), y): tr.cell(y, comp_cell(b, c))
         for ((c, b), y) in d3.obj.cells},
        {((c, b), y): tr.cell(tr.cell(y, c), b)
         for ((c, b), y) in d3.obj.cells}))
    return out


def induced_fiber_map(p: EffMorphism, w: FibrationWitness,
                      f: EffMorphism, g: EffMorphism, H: Homotopy):
    """The map f*p -> g*p induced by a homotopy H: f ~ g (f, g: Z -> X).

    Cell (z, y) goes to (z, Gamma(y, H_z)); returns the morphism together
    with its equivalence verdict.
    """
    Z = f.dom
    fp = pullback(p, f)
    gp = pullback(p, g)
    zero = {}
    for (z, y) in fp.obj.cells:
        hz = apply(H.h1, Z.realizer[z])
        zero[(z, y)] = (z, lift_endpoint(p, w, y, g.zero_map[z], hz)[0])
    m = synthesize_morphism(fp.obj, gp.obj, zero,
                            name=f"fibmap_{f.name}~{g.name}")
    assert m is not None
    return m, is_equivalence_decide(m)


# --- the J-exponential ------------------------------------------------------

@dataclass
class JExponential:
    """A^J with its diagonal and evaluations, at either level."""
    obj: EffObject        # A^J
    diag: EffMorphism     # A -> A^J
    ev0: EffMorphism      # A^J -> A, first component
    ev1: EffMorphism      # A^J -> A, second component


@dispatch_on(EffObject)
def hexp_J(A: EffObject) -> JExponential:
    """The exponential by the walking pair of identified points.

    Cells are pairs (a0, a1) with equal realizer, realized by it; a 1-cell
    to (b0, b1) is a number in both hom(a0, b0) and hom(a1, b1).
    """
    cells = [(a0, a1) for a0 in A.cells for a1 in A.cells
             if A.realizer[a0] == A.realizer[a1]]
    realizer = {(a0, a1): A.realizer[a0] for (a0, a1) in cells}
    hom = {(x, y): frozenset(A.hom_of(x[0], y[0])) &
           frozenset(A.hom_of(x[1], y[1]))
           for x in cells for y in cells}
    obj = make_object(cells, realizer, hom, name=f"{A.name}^J")
    diag = synthesize_morphism(A, obj, {a: (a, a) for a in A.cells},
                               name=f"diag_{A.name}")
    ev0 = synthesize_morphism(obj, A, {x: x[0] for x in cells}, name="ev0")
    ev1 = synthesize_morphism(obj, A, {x: x[1] for x in cells}, name="ev1")
    assert diag is not None and ev0 is not None and ev1 is not None
    return JExponential(obj, diag, ev0, ev1)


def hexp_J_morphism(f: EffMorphism, expB: JExponential | None = None,
                    expA: JExponential | None = None) -> EffMorphism:
    """f^J: B^J -> A^J at either level, pairwise application; the squares
    with the diagonals and both evaluations commute strictly."""
    expB = expB or hexp_J(f.dom)
    expA = expA or hexp_J(f.cod)
    m = synthesize_morphism(
        expB.obj, expA.obj,
        {(b0, b1): (f.zero_map[b0], f.zero_map[b1])
         for (b0, b1) in expB.obj.cells},
        name=f"{f.name}^J")
    assert m is not None
    return m


# --- homotopy pullbacks -----------------------------------------------------

def homotopy_pullback_check(f: EffMorphism, g: EffMorphism,
                            h: EffMorphism, k: EffMorphism) -> Decision:
    """Is the strictly commuting square (h: D -> C, k: D -> B over
    f: B -> A, g: C -> A) a homotopy pullback, at either level?  Build the
    strict pullback and decide whether the induced map D -> C x_A B is an
    equivalence; NO when that map is not tracked."""
    for d in h.dom.cells:
        if g.zero_map[h.zero_map[d]] != f.zero_map[k.zero_map[d]]:
            raise MapsDoNotFit(f"square does not commute at {d}")
    med = mediate(pullback(f, g), h, k)
    if med is None:
        return Decision(NO, reason="no tracked mediating morphism")
    return is_equivalence_decide(med)


def freyd_square_check(f: EffMorphism) -> Decision:
    """At either level, the diagonal square of a fibration f: B -> A into its
    J-exponentials; a homotopy pullback exactly when f is discrete."""
    expB, expA = hexp_J(f.dom), hexp_J(f.cod)
    fj = hexp_J_morphism(f, expB, expA)
    return homotopy_pullback_check(fj, expA.diag, f, expB.diag)


# --- virtual objects --------------------------------------------------------

@dataclass
class VirtualObject:
    """A countable carrier presented by predicates instead of enumeration."""
    name: str
    contains: object       # presentation -> yes | no | unknown
    realizer_of: object    # presentation -> int
    hom_status: object     # (x, y, n) -> yes | no | unknown


def _verdict_status(v) -> str:
    return {"valid": YES, "invalid": NO, "unknown": UNKNOWN}[v.status]


# --- exponentials up to homotopy --------------------------------------------

# <<t0, rest>, beta b>  |->  t0 applied to beta b: the realizer of the value,
# where rest is t1 at level 0 and <t1, t2> at level 1
EV_CODE = compile_term(lam("x", app(app(FST_C, app(FST_C, Var("x"))),
                                    app(SND_C, Var("x")))))


@dataclass
class HomExponential:
    """The exponential A^B at either level."""
    dom: EffObject   # B (the exponent)
    cod: EffObject   # A
    virtual: VirtualObject

    def eval_realizer(self, m: EffMorphism, b) -> int:
        t = tuple_encode(self.virtual.realizer_of(m),
                         self.dom.realizer[b])
        return apply(EV_CODE, t)


def hexp(A: EffObject, B: EffObject) -> HomExponential:
    """The exponential A^B at either level: zero-cells are tracked
    morphisms B -> A, realized by the tuple of their TRACKINGS (at level 1
    the functoriality terms are property, not structure); a 1-cell between
    two members is a homotopy coded by the tuple of its HOMOTOPY_CODES.
    Anything else presented is no member, with no realizer and no 1-cell
    to or from it."""

    def presented(m):
        return hasattr(m, "TRACKINGS") and getattr(m, "dom", None) is B \
            and getattr(m, "cod", None) is A

    def contains(m):
        return _verdict_status(check_morphism(m)) if presented(m) else NO

    def realizer_of(m):
        return tuple_encode(*(getattr(m, t) for t in m.TRACKINGS)) \
            if presented(m) else None

    def hom_status(m1, m2, n):
        if not (presented(m1) and presented(m2)):
            return NO
        codes = m1.HOMOTOPY_CODES
        return _verdict_status(check_homotopy(m1, m2, Homotopy(
            **dict(zip(codes, tuple_decode(n, len(codes)))))))

    virt = VirtualObject(f"{A.name}^{B.name}", contains, realizer_of,
                         hom_status)
    return HomExponential(B, A, virt)


def enumerate_members(exp: HomExponential) -> list[EffMorphism]:
    """All tracked cell maps B -> A at either level (canonical trackings)."""
    out = []
    for zero in _zero_map_candidates(exp.dom, exp.cod):
        m = synthesize_morphism(exp.dom, exp.cod, zero)
        if m is not None:
            out.append(m)
    return out


def curry(h: EffMorphism, C: EffObject, B: EffObject) -> dict:
    """Transpose of h: C x B -> A along the product built by product().

    Returns one member of A^B per cell of C, with trackings specialized
    from h's codes (s-m-n style): tracking0 fixes the left component of
    the input pair, tracking1 inserts the unit 1-cell of c.
    """
    A = h.cod
    out = {}
    x = Var("x")
    for c in C.cells:
        gc, uc = C.realizer[c], _u(C, c)
        zero = {b: h.zero_map[(c, b)] for b in B.cells}
        one = {}
        for b, b2 in itertools.product(B.cells, repeat=2):
            table = h.one_map[((c, b), (c, b2))]
            one[(b, b2)] = {rho: table[tuple_encode(uc, rho)]
                            for rho in B.hom_of(b, b2)}
        t1 = compile_term(lam("x", app(h.tracking1, app(
            PAIR,
            app(PAIR, gc, app(FST_C, x)),
            app(PAIR,
                app(PAIR, gc, app(FST_C, app(SND_C, x))),
                app(PAIR, uc, app(SND_C, app(SND_C, x))))))))
        out[c] = EffMorphism(B, A, zero, one,
                             curry_left(h.tracking0, gc), t1,
                             name=f"curry_{h.name}@{c}")
    return out


def curry_uniqueness_check(curried: dict, competitor: dict) -> Decision:
    """Bounded uniqueness: a presented competitor transpose is connected to
    the canonical one by homotopies at every point of the source."""
    for c, m in curried.items():
        d = homotopic_decide(m, competitor[c])
        if d.status != YES:
            return Decision(d.status, reason=f"at {c}: {d.reason}")
    return Decision(YES)


# --- Pi-types ---------------------------------------------------------------

def fibre_object(f: EffMorphism, x) -> EffObject:
    """The full subobject of the domain of f on the cells over x."""
    Y = f.dom
    cells = [y for y in Y.cells if f.zero_map[y] == x]
    return _borrowed(Y, cells, {y: Y.realizer[y] for y in cells},
                     {y: y for y in cells}, f"{Y.name}|{x}")


@dataclass
class PiBundle:
    """Pi along f of g, at either level."""
    f: EffMorphism        # Y -> X, the fibration Pi is taken along
    g: EffMorphism        # Z -> Y, the fibration being quantified
    obj: EffObject        # finite skeleton: cells (x, section table)
    proj: EffMorphism     # obj -> X
    sections: dict        # skeleton cell -> section of g on fibre(x)
    fibres: dict          # x -> fibre object of f at x
    virtual: VirtualObject
    ev_domain: PullbackBundle   # obj x_X Y
    ev: EffMorphism             # counit: (section, y) -> section(y)


def _section_key(x, cell_map: dict):
    """The skeleton cell of the section over x with cell map {y: z}, y in
    the domain of f; cells are ordered by repr, which any cells have."""
    return x, tuple(sorted(cell_map.items(), key=repr))


class _Enumeration:
    """Small codes for runs of codes: a run gets the position of its
    contents among the distinct runs seen so far, in the order they were
    seen.  A code's content is a Table's values, or the int itself for any
    other code; two Tables are equal exactly when their values are, so two
    runs of Tables get one index exactly when they are equal as codes, and
    no chain is built.  runs[i] is the first run seen with index i."""

    def __init__(self):
        self.index, self.runs = {}, []

    def __call__(self, *codes) -> int:
        key = tuple(frozenset(c.values.items()) if isinstance(c, Table)
                    else c for c in codes)
        i = self.index.setdefault(key, len(self.runs))
        if i == len(self.runs):
            self.runs.append(codes)
        return i


@dispatch_on(EffMorphism)
def _pi_fibre(f: EffMorphism, g: EffMorphism, x):
    """The fibre of f at x, the cell of f's domain under each of its
    cells, and the tracked sections of g over it: here the full subobject
    on the cells over x, with sections that match on cells."""
    fibre = fibre_object(f, x)
    sections = []
    for zero in _zero_map_candidates(
            fibre, g.dom, cell_filter=lambda y, z: g.zero_map[z] == y):
        s = synthesize_morphism(fibre, g.dom, zero, name=f"sect@{x}")
        if s is not None:
            sections.append(s)
    return fibre, {y: y for y in fibre.cells}, sections


@dispatch_on(EffMorphism)
def _pi_skeleton(f: EffMorphism, cells, realizer, hom, found, name: str):
    """Pi's skeleton object on cells, realizer and hom, and its
    projection to the base of f; ``found`` maps each 1-cell's (k1, k2, pi)
    to the two transported sections and the homotopy found between them.
    Here a 1-cell <pi, j> lies over its first component pi."""
    obj = make_object(cells, realizer, hom, name=name)
    proj = synthesize_morphism(
        obj, f.cod, {k: k[0] for k in cells}, name=f"{name}->{f.cod.name}",
        one=lambda t, h, k1, k2, e: forced(cantor_unpair(e)[0], h))
    assert proj is not None
    return obj, proj


def pi_type(f: EffMorphism, w: FibrationWitness, g: EffMorphism) -> PiBundle:
    """Pi along f: Y -> X of g: Z -> Y, at either level.

    A zero-cell over x is a tracked section of g on the fibre of f at x,
    realized by <alpha x, i> with i the index of its trackings among the
    distinct trackings of Pi's sections; a 1-cell to (x', s') is <pi, j>
    for pi: x -> x' and j the index of a homotopy s' Gamma_pi ~ Gamma_pi s
    among Pi's distinct homotopies; at level 1, a 2-cell over a base
    2-cell n is <n, k> with k the index of a modification's table.  Equal
    indices mean equal codes, so realizer twins are those of the packed
    codes, and no code is read as its chain.  The skeleton materializes
    one canonical tracking per section.  g must be a fibration; realizer
    twins in a fibre of g can leave Pi without structure codes
    (SynthesisFailed), so the `pi` command takes Pi of
    discrete_decide(g).witness.standard for such a g.
    """
    if g.cod != f.dom:
        raise MapsDoNotFit(f"{g.name} does not end where {f.name} starts")
    X, Z = f.cod, g.dom
    fg = compose(f, g)
    wfg = synthesize_fibration_witness(fg)
    if wfg is None:
        raise MapsDoNotFit(f"{fg.name} is not a fibration")

    trackings, homotopies = _Enumeration(), _Enumeration()
    fibres, under, cells, sections, realizer = {}, {}, [], {}, {}
    for x in X.cells:
        fibres[x], under[x], secs = _pi_fibre(f, g, x)
        for s in secs:
            key = _section_key(x, {y: s.zero_map[c]
                                   for c, y in under[x].items()})
            cells.append(key)
            sections[key] = s
            realizer[key] = tuple_encode(X.realizer[x], trackings(
                *(getattr(s, t) for t in s.TRACKINGS)))

    lifts = {}

    def lift(h, wh, y, x2, pi):
        """The endpoint of the lift of pi at y through h (f or f . g)."""
        key = h is f, y, x2, pi
        if key not in lifts:
            lifts[key] = lift_endpoint(h, wh, y, x2, pi)[0]
        return lifts[key]

    def transported(k1, k2, pi):
        """The maps s2 Gamma^Y_pi and Gamma^Z_pi s1 on the fibre at x1, or
        None if one is not tracked; each lift is computed once, so
        Gamma^Y_pi once per base 1-cell."""
        (x1, t1), (x2, t2) = k1, k2
        s1, s2 = dict(t1), dict(t2)
        lhs = synthesize_morphism(fibres[x1], Z, {
            c: s2[lift(f, w, y, x2, pi)] for c, y in under[x1].items()})
        rhs = synthesize_morphism(fibres[x1], Z, {
            c: lift(fg, wfg, s1[y], x2, pi) for c, y in under[x1].items()})
        return None if lhs is None or rhs is None else (lhs, rhs)

    hom, found, named = {}, {}, {}
    for k1, k2 in itertools.product(cells, repeat=2):
        members = set()
        for pi in X.hom_of(k1[0], k2[0]):
            pair = transported(k1, k2, pi)
            if pair is None:
                continue
            d = homotopic_decide(*pair)
            if d.status == YES:
                j = homotopies(*(getattr(d.witness, c)
                                 for c in f.HOMOTOPY_CODES))
                named.setdefault(j, d.witness)
                members.add(tuple_encode(pi, j))
                found[k1, k2, pi] = (*pair, d.witness)
        hom[k1, k2] = frozenset(members)
    obj, proj = _pi_skeleton(f, cells, realizer, hom, found,
                             f"Pi_{f.name}({g.name})")

    ev_dom = pullback(f, proj)
    ev = synthesize_morphism(
        ev_dom.obj, Z,
        {(k, y): dict(k[1])[y] for (k, y) in ev_dom.obj.cells},
        name=f"ev_{obj.name}")
    assert ev is not None

    def key(pres):
        """The skeleton cell pres would be, as a member of Pi is presented
        by a (base cell, morphism) pair at either level: None for anything
        else, and for a map on other cells than the fibre's."""
        if not (isinstance(pres, tuple) and len(pres) == 2 and isinstance(
                pres[1], type(g))) or pres[0] not in X.cells:
            return None
        x, s = pres
        if set(s.zero_map) != set(under[x]):
            return None
        return _section_key(x, {y: s.zero_map[c]
                                for c, y in under[x].items()})

    def contains(pres):
        k = key(pres)
        if k is None or pres[1].cod is not Z or any(
                g.zero_map[z] != y for y, z in k[1]):
            return NO
        return _verdict_status(check_morphism(pres[1]))

    def realizer_of(pres):
        """The realizer of pres's skeleton cell, whatever pres's own
        trackings; None for a section the skeleton lacks, which is no
        member."""
        return realizer.get(key(pres))

    def hom_status(p1, p2, n):
        k1, k2, (pi, j) = key(p1), key(p2), cantor_unpair(n)
        pair = k1 in sections and k2 in sections and j in named and \
            pi in X.hom_of(k1[0], k2[0]) and transported(k1, k2, pi)
        if not pair:
            return NO
        return _verdict_status(check_homotopy(*pair, named[j]))

    virt = VirtualObject(obj.name, contains, realizer_of, hom_status)
    return PiBundle(f, g, obj, proj, sections, fibres, virt, ev_dom, ev)


def pi_transpose(pi: PiBundle, h: EffMorphism, pbW: PullbackBundle,
                 m: EffMorphism):
    """Transpose of m: W x_X Y -> Z over Y into M: W -> Pi_f(g), at either
    level.

    pbW must be pullback(pi.f, h); M(w) is the skeleton cell whose section
    is the fibrewise restriction of m at w.  None if untrackable.
    """
    W = h.dom
    tables = {w_: {} for w_ in W.cells}
    for (w_, y) in pbW.obj.cells:
        tables[w_][y] = m.zero_map[(w_, y)]
    zero = {}
    for w_, table in tables.items():
        key = _section_key(h.zero_map[w_], table)
        if key not in pi.sections:
            return None
        zero[w_] = key
    return synthesize_morphism(W, pi.obj, zero, name=f"transpose_{m.name}")


def pi_transpose_round_trip(pi: PiBundle, h: EffMorphism,
                            pbW: PullbackBundle, m: EffMorphism,
                            M: EffMorphism) -> Decision:
    """ev (M x_X 1) ~_Y m, decided fibrewise over Y via g, at either
    level; NO when the comparison M x_X 1 is not tracked."""
    lift = synthesize_morphism(
        pbW.obj, pi.ev_domain.obj,
        {(w_, y): (M.zero_map[w_], y) for (w_, y) in pbW.obj.cells})
    if lift is None:
        return Decision(NO, reason="no tracked comparison over the base")
    return fibrewise_homotopic_decide(compose(pi.ev, lift), m, pi.g)


def pi_functor_map(piB: PiBundle, piA: PiBundle, p: EffMorphism):
    """Pi_f applied to a map p: B -> A over Y (g_A p = g_B), at either
    level: postcompose each section with p.  None if untrackable."""
    zero = {}
    for key in piB.sections:
        tgt = _section_key(key[0], {y: p.zero_map[z] for y, z in key[1]})
        if tgt not in piA.sections:
            return None
        zero[key] = tgt
    return synthesize_morphism(piB.obj, piA.obj, zero, name=f"Pi({p.name})")
