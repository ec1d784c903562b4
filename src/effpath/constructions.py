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
from functools import wraps

from .pca import (
    FST_C, PAIR, SND_C, Table, Var, app, apply, cantor_unpair, curry_left,
    lam, compile_term, tuple_encode,
)
from .core import (
    Decision, EffMorphism, EffObject, MapsDoNotFit, NO, UNKNOWN, YES,
    _comp, _u, check_morphism, compose, dispatch_on, forced, identity,
    make_object, synthesize_morphism,
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


@dispatch_on(EffObject)
def hexp(A: EffObject, B: EffObject) -> HomExponential:
    """The exponential A^B: zero-cells are tracked morphisms B -> A,
    realized by the pair of their tracking codes; 1-cells between two
    members are coded homotopies."""

    def contains(m):
        if not isinstance(m, EffMorphism) or m.dom is not B or m.cod is not A:
            return NO
        return _verdict_status(check_morphism(m))

    def realizer_of(m):
        return tuple_encode(m.tracking0, m.tracking1)

    def hom_status(m1, m2, n):
        return _verdict_status(check_homotopy(m1, m2, Homotopy(n)))

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

def fibre_object(f: EffMorphism, x, name: str = "") -> EffObject:
    """The full subobject of the domain of f on the cells over x."""
    Y = f.dom
    cells = [y for y in Y.cells if f.zero_map[y] == x]
    hom = {(a, b): Y.hom_of(a, b) for a in cells for b in cells}
    return make_object(cells, {y: Y.realizer[y] for y in cells}, hom,
                       name=name or f"{Y.name}|{x}")


def _sections_over(f: EffMorphism, g: EffMorphism, x, fibre: EffObject):
    """All tracked sections of g over the fibre of f at x."""
    Z = g.dom
    out = []
    for zero in _zero_map_candidates(
            fibre, Z, cell_filter=lambda y, z: g.zero_map[z] == y):
        s = synthesize_morphism(fibre, Z, zero, name=f"sect@{x}")
        if s is not None:
            out.append(s)
    return out


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


def _pi_presentation(pres, kind) -> bool:
    """Is pres a (cell, morphism of kind) pair, as a member of Pi at
    either level is presented?  Anything else is no member."""
    return isinstance(pres, tuple) and len(pres) == 2 and \
        isinstance(pres[1], kind)


def _section_key(x, s: EffMorphism):
    return (x, tuple(sorted((y, s.zero_map[y]) for y in s.dom.cells)))


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
def pi_type(f: EffMorphism, w: FibrationWitness, g: EffMorphism) -> PiBundle:
    """Pi along f: Y -> X of g: Z -> Y.

    A zero-cell over x is a tracked section of g on the fibre of f at x,
    realized by <alpha x, i> with i the index of its trackings (tracking0,
    tracking1) among the distinct trackings of Pi's sections; a 1-cell to
    (x', s') is <pi, j> for pi: x -> x' and j the index of a homotopy
    s' Gamma_pi ~ Gamma_pi s among Pi's distinct homotopies.  Equal
    indices mean equal codes, so realizer twins are those of the packed
    codes, and no code is read as its chain.  The skeleton materializes
    one canonical tracking per section.  g must be a fibration; realizer
    twins in a fibre of g can leave Pi without structure codes
    (SynthesisFailed), so the `pi` command takes Pi of
    discrete_decide(g).witness.standard for such a g.
    """
    if g.cod != f.dom:
        raise MapsDoNotFit(f"{g.name} does not end where {f.name} starts")
    Y, X = f.dom, f.cod
    Z = g.dom
    # f . g is read for its cell maps only: it is synthesized from them, as
    # compose1 builds it, and no input's code is read as its chain
    gz = g.zero_map
    fg = synthesize_morphism(
        Z, X, {z: f.zero_map[gz[z]] for z in Z.cells}, f"{f.name}.{g.name}",
        lambda t, h, z, z2, p: forced(
            f.one_map[gz[z], gz[z2]][g.one_map[z, z2][p]], h))
    assert fg is not None  # a composite of tracked maps is tracked
    wfg = synthesize_fibration_witness(fg)
    if wfg is None:
        raise MapsDoNotFit(f"{fg.name} is not a fibration")
    fibres = {x: fibre_object(f, x) for x in X.cells}
    secs = {x: _sections_over(f, g, x, fibres[x]) for x in X.cells}

    trackings, homotopies = _Enumeration(), _Enumeration()
    cells, sections, realizer = [], {}, {}
    for x in X.cells:
        for s in secs[x]:
            key = _section_key(x, s)
            cells.append(key)
            sections[key] = s
            realizer[key] = tuple_encode(
                X.realizer[x], trackings(s.tracking0, s.tracking1))

    def transported(x1, s1, x2, s2, pi):
        """The maps s2 Gamma^Y_pi and Gamma^Z_pi s1 on the fibre at x1, or
        None if one is not tracked."""
        ys = fibres[x1].cells
        lhs = synthesize_morphism(fibres[x1], Z, {
            y: s2.zero_map[lift_endpoint(f, w, y, x2, pi)[0]]
            for y in ys})
        rhs = synthesize_morphism(fibres[x1], Z, {
            y: lift_endpoint(fg, wfg, s1.zero_map[y], x2, pi)[0]
            for y in ys})
        return None if lhs is None or rhs is None else (lhs, rhs)

    def connecting(key1, key2, pi):
        """Canonical coded homotopy s2 Gamma^Y_pi ~ Gamma^Z_pi s1, if any."""
        ends = transported(key1[0], sections[key1], key2[0], sections[key2],
                           pi)
        if ends is None:
            return None
        d = homotopic_decide(*ends)
        return d.witness.h1 if d.status == YES else None

    hom = {}
    for k1, k2 in itertools.product(cells, repeat=2):
        members = set()
        for pi in X.hom_of(k1[0], k2[0]):
            n = connecting(k1, k2, pi)
            if n is not None:
                members.add(tuple_encode(pi, homotopies(n)))
        hom[(k1, k2)] = frozenset(members)
    obj = make_object(cells, realizer, hom,
                      name=f"Pi_{f.name}({g.name})")
    # a 1-cell <pi, j> lies over its first component pi
    proj = synthesize_morphism(
        obj, X, {k: k[0] for k in cells}, name=f"{obj.name}->{X.name}",
        one=lambda t, h, k1, k2, e: forced(cantor_unpair(e)[0], h))
    assert proj is not None

    ev_dom = pullback(f, proj)
    ev = synthesize_morphism(
        ev_dom.obj, Z,
        {(k, y): sections[k].zero_map[y] for (k, y) in ev_dom.obj.cells},
        name=f"ev_{obj.name}")
    assert ev is not None

    def contains(pres):
        if not _pi_presentation(pres, EffMorphism) or pres[0] not in X.cells:
            return NO
        x, s = pres
        if s.cod is not Z or set(s.zero_map) != set(fibres[x].cells) or any(
                g.zero_map[s.zero_map[y]] != y for y in s.zero_map):
            return NO
        return _verdict_status(check_morphism(s))

    def realizer_of(pres):
        """The realizer of pres's skeleton cell, whatever pres's own
        trackings; None for a section the skeleton lacks, which is no
        member."""
        if _pi_presentation(pres, EffMorphism):
            return realizer.get(_section_key(*pres))

    def hom_status(p1, p2, n):
        pi, j = cantor_unpair(n)
        if pi not in X.hom_of(p1[0], p2[0]) or j >= len(homotopies.runs):
            return NO
        ends = transported(*p1, *p2, pi)
        if ends is None:
            return NO
        [code] = homotopies.runs[j]
        return _verdict_status(check_homotopy(*ends, Homotopy(code)))

    virt = VirtualObject(obj.name, contains, realizer_of, hom_status)
    return PiBundle(f, g, obj, proj, sections, fibres, virt, ev_dom, ev)


def _on_second(generic):
    """generic, dispatching on its second argument instead of its first."""
    @wraps(generic)
    def call(first, second, *rest, **kwargs):
        return generic.dispatch(type(second))(first, second, *rest, **kwargs)
    return call


@_on_second  # a PiBundle, the first argument, serves either level
@dispatch_on(EffMorphism)
def pi_transpose(pi: PiBundle, h: EffMorphism, pbW: PullbackBundle,
                 m: EffMorphism, name: str = ""):
    """Transpose of m: W x_X Y -> Z over Y into M: W -> Pi_f(g).

    pbW must be pullback(pi.f, h); M(w) is the skeleton cell whose section
    is the fibrewise restriction of m at w.  None if untrackable.
    """
    W = h.dom
    zero = {}
    for w_ in W.cells:
        x = h.zero_map[w_]
        table = tuple(sorted(
            (y, m.zero_map[(w_, y)]) for y in pi.fibres[x].cells))
        key = (x, table)
        if key not in pi.sections:
            return None
        zero[w_] = key
    return synthesize_morphism(W, pi.obj, zero,
                               name=name or f"transpose_{m.name}")


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


def pi_functor_map(piB: PiBundle, piA: PiBundle, p: EffMorphism,
                   name: str = ""):
    """Pi_f applied to a map p: B -> A over Y (g_A p = g_B): postcompose
    each section with p.  None if untrackable."""
    zero = {}
    for key, s in piB.sections.items():
        x = key[0]
        table = tuple(sorted(
            (y, p.zero_map[s.zero_map[y]]) for y in s.dom.cells))
        tgt = (x, table)
        if tgt not in piA.sections:
            return None
        zero[key] = tgt
    return synthesize_morphism(piB.obj, piA.obj, zero,
                               name=name or f"Pi({p.name})")
