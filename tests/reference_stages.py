"""A frozen copy of the 2-cell obligation generators and of the checking
engine, used only as a test oracle.

`object1_stages` and `morphism1_stages` are `eff1._object1_stages` and
`eff1._morphism1_stages` as they were before the generators shared work
across obligations: every composite is read through a cache keyed by the
5-tuple of its input, and the composite preservation encodes the
composition inputs of dom and cod per obligation.  The tuple encoding is
the right fold of `cantor_pair`, spelled out here; the one-dimensional
stages and the per-object input tables are shared with `core` and `eff1`.

`verify` is `core.verify` as it was before it read tables by lookup: every
code, a Table too, is applied through `apply` once per input and its
outcome kept.
"""

import itertools

from effpath.core import (
    _adjacency, _read, _morphism_stages, _object_stages, _one_cell_inputs,
    _read_back, _u, any_image, invalid, unknown, valid,
)
from effpath.eff1 import _two_cell_inputs
from effpath.pca import Diverges, FuelExhausted, apply, cantor_pair, fuel_now


def tuple_encode(*parts):
    acc = parts[-1]
    for x in reversed(parts[:-1]):
        acc = cantor_pair(x, acc)
    return acc


def _comp(A, a, b, c, p, r):
    return _read(A.comp_code,
                 tuple_encode(A.realizer[a], A.realizer[b], A.realizer[c],
                              p, r))


def object1_stages(cells, realizer, hom, hom2, unit=None, inv=None,
                   comp=None):
    R = realizer
    structure = _object_stages(cells, realizer, hom, unit, inv, comp)
    adj = _adjacency(cells, hom)
    edges = [(a, *e) for a in cells for e in adj[a]]

    def stages(val):
        yield from structure(val)

        def u(a):
            return val("unit_code", R[a])

        composites = {}

        def cp(a, b, c, p, r):
            key = (R[a], R[b], R[c], p, r)
            if key not in composites:
                composites[key] = val("comp_code", tuple_encode(*key))
            return composites[key]

        def coherence():
            for a, b, hab, _ in edges:
                for p in hab:
                    t = tuple_encode(R[a], R[b], p)
                    pi = val("inv_code", t)
                    yield ("coh_lunit", t, hom2[a, b, cp(a, b, b, p, u(b)), p],
                           "left unit coherence")
                    yield ("coh_runit", t, hom2[a, b, cp(a, a, b, u(a), p), p],
                           "right unit coherence")
                    yield ("coh_linv", t,
                           hom2[a, a, cp(a, b, a, p, pi), u(a)],
                           "left inverse coherence")
                    yield ("coh_rinv", t,
                           hom2[b, b, cp(b, a, b, pi, p), u(b)],
                           "right inverse coherence")
                    yield "id2", t, hom2[a, b, p, p], "2-identity"
            for a, b, hab, _ in edges:
                for c, hbc, _ in adj[b]:
                    for d, hcd, _ in adj[c]:
                        for p, r in itertools.product(hab, hbc):
                            rp = cp(a, b, c, p, r)
                            for s in hcd:
                                yield ("coh_assoc",
                                       tuple_encode(R[a], R[b], R[c], R[d],
                                                    p, r, s),
                                       hom2[a, d, cp(a, c, d, rp, s),
                                            cp(a, b, d, p,
                                               cp(b, c, d, r, s))],
                                       "associativity coherence")
            for a, b, _, h1 in edges:
                for p, r, s in itertools.product(h1, repeat=3):
                    for n in hom2[a, b, p, r]:
                        for m in hom2[a, b, r, s]:
                            yield ("vcomp",
                                   tuple_encode(R[a], R[b], p, r, s, n, m),
                                   hom2[a, b, p, s],
                                   "vertical composition")
                for p, r in itertools.product(h1, repeat=2):
                    for n in hom2[a, b, p, r]:
                        yield ("inv2", tuple_encode(R[a], R[b], p, r, n),
                               hom2[a, b, r, p], "2-inverse")
            for a, b, _, sab in edges:
                for c, _, sbc in adj[b]:
                    for p, r in itertools.product(sab, repeat=2):
                        h2ab = hom2[a, b, p, r]
                        if not h2ab:
                            continue
                        for p2, r2 in itertools.product(sbc, repeat=2):
                            h2bc = hom2[b, c, p2, r2]
                            if not h2bc:
                                continue
                            h = hom2[a, c, cp(a, b, c, p, p2),
                                     cp(a, b, c, r, r2)]
                            for n, m in itertools.product(h2ab, h2bc):
                                yield ("hcomp",
                                       tuple_encode(R[a], R[b], R[c], p, r,
                                                    p2, r2, n, m),
                                       h, "horizontal composition")
        yield coherence()
    return stages


def morphism1_stages(dom, cod, zero, one=any_image, two=any_image):
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
            for (b, b2, p, r), ts in twos.items():
                fmap = one_map[b, b2]
                h = cod.hom2_of(zero[b], zero[b2], fmap[p], fmap[r])
                for n, t in ts.items():
                    yield ("tracking2", t,
                           two(t, h, b, b2, p, r, n, fmap[p], fmap[r]),
                           "2-tracking")
        yield level2()

        def functoriality():
            for b in dom.cells:
                fb = zero[b]
                yield ("funct_id", R[b],
                       cod.hom2_of(fb, fb, f1(b, b, _u(dom, b)), _u(cod, fb)),
                       "identity preservation")
            adj = _adjacency(dom.cells, dom.hom)
            for b1 in dom.cells:
                for b2, _, _ in adj[b1]:
                    for b3, _, _ in adj[b2]:
                        z1, z2, z3 = zero[b1], zero[b2], zero[b3]
                        for (p, fp), (r, fr) in itertools.product(
                                one_map[b1, b2].items(),
                                one_map[b2, b3].items()):
                            t = tuple_encode(R[b1], R[b2], R[b3], p, r)
                            c = _read(dom.comp_code, t)
                            img = one_map[b1, b3].get(c)
                            if img is None:
                                img = f1(b1, b3, c)
                            cimg = _comp(cod, z1, z2, z3, fp, fr)
                            yield ("funct_comp", t,
                                   cod.hom2_of(z1, z3, img, cimg),
                                   "composite preservation")
        yield functoriality()
    return stages


def _run(code, arg, fuel):
    try:
        return "ok", apply(code, arg, fuel)
    except Diverges:
        return "div", None
    except FuelExhausted:
        return "fuel", None


def verify(stages, codes):
    runs, fuel = {}, fuel_now()

    def run(name, t):
        out = runs.get((name, t))
        if out is None:
            out = runs[name, t] = _run(codes[name], t, fuel)
        return out

    def val(slot, t):
        status, v = runs.get((slot, t)) or run(slot, t)
        if status == "ok":
            return v
        raise FuelExhausted() if status == "fuel" else Diverges()

    try:
        for stage in stages(val):
            for slot, t, acc, label in stage:
                if not acc:
                    return invalid(f"{label}: no acceptable value at {t}")
                if isinstance(slot, tuple):
                    v = ()
                    for s in slot:
                        status, x = runs.get((s, t)) or run(s, t)
                        if status != "ok":
                            break
                        v += (x,)
                else:
                    out = runs.get((slot, t))
                    if out is None:
                        out = runs[slot, t] = _run(codes[slot], t, fuel)
                    status, v = out
                if status == "fuel":
                    return unknown(f"{label}: fuel exhausted at {t}")
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
