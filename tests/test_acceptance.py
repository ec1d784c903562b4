"""Acceptance suite: one test per headline property, each printing a single
pass/fail line with its time budget.  Budgets are wall-clock seconds on a
desk machine; every check inside is exact.
"""

import itertools
import random
import time

from effpath import pca
from effpath.core import (
    compose, groups, ho_equal, identity, make_object, synthesize_morphism,
)
from effpath.path import (
    FibrationWitness, check_homotopy, fibration_decide,
    homotopic_decide, homotopy_from_h1, is_equivalence_decide,
    is_trivial_fibration, construct_section, path_object, pullback,
    synthesize_fibration_witness, terminal_map, terminal_object,
    _fibration_stages,
)
from effpath.constructions import (
    enumerate_members, freyd_square_check, hexp, induced_fiber_map,
    pi_type, transport_properties_check,
)
from effpath.classify import (
    classify_prop_discrete, discrete_decide, hlevel_check,
    is_standard_discrete, prop_truncate, resize, two_self_equivalences,
    u_pullback, univalence_check_prop,
)
from effpath.eff1 import (
    adjequiv, classify_discrete_set, compose1, discrete1_decide,
    hlevel1_check, identity1, inflate, inflate_morphism,
    synthesize_fibration1_witness, synthesize_morphism1, terminal_map1,
    terminal_object1, truncate1, two_homotopic_decide, univalence_check_set,
    z2_homotopies, z2_object, z2_twist,
)
from effpath.fixtures import (
    fixture_fibrations1, fixture_objects, interval, line_bundle, set_bundle,
    swap_morphism, two, two_point_bundle, walking_pair,
)


def _criterion(num: int, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:02d}: fail ({elapsed:.1f}s, budget "
              f"{budget:g}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:02d}: pass ({elapsed:.1f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def _objects():
    return {name: fx.obj for name, fx in fixture_objects().items()}


def _fibrations():
    """Every shipped fibration at the groupoid level."""
    total, base, p = two_point_bundle()
    fibs = {"E2I": p}
    for name, obj in _objects().items():
        fibs[f"{name}->1"] = terminal_map(obj)
    return fibs


# --- 1: the combinator machine ----------------------------------------------

def test_criterion_01_pca_laws():
    def body():
        rng = random.Random(7)
        f = pca.tabulate({n: pca.K for n in range(10)})
        for _ in range(50):
            a, b = rng.randrange(200), rng.randrange(200)
            ka = pca.apply(pca.K, a)
            assert pca.apply(ka, b) == a
            g = pca.tabulate({n: rng.randrange(50) for n in range(10)})
            x = rng.randrange(10)
            sfg = pca.apply(pca.apply(pca.S, f), g)
            # S f g x = (f x)(g x) = K (g x)
            assert pca.apply(sfg, x) == \
                pca.apply(pca.apply(f, x), pca.apply(g, x))
        for m in range(101):
            for n in (0, 1, 50, 100):
                p = pca.cantor_pair(m, n)
                assert pca.cantor_unpair(p) == (m, n)
        for _ in range(100):
            size = rng.randrange(1, 12)
            table = {rng.randrange(500): rng.randrange(500)
                     for _ in range(size)}
            code = pca.tabulate(table)
            for k, v in table.items():
                assert pca.apply(code, k) == v
        for _ in range(1000):
            code = pca.tabulate({0: rng.randrange(50)})
            arg = rng.randrange(3)
            lo = rng.randrange(1, 30)
            try:
                v_lo = pca.apply(code, arg, fuel=lo)
            except (pca.Diverges, pca.FuelExhausted):
                v_lo = None
            try:
                v_hi = pca.apply(code, arg, fuel=10 * lo + 1000)
            except pca.Diverges:
                v_hi = None
            if v_lo is not None:
                assert v_lo == v_hi
    _criterion(1, 10, body)


# --- 2: the path-category axioms --------------------------------------------

def test_criterion_02_path_category_axioms():
    def body():
        objs = _objects()
        fibs = _fibrations()
        # (1) every object is fibrant: X -> 1 is a fibration
        for name, obj in objs.items():
            assert fibration_decide(terminal_map(obj)).status == "yes", name
        # (2) fibrations compose
        total, base, p = two_point_bundle()
        pc = compose(terminal_map(base), p)
        assert fibration_decide(pc).status == "yes"
        # (3) pullbacks of fibrations along any map are fibrations
        pt = synthesize_morphism(terminal_object(), base, {"*": "0"})
        for g in (identity(base), pt):
            pb = pullback(p, g)
            assert fibration_decide(pb.to_g_dom).status == "yes"
        # (4) path objects: r an equivalence, (s,t) a fibration
        for name, obj in objs.items():
            if not obj.cells:
                continue
            b = path_object(obj)
            assert is_equivalence_decide(b.r).status == "yes", name
            assert fibration_decide(b.st).status == "yes", name
        # (5) trivial fibrations have sections
        f = terminal_map(interval())
        w = synthesize_fibration_witness(f)
        d = is_equivalence_decide(f)
        sec = construct_section(f, w, d.witness.inverse, d.witness.eps)
        assert homotopic_decide(compose(f, sec),
                                identity(terminal_object())).status == "yes"
        # (6) isomorphisms are equivalences
        sw = swap_morphism(two())
        assert is_equivalence_decide(sw).status == "yes"
        # (7) 6-for-2 on composable triples of maps whose pairwise
        # composites are equivalences
        I = interval()
        maps = [identity(I), swap_morphism(I),
                synthesize_morphism(I, I, {"0": "1", "1": "1"})]
        triples = 0
        for u, v, wm in itertools.product(maps, repeat=3):
            vw = compose(v, wm)
            uv = compose(u, v)
            if is_equivalence_decide(vw).status != "yes":
                continue
            if is_equivalence_decide(uv).status != "yes":
                continue
            triples += 1
            for m in (u, v, wm, compose(u, vw)):
                assert is_equivalence_decide(m).status == "yes"
        assert triples >= 9
    _criterion(2, 60, body)


# --- 3: the interval against the walking pair -------------------------------

def test_criterion_03_interval_trivial_walking_pair_not():
    def body():
        d = is_trivial_fibration(terminal_map(interval()))
        assert d.status == "yes"
        f = terminal_map(walking_pair())
        assert fibration_decide(f).status == "yes"
        d = is_trivial_fibration(f)
        assert d.status == "no" and d.reason
    _criterion(3, 5, body)


# --- 4: homotopy-decision soundness -----------------------------------------

def test_criterion_04_homotopy_soundness():
    def body():
        # the last two have non-empty hom-sets that differ, so relations
        # can differ as sets and still entail each other
        crossed = make_object("ab", {"a": 0, "b": 1},
                              {("a", "a"): {0}, ("b", "b"): {0},
                               ("a", "b"): {1}, ("b", "a"): {1}}, name="X")
        twins = make_object("ab", {"a": 0, "b": 0},
                            {("a", "a"): {0, 2}, ("b", "b"): {2},
                             ("a", "b"): {1}, ("b", "a"): {1}}, name="T")
        objs = [interval(), walking_pair(), two(), terminal_object(),
                crossed, twins]
        pairs = 0
        for A, B in itertools.product(objs, repeat=2):
            members = enumerate_members(hexp(A, B))
            for f, g in itertools.combinations_with_replacement(members, 2):
                pairs += 1
                d = homotopic_decide(f, g)
                h = ho_equal(f, g)
                assert d.status == h.status, (A.name, B.name)
                if d.status == "yes":
                    assert check_homotopy(f, g, d.witness).status == "valid"
        assert pairs >= 190, pairs
    _criterion(4, 30, body)


# --- 5: transport -----------------------------------------------------------

def _max_witness(f):
    """An independent witness bundle choosing maximal lifts."""
    w = synthesize_fibration_witness(f)
    if w is None:
        return None
    t0, t1 = {}, {}
    for t, common in groups(_fibration_stages(f)).get(("lift0", "lift1"),
                                                       {}).items():
        t0[t], t1[t] = max(common)
    return FibrationWitness(pca.tabulate(t0), pca.tabulate(t1), w.lift2)


def test_criterion_05_transport():
    def body():
        fibs = _fibrations()
        checked = 0
        for name, f in fibs.items():
            w = synthesize_fibration_witness(f)
            assert w is not None, name
            if not f.dom.cells:
                continue
            props = transport_properties_check(f, w)
            assert [d.status for d in props] == ["yes"] * 3, name
            checked += 1
        assert checked >= 3
        # uniqueness across two independent witness bundles
        total, base, p = two_point_bundle()
        for f in (p, terminal_map(interval())):
            w1 = synthesize_fibration_witness(f)
            w2 = _max_witness(f)
            idb = identity(f.cod)
            h = homotopic_decide(idb, idb)
            m1, eq1 = induced_fiber_map(f, w1, idb, idb, h.witness)
            m2, eq2 = induced_fiber_map(f, w2, idb, idb, h.witness)
            assert eq1.status == eq2.status == "yes"
            # the two induced maps land in the same pullback and agree on
            # every p-image, so plain homotopy here is fibrewise homotopy
            assert homotopic_decide(m1, m2).status == "yes"
    _criterion(5, 30, body)


# --- 6: discreteness, three ways --------------------------------------------

def test_criterion_06_discreteness_agreement():
    def body():
        fibs = _fibrations()
        for name, obj in _objects().items():
            if not obj.cells:
                continue
            fibs[f"P({name})"] = path_object(obj).st
        for name, f in fibs.items():
            a = discrete_decide(f).status
            b = freyd_square_check(f).status
            assert a == b, name
            if name.startswith("P("):
                assert a == "yes", name
        assert discrete_decide(fibs["J->1"]).status == "no"
    _criterion(6, 60, body)


# --- 7: the propositional universe ------------------------------------------

def test_criterion_07_prop_universe():
    def body():
        lt, lb, lf = line_bundle()
        candidates = [lf, prop_truncate(terminal_map(walking_pair())).h]
        classified = 0
        for f in candidates:
            if not (is_standard_discrete(f)
                    and hlevel_check(f, -1).status == "verified"):
                continue
            w = synthesize_fibration_witness(f)
            cl = classify_prop_discrete(f, w)
            assert cl.comparison.status == "yes"
            classified += 1
        assert classified >= 1
        # univalence round trips on three (w, f, g) triples
        z1, zI = terminal_object(), interval()
        done = 0
        for z, assign, zmap in (
                (zI, {"0": frozenset({2}), "1": frozenset({2})},
                 None),
                (z1, {"*": frozenset({3, 5})},
                 {("*", 3): ("*", 5), ("*", 5): ("*", 3)}),
                (zI, {"0": frozenset({3, 5}), "1": frozenset({3, 5})},
                 None)):
            p_obj = u_pullback(z, assign, name="P")
            q_obj = u_pullback(z, assign, name="Q")
            proj_p = synthesize_morphism(p_obj, z,
                                         {c: c[0] for c in p_obj.cells})
            proj_q = synthesize_morphism(q_obj, z,
                                         {c: c[0] for c in q_obj.cells})
            wm = (identity(p_obj) if zmap is None
                  else synthesize_morphism(p_obj, q_obj, zmap))
            H, d = univalence_check_prop(wm, proj_p, proj_q)
            assert d.status == "yes"
            done += 1
        assert done == 3
    _criterion(7, 60, body)


# --- 8: resizing ------------------------------------------------------------

def test_criterion_08_resizing():
    def body():
        lt, lb, lf = line_bundle()
        props = [lf, prop_truncate(terminal_map(walking_pair())).h,
                 terminal_map(interval())]
        for f in props:
            if hlevel_check(f, -1).status != "verified":
                continue
            rs = resize(f)
            assert [d.status for d in rs.laws] == ["yes", "yes"]
            assert discrete_decide(rs.proj).status == "yes"
        lf1 = inflate_morphism(lf)
        props1 = [lf1, truncate1(terminal_map1(inflate(walking_pair())),
                                 -1).h]
        for f in props1:
            rs = resize(f)
            assert [d.status for d in rs.laws] == ["yes", "yes"]
            assert discrete1_decide(rs.proj).status == "yes"
    _criterion(8, 30, body)


# --- 9: hlevels -------------------------------------------------------------

def test_criterion_09_hlevels():
    def body():
        for name, f in _fibrations().items():
            assert hlevel_check(f, 0).status == "verified", name
        for name, f in fixture_fibrations1().items():
            assert hlevel1_check(f, 1).status == "verified", name
        # Pi of a propositional fibration is propositional
        total, base, p = two_point_bundle()
        w = synthesize_fibration_witness(p)
        g = identity(total)   # hlevel -2, so propositional
        assert hlevel_check(g, -1).status == "verified"
        pi = pi_type(p, w, g)
        assert hlevel_check(pi.proj, -1).status == "verified"
        # cumulativity wherever verified
        for f in (terminal_map(interval()), p):
            seen = [hlevel_check(f, n).status for n in (-2, -1, 0)]
            first = next((i for i, s in enumerate(seen) if s == "verified"),
                         None)
            assert first is not None
            assert all(s == "verified" for s in seen[first:])
    _criterion(9, 120, body)


# --- 10: impredicative quantification ---------------------------------------

def test_criterion_10_impredicativity():
    def body():
        total, base, p = two_point_bundle()
        pairs = [(p, identity(total)),
                 (terminal_map(interval()), identity(interval())),
                 (terminal_map(two()), identity(two()))]
        for f, g in pairs:
            assert is_standard_discrete(g)
            w = synthesize_fibration_witness(f)
            pi = pi_type(f, w, g)
            assert is_standard_discrete(pi.proj)
            assert discrete_decide(pi.proj).status == "yes"
        f1 = inflate_morphism(p)
        g1 = identity1(f1.dom)
        assert is_standard_discrete(g1)
        w1 = synthesize_fibration1_witness(f1)
        pi1 = pi_type(f1, w1, g1)
        assert is_standard_discrete(pi1.proj)
    _criterion(10, 60, body)


# --- 11: the two-dimensional counterexample ---------------------------------

def test_criterion_11_z2_counterexample():
    def body():
        A = z2_object()
        wm = z2_twist(A)
        idA = identity1(A)
        d = is_equivalence_decide(wm)
        assert d.status == "yes"
        H, K = z2_homotopies(A, wm)
        assert check_homotopy(idA, wm, H).status == "valid"
        assert check_homotopy(idA, wm, K).status == "valid"
        assert two_homotopic_decide(idA, wm, H, K).status == "no"
        eq = d.witness
        adj = adjequiv(wm, eq.inverse, eq.eta, eq.eps)
        assert adj.M.status == "yes" and adj.N.status == "yes"
        gf = compose1(eq.inverse, wm)
        assert check_homotopy(idA, gf, adj.eta_prime).status == "valid"
        # after 0-truncation over the point the two homotopies merge
        tr = truncate1(terminal_map1(A), 0)
        C = tr.g.cod
        wC = z2_twist(C)
        idC = identity1(C)
        HC = homotopy_from_h1(idC, wC, {0: 0, 1: 1})
        KC = homotopy_from_h1(idC, wC, {0: 1, 1: 0})
        assert two_homotopic_decide(idC, wC, HC, KC).status == "yes"
    _criterion(11, 30, body)


# --- 12: the universe of sets -----------------------------------------------

def test_criterion_12_set_universe():
    def body():
        bundles = []
        for build in (set_bundle, line_bundle):
            total, base, f = build()
            bundles.append(inflate_morphism(f))
        for f1 in bundles:
            w = synthesize_fibration1_witness(f1)
            cl = classify_discrete_set(f1, w)
            assert cl.comparison.status == "yes"
        # univalence round trips on two triples
        base1 = terminal_object1()
        done = 0
        for carrier, zmap in (
                ((3, 5), {("*", 3): ("*", 5), ("*", 5): ("*", 3)}),
                ((2,), None)):
            cells = [("*", n) for n in carrier]
            hom = {(x, y): frozenset({0})
                   for x in cells for y in cells}
            tot = inflate(make_object(cells, {c: c[1] for c in cells}, hom,
                                      name="W"))
            pf = synthesize_morphism1(tot, base1,
                                      {c: "*" for c in cells})
            wm = (identity1(tot) if zmap is None
                  else synthesize_morphism1(tot, tot, zmap))
            H, d = univalence_check_set(wm, pf, pf)
            assert d.status == "yes"
            done += 1
        assert done == 2
    _criterion(12, 120, body)


# --- 13: the obstruction ----------------------------------------------------

def test_criterion_13_two_self_equivalences():
    def body():
        rep = two_self_equivalences()
        assert rep.first_is_equivalence.status == "yes"
        assert rep.second_is_equivalence.status == "yes"
        assert rep.homotopic.status == "no"
    _criterion(13, 5, body)
