import ast
import functools
import pathlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from effpath import pca
from effpath.core import _read, invalid, unknown, verify
from effpath.pca import (
    DIVERGE_C, FST_C, ID, IFEQ, K, PAIR, S, SND_C, SUCC_C,
    App, Diverges, FuelExhausted, MachineState, UnboundVariable, Var,
    apply, apply_counted, apply_many, cantor_pair, cantor_unpair,
    compile_term, compose_codes, const_code, curry_left, decode, enc, encode,
    lam, app, tabulate, tuple_decode, tuple_encode,
)

import oracle


def oracle_num(term, inputs):
    t = term
    for x in inputs:
        t = (t, x)
    return oracle.reduce(t)


# --- machine basics ---------------------------------------------------------

def test_k_currying_rule():
    assert apply(K, 7) == enc(pca.K1, 7)


def test_k_law():
    assert apply(apply(K, 7), 9) == 7


def test_compose_succ_succ():
    # frozen from the symbolic oracle: (S (K SUCC) SUCC) 3 -> 5
    assert oracle_num(("S", ("K", "SUCC")), []) is not None
    assert oracle_num((("S", ("K", "SUCC")), "SUCC"), [3]) == 5
    c = compose_codes(SUCC_C, SUCC_C)
    assert apply(c, 3) == 5


def test_diverge_raises():
    with pytest.raises(Diverges):
        apply(DIVERGE_C, 0)


def test_fuel_exhaustion_is_distinct():
    c = compose_codes(SUCC_C, SUCC_C)
    with pytest.raises(FuelExhausted):
        apply(c, 3, fuel=2)
    assert apply(c, 3, fuel=100) == 5


def test_the_fuel_limit_is_the_default_fuel_of_apply():
    c = compose_codes(SUCC_C, SUCC_C)
    assert pca.fuel_now() == pca.DEFAULT_FUEL
    with pca.fuel_limit(2):
        assert pca.fuel_now() == 2
        with pytest.raises(FuelExhausted):
            apply(c, 3)
        assert apply(c, 3, fuel=100) == 5
        with pca.fuel_limit(None):  # None keeps the limit in force
            assert pca.fuel_now() == 2
        with pca.fuel_limit(100):
            assert apply(c, 3) == 5
            assert apply_counted(c, 3) == apply_counted(c, 3, fuel=100)
        assert pca.fuel_now() == 2
    assert pca.fuel_now() == pca.DEFAULT_FUEL


# the checkers, which set the limit when given one; the machine's entry
# points; its step counter; and the runner verify hands the limit it read
_TAKE_FUEL = {
    "core.check_object", "core.check_morphism", "path.check_fibration",
    "path.check_homotopy", "eff1.check_object1", "eff1.check_morphism1",
    "eff1.check_fibration1",
    "pca.apply", "pca.apply_counted", "pca.apply_many", "pca._apply",
    "core._run",
}


def _takers(*params) -> set:
    """The functions and lambdas of src/effpath/*.py that take one of
    ``params``, as module.name."""
    src = pathlib.Path(pca.__file__).parent
    takers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = {x.arg for x in (*a.posonlyargs, *a.args,
                                         *a.kwonlyargs, a.vararg, a.kwarg)
                         if x is not None}
                if names & set(params):
                    name = getattr(node, "name", "<lambda>")
                    takers.add(f"{path.stem}.{name}")
    return takers


def test_only_the_checkers_and_the_machine_take_fuel():
    # everything else reads the limit in force: a parameter only passed on
    # is how a construction came to run at the default fuel, not --fuel
    assert _takers("fuel") == _TAKE_FUEL


def test_no_function_takes_a_search_limit():
    # --budget and --depth are read where a search counts its candidates
    # and a path object its cells; a parameter is how each flag came to
    # reach one command
    assert _takers("budget", "depth_budget") == set()


def test_fuel_monotonicity_sampled():
    rng = random.Random(7)
    codes = [SUCC_C, compose_codes(SUCC_C, SUCC_C), ID,
             tabulate({0: 1, 1: 0}), curry_left(FST_C, 4)]
    checked = 0
    while checked < 1000:
        c = rng.choice(codes)
        n = rng.randrange(0, 30)
        base_fuel = rng.randrange(1, 400)
        try:
            v = apply(c, n, fuel=base_fuel)
        except FuelExhausted:
            continue
        except Diverges:
            checked += 1
            continue
        for extra in (1, 10, 1000):
            assert apply(c, n, fuel=base_fuel + extra) == v
        checked += 1


# --- pairing ----------------------------------------------------------------

def test_cantor_pair_base():
    assert cantor_pair(0, 0) == 0


def test_cantor_pair_example():
    # (1+2)(1+2+1)/2 + 2 = 8
    assert cantor_pair(1, 2) == 8


def test_cantor_roundtrip_small():
    for m in range(50):
        for n in range(50):
            assert cantor_unpair(cantor_pair(m, n)) == (m, n)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_cantor_roundtrip_hypothesis(m, n):
    assert cantor_unpair(cantor_pair(m, n)) == (m, n)


def test_machine_pairing_agrees_with_cantor():
    for m in range(0, 101, 7):
        for n in range(0, 101, 9):
            p = cantor_pair(m, n)
            assert apply_many(PAIR, [m, n]) == p
            assert apply(FST_C, p) == m
            assert apply(SND_C, p) == n


def test_tuple_roundtrip():
    t = tuple_encode(3, 1, 4, 1, 5)
    assert tuple_decode(t, 5) == (3, 1, 4, 1, 5)
    assert tuple_encode(9) == 9


_parts = st.one_of(st.integers(0, 9), st.integers(0, 1 << 200),
                   st.builds(pca.Table, st.dictionaries(
                       st.integers(0, 9), st.integers(0, 9), max_size=3)))


@given(st.lists(_parts, min_size=1, max_size=9))
def test_tuple_encode_is_the_right_fold_of_cantor_pair(parts):
    fold = parts[-1]
    for x in reversed(parts[:-1]):
        fold = cantor_pair(x, fold)
    t = tuple_encode(*parts)
    assert t == fold and type(t) is type(fold)
    if len(parts) == 1:
        assert t is parts[0]


# --- encode/decode ----------------------------------------------------------

def test_encode_decode_roundtrip_sampled():
    rng = random.Random(13)
    tags = list(pca._ARITY)
    for _ in range(10_000):
        tag = rng.choice(tags)
        # small naturals, and 2**k - 1 and 2**k, where length fields widen
        args = tuple(rng.choice((rng.randrange(0, 1000),
                                 (1 << rng.randrange(64)) - rng.randrange(2)))
                     for _ in range(pca._ARITY[tag]))
        s = MachineState(tag, args)
        assert decode(encode(s)) == s


def test_unknown_encodings_decode_to_diverge():
    assert decode(0b11111).tag == pca.DIVERGE  # tag nibble 15 is unassigned
    for junk in range(16):
        assert decode(junk).tag == pca.DIVERGE
    # truncated argument bits
    assert decode(int("1" + "0001" + "00", 2)).tag == pca.DIVERGE


# --- compile ----------------------------------------------------------------

def test_compile_identity():
    c = compile_term(lam("x", Var("x")))
    assert apply(c, 4) == 4


def test_compile_pair_dup():
    c = compile_term(lam("x", app(PAIR, Var("x"), Var("x"))))
    assert apply(c, 3) == cantor_pair(3, 3)


def test_compile_k_behaviour():
    c = compile_term(lam("x", lam("y", Var("x"))))
    assert apply_many(c, [2, 9]) == 2


def test_compile_unbound():
    with pytest.raises(UnboundVariable):
        compile_term(lam("x", Var("y")))


def test_compile_agrees_with_oracle():
    x = Var("x")
    cases = [
        (lam("x", app(SUCC_C, app(SUCC_C, x))),
         lambda n: n + 2),
        (lam("x", app(FST_C, app(PAIR, x, 5))),
         lambda n: n),
        (lam("x", app(IFEQ, x, 3, 10, 20)),
         lambda n: 10 if n == 3 else 20),
        (lam("x", lam("y", app(PAIR, Var("y"), Var("x")))),
         None),
    ]
    for term, fn in cases[:3]:
        c = compile_term(term)
        for n in range(10):
            assert apply(c, n) == fn(n)
    c = compile_term(cases[3][0])
    assert apply_many(c, [2, 9]) == cantor_pair(9, 2)


# --- tabulate ---------------------------------------------------------------

def test_tabulate_hits():
    c = tabulate({0: 5, 1: 7})
    assert apply(c, 0) == 5
    assert apply(c, 1) == 7


def test_tabulate_off_domain_diverges():
    c = tabulate({0: 5, 1: 7})
    with pytest.raises(Diverges):
        apply(c, 2)


def test_tabulate_random_tables():
    rng = random.Random(42)
    for _ in range(100):
        size = rng.randrange(0, 12)
        table = {rng.randrange(0, 200): rng.randrange(0, 200)
                 for _ in range(size)}
        c = tabulate(table)
        for k, v in table.items():
            assert apply(c, k) == v
        off = 201
        with pytest.raises(Diverges):
            apply(c, off)


# small naturals, and 2**k - 1 and 2**k, where Elias-delta length fields
# change width
NATS = st.one_of(
    st.integers(0, 300),
    st.builds(lambda k, d: (1 << k) - d, st.integers(0, 40),
              st.integers(0, 1)))


def chain_reference(table):
    """The IFEQ selector chain, encoded entry by entry from the largest key."""
    rest = DIVERGE_C
    for key in sorted(table, reverse=True):
        sel = enc(pca.S2, enc(pca.S2, IFEQ, enc(pca.K1, key)),
                  enc(pca.K1, enc(pca.K1, table[key])))
        rest = enc(pca.S2, enc(pca.S2, sel, enc(pca.K1, rest)), ID)
    return rest


@settings(deadline=None)
@given(st.dictionaries(NATS, NATS, max_size=120))
@example({})
@example({0: 0})
@example({0: 7, 1: 0, 2: 1})
@example({(1 << k) - d: (1 << k) - 1 + d
          for k in range(1, 20) for d in (0, 1)})
def test_tabulate_equals_the_chain_built_entry_by_entry(table):
    assert tabulate(table) == chain_reference(table)


TABLES = st.dictionaries(NATS, NATS, max_size=40)


@settings(deadline=None)
@given(TABLES, TABLES, st.booleans())
@example({}, {}, False)
@example({0: 1}, {0: 2}, False)
@example({0: 1}, {1: 1}, False)
@example({0: 7, 1: 0}, {}, True)
def test_a_table_reads_as_its_chain(a, b, same):
    if same:
        b = dict(reversed(a.items()))
    ta, tb = tabulate(a), tabulate(b)
    assert ta is not tb  # a second object, even for an equal table
    assert (ta == tb) == (tb == ta) == (a == b)
    assert (ta != tb) == (a != b)
    for t, table in ((ta, a), (tb, b)):
        n = int(t)
        assert type(n) is int and n == chain_reference(table)
        assert t == n and n == t and t != n + 1
        assert hash(t) == hash(n) and hex(t) == hex(n) and str(t) == str(n)
        assert t + 1 == 1 + t == n + 1 and n - 1 < t < n + 1
        assert n - 1 <= t <= n <= t <= n + 1 and n + 1 > t > n - 1
        assert (ta < tb) == (int(ta) < int(tb))
        assert t.bit_length() == n.bit_length()
        assert tuple_decode(t, 3) == tuple_decode(n, 3)
        assert tuple_encode(t, 2) == tuple_encode(n, 2)
        assert tuple_encode(2, t) == tuple_encode(2, n)


def _lookup(code, x, fuel=pca.DEFAULT_FUEL):
    try:
        return apply(code, x, fuel)
    except Diverges:
        return Diverges


# each machine constructor at every arity short of saturation, over
# arguments that a Table argument may flow into, through or past
_ARGS = (0, 2, K, ID, SUCC_C, FST_C, enc(pca.IFEQ3, 1, 2, 9))


@settings(deadline=None)
@given(TABLES, st.sampled_from(sorted(pca._ARITY)),
       st.lists(st.sampled_from(_ARGS), min_size=3, max_size=3))
@example({0: 1}, pca.FST, [])
@example({0: 1}, pca.SND, [])
@example({0: 1}, pca.S2, [enc(pca.IFEQ3, 1, 2, 9), ID, 0])
def test_every_constructor_reads_a_table_argument_as_its_chain(
        table, tag, args):
    t = tabulate(table)
    code = enc(tag, *args[:pca._ARITY[tag]])
    assert _lookup(code, t) == _lookup(code, int(t))


def test_a_table_is_unequal_to_a_non_int_without_building_its_chain(
        monkeypatch):
    def no_chain(table):
        raise AssertionError("built a chain")

    monkeypatch.setattr(pca, "_chain", no_chain)
    t = tabulate({0: 1, 2: 3})
    for other in (None, "x", (0,), 1.5, [t]):
        assert t != other and not t == other and other != t
    assert t == tabulate({2: 3, 0: 1}) != tabulate({0: 1})


def _charged(code, x, steps):
    """The outcome at exactly `steps` fuel, which must be the least that
    suffices."""
    with pytest.raises(FuelExhausted):
        apply(code, x, steps - 1)
    return _lookup(code, x, steps)


def _scan_charge(table, per_entry, x):
    """Fuel for a lookup of x that scans entries at per_entry steps each:
    up to x's rank on a hit, the whole table on a miss."""
    scanned = sorted(table).index(x) + 1 if x in table else len(table)
    return per_entry * scanned + 1


@settings(deadline=None)
@given(st.dictionaries(NATS, NATS, max_size=12), st.lists(NATS, max_size=4))
@example({}, [0])
@example({0: 0}, [0, 1])
def test_raw_chain_lookups_agree_with_the_table_shortcut(table, probes):
    # same values and divergence; the shortcut charges _STEPS_PER_ENTRY per
    # entry scanned where the raw chain charges 15 per IFEQ selector, and
    # the same whether the Table has built its rank or not
    args = [*table, *probes]
    want = [table.get(x, Diverges) for x in args]
    ranked = pca.Table(dict(table))
    assert ranked.rank == {k: i for i, k in enumerate(sorted(table))}

    def unranked(x, steps):
        # each application on a fresh Table; a miss leaves it unranked
        with pytest.raises(FuelExhausted):
            apply(pca.Table(dict(table)), x, steps - 1)
        fresh = pca.Table(dict(table))
        out = _lookup(fresh, x, steps)
        assert (fresh._rank is None) == (x not in table)
        return out

    charge = functools.partial(_scan_charge, table, pca._STEPS_PER_ENTRY)
    assert [unranked(x, charge(x)) for x in args] == want
    assert [_charged(ranked, x, charge(x)) for x in args] == want
    assert [_charged(tabulate(table), x, charge(x)) for x in args] == want
    assert [_charged(int(ranked), x, _scan_charge(table, 15, x))
            for x in args] == want


def _outcome(read):
    """read()'s value, or the class of the exception it raised."""
    try:
        return read()
    except (Diverges, FuelExhausted) as e:
        return type(e)


@settings(deadline=None)
@given(st.dictionaries(NATS, st.one_of(
           NATS, st.builds(tabulate, st.dictionaries(NATS, NATS,
                                                     max_size=3))),
           max_size=12),
       st.lists(NATS, max_size=3), st.integers(0, 200))
@example({}, [0], 0)
@example({0: 0}, [0, 1], 0)
def test_the_engine_reads_a_table_as_the_machine_runs_it(table, probes, extra):
    # verify (in a stage and through val) and _read read a Table by lookup;
    # each must give apply's value, Diverges or FuelExhausted at every fuel
    # around the lookup's charge, and an UNKNOWN names the charge
    code = tabulate(table)
    for x in (*table, *probes):
        need = code.charge(x)
        assert need == _scan_charge(table, pca._STEPS_PER_ENTRY, x)
        for fuel in {0, need - 1, need, extra} - {-1}:
            want = _outcome(lambda: apply(code, x, fuel))
            seen = []

            def stages(val):
                seen.append(_outcome(lambda: val("c", x)))
                yield [("c", (x,), (frozenset({-1}),), "probe")]
            with pca.fuel_limit(fuel):
                read = _outcome(lambda: _read(code, x))
                verdict = verify(stages, {"c": code})
            assert read == want and seen == [want]
            if want is FuelExhausted:
                assert verdict == unknown(f"probe: fuel {fuel} exhausted at "
                                          f"{x}; the lookup needs {need}")
            elif want is Diverges:
                assert verdict == invalid(f"probe: diverges at {x}")
            else:
                assert verdict == invalid(
                    f"probe: value {want} outside target at {x}")


@settings(deadline=None)
@given(st.dictionaries(NATS, NATS, max_size=12), st.lists(NATS, max_size=3))
@example({}, [0])
@example({0: 0, 5: 2}, [0, 1])
def test_the_engine_runs_an_int_code_as_the_machine_does(table, probes):
    # an int code (a table's raw chain) runs on the machine: each read,
    # first at a high limit and then at limits down to below the steps
    # the run costs, gives apply's value, Diverges or FuelExhausted there
    code = chain_reference(table)
    for x in (*table, *probes):
        need = _scan_charge(table, 15, x)
        for fuel in (10 * need, need, need - 1, 0):
            want = _outcome(lambda: apply(code, x, fuel))
            assert (want is FuelExhausted) == (fuel < need)
            with pca.fuel_limit(fuel):
                assert _outcome(lambda: _read(code, x)) == want
                verdict = verify(
                    lambda val: [[("c", (x,), (frozenset({-1}),), "probe")]],
                    {"c": code})
            if want is FuelExhausted:
                assert verdict == unknown(f"probe: fuel exhausted at {x}")
            elif want is Diverges:
                assert verdict == invalid(f"probe: diverges at {x}")
            else:
                assert verdict == invalid(
                    f"probe: value {want} outside target at {x}")


def test_an_int_equal_to_a_table_code_is_charged_the_raw_chain():
    # the charge depends on the code alone, not on what was tabulated
    # before: only the Table takes the shortcut
    table = {n: 5 * n + 2 for n in range(0, 60, 3)}
    probes = [*table, 1, 200]
    want = [table.get(x, Diverges) for x in probes]

    def lookups(code, per_entry):
        return [_charged(code, x, _scan_charge(table, per_entry, x))
                for x in probes]

    raw = chain_reference(table)
    assert lookups(raw, 15) == want
    code = tabulate(table)
    assert code == raw and type(raw) is int
    assert lookups(raw, 15) == want
    assert lookups(int(code), 15) == want
    assert lookups(code, 6) == want
    # an equal table, in any order of insertion, is an equal code at the
    # same charges
    for seed in range(3):
        items = list(table.items())
        random.Random(seed).shuffle(items)
        again = tabulate(dict(items))
        assert again == code and again is not code
        assert lookups(again, 6) == want


# --- composition helpers ----------------------------------------------------

def test_compose_codes_oracle():
    # frozen from the oracle: SUCC (SUCC 0) -> 2
    assert oracle.reduce(("SUCC", ("SUCC", 0))) == 2
    assert apply(compose_codes(SUCC_C, SUCC_C), 0) == 2


def test_curry_left_projection():
    # frozen from the pairing formula: fst(pair(4, 9)) = 4
    assert apply(curry_left(FST_C, 4), 9) == 4


def test_compose_identity_law():
    for c in (SUCC_C, tabulate({n: n * 2 for n in range(21)})):
        lhs = compose_codes(ID, c)
        for n in range(21):
            assert apply(lhs, n) == apply(c, n)


def test_const_code():
    assert apply(const_code(11), 999) == 11


# --- S/K laws against the oracle -------------------------------------------

def random_fn(rng, depth=0):
    """A symbolic term denoting a total function from numerals to numerals."""
    roll = rng.random()
    if depth > 3 or roll < 0.35:
        return rng.choice(["SUCC", (("S", "K"), "K"), ("K", rng.randrange(20))])
    if roll < 0.7:
        # composition: S (K f) g
        return ((("S", ("K", random_fn(rng, depth + 1))),
                 random_fn(rng, depth + 1)))
    # equality test between two function results, with function branches
    return (((("IFEQ", rng.randrange(3))), rng.randrange(3)),
            rng.randrange(50)) if rng.random() < 0.5 else \
        ((("S", ("K", "SUCC")), random_fn(rng, depth + 1)))


def to_code(term):
    mapping = {"K": K, "S": S, "PAIR": PAIR, "FST": FST_C, "SND": SND_C,
               "SUCC": SUCC_C, "IFEQ": IFEQ, "DIVERGE": DIVERGE_C}
    if isinstance(term, str):
        return mapping[term]
    if isinstance(term, int):
        return term
    return App(to_code(term[0]), to_code(term[1]))


def test_sk_laws_extensional_against_oracle():
    rng = random.Random(99)
    agreements = 0
    for _ in range(300):
        f = random_fn(rng)
        b = random_fn(rng)
        a = ("K", f)  # a n is then itself a function, so S a b n reduces
        n = rng.randrange(0, 21)
        try:
            expected = oracle.reduce((((("S", a), b)), n))
        except oracle.OracleDiverges:
            continue
        if not isinstance(expected, int):
            continue
        ca = compile_term(to_code(a))
        cb = compile_term(to_code(b))
        try:
            got = apply(apply_many(S, [ca, cb]), n, fuel=200_000)
        except (Diverges, FuelExhausted):
            pytest.fail(f"machine failed where oracle converged: {a} {b} {n}")
        assert got == expected
        # K law: K v n == v for numeral v
        v = rng.randrange(0, 50)
        assert apply_many(K, [v, n]) == v
        agreements += 1
    assert agreements > 250
