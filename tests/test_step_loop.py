"""The step loop against a frozen copy of the loop it replaced.

`reference_machine` decodes every code it steps on; `pca._apply` steps on
the partial applications it builds without decoding them, and reaches a
code it took out of a state it holds through that state.  On random codes,
arguments and fuel, and on each way a code is handed from one state to the
next, the two must give the same value or the same exception, spend the
same steps and leave the same fuel behind.
"""

import random

from hypothesis import example, given, reject, settings, strategies as st

from effpath import pca
from effpath.pca import (
    DIVERGE_C, FST_C, ID, IFEQ, K, PAIR, S, SND_C, SUCC_C, App, Diverges,
    FuelExhausted, Lam, Table, Var, compile_term, compose_codes, enc,
    tabulate,
)

import reference_machine as ref

BASIS = [K, S, PAIR, FST_C, SND_C, SUCC_C, IFEQ, DIVERGE_C, ID]
# the most fuel one run gets; a run that needs more ends in FuelExhausted
FUEL_CAP = 3_000

_small = st.one_of(st.integers(0, 9), st.sampled_from(BASIS))
# a Table's values may be codes, and Tables themselves
TABLES = st.builds(Table, st.dictionaries(
    st.integers(0, 6),
    st.one_of(_small, st.builds(Table, st.dictionaries(st.integers(0, 6),
                                                       _small, max_size=3))),
    max_size=5))
ARGS = st.one_of(st.integers(0, 9), st.integers(0, 1 << 20),
                 st.sampled_from(BASIS), TABLES)

# junk: most small naturals decode to DIVERGE or to a short state
_leaves = st.one_of(st.sampled_from(BASIS), st.integers(0, 4096), TABLES)
RAW_CODES = st.recursive(_leaves, lambda kids: st.one_of(
    # any constructor over codes and numerals, Tables framed as their chains
    st.builds(lambda tag, xs: enc(tag, *xs[:pca._ARITY[tag]]),
              st.sampled_from(sorted(pca._ARITY)),
              st.lists(st.one_of(kids, st.integers(0, 9)), min_size=3,
                       max_size=3)),
    st.builds(lambda f, g: enc(pca.S2, f, g), kids, kids),
    st.builds(compose_codes, kids, kids)), max_leaves=6)

_terms = st.recursive(
    st.one_of(st.sampled_from(BASIS), st.integers(0, 5), TABLES,
              st.sampled_from([Var("x"), Var("y")])),
    lambda kids: st.builds(App, kids, kids), max_leaves=8)


@st.composite
def compiled_codes(draw):
    """A lambda term over the whole basis, compiled; a closed part that
    diverges or runs long at compile time is thrown away."""
    try:
        return compile_term(Lam("x", Lam("y", draw(_terms))))
    except (Diverges, FuelExhausted):
        reject()


CODES = st.one_of(RAW_CODES, compiled_codes(), TABLES)
FUELS = st.one_of(st.just(0), st.integers(0, FUEL_CAP))


def _run(loop, fuel_type, code, args, fuel):
    """The outcome of applying code to args in turn on one shared budget,
    and the fuel left afterwards, however the run ended."""
    budget = fuel_type(fuel)
    try:
        for a in args:
            code = loop(code, a, budget)
        outcome = ("value", type(code), code)
    except (Diverges, FuelExhausted) as e:
        outcome = ("raise", type(e))
    return outcome, budget.left


def _agree(code, args, fuel):
    new = _run(pca._apply, pca._Fuel, code, args, fuel)
    old = _run(ref.step_loop, ref.Fuel, code, args, fuel)
    assert new == old, (code, args, fuel)
    return old


def _boundaries(code, args, fuel):
    """fuel, none, and when the reference completes within FUEL_CAP the
    steps it took and one fewer."""
    outcome, left = _run(ref.step_loop, ref.Fuel, code, args, FUEL_CAP)
    fuels = {0, fuel}
    if outcome[0] == "value" or outcome[1] is Diverges:
        spent = FUEL_CAP - left
        fuels |= {spent, max(spent - 1, 0)}
    return sorted(fuels)


@settings(deadline=None, max_examples=300)
@given(CODES, ARGS, FUELS)
@example(ID, Table({0: 1}), 5)
@example(enc(pca.S2, Table({0: K, 1: 2}), ID), 0, FUEL_CAP)
@example(enc(pca.K1, 0), 0, 0)
def test_one_application_agrees_with_the_reference(code, arg, fuel):
    for f in _boundaries(code, [arg], fuel):
        outcome, _left = _agree(code, [arg], f)
        if outcome[0] == "value":
            assert pca.apply_counted(code, arg, f) == \
                ref.apply_counted(code, arg, f)


@settings(deadline=None, max_examples=200)
@given(CODES, st.lists(ARGS, min_size=1, max_size=3), FUELS)
@example(PAIR, [3, 4], FUEL_CAP)
@example(IFEQ, [1, 1, Table({0: 2}), 7], FUEL_CAP)
@example(IFEQ, [1 << 40, 1 << 40, 2, 7], FUEL_CAP)  # equal, not identical
def test_apply_many_agrees_with_the_reference(code, args, fuel):
    for f in _boundaries(code, args, fuel):
        outcome, _left = _agree(code, args, f)
        if outcome[0] == "value":
            assert pca.apply_many(code, args, f) == \
                ref.apply_many(code, args, f)


def test_a_partial_application_flips_the_tag_and_appends_one_frame():
    rng = random.Random(17)
    for tag, nt in pca._PARTIAL.items():
        for _ in range(500):
            # small naturals, and 2**k - 1 and 2**k, where length fields widen
            args = [rng.choice((rng.randrange(0, 1000),
                                (1 << rng.randrange(64)) - rng.randrange(2)))
                    for _ in range(pca._ARITY[tag] + 1)]
            *args, a = args
            code = enc(tag, *args)
            flipped = code ^ ((tag ^ nt) << (code.bit_length() - 5))
            assert enc(nt, *args, a) == pca._delta(flipped, a + 1)
            assert pca.apply(code, a) == enc(nt, *args, a)


# --- hand-offs: a code taken out of a state the loop holds ------------------

def _s(f, g):
    return enc(pca.S2, f, g)


def _k(c):
    return enc(pca.K1, c)


CHAIN64 = {5 * k + 1: (37 * k) % 64 for k in range(64)}


def _chain_steps(table, key):
    """The raw chain's scan: 15 steps per entry tried, and one more."""
    ordered = sorted(table)
    return 15 * (ordered.index(key) + 1 if key in table else len(ordered)) + 1


def _handoffs():
    """(code, args, value or Diverges): each way a code reaches the step
    after the one that took it out of a state."""
    chain = int(tabulate(CHAIN64))
    last = max(CHAIN64)
    # IFEQ3 a b t, selected from its K1 and applied to the K1-held code c,
    # and the outcome applied to x: x |-> (IFEQ a b t c) x
    def ifeq(a, b, t, c):
        return _s(_s(_k(enc(pca.IFEQ3, a, b, t)), _k(c)), ID)
    # t |-> (t key) j: t key is framed into the partial application
    # K (t key), built at run time, and read back out of it
    def slot(key, j):
        return _s(_s(_s(_k(K), _s(ID, _k(key))), ID), _k(j))
    return [
        (compose_codes(chain, ID), [last], CHAIN64[last]),  # K1 holds a chain
        (compose_codes(SUCC_C, ID), [4], 5),
        (ifeq(1, 2, SUCC_C, chain), [last], CHAIN64[last]),  # mismatch
        (ifeq(1, 1, chain, SUCC_C), [last], CHAIN64[last]),  # match
        (ifeq(1, 1, SUCC_C, chain), [last], last + 1),
        (slot(3, 8), [Table({3: SUCC_C})], 9),  # a Table value in a slot
        (slot(3, 8), [Table({3: Table({8: 2})})], 2),
        (slot(3, 6), [Table({3: chain, 4: ID})], CHAIN64[6]),
        (compose_codes(chain, ID), [Table({0: 2})], Diverges),  # no key
    ]


def test_each_hand_off_agrees_with_the_reference_cold_and_warm():
    for _warm in range(2):  # the second pass finds every part decoded
        for code, args, want in _handoffs():
            for f in _boundaries(code, args, FUEL_CAP):
                _agree(code, args, f)
            assert _agree(code, args, FUEL_CAP)[0][-1] == want


def test_a_chain_of_64_entries_runs_out_one_step_short_of_its_scan():
    chain = int(tabulate(CHAIN64))
    keys = sorted(CHAIN64)
    for _warm in range(2):
        for key in (keys[0], keys[31], keys[-1], keys[-1] + 1):
            need = _chain_steps(CHAIN64, key)
            outcome, left = _agree(chain, [key], need)
            assert left == 0
            assert outcome == (("value", int, CHAIN64[key]) if key in CHAIN64
                               else ("raise", Diverges))
            assert _agree(chain, [key], need - 1) == \
                (("raise", FuelExhausted), 0)


def test_a_warm_chain_decodes_no_part_again():
    # a lookup decodes the code it is given and reaches every part through
    # the state that holds it, so the decode calls of a lookup do not grow
    # with the number of entries it scans
    table = {3 * k: k for k in range(256)}
    chain = int(tabulate(table))
    for key in table:
        pca.apply(chain, key)

    def decode_calls(key):
        before = pca.decode.cache_info()
        assert pca.apply(chain, key) == table[key]
        after = pca.decode.cache_info()
        return after.hits + after.misses - before.hits - before.misses

    assert {decode_calls(3 * rank) for rank in (0, 1, 128, 255)} == {1}
