"""A concrete partial combinatory algebra on the naturals.

The applicative structure is a deterministic numbered combinator machine:
every natural number decodes to a machine state (unknown encodings decode
to a diverging constant), and application is a fuel-bounded rewrite.  The
basis is S, K, a Cantor pairing constant with projections, successor and a
four-argument numeral-equality test, which is combinatory complete and
enough to discharge every computability obligation in the finite model.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache, total_ordering

DEFAULT_FUEL = 100_000
DEFAULT_BUDGET = 200_000
DEFAULT_DEPTH = 600

# The limits of one verdict, each set once for it: the steps of one
# application (apply and its kin run at it when they are given no fuel, and
# so does everything built on them), the candidates one search tries, and
# the cells of one path object.  fuel_now() and its kin read them.
_LIMIT: ContextVar[int] = ContextVar("fuel", default=DEFAULT_FUEL)
_BUDGET: ContextVar[int] = ContextVar("budget", default=DEFAULT_BUDGET)
_DEPTH: ContextVar[int] = ContextVar("depth", default=DEFAULT_DEPTH)
fuel_now, budget_now, depth_now = _LIMIT.get, _BUDGET.get, _DEPTH.get


def _limit(var: ContextVar):
    """A context manager running its block at a limit of ``value`` for
    var (None keeps the limit in force)."""
    @contextmanager
    def limit(value: int | None):
        token = var.set(var.get() if value is None else value)
        try:
            yield
        finally:
            var.reset(token)
    return limit


fuel_limit = _limit(_LIMIT)     # steps per application
budget_limit = _limit(_BUDGET)  # candidates per search
depth_limit = _limit(_DEPTH)    # cells per path object


class LimitReached(Exception):
    """A limit of the verdict ran out, so its answer is UNKNOWN; str()
    names the limit."""


def within_budget(candidates, cap: int | None = None):
    """The candidates of one search, counted: asking for one more than the
    budget in force, or than ``cap`` when that is lower, raises
    LimitReached."""
    limit, name = budget_now(), "budget"
    if cap is not None and cap < limit:
        limit, name = cap, "candidate limit"
    for tried, c in enumerate(candidates):
        if tried == limit:
            raise LimitReached(f"{name} {limit} exhausted")
        yield c


# constructor tags
K0, K1, S0, S1, S2 = 0, 1, 2, 3, 4
PAIR0, PAIR1, FST, SND, SUCC = 5, 6, 7, 8, 9
IFEQ0, IFEQ1, IFEQ2, IFEQ3 = 10, 11, 12, 13
DIVERGE = 14

_ARITY = {
    K0: 0, K1: 1, S0: 0, S1: 1, S2: 2,
    PAIR0: 0, PAIR1: 1, FST: 0, SND: 0, SUCC: 0,
    IFEQ0: 0, IFEQ1: 1, IFEQ2: 2, IFEQ3: 3,
    DIVERGE: 0,
}


class Diverges(Exception):
    """Application provably never converges."""


class FuelExhausted(LimitReached):
    """The step limit ran out; convergence is unknown."""

    def __str__(self):
        return f"fuel {fuel_now()} exhausted"


class UnboundVariable(Exception):
    """A lambda term is not closed after abstraction."""


def cantor_pair(m: int, n: int) -> int:
    return (m + n) * (m + n + 1) // 2 + n


def cantor_unpair(p: int) -> tuple[int, int]:
    # invert w = m + n from the triangular part; a Table reads as its chain
    p = int(p)
    w = (math.isqrt(8 * p + 1) - 1) // 2
    n = p - w * (w + 1) // 2
    return w - n, n


def tuple_encode(*parts: int) -> int:
    """Right-nested Cantor tuple; a 1-tuple is the value itself."""
    if not parts:
        raise ValueError("empty tuple")
    acc = parts[-1]
    for x in parts[-2::-1]:  # cantor_pair(x, acc), inline
        w = x + acc
        acc = w * (w + 1) // 2 + acc
    return acc


def tuple_decode(value: int, k: int) -> tuple[int, ...]:
    parts = []
    for _ in range(k - 1):
        x, value = cantor_unpair(value)
        parts.append(x)
    parts.append(value)
    return tuple(parts)


class MachineState:
    """A code's tag and arguments; it equals, hashes and unpacks as the
    pair (tag, args).  kids[i] is the state of args[i] once the step loop
    has stepped on that argument, None before (see _apply)."""
    __slots__ = ("tag", "args", "kids")

    def __init__(self, tag: int, args: tuple[int, ...] = (),
                 kids: list | None = None):
        self.tag, self.args = tag, args
        self.kids = [None] * len(args) if kids is None else kids

    def __iter__(self):
        return iter((self.tag, self.args))

    def __eq__(self, other):
        if isinstance(other, (MachineState, tuple)):
            return (self.tag, self.args) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.tag, self.args))

    def __repr__(self):
        return f"MachineState(tag={self.tag}, args={self.args})"


_DIVERGE_STATE = MachineState(DIVERGE)


@lru_cache(maxsize=1 << 16)
def decode(code: int) -> MachineState:
    """Total: unknown encodings decode to the diverging constant.

    Valid encodings are bit strings: a leading 1 (so leading zeros survive),
    a 4-bit tag, then each argument as an Elias-delta code of value+1.  The
    logarithmic framing overhead keeps code sizes essentially linear under
    nesting, unlike an iterated pairing.  The step loop calls this only on
    a code it neither built nor took out of a state it holds (see _apply):
    the codes a caller passes in, and each part of a code the first time
    the loop steps on it.  A part's state is then kept in its parent's
    kids, so the cache, and the states it holds, stay within the subterms
    of the codes passed in.
    """
    if code < 16:
        return _DIVERGE_STATE
    bits = bin(code)[3:]  # strip '0b1'
    tag = int(bits[:4], 2) if len(bits) >= 4 else -1
    arity = _ARITY.get(tag)
    if arity is None:
        return _DIVERGE_STATE
    pos = 4
    args = []
    n = len(bits)
    for _ in range(arity):
        # gamma-coded bit length, then the value bits minus the leading 1
        start = bits.find("1", pos)
        if start == -1:
            return _DIVERGE_STATE
        zeros = start - pos
        if start + zeros + 1 > n:
            return _DIVERGE_STATE
        length = int(bits[start:start + zeros + 1], 2)
        pos = start + zeros + 1
        if pos + length - 1 > n:
            return _DIVERGE_STATE
        g = 1 << (length - 1)
        if length > 1:
            g |= int(bits[pos:pos + length - 1], 2)
        args.append(g - 1)
        pos += length - 1
    if pos != n:
        return _DIVERGE_STATE
    return MachineState(tag, tuple(args))


def _gamma(bits: int, m: int) -> int:
    """bits followed by the Elias-gamma code of m >= 1."""
    return (bits << (2 * m.bit_length() - 1)) | m


def _delta(bits: int, x: int) -> int:
    """bits followed by the Elias-delta code of x >= 1, the framing of one
    machine argument a as x = a + 1: the Elias-gamma code of x's bit
    length n, then x's bits after its leading 1."""
    n = x.bit_length()
    return ((((bits << (2 * n.bit_length() - 1)) | n) << (n - 1))
            | (x ^ (1 << (n - 1))))


def enc(tag: int, *args: int) -> int:
    code = 0b10000 | tag
    for arg in args:
        code = _delta(code, arg + 1)
    return code


def encode(state: MachineState) -> int:
    return enc(state.tag, *state.args)


K = enc(K0)
S = enc(S0)
PAIR = enc(PAIR0)
FST_C = enc(FST)
SND_C = enc(SND)
SUCC_C = enc(SUCC)
IFEQ = enc(IFEQ0)
DIVERGE_C = enc(DIVERGE)
ID = enc(S2, K, K)  # S K K

# The partial-application rule: a constant of tag t applied to one more
# argument a is the constant of tag _PARTIAL[t] over its arguments and a.
# On a code this flips the tag nibble below the leading 1 and appends the
# Elias-delta frame of a + 1, which is how _apply builds it.
_PARTIAL = {K0: K1, S0: S1, S1: S2, PAIR0: PAIR1,
            IFEQ0: IFEQ1, IFEQ1: IFEQ2, IFEQ2: IFEQ3}


class _Fuel:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps


def apply(code: int, arg: int, fuel: int | None = None) -> int:
    """Apply the code to a natural in at most ``fuel`` steps, by default
    the limit in force.  Deterministic and fuel-monotone."""
    return _apply(code, arg, _Fuel(_LIMIT.get() if fuel is None else fuel))


def apply_counted(code: int, arg: int,
                  fuel: int | None = None) -> tuple[int, int]:
    """apply, also returning the number of steps the value cost."""
    f = _Fuel(_LIMIT.get() if fuel is None else fuel)
    start = f.left
    return _apply(code, arg, f), start - f.left


def apply_many(code: int, args: list[int] | tuple[int, ...],
               fuel: int | None = None) -> int:
    f = _Fuel(_LIMIT.get() if fuel is None else fuel)
    acc = code
    for a in args:
        acc = _apply(acc, a, f)
    return acc


# frame kinds of the step loop, compared with `is`
_RAND, _APP = object(), object()


def _apply(code: int, arg: int, fuel: _Fuel) -> int:
    # iterative evaluator (a tabulated chain run as an int nests deeply).
    # Each code the loop holds travels with its source, where its state is
    # found: None (decode it), the state itself (the loop built the code: a
    # partial constant applied gives the new code and its state at once),
    # or (s, i), argument i of a state s the loop holds, kept in s.kids[i]
    # once the loop has stepped on it.  A code taken out of a state (an S2
    # operand, a K1 value, an IFEQ3 branch) carries that reference, so each
    # part is decoded once, on its first step, and never hashed again.
    # arg_src is arg's source, which IFEQ3 returns with arg and a partial
    # application keeps for its new argument.
    # frames: (_RAND, s, a, a_src) = left operand of s = S2 f g on a done,
    #                                evaluate g a next;
    #         (_APP, f, f_src)     = right operand done, apply f to it.
    # Each step costs one unit of fuel, counted in a local and written back
    # to fuel.left however the loop ends.
    stack: list = []
    left = fuel.left
    src = arg_src = None
    try:
        while True:
            val_src = None
            if type(code) is Table:
                # a Table resolves by lookup and never builds its chain or a
                # state: same value and same divergence off the domain as
                # the chain scan, at the fuel Table.charge names; an int
                # runs on the machine, even one equal to a Table's chain
                steps = code.charge(arg)
                if left < steps:
                    left = 0
                    raise FuelExhausted()
                left -= steps
                if arg not in code.values:
                    raise Diverges()
                val = code.values[arg]
            else:
                if left <= 0:
                    raise FuelExhausted()
                left -= 1
                if src is None:
                    st = decode(code)
                elif type(src) is tuple:  # (s, i)
                    s, i = src
                    st = s.kids[i]
                    if st is None:
                        st = s.kids[i] = decode(code)
                else:
                    st = src
                tag = st.tag
                args = st.args
                if tag == S2:
                    stack.append((_RAND, st, arg, arg_src))
                    code, src = args[0], st.kids[0] or (st, 0)
                    continue
                nt = _PARTIAL.get(tag)
                if nt is not None:
                    a1 = arg + 1  # an int, even for a Table argument
                    val = _delta(
                        code ^ ((tag ^ nt) << (code.bit_length() - 5)), a1)
                    val_src = MachineState(nt, args + (a1 - 1,),
                                           st.kids + [arg_src])
                elif tag == K1:
                    val, val_src = args[0], st.kids[0] or (st, 0)
                elif tag == IFEQ3:
                    if args[0] == args[1]:
                        val, val_src = args[2], st.kids[2] or (st, 2)
                    else:
                        val, val_src = arg, arg_src
                elif tag == PAIR1:
                    val = cantor_pair(args[0], arg)
                elif tag == FST:
                    val = cantor_unpair(arg)[0]
                elif tag == SND:
                    val = cantor_unpair(arg)[1]
                elif tag == SUCC:
                    val = arg + 1
                else:
                    raise Diverges()
            if not stack:
                return val
            frame = stack[-1]
            if frame[0] is _RAND:
                _, st, arg, arg_src = frame
                stack[-1] = (_APP, val, val_src)
                code, src = st.args[1], st.kids[1] or (st, 1)
            else:
                stack.pop()
                _, code, src = frame
                arg, arg_src = val, val_src
    finally:
        fuel.left = left


# ---------------------------------------------------------------------------
# symbolic terms and bracket abstraction

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fn: object
    arg: object


@dataclass(frozen=True)
class Lam:
    name: str
    body: object


def lam(name, body):
    return Lam(name, body)


def app(fn, *args):
    acc = fn
    for a in args:
        acc = App(acc, a)
    return acc


def _free_in(name: str, term) -> bool:
    if isinstance(term, Var):
        return term.name == name
    if isinstance(term, App):
        return _free_in(name, term.fn) or _free_in(name, term.arg)
    if isinstance(term, Lam):
        return term.name != name and _free_in(name, term.body)
    return False


def compile_term(term) -> int:
    """Bracket abstraction over the machine basis.  Requires a closed term."""
    if isinstance(term, (int, Table)):
        return term
    if isinstance(term, Var):
        raise UnboundVariable(term.name)
    if isinstance(term, App):
        return _apply_code(compile_term(term.fn), compile_term(term.arg))
    if isinstance(term, Lam):
        return compile_term(_abstract(term.name, term.body))
    raise TypeError(f"not a term: {term!r}")


def _apply_code(f: int, a: int) -> int:
    """Code for the application of two codes, without evaluating it."""
    # partial application of the curried constants is pure bookkeeping, so
    # it is done statically; anything else is a closed compile-time
    # application, evaluated now at the default fuel, whatever the limit in
    # force: a code is an input, not part of a verdict's work.  A Table
    # falls through to apply, which looks it up.
    if type(f) is not Table:
        tag, args = decode(f)
        if tag in _PARTIAL:
            return enc(_PARTIAL[tag], *args, a)
    return apply(f, a, DEFAULT_FUEL)


def _abstract(name: str, term):
    if isinstance(term, Var):
        # a different variable stays free for an enclosing abstraction
        return ID if term.name == name else App(K, term)
    if isinstance(term, Lam):
        return _abstract(name, _abstract(term.name, term.body))
    if not _free_in(name, term):
        return App(K, term)
    if isinstance(term, App):
        # eta: [x](M x) = M when x not free in M
        if isinstance(term.arg, Var) and term.arg.name == name \
                and not _free_in(name, term.fn):
            return term.fn
        return App(App(S, _abstract(name, term.fn)), _abstract(name, term.arg))
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# code synthesis helpers

def const_code(value: int) -> int:
    return enc(K1, value)


def compose_codes(c1: int, c2: int) -> int:
    """apply(result, x) == apply(c1, apply(c2, x))."""
    return enc(S2, enc(K1, c1), c2)


def curry_left(c: int, n: int) -> int:
    """apply(result, x) == apply(c, cantor_pair(n, x))."""
    return enc(S2, enc(K1, c), enc(PAIR1, n))


def _framed_len(n: int) -> int:
    """Bit length of the Elias-delta code of a number of n bits."""
    return n + 2 * n.bit_length() - 2


_K1_HEAD, _S2_HEAD = 0b10000 | K1, 0b10000 | S2  # leading 1 and tag
_S2_IFEQ = _delta(_S2_HEAD, IFEQ + 1)  # S2 IFEQ, short of its last argument
# Every chain layer ends in the field delta(ID + 1).  Wrapping a layer as
# K rest, S2 sel (K rest) and S2 (...) ID adds 1 three times to the code it
# wraps, and each +1 lands in that trailing field, so an inner layer keeps
# its bit length and shows the field as delta(ID + 1) + 3.
_ID_FIELD = _delta(1, ID + 1)  # under a leading 1
_ID_W = _ID_FIELD.bit_length() - 1
assert (_ID_FIELD + 3).bit_length() == _ID_W + 1, "carry leaves the field"


def _join_bits(parts: list[int]) -> int:
    """The bits of each part after its leading 1, in order, under one
    leading 1.  Joined pairwise, so each bit is copied log2(len) times."""
    while len(parts) > 1:
        joined = []
        for a, b in zip(parts[::2], parts[1::2]):
            w = b.bit_length() - 1
            joined.append((a << w) | (b ^ (1 << w)))
        if len(parts) % 2:
            joined.append(parts[-1])
        parts = joined
    return parts[0]


# fuel the shortcut charges per entry scanned.  A raw scan costs 15 steps
# per IFEQ selector; 6 is kept on purpose, since at 15 check_object1 on
# Z2 x Z2 runs out of fuel at DEFAULT_FUEL and turns UNKNOWN.
_STEPS_PER_ENTRY = 6


@total_ordering
class Table:
    """A tabulated lookup: its table (values), all that _apply reads.  Each
    key's rank in ascending order is built on the first lookup that hits
    (see charge) or on the first read of rank, and then kept; a table that
    is only ever read whole, or only missed, never holds one.  Read as a
    number it is the IFEQ chain _chain(values), built on first use and then
    kept."""
    __slots__ = ("values", "_rank", "_code")

    def __init__(self, values: dict[int, int]):
        self.values, self._rank, self._code = values, None, None

    def __int__(self) -> int:
        if self._code is None:
            self._code = _chain(self.values)
        return self._code

    __index__ = __int__

    @property
    def rank(self) -> dict:
        if self._rank is None:
            self._rank = {k: i for i, k in enumerate(sorted(self.values))}
        return self._rank

    def charge(self, arg) -> int:
        """The steps a lookup of arg costs, at _STEPS_PER_ENTRY per entry
        scanned: up to arg's rank on a hit, the whole table on a miss, and
        one more.  The chain's scan costs 15*(rank+1)+1 and 15*n+1.  Only a
        hit needs the rank."""
        rank = None
        if self._rank is not None or arg in self.values:
            rank = self.rank.get(arg)
        scanned = len(self.values) if rank is None else rank + 1
        return _STEPS_PER_ENTRY * scanned + 1

    # the reads pca makes of a code: int() and __index__ (so hex, bin), ==
    # and hash against an int, +, ordering, bit_length and str; any other
    # arithmetic takes int(t) first.  Tables are equal when their tables
    # are, as their chains then are; anything but an int or a Table is
    # unequal without building the chain.
    def __eq__(self, other):
        if type(other) is Table:
            return self.values == other.values
        return int(self) == other if isinstance(other, int) else NotImplemented

    def __hash__(self):
        return hash(int(self))

    def __add__(self, other):
        return int(self) + other

    __radd__ = __add__

    def __lt__(self, other):
        return int(self) < other

    def bit_length(self) -> int:
        return int(self).bit_length()

    def __str__(self):
        return str(int(self))

    def __repr__(self):
        # never the chain, so printing a value that holds tables builds none
        return f"Table({len(self.values)} entries)"


def tabulate(table: dict[int, int]) -> Table:
    """Finite lookup code: diverges off the table's domain.  The Table
    keeps its own copy of the values and lives as long as what holds it;
    equal tables give equal codes at equal charges."""
    return Table(dict(table))


def _chain(table: dict[int, int]) -> int:
    """The machine code of a tabulated lookup: a chain of IFEQ selectors.
    The else branch is only entered on a mismatch, so lookups never touch
    the diverging tail.  From the largest key down, each entry wraps the
    chain as rest <- S2 (S2 sel (K rest)) ID with sel = S2 (S2 IFEQ (K key))
    (K (K value)), so x |-> (IFEQ x key (K value) rest) x.  Past the
    innermost entry a layer adds a prefix that depends only on sel and the
    bit length of rest, and the suffix delta(ID + 1): one pass over the
    lengths gives every prefix, and the code is joined from them once.
    """
    framed = {}  # value -> K (K value), shared by equal values
    sels = []
    for key, value in sorted(table.items(), reverse=True):
        if value not in framed:
            framed[value] = enc(K1, enc(K1, value))
        ik = _delta(_S2_IFEQ, _delta(_K1_HEAD, key + 1) + 1)  # S2 IFEQ (K key)
        sels.append(_delta(_delta(_S2_HEAD, ik + 1), framed[value] + 1))
    out = DIVERGE_C
    if sels:  # the innermost entry in full, less its last field
        out = enc(S2, enc(S2, sels[0], enc(K1, DIVERGE_C)), ID)
        n = out.bit_length()
        parts = [out >> _ID_W]
        for sel in sels[1:]:  # bit lengths: leading 1, tag, framed args
            n1 = 5 + _framed_len(n)                                # K rest
            n2 = 5 + _framed_len((sel + 1).bit_length()) + _framed_len(n1)
            # S2 (S2 sel (K rest)) ID up to the bits of rest
            p = _delta((_gamma(_S2_HEAD, n2) << 4) | S2, sel + 1)
            parts.append(_gamma((_gamma(p, n1) << 4) | K1, n))
            n = 5 + _framed_len(n2) + _ID_W
        parts.reverse()
        parts += [_ID_FIELD + 3] * (len(sels) - 1) + [_ID_FIELD]
        out = _join_bits(parts)
    return out
