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
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_FUEL = 100_000

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


class FuelExhausted(Exception):
    """Step budget ran out; convergence is unknown."""


class UnboundVariable(Exception):
    """A lambda term is not closed after abstraction."""


def cantor_pair(m: int, n: int) -> int:
    return (m + n) * (m + n + 1) // 2 + n


def cantor_unpair(p: int) -> tuple[int, int]:
    # invert w = m + n from the triangular part
    w = (math.isqrt(8 * p + 1) - 1) // 2
    n = p - w * (w + 1) // 2
    return w - n, n


def tuple_encode(*parts: int) -> int:
    """Right-nested Cantor tuple; a 1-tuple is the value itself."""
    if not parts:
        raise ValueError("empty tuple")
    acc = parts[-1]
    for x in reversed(parts[:-1]):
        acc = cantor_pair(x, acc)
    return acc


def tuple_decode(value: int, k: int) -> tuple[int, ...]:
    parts = []
    for _ in range(k - 1):
        x, value = cantor_unpair(value)
        parts.append(x)
    parts.append(value)
    return tuple(parts)


@dataclass(frozen=True)
class MachineState:
    tag: int
    args: tuple[int, ...] = ()


_DIVERGE_STATE = None  # set below


@lru_cache(maxsize=1 << 16)
def decode(code: int) -> MachineState:
    """Total: unknown encodings decode to the diverging constant.

    Valid encodings are bit strings: a leading 1 (so leading zeros survive),
    a 4-bit tag, then each argument as an Elias-delta code of value+1.  The
    logarithmic framing overhead keeps code sizes essentially linear under
    nesting, unlike an iterated pairing.
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


def encode(state: MachineState) -> int:
    parts = ["1", format(state.tag, "04b")]
    for arg in state.args:
        g = format(arg + 1, "b")
        lbits = format(len(g), "b")
        parts.append("0" * (len(lbits) - 1))
        parts.append(lbits)
        parts.append(g[1:])
    return int("".join(parts), 2)


_DIVERGE_STATE = MachineState(DIVERGE)


def enc(tag: int, *args: int) -> int:
    return encode(MachineState(tag, args))


K = enc(K0)
S = enc(S0)
PAIR = enc(PAIR0)
FST_C = enc(FST)
SND_C = enc(SND)
SUCC_C = enc(SUCC)
IFEQ = enc(IFEQ0)
DIVERGE_C = enc(DIVERGE)
ID = enc(S2, K, K)  # S K K


class _Fuel:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def tick(self):
        if self.left <= 0:
            raise FuelExhausted()
        self.left -= 1


def apply(code: int, arg: int, fuel: int = DEFAULT_FUEL) -> int:
    """Apply the code to a natural.  Deterministic and fuel-monotone."""
    return _apply(code, arg, _Fuel(fuel))


def apply_counted(code: int, arg: int,
                  fuel: int = DEFAULT_FUEL) -> tuple[int, int]:
    """apply, also returning the number of steps the value cost."""
    f = _Fuel(fuel)
    return _apply(code, arg, f), fuel - f.left


def apply_many(code: int, args: list[int] | tuple[int, ...],
               fuel: int = DEFAULT_FUEL) -> int:
    f = _Fuel(fuel)
    acc = code
    for a in args:
        acc = _apply(acc, a, f)
    return acc


def _apply(code: int, arg: int, fuel: _Fuel) -> int:
    # iterative evaluator (IFEQ chains from tabulate can nest deeply);
    # frames: ("rand", q, a) = left operand done, evaluate q a next;
    #         ("app", f, _)  = right operand done, apply f to it
    stack: list = []
    while True:
        # recognized lookup chains resolve in one go: same value, same
        # divergence off the domain, fuel charged as the chain scan would
        hit = _table_entry(code)
        if hit is not None:
            values, rank = hit
            steps = (_STEPS_PER_ENTRY * (rank[arg] + 1) + 1
                     if arg in rank else
                     _STEPS_PER_ENTRY * len(rank) + 1)
            if fuel.left < steps:
                fuel.left = 0
                raise FuelExhausted()
            fuel.left -= steps
            if arg not in values:
                raise Diverges()
            val = values[arg]
            if not stack:
                return val
            kind, x, y = stack[-1]
            if kind == "rand":
                stack[-1] = ("app", val, None)
                code, arg = x, y
            else:
                stack.pop()
                code, arg = x, val
            continue
        fuel.tick()
        st = decode(code)
        tag, args = st.tag, st.args
        if tag == S2:
            stack.append(("rand", args[1], arg))
            code = args[0]
            continue
        if tag == K0:
            val = enc(K1, arg)
        elif tag == K1:
            val = args[0]
        elif tag == S0:
            val = enc(S1, arg)
        elif tag == S1:
            val = enc(S2, args[0], arg)
        elif tag == PAIR0:
            val = enc(PAIR1, arg)
        elif tag == PAIR1:
            val = cantor_pair(args[0], arg)
        elif tag == FST:
            val = cantor_unpair(arg)[0]
        elif tag == SND:
            val = cantor_unpair(arg)[1]
        elif tag == SUCC:
            val = arg + 1
        elif tag == IFEQ0:
            val = enc(IFEQ1, arg)
        elif tag == IFEQ1:
            val = enc(IFEQ2, args[0], arg)
        elif tag == IFEQ2:
            val = enc(IFEQ3, args[0], args[1], arg)
        elif tag == IFEQ3:
            a, b, then_ = args
            val = then_ if a == b else arg
        else:
            raise Diverges()
        if not stack:
            return val
        kind, x, y = stack[-1]
        if kind == "rand":
            stack[-1] = ("app", val, None)
            code, arg = x, y
        else:
            stack.pop()
            code, arg = x, val


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
    if isinstance(term, int):
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
    # S (K f) (K a) applied to anything yields f a; but we want a code whose
    # *value* is the application, so we reduce statically where it is safe:
    # partial application of the curried constants is pure bookkeeping.
    st = decode(f)
    tag, args = st.tag, st.args
    if tag == K0:
        return enc(K1, a)
    if tag == S0:
        return enc(S1, a)
    if tag == S1:
        return enc(S2, args[0], a)
    if tag == PAIR0:
        return enc(PAIR1, a)
    if tag == IFEQ0:
        return enc(IFEQ1, a)
    if tag == IFEQ1:
        return enc(IFEQ2, args[0], a)
    if tag == IFEQ2:
        return enc(IFEQ3, args[0], args[1], a)
    # genuine computation: evaluate now (closed compile-time application)
    return apply(f, a)


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


class _BitStr:
    """A large bit string under construction, with cheap increment at the
    end and cheap wrapping into further machine states.  Avoids the
    quadratic cost of re-rendering a growing code once per table entry."""

    __slots__ = ("segs", "n")

    def __init__(self, s: str):
        self.segs = deque([s])
        self.n = len(s)

    def _incr(self):
        # binary +1: flip the trailing run of 1s and the 0 before it
        segs = self.segs
        for i in range(len(segs) - 1, -1, -1):
            seg = segs[i]
            j = seg.rfind("0")
            if j == -1:
                segs[i] = "0" * len(seg)
                continue
            segs[i] = seg[:j] + "1" + "0" * (len(seg) - j - 1)
            return
        segs.appendleft("1")
        self.n += 1

    @staticmethod
    def _arg_bits(value: int) -> str:
        g = format(value + 1, "b")
        lb = format(len(g), "b")
        return "0" * (len(lb) - 1) + lb + g[1:]

    def wrap(self, tag: int, pre_args: tuple, post_args: tuple):
        """self <- enc(tag, *pre_args, self, *post_args)."""
        self._incr()  # frame self as the Elias-delta code of self + 1
        while not self.segs[0]:
            self.segs.popleft()
        self.segs[0] = self.segs[0][1:]
        lbits = format(self.n, "b")
        prefix = ("1" + format(tag, "04b")
                  + "".join(self._arg_bits(a) for a in pre_args)
                  + "0" * (len(lbits) - 1) + lbits)
        self.segs.appendleft(prefix)
        suffix = "".join(self._arg_bits(a) for a in post_args)
        if suffix:
            self.segs.append(suffix)
        self.n = self.n - 1 + len(prefix) + len(suffix)

    def to_int(self) -> int:
        return int("".join(self.segs), 2)


# recognized lookup-chain codes, bucketed by (bit length, low bits) so a
# probe never hashes a multi-megabit chain code; entries hold the full code
# for an exact equality check.  Purely an evaluation shortcut; the chain
# itself computes the same values.
_TABLES: dict[tuple[int, int], list] = {}
_LOW = (1 << 64) - 1
_STEPS_PER_ENTRY = 6  # machine steps one IFEQ selector costs during a scan


def _table_entry(code: int):
    bucket = _TABLES.get((code.bit_length(), code & _LOW))
    if bucket is not None:
        for c, values, rank in bucket:
            if c == code:
                return values, rank
    return None


def tabulate(table: dict[int, int]) -> int:
    """Finite lookup code: diverges off the table's domain.

    Built as a chain of IFEQ selectors; the else branch is only entered on a
    mismatch, so lookups never touch the diverging tail.
    """
    code = _BitStr(format(DIVERGE_C, "b"))
    for key in sorted(table, reverse=True):
        value = table[key]
        # x |-> (IFEQ x key (K value) rest) x
        s2b = enc(S2, enc(S2, IFEQ, enc(K1, key)), enc(K1, enc(K1, value)))
        code.wrap(K1, (), ())          # K rest
        code.wrap(S2, (s2b,), ())      # sel = S2 s2b (K rest)
        code.wrap(S2, (), (ID,))       # S2 sel ID
    out = code.to_int()
    if _table_entry(out) is None:
        _TABLES.setdefault((out.bit_length(), out & _LOW), []).append(
            (out, dict(table), {k: i for i, k in enumerate(sorted(table))}))
    return out
