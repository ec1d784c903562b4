"""A frozen copy of the machine's step loop, used only as a test oracle.

It is the loop `pca._apply` ran before the loop stopped re-decoding the
partial applications it builds: every step decodes its code, each
partial-application rule is spelled out, and fuel is ticked through a
method call.  Codes, the Table shortcut and its charge are shared with
`pca`; only the stepping is independent.
"""

from effpath.pca import (
    DEFAULT_FUEL, IFEQ0, IFEQ1, IFEQ2, IFEQ3, K0, K1, PAIR0, PAIR1, S0, S1,
    S2, FST, SND, SUCC, Diverges, FuelExhausted, Table, _STEPS_PER_ENTRY,
    cantor_pair, cantor_unpair, decode, enc,
)


class Fuel:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        self.left = steps

    def tick(self):
        if self.left <= 0:
            raise FuelExhausted()
        self.left -= 1


def apply(code, arg, fuel: int = DEFAULT_FUEL):
    return step_loop(code, arg, Fuel(fuel))


def apply_counted(code, arg, fuel: int = DEFAULT_FUEL):
    f = Fuel(fuel)
    return step_loop(code, arg, f), fuel - f.left


def apply_many(code, args, fuel: int = DEFAULT_FUEL):
    f = Fuel(fuel)
    acc = code
    for a in args:
        acc = step_loop(acc, a, f)
    return acc


def step_loop(code, arg, fuel: Fuel):
    # frames: ("rand", q, a) = left operand done, evaluate q a next;
    #         ("app", f, _)  = right operand done, apply f to it
    stack: list = []
    while True:
        if type(code) is Table:
            rank = code.rank
            steps = _STEPS_PER_ENTRY * (
                rank[arg] + 1 if arg in rank else len(rank)) + 1
            if fuel.left < steps:
                fuel.left = 0
                raise FuelExhausted()
            fuel.left -= steps
            if arg not in rank:
                raise Diverges()
            val = code.values[arg]
        else:
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
