"""The four benchmark workloads and their correctness oracles.

Each workload has ``setup(seed)``, run before the timed region, and
``run(state, rec)``, the timed region, which reports one sample per verdict
to ``rec``.  A verdict is one suite expectation (``suite``), one CLI command
(``commands``), one check call (``check``) or one machine application
(``machine``).  Only ``machine`` draws its inputs from the seed.

Workloads call the program through module attributes (``eff1.check_object1``
rather than a name imported once), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from pathlib import Path

from effpath import cli, core, eff1, fixture_io, fixtures, pca

HERE = Path(__file__).resolve().parent
FIXTURE_FILE = HERE / "fixtures.json"

BIG_FUEL = 10 ** 7


class Recorder:
    """Per-verdict latency samples and the outcome counts of one process."""

    def __init__(self):
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unknown = 0
        self.errors: list[str] = []

    def add(self, seconds: float, ok: bool, unknown: bool = False,
            what: str = ""):
        self.samples.append(seconds)
        self.attempted += 1
        if unknown:
            self.unknown += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def timed(self, label, thunk, judge):
        """Run ``thunk``; ``judge(result)`` gives (ok, unknown, detail).
        A raised exception is a failed verdict."""
        start = time.perf_counter()
        try:
            result = thunk()
        except Exception:  # a traceback is a wrong answer, not a crash
            self.add(time.perf_counter() - start, False, False,
                     f"{label}: {traceback.format_exc(limit=3)}")
            return
        elapsed = time.perf_counter() - start
        ok, unknown, detail = judge(result)
        self.add(elapsed, ok, unknown, f"{label}: {detail}")


# --- suite ----------------------------------------------------------------
# `effpath suite --all --format json` at this commit: every row passes.

SUITE_ROWS = 102
SUITE_DIGEST = \
    "10d12df3e575976cc8dfc1b3b3c3d4427dca33a1e08cf30650224d36657eb42a"


def suite_setup(seed):
    return None


def suite_run(_state, rec):
    # one sample per expectation: time the suite runner's per-expectation
    # hook (no public call runs a single expectation)
    orig = getattr(cli, "_entry_check", None)
    if orig is None:
        raise RuntimeError("cli._entry_check is gone: the suite workload "
                           "cannot time single expectations")
    times = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    out = io.StringIO()
    cli._entry_check = timed
    try:
        rc = cli.main(["suite", "--all", "--format", "json"], out=out)
    finally:
        cli._entry_check = orig
    text = out.getvalue()
    rows = json.loads(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    whole_ok = (rc == 0 and len(rows) == SUITE_ROWS == len(times)
                and digest == SUITE_DIGEST)
    for row, seconds in zip(rows, times):
        # rows are sorted by target and times are in run order; the pairing
        # only matters for latency, every row is judged on its own status
        rec.add(seconds, row["status"] == "pass",
                row["status"] == "unknown",
                f"suite {row['target']}: {row['status']}")
    if not whole_ok:
        rec.failed = max(rec.failed, 1)
        rec.errors.append(f"suite: exit {rc}, {len(rows)} rows, "
                          f"{len(times)} expectations, digest {digest}")


# --- commands -------------------------------------------------------------
# (argv, status of the single report, exit code).  Statuses follow the
# README and tests/test_fixtures_cli.py; exit code 2 is a configuration
# error with no report.  Detail strings are deliberately not pinned.

FX = "@fixtures"   # replaced by the shipped fixture file's path

COMMANDS = [
    (["check-object", "I"], "valid", 0),
    (["check-object", "X", "--fixtures", FX], "valid", 0),
    (["check-morphism", f"{FX}#sw"], "valid", 0),
    (["check-fibration", "E2I"], "yes", 0),
    (["pullback", "E2I", "E2I"], "valid", 0),
    (["path-object", "I"], "yes", 0),
    (["homotopic", "sw", "sw", "--fixtures", FX], "yes", 0),
    (["equivalence", "E2I"], "no", 0),
    (["transport", "E2I"], "yes", 0),
    (["exp-j", "2"], "valid", 0),
    (["pi", "E2I"], "yes", 0),
    (["truncate", "J", "--n", "-1"], "verified", 0),
    (["hlevel", "J", "--n", "0"], "verified", 0),
    (["hlevel", "J", "--n", "-1"], "refuted", 0),
    (["discrete", "J"], "no", 0),
    (["classify", "L"], "yes", 0),
    (["classify", "E2I"], "no", 0),
    (["univalence", "E2I", "E2I", "E2I"], "no", 0),
    (["resize", "L"], "yes", 0),
    (["check-object", "nope"], None, 2),
    (["eff1-check-object", "eff1:I"], "valid", 0),
    (["eff1-check-object", "T", "--fixtures", FX], "valid", 0),
    (["eff1-check-morphism", "eff1:I->1"], "valid", 0),
    (["eff1-check-fibration", "eff1:E2I"], "yes", 0),
    (["eff1-pullback", "eff1:E2I", "eff1:E2I"], "valid", 0),
    (["eff1-path-object", "eff1:I"], "yes", 0),
    (["eff1-homotopic", "eff1:E2I", "eff1:E2I"], "yes", 0),
    (["eff1-equivalence", "eff1:I->1"], "yes", 0),
    (["eff1-transport", "eff1:E2I"], None, 2),
    (["eff1-exp-j", "eff1:2"], "valid", 0),
    (["eff1-pi", "eff1:2->1"], "yes", 0),
    (["eff1-truncate", "eff1:J->1", "--n", "0"], "verified", 0),
    (["eff1-hlevel", "eff1:J->1", "--n", "0"], "verified", 0),
    (["eff1-discrete", "eff1:Z2->1"], "no", 0),
    (["eff1-classify", "eff1:0->1"], "yes", 0),
    (["eff1-univalence", "eff1:J->1", "eff1:0->1", "eff1:0->1"], "yes", 0),
    (["eff1-resize", "eff1:I->1"], "yes", 0),
    (["eff1-check-object", "I"], None, 2),
]
COMMAND_PASSES = 3   # passes per process, so p90 has ten samples beyond it


def commands_setup(seed):
    path = str(FIXTURE_FILE)
    return [([a.replace(FX, path) for a in argv], status, code)
            for argv, status, code in COMMANDS]


def commands_run(calls, rec):
    for _ in range(COMMAND_PASSES):
        for argv, want_status, want_rc in calls:
            label = " ".join(argv)

            def call(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = cli.main(argv + ["--format", "json"], out=out)
                text = out.getvalue()
                return rc, [r["status"] for r in json.loads(text)] \
                    if text else []

            def judge(res, want_status=want_status, want_rc=want_rc):
                rc, statuses = res
                want = [want_status] if want_status is not None else []
                return (rc == want_rc and statuses == want,
                        "unknown" in statuses, f"exit {rc}, {statuses}")

            rec.timed(label, call, judge)


# --- check ----------------------------------------------------------------
# Exhaustive checks on objects built during set-up, with the verdicts the
# tests assert.  Every check runs at the default fuel and at 10^7, except the
# 2.6 s check of the product object, which runs at the default fuel only.
# The ℤ/2 path object is UNKNOWN at the default fuel (an expected answer,
# not a failure) and VALID at 10^7.

CHECK_PASSES = 3   # passes per process, so p90 has ten samples beyond it


def check_setup(seed):
    z2 = eff1.z2_object()
    bundle = eff1.path_object1(z2)
    prod, pr1, pr2 = eff1.product1(z2, z2)
    lib = fixtures.fixture_library()
    # (module, name): looked up at call time, so traced wrappers see it
    checks = {"object": (core, "check_object"),
              "pathobj": (core, "check_object"),
              "fibration": (core, "check_morphism"),
              "object1": (eff1, "check_object1"),
              "fibration1": (eff1, "check_morphism1")}
    library = []
    for name, entry in sorted(lib.items()):
        if entry.kind in checks:
            value = entry.value.obj if entry.kind == "pathobj" else entry.value
            library.append((f"check {name}", *checks[entry.kind], value))
    items = []
    for fuel in (pca.DEFAULT_FUEL, BIG_FUEL):
        tag = "default" if fuel == pca.DEFAULT_FUEL else "1e7"
        items += [
            (f"check_object1(P(Z2)) {tag}",
             lambda f=fuel: eff1.check_object1(bundle.obj, fuel=f),
             "unknown" if fuel == pca.DEFAULT_FUEL else "valid"),
            (f"check_morphism1(P(Z2).r) {tag}",
             lambda f=fuel: eff1.check_morphism1(bundle.r, fuel=f), "valid"),
            (f"check_morphism1(P(Z2).st) {tag}",
             lambda f=fuel: eff1.check_morphism1(bundle.st, fuel=f),
             "valid"),
            (f"check_fibration1(P(Z2).st) {tag}",
             lambda f=fuel: eff1.check_fibration1(bundle.st, bundle.witness,
                                                  fuel=f), "valid"),
            (f"check_morphism1(pr1) {tag}",
             lambda f=fuel: eff1.check_morphism1(pr1, fuel=f), "valid"),
            (f"check_morphism1(pr2) {tag}",
             lambda f=fuel: eff1.check_morphism1(pr2, fuel=f), "valid"),
            (f"check_object1(Z2) {tag}",
             lambda f=fuel: eff1.check_object1(z2, fuel=f), "valid"),
        ]
        items += [(f"{label} {tag}",
                   lambda m=mod, fn=fn, v=v, f=fuel: getattr(m, fn)(v, fuel=f),
                   "valid")
                  for label, mod, fn, v in library]
    items.append(("check_object1(Z2xZ2) default",
                  lambda: eff1.check_object1(prod), "valid"))
    return items


def check_run(items, rec):
    for _ in range(CHECK_PASSES):
        for label, thunk, want in items:
            rec.timed(label, thunk,
                      lambda v, want=want: (v.status == want,
                                            v.status == "unknown",
                                            v.status))


# --- machine --------------------------------------------------------------
# Seeded IFEQ lookup chains built with pca.enc (never tabulate, so they stay
# out of the table registry and every lookup runs on the raw machine), and
# lambda codes compiled from s-expressions.  Step counts are the raw
# machine's: 15*(rank+1)+1 for a key of rank `rank`, 15*n+1 off the domain.

CHAIN_SIZES = (16, 64, 128, 256)
MISSES_PER_CHAIN = 8
KEY_RANGE = 1 << 16

LAMBDAS = [
    ("(lambda (x) (SUCC (SUCC x)))", 1, lambda x: x + 2),
    ("(lambda (x y) (PAIR y x))", 2, lambda x, y: pca.cantor_pair(y, x)),
    ("(lambda (p) (PAIR (SND p) (FST p)))", 1,
     lambda p: pca.cantor_pair(*reversed(pca.cantor_unpair(p)))),
    ("(lambda (x y) (IFEQ x y 1 0))", 2, lambda x, y: int(x == y)),
    ("(lambda (x y z) (PAIR x (PAIR y z)))", 3,
     lambda x, y, z: pca.tuple_encode(x, y, z)),
    ("(lambda (x y) (K x y))", 2, lambda x, y: x),
]
INPUTS_PER_LAMBDA = 40


def chain_code(table: dict) -> int:
    """The IFEQ selector chain `tabulate` would build, without registering
    it: x |-> (IFEQ x key (K value) rest) x for keys in ascending order."""
    rest = pca.DIVERGE_C
    for key in sorted(table, reverse=True):
        sel = pca.enc(pca.S2, pca.enc(pca.S2, pca.IFEQ, pca.enc(pca.K1, key)),
                      pca.enc(pca.K1, pca.enc(pca.K1, table[key])))
        rest = pca.enc(pca.S2, pca.enc(pca.S2, sel, pca.enc(pca.K1, rest)),
                       pca.ID)
    return rest


def hit_steps(rank: int) -> int:
    return 15 * (rank + 1) + 1


def miss_steps(n: int) -> int:
    return 15 * n + 1


def machine_setup(seed):
    rng = random.Random(seed)
    calls, steps = [], 0   # (label, thunk, expected result), pinned steps
    for n in CHAIN_SIZES:
        keys = rng.sample(range(KEY_RANGE), n + MISSES_PER_CHAIN)
        keys, misses = keys[:n], keys[n:]
        table = {k: rng.randrange(KEY_RANGE) for k in keys}
        ordered = sorted(table)
        code = chain_code(table)
        for rank, key in enumerate(ordered):
            calls.append((f"chain{n}({key})",
                          lambda c=code, k=key: pca.apply(c, k), table[key]))
            steps += hit_steps(rank)
        for key in misses:
            calls.append((f"chain{n}({key}) off-domain",
                          lambda c=code, k=key: _diverges(c, k), True))
            steps += miss_steps(n)
        # fixed ranks, so the pinned step count does not depend on the seed
        for key, need in ((ordered[0], hit_steps(0)),
                          (ordered[n // 2], hit_steps(n // 2)),
                          (ordered[-1], hit_steps(n - 1)),
                          (misses[0], miss_steps(n))):
            calls.append((f"chain{n}({key}) fuel boundary {need}",
                          lambda c=code, k=key, s=need: _exact_steps(c, k, s),
                          True))
            steps += 2 * need - 1
    for text, arity, ref in LAMBDAS:
        code = fixture_io.compile_code(text)
        for _ in range(INPUTS_PER_LAMBDA):
            args = [rng.randrange(KEY_RANGE) for _ in range(arity)]
            if arity > 1 and rng.random() < 0.25:
                args[1] = args[0]
            thunk = (lambda c=code, a=args: pca.apply(c, a[0])) \
                if arity == 1 else \
                (lambda c=code, a=args: pca.apply_many(c, a))
            calls.append((f"{text} {args}", thunk, ref(*args)))
    # interleaved, so each kind of call is timed across the whole region
    # rather than in one stretch at one machine speed
    rng.shuffle(calls)
    return {"calls": calls, "steps": steps}


def machine_run(state, rec):
    for label, thunk, want in state["calls"]:
        rec.timed(label, thunk,
                  lambda v, w=want: (v == w, False, f"got {v!r}"))


def _diverges(code, key) -> bool:
    try:
        pca.apply(code, key)
    except pca.Diverges:
        return True
    return False


def _exact_steps(code, key, steps) -> bool:
    """Fuel `steps` completes (a value, or Diverges off the domain) and one
    step less runs out."""
    try:
        pca.apply(code, key, fuel=steps)
    except pca.Diverges:
        pass
    except pca.FuelExhausted:
        return False
    try:
        pca.apply(code, key, fuel=steps - 1)
    except pca.FuelExhausted:
        return True
    except pca.Diverges:
        return False
    return False


WORKLOADS = {
    "suite": (suite_setup, suite_run),
    "commands": (commands_setup, commands_run),
    "check": (check_setup, check_run),
    "machine": (machine_setup, machine_run),
}
