"""Command-line front end: run checks and constructions on shipped or
file-based fixtures and emit deterministic reports.

Exit codes: 0 all checks met, 1 some check failed, 2 parse/configuration
error, 3 at least one UNKNOWN verdict (and nothing failed outright).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .pca import (
    DEFAULT_BUDGET, DEFAULT_DEPTH, DEFAULT_FUEL, LimitReached, budget_limit,
    depth_limit, fuel_limit,
)
from .core import (
    NO, UNKNOWN, YES, Decision, EffMorphism, EffObject, MapsDoNotFit,
    SynthesisFailed, check_morphism, check_object, identity,
)
from .path import (
    fibration_decide, homotopic_decide, is_equivalence_decide,
    is_trivial_fibration, path_object, pullback,
    synthesize_fibration_witness, terminal_map,
)
from .classify import (
    NotNormalized, classify_prop_discrete, discrete_decide, hlevel_check,
    is_standard_discrete, prop_truncate, resize, u_one_cell,
    univalence_check_prop,
)
from .constructions import hexp_J, pi_type, transport_properties_check
from .eff1 import (
    Eff1Morphism, Eff1Object, classify_discrete_set, truncate1,
    two_homotopic_decide, univalence_check_set, z2_homotopies, z2_twist,
)
from .fixtures import fixture_library
from .fixture_io import FixtureError, parse_fixture_file

class ConfigError(Exception):
    pass


def _is_level1(x) -> bool:
    return isinstance(x, (Eff1Object, Eff1Morphism))


class Resolver:
    def __init__(self, paths):
        self.library = fixture_library()
        self.files = {p: parse_fixture_file(p) for p in paths}

    def get(self, target: str):
        if "#" in target:
            path, _, name = target.partition("#")
            if path not in self.files:
                self.files[path] = parse_fixture_file(path)
            return self.files[path].resolve(name)
        if target in self.library:
            return self.library[target].value
        for ff in self.files.values():
            try:
                return ff.resolve(target)
            except FixtureError:
                pass
        raise ConfigError(f"unknown fixture {target!r}")

    def morphism(self, target: str):
        v = self.get(target)
        if isinstance(v, (EffMorphism, Eff1Morphism)):
            return v
        if isinstance(v, (EffObject, Eff1Object)):
            return terminal_map(v)
        raise ConfigError(f"{target!r} is not a morphism")

    def obj(self, target: str):
        v = self.get(target)
        if not isinstance(v, (EffObject, Eff1Object)):
            raise ConfigError(f"{target!r} is not an object")
        return v


def _report(command, target, status, detail=""):
    return {"command": command, "target": target, "status": status,
            "detail": detail}


def _all_of(decisions) -> str:
    """yes if every decision is, unknown if one is, otherwise no."""
    statuses = [d.status for d in decisions]
    return (YES if all(s == YES for s in statuses)
            else UNKNOWN if UNKNOWN in statuses else NO)


# --- command handlers --------------------------------------------------------

def _cmd_check_object(rs, args):
    v = check_object(rs.obj(args.targets[0]))
    return [_report("check-object", args.targets[0], v.status, v.reason)]


def _cmd_check_morphism(rs, args):
    v = check_morphism(rs.morphism(args.targets[0]))
    return [_report("check-morphism", args.targets[0], v.status, v.reason)]


def _cmd_check_fibration(rs, args):
    d = fibration_decide(rs.morphism(args.targets[0]))
    return [_report("check-fibration", args.targets[0], d.status, d.reason)]


def _cmd_pullback(rs, args):
    f, g = rs.morphism(args.targets[0]), rs.morphism(args.targets[1])
    pb = pullback(f, g)
    v = check_object(pb.obj)
    return [_report("pullback", " ".join(args.targets[:2]), v.status,
                    f"{len(pb.obj.cells)} cells")]


def _cmd_path_object(rs, args):
    b = path_object(rs.obj(args.targets[0]))
    d = fibration_decide(b.st)
    return [_report("path-object", args.targets[0], d.status,
                    f"{len(b.obj.cells)} cells; endpoint projection "
                    f"fibration: {d.status}")]


def _cmd_homotopic(rs, args):
    f, g = rs.morphism(args.targets[0]), rs.morphism(args.targets[1])
    d = homotopic_decide(f, g)
    return [_report("homotopic", " ".join(args.targets[:2]), d.status,
                    d.reason)]


def _cmd_equivalence(rs, args):
    d = is_equivalence_decide(rs.morphism(args.targets[0]))
    return [_report("equivalence", args.targets[0], d.status, d.reason)]


def _cmd_transport(rs, args):
    f = rs.morphism(args.targets[0])
    if _is_level1(f):
        raise ConfigError("transport properties are a groupoid-level check")
    w = synthesize_fibration_witness(f)
    if w is None:
        return [_report("transport", args.targets[0], "no",
                        "not a fibration")]
    vs = transport_properties_check(f, w)
    return [_report("transport", args.targets[0], _all_of(vs),
                    "; ".join(v.status for v in vs))]


def _cmd_exp_j(rs, args):
    e = hexp_J(rs.obj(args.targets[0]))
    v = check_object(e.obj)
    return [_report("exp-j", args.targets[0], v.status,
                    f"{len(e.obj.cells)} cells")]


def _cmd_pi(rs, args):
    if len(args.targets) > 2:
        raise ConfigError("pi takes one or two targets")
    f = rs.morphism(args.targets[0])
    g = (rs.morphism(args.targets[1]) if len(args.targets) > 1
         else identity(f.dom))
    w = synthesize_fibration_witness(f)
    if w is None:
        raise ConfigError(f"{args.targets[0]} is not a fibration")
    if len(args.targets) > 1 and synthesize_fibration_witness(g) is None:
        raise ConfigError(f"{args.targets[1]} is not a fibration")
    target = " ".join(args.targets)
    if not is_standard_discrete(g):
        # realizer twins in a fibre of g can leave Pi without structure
        # codes; a discrete g is equivalent over its base to its standard
        # form, and Pi is taken of that
        d = discrete_decide(g)
        if d.status != YES:
            return [_report("pi", target, d.status,
                            f"{g.name} has realizer twins in a fibre; "
                            f"discrete: {d.status} ({d.reason})")]
        g = d.witness.standard
    try:
        pi = pi_type(f, w, g)
    except SynthesisFailed as e:
        # Pi, or the pullback its evaluation lives on, has no uniform
        # structure codes: realizer twins in the base can lift to Pi cells
        # with different realizers, one per fibre's tracking tables
        return [_report("pi", target, NO, f"no uniform {e.label} code")]
    d = fibration_decide(pi.proj)
    return [_report("pi", target, d.status,
                    f"{len(pi.obj.cells)} sections; projection "
                    f"fibration: {d.status}")]


def _cmd_truncate(rs, args):
    f = rs.morphism(args.targets[0])
    if _is_level1(f):
        if args.n not in (-1, 0):
            raise ConfigError("two-level truncation is materialized for "
                              "--n -1 and 0")
        tr = truncate1(f, args.n)
    else:
        if args.n != -1:
            raise ConfigError("groupoid-level truncation is propositional "
                              "(--n -1)")
        tr = prop_truncate(f)
    hv = hlevel_check(tr.h, args.n)
    return [_hlevel_report("truncate", args.targets[0], hv,
                           f"n={args.n}: truncation has hlevel {args.n}: "
                           f"{hv.status}")]


def _hlevel_report(command, target, hv, detail):
    """An UNKNOWN h-level reports only which budget ran out."""
    return _report(command, target, hv.status,
                   hv.reason if hv.status == UNKNOWN else detail)


def _cmd_hlevel(rs, args):
    f = rs.morphism(args.targets[0])
    hv = hlevel_check(f, args.n)
    return [_hlevel_report("hlevel", args.targets[0], hv,
                           f"n={args.n}: {hv.reason}")]


def _cmd_discrete(rs, args):
    f = rs.morphism(args.targets[0])
    d = discrete_decide(f)
    return [_report("discrete", args.targets[0], d.status, d.reason)]


def _cmd_classify(rs, args):
    f = rs.morphism(args.targets[0])
    w = synthesize_fibration_witness(f)
    if w is None:
        raise ConfigError(f"{args.targets[0]} is not a fibration")
    classify = (classify_discrete_set if _is_level1(f)
                else classify_prop_discrete)
    try:
        d = classify(f, w).comparison
    except NotNormalized as e:
        return [_report("classify", args.targets[0], "no", str(e))]
    # an UNKNOWN says which budget ran out
    return [_report("classify", args.targets[0], d.status,
                    d.reason if d.status == UNKNOWN else
                    f"recovered total space compares: {d.status}")]


def _cmd_univalence(rs, args):
    w = rs.morphism(args.targets[0])
    pf = rs.morphism(args.targets[1])
    pg = rs.morphism(args.targets[2])
    check = univalence_check_set if _is_level1(w) else univalence_check_prop
    target = " ".join(args.targets[:3])
    try:
        _H, d = check(w, pf, pg)
    except NotNormalized as e:
        return [_report("univalence", target, "no", str(e))]
    return [_report("univalence", target, d.status, d.reason)]


def _cmd_resize(rs, args):
    f = rs.morphism(args.targets[0])
    rsb = resize(f)
    return [_report("resize", args.targets[0], _all_of(rsb.laws),
                    f"{len(rsb.obj.cells)} cells; laws: "
                    + " ".join(d.status for d in rsb.laws)
                    + "".join(f"; {d.reason}" for d in rsb.laws if d.reason))]


_HANDLERS = {
    "check-object": (_cmd_check_object, 1),
    "check-morphism": (_cmd_check_morphism, 1),
    "check-fibration": (_cmd_check_fibration, 1),
    "pullback": (_cmd_pullback, 2),
    "path-object": (_cmd_path_object, 1),
    "homotopic": (_cmd_homotopic, 2),
    "equivalence": (_cmd_equivalence, 1),
    "transport": (_cmd_transport, 1),
    "exp-j": (_cmd_exp_j, 1),
    "pi": (_cmd_pi, 1),
    "truncate": (_cmd_truncate, 1),
    "hlevel": (_cmd_hlevel, 1),
    "discrete": (_cmd_discrete, 1),
    "classify": (_cmd_classify, 1),
    "univalence": (_cmd_univalence, 3),
    "resize": (_cmd_resize, 1),
}


# --- the suite runner --------------------------------------------------------

def _as_bool(status: str):
    if status in ("valid", "verified", "yes"):
        return True
    if status in ("invalid", "refuted", "no"):
        return False
    return None


def _entry_check(entry, key: str):
    """Run one declared expectation; returns its verdict, a Verdict,
    Decision or HlevelVerdict."""
    v = entry.value
    if entry.kind in ("object", "object1"):
        f = terminal_map(v)
        if key == "valid":
            return check_object(v)
        if key == "trivial_over_1":
            return is_trivial_fibration(f)
        if key == "discrete_over_1":
            return discrete_decide(f)
        if key in ("hlevel0", "set_over_1"):
            return hlevel_check(f, 0)
        if key == "groupoid_over_1":
            return hlevel_check(f, 1)
        if key == "twist_equivalence":
            return is_equivalence_decide(z2_twist(v))
        if key == "modifications_differ":
            wm = z2_twist(v)
            H, K = z2_homotopies(v, wm)
            d = two_homotopic_decide(identity(v), wm, H, K)
            return Decision({NO: YES, YES: NO}.get(d.status, d.status),
                            reason=d.reason)
    if entry.kind in ("fibration", "fibration1"):
        if key == "fibration":
            return fibration_decide(v)
        if key == "hlevel0":
            return hlevel_check(v, 0)
        if key == "groupoid_over_1":
            return hlevel_check(v, 1)
        if key == "propositional":
            return hlevel_check(v, -1)
        if key == "discrete":
            return discrete_decide(v)
        if key == "classifies":
            w = synthesize_fibration_witness(v)
            return classify_prop_discrete(v, w).comparison
    if entry.kind == "pathobj":
        if key == "valid":
            return check_object(v.obj)
        if key == "st_fibration":
            return fibration_decide(v.st)
        if key == "st_discrete":
            return discrete_decide(v.st)
    if entry.kind == "subsets":
        x, y = v
        if key == "reflexive":
            return Decision(YES if u_one_cell(x, x) is not None
                            and u_one_cell(y, y) is not None else NO)
        if key == "cross":
            return Decision(YES if u_one_cell(x, y) is not None
                            and u_one_cell(y, x) is not None else NO)
        if key == "empty_isolated":
            e = frozenset()
            return Decision(YES if u_one_cell(x, e) is None
                            and u_one_cell(y, e) is None else NO)
    raise ConfigError(f"{entry.name}: no check for expectation {key!r}")


def _run_suite(rs, args):
    lib = rs.library
    if args.targets:
        missing = [t for t in args.targets if t not in lib]
        if missing:
            raise ConfigError(f"unknown suite fixtures: {missing}")
        names = list(args.targets)
    else:
        names = sorted(lib)
    work = [(n, key, bool(want)) for n in names
            for key, want in sorted(lib[n].expect.items())]

    def run(item):
        n, key, want = item
        try:
            v = _entry_check(lib[n], key)
        except LimitReached as e:
            v = Decision(UNKNOWN, reason=str(e))
        got = _as_bool(v.status)
        outcome = ("unknown" if got is None
                   else "pass" if got == want else "fail")
        # an UNKNOWN says which budget ran out
        said = (v.reason if got is None and v.reason
                else f"checker said {v.status}")
        return _report("suite", f"{n} {key}", outcome,
                       f"expected {want}, {said}")

    return sorted(map(run, work), key=lambda r: r["target"])


# --- entry point -------------------------------------------------------------

def _int_at_least(low: int):
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return n
    return parse


@functools.cache  # once per process: parsing leaves the parser as it was
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="effpath",
        description="finite path-category checks over a combinator machine")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--fuel", type=_int_at_least(0), default=DEFAULT_FUEL)
        sp.add_argument("--budget", type=_int_at_least(0),
                        default=DEFAULT_BUDGET)
        sp.add_argument("--depth", type=_int_at_least(0),
                        default=DEFAULT_DEPTH,
                        help="cell bound on path objects")
        sp.add_argument("--format", choices=("json", "text"),
                        default="text")
        sp.add_argument("--fixtures", action="append", default=[],
                        metavar="PATH",
                        help="extra fixture files to resolve names in")

    for cmd, (_fn, arity) in _HANDLERS.items():
        for name in (cmd, f"eff1-{cmd}"):
            sp = sub.add_parser(name)
            sp.add_argument("targets", nargs="+" if cmd == "pi" else arity)
            if cmd in ("truncate", "hlevel"):
                sp.add_argument("--n", type=_int_at_least(-2),
                                required=True, dest="n")
            common(sp)
    sp = sub.add_parser("suite")
    sp.add_argument("targets", nargs="*")
    sp.add_argument("--all", action="store_true")
    common(sp)
    return ap


def _emit(reports, fmt, out):
    if fmt == "json":
        out.write(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    else:
        for r in reports:
            line = f"{r['command']} {r['target']}: {r['status']}"
            if r["detail"]:
                line += f"  ({r['detail']})"
            out.write(line + "\n")


def _exit_code(reports) -> int:
    statuses = [r["status"] for r in reports]
    if any(s in ("invalid", "fail") for s in statuses):
        return 1
    if any(s == "unknown" for s in statuses):
        return 3
    return 0


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    command = args.command
    base = command.removeprefix("eff1-")  # the name handlers report under
    # --fuel, --budget and --depth bound every application, search and path
    # object the command makes; its targets are inputs, built at the
    # default limits
    try:
        with fuel_limit(args.fuel), budget_limit(args.budget), \
                depth_limit(args.depth):
            try:
                rs = Resolver(args.fixtures)
                if command.startswith("eff1-") and not _is_level1(
                        rs.get(args.targets[0])):
                    raise ConfigError(
                        f"{args.targets[0]!r} is not a two-level fixture")
                reports = (_run_suite if command == "suite"
                           else _HANDLERS[base][0])(rs, args)
            except LimitReached as e:  # str(e) reads the limit in force
                reports = [_report(base, " ".join(args.targets), UNKNOWN,
                                   str(e))]
    except (FixtureError, ConfigError, MapsDoNotFit) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    reports = sorted(reports, key=lambda r: (r["command"], r["target"]))
    _emit(reports, args.format, out)
    return _exit_code(reports)


if __name__ == "__main__":
    raise SystemExit(main())
