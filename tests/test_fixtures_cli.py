import hashlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import (
    HealthCheck, example, given, settings, strategies as st,
)

from effpath import (
    classify, cli, constructions, core, eff1, fixture_io, fixtures, path, pca,
)
from effpath.cli import main
from effpath.core import YES, Decision
from effpath.fixture_io import (
    FixtureError, compile_code, parse_fixture_text, serialize_fixture_file,
)
from effpath.fixtures import fixture_library, interval
from effpath.pca import DEFAULT_BUDGET


# --- code literals ----------------------------------------------------------

def test_raw_naturals_are_codes():
    assert compile_code(42) == 42
    with pytest.raises(FixtureError):
        compile_code(-1)


def test_lambda_sugar_compiles_to_the_identity():
    c = compile_code("(lambda (x) x)")
    for n in (0, 7, 1000):
        assert pca.apply(c, n) == n


def test_lambda_with_two_variables():
    c = compile_code("(lambda (x y) x)")
    assert pca.apply(pca.apply(c, 3), 9) == 3


def test_constant_symbols_apply():
    c = compile_code("(SUCC 4)")
    assert c == 5
    assert pca.apply(compile_code("SUCC"), 4) == 5


def test_table_literal():
    c = compile_code("(table (3 5) (4 6))")
    assert pca.apply(c, 3) == 5 and pca.apply(c, 4) == 6


def test_tuple_and_const_literals():
    assert compile_code("(tuple 1 2)") == pca.tuple_encode(1, 2)
    chain = int(pca.tabulate({0: 1}))
    assert compile_code("(tuple (table (0 1)) 2)") == \
        pca.tuple_encode(chain, 2)
    assert compile_code("(tuple 2 (table (0 1)))") == \
        pca.tuple_encode(2, chain)
    assert compile_code("(FST (table (0 1)))") == pca.cantor_unpair(chain)[0]
    assert compile_code("(SND (table (0 1)))") == pca.cantor_unpair(chain)[1]
    assert pca.apply(compile_code("(const 9)"), 123) == 9


def test_bad_literals_are_rejected():
    for text in ("(lambda (x) y)", "wat", "(", "())", "(table (1))"):
        with pytest.raises(FixtureError):
            compile_code(text)


def test_parse_errors_carry_position():
    with pytest.raises(FixtureError, match="line 1"):
        compile_code("(K 1")


# --- fixture files ----------------------------------------------------------

_DOC = {
    "format": 1,
    "objects": {
        "X": {
            "cells": ["a", "b"],
            "realizer": {"a": 0, "b": "(SUCC 0)"},
            "hom": {"a a": [0], "a b": [0], "b a": [0], "b b": [0]},
            "expect": {"valid": True},
            "note": "an interval with computed realizers",
        },
    },
    "morphisms": {
        "sw": {"dom": "X", "cod": "X",
               "zero_map": {"a": "b", "b": "a"}},
    },
}


def test_parse_and_resolve():
    ff = parse_fixture_text(json.dumps(_DOC))
    X = ff.resolve("X")
    assert X.realizer == {"a": 0, "b": 1}
    sw = ff.resolve("sw")
    assert sw.zero_map == {"a": "b", "b": "a"}
    assert ff.expectations["X"] == {"valid": True}


def test_round_trip_is_the_identity():
    ff = parse_fixture_text(json.dumps(_DOC))
    text = serialize_fixture_file(ff)
    ff2 = parse_fixture_text(text)
    assert ff2.spec == ff.spec
    assert serialize_fixture_file(ff2) == text


def test_malformed_json_reports_position():
    with pytest.raises(FixtureError, match="line"):
        parse_fixture_text('{"format": 1,,}')


def test_unknown_fields_are_rejected():
    bad = {"format": 1, "objects": {"X": {"cells": ["a"],
                                          "hom": {"a": [0]}}}}
    with pytest.raises(FixtureError, match="hom key"):
        parse_fixture_text(json.dumps(bad))


def test_wrong_version_is_rejected():
    with pytest.raises(FixtureError, match="format"):
        parse_fixture_text('{"format": 99}')


def test_untrackable_morphism_is_rejected():
    doc = {
        "format": 1,
        "objects": {
            "J": {"cells": ["a", "b"], "realizer": {"a": 0, "b": 0},
                  "hom": {"a a": [0], "b b": [0]}},
            "2": {"cells": ["a", "b"], "realizer": {"a": 0, "b": 1},
                  "hom": {"a a": [0], "b b": [0]}},
        },
        "morphisms": {
            "bad": {"dom": "J", "cod": "2",
                    "zero_map": {"a": "a", "b": "b"}},
        },
    }
    with pytest.raises(FixtureError, match="not trackable"):
        parse_fixture_text(json.dumps(doc))


_UNSYNTHESIZABLE = {
    "format": 1,
    "objects": {
        # both cells carry realizer 0, so one unit code must land in the
        # disjoint loops {1} and {2}
        "B": {"cells": ["x", "y"], "realizer": {"x": 0, "y": 0},
              "hom": {"x x": [1], "y y": [2]}},
    },
}


def test_unsynthesizable_object_is_rejected():
    with pytest.raises(FixtureError, match="object 'B'.*unit"):
        parse_fixture_text(json.dumps(_UNSYNTHESIZABLE))


def test_level_one_objects_parse():
    doc = {"format": 1,
           "objects": {"X": {"cells": ["a"], "realizer": {"a": 3},
                             "hom": {"a a": [0]}, "level": 1}}}
    ff = parse_fixture_text(json.dumps(doc))
    X = ff.objects1["X"]
    assert X.hom2_of("a", "a", 0, 0)


# --- the shipped library ----------------------------------------------------

def test_library_ships_the_expected_names():
    lib = fixture_library()
    for name in ("I", "J", "0", "1", "2", "N5", "E2I", "L", "U",
                 "P(I)", "P(J)", "P(2)", "eff1:I", "eff1:J", "eff1:Z2",
                 "eff1:E2I", "eff1:I->1", "eff1:Z2->1"):
        assert name in lib, name
        assert lib[name].expect, name
        assert lib[name].note != "" or name.endswith("->1")


def test_library_fibrations_sit_over_the_library_objects():
    lib = fixture_library()
    for name in ("Z2", "N5", "I"):
        f = lib[f"eff1:{name}->1"].value
        assert f.dom is lib[f"eff1:{name}"].value, name


def test_naming_a_fixture_builds_only_that_fixture(monkeypatch):
    builds = []
    for fn in (core.make_object, eff1.make_object1):
        def spy(*args, fn=fn, **kwargs):
            builds.append(fn.__name__)
            return fn(*args, **kwargs)
        for module in (core, path, constructions, classify, eff1, fixtures,
                       fixture_io, cli):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, spy)
    # the inflated interval: one level-0 build, and no Z/2
    assert main(["eff1-check-object", "eff1:I"], out=io.StringIO()) == 0
    assert builds == ["make_object"]
    # entries over one fixture share its instance
    lib = fixture_library()
    assert lib["P(I)"].value.r.dom is lib["I"].value
    assert builds.count("make_object1") == 0


# --- the command line -------------------------------------------------------

def _run(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


def test_check_object_command():
    rc, text = _run(["check-object", "I"])
    assert rc == 0 and "valid" in text


def test_a_command_builds_only_the_library_entries_it_names(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("built a library entry no target names")
    # where they are defined and where the library binds them
    for target in ("effpath.path.path_object", "effpath.fixtures.path_object",
                   "effpath.eff1.z2_object", "effpath.fixtures.z2_object"):
        monkeypatch.setattr(target, refuse)
    rc, text = _run(["check-object", "I"])
    assert rc == 0 and "valid" in text


def test_the_budget_default_is_the_library_default(monkeypatch):
    budgets = []

    def record(f):
        budgets.append(pca.budget_now())
        return Decision(YES)
    monkeypatch.setattr(cli, "is_equivalence_decide", record)
    for argv in (["equivalence", "I"], ["eff1-equivalence", "eff1:I"]):
        assert _run(argv)[0] == 0, argv
    assert budgets == [DEFAULT_BUDGET, DEFAULT_BUDGET]


def test_tiny_fuel_reports_unknown():
    rc, text = _run(["check-object", "I", "--fuel", "1"])
    assert rc == 3 and "unknown" in text


def test_unknown_fixture_is_a_config_error():
    rc, _text = _run(["check-object", "nope"])
    assert rc == 2


def test_level_guard_on_prefixed_commands():
    rc, _text = _run(["eff1-check-object", "I"])
    assert rc == 2
    rc, text = _run(["eff1-check-object", "eff1:I"])
    assert rc == 0 and "valid" in text


def test_malformed_file_is_a_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc, _text = _run(["check-object", "X", "--fixtures", str(p)])
    assert rc == 2


def test_a_fixture_path_reaches_only_its_own_call(tmp_path):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(_DOC))
    assert _run(["homotopic", "sw", "sw", "--fixtures", str(p)])[0] == 0
    assert _run(["homotopic", "sw", "sw"]) == (2, "")


def test_file_fixtures_resolve(tmp_path):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(_DOC))
    rc, text = _run(["check-morphism", f"{p}#sw"])
    assert rc == 0 and "valid" in text
    rc, text = _run(["homotopic", "sw", "sw", "--fixtures", str(p)])
    assert rc == 0 and "yes" in text


def test_decision_commands():
    rc, text = _run(["discrete", "J"])
    assert rc == 0 and ": no" in text
    rc, text = _run(["hlevel", "J", "--n", "0"])
    assert rc == 0 and "verified" in text
    rc, text = _run(["hlevel", "J", "--n", "-1"])
    assert rc == 0 and "refuted" in text
    rc, text = _run(["equivalence", "E2I"])
    assert rc == 0 and ": no" in text
    rc, text = _run(["transport", "E2I"])
    assert rc == 0 and ": yes" in text
    rc, text = _run(["resize", "L"])
    assert rc == 0 and ": yes" in text
    rc, text = _run(["classify", "L"])
    assert rc == 0 and ": yes" in text
    rc, text = _run(["classify", "E2I"])
    assert rc == 0 and ": no" in text  # two points per fibre


def test_a_verified_hlevel_says_why():
    for argv in (["hlevel", "I", "--n", "-2"], ["hlevel", "J", "--n", "0"],
                 ["eff1-hlevel", "eff1:I", "--n", "-2"],
                 ["eff1-hlevel", "eff1:J->1", "--n", "0"]):
        rc, text = _run(argv + ["--format", "json"])
        [report] = json.loads(text)
        assert rc == 0 and report["status"] == "verified", argv
        assert not report["detail"].endswith(": "), argv


def test_decisions_about_fibrations_refuse_a_map_that_is_not_one(tmp_path):
    # the point into one cell with loops {0, 1}: the loop 1 has no lift
    doc = {"format": 1,
           "objects": {"P": {"cells": ["p"], "realizer": {"p": 0},
                             "hom": {"p p": [0]}},
                       "Lp": {"cells": ["l"], "realizer": {"l": 0},
                              "hom": {"l l": [0, 1]}}},
           "morphisms": {"m": {"dom": "P", "cod": "Lp",
                               "zero_map": {"p": "l"}}}}
    p = tmp_path / "F.json"
    p.write_text(json.dumps(doc))
    m = f"{p}#m"
    for argv, status in ((["check-fibration", m], "no"),
                         (["hlevel", m, "--n", "-2"], "refuted"),
                         (["hlevel", m, "--n", "-1"], "refuted"),
                         (["discrete", m], "no")):
        rc, text = _run(argv + ["--format", "json"])
        [report] = json.loads(text)
        assert report["status"] == status, argv


def test_truncating_a_map_that_is_not_a_fibration_is_refuted(tmp_path):
    # the point p of a two-cell object: the 1-cell p -> q has no lift
    objects = {"X": {"cells": ["a"], "realizer": {"a": 0},
                     "hom": {"a a": [0]}},
               "Y": {"cells": ["p", "q"], "realizer": {"p": 0, "q": 1},
                     "hom": {f"{x} {y}": [0] for x in "pq" for y in "pq"}}}
    for level, runs in ((0, [["truncate", "-1"]]),
                        (1, [["eff1-truncate", "-1"],
                             ["eff1-truncate", "0"]])):
        doc = {"format": 1,
               "objects": {k: {**v, "level": level}
                           for k, v in objects.items()},
               "morphisms": {"f": {"dom": "X", "cod": "Y", "level": level,
                                   "zero_map": {"a": "p"}}}}
        p = tmp_path / f"T{level}.json"
        p.write_text(json.dumps(doc))
        for cmd, n in runs:
            rc, text = _run([cmd, f"{p}#f", "--n", n, "--format", "json"])
            [report] = json.loads(text)
            assert rc == 0 and report["status"] == "refuted", (cmd, n)


def test_pi_projection_lies_over_the_first_component(tmp_path):
    # A has a (realizer 1, loop 0) and b (realizer 0, loops 0 and 2); the
    # two 1-cells of Pi at b lie over the loops 0 and 2, so its projection
    # is a fibration only if it sends each to its own loop
    objects = {"A": {"cells": ["a", "b"], "realizer": {"a": 1, "b": 0},
                     "hom": {"a a": [0], "b b": [0, 2]}},
               "B": {"cells": ["a"], "realizer": {"a": 0},
                     "hom": {"a a": [2]}},
               "C": {"cells": ["a"], "realizer": {"a": 1},
                     "hom": {"a a": [0]}}}
    morphisms = {"f": {"dom": "B", "cod": "A", "zero_map": {"a": "a"}},
                 "g": {"dom": "C", "cod": "B", "zero_map": {"a": "a"}}}
    for level, cmd in ((0, "pi"), (1, "eff1-pi")):
        doc = {"format": 1,
               "objects": {k: {**v, "level": level}
                           for k, v in objects.items()},
               "morphisms": {k: {**v, "level": level}
                             for k, v in morphisms.items()}}
        p = tmp_path / f"Pi{level}.json"
        p.write_text(json.dumps(doc))
        for targets in ([f"{p}#f", f"{p}#g"], [f"{p}#f"]):
            rc, text = _run([cmd, *targets, "--format", "json"])
            [report] = json.loads(text)
            assert (rc, report["status"]) == (0, "yes"), (cmd, targets)
            assert report["detail"] == \
                "2 sections; projection fibration: yes", (cmd, targets)


def test_pi_over_realizer_twins_in_the_base_reports_no(tmp_path):
    # a and b share realizer 0 in A and in B; the Pi cells over them come
    # from different fibres' tracking tables, so at level 0 the projection
    # is not a fibration and at level 1 the pullback along it has no
    # uniform inverse code
    A = {"cells": ["a", "b"], "realizer": {"a": 0, "b": 0},
         "hom": {"a a": [1, 2], "a b": [0, 1, 2], "b a": [0, 2],
                 "b b": [0, 2]}}
    objects = {"A": A, "B": dict(A, hom=dict(A["hom"], **{"a a": [0, 1]}))}
    want = {0: "2 sections; projection fibration: no",
            1: "no uniform inverse code"}
    for level, cmd in ((0, "pi"), (1, "eff1-pi")):
        doc = {"format": 1,
               "objects": {k: {**v, "level": level}
                           for k, v in objects.items()},
               "morphisms": {"f": {"dom": "B", "cod": "A", "level": level,
                                   "zero_map": {"a": "a", "b": "b"}}}}
        p = tmp_path / f"Twins{level}.json"
        p.write_text(json.dumps(doc))
        rc, text = _run([cmd, f"{p}#f", "--format", "json"])
        [report] = json.loads(text)
        assert (rc, report["status"], report["detail"]) == \
            (0, "no", want[level]), cmd


def test_pi_of_three_cells_over_the_point_is_quick(tmp_path):
    # Pi's cell realizers once packed the section's tracking chains, and
    # the evaluation pullback encoded them again: this case took minutes
    X = {"cells": ["c0", "c1", "c2"],
         "realizer": {"c0": 0, "c1": 1, "c2": 0},
         "hom": {"c0 c0": [0, 1, 2], "c0 c1": [1, 2], "c0 c2": [0, 2],
                 "c1 c0": [1], "c1 c1": [0, 1], "c1 c2": [0, 1, 2],
                 "c2 c0": [0], "c2 c1": [2], "c2 c2": [0]}, "level": 1}
    Y = {"cells": ["*"], "realizer": {"*": 1}, "hom": {"* *": [1]},
         "level": 1}
    doc = {"format": 1, "objects": {"X": X, "Y": Y},
           "morphisms": {"m": {"dom": "X", "cod": "Y", "level": 1,
                               "zero_map": dict.fromkeys(X["cells"], "*")}}}
    p = tmp_path / "Three.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    rc, text = _run(["eff1-pi", f"{p}#m", "--budget", "10"])
    assert time.perf_counter() - start < 5
    assert (rc, text) == (
        0, f"pi {p}#m: yes  (1 sections; projection fibration: yes)\n")


def test_pi_of_a_map_with_realizer_twins_is_taken_of_its_standard_form(
        tmp_path, capsys):
    # g sends two cells of realizer 0 to the one cell of B; Pi of g itself
    # has no structure codes, Pi of its standard form has one section
    objects = {"A": {"cells": ["a"], "realizer": {"a": 1},
                     "hom": {"a a": [2]}},
               "B": {"cells": ["a"], "realizer": {"a": 0},
                     "hom": {"a a": [1]}},
               "C": {"cells": ["a", "b"], "realizer": {"a": 0, "b": 0},
                     "hom": {"a a": [0, 1, 2], "a b": [0, 2],
                             "b a": [1, 2], "b b": [0, 2]}}}
    morphisms = {"f": {"dom": "B", "cod": "A", "zero_map": {"a": "a"}},
                 "g": {"dom": "C", "cod": "B",
                       "zero_map": {"a": "a", "b": "a"}},
                 "h": {"dom": "C", "cod": "C",
                       "zero_map": {"a": "a", "b": "a"}}}
    for level, cmd in ((0, "pi"), (1, "eff1-pi")):
        doc = {"format": 1,
               "objects": {k: {**v, "level": level}
                           for k, v in objects.items()},
               "morphisms": {k: {**v, "level": level}
                             for k, v in morphisms.items()}}
        p = tmp_path / f"Twins{level}.json"
        p.write_text(json.dumps(doc))
        rc, text = _run([cmd, f"{p}#f", f"{p}#g", "--format", "json"])
        [report] = json.loads(text)
        assert (rc, report["status"], report["detail"]) == \
            (0, "yes", "1 sections; projection fibration: yes"), cmd
        # a second target that is not a fibration is a usage error
        assert _run([cmd, f"{p}#f", f"{p}#h"])[0] == 2, cmd
        assert "#h is not a fibration" in capsys.readouterr().err, cmd


def test_construction_commands():
    rc, text = _run(["path-object", "2"])
    assert rc == 0 and "2 cells" in text
    rc, text = _run(["pullback", "E2I", "E2I"])
    assert rc == 0 and "valid" in text
    rc, text = _run(["exp-j", "2"])
    assert rc == 0 and "valid" in text
    rc, text = _run(["pi", "E2I"])
    assert rc == 0 and "fibration: yes" in text
    rc, text = _run(["truncate", "J", "--n", "-1"])
    assert rc == 0 and "verified" in text


def test_suite_subset_passes():
    rc, text = _run(["suite", "I", "J", "U", "P(2)"])
    assert rc == 0
    assert "fail" not in text
    assert text.count("pass") >= 10


# `effpath suite --all --format json`: every expectation of the shipped
# library, byte for byte as the benchmark's suite workload pins it
SUITE_ROWS = 102
SUITE_DIGEST = \
    "10d12df3e575976cc8dfc1b3b3c3d4427dca33a1e08cf30650224d36657eb42a"


def test_the_full_suite_report_is_pinned():
    rc, text = _run(["suite", "--all", "--format", "json"])
    rows = json.loads(text)
    assert rc == 0 and len(rows) == SUITE_ROWS
    assert [r["target"] for r in rows if r["status"] != "pass"] == []
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGEST


def test_fuel_running_out_in_the_suite_leaves_every_row():
    rc, text = _run(["suite", "--all", "--fuel", "0", "--format", "json"])
    rows = json.loads(text)
    assert rc == 3 and len(rows) == SUITE_ROWS
    assert any(r["detail"].endswith("fuel 0 exhausted") for r in rows)


def test_fuel_running_out_in_the_suite_keeps_the_decided_rows():
    rc, text = _run(["suite", "eff1:I", "--fuel", "50", "--format", "json"])
    rows = json.loads(text)
    expected = fixture_library()["eff1:I"].expect
    assert rc == 3
    assert [r["target"] for r in rows] == [f"eff1:I {k}"
                                           for k in sorted(expected)]
    statuses = {r["status"] for r in rows}
    assert "pass" in statuses and "unknown" in statuses
    assert all(r["detail"].endswith("fuel 50 exhausted")
               for r in rows if r["status"] == "unknown")


def test_suite_rejects_unknown_names():
    rc, _text = _run(["suite", "wat"])
    assert rc == 2


def test_bad_input_is_a_config_error(tmp_path):
    p = tmp_path / "b.json"
    p.write_text(json.dumps(_UNSYNTHESIZABLE))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"format": 1, "objects": {"\xe9": {}}}')
    unreadable = [str(tmp_path), str(latin), str(tmp_path / "missing.json")]
    for argv in (*(["check-object", f"{q}#B"] for q in unreadable),
                 *(["check-object", "I", "--fixtures", q] for q in unreadable),
                 ["check-object", "B", "--fixtures", str(p)],
                 ["hlevel", "J", "--n", "-7"],
                 ["check-object", "I", "--fuel", "-5"],
                 ["equivalence", "E2I", "--budget", "-3"],
                 ["hlevel", "J", "--n", "1", "--depth", "-1"],
                 ["homotopic", "I", "0"],
                 ["eff1-homotopic", "eff1:I", "eff1:J"],
                 ["pi", "I", "I"],
                 ["pi", "1", "1", "no-such-name"],
                 ["eff1-pi", "eff1:I->1", "eff1:2"],
                 ["eff1-truncate", "eff1:J->1", "--n", "1"],
                 ["suite", "I", "--jobs", "4"]):
        rc, text = _run(argv)
        assert rc == 2 and text == "", argv


@pytest.mark.parametrize("argv", [
    ["univalence", "L", "L", "L"],
    ["resize", "E2I"],
    ["eff1-univalence", "eff1:E2I", "eff1:E2I", "eff1:E2I"],
    ["eff1-resize", "eff1:E2I"],
])
def test_input_outside_a_normal_form_is_reported(argv):
    rc, text = _run(argv + ["--format", "json"])
    reports = json.loads(text)
    assert rc == 0 and [r["status"] for r in reports] == ["no"]


def test_equivalence_budget_reaches_both_levels():
    for target in ("I", "eff1:I"):
        rc, text = _run(["equivalence", target, "--budget", "0"])
        assert rc == 3 and "budget" in text, target


@pytest.mark.parametrize("argv", [["equivalence", "E2I"],
                                  ["eff1-equivalence", "eff1:E2I"]])
def test_both_levels_prune_the_inverse_search_alike(argv):
    # an inverse must send each base point to a cell that both cells over it
    # connect to, and those two lie in different components of E2I, so no
    # cell map is tried
    rc, text = _run(argv + ["--format", "json"])
    assert rc == 0
    assert [(r["status"], r["detail"]) for r in json.loads(text)] == \
        [("no", "no homotopy inverse among 0 cell maps")]


@pytest.mark.parametrize("argv, reason", [
    (["hlevel", "I", "--n", "-2", "--budget", "0"], "budget 0 exhausted"),
    (["eff1-homotopic", "eff1:E2I", "eff1:E2I", "--budget", "0"],
     "budget 0 exhausted"),
    (["classify", "L", "--budget", "0"], "budget 0 exhausted"),
    (["truncate", "J", "--n", "-1", "--depth", "0"],
     "path object has 4 cells"),
    (["homotopic", "E2I", "E2I", "--budget", "0"], "budget 0 exhausted"),
])
def test_the_search_limits_reach_every_command(argv, reason):
    # each of these is decided at the default limits; the limit is read where
    # the search or the path object is, whichever command reaches it
    rc, text = _run(argv + ["--format", "json"])
    assert rc == 3, argv
    assert [(r["status"], r["detail"]) for r in json.loads(text)] == \
        [("unknown", reason)]


def test_a_sub_search_that_runs_out_is_never_a_no(monkeypatch):
    def run_out(f, g):
        raise pca.LimitReached("budget 0 exhausted")
    monkeypatch.setattr(path, "_homotopic", run_out)
    f = eff1.terminal_map1(eff1.inflate(interval()))
    d = path.is_equivalence_decide(f)
    assert (d.status, d.reason) == ("unknown", "budget 0 exhausted")
    rc, text = _run(["eff1-pi", "eff1:2->1", "--format", "json"])
    assert rc == 3
    assert [(r["status"], r["detail"]) for r in json.loads(text)] == \
        [("unknown", "budget 0 exhausted")]


def test_low_fuel_on_dependent_values_reports_unknown():
    rc, text = _run(["check-morphism", "eff1:E2I", "--fuel", "50"])
    assert rc == 3 and "unknown" in text


@pytest.mark.parametrize("argv", [
    ["eff1-equivalence", "eff1:I", "--fuel", "0"],
    ["transport", "I", "--fuel", "0"],
    ["eff1-exp-j", "eff1:I", "--fuel", "7"],
    ["truncate", "J", "--n", "-1", "--fuel", "0"],
    ["eff1-truncate", "eff1:I", "--n", "0", "--fuel", "0"],
    ["hlevel", "I", "--n", "1", "--fuel", "7"],
    ["eff1-hlevel", "eff1:I", "--n", "0", "--fuel", "0"],
    ["eff1-discrete", "eff1:I", "--fuel", "7"],
    ["classify", "L", "--fuel", "7"],
    ["eff1-classify", "eff1:0->1", "--fuel", "0"],
    ["eff1-univalence", "eff1:I", "eff1:0->1", "eff1:0->1", "--fuel", "0"],
    ["eff1-resize", "eff1:I", "--fuel", "7"],
    # these build their objects under the same limit as their checks
    ["pi", "E2I", "--fuel", "0"],
    ["eff1-pi", "eff1:2->1", "--fuel", "0"],
    ["path-object", "I", "--fuel", "0"],
    ["eff1-path-object", "eff1:I", "--fuel", "0"],
    ["eff1-homotopic", "eff1:E2I", "eff1:E2I", "--fuel", "0"],
])
def test_fuel_running_out_in_a_construction_is_one_unknown_report(argv):
    rc, text = _run(argv + ["--format", "json"])
    reports = json.loads(text)
    assert rc == 3 and [r["status"] for r in reports] == ["unknown"]
    assert reports[0]["detail"] == f"fuel {argv[argv.index('--fuel') + 1]} " \
        "exhausted"
    assert reports[0]["command"] == argv[0].removeprefix("eff1-")


def test_json_reports_are_deterministic():
    rc1, t1 = _run(["suite", "I", "U", "--format", "json"])
    rc2, t2 = _run(["suite", "I", "U", "--format", "json"])
    assert rc1 == rc2 == 0
    assert t1 == t2
    data = json.loads(t1)
    assert all(r["status"] == "pass" for r in data)


# --- fuzz: small fixture documents through the command line -----------------

_CELLS = ("a", "b", "c")


def _sexp(children):
    body = st.one_of(children, st.just("x"),
                     children.map(lambda c: f"({c} x)"))
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(
            lambda xs: "(" + " ".join(xs) + ")"),
        body.map(lambda b: f"(lambda (x) {b})"),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                 max_size=3).map(lambda kv: "(table " + " ".join(
                     f"({k} {v})" for k, v in kv) + ")"),
        st.lists(children, min_size=1, max_size=3).map(
            lambda xs: "(" + " ".join(["tuple", *xs]) + ")"),
        st.integers(0, 9).map(lambda n: f"(const {n})"),
    )


# closed code literals: naturals and s-expressions over the machine basis
_LITERALS = st.one_of(
    st.integers(0, 9),
    st.recursive(st.sampled_from(["0", "1", "2", "K", "S", "PAIR", "FST",
                                  "SND", "SUCC", "IFEQ", "DIVERGE", "ID"]),
                 _sexp, max_leaves=5))
_BAD_LITERALS = st.sampled_from(
    [-1, "wat", "x", "(", ")", "()", "(K", "(tuple)", "(const)",
     "(lambda x x)", "(table (1))", 2.5, None, [1]])
_JUNK = st.sampled_from([None, 5, "a", [1], {"a": 1}, 2.5, True])


@st.composite
def _documents(draw):
    """One or two objects of at most three cells and two morphisms m and n,
    with at most one fault: a bad code literal, a name of no cell or object, or a
    field replaced by a JSON value of the wrong shape."""
    objects = {}
    for name in draw(st.lists(st.sampled_from(["X", "Y"]), min_size=1,
                              max_size=2, unique=True)):
        cells = draw(st.lists(st.sampled_from(_CELLS), min_size=1,
                              max_size=3, unique=True))
        pairs = [f"{a} {b}" for a in cells for b in cells]
        codes = st.lists(_LITERALS, min_size=1, max_size=2)
        if draw(st.booleans()):  # every pair connected by 0: synthesizable
            hom = dict.fromkeys(pairs, [0])
        else:
            hom = {f"{c} {c}": [0] for c in cells}
            hom.update(draw(st.dictionaries(st.sampled_from(pairs), codes,
                                            max_size=3)))
        doc = {"cells": cells,
               "realizer": draw(st.dictionaries(
                   st.sampled_from(cells),
                   st.one_of(st.integers(0, 3), _LITERALS), max_size=3)),
               "hom": hom,
               "level": draw(st.sampled_from([0, 1]))}
        if doc["level"] and draw(st.booleans()):
            doc["hom2"] = draw(st.dictionaries(
                st.builds(lambda k, p, q: f"{k} {p} {q}",
                          st.sampled_from(sorted(hom)),
                          st.integers(0, 3), st.integers(0, 3)),
                codes, max_size=3))
        objects[name] = doc
    names = sorted(objects)
    morphisms = {}
    for name in ("m", "n"):
        dom, cod = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        morphisms[name] = {
            "dom": dom, "cod": cod,
            "zero_map": {c: draw(st.sampled_from(objects[cod]["cells"]))
                         for c in objects[dom]["cells"]},
            "level": objects[dom]["level"]}
    m = morphisms["m"]
    doc = {"format": 1, "objects": objects, "morphisms": morphisms}
    X = objects[names[0]]
    fault = draw(st.sampled_from(
        [None, None, None, "literal", "name", "shape"]))
    if fault == "literal":
        X["realizer"][X["cells"][0]] = draw(_BAD_LITERALS)
    elif fault == "name":
        where = draw(st.sampled_from(["hom", "hom2", "dom", "zero_map"]))
        if where == "hom":
            X["hom"]["a d"] = [0]
        elif where == "hom2":
            X.setdefault("hom2", {})["a d 0 0"] = [0]
        elif where == "dom":
            m["dom"] = "Z"
        else:
            m["zero_map"]["a"] = "d"
    elif fault == "shape":
        holder, key = draw(st.sampled_from([
            (doc, "objects"), (doc, "morphisms"), (objects, names[0]),
            (X, "cells"), (X, "realizer"), (X, "hom"), (X, "hom2"),
            (X, "level"), (X["hom"], next(iter(X["hom"]))),
            (doc["morphisms"], "m"), (m, "dom"), (m, "zero_map"),
            (m, "level")]))
        holder[key] = draw(_JUNK)
    return doc


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(_documents(), st.sampled_from([[], ["--fuel", "40"]]))
@example({"format": 1, "objects": {"X": {"cells": ["a"],
                                          "hom": {"a a": 5}}}}, [])
@example({"format": 1, "objects": {"X": {"cells": ["a"], "level": "a"}},
          "morphisms": None}, [])
@example({"format": 1, "objects": {"X": {"cells": ["a"],
                                          "realizer": {"a": "(tuple)"}}}},
         [])
@example({"format": 1, "objects": {"X": {
    "cells": ["a"], "realizer": {"a": "(FST (table (0 1)))"}}}}, [])
@example({"format": 1, "objects": {"X": {
    "cells": ["a"], "realizer": {"a": "(tuple (table (0 1)) 2)"}}}}, [])
def test_fixture_documents_end_in_a_report_or_exit_2(doc, fuel):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        try:
            prefix = "eff1-" if doc["morphisms"]["m"]["level"] == 1 else ""
        except (KeyError, TypeError):
            prefix = ""
        for argv in (["check-object", f"{path}#X", *fuel],
                     ["check-object", f"{path}#Y", *fuel],
                     ["check-morphism", f"{path}#m", *fuel],
                     [f"{prefix}truncate", f"{path}#m", "--n", "-1", *fuel],
                     [f"{prefix}hlevel", f"{path}#m", "--n", "-1", *fuel],
                     [f"{prefix}pi", f"{path}#m", f"{path}#n", *fuel]):
            rc, _text = _run(argv)
            assert rc in (0, 1, 2, 3), argv


# --- argv fuzz --------------------------------------------------------------

# library names at each level; eff1:Z2 and eff1:Z2->1 are left out only
# because their constructions take seconds per example
_LEVELS = {prefix: sorted(n for n in fixture_library()
                          if n.startswith("eff1:") == bool(prefix)
                          and "Z2" not in n)
           for prefix in ("", "eff1-")}


@st.composite
def _argv(draw):
    """A handler at either level, library targets of that level, and the
    budget flags, each absent or drawn with small values (fuel 0
    included)."""
    cmd = draw(st.sampled_from(sorted(cli._HANDLERS)))
    prefix = draw(st.sampled_from(sorted(_LEVELS)))
    arity = cli._HANDLERS[cmd][1]
    if cmd == "pi":
        arity = draw(st.integers(1, 2))
    argv = [prefix + cmd, *draw(st.lists(st.sampled_from(_LEVELS[prefix]),
                                         min_size=arity, max_size=arity))]
    if cmd in ("truncate", "hlevel"):
        argv += ["--n", str(draw(st.integers(-3, 2)))]
    for flag, values in (("--fuel", [0, 1, 7, 50, 500]),
                         ("--budget", [0, 1, 3]), ("--depth", [0, 7, 30])):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            argv += [flag, str(value)]
    return argv


@settings(deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
@example(["eff1-hlevel", "eff1:I", "--n", "0", "--fuel", "0"])
@example(["transport", "I", "--fuel", "0"])
def test_any_argv_ends_in_an_exit_code(argv):
    rc, _text = _run(argv)
    assert rc in (0, 1, 2, 3), argv
