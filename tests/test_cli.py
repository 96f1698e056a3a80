"""Exit codes, JSON shapes, and determinism of the command-line front end."""

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import formclass
from _helpers import clear_package_caches
from formclass import classgroup, congruence, suites
from formclass.cli import CELL_BUDGET, GROUPLAW_PASSES, SCAN_BUDGET, SUITES, _build_parser, _check_disc, _check_table
from formclass.cli import _plan, main
from formclass.congruence import ClassIndex, CongKind, class_key
from formclass.forms import QuadForm
from test_reachability import COMMANDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_config_validation(capsys):
    code, out, err = run(capsys, "--level-cap", "0", "reduce", "7,11,5")
    assert code == 2 and out == "" and err == "invalid input: level cap must be >= 1\n"
    with pytest.raises(SystemExit) as exc:
        main(["--format", "yaml", "reduce", "7,11,5"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "invalid choice" in out.err


def test_reduce(capsys):
    doc = run_json(capsys, "reduce", "7,11,5")
    assert doc == {
        "input": [7, 11, 5],
        "reduced": [1, 1, 5],
        "witness": [-1, 0, 1, -1],
        "discriminant": -19,
    }


def test_reduce_rejects_garbage(capsys):
    code, _, err = run(capsys, "reduce", "1,2")
    assert code == 2 and "invalid input" in err
    code, _, err = run(capsys, "reduce", "1,3,1")  # indefinite
    assert code == 2


def test_equiv_witness_pair(capsys):
    doc = run_json(capsys, "equiv", "1,-1,6", "1,1,6", "-N", "3", "--gamma1")
    assert doc["equivalent"] is True
    assert doc["witness"] == [1, 1, 0, 1]
    assert doc["kind"] == "gamma1"


def test_equiv_inequivalent_is_still_exit_zero(capsys):
    doc = run_json(capsys, "equiv", "1,-1,6", "1,1,6", "-N", "3")
    assert doc["equivalent"] is False and "witness" not in doc


def test_equiv_mixed_discriminants_rejected(capsys):
    code, _, err = run(capsys, "equiv", "1,0,1", "1,1,6", "-N", "2")
    assert code == 2 and "invalid input" in err


def test_classgroup_dump(capsys):
    doc = run_json(capsys, "classgroup", "-D", "-23", "-N", "3")
    assert doc["order"] == 6 == doc["order_formula"]
    assert doc["invariant_factors"] == [6]
    assert len(doc["cayley"]) == 6


def test_exhausted_composition_search_is_exit_one(capsys, monkeypatch):
    # with shell 0 alone, two classes with even leading coefficients have no
    # concordant column: the search failed, the input was fine
    monkeypatch.setattr("formclass.classgroup._SHELLS", 0)
    code, out, err = run(capsys, "classgroup", "-D", "-23", "-N", "5")
    assert code == 1 and out == ""
    assert "verification failure: no concordant column for" in err


def test_retired_bound_flag_is_a_usage_error(capsys):
    # before the subcommand, argparse alone would read "5" as the command
    for argv, named in ((["--bound", "5", "reduce", "1,1,1"], "--bound"),
                        (["--seed", "5", "--bound=5", "reduce", "1,1,1"], "--bound=5"),
                        (["reduce", "1,1,1", "--bound", "5"], "--bound 5")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == "", argv
        assert f"unrecognized arguments: {named}" in out.err and "invalid choice" not in out.err, argv
    # known global flags, with or without "=", and their unique prefixes still parse
    for argv in (["--seed=5", "--level-cap", "9", "reduce", "7,11,5"], ["--form", "text", "reduce", "7,11,5"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "1, 1, 5" in out, argv


def test_classgroup_rejects_positive_discriminant(capsys):
    code, _, err = run(capsys, "classgroup", "-D", "5", "-N", "1")
    assert code == 2 and "invalid input" in err


def test_level_cap_is_enforced_and_adjustable(capsys):
    code, _, err = run(capsys, "classgroup", "-D", "-23", "-N", "70")
    assert code == 2 and "cap" in err
    # raising the cap lifts the gate (checked on the cheap single-pair command)
    code, _, _ = run(capsys, "equiv", "1,1,6", "1,1,6", "-N", "70")
    assert code == 2
    code, out, _ = run(capsys, "equiv", "1,1,6", "1,1,6", "-N", "70", "--level-cap", "70")
    assert code == 0 and json.loads(out)["equivalent"] is True


def test_cm_counts(capsys):
    doc = run_json(capsys, "cm", "-D", "-23", "-N", "3", "--curve", "y1")
    assert doc["count"] == 12 and len(doc["classes"]) == 12
    doc = run_json(capsys, "cm", "-D", "-23", "-N", "3", "--curve", "y")
    assert doc["count"] == 36


def test_tower_report(capsys):
    doc = run_json(capsys, "tower", "-p", "3", "-D", "-23", "-n", "1")
    assert doc["base_size"] == 36 and doc["injective"] and doc["surjective"]


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "grouplaw")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "verify", "padiclimits", "-p", "2", "--trials", "40")
    doc = json.loads(out)
    assert code == 0  # the even-prime counterexample is the expected outcome
    assert doc["suites"][0]["checks"][0]["name"] == "even-prime-counterexample"


def test_negative_trials_rejected_before_any_suite(capsys):
    code, out, err = run(capsys, "verify", "padiclimits", "--trials", "-5")
    assert code == 2 and out == "" and "--trials" in err
    # 0 still means the default count
    doc = run_json(capsys, "verify", "padiclimits", "-p", "3", "--trials", "0", "--quick")
    assert doc["suites"][0]["checks"][0]["trials"] == 200


def test_levelsquare_divisibility_is_refused_before_any_suite(capsys, monkeypatch):
    # levelsquare runs second, but its -N 13 that does not divide -M 27 exits
    # 2 before grouplaw, the first suite, is called
    calls = []
    monkeypatch.setattr(suites, "grouplaw", lambda *args: calls.append(args) or [])
    code, out, err = run(capsys, "verify", "all", "-D", "-23", "-N", "13", "-M", "27")
    assert code == 2 and out == "" and "target level 13 must divide source level 27" in err
    assert calls == []


def test_verify_applies_the_level_cap_before_any_suite(capsys):
    for argv in (
        ["verify", "grouplaw", "-N", "500"],
        ["verify", "padicpoints", "-p", "3", "-D", "-23", "-n", "9"],
        ["verify", "levelsquare", "-M", "81"],
        ["verify", "all", "--level-cap", "5"],
        # p^n is compared with the cap before it is computed
        ["verify", "padicpoints", "-p", "3", "-n", "100000"],
        ["tower", "-p", "3", "-D", "-23", "-n", "100000"],
        ["tower", "-p", "3", "-D", "-23", "-n", "100000000"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "" and "exceeds the cap" in err, argv


def test_padiclimits_caps_the_prime_before_testing_it(capsys):
    # is_prime's trial division on a prime near 10^18 would take hours
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "padiclimits", "-p", "1000000000000000003", "--trials", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "exceeds the cap" in err
    code, out, err = run(capsys, "verify", "padiclimits", "-p", "4")
    assert code == 2 and out == "" and "4 is not prime" in err
    code, out, err = run(capsys, "verify", "padiclimits", "-p", "67", "--trials", "3")
    assert code == 2 and out == "" and "level 67 exceeds the cap 64" in err
    doc = run_json(capsys, "--level-cap", "67", "verify", "padiclimits", "-p", "67", "--trials", "3")
    assert doc["pass"] and doc["suites"][0]["checks"][0]["p"] == 67


@pytest.mark.parametrize("command", ["tower", "verify padicpoints"])
@pytest.mark.parametrize("precision", ["0", "-2"])
def test_precision_below_one_is_refused_before_any_enumeration(capsys, monkeypatch, command, precision):
    # -n 0 used to enumerate the base points for seconds before the kernel
    # refused it, and -n -2 took p**-2 as a float
    def no_enumeration(*args):
        raise AssertionError("base_point_set was called")

    monkeypatch.setattr(formclass.tower, "base_point_set", no_enumeration)
    code, out, err = run(capsys, *command.split(), "-p", "61", "-D", "-23", "-n", precision)
    assert code == 2 and out == "" and err == "invalid input: precision must be >= 1\n"


@pytest.mark.parametrize("command", ["tower", "verify padicpoints"])
@pytest.mark.parametrize("prime, precision, message", [
    ("-3", "2", "level must be >= 1"),  # (-3)^2 = 9 fits the cap; the base level -3 does not
    ("100", "2", "level 10000 exceeds the cap 64 (raise --level-cap)"),
])
def test_tower_levels_are_checked_before_any_enumeration(capsys, monkeypatch, command, prime, precision, message):
    # the level p^n is checked first, then the base level p
    def no_enumeration(*args):
        raise AssertionError("base_point_set was called")

    monkeypatch.setattr(formclass.tower, "base_point_set", no_enumeration)
    code, out, err = run(capsys, *command.split(), "-p", prime, "-D", "-23", "-n", precision)
    assert code == 2 and out == "" and err == f"invalid input: {message}\n"


@pytest.mark.parametrize("prime, message", [("0", "level must be >= 1"), ("1", "1 is not prime")])
def test_padiclimits_refuses_a_prime_below_two(capsys, prime, message):
    # a -p that is given is checked even when it is falsy, as padicpoints does
    code, out, err = run(capsys, "verify", "padiclimits", "-p", prime, "--trials", "1")
    assert code == 2 and out == "" and "invalid input" in err and message in err


def test_padiclimits_without_a_prime_runs_three_five_and_two(capsys):
    doc = run_json(capsys, "verify", "padiclimits", "--trials", "2")
    assert [c["p"] for c in doc["suites"][0]["checks"]] == [3, 5, 2]


def _record_suites(monkeypatch) -> list[str]:
    """Replace every suite by one that records its name and returns no checks."""
    calls = []
    for name in SUITES:
        monkeypatch.setattr(suites, name, lambda *args, name=name: calls.append(name) or [])
    return calls


@pytest.mark.parametrize("argv", ["verify all -p 2", "verify padicpoints -p 2 -D -23"])
def test_level_two_is_refused_before_any_suite(capsys, monkeypatch, argv):
    # -I lies in Gamma(2), so the correspondence at p = 2 is 2-to-1; padicpoints
    # runs last, but -p 2 exits 2 before grouplaw, the first suite, is called
    calls = _record_suites(monkeypatch)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "" and "-I lies in Gamma(2)" in err
    assert calls == []


def test_tower_refuses_level_two_before_the_report(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(formclass.cli, "correspondence_report", lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "tower", "-p", "2", "-D", "-23", "-n", "2")
    assert code == 2 and out == "" and "-I lies in Gamma(2)" in err
    assert calls == []


@pytest.mark.parametrize("prime", ["1", "4", "9"])
def test_verify_all_refuses_a_non_prime_limit_before_any_suite(capsys, monkeypatch, prime):
    # padiclimits runs fifth; its non-prime -p within the cap exits 2 before
    # grouplaw, the first suite, is called
    calls = _record_suites(monkeypatch)
    code, out, err = run(capsys, "verify", "all", "-p", prime)
    assert code == 2 and out == "" and err == f"invalid input: {prime} is not prime\n"
    assert calls == []


@pytest.mark.parametrize("argv", ["tower -p 3 -D -4 -n 2 --check-lift", "tower -p 4 -D -23 -n 2"])
def test_tower_runs_at_extra_units_and_composite_levels(capsys, argv):
    doc = run_json(capsys, *argv.split())
    p, n = doc["p"], doc["n"]
    assert doc["injective"] and doc["surjective"] and doc["witnesses_of_failure"] == []
    assert doc["codomain_size"] == doc["pairs"] == doc["base_size"] * p ** (3 * (n - 1))


def test_huge_discriminants_are_refused_before_any_enumeration(capsys):
    # the reduced-form scan at |D| = 10^11 alone would take hours
    for argv in (
        ["classgroup", "-D", "-100000000000"],
        ["cm", "-D", "-100000000000", "-N", "3"],
        ["tower", "-p", "3", "-D", "-100000000000", "-n", "1"],
        ["verify", "grouplaw", "-D", "-100000000000"],
        ["verify", "padicpoints", "-p", "3", "-D", "-100000000000"],
        ["verify", "all", "-D", "-100000000000"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "" and "33333333333 reduced-form scan steps" in err, argv
    # suites that never enumerate at -D run as usual
    code, out, _ = run(capsys, "verify", "padiclimits", "-D", "-100000000000", "-p", "3", "--trials", "5")
    assert code == 0 and json.loads(out)["pass"]
    _check_disc(-3 * SCAN_BUDGET)  # the budget itself is allowed
    with pytest.raises(ValueError, match="over the budget"):
        _check_disc(-3 * SCAN_BUDGET - 4)


def test_oversized_tables_are_refused_before_any_build(capsys):
    # order 2560 at (-47, 64): 6,553,600 cells, each a compose and a locate
    for argv in (
        ["classgroup", "-D", "-47", "-N", "64"],
        ["verify", "grouplaw", "-D", "-47", "-N", "64"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0, argv
        assert code == 2 and out == "", argv
        assert "order 2560" in err and "6553600 cells" in err, argv
    # levelmaps builds its tables at its chain levels: order 1232 at (-3000011, 3)
    code, out, err = run(capsys, "verify", "levelmaps", "-D", "-3000011", "--quick")
    assert code == 2 and out == "" and "order 1232" in err
    _check_table(-23, 25)  # order 900 is allowed
    over = f"order 1350, so its table needs 1822500 cells, over the budget of {CELL_BUDGET}"
    with pytest.raises(ValueError, match=over):
        _check_table(-23, 31)


def test_grouplaw_is_priced_at_its_table_passes(capsys, monkeypatch):
    # order 900 at (-23, 25) and order 576 at (-4, 65) fit the table budget,
    # but not grouplaw's oracle passes over the table
    def built(*args):
        raise AssertionError("a table was built before the guard pass refused the input")

    monkeypatch.setattr(classgroup.ClassGroupTable, "build", built)
    for d, n, order, cap in ((-23, 25, 900, "64"), (-4, 65, 576, "100")):
        _check_table(d, n)  # one pass fits
        argv = ["--level-cap", cap, "verify", "grouplaw", "-D", str(d), "-N", str(n)]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        cells = GROUPLAW_PASSES * order**2
        assert code == 2 and out == "", argv
        assert f"order {order}" in err and f"{GROUPLAW_PASSES} passes over it need {cells} cells" in err, argv
    # order 216 at (-23, 13) still passes the guard and reaches the suite
    monkeypatch.setattr(suites, "grouplaw", lambda d, n, rng: [suites.check("reached", True, D=d, N=n)])
    doc = run_json(capsys, "verify", "grouplaw", "-D", "-23", "-N", "13")
    assert doc["suites"][0]["checks"] == [{"name": "reached", "pass": True, "D": -23, "N": 13}]


def test_cm_command_builds_no_class_index(monkeypatch):
    # the command prints the classes; a lookup index over them is never read
    def indexed(*args, **kwargs):
        raise AssertionError("class_index was called")

    for module in (formclass.congruence, formclass.cm, formclass.cli):
        if hasattr(module, "class_index"):
            monkeypatch.setattr(module, "class_index", indexed)
    monkeypatch.setattr(formclass.congruence.ClassIndex, "__new__", indexed)
    argv = ("cm", "-D", "-23", "-N", "5", "--curve", "y")
    assert _stdout_digest(argv) == (0, FROZEN_STDOUT_DIGESTS[argv])


_OVER_CAP = "level 65 exceeds the cap 64 (raise --level-cap)"
_OVER_SCAN = "discriminant -30000011 needs ~10000003 reduced-form scan steps, over the budget of 10000000"


@pytest.mark.parametrize("argv, message", [
    ("equiv 1,1,6 1,1,6 -N 65", _OVER_CAP),
    ("classgroup -D -23 -N 65", _OVER_CAP),
    ("cm -D -23 -N 65", _OVER_CAP),
    ("tower -p 3 -D -23 -n 4", "level 81 exceeds the cap 64 (raise --level-cap)"),
    ("verify grouplaw -N 65", _OVER_CAP),
    ("classgroup -D -30000011", _OVER_SCAN),
    ("cm -D -30000011 -N 3", _OVER_SCAN),
    ("tower -p 3 -D -30000011 -n 1", _OVER_SCAN),
])
def test_each_command_is_refused_before_it_enumerates(capsys, monkeypatch, argv, message):
    def enumerated(*args, **kwargs):
        raise AssertionError("enumerated before the guard pass refused the input")

    monkeypatch.setattr(classgroup.ClassGroupTable, "build", enumerated)
    for module in (formclass.congruence, formclass.classgroup, formclass.cm, formclass.suites, formclass.cli):
        for name in ("class_index", "cong_equivalent", "correspondence_report"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, enumerated)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "" and err == f"invalid input: {message}\n"


# every function of src/ is reached by COMMANDS; these add the default sizes
# of verify all and the tower at n = 2, whose codomain and base levels differ
AUDITED = COMMANDS + ("verify all --seed 7", "tower -p 3 -D -23 -n 2 --check-lift",
                      "verify padicpoints -p 5 -D -15 -n 2")


def test_every_enumeration_is_at_a_site_of_its_plan(capsys, monkeypatch):
    """Each (D, N) that a command enumerates classes, class keys or a class
    group table at is a site of its plan, and each table is at a site with
    passes, so the guard pass checks what the command really does."""
    seen = []

    def recorder(what, real):
        def recorded(d, n, *args):
            seen.append((what, d, n))
            return real(d, n, *args)
        return recorded

    monkeypatch.setattr(congruence, "enumerate_classes", recorder("classes", congruence.enumerate_classes))
    keys = recorder("keys", congruence.class_keys)
    monkeypatch.setattr(congruence, "class_keys", keys)
    monkeypatch.setattr(formclass.tower, "class_keys", keys)
    build = recorder("table", classgroup.ClassGroupTable.build)
    monkeypatch.setattr(classgroup.ClassGroupTable, "build", staticmethod(build))
    parser, missing, kinds = _build_parser(), [], set()
    for argv in AUDITED:
        clear_package_caches()  # a cached enumeration would not be recorded
        seen.clear()
        assert main(argv.split()) == 0, argv
        sites, _ = _plan(parser.parse_args(argv.split()))
        listed = {(d, base**exponent) for d, (base, exponent), _ in sites}
        priced = {(d, base**exponent) for d, (base, exponent), passes in sites if passes >= 1}
        missing += [(argv, *call) for call in seen if call[1:] not in (priced if call[0] == "table" else listed)]
        kinds.update(what for what, _, _ in seen)
    capsys.readouterr()
    assert missing == [] and kinds == {"classes", "keys", "table"}


def test_table_check_takes_the_unit_count_in_closed_form(monkeypatch):
    # order 1,440,000 at (-23, 2000): refused without enumerating its 4,000,000 residues
    def no_enumeration(d, n):
        raise AssertionError("residue_units was called")

    monkeypatch.setattr(formclass.ideals, "residue_units", no_enumeration)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="order 1440000, so its table needs 2073600000000 cells"):
        _check_table(-23, 2000)
    assert time.perf_counter() - start < 1.0


def test_levelsquare_reports_an_edge_that_misses_classes(capsys, monkeypatch):
    monkeypatch.setattr(ClassIndex, "locate", lambda self, f: 0)
    code, out, _ = run(capsys, "verify", "levelsquare")
    checks = {c["name"]: c for c in json.loads(out)["suites"][0]["checks"]}
    assert code == 1
    surjective = checks["all-edges-surjective"]
    assert surjective["pass"] is False
    assert surjective["missed"]["relax-coarse"] == "transition map misses target classes [1, 2, 3, 4, 5]"


def test_levelmaps_reports_a_projection_that_misses_classes(monkeypatch):
    def missing(*args, **kwargs):
        raise classgroup.GroupAxiomError("transition map misses target classes [1]")

    monkeypatch.setattr(suites, "class_surjection", missing)
    (chain,) = suites.levelmaps(-23, [(3, 1)])
    assert chain == {"name": "chain-3-to-1", "pass": False, "surjective": False, "fiber_size": 2,
                     "missed": "transition map misses target classes [1]"}


def _off_by_one_report(real):
    def report(*args, **kwargs):
        out = real(*args, **kwargs)
        return {**out, "codomain_size": out["codomain_size"] + 1}
    return report


# suite, the name in formclass.suites to corrupt, its replacement given the
# original, the suite's arguments, and a small `verify` command line for it
MUTATIONS = [
    # every class ideal read as the first one: each quotient is trivial, so the keys collide
    ("grouplaw", "ray_keys", lambda real: lambda us, n: real(us[:1] * len(us), n),
     (-23, 2, random.Random(0)), ["-N", "2"]),
    ("levelsquare", "class_surjection", lambda real: lambda *a: tuple(reversed(real(*a))),
     (-23, 3, 1), ["-M", "3", "-N", "1"]),
    ("levelmaps", "class_surjection", lambda real: lambda *a, **kw: tuple(reversed(real(*a, **kw))),
     (-23, [(3, 1)]), ["--quick"]),
    ("orderchange", "order_change_map", lambda real: lambda f, d, n: QuadForm.principal(d),
     (((-60, -15, 1),),), []),
    ("padiclimits", "limits_agree", lambda real: lambda s, t: True,
     ([2], 20, random.Random(0)), ["-p", "2", "--trials", "20"]),
    ("padicpoints", "correspondence_report", _off_by_one_report,
     ([(3, -23, 1)],), ["-p", "3", "-D", "-23", "-n", "1"]),
    pytest.param("grouplaw", "residue_units", lambda real: lambda d, n: n * n,
                 (-23, 3, random.Random(0)), [], id="grouplaw-residue-units"),
]


@pytest.mark.parametrize("suite, target, corrupt, suite_args, argv", MUTATIONS,
                         ids=[getattr(m, "id", None) or m[0] for m in MUTATIONS])
def test_every_suite_can_fail(capsys, monkeypatch, suite, target, corrupt, suite_args, argv):
    monkeypatch.setattr(suites, target, corrupt(getattr(suites, target)))
    checks = getattr(suites, suite)(*suite_args)
    assert any(not c["pass"] for c in checks), checks
    code, out, _ = run(capsys, "verify", suite, *argv)
    assert code == 1 and json.loads(out)["pass"] is False


@pytest.mark.parametrize("swap", [False, True], ids=["dropped", "swapped"])
def test_padicpoints_decides_surjectivity_by_key_sets(capsys, monkeypatch, swap):
    """A codomain missing the key of one image is not hit, even when a foreign
    key keeps its size: the swap leaves every count right, so only the
    key-set equality can fail."""
    real = formclass.tower.class_keys
    first = class_key(formclass.tower.base_point_set(3, -23)[0].form, 9, CongKind.FULL_LEVEL)
    triple, name = first
    foreign = (triple, tuple(-x % 9 for x in name))  # the name of -w, not the least one

    def corrupt(d, n, kind):
        keys = real(d, n, kind)
        assert first in keys and foreign not in keys
        return keys - {first} | ({foreign} if swap else set())

    monkeypatch.setattr(formclass.tower, "class_keys", corrupt)
    report = formclass.tower.correspondence_report(3, -23, 2, check_lift=True)
    assert report["injective"] and not report["surjective"]
    assert (report["codomain_size"] == report["pairs"]) == swap
    code, out, _ = run(capsys, "verify", "padicpoints", "-p", "3", "-D", "-23", "-n", "2")
    (check,) = json.loads(out)["suites"][0]["checks"]
    assert code == 1 and check["pass"] is False and check["surjective"] is False


def test_levelmaps_checks_the_sign_law(monkeypatch):
    # without conjugation at level 9 the signed table there is a direct
    # product, still a group, but the projection to level 3 is no longer a
    # homomorphism; the unsigned tables cannot see this
    real = classgroup.conj_class
    monkeypatch.setattr(classgroup, "conj_class", lambda t: tuple(range(t.order)) if t.level == 9 else real(t))
    (chain,) = suites.levelmaps(-23, [(9, 3)])
    assert chain["name"] == "chain-9-to-3" and not chain["pass"]
    assert (chain["hom"], chain["surjective"], chain["fiber_size"]) == (False, True, 9)


def test_padiclimits_disagreement_count_is_frozen(capsys):
    # pins the random stream: any change to the order or number of draws moves it
    doc = run_json(capsys, "verify", "padiclimits", "-p", "2", "--trials", "200", "--seed", "5")
    check = doc["suites"][0]["checks"][0]
    assert (check["trials"], check["disagreements"]) == (200, 86)


def test_verify_all_quick(capsys):
    code, out, _ = run(capsys, "verify", "all", "--quick")
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert [s["suite"] for s in doc["suites"]] == [
        "grouplaw", "levelsquare", "levelmaps", "orderchange", "padiclimits", "padicpoints",
    ]


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


# sha256 of the stdout of `formclass <argv>`, recorded before the code that no
# command reaches left src/; the levelmaps entry, which covers all four chains,
# before levelmaps moved from the unsigned to the signed tables; the classgroup
# -D -51 and tower entries, which locate every product and image, before
# class_key moved from the cached reduce_form to the integer kernel; the equiv
# --gamma1 and cm -D -4 entries, which reach the automorph times witness
# products and the four-automorph key, before every 2x2 product became `_mul`;
# the classgroup -D -3 and -D -4 entries, whose Cayley cells reach the six and
# four automorphs (and, at -4, shell 2 of the column search), before compose
# replaced the generic CRT by the closed form; the grouplaw -D -4 and -D -84
# entries (four units; h = 4, so 16 level-1 law entries) before grouplaw's
# ideal side moved from pairwise ray-class tests to ray-class keys; the
# verify all --seed 7 entry, which runs every suite at its default size,
# before the signed class index left congruence
FROZEN_STDOUT_DIGESTS = {
    ("verify", "all", "--seed", "7"): "62882c1a7ea0e05bf528f0005c6d842ea4d9c474e8e10d87ef537ffabbb08cb8",
    ("verify", "all", "--quick", "--seed", "3"): "6f069daf30dea64d82b8a0a4f7f7d48d492fad8514d9e55ebd44d923b393c196",
    ("--format", "text", "classgroup", "-D", "-23", "-N", "3"):
        "c078579bbf30c8c167782aece25fac7b8821b35a3cfb8f7abfab6117d79b5c8e",
    ("verify", "levelmaps", "--seed", "7"): "c7fe155cce1da42278d885376043a97a9b81e10b2af883a220b20abb9a9856cb",
    ("verify", "orderchange", "--seed", "7"): "6abfe3fbcf1a07715bfdba1897f84b423f85f5cd598934519cf8bd7a7ded60b6",
    ("verify", "grouplaw", "-D", "-31", "-N", "5", "--seed", "3"):
        "4fb9666694d16e6cbcc6bd3e30b4fd90441e81364e22bf958315d19639e6d9cf",
    ("classgroup", "-D", "-51", "-N", "7"): "84efa266af03dd071ce613a30763ae266d07145aa54ff2d74b02d641442c64ec",
    ("tower", "-p", "3", "-D", "-23", "-n", "2", "--check-lift"):
        "12461130317f4716510ae681713330604e52009333e156856d4f65b6445dbb28",
    ("tower", "-p", "5", "-D", "-15", "-n", "2", "--check-lift"):
        "afc04d05e3b2d7ee426eabafca403fc028dd4f023a1f5df9dc12b2fe17470285",
    ("cm", "-D", "-23", "-N", "5", "--curve", "y1"): "69e9190fc90eb0fe52cae7e1f84704f51bc4890b19216143ff1afb11cc99ee5e",
    ("cm", "-D", "-23", "-N", "5", "--curve", "y"): "f776e42a871db0f8de83e93ef3d4f6ae9f5571a488d1b4d60bd2362860b37c3d",
    ("verify", "padicpoints", "--seed", "7"): "7d32767d46c7fc2db0deb8673bfb829c2d12903cf168557f5cd25607deaa2922",
    ("verify", "padiclimits", "--trials", "300", "--seed", "11"):
        "29653414c61b176676e4bb6f3baced118324da4d969755d71faf54676f869b56",
    ("verify", "grouplaw", "-D", "-3", "-N", "13", "--seed", "1"):
        "d06076491f595fb6f21b6beee48209454fbd7686315455196cebfaf395379423",
    ("equiv", "1,-1,6", "1,1,6", "-N", "3", "--gamma1"):
        "397749d77735b414eee8464fa399671c0892af6698b8595ee340be5f652c8d91",
    ("cm", "-D", "-4", "-N", "6", "--curve", "y"): "73832753bd3be2f64d78d6a699578a0fe1b31f6b2148cfe393ce22e5a5bd33f8",
    ("classgroup", "-D", "-3", "-N", "13"): "49125adbcac4f12c8c80a329bf34772d8e60e02c9a39868863d337bb25a0b276",
    ("classgroup", "-D", "-4", "-N", "9"): "bce09ffb8b1671ca4cd7a236393e76a01d1176af420fd3e43fef30acbd849502",
    ("verify", "grouplaw", "-D", "-4", "-N", "13", "--seed", "2"):
        "d18cd6928087eae67ac5a80fa28e34569d9f88626b2d19603c44373b5b6afb7b",
    ("verify", "grouplaw", "-D", "-84", "-N", "5", "--seed", "2"):
        "3de7553f386dbdc4363c383b64ce1323348e6cec4ad6e4ccbeea310aa7dd6bf0",
}


def _stdout_digest(argv) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of `formclass <argv>`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(FROZEN_STDOUT_DIGESTS), ids=" ".join)
def test_stdout_digest_frozen(argv):
    assert _stdout_digest(argv) == (0, FROZEN_STDOUT_DIGESTS[argv])


def test_output_is_byte_identical_for_fixed_seed(capsys):
    _, first, _ = run(capsys, "verify", "padiclimits", "--trials", "30", "--seed", "5")
    _, second, _ = run(capsys, "verify", "padiclimits", "--trials", "30", "--seed", "5")
    assert first == second
    _, global_pos, _ = run(capsys, "--seed", "5", "verify", "padiclimits", "--trials", "30")
    assert global_pos == first


def test_text_format_renders_flat_lines(capsys):
    code, out, _ = run(capsys, "--format", "text", "reduce", "7,11,5")
    assert code == 0
    assert "reduced: [1, 1, 5]" in out
    assert "{" not in out.splitlines()[0]


def _scalar_leaves(doc):
    """(key, value) for every scalar value of a dict, at any depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, val in items:
        if isinstance(val, (dict, list)):
            yield from _scalar_leaves(val)
        elif isinstance(key, str):
            yield key, val


def test_text_format_renders_nested_documents(capsys):
    argv = ("verify", "levelmaps", "--quick", "--seed", "2")
    code, text, _ = run(capsys, "--format", "text", *argv)
    doc = run_json(capsys, *argv)
    assert code == 0
    lines = text.splitlines()
    assert "suites:" in lines
    assert "  -" in lines
    assert "    checks:" in lines
    stripped = {line.strip() for line in lines}
    leaves = list(_scalar_leaves(doc))
    assert ("name", "chain-3-to-1") in leaves
    for key, val in leaves:
        assert f"{key}: {json.dumps(val)}" in stripped, (key, val)


def test_checks_survive_optimized_mode():
    """python -O drops assert statements; the verify suites and table checks must not depend on them."""
    env = dict(os.environ)
    src = str(Path(formclass.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for argv in (
        ["-m", "formclass", "verify", "all", "--quick", "--seed", "3"],
        ["-m", "formclass", "classgroup", "-D", "-23", "-N", "5"],
        ["-m", "formclass", "tower", "-p", "3", "-D", "-23", "-n", "2", "--check-lift"],
        ["-m", "formclass", "cm", "-D", "-23", "-N", "5", "--curve", "y"],
    ):
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, timeout=120)
            for flags in ((), ("-O",))
        )
        assert plain.returncode == 0, plain.stderr
        assert optimized.returncode == 0, optimized.stderr
        assert json.loads(plain.stdout).get("pass", True)
        assert optimized.stdout == plain.stdout


def test_package_has_no_assert_statements():
    """python -O strips assert statements, so the package has none: every check
    raises, and -O cannot change what a command does."""
    package = Path(formclass.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_point_modules_name_signed_form():
    """Classes are of forms and only points carry a sign, so `SignedForm` is
    named in `forms`, which defines it, `cm` and `tower`, which hold points,
    and `__init__`, which exports it, and in no other module."""
    package = Path(formclass.__file__).resolve().parent

    def names(node):
        return ((isinstance(node, ast.Name) and node.id == "SignedForm")
                or (isinstance(node, ast.Attribute) and node.attr == "SignedForm")
                or (isinstance(node, ast.alias) and node.name == "SignedForm")
                or (isinstance(node, ast.ClassDef) and node.name == "SignedForm"))

    naming = {path.stem for path in package.glob("*.py") if any(map(names, ast.walk(ast.parse(path.read_text()))))}
    assert naming == {"forms", "cm", "tower", "__init__"}


def test_import_loads_no_dataclasses():
    """Every command pays the import first: values are namedtuples, so neither
    dataclasses nor the inspect module it pulls in is loaded."""
    env = dict(os.environ)
    src = str(Path(formclass.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = "import sys, formclass, formclass.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


if __name__ == "__main__":
    # python -O tests/test_cli.py checks every frozen digest with assert
    # statements stripped; the verdict is an exit code, not an assert
    failed = 0
    for argv in sorted(FROZEN_STDOUT_DIGESTS):
        ok = _stdout_digest(argv) == (0, FROZEN_STDOUT_DIGESTS[argv])
        failed += not ok
        print("ok  " if ok else "FAIL", " ".join(argv))
    if failed:
        sys.exit(1)
