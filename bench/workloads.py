"""The four workloads: instance pools, the library calls, item counts and checks.

Each workload runs through formclass's public API and stresses a different
layer stack (see `why`).  A pool holds three instances of similar cost; a run
cycles through the pool in rounds, each instance in its own fresh interpreter.
Checks compare against `expected`, never against formclass itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import expected


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: tuple            # instances of similar cost, one per sample slot
    tiny: tuple            # the same shape at smoke-test size
    run: Callable          # (instance, verify_seed) -> raw result; this call is timed
    canonical: Callable    # raw result -> JSON-ready document, hashed for determinism
    items: Callable        # instance -> completed work, from the closed forms
    check: Callable        # (instance, raw result, corrupt) -> list of failure messages
    must_call: tuple       # traced span names every sample of this workload reaches


def _cli(argv: list[str]) -> tuple[int, dict]:
    from formclass import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if not out.getvalue():
        raise RuntimeError(f"formclass {' '.join(argv[:2])} exited {code} without a result")
    return code, json.loads(out.getvalue())


def _skew(value: int, corrupt: bool) -> int:
    """The expected value, or a wrong one when the smoke test checks that the gate fires."""
    return value + 1 if corrupt else value


# -- tower-correspondence ------------------------------------------------------


def _tower_run(inst, vseed):
    from formclass import correspondence_report

    p, d, n = inst
    return correspondence_report(p, d, n, check_lift=True)


def _tower_check(inst, report, corrupt):
    p, d, n = inst
    want = _skew(expected.tower_pairs(p, d, n), corrupt)
    fails = []
    if not report["injective"] or report["witnesses_of_failure"]:
        fails.append(f"not injective: {report['witnesses_of_failure'][:3]}")
    if not report["surjective"]:
        fails.append("not surjective")
    got = (report["pairs"], report["codomain_size"], report["base_size"] * p ** (3 * (n - 1)))
    if got != (want, want, want):
        fails.append(f"pairs, codomain, base*kernel = {got}; closed form {want}")
    return fails


TOWER = Workload(
    name="tower-correspondence",
    why="pairwise class equivalence (congruence) behind the p-adic correspondence; no ideals, no compose",
    pool=((3, -31, 2), (3, -39, 2), (3, -95, 2)),
    tiny=((3, -31, 1), (3, -39, 1), (3, -55, 1)),
    run=_tower_run,
    canonical=lambda report: report,
    items=lambda inst: expected.tower_pairs(*inst),
    check=_tower_check,
    must_call=("tower.correspondence_report", "tower.act_padic", "tower.kernel_reps",
               "congruence.cong_equivalent", "congruence.unsigned_class_reps",
               "cm.cm_class_set", "cm.equivalent_points", "forms.reduce_form", "forms.sl2_equivalent"),
)


# -- classgroup-ladder ---------------------------------------------------------


def _ladder_run(inst, vseed):
    from formclass import ClassGroupTable, PMGroup

    out = []
    for d, n in inst:
        table = ClassGroupTable.build(d, n)
        factors = table.invariant_factors()
        out.append((table, factors, PMGroup.build(table)))
    return out


def _ladder_canonical(rungs):
    return [{"table": t.to_json(), "factors": list(f), "pm": [list(r) for r in pm.cayley]} for t, f, pm in rungs]


def _ladder_check(inst, rungs, corrupt):
    fails = []
    for (d, n), (table, factors, pm) in zip(inst, rungs):
        want = _skew(expected.ray_class_order(d, n), corrupt)
        if table.order != want:
            fails.append(f"({d}, {n}): order {table.order}, closed form {want}")
        if math.prod(factors) != table.order:
            fails.append(f"({d}, {n}): invariant factors {factors} do not multiply to {table.order}")
        if any(b % a for a, b in zip(factors, factors[1:])):
            fails.append(f"({d}, {n}): invariant factors {factors} are not a divisor chain")
        if pm.order != 2 * table.order or len(pm.cayley) != pm.order:
            fails.append(f"({d}, {n}): signed extension has order {pm.order}")
    if len(rungs) != len(inst):
        fails.append(f"{len(rungs)} of {len(inst)} rungs built")
    return fails


LADDER = Workload(
    name="classgroup-ladder",
    why="dense Cayley tables of growing order: compose, locate and the n^3 validator; almost no ideals",
    pool=(((-15, 5), (-23, 5), (-15, 7)),
          ((-20, 5), (-20, 9), (-51, 7)),
          ((-35, 5), (-24, 7), (-68, 5))),
    tiny=(((-23, 3), (-47, 3)), ((-31, 3), (-71, 3)), ((-23, 2), (-47, 4))),
    run=_ladder_run,
    canonical=_ladder_canonical,
    items=lambda inst: sum(5 * expected.ray_class_order(d, n) ** 2 for d, n in inst),
    check=_ladder_check,
    must_call=("classgroup.ClassGroupTable.build", "classgroup.ClassGroupTable._validate",
               "classgroup.ClassGroupTable.invariant_factors", "classgroup.PMGroup.build",
               "classgroup.compose", "congruence.ClassIndex.locate"),
)


# -- grouplaw-oracles ----------------------------------------------------------


def _grouplaw_run(inst, vseed):
    d, n = inst
    return _cli(["verify", "grouplaw", "-D", str(d), "-N", str(n), "--seed", str(vseed)])


def _grouplaw_check(inst, result, corrupt):
    d, n = inst
    code, doc = result
    want = _skew(expected.ray_class_order(d, n), corrupt)
    checks = {c["name"]: c for s in doc["suites"] for c in s["checks"]}
    fails = [f"check {name} failed" for name, c in checks.items() if not c["pass"]]
    if code != 0 or not doc["pass"]:
        fails.append(f"exit code {code}, pass {doc['pass']}")
    if checks.get("order-formula", {}).get("order") != want:
        fails.append(f"order {checks.get('order-formula')}, closed form {want}")
    if checks.get("dual-oracle-pairs", {}).get("pairs") != want * want:
        fails.append(f"dual-oracle pairs {checks.get('dual-oracle-pairs')}, expected {want * want}")
    return fails


GROUPLAW = Workload(
    name="grouplaw-oracles",
    why="verify grouplaw: matrix and ideal equality oracles on all pairs, so ray_class_equal and ideal products",
    pool=((-31, 5), (-59, 5), (-52, 5)),
    tiny=((-23, 3), (-47, 3), (-31, 3)),
    run=_grouplaw_run,
    canonical=lambda result: {"exit": result[0], "doc": result[1]},
    items=lambda inst: expected.ray_class_order(*inst) ** 2,
    check=_grouplaw_check,
    must_call=("cli.main", "ideals.ray_class_equal", "ideals.OIdeal.__mul__", "ideals.principal_generator",
               "classgroup.compose", "classgroup.class_of_ideal"),
)


# -- padic-limits --------------------------------------------------------------

PADIC_PRIMES = (3, 5, 2)


def _padic_run(trials, vseed):
    return _cli(["verify", "padiclimits", "--trials", str(trials), "--seed", str(vseed)])


def _padic_check(trials, result, corrupt):
    code, doc = result
    want = _skew(trials, corrupt)
    checks = [c for s in doc["suites"] for c in s["checks"]]
    fails = [f"check {c['name']} at p={c.get('p')} failed" for c in checks if not c["pass"]]
    if code != 0 or not doc["pass"]:
        fails.append(f"exit code {code}, pass {doc['pass']}")
    if [c.get("p") for c in checks] != list(PADIC_PRIMES):
        fails.append(f"primes checked {[c.get('p') for c in checks]}")
    for c in checks:
        if c.get("trials") != want:
            fails.append(f"p={c.get('p')}: {c.get('trials')} trials, asked for {want}")
        if c.get("p") == 2 and (c["name"] != "even-prime-counterexample" or not c.get("disagreements")):
            fails.append(f"p=2 counterexample missing: {c}")
        if c.get("p") != 2 and c.get("agreements") != want:
            fails.append(f"p={c.get('p')}: {c.get('agreements')} of {want} limits agree")
    return fails


PADIC = Workload(
    name="padic-limits",
    why="verify padiclimits: random convergent matrix pairs in tower and forms only; bypasses congruence and ideals",
    pool=(500, 600, 700),
    tiny=(20, 30, 40),
    run=_padic_run,
    canonical=lambda result: {"exit": result[0], "doc": result[1]},
    items=lambda trials: trials * len(PADIC_PRIMES),
    check=_padic_check,
    must_call=("cli.main", "tower.random_compliant_pair", "tower.limits_agree"),
)


WORKLOADS = {w.name: w for w in (TOWER, LADDER, GROUPLAW, PADIC)}
