"""Command-line front end: direct computations plus named verification suites.

Every command prints one JSON document (or a plain-text rendering with
--format text) built only from exact integers, so identical invocations with
the same seed are byte-identical.  Exit codes: 0 all checks passed, 1 a
mathematical verification failed, 2 invalid input or a composition search
that ran out of its --bound budget.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass

from .classgroup import (
    ClassGroupTable,
    CompositionBoundError,
    GroupAxiomError,
    PMGroup,
    class_group_table,
    class_surjection,
    compose,
    conj_class,
    identity_class,
    inverse_class,
    level_map,
    order_change_map,
    same_class,
)
from .cm import cm_class_set
from .congruence import CongKind, class_index, cong_equivalent
from .forms import IDENTITY, QuadForm, SignedForm, reduce_form, reduced_forms
from .ideals import form_to_ideal, ray_class_count, ray_class_equal, residue_units
from .tower import (
    MatrixSeq,
    correspondence_report,
    limits_agree,
    random_compliant_pair,
    seq_conditions_hold,
)

SUITES = ("grouplaw", "levelsquare", "levelmaps", "orderchange", "padiclimits", "padicpoints")


@dataclass(frozen=True)
class Config:
    bound: int = 10
    level_cap: int = 64
    seed: int = 0
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError("search bound must be >= 1")
        if self.level_cap < 1:
            raise ValueError("level cap must be >= 1")
        if self.fmt not in ("json", "text"):
            raise ValueError("format must be json or text")


def _parse_form(text: str) -> QuadForm:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected a,b,c — got {text!r}")
    a, b, c = (int(t) for t in parts)
    return QuadForm(a, b, c)


def _check_level(n: int, cfg: Config) -> int:
    if n < 1:
        raise ValueError("level must be >= 1")
    if n > cfg.level_cap:
        raise ValueError(f"level {n} exceeds the cap {cfg.level_cap} (raise --level-cap)")
    return n


def _emit(doc: dict, cfg: Config) -> None:
    if cfg.fmt == "json":
        print(json.dumps(doc, sort_keys=True))
        return
    for line in _render_text(doc):
        print(line)


def _render_text(doc, prefix: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            val = doc[key]
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                lines.append(f"{prefix}{key}:")
                lines += _render_text(val, prefix + "  ")
            else:
                lines.append(f"{prefix}{key}: {json.dumps(val, sort_keys=True)}")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.append(f"{prefix}-")
                lines += _render_text(item, prefix + "  ")
            else:
                lines.append(f"{prefix}- {json.dumps(item, sort_keys=True)}")
    else:
        lines.append(f"{prefix}{json.dumps(doc, sort_keys=True)}")
    return lines


def _is_flat(val) -> bool:
    if isinstance(val, list):
        return all(isinstance(x, (int, str, bool)) for x in val)
    return False


# -- direct commands ----------------------------------------------------------


def _cmd_reduce(args, cfg: Config) -> int:
    f = _parse_form(args.form)
    reduced, witness = reduce_form(f)
    _emit(
        {
            "input": list(f.triple()),
            "reduced": list(reduced.triple()),
            "witness": witness.to_json(),
            "discriminant": f.discriminant(),
        },
        cfg,
    )
    return 0


def _cmd_equiv(args, cfg: Config) -> int:
    f, g = _parse_form(args.form1), _parse_form(args.form2)
    n = _check_level(args.level, cfg)
    kind = CongKind.UPPER_UNIPOTENT if args.gamma1 else CongKind.FULL_LEVEL
    w = cong_equivalent(SignedForm(f), SignedForm(g), n, kind)
    doc = {
        "first": list(f.triple()),
        "second": list(g.triple()),
        "N": n,
        "kind": kind.value,
        "equivalent": w is not None,
    }
    if w is not None:
        doc["witness"] = w.to_json()
    _emit(doc, cfg)
    return 0


def _cmd_classgroup(args, cfg: Config) -> int:
    n = _check_level(args.level, cfg)
    table = ClassGroupTable.build(args.disc, n, bound=cfg.bound)
    doc = table.to_json()
    doc["order_formula"] = ray_class_count(args.disc, n)
    _emit(doc, cfg)
    return 0


def _cmd_cm(args, cfg: Config) -> int:
    n = _check_level(args.level, cfg)
    cs = cm_class_set(args.disc, n, args.curve)
    _emit(
        {
            "D": cs.disc,
            "N": cs.level,
            "curve": cs.curve,
            "count": len(cs.classes),
            "classes": [p.to_json() for p in cs.classes],
        },
        cfg,
    )
    return 0


def _cmd_tower(args, cfg: Config) -> int:
    _check_level(args.prime**args.precision, cfg)
    report = correspondence_report(args.prime, args.disc, args.precision, check_lift=args.check_lift)
    _emit(report, cfg)
    return 0 if report["injective"] and report["surjective"] else 1


# -- verification suites -------------------------------------------------------


def _check(name: str, ok: bool, **detail) -> dict:
    out = {"name": name, "pass": bool(ok)}
    out.update(detail)
    return out


def _suite_grouplaw(args, cfg: Config, rng: random.Random) -> list[dict]:
    d, n = args.disc, args.level
    checks = []

    baseline = class_group_table(d, 1, bound=cfg.bound)
    brute = len(reduced_forms(d))
    checks.append(_check("baseline-order-equals-reduced-count", baseline.order == brute,
                         D=d, order=baseline.order, reduced_forms=brute))

    table = class_group_table(d, n, bound=cfg.bound)
    expected = ray_class_count(d, n)
    checks.append(_check("order-formula", table.order == expected,
                         D=d, N=n, order=table.order, formula=expected))

    units_order, _ = residue_units(d, n)
    checks.append(_check("residue-units-enumerated", units_order >= 1, units=units_order))

    ok_dual = True
    for i, x in enumerate(table.classes):
        for j, y in enumerate(table.classes):
            matrix_route = same_class(x, y)
            ideal_route = ray_class_equal(form_to_ideal(x.rep), form_to_ideal(y.rep), n)
            if matrix_route != (i == j) or ideal_route != (i == j):
                ok_dual = False
    checks.append(_check("dual-oracle-pairs", ok_dual, pairs=table.order**2))

    ok_cells = True
    for x in table.classes:
        for y in table.classes:
            z = compose(x, y, bound=cfg.bound, rng=rng)
            prod = form_to_ideal(x.rep) * form_to_ideal(y.rep)
            if not ray_class_equal(form_to_ideal(z.rep), prod, n):
                ok_cells = False
    checks.append(_check("compose-matches-ideal-product", ok_cells, cells=table.order**2))

    ok_inv = all(
        same_class(compose(x, inverse_class(x), bound=cfg.bound), identity_class(d, n))
        for x in table.classes
    )
    checks.append(_check("inverses-via-ideal-route", ok_inv))

    try:
        pm = PMGroup.build(table)
        conj_auto = all(
            table.locate_class(conj_class(compose(x, y, bound=cfg.bound)))
            == table.mul(table.locate_class(conj_class(x)), table.locate_class(conj_class(y)))
            for x in table.classes
            for y in table.classes
        )
        checks.append(_check("signed-extension-closes", pm.order == 2 * table.order, order=pm.order))
        checks.append(_check("conjugation-is-automorphism", conj_auto))
    except GroupAxiomError as err:
        checks.append(_check("signed-extension-closes", False, error=str(err)))
    return checks


def _suite_levelsquare(args, cfg: Config, rng: random.Random) -> list[dict]:
    d, m, n = args.disc, args.fine, args.level
    down_full = class_surjection(d, m, n, CongKind.FULL_LEVEL, CongKind.FULL_LEVEL)
    relax_coarse = class_surjection(d, n, n, CongKind.FULL_LEVEL, CongKind.UPPER_UNIPOTENT)
    relax_fine = class_surjection(d, m, m, CongKind.FULL_LEVEL, CongKind.UPPER_UNIPOTENT)
    down_unipotent = class_surjection(d, m, n, CongKind.UPPER_UNIPOTENT, CongKind.UPPER_UNIPOTENT)
    size = len(class_index(d, m, CongKind.FULL_LEVEL).reps)
    commute = all(
        relax_coarse[down_full[i]] == down_unipotent[relax_fine[i]]
        for i in range(size)
    )
    return [
        _check("square-commutes", commute, D=d, fine=m, coarse=n, classes=size),
        _check("all-edges-surjective", True, note="asserted while building each edge"),
    ]


def _levelmaps_chains(args) -> list[tuple[int, int]]:
    return [(3, 1)] if args.quick else [(2, 1), (3, 1), (4, 2), (9, 3)]


def _suite_levelmaps(args, cfg: Config, rng: random.Random) -> list[dict]:
    d = args.disc
    checks = []
    for m, n in _levelmaps_chains(args):
        tm, tn = class_group_table(d, m, bound=cfg.bound), class_group_table(d, n, bound=cfg.bound)
        proj = [tn.locate_class(level_map(x, m, n)) for x in tm.classes]
        hom = all(
            proj[tm.mul(i, j)] == tn.mul(proj[i], proj[j])
            for i in range(tm.order)
            for j in range(tm.order)
        )
        onto = set(proj) == set(range(tn.order))
        fiber = tm.order // tn.order
        fibers_even = all(proj.count(k) == fiber for k in range(tn.order))
        checks.append(_check(f"chain-{m}-to-{n}", hom and onto and fibers_even,
                             hom=hom, surjective=onto, fiber_size=fiber))
    return checks


_ORDERCHANGE_INSTANCES = ((-60, -15, 1), (-92, -23, 1), (-92, -23, 3))


def _suite_orderchange(args, cfg: Config, rng: random.Random) -> list[dict]:
    checks = []
    for d_src, d_dst, n in _ORDERCHANGE_INSTANCES:
        ts, td = class_group_table(d_src, n, bound=cfg.bound), class_group_table(d_dst, n, bound=cfg.bound)
        img = [td.locate_class(order_change_map(x, d_dst)) for x in ts.classes]
        hom = all(
            img[ts.mul(i, j)] == td.mul(img[i], img[j])
            for i in range(ts.order)
            for j in range(ts.order)
        )
        onto = set(img) == set(range(td.order))
        checks.append(_check(f"order-{d_src}-to-{d_dst}-at-{n}", hom and onto,
                             hom=hom, surjective=onto))
    return checks


def _suite_padiclimits(args, cfg: Config, rng: random.Random) -> list[dict]:
    trials = args.trials if args.trials else (200 if args.quick else 1000)
    primes = [args.prime] if args.prime else [3, 5, 2]
    length = 5
    checks = []
    for p in primes:
        agreed = disagreed = mispredicted = 0
        for _ in range(trials):
            s, t, expected = random_compliant_pair(p, length, rng)
            got = limits_agree(s, t)
            if got != expected:
                mispredicted += 1
            if got:
                agreed += 1
            else:
                disagreed += 1
        if p == 2:
            neg = MatrixSeq(2, tuple(-IDENTITY for _ in range(length)), check=False)
            pos = MatrixSeq(2, (IDENTITY,) * length)
            canonical = seq_conditions_hold(pos, neg) and not limits_agree(pos, neg)
            ok = mispredicted == 0 and canonical
            checks.append(_check(
                "even-prime-counterexample", ok, p=p, trials=trials,
                disagreements=disagreed, note="EXPECTED: hypotheses hold, limits differ",
            ))
        else:
            ok = disagreed == 0 and mispredicted == 0
            checks.append(_check("odd-prime-limits-unique", ok, p=p, trials=trials, agreements=agreed))
    return checks


def _padicpoints_instances(args) -> list[tuple[int, int, int]]:
    if args.prime is not None:
        return [(args.prime, args.disc, args.precision)]
    return [(3, -23, args.precision)] + ([] if args.quick else [(5, -15, 2)])


def _suite_padicpoints(args, cfg: Config, rng: random.Random) -> list[dict]:
    checks = []
    for p, d, n in _padicpoints_instances(args):
        report = correspondence_report(p, d, n, check_lift=True)
        expected_codomain = report["base_size"] * p ** (3 * (n - 1))
        ok = (
            report["injective"]
            and report["surjective"]
            and report["codomain_size"] == expected_codomain
            and report["pairs"] == expected_codomain
        )
        checks.append(_check(f"correspondence-p{p}-D{d}-n{n}", ok, **report))
    return checks


_SUITE_RUNNERS = {
    "grouplaw": _suite_grouplaw,
    "levelsquare": _suite_levelsquare,
    "levelmaps": _suite_levelmaps,
    "orderchange": _suite_orderchange,
    "padiclimits": _suite_padiclimits,
    "padicpoints": _suite_padicpoints,
}


def _suite_levels(name: str, args) -> list[int]:
    """Every level the suite enumerates with these arguments (padiclimits: none)."""
    if name == "grouplaw":
        return [args.level]
    if name == "levelsquare":
        return [args.level, args.fine]
    if name == "levelmaps":
        return [m for m, _ in _levelmaps_chains(args)]
    if name == "orderchange":
        return [n for _, _, n in _ORDERCHANGE_INSTANCES]
    if name == "padicpoints":
        return [p**n for p, _, n in _padicpoints_instances(args)]
    return []


def _cmd_verify(args, cfg: Config) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.trials < 0:
        raise ValueError("--trials must be >= 0 (0 means the default)")
    for name in names:
        for level in _suite_levels(name, args):
            _check_level(level, cfg)
    rng = random.Random(cfg.seed)
    suites = []
    for name in names:
        checks = _SUITE_RUNNERS[name](args, cfg, rng)
        suites.append({"suite": name, "pass": all(c["pass"] for c in checks), "checks": checks})
    doc = {"seed": cfg.seed, "pass": all(s["pass"] for s in suites), "suites": suites}
    _emit(doc, cfg)
    return 0 if doc["pass"] else 1


# -- argument plumbing ---------------------------------------------------------


def _add_global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags live on the top-level parser (with real defaults) and on
    # every subparser (defaulting to SUPPRESS so a subcommand-position flag
    # overrides without its absence clobbering the top-level value).
    def kw(default):
        return {"default": argparse.SUPPRESS if suppress else default}

    p.add_argument("--format", choices=("json", "text"), help="output format", **kw("json"))
    p.add_argument("--seed", type=int, help="seed for randomized searches (env FORMCLASS_SEED wins)", **kw(0))
    p.add_argument("--bound", type=int, help="search bound for composition representatives", **kw(10))
    p.add_argument("--level-cap", dest="level_cap", type=int,
                   help="largest level an enumeration may touch", **kw(64))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="formclass",
        description="Exact arithmetic of form classes at a level: groups, points, towers.",
    )
    _add_global_flags(top, suppress=False)
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_global_flags(p, suppress=True)
        return p

    p_red = add_parser("reduce", help="reduce a form, with the change-of-basis witness")
    p_red.add_argument("form", help="a,b,c")

    p_eq = add_parser("equiv", help="decide equivalence of two forms at a level")
    p_eq.add_argument("form1", help="a,b,c")
    p_eq.add_argument("form2", help="a,b,c")
    p_eq.add_argument("-N", dest="level", type=int, default=1, help="level (default 1)")
    p_eq.add_argument("--gamma1", action="store_true",
                      help="use the unipotent-mod-N subgroup instead of the full congruence one")

    p_cg = add_parser("classgroup", help="build and dump the class group at (D, N)")
    p_cg.add_argument("-D", dest="disc", type=int, required=True)
    p_cg.add_argument("-N", dest="level", type=int, default=1)

    p_cm = add_parser("cm", help="enumerate the signed point classes at (D, N)")
    p_cm.add_argument("-D", dest="disc", type=int, required=True)
    p_cm.add_argument("-N", dest="level", type=int, default=1)
    p_cm.add_argument("--curve", choices=("y1", "y"), default="y1")

    p_tw = add_parser("tower", help="exhaustive base-times-kernel correspondence report")
    p_tw.add_argument("-p", dest="prime", type=int, required=True)
    p_tw.add_argument("-D", dest="disc", type=int, required=True)
    p_tw.add_argument("-n", dest="precision", type=int, default=1)
    p_tw.add_argument("--check-lift", action="store_true", help="verify lift-independence on every pair")

    p_vf = add_parser("verify", help="run a named verification suite")
    p_vf.add_argument("suite", choices=SUITES + ("all",))
    p_vf.add_argument("-p", dest="prime", type=int, default=None)
    p_vf.add_argument("-D", dest="disc", type=int, default=-23)
    p_vf.add_argument("-N", dest="level", type=int, default=3)
    p_vf.add_argument("-M", dest="fine", type=int, default=9)
    p_vf.add_argument("-n", dest="precision", type=int, default=2)
    p_vf.add_argument("--trials", type=int, default=0, help="override the number of randomized trials")
    p_vf.add_argument("--quick", action="store_true", help="smaller instances, same coverage")
    return top


_HANDLERS = {
    "reduce": _cmd_reduce,
    "equiv": _cmd_equiv,
    "classgroup": _cmd_classgroup,
    "cm": _cmd_cm,
    "tower": _cmd_tower,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    seed = args.seed
    env_seed = os.environ.get("FORMCLASS_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"FORMCLASS_SEED is not an integer: {env_seed!r}", file=sys.stderr)
            return 2
    try:
        cfg = Config(bound=args.bound, level_cap=getattr(args, "level_cap"), seed=seed, fmt=args.format)
        return _HANDLERS[args.command](args, cfg)
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2
    except LookupError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2
    except CompositionBoundError as err:
        print(f"search budget exhausted: {err} (raise --bound)", file=sys.stderr)
        return 2
    except (GroupAxiomError, RuntimeError, AssertionError) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
