"""Command-line front end: the six subcommands.

Each command is a plan (sites, run).  A site (D, (base, exponent), passes)
is one place the command enumerates at: the discriminant it scans there, or
None, the level, and its passes over the class group table there, or 0.
`main` checks that --level-cap is >= 1, then every site's level against the
cap, its D against SCAN_BUDGET and its passes against CELL_BUDGET, so an
oversized input exits 2 before the plan runs.  `verify` joins the sites of
its suites, which run the suites of `formclass.suites` on one seeded RNG.

Every command prints one JSON document (or a plain-text rendering with
--format text) built only from exact integers, so identical invocations with
the same seed are byte-identical.  Exit codes: 0 all checks passed, 1 a
mathematical verification failed (or a composition search found no
concordant pair), 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import suites
from ._arith import is_prime
from .classgroup import ClassGroupTable, GroupAxiomError
from .cm import cm_class_set, point_json
from .congruence import CongKind, cong_equivalent
from .forms import QuadForm, reduce_form
from .ideals import ray_class_count
from .tower import correspondence_report

SUITES = ("grouplaw", "levelsquare", "levelmaps", "orderchange", "padiclimits", "padicpoints")


def _parse_form(text: str) -> QuadForm:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected a,b,c — got {text!r}")
    a, b, c = (int(t) for t in parts)
    return QuadForm(a, b, c)


def _check_level(base: int, cap: int, exponent: int) -> None:
    """ValueError unless the level base**exponent lies in [1, cap].

    A base with |base| >= 2 at least doubles the level with each step of the
    exponent, so an exponent past the cap's bit length is refused before the
    power is taken, and so is an exponent below 1.
    """
    if exponent < 1:
        raise ValueError("precision must be >= 1")
    if abs(base) >= 2 and exponent > cap.bit_length():
        raise ValueError(f"level {base}^{exponent} exceeds the cap {cap} (raise --level-cap)")
    n = base**exponent
    if n < 1:
        raise ValueError("level must be >= 1")
    if n > cap:
        raise ValueError(f"level {n} exceeds the cap {cap} (raise --level-cap)")


# The reduced-form scan behind every enumeration at a discriminant D takes
# about |D|/3 steps (a up to sqrt(|D|/3), b in [-a, a]); 10**7 steps take ~2 s.
SCAN_BUDGET = 10**7

# A padiclimits trial takes ~27 us (20,000 each at p = 3, 5, 2 in 1.6 s; Python
# 3.11, 2 cores): 5 * 10**5 trials take ~14 s, and CELL_BUDGET's cells ~8 s.
TRIAL_BUDGET = 5 * 10**5


def _check_disc(d: int) -> None:
    """ValueError unless the reduced-form scan at d fits in SCAN_BUDGET steps."""
    steps = abs(d) // 3
    if steps > SCAN_BUDGET:
        raise ValueError(f"discriminant {d} needs ~{steps} reduced-form scan steps, over the budget of {SCAN_BUDGET}")


# A Cayley table of order h takes h**2 cells: a `compose` each, and a `locate`
# for all but the pairs whose two products are one triple (`paired_grid`).
# A cell takes ~8 us at order 900 and ~4.4 us at order 48 (best of 30 builds
# at (-51, 7)), so 10**6 cells take about 8 s.
CELL_BUDGET = 10**6

# `verify grouplaw` then runs its matrix oracle over all pairs, composes every
# cell again with a random column and every conjugate cell: 0.30 s for the
# table (best of 3) and 1.52 s for the rest (median of 3) at (-23, 13), order
# 216 (5.0 table passes), and 0.28 s and 1.44 s at (-4, 29), order 196 (5.1
# passes; Python 3.11, 2 cores; the six runs gave 3.4 to 5.0 passes).
GROUPLAW_PASSES = 7


def _check_table(d: int, n: int, passes: int = 1) -> None:
    """ValueError unless `passes` passes over the class group table at (d, n)
    fit in CELL_BUDGET cells.

    Call it after _check_disc(d): `ray_class_count` scans the reduced forms at d.
    """
    order = ray_class_count(d, n)
    if passes * order**2 > CELL_BUDGET:
        more = f", and {passes} passes over it need {passes * order**2} cells" if passes > 1 else ""
        raise ValueError(f"the class group at (D, N) = ({d}, {n}) has order {order}, "
                         f"so its table needs {order**2} cells{more}, over the budget of {CELL_BUDGET}")


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
        return
    for line in _render_text(doc):
        print(line)


def _render_text(doc: dict | list, prefix: str = "") -> list[str]:
    """One line per scalar, labelled `key:` in a dict and `-` in a list."""
    items = [(f"{key}:", doc[key]) for key in sorted(doc)] if isinstance(doc, dict) else [("-", v) for v in doc]
    lines: list[str] = []
    for label, val in items:
        if isinstance(val, (dict, list)) and val and not _is_flat(val):
            lines += [f"{prefix}{label}", *_render_text(val, prefix + "  ")]
        else:
            lines.append(f"{prefix}{label} {json.dumps(val, sort_keys=True)}")
    return lines


def _is_flat(val) -> bool:
    if isinstance(val, list):
        return all(isinstance(x, (int, str, bool)) for x in val)
    return False


# -- plans ---------------------------------------------------------------------


def _plan(args):
    """(sites, run) for the command in args: every site it enumerates at, a
    tower's level p^n before its base level p, so that the cap and -n are
    named first, and the call that runs it and returns (document, exit code).
    Building a plan parses its forms, refuses a negative --trials, padiclimits
    trials over all primes past TRIAL_BUDGET, a levelsquare -N not dividing
    -M, a non-prime padiclimits -p within the cap and -p 2 for the tower
    correspondence, and enumerates nothing."""
    if args.command == "reduce":
        f = _parse_form(args.form)

        def run():
            reduced, witness = reduce_form(f)
            return {"input": list(f), "reduced": list(reduced), "witness": witness.to_json(),
                    "discriminant": f.discriminant()}, 0
        return [], run
    if args.command == "equiv":
        f, g = _parse_form(args.form1), _parse_form(args.form2)
        kind = CongKind.UPPER_UNIPOTENT if args.gamma1 else CongKind.FULL_LEVEL

        def run():
            w = cong_equivalent(f, g, args.level, kind)
            doc = {"first": list(f), "second": list(g), "N": args.level, "kind": kind.value,
                   "equivalent": w is not None}
            if w is not None:
                doc["witness"] = w.to_json()
            return doc, 0
        return [(None, (args.level, 1), 0)], run
    d = args.disc
    if args.command == "classgroup":
        n = args.level

        def run():
            doc = ClassGroupTable.build(d, n).to_json()
            doc["order_formula"] = ray_class_count(d, n)
            return doc, 0
        return [(d, (n, 1), 1)], run
    if args.command == "cm":
        n = args.level

        def run():
            classes = [point_json(f) for f in cm_class_set(d, n, args.curve)]
            return {"D": d, "N": n, "curve": args.curve, "count": len(classes), "classes": classes}, 0
        return [(d, (n, 1), 0)], run
    if args.prime == 2 and (args.command == "tower" or args.suite in ("padicpoints", "all")):  # tower or verify
        raise ValueError("-p 2 is refused: -I lies in Gamma(2), so the correspondence is 2-to-1 above level 2")
    if args.command == "tower":
        def run():
            report = correspondence_report(args.prime, d, args.precision, check_lift=args.check_lift)
            return report, 0 if report["injective"] and report["surjective"] else 1
        return [(d, (args.prime, args.precision), 0), (d, (args.prime, 1), 0)], run
    if args.trials < 0:  # verify
        raise ValueError("--trials must be >= 0 (0 means the default)")
    names = SUITES if args.suite == "all" else (args.suite,)
    sites, suite_runs = zip(*(_suite(name, args) for name in names))

    def run():
        rng = random.Random(args.seed)
        results = []
        for name, suite_run in zip(names, suite_runs):
            checks = suite_run(rng)
            results.append({"suite": name, "pass": all(c["pass"] for c in checks), "checks": checks})
        passed = all(s["pass"] for s in results)
        return {"seed": args.seed, "pass": passed, "suites": results}, 0 if passed else 1
    return sum(sites, []), run


def _suite(name: str, args):
    """The plan of one verify suite, as `_plan` describes it, except that its
    run takes the shared RNG and returns the suite's checks."""
    d = args.disc
    if name == "grouplaw":
        return ([(d, (1, 1), 1), (d, (args.level, 1), GROUPLAW_PASSES)],
                lambda rng: suites.grouplaw(d, args.level, rng))
    if name == "levelsquare":
        if min(args.level, args.fine) >= 1 and args.fine % args.level:  # levels below 1 fail _check_level
            raise ValueError(f"target level {args.level} must divide source level {args.fine}")
        return ([(d, (args.level, 1), 0), (d, (args.fine, 1), 0)],
                lambda rng: suites.levelsquare(d, args.fine, args.level))
    if name == "levelmaps":
        chains = [(3, 1)] if args.quick else [(2, 1), (3, 1), (4, 2), (9, 3)]
        return [(d, (k, 1), 1) for chain in chains for k in chain], lambda rng: suites.levelmaps(d, chains)
    if name == "orderchange":
        instances = suites.ORDERCHANGE_INSTANCES
        return [(disc, (n, 1), 1) for *pair, n in instances for disc in pair], lambda rng: suites.orderchange(instances)
    if name == "padiclimits":
        trials = args.trials or (200 if args.quick else 1000)
        primes = [args.prime] if args.prime is not None else [3, 5, 2]
        sites = [(None, (args.prime, 1), 0)] if args.prime is not None else []
        if sites and 1 <= args.prime <= args.level_cap and not is_prime(args.prime):  # _check_level refuses the rest
            raise ValueError(f"{args.prime} is not prime")
        total = trials * len(primes)
        if total > TRIAL_BUDGET:
            raise ValueError(f"{trials} trials at each of {primes} make {total}, over the budget of {TRIAL_BUDGET}")
        return sites, lambda rng: suites.padiclimits(primes, trials, rng)
    if args.prime is not None:  # padicpoints
        instances = [(args.prime, args.disc, args.precision)]
    else:
        instances = [(3, -23, args.precision)] + ([] if args.quick else [(5, -15, 2)])
    sites = [site for p, disc, n in instances for site in ((disc, (p, n), 0), (disc, (p, 1), 0))]
    return sites, lambda rng: suites.padicpoints(instances)


# -- argument plumbing ---------------------------------------------------------


GLOBAL_FLAGS = ("--format", "--seed", "--level-cap")


def _add_global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags live on the top-level parser (with real defaults) and on
    # every subparser (defaulting to SUPPRESS so a subcommand-position flag
    # overrides without its absence clobbering the top-level value).
    def kw(default):
        return {"default": argparse.SUPPRESS if suppress else default}

    p.add_argument("--format", choices=("json", "text"), help="output format", **kw("json"))
    p.add_argument("--seed", type=int, help="seed for randomized searches", **kw(0))
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
    p_tw.add_argument("--check-lift", action="store_true",
                      help="check each image's class against the one read off the residues of its matrix, "
                      "and join one image per base point to its codomain class by a witness")

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


def _check_leading_flags(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Usage error naming the first unknown option before the subcommand.

    argparse would take that option's value for the subcommand and report an
    invalid choice instead.  Every global flag takes one value; a prefix of one
    is left to argparse, which accepts unique abbreviations, and so is help.
    """
    i = 0
    while i < len(argv) and argv[i].startswith("-") and argv[i] != "-h":
        flag = argv[i].split("=", 1)[0]
        if "--help".startswith(flag):
            return
        if not any(known.startswith(flag) for known in GLOBAL_FLAGS):
            parser.error(f"unrecognized arguments: {argv[i]}")
        i += 1 if "=" in argv[i] else 2


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    _check_leading_flags(parser, argv)
    args = parser.parse_args(argv)
    try:
        if args.level_cap < 1:
            raise ValueError("level cap must be >= 1")
        sites, run = _plan(args)
        for _, (base, exponent), _ in sites:
            _check_level(base, args.level_cap, exponent)
        for d, _, _ in sites:
            if d is not None:
                _check_disc(d)
        for d, (base, exponent), passes in sites:
            if passes:
                _check_table(d, base**exponent, passes)
        doc, code = run()
    except (ValueError, LookupError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 2
    except (GroupAxiomError, RuntimeError) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 1
    _emit(doc, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
