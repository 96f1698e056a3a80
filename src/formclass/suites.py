"""The six verification suites behind `formclass verify`.

Each suite is a plain function over explicit arguments that returns its list
of check dicts, `{"name": ..., "pass": bool, **detail}`.  The command line
renders them; the acceptance tests call them and compare their numbers with
closed forms.  Randomized suites draw only from the `rng` they are given, so a
seed fixes their output.
"""

from __future__ import annotations

import random

from .classgroup import (
    GroupAxiomError,
    PMGroup,
    class_group_table,
    class_surjection,
    compose,
    inverse_class,
    order_change_map,
    paired_grid,
    same_class,
)
from .congruence import CongKind, class_index
from .forms import IDENTITY, QuadForm, reduced_forms
from .ideals import form_to_ideal, ray_class_count, ray_keys, residue_units, unit_count
from .tower import MatrixSeq, correspondence_report, limits_agree, random_compliant_pair, seq_conditions_hold

# (source discriminant, target discriminant, level) for `orderchange`
ORDERCHANGE_INSTANCES = ((-60, -15, 1), (-92, -23, 1), (-92, -23, 3))


def check(name: str, ok: bool, **detail) -> dict:
    return {"name": name, "pass": bool(ok), **detail}


def grouplaw(d: int, n: int, rng: random.Random) -> list[dict]:
    """Order against the reduced-form count and the formula, the enumerated
    residue units against their closed form, inverses, and the ± extension at
    (d, n); the class ideals against the Cayley table through their ray-class
    keys (`ray_keys`).

    `dual-oracle-pairs` asks the matrix route (`same_class`) on all n^2 pairs
    and the ideal route once: the n keys, a complete invariant, are defined
    and distinct.  `compose-matches-ideal-product` composes every cell with a
    random admissible column and locates it, and compares the key law on the
    factors' keys with the key of the table's product, so a cell costs no
    ideal product and no ray-class test.  A quotient with no generator where
    one must exist leaves a key undefined, which fails both checks; nothing
    raises.  `conjugation-is-automorphism` locates the conjugated products
    by `paired_grid`, as the table's own are.
    """
    checks = []

    baseline = class_group_table(d, 1)
    brute = len(reduced_forms(d))
    checks.append(check("baseline-order-equals-reduced-count", baseline.order == brute,
                        D=d, order=baseline.order, reduced_forms=brute))

    table = class_group_table(d, n)
    expected = ray_class_count(d, n)
    checks.append(check("order-formula", table.order == expected,
                        D=d, N=n, order=table.order, formula=expected))

    units_order = residue_units(d, n)
    closed_form = unit_count(d, n)
    checks.append(check("residue-units-enumerated", units_order == closed_form,
                        units=units_order, closed_form=closed_form))

    keys, times = ray_keys([form_to_ideal(x) for x in table.classes], n)
    ok_dual = None not in keys and len(set(keys)) == table.order
    for i, x in enumerate(table.classes):
        for j, y in enumerate(table.classes):
            if same_class(x, y, n) != (i == j):
                ok_dual = False
    checks.append(check("dual-oracle-pairs", ok_dual, pairs=table.order**2))

    ok_cells = None not in keys
    for i, x in enumerate(table.classes):
        for j, y in enumerate(table.classes):
            z = compose(x, y, n, rng=rng)
            k = table.mul(i, j)
            if table.locate_class(z) != k or times(keys[i], keys[j]) != keys[k]:
                ok_cells = False
    checks.append(check("compose-matches-ideal-product", ok_cells, cells=table.order**2))

    ok_inv = all(
        same_class(compose(x, inverse_class(x, n), n), QuadForm.principal(d), n)
        for x in table.classes
    )
    checks.append(check("inverses-via-ideal-route", ok_inv))

    try:
        pm = PMGroup.build(table)
        conj = pm.conj_perm
        conj_cells = paired_grid(table.classes, lambda x, y: compose(x, y, n).conjugate(), table.locate_class)
        conj_auto = all(k == table.mul(conj[i], conj[j]) for i, row in enumerate(conj_cells) for j, k in enumerate(row))
        checks.append(check("signed-extension-closes", pm.order == 2 * table.order, order=pm.order))
        checks.append(check("conjugation-is-automorphism", conj_auto))
    except GroupAxiomError as err:
        checks.append(check("signed-extension-closes", False, error=str(err)))
    return checks


def levelsquare(d: int, m: int, n: int) -> list[dict]:
    """The square of class surjections between (full, unipotent) x (m, n) commutes.

    An edge that misses target classes fails `all-edges-surjective`, naming
    them, and `square-commutes` fails with it: the square is then undefined.
    """
    full, upper = CongKind.FULL_LEVEL, CongKind.UPPER_UNIPOTENT
    edges = {  # name: (source level, target level, source kind, target kind)
        "down-full": (m, n, full, full),
        "relax-coarse": (n, n, full, upper),
        "relax-fine": (m, m, full, upper),
        "down-unipotent": (m, n, upper, upper),
    }
    maps, missed = {}, {}
    for name, edge in edges.items():
        try:
            maps[name] = class_surjection(d, *edge)
        except GroupAxiomError as err:
            missed[name] = str(err)
    size = len(class_index(d, m, full).reps)
    commute = not missed and all(
        maps["relax-coarse"][maps["down-full"][i]] == maps["down-unipotent"][maps["relax-fine"][i]]
        for i in range(size)
    )
    if missed:
        surjective = check("all-edges-surjective", False, missed=missed)
    else:
        targets = {name: len(class_index(d, dst, kind).reps) for name, (_, dst, _, kind) in edges.items()}
        surjective = check("all-edges-surjective", True, targets=targets)
    return [check("square-commutes", commute, D=d, fine=m, coarse=n, classes=size), surjective]


def _hom_onto(src, dst, img) -> tuple[bool, bool]:
    """(hom, onto) for the index map img from the group with Cayley table src
    to the one with Cayley table dst."""
    hom = all(img[k] == dst[img[i]][img[j]] for i, row in enumerate(src) for j, k in enumerate(row))
    return hom, set(img) == set(range(len(dst)))


def levelmaps(d: int, chains) -> list[dict]:
    """Each level projection m -> n of the signed groups CM(D, Y1(N)^±) is a
    surjective homomorphism with even fibers.

    The signed group at level k is `PMGroup.build` of the class group table at
    (d, k).  The projection keeps the sign, so it is the unipotent
    `class_surjection` from m to n on the plus coset, followed by the same map
    shifted by the level-n order on the minus coset.  A minus factor
    conjugates its right factor, so this covers conjugation as well as the
    product; it holds exactly when the levelwise product of two compatible
    sequences in the inverse limit is again compatible.
    """
    groups: dict[int, PMGroup] = {}
    checks = []
    for m, n in chains:
        for k in (m, n):
            if k not in groups:
                groups[k] = PMGroup.build(class_group_table(d, k))
        gm, gn = groups[m], groups[n]
        fiber = gm.order // gn.order
        try:
            plus = class_surjection(d, m, n, CongKind.UPPER_UNIPOTENT, CongKind.UPPER_UNIPOTENT)
        except GroupAxiomError as err:
            checks.append(check(f"chain-{m}-to-{n}", False, surjective=False, fiber_size=fiber, missed=str(err)))
            continue
        signed = plus + tuple(k + gn.base.order for k in plus)
        hom, onto = _hom_onto(gm.cayley, gn.cayley, signed)
        fibers_even = all(signed.count(k) == fiber for k in range(gn.order))
        checks.append(check(f"chain-{m}-to-{n}", hom and onto and fibers_even,
                            hom=hom, surjective=onto, fiber_size=fiber))
    return checks


def orderchange(instances) -> list[dict]:
    """Pushing classes to a smaller-conductor order is a surjective homomorphism."""
    checks = []
    for d_src, d_dst, n in instances:
        ts, td = class_group_table(d_src, n), class_group_table(d_dst, n)
        img = [td.locate_class(order_change_map(x, d_dst, n)) for x in ts.classes]
        hom, onto = _hom_onto(ts.cayley, td.cayley, img)
        checks.append(check(f"order-{d_src}-to-{d_dst}-at-{n}", hom and onto,
                            hom=hom, surjective=onto))
    return checks


def padiclimits(primes, trials: int, rng: random.Random) -> list[dict]:
    """Random convergent pairs agree for odd p; at p = 2 the I/-I pair is the
    expected counterexample."""
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
            neg = MatrixSeq(2, (-IDENTITY,) * length)
            pos = MatrixSeq(2, (IDENTITY,) * length)
            canonical = seq_conditions_hold(pos, neg) and not limits_agree(pos, neg)
            ok = mispredicted == 0 and canonical
            checks.append(check(
                "even-prime-counterexample", ok, p=p, trials=trials,
                disagreements=disagreed, note="EXPECTED: hypotheses hold, limits differ",
            ))
        else:
            ok = disagreed == 0 and mispredicted == 0
            checks.append(check("odd-prime-limits-unique", ok, p=p, trials=trials, agreements=agreed))
    return checks


def padicpoints(instances) -> list[dict]:
    """Base points x reduction kernel hit every level-p^n class exactly once, for
    each (p, d, n) with p != 2 (at p = 2 and n >= 2, -I in Gamma(2) hits each twice)."""
    checks = []
    for p, d, n in instances:
        report = correspondence_report(p, d, n, check_lift=True)
        expected_codomain = report["base_size"] * p ** (3 * (n - 1))
        ok = (
            report["injective"]
            and report["surjective"]
            and report["codomain_size"] == expected_codomain
            and report["pairs"] == expected_codomain
        )
        checks.append(check(f"correspondence-p{p}-D{d}-n{n}", ok, **report))
    return checks
