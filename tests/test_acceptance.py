"""The ten headline checks, each timed against its budget.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  A criterion with a `verify` suite calls that suite from
`formclass.suites`, asserts that every check passes, and compares the suite's
numbers with closed forms written in this file without formclass (Dirichlet's
class number formula, |(O/NO)*| from the Kronecker symbol) or with frozen
values.  Criteria 3 and 7 are checks of the grouplaw suite and run inside
test_02.  Every check is exact integer arithmetic; the budgets are generous
upper bounds on a desk machine, asserted so a performance regression fails
loudly rather than silently.
"""

import math
import random
import time

from formclass import suites
from formclass.cm import cm_class_set, curve_kind, point_json
from formclass.congruence import class_index, class_key, cong_equivalent

# the shared instance list for criteria 2 and 6
INSTANCES = ((-23, 2), (-23, 3), (-23, 4), (-15, 2), (-20, 3), (-24, 5))


def _stamp(num: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s)")


def _passing(checks: list[dict]) -> dict[str, dict]:
    """The checks by name, after asserting that every one of them passed."""
    failed = [c for c in checks if not c["pass"]]
    assert not failed, f"failing checks: {failed}"
    return {c["name"]: c for c in checks}


# -- closed forms, written without formclass -------------------------------------


def _primes(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def _kronecker(d: int, a: int) -> int:
    """(d/a) for a >= 1, multiplicative in a; (d/2) by d mod 8, odd primes by Euler's criterion."""
    result = 1
    for q in _primes(a):
        k = 0
        while a % q == 0:
            a //= q
            k += 1
        if q == 2:
            chi = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
        else:
            r = pow(d % q, (q - 1) // 2, q)
            chi = 0 if r == 0 else (1 if r == 1 else -1)
        result *= chi**k
    return result


def _class_number(d: int) -> int:
    """Dirichlet's class number formula h = -(1/|D|) * sum_{a<|D|} (D/a) a, for fundamental D < -4."""
    total = sum(_kronecker(d, a) * a for a in range(1, -d))
    assert total % d == 0
    return total // d


def _residue_units(d: int, n: int) -> int:
    """|(O/NO)*| = N^2 * prod_{p|N} (1 - 1/p)(1 - (D/p)/p)."""
    size = n * n
    for q in _primes(n):
        size = size * (q - 1) * (q - _kronecker(d, q)) // (q * q)
    return size


def _ray_order(d: int, n: int) -> int:
    """h(D) * |(O/NO)*| / |{+1, -1} mod N|, the units of O being +-1 for D < -4."""
    return _class_number(d) * _residue_units(d, n) // (1 if n <= 2 else 2)


# -- the criteria ------------------------------------------------------------------


def test_01_classical_baseline():
    t0 = time.monotonic()
    rng = random.Random(0)
    for d in (-15, -20, -23, -24, -47, -71):
        # grouplaw at level 1: every Cayley cell against the product of its modules
        checks = _passing(suites.grouplaw(d, 1, rng))
        h = _class_number(d)
        assert checks["baseline-order-equals-reduced-count"]["order"] == h
        assert checks["order-formula"]["order"] == h
        assert checks["compose-matches-ideal-product"]["cells"] == h * h
    _stamp(1, "classical-baseline", t0, 1.0)


def test_02_order_formula():
    """Criteria 2, 3 and 7: order, both equality oracles and the ± extension, per instance."""
    t0 = time.monotonic()
    rng = random.Random(0)
    pm_orders = {}
    for d, n in INSTANCES:
        checks = _passing(suites.grouplaw(d, n, rng))
        order = _ray_order(d, n)
        assert checks["baseline-order-equals-reduced-count"]["order"] == _class_number(d)
        assert checks["order-formula"]["order"] == checks["order-formula"]["formula"] == order
        assert checks["residue-units-enumerated"]["units"] == _residue_units(d, n)
        assert checks["dual-oracle-pairs"]["pairs"] == order * order
        pm_orders[d, n] = checks["signed-extension-closes"]["order"]
        assert pm_orders[d, n] == 2 * order
    assert pm_orders[-23, 3] == 12
    _stamp(2, "order-formula", t0, 30.0)


def test_04_level_scaling():
    t0 = time.monotonic()
    cases = [(-23, 3), (-23, 4), (-23, 5), (-15, 4)]  # levels sharing a factor with D skipped
    for d, n in cases:
        assert math.gcd(d, n) == 1
        full = cm_class_set(d, n, "y")
        upper = cm_class_set(d, n, "y1")
        assert len(full) == n * len(upper)
    _stamp(4, "level-scaling", t0, 60.0)


def test_05_level_transition_maps():
    t0 = time.monotonic()
    d, chains = -23, ((2, 1), (3, 1), (4, 2), (9, 3))
    checks = _passing(suites.levelmaps(d, chains))
    for m, n in chains:
        assert checks[f"chain-{m}-to-{n}"]["fiber_size"] == _ray_order(d, m) // _ray_order(d, n)
    # the square of transition maps at (M, N) = (9, 3), exhaustively; a
    # full-level count is N times the unipotent one
    square = _passing(suites.levelsquare(d, 9, 3))
    assert square["square-commutes"]["classes"] == 9 * _ray_order(d, 9)
    assert square["all-edges-surjective"]["targets"] == {
        "down-full": 3 * _ray_order(d, 3),
        "relax-coarse": _ray_order(d, 3),
        "relax-fine": _ray_order(d, 9),
        "down-unipotent": _ray_order(d, 3),
    }
    _stamp(5, "level-transition-maps", t0, 60.0)


def test_06_point_class_bijection():
    t0 = time.monotonic()
    for d, n in INSTANCES:
        for curve in ("y1", "y"):
            kind = curve_kind(curve)
            idx = class_index(d, n, kind)
            points = cm_class_set(d, n, curve)
            assert len(points) == 2 * len(idx.reps)
            # a point is its signed form, and its form's key with its sign
            # names its class: the points are the classes with each sign,
            # plus first, and the upper half-plane holds exactly the sign +1
            # half
            keys = [(class_key(f.form, n, kind), f.sign) for f in points]
            assert keys == [(key, sign) for sign in (1, -1) for key in idx.by_key]
            upper = [point_json(f)["tau"]["half_plane"] == "upper" for f in points]
            assert upper == [key[1] == 1 for key in keys] and sum(upper) * 2 == len(upper)
            # well-defined on classes: a transported representative lands with
            # its own class' point, in either half-plane
            for i in (0, len(idx.reps)):
                f = points[i]
                w = cong_equivalent(f.form, f.form, n, kind)
                moved = f.transform(w)
                assert (class_key(moved.form, n, kind), moved.sign) == keys[i]
    _stamp(6, "point-class-bijection", t0, 30.0)


def test_08_padic_limits():
    t0 = time.monotonic()
    checks = suites.padiclimits((3, 5, 2), 1000, random.Random(0))
    _passing(checks)
    assert [(c["p"], c["trials"]) for c in checks] == [(3, 1000), (5, 1000), (2, 1000)]
    assert checks[0]["agreements"] == checks[1]["agreements"] == 1000
    assert checks[2]["name"] == "even-prime-counterexample"
    assert checks[2]["disagreements"] == 493  # frozen: pins the random stream of seed 0
    _stamp(8, "padic-limits", t0, 10.0)


def test_09_padic_correspondence():
    t0 = time.monotonic()
    instances = [(3, -23, 2), (5, -15, 2)]
    reports = _passing(suites.padicpoints(instances)).values()
    for report, (p, d, n) in zip(reports, instances):
        # signed full-level point classes at p: 2 signs times p times the unipotent count
        base = 2 * p * _ray_order(d, p)
        assert report["base_size"] == base
        assert report["kernel_size"] == p ** (3 * (n - 1))
        assert report["codomain_size"] == report["pairs"] == base * p ** (3 * (n - 1))
    assert [r["base_size"] for r in reports] == [36, 200]
    _stamp(9, "padic-correspondence", t0, 120.0)


def test_10_order_change():
    t0 = time.monotonic()
    checks = _passing(suites.orderchange(suites.ORDERCHANGE_INSTANCES))
    assert list(checks) == ["order--60-to--15-at-1", "order--92-to--23-at-1", "order--92-to--23-at-3"]
    assert all(c["hom"] and c["surjective"] for c in checks.values())
    _stamp(10, "order-change", t0, 10.0)
