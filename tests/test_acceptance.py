"""The ten headline checks, each timed against its budget.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Every check is exact integer arithmetic; the budgets are generous
upper bounds on a desk machine, asserted so a performance regression fails
loudly rather than silently.
"""

import math
import random
import time

from formclass.classgroup import (
    PMGroup,
    class_group_table,
    class_surjection,
    level_map,
    order_change_map,
)
from formclass.cm import cm_class_set, curve_kind, point_of_class, class_of_point, CMPoint
from formclass.congruence import CongKind, class_index, cong_equivalent, enumerate_classes
from formclass.forms import IDENTITY, reduced_forms
from formclass.ideals import (
    form_to_ideal,
    ray_class_count,
    ray_class_equal,
    residue_units,
    unit_image_size,
)
from formclass.tower import MatrixSeq, correspondence_report, limits_agree, random_compliant_pair, seq_conditions_hold

UPPER = CongKind.UPPER_UNIPOTENT
FULL = CongKind.FULL_LEVEL

# the shared instance list for criteria 2, 3, and 6
INSTANCES = ((-23, 2), (-23, 3), (-23, 4), (-15, 2), (-20, 3), (-24, 5))


def _stamp(num: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s)")


def test_01_classical_baseline():
    t0 = time.monotonic()
    for d in (-15, -20, -23, -24, -47, -71):
        table = class_group_table(d, 1)
        assert table.order == len(reduced_forms(d))
        # cell-for-cell: composing classes must match multiplying modules
        for i, x in enumerate(table.classes):
            for j, y in enumerate(table.classes):
                prod = form_to_ideal(x.rep) * form_to_ideal(y.rep)
                z = table.classes[table.mul(i, j)]
                assert ray_class_equal(form_to_ideal(z.rep), prod, 1)
    _stamp(1, "classical-baseline", t0, 1.0)


def test_02_order_formula():
    t0 = time.monotonic()
    for d, n in INSTANCES:
        h = len(reduced_forms(d))
        units, _ = residue_units(d, n)
        expected = h * units // unit_image_size(d, n)
        assert ray_class_count(d, n) == expected
        assert class_group_table(d, n).order == expected
    _stamp(2, "order-formula", t0, 5.0)


def test_03_dual_oracle_coherence():
    t0 = time.monotonic()
    for d, n in INSTANCES:
        reps = class_index(d, n, UPPER, signed=False).reps
        for i, f in enumerate(reps):
            for j, g in enumerate(reps):
                matrix_route = cong_equivalent(f, g, n, UPPER) is not None
                ideal_route = ray_class_equal(form_to_ideal(f.form), form_to_ideal(g.form), n)
                assert matrix_route == ideal_route == (i == j)
    _stamp(3, "dual-oracle-coherence", t0, 30.0)


def test_04_level_scaling():
    t0 = time.monotonic()
    cases = [(-23, 3), (-23, 4), (-23, 5), (-15, 4)]  # levels sharing a factor with D skipped
    for d, n in cases:
        assert math.gcd(d, n) == 1
        full = enumerate_classes(d, n, FULL, signed=True)
        upper = enumerate_classes(d, n, UPPER, signed=True)
        assert len(full) == n * len(upper)
    _stamp(4, "level-scaling", t0, 60.0)


def test_05_level_transition_maps():
    t0 = time.monotonic()
    d = -23
    for m, n in ((2, 1), (3, 1), (4, 2), (9, 3)):
        tm, tn = class_group_table(d, m), class_group_table(d, n)
        proj = [tn.locate_class(level_map(x, m, n)) for x in tm.classes]
        assert set(proj) == set(range(tn.order))
        fiber = tm.order // tn.order
        assert all(proj.count(k) == fiber for k in range(tn.order))
        for i in range(tm.order):
            for j in range(tm.order):
                assert proj[tm.mul(i, j)] == tn.mul(proj[i], proj[j])
    # the square of transition maps at (M, N) = (9, 3), exhaustively
    m, n = 9, 3
    down_full = class_surjection(d, m, n, FULL, FULL)
    relax_coarse = class_surjection(d, n, n, FULL, UPPER)
    relax_fine = class_surjection(d, m, m, FULL, UPPER)
    down_upper = class_surjection(d, m, n, UPPER, UPPER)
    for i in range(len(down_full)):
        assert relax_coarse[down_full[i]] == down_upper[relax_fine[i]]
    _stamp(5, "level-transition-maps", t0, 60.0)


def test_06_point_class_bijection():
    t0 = time.monotonic()
    for d, n in INSTANCES:
        for curve in ("y1", "y"):
            kind = curve_kind(curve)
            idx = class_index(d, n, kind, signed=True)
            points = cm_class_set(d, n, curve)
            assert len(points.classes) == len(idx.reps)
            for f in idx.reps:
                assert class_of_point(point_of_class(f), n) == f
            for p in points.classes:
                assert point_of_class(class_of_point(p, n)) == p
            # well-defined on classes: a transported representative lands with
            # its own class' point
            f = idx.reps[0]
            w = cong_equivalent(f, f, n, kind)
            assert points.locate(point_of_class(f.transform(w))) == points.locate(CMPoint(f))
    _stamp(6, "point-class-bijection", t0, 30.0)


def test_07_signed_extension():
    t0 = time.monotonic()
    base = class_group_table(-23, 3)
    pm = PMGroup.build(base)  # build() validates the group axioms exactly, associativity included
    assert pm.order == 2 * base.order == 12
    perm = pm.conj_perm
    for i in range(base.order):
        for j in range(base.order):
            assert perm[base.mul(i, j)] == base.mul(perm[i], perm[j])
    flip = base.order + pm.identity_index
    assert pm.mul(flip, flip) == pm.identity_index
    for i in range(pm.order):
        conjugated = pm.mul(flip, pm.mul(i, pm.inverse_index(flip)))
        assert conjugated == perm[i % base.order] + (0 if i < base.order else base.order)
    _stamp(7, "signed-extension", t0, 10.0)


def test_08_padic_limits():
    t0 = time.monotonic()
    rng = random.Random(0)
    for p in (3, 5):
        for _ in range(1000):
            s, u, expected = random_compliant_pair(p, 5, rng)
            assert expected is True
            assert limits_agree(s, u)
    pos = MatrixSeq(2, (IDENTITY,) * 5)
    neg = MatrixSeq(2, (-IDENTITY,) * 5, check=False)
    assert seq_conditions_hold(pos, neg)
    assert not limits_agree(pos, neg)
    _stamp(8, "padic-limits", t0, 10.0)


def test_09_padic_correspondence():
    t0 = time.monotonic()
    first = correspondence_report(3, -23, 2, check_lift=True)
    assert first["base_size"] == 36
    assert first["kernel_size"] == 27
    assert first["codomain_size"] == 972
    assert first["pairs"] == 972
    assert first["injective"] and first["surjective"]

    second = correspondence_report(5, -15, 2, check_lift=True)
    expected_base = 2 * 5 * ray_class_count(-15, 5)
    assert second["base_size"] == expected_base == 200
    assert second["kernel_size"] == 5**3
    assert second["codomain_size"] == expected_base * 5**3
    assert second["pairs"] == second["codomain_size"]
    assert second["injective"] and second["surjective"]
    _stamp(9, "padic-correspondence", t0, 120.0)


def test_10_order_change():
    t0 = time.monotonic()
    for d_src, d_dst, n in ((-60, -15, 1), (-92, -23, 1), (-92, -23, 3)):
        ts, td = class_group_table(d_src, n), class_group_table(d_dst, n)
        img = [td.locate_class(order_change_map(x, d_dst)) for x in ts.classes]
        assert set(img) == set(range(td.order))
        for i in range(ts.order):
            for j in range(ts.order):
                assert img[ts.mul(i, j)] == td.mul(img[i], img[j])
    _stamp(10, "order-change", t0, 10.0)
