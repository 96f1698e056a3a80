"""Group law on classes: two independent multiplication routes, tables, maps."""

import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import formclass
import _helpers
from formclass import suites
from _helpers import associated_form, class_of_ideal_scan_reference, column_shells_reference, compose_reference
from _helpers import ElemO, grouplaw_ideal_passes_reference, principal_ideal, signed_surjection_reference, unit_ideal
from formclass._arith import egcd
from formclass.classgroup import (
    ClassGroupTable,
    CompositionBoundError,
    GroupAxiomError,
    PMGroup,
    _SHELLS,
    _check_group_table,
    _coprime_columns,
    class_group_table,
    class_of_ideal,
    class_surjection,
    compose,
    conj_class,
    inverse_class,
    order_change_map,
    same_class,
)
from formclass.cli import main
from formclass.congruence import ClassIndex, CongKind, class_index, lift_matrix
from formclass.forms import QuadForm, UnimodMatrix, reduce_form, reduced_forms
from formclass.ideals import OIdeal, extend_to_order, form_to_ideal, ray_class_equal, unit_group
from formclass.suites import ORDERCHANGE_INSTANCES

FROZEN_TABLES = {
    (-23, 1): (3,),
    (-23, 2): (3,),
    (-23, 3): (6,),
    (-23, 4): (6,),
    (-23, 5): (36,),
    (-15, 1): (2,),
    (-15, 4): (2, 2),
    (-20, 3): (2, 2),
    (-24, 5): (4, 4),
}


@pytest.mark.parametrize("key,factors", sorted(FROZEN_TABLES.items()))
def test_invariant_factors_frozen(key, factors):
    d, n = key
    table = class_group_table(d, n)
    assert table.invariant_factors() == factors
    order = 1
    for f in factors:
        order *= f
    assert table.order == order


def test_large_cyclic_extension():
    table = class_group_table(-23, 9)
    assert table.order == 54
    assert table.invariant_factors() == (3, 18)


def test_identity_and_same_class():
    e = QuadForm.principal(-23)
    assert same_class(e, e, 3)
    x = QuadForm(2, 1, 3)
    assert not same_class(x, e, 3)
    with pytest.raises(ValueError):
        same_class(x, QuadForm.principal(-15), 3)


def test_compose_and_locate_refuse_forms_outside_the_group():
    table, e = class_group_table(-23, 3), QuadForm.principal(-23)
    shares = QuadForm(3, 1, 2)  # leading coefficient shares a factor with the level
    other = QuadForm(2, 1, 2)  # discriminant -15, not -23
    for route in (lambda f: compose(f, e, 3), lambda f: compose(e, f, 3), table.locate_class):
        for f in (shares, other):
            with pytest.raises(ValueError):
                route(f)
    with pytest.raises(ValueError) as err:
        compose(e, other, 3)
    assert str(err.value) == "discriminant mismatch: -23 vs -15"


def test_compose_neutral_and_commutative():
    table = class_group_table(-23, 3)
    e = QuadForm.principal(-23)
    for x in table.classes:
        assert same_class(compose(x, e, 3), x, 3)
        assert same_class(compose(e, x, 3), x, 3)
        for y in table.classes:
            assert same_class(compose(x, y, 3), compose(y, x, 3), 3)


def test_compose_well_defined_under_random_concordance_choice():
    # the composite must not depend on which admissible column the search picks
    table = class_group_table(-23, 3)
    pairs = [(x, y) for x in table.classes for y in table.classes]
    for seed in range(6):
        rng = random.Random(seed)
        for x, y in pairs:
            assert same_class(compose(x, y, 3, rng=rng), compose(x, y, 3), 3)


def _random_members(d, n, rng, count):
    """count class representatives at (d, n), each moved by a random element
    [[1, k], [0, 1]] or [[1, 0], [n*j, 1]] of the unipotent subgroup."""
    reps = list(class_index(d, n, CongKind.UPPER_UNIPOTENT).reps)
    out = []
    for _ in range(count):
        f = rng.choice(reps)
        k = rng.randint(-3, 3)
        g = UnimodMatrix(1, k, 0, 1) if rng.random() < 0.5 else UnimodMatrix(1, 0, n * k, 1)
        out.append(f.transform(g))
    return out


@pytest.mark.parametrize("d", [-3, -4, -15, -23, -56, -1003])
def test_compose_kernel_matches_reference_triples(d):
    # the same column, the same product triple and the same draws as the
    # UnimodMatrix route the integer kernel replaced
    for n in range(1, 13):
        rng = random.Random(1000 * n - d)
        members = _random_members(d, n, rng, 24)
        for x, y in zip(members[::2], members[1::2]):
            expected = compose_reference(x, y, n)
            assert compose(x, y, n) == expected == compose(tuple(x), tuple(y), n), (d, n, x, y)
            seed = rng.randrange(2**32)
            ours, theirs = random.Random(seed), random.Random(seed)
            z, w = compose(x, y, n, rng=ours), compose_reference(x, y, n, rng=theirs)
            assert z == w, (d, n, x, y, seed)
            assert ours.getstate() == theirs.getstate()


def test_wrong_bezout_coefficients_fail_the_middle_coefficient_check(monkeypatch, capsys):
    # (u + 1, v) moves g by a matrix of determinant 1 + p, not 1, so the
    # closed-form B misses B^2 = D (mod 4m) on some cells, and the
    # determinant check takes the other 22 of the 36 cells at (-23, 3)
    classes = class_group_table(-23, 3).classes
    columns = _coprime_columns
    monkeypatch.setattr("formclass.classgroup._coprime_columns",
                        lambda n, shells: tuple((p, r, u + 1, v) for p, r, u, v in columns(n, shells)))
    message = "B = 45 has B^2 != -23 mod 368: the moved pair is not concordant"
    with pytest.raises(RuntimeError) as err:
        compose(QuadForm(4, 5, 3), QuadForm(8, 13, 6), 3)
    assert str(err.value) == message
    caught = []
    for x, y in itertools.product(classes, repeat=2):
        with pytest.raises(RuntimeError) as err:
            compose(x, y, 3)
        caught.append(str(err.value).split()[0])
    assert (caught.count("B"), caught.count("gamma")) == (14, 22)
    assert main(["classgroup", "-D", "-23", "-N", "3"]) == 1
    assert capsys.readouterr().err == "verification failure: gamma = [[-2, 1], [-3, 2]] has determinant -1, not 1\n"


def test_coprime_shells_match_the_candidate_columns():
    for n in range(1, 13):
        for bound in range(4):
            cached = list(_coprime_columns(n, bound))
            expected = [(p, r, *egcd(p, r)[1:]) for p, r in column_shells_reference(n, bound) if egcd(p, r)[0] == 1]
            assert cached == expected, (n, bound)
            assert all(u * p + v * r == 1 for p, r, u, v in cached)


def test_composition_bound_error_names_both_triples(monkeypatch):
    # leading coefficients 2 and 2: the only column within shell 0 is (1, 0)
    x, y = QuadForm(2, 1, 3), QuadForm(2, -1, 3)
    message = "no concordant column for (2, 1, 3) * (2, -1, 3) at level 1 within bound 0"
    monkeypatch.setattr("formclass.classgroup._SHELLS", 0)
    for route in (compose, lambda x, y, n: compose_reference(x, y, n, bound=0)):
        with pytest.raises(CompositionBoundError) as err:
            route(x, y, 1)
        assert str(err.value) == message
    monkeypatch.setattr("formclass.classgroup._SHELLS", 1)
    assert compose(x, y, 1) == compose_reference(x, y, 1, bound=1)


def _hit_shells(ax, y, n, wanted):
    """The shell of each of the first `wanted` concordant columns for a_x * y."""
    ay, by, cy = y
    shells = []
    for p, r, _, _ in _coprime_columns(n, _SHELLS):
        if math.gcd(ax, (ay * p + by * r) * p + cy * r * r) == 1:
            shells.append(max(abs(p - 1), abs(r)) // n)
            if len(shells) == wanted:
                return shells
    return shells


def test_shell_limit_has_its_measured_margin():
    # the first hit (rng=None) lies within shell 3 and the four hits an rng
    # draw collects within shell 6, far inside _SHELLS
    assert _SHELLS >= 6
    for d, n in ((-31, 5), (-59, 5), (-20, 9), (-51, 7)):
        reps = [tuple(rep) for rep in class_index(d, n, CongKind.UPPER_UNIPOTENT).reps]
        ys = reps + [(a, -b, c) for a, b, c in reps]
        for (ax, _, _), y in itertools.product(reps, ys):
            shells = _hit_shells(ax, y, n, 4)
            assert len(shells) == 4 and shells[0] <= 3 and shells[3] <= 6, (d, n, ax, y, shells)
    assert _hit_shells(966, (49, 47, 12), 5, 4)[3] == 6  # the worst pair, at D = -143


# sha256 of json.dumps(ClassGroupTable.build(d, n).to_json(), sort_keys=True),
# recorded before composition moved onto integer triples
FROZEN_TABLE_DIGESTS = {
    (-23, 5): "e18d6c405a1ed050e3b4e2ba620a8031e5953880ac6814927d9dbf6cb2fd6ea2",
    (-15, 7): "095dadf6346bbd110c065d9916bd410ac996d857f4efa396c1fdbe054887dd62",
    (-20, 9): "6e162aa3a9bfdb57c47d28d05c87a8d1bb5276181727e0f88d2a583fb7127096",
}


@pytest.mark.parametrize("key", sorted(FROZEN_TABLE_DIGESTS))
def test_table_json_digest_frozen(key):
    doc = ClassGroupTable.build(*key).to_json()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == FROZEN_TABLE_DIGESTS[key]


def test_compose_matches_ideal_multiplication():
    # the independent route: multiply modules, compare by the ray predicate
    for d, n in ((-23, 3), (-15, 2), (-20, 3)):
        table = class_group_table(d, n)
        for x in table.classes:
            for y in table.classes:
                z = compose(x, y, n)
                prod = form_to_ideal(x) * form_to_ideal(y)
                assert ray_class_equal(form_to_ideal(z), prod, n)


def test_inverse_routes_through_ray_predicate():
    table = class_group_table(-23, 3)
    e = QuadForm.principal(-23)
    for x in table.classes:
        assert same_class(compose(x, inverse_class(x, 3), 3), e, 3)


def test_inverse_frozen_representative():
    x = QuadForm(2, 1, 3)
    inv = inverse_class(x, 3)
    assert same_class(inv, QuadForm(26, 17, 3), 3)
    table = class_group_table(-23, 3)
    i = table.locate_class(x)
    assert [k for k in range(1, 7) if table.power(i, k) == table.identity_index] == [6]


def test_conjugation_is_not_the_inverse_at_higher_level():
    # at level 1 conj is the inverse; at (D, N) = (-23, 5) it provably is not
    table = class_group_table(-23, 5)
    e = QuadForm.principal(-23)
    broken = [
        x for x in table.classes
        if not same_class(compose(x, x.conjugate(), 5), e, 5)
    ]
    assert broken, "x * conj(x) = identity held everywhere; conj would be the inverse"


def test_conjugation_is_an_automorphism():
    table = class_group_table(-23, 5)
    perm = conj_class(table)
    assert sorted(perm) == list(range(table.order))
    for i in range(table.order):
        for j in range(table.order):
            assert perm[table.mul(i, j)] == table.mul(perm[i], perm[j])


def test_class_of_ideal_frozen_values():
    two = principal_ideal(ElemO(2, 0, -23))
    # -2 = 1 mod 3, so the ideal 2O is ray-trivial at level 3
    e = QuadForm.principal(-23)
    assert same_class(class_of_ideal(two, -23, 3), e, 3)
    # but not at level 5
    assert not same_class(class_of_ideal(two, -23, 5), e, 5)
    assert same_class(class_of_ideal(unit_ideal(-23), -23, 5), e, 5)


def test_class_of_ideal_refuses_foreign_ideals():
    # checked before any lookup: the ideal's own (a, b) becomes a form of disc d
    with pytest.raises(ValueError, match="ideals of different orders"):
        class_of_ideal(form_to_ideal(QuadForm(2, 1, 3)), -20, 3)
    for u, n in ((form_to_ideal(QuadForm(2, 1, 3)), 2), (OIdeal(-23, Fraction(1, 3), 1, 1), 3),
                 (OIdeal(-23, Fraction(5), 1, 1), 5)):
        with pytest.raises(ValueError, match=f"ideals must be prime to {n}"):
            class_of_ideal(u, -23, n)


_CONFIRMATION_SCRIPT = """
import formclass.classgroup as m
from formclass.congruence import ClassIndex
from formclass.ideals import OIdeal
from fractions import Fraction

def attempt():
    try:
        m.class_of_ideal(OIdeal(-23, Fraction(1), 1, 1), -23, 3)
    except LookupError as err:
        print('LookupError', err)

real_equal, real_locate = m.ray_class_equal, ClassIndex.locate
m.ray_class_equal = lambda u, v, n: False
attempt()
m.ray_class_equal = real_equal
ClassIndex.locate = lambda self, f: (real_locate(self, f) + 1) % len(self.reps)
attempt()
"""


def test_class_of_ideal_confirms_by_the_ideal_route(monkeypatch):
    u = unit_ideal(-23)
    located = tuple(class_of_ideal(u, -23, 3))
    with monkeypatch.context() as patch:
        patch.setattr("formclass.classgroup.ray_class_equal", lambda u, v, n: False)
        with pytest.raises(LookupError, match=re.escape(f"is not in the class of {located}")):
            class_of_ideal(u, -23, 3)
    real = ClassIndex.locate
    with monkeypatch.context() as patch:
        patch.setattr(ClassIndex, "locate", lambda self, f: (real(self, f) + 1) % len(self.reps))
        with pytest.raises(LookupError, match="is not in the class of"):
            class_of_ideal(u, -23, 3)
    # the confirmation is a plain `if`, so python -O keeps it
    env = dict(os.environ)
    src = str(Path(formclass.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-O", "-c", _CONFIRMATION_SCRIPT], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert [line.split()[0] for line in out.stdout.splitlines()] == ["LookupError", "LookupError"], out.stdout


def _seeded_ideals(d: int, n: int, rng: random.Random) -> list[OIdeal]:
    """Every class ideal at (d, n), their inverses, 8 products of two class
    ideals and 8 class ideals scaled by an integer prime to n."""
    base = [form_to_ideal(rep) for rep in class_index(d, n, CongKind.UPPER_UNIPOTENT).reps]
    scales = [k for k in range(2, 40) if math.gcd(k, n) == 1]
    return (base + [u.inverse() for u in base]
            + [rng.choice(base) * rng.choice(base) for _ in range(8)]
            + [OIdeal(d, u.scale * rng.choice(scales), u.a, u.b) for u in rng.choices(base, k=8)])


def test_class_of_ideal_matches_the_scan():
    rng = random.Random(19)
    cases = [(u, d, n) for d in (-3, -4, -15, -23, -31, -56, -84) for n in range(1, 9)
             for u in _seeded_ideals(d, n, rng)]
    cases += [(extend_to_order(form_to_ideal(rep), dst), dst, n) for src, dst, n in ORDERCHANGE_INSTANCES
              for rep in class_index(src, n, CongKind.UPPER_UNIPOTENT).reps]
    conventions_differ = 0
    for u, d, n in cases:
        rep = class_of_ideal(u, d, n)
        assert rep == class_of_ideal_scan_reference(u, d, n), (u.to_json(), d, n)
        # the diamond operator by m = scale alone, without the factor a
        idx = class_index(d, n, CongKind.UPPER_UNIPOTENT)
        m = u.scale.numerator * pow(u.scale.denominator, -1, n) % n
        by_scale = associated_form(u).transform(lift_matrix(pow(m, -1, n), 0, 0, m, n))
        conventions_differ += idx.locate(by_scale) != idx.locate(rep)
    assert len(cases) > 2500 and conventions_differ > 0


def test_order_change_composes_through_an_intermediate_order():
    # the route through -27 extends ideals with m = 2 and then m = 3, the
    # direct one with m = 6, so a wrong m in extend_to_order splits them
    for n in range(1, 6):
        src, dst = class_group_table(-108, n), class_group_table(-3, n)
        for x in src.classes:
            via = order_change_map(order_change_map(x, -27, n), -3, n)
            assert dst.locate_class(via) == dst.locate_class(order_change_map(x, -3, n)), (n, x)


def test_inverse_class_confirms_once(monkeypatch):
    calls = []

    def counted(u, v, n):
        calls.append(n)
        return ray_class_equal(u, v, n)

    monkeypatch.setattr("formclass.classgroup.ray_class_equal", counted)
    for d, n in ((-23, 5), (-56, 7)):
        reps = class_index(d, n, CongKind.UPPER_UNIPOTENT).reps
        for rep in reps:
            inverse_class(rep, n)
        assert calls == [n] * len(reps)
        calls.clear()


def test_class_group_table_caches_one_entry_per_level():
    class_group_table.cache_clear()
    first = class_group_table(-23, 3)
    assert class_group_table(-23, 3) is first
    assert class_group_table(-23, 2) is not first
    info = class_group_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_grouplaw_fetches_the_class_index_once_per_table(capsys):
    # locate_class reads the table's own index: the lookups grow with the
    # order (one per inverse_class), not with the 2 * 24**2 located products
    before = class_index.cache_info()
    assert main(["verify", "grouplaw", "-D", "-31", "-N", "5", "--seed", "3"]) == 0
    after = class_index.cache_info()
    capsys.readouterr()
    lookups = after.hits + after.misses - before.hits - before.misses
    order = class_group_table(-31, 5).order
    assert order == 24 and lookups <= order + 2


def test_grouplaw_reads_the_unit_group_once_for_its_keys(capsys):
    # ray_keys holds the units once: the lookups grow with the order (one per
    # inverse_class confirm), plus one per `ray_class_count`, not with the
    # 24**2 products of the key law
    before = unit_group.cache_info()
    assert main(["verify", "grouplaw", "-D", "-31", "-N", "5", "--seed", "3"]) == 0
    after = unit_group.cache_info()
    capsys.readouterr()
    lookups = after.hits + after.misses - before.hits - before.misses
    order = class_group_table(-31, 5).order
    assert order == 24 and lookups <= order + 6


# -3 and -4 have six and four units, -84 has h = 4, -100 is not fundamental
GROUPLAW_GRID = [(d, n) for d in (-3, -4, -84, -100) for n in (1, 2, 3, 5)] + [(-3, 13), (-4, 13)]
IDEAL_CHECKS = ("dual-oracle-pairs", "compose-matches-ideal-product")


def test_grouplaw_ideal_checks_match_the_pairwise_reference():
    for d, n in GROUPLAW_GRID:
        rng, ref_rng = random.Random(5), random.Random(5)
        got = [c for c in suites.grouplaw(d, n, rng) if c["name"] in IDEAL_CHECKS]
        assert got == grouplaw_ideal_passes_reference(class_group_table(d, n), n, ref_rng), (d, n)
        assert rng.random() == ref_rng.random(), (d, n)


def _trivial_quotients(monkeypatch, table):
    """Every principal quotient gets the residue 1: ideals of one level-1 class merge."""
    real = formclass.ideals.ray_residue
    monkeypatch.setattr(formclass.ideals, "ray_residue",
                        lambda u, v, n: None if real(u, v, n) is None else (1 % n, 0))
    return {"dual-oracle-pairs": False}


def _swapped_class_ideals(monkeypatch, table):
    """The identity class and the next one trade ideals: a bijection on the
    classes that moves the identity, so no homomorphism."""
    e = table.identity_index
    x, y = table.classes[e], table.classes[(e + 1) % table.order]
    swap = {x: y, y: x}
    for module in (suites, _helpers):
        monkeypatch.setattr(module, "form_to_ideal", lambda f: form_to_ideal(swap.get(f, f)))
    return {"dual-oracle-pairs": True, "compose-matches-ideal-product": False}


@pytest.mark.parametrize("mutate", [_trivial_quotients, _swapped_class_ideals], ids=["trivial", "swapped"])
def test_grouplaw_ideal_mutations_fail_both_routes(monkeypatch, mutate):
    table = class_group_table(-23, 3)
    want = mutate(monkeypatch, table)
    got = {c["name"]: c["pass"] for c in suites.grouplaw(-23, 3, random.Random(0))}
    ref = {c["name"]: c["pass"] for c in grouplaw_ideal_passes_reference(table, 3, random.Random(0))}
    assert {name: got[name] for name in want} == want == {name: ref[name] for name in want}


def test_locating_products_does_not_grow_the_reduction_cache():
    """Products are located by the uncached kernel, so a table build leaves
    reduce_form's cache no larger than the reduced forms at its discriminant."""
    reduce_form.cache_clear()
    table = ClassGroupTable.build(-51, 7)
    for x, y in itertools.product(table.classes, repeat=2):
        assert table.locate_class(compose(x, y, 7)) == table.mul(table.locate_class(x), table.locate_class(y))
    assert reduce_form.cache_info().currsize <= len(reduced_forms(-51))


def test_class_of_ideal_inverts_form_to_ideal():
    table = class_group_table(-24, 5)
    for x in table.classes:
        assert same_class(class_of_ideal(form_to_ideal(x), -24, 5), x, 5)


def test_table_powers_and_element_orders():
    table = class_group_table(-23, 3)
    e = table.identity_index
    for i in range(table.order):
        k, acc = 1, i
        while acc != e:
            acc, k = table.mul(acc, i), k + 1
        assert table.power(i, k) == e
        assert table.order % k == 0
        assert table.mul(i, table.power(i, k - 1)) == e
        assert table.power(i, 0) == e and table.power(i, k + 1) == i


def test_table_power_refuses_negative_exponents():
    # the table keeps no inverse map, and halving -1 would never reach 0
    table = class_group_table(-23, 3)
    for k in (-1, -6):
        with pytest.raises(ValueError, match=f"exponent {k} is negative"):
            table.power(1, k)


def test_table_json_shape():
    doc = class_group_table(-20, 3).to_json()
    assert doc["order"] == 4
    assert doc["invariant_factors"] == [2, 2]
    assert len(doc["cayley"]) == 4
    assert all(sorted(row) == [0, 1, 2, 3] for row in doc["cayley"])
    assert all(len(rep) == 3 for rep in doc["reps"])


# -- transition maps ------------------------------------------------------------


def test_class_surjection_rejects_wrong_containment():
    with pytest.raises(ValueError):
        class_surjection(-23, 9, 3, CongKind.UPPER_UNIPOTENT, CongKind.FULL_LEVEL)
    with pytest.raises(ValueError):
        class_surjection(-23, 3, 2, CongKind.FULL_LEVEL, CongKind.FULL_LEVEL)


def test_class_surjection_reports_missed_classes(monkeypatch):
    monkeypatch.setattr(ClassIndex, "locate", lambda self, f: 0)
    with pytest.raises(GroupAxiomError, match=r"misses target classes \[1, 2"):
        class_surjection(-23, 9, 3, CongKind.FULL_LEVEL, CongKind.FULL_LEVEL)


@pytest.mark.parametrize("d", [-23, -15, -20])
def test_signed_surjection_is_the_unsigned_map_then_its_shift(d, monkeypatch):
    # the sign is kept: the minus coset maps like the plus one, shifted by the
    # target order; levelmaps' map is the signed-index route it replaced
    upper = CongKind.UPPER_UNIPOTENT
    chains = ((3, 1), (4, 2), (9, 3), (6, 3), (6, 2))
    maps = []
    real = suites._hom_onto
    monkeypatch.setattr(suites, "_hom_onto", lambda src, dst, img: maps.append(img) or real(src, dst, img))
    suites.levelmaps(d, chains)
    assert len(maps) == len(chains)
    for (m, n), signed in zip(chains, maps):
        proj = class_surjection(d, m, n, upper, upper)
        shift = len(class_index(d, n, upper).reps)
        assert signed == proj + tuple(k + shift for k in proj), (d, m, n)
        assert signed == signed_surjection_reference(d, m, n, upper, upper), (d, m, n)


# -- the signed extension ---------------------------------------------------------


def test_pm_semidirect_rule():
    table = class_group_table(-23, 3)
    pm, n = PMGroup.build(table), table.order
    x = QuadForm(2, 1, 3)
    i = table.locate_class(x)
    # a minus factor on the left conjugates the right factor and flips its sign
    z = pm.cayley[n + i][i]
    assert z >= n and same_class(table.classes[z - n], compose(x, x.conjugate(), 3), 3)
    # a plus factor on the left keeps the right factor as it is
    w = pm.cayley[i][n + i]
    assert w >= n and same_class(table.classes[w - n], compose(x, x, 3), 3)


def test_pm_inverse_both_cosets():
    table = class_group_table(-23, 3)
    pm, n, e = PMGroup.build(table), table.order, table.identity_index
    x = QuadForm(4, 3, 2)
    # inverses by the ideal route: x^-1 in the plus coset, conj(x^-1) in the minus one
    inv = inverse_class(x, 3)
    plus = (table.locate_class(x), table.locate_class(inv))
    minus = (n + plus[0], n + table.locate_class(inv.conjugate()))
    for a, b in (plus, minus):
        assert pm.cayley[a][b] == e and pm.cayley[b][a] == e


def test_pm_involution_realizes_conjugation():
    pm = PMGroup.build(class_group_table(-23, 3))
    t, n = pm.cayley, pm.base.order
    flip = n + pm.identity_index
    assert t[flip][flip] == pm.identity_index  # so flip is its own inverse
    for i in range(pm.order):
        assert t[flip][t[i][flip]] == pm.conj_perm[i % n] + (0 if i < n else n)


# -- the group-table validator ------------------------------------------------------

# a non-associative loop of the smallest possible order: a Latin square with identity 0
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def _relabel(t, perm):
    """The table of the same operation with element i renamed perm[i]."""
    out = [[0] * len(t) for _ in t]
    for i, row in enumerate(t):
        for j, k in enumerate(row):
            out[perm[i]][perm[j]] = perm[k]
    return tuple(map(tuple, out))


def _swap_to(n, e):
    """A relabelling of range(n) that moves 0 to e."""
    perm = list(range(n))
    perm[0], perm[e] = e, 0
    return perm


def _cyclic_product(m1, m2):
    elems = list(itertools.product(range(m1), range(m2)))
    index = {x: i for i, x in enumerate(elems)}
    return tuple(tuple(index[(a + c) % m1, (b + d) % m2] for c, d in elems) for a, b in elems)


def _swap_intercalate(t, e, rng, tries=50):
    """Flip one 2x2 Latin subsquare a b / b a off the identity row and column.

    The flipped table is still a Latin square with identity e, and is
    usually no longer associative.  Returns it with the two rows flipped,
    or None if no intercalate turned up.
    """
    n = len(t)
    others = [x for x in range(n) if x != e]
    if len(others) < 2:
        return None
    for _ in range(tries):
        r1, r2 = rng.sample(others, 2)
        c1 = rng.choice(others)
        c2 = t[r1].index(t[r2][c1])
        if c2 not in (e, c1) and t[r2][c2] == t[r1][c1]:
            rows = [list(row) for row in t]
            rows[r1][c1], rows[r1][c2] = rows[r1][c2], rows[r1][c1]
            rows[r2][c1], rows[r2][c2] = rows[r2][c2], rows[r2][c1]
            return tuple(map(tuple, rows)), (r1, r2)
    return None


def _associative(t, rows=None):
    n = len(t)
    return all(
        t[t[i][j]][k] == t[i][t[j][k]]
        for i in (range(n) if rows is None else rows)
        for j in range(n)
        for k in range(n)
    )


def _failing_triple(err) -> tuple[int, int, int]:
    """The (i, g, k) named by an "associativity fails at (i, g, k)" message."""
    return tuple(map(int, re.fullmatch(r"associativity fails at \((\d+), (\d+), (\d+)\)", str(err)).groups()))


def _passes(t, e):
    """Whether the validator accepts t; a rejection must name a triple that
    really fails associativity in t."""
    try:
        _check_group_table(t, e)
    except GroupAxiomError as err:
        i, g, k = _failing_triple(err)
        assert t[t[i][g]][k] != t[i][t[g][k]], (str(err), t)
        return False
    return True


def test_validator_rejects_non_associative_loop():
    # the triple the message names really fails associativity in the table
    table = class_group_table(-23, 1)
    loop = _relabel(LOOP5, _swap_to(5, table.identity_index))
    fake = table._replace(classes=table.classes + table.classes[:2], cayley=loop)
    with pytest.raises(GroupAxiomError, match="associativity fails") as err:
        fake._validate()
    i, g, k = _failing_triple(err.value)
    assert loop[loop[i][g]][k] != loop[i][loop[g][k]]
    pm = PMGroup.build(table)
    loop = _relabel(LOOP5, _swap_to(5, pm.identity_index))
    with pytest.raises(GroupAxiomError, match="associativity fails") as err:
        pm._replace(cayley=loop)._validate()
    i, g, k = _failing_triple(err.value)
    assert loop[loop[i][g]][k] != loop[i][loop[g][k]]


def test_validator_rejects_non_commutative_group():
    perms = list(itertools.permutations(range(3)))
    s3 = tuple(tuple(perms.index(tuple(p[q[i]] for i in range(3))) for q in perms) for p in perms)
    table = class_group_table(-23, 1)
    fake = table._replace(classes=table.classes * 2, cayley=s3, identity_index=0)
    _check_group_table(s3, 0)
    with pytest.raises(GroupAxiomError, match="differ") as err:
        fake._validate()
    # the pair the message names really fails to commute
    i, j = map(int, re.fullmatch(r"products (\d+)\*(\d+) and \2\*\1 differ", str(err.value)).groups())
    assert s3[i][j] != s3[j][i]


def test_validator_agrees_with_brute_force_associativity():
    rng = random.Random(20261017)
    verdicts = []
    for _ in range(1200):
        m1, m2 = rng.randint(1, 4), rng.randint(1, 6)
        n = m1 * m2
        perm = list(range(n))
        rng.shuffle(perm)
        t, e = _relabel(_cyclic_product(m1, m2), perm), perm[0]
        swapped = _swap_intercalate(t, e, rng) if rng.random() < 0.6 else None
        if swapped is not None:
            t = swapped[0]
        verdict = _passes(t, e)
        assert verdict == _associative(t), (m1, m2, perm, t)
        verdicts.append(verdict)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_validator_is_exact_above_the_old_sampling_size():
    rng = random.Random(5)
    perm = list(range(152))
    rng.shuffle(perm)
    t, e = _relabel(_cyclic_product(2, 76), perm), perm[0]
    _check_group_table(t, e)
    bad, rows = _swap_intercalate(t, e, rng)
    assert not _associative(bad, rows)
    with pytest.raises(GroupAxiomError, match="associativity fails"):
        _check_group_table(bad, e)
