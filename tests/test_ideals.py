"""Order elements, invertible modules, principality, and the ray-type predicate.

The brute-force principality search (`_helpers.ray_class_equal_bruteforce`) is one-sided:
a hit proves equality, a miss proves nothing, so it is only asserted positively
and with a generous coordinate bound.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formclass
import formclass.ideals as ideals_module
from _helpers import ElemO, associated_form, basis_rows, conjugate_ideal, elem_add, elem_conj, elem_mul
from _helpers import fundamental_part_reference, hnf_pair_reference
from _helpers import ideal_norm, omega, principal_generator_reference, principal_ideal, ray_class_equal_bruteforce
from _helpers import ray_class_equal_objects_reference, ray_class_equal_reference, unit_ideal
from formclass.congruence import CongKind, class_index
from formclass.forms import QuadForm, UnimodMatrix, reduced_forms
from formclass.ideals import (
    _hnf_pair,
    OIdeal,
    extend_to_order,
    form_to_ideal,
    fundamental_part,
    principal_generator,
    ray_class_count,
    ray_class_equal,
    ray_keys,
    residue_mul,
    residue_name,
    residue_units,
    unit_group,
    unit_image_size,
)

DISCS = (-3, -4, -15, -20, -23, -24)

coords = st.integers(min_value=-6, max_value=6)


@st.composite
def elem(draw, discs=DISCS):
    d = draw(st.sampled_from(discs))
    return ElemO(draw(coords), draw(coords), d)


# -- orders and their elements ---------------------------------------------------


def test_fundamental_part():
    assert fundamental_part(-23) == (-23, 1)
    assert fundamental_part(-92) == (-23, 2)
    assert fundamental_part(-60) == (-15, 2)
    assert fundamental_part(-12) == (-3, 2)
    assert fundamental_part(-16) == (-4, 2)


def test_fundamental_part_matches_the_scan():
    """The factorization route equals the descending scan on every discriminant in [-5000, -3]."""
    for d in range(-3, -5001, -1):
        if d % 4 in (0, 1):
            assert fundamental_part(d) == fundamental_part_reference(d), d


def test_omega_satisfies_its_quadratic():
    assert omega(-92).norm() == 2139  # (d^2 - d)/4, the constant term of w's minimal polynomial
    for d in DISCS:
        w = omega(d)
        # omega^2 - D*omega + (D^2 - D)/4 = 0
        lhs = elem_add(elem_add(elem_mul(w, w), -elem_mul(ElemO(d, 0, d), w)), ElemO((d * d - d) // 4, 0, d))
        assert lhs == ElemO(0, 0, d)


@given(elem(), elem(), elem())
@settings(max_examples=150, deadline=None)
def test_ring_laws(x, y, z):
    if not (x.disc == y.disc == z.disc):
        return
    assert elem_add(x, y) == elem_add(y, x)
    assert elem_mul(x, y) == elem_mul(y, x)
    assert elem_mul(elem_mul(x, y), z) == elem_mul(x, elem_mul(y, z))
    assert elem_mul(x, elem_add(y, z)) == elem_add(elem_mul(x, y), elem_mul(x, z))


@given(elem(), elem())
@settings(max_examples=150, deadline=None)
def test_norm_and_conjugation_multiplicative(x, y):
    if x.disc != y.disc:
        return
    assert elem_mul(x, y).norm() == x.norm() * y.norm()
    assert elem_conj(elem_mul(x, y)) == elem_mul(elem_conj(x), elem_conj(y))
    assert elem_conj(elem_conj(x)) == x


@given(elem())
@settings(max_examples=100, deadline=None)
def test_norm_is_element_times_conjugate(x):
    assert elem_mul(x, elem_conj(x)) == ElemO(x.norm(), 0, x.disc)
    assert x.norm() >= 0


def test_norm_positive_definite():
    # the norm form is positive definite: zero only at zero
    for x in range(-4, 5):
        for y in range(-4, 5):
            e = ElemO(x, y, -23)
            assert (e.norm() == 0) == ((x, y) == (0, 0))


# -- module arithmetic -------------------------------------------------------------


def test_unit_ideal_is_neutral():
    for d in DISCS:
        o = unit_ideal(d)
        assert o * o == o
        for f in reduced_forms(d):
            u = form_to_ideal(f)
            assert u * o == u and o * u == u


def test_form_ideal_roundtrip():
    # the stored b is normalized into [0, 2a), so the reading back gives the
    # translation-normalized form: same a, b mod 2a, same discriminant
    for d in DISCS:
        for f in reduced_forms(d):
            g = associated_form(form_to_ideal(f))
            assert g.a == f.a
            assert (g.b - f.b) % (2 * f.a) == 0
            assert g.discriminant() == d


def test_ideal_validation():
    with pytest.raises(ValueError):
        OIdeal(-23, Fraction(1), 2, 0)  # 0^2 != -23 mod 8
    with pytest.raises(ValueError):
        OIdeal(-23, Fraction(-1), 2, 1)
    with pytest.raises(ValueError):
        OIdeal(-23, Fraction(1), 2, 5)  # b out of [0, 2a)
    # the boundaries at (D, a, b) = (-20, 5, 0), where b = 10 = 2a would pass
    # every other check: 10^2 + 20 = 0 mod 20 and gcd(5, 10, 6) = 1
    assert OIdeal(-20, Fraction(1), 5, 0).a == 5
    with pytest.raises(ValueError, match="scale must be positive"):
        OIdeal(-20, Fraction(0), 5, 0)
    for a, b in ((0, 0), (5, 10)):
        with pytest.raises(ValueError, match="need a > 0 and 0 <= b < 2a"):
            OIdeal(-20, Fraction(1), a, b)


def test_multiplication_commutes_and_associates():
    ideals = [form_to_ideal(f) for f in reduced_forms(-23)] + [
        form_to_ideal(f) for f in reduced_forms(-15)
    ]
    for u in ideals:
        for v in ideals:
            if u.disc != v.disc:
                continue
            assert u * v == v * u
            for w in ideals:
                if w.disc != u.disc:
                    continue
                assert (u * v) * w == u * (v * w)


def test_norm_multiplicative_on_ideals():
    for d in (-23, -15):
        ideals = [form_to_ideal(f) for f in reduced_forms(d)]
        for u in ideals:
            for v in ideals:
                assert ideal_norm(u * v) == ideal_norm(u) * ideal_norm(v)


def test_ideal_times_conjugate_is_norm_times_unit():
    for d in (-23, -15, -20):
        for f in reduced_forms(d):
            u = form_to_ideal(f)
            n = ideal_norm(u)
            got = u * conjugate_ideal(u)
            scaled_unit = OIdeal(d, n * unit_ideal(d).scale, unit_ideal(d).a, unit_ideal(d).b)
            assert got == scaled_unit


def test_inverse_is_exact():
    for d in (-23, -15, -24):
        for f in reduced_forms(d):
            u = form_to_ideal(f)
            assert u * u.inverse() == unit_ideal(d)


def test_prime_to():
    u = form_to_ideal(QuadForm(2, 1, 3))
    assert u.prime_to(3) and u.prime_to(5) and not u.prime_to(2)


# -- integer kernels against their references ------------------------------------


def _outcome(fn, *args):
    """fn's result, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


def test_hnf_pair_edge_cases_match_reference():
    for rows in ([], [(0, 0)], [(0, 0), (0, 0)], [(3, 0), (-6, 0)], [(2, 4), (-1, -2)],
                 [(0, 5)], [(0, 0), (7, 0), (0, -3)], [(10**13, 3), (5, 10**14)]):
        assert _outcome(_hnf_pair, rows) == _outcome(hnf_pair_reference, rows), rows
    assert _outcome(_hnf_pair, [(0, 0)]) == "zero module"
    assert _outcome(_hnf_pair, [(2, 4), (-1, -2)]) == "module has rank < 2"


def test_hnf_pair_matches_reference_on_seeded_rows():
    rng = random.Random(8)
    for _ in range(4000):
        size = rng.choice((3, 50, 10**6, 10**15))
        rows = [(rng.randint(-size, size), rng.randint(-size, size)) for _ in range(rng.randint(1, 5))]
        shape = rng.randrange(4)
        if shape == 1:  # rank 1: multiples of one row
            rows = [(c * rows[0][0], c * rows[0][1]) for c in (rng.randint(-9, 9) for _ in rows)]
        elif shape == 2:  # zero rows mixed in
            rows += [(0, 0)] * rng.randint(1, 2)
            rng.shuffle(rows)
        assert _outcome(_hnf_pair, rows) == _outcome(hnf_pair_reference, rows), rows


PRODUCT_DISCS = (-3, -4, -15, -23, -56, -92)


def _elemo_rows(gens1, gens2):
    return [(p.x, p.y) for u in gens1 for v in gens2 for p in (elem_mul(u, v),)]


def _basis(u):
    return [ElemO(x, y, u.disc) for x, y in basis_rows(u)]


def test_products_equal_elemo_products(monkeypatch):
    # (kernel result, generating rows through ElemO.__mul__, scale, disc)
    cases = []
    for d in PRODUCT_DISCS:
        forms = [form_to_ideal(f) for f in reduced_forms(d)]
        ideals = forms + [conjugate_ideal(u) for u in forms] + [u.inverse() for u in forms]
        for u in ideals:
            for v in ideals:
                cases.append((u * v, _elemo_rows(_basis(u), _basis(v)), u.scale * v.scale, d))
            for target in {d, fundamental_part(d)[0]}:
                m = math.isqrt(d // target)
                beta = ElemO((-u.b - m * target) // 2, m, target)
                rows = [(u.a, 0), (0, u.a)] + _elemo_rows([beta], [ElemO.one(target), omega(target)])
                cases.append((extend_to_order(u, target), rows, u.scale, target))
        for x in range(-3, 4):
            for y in range(-3, 4):
                lam = ElemO(x, y, d)
                if (x, y) != (0, 0):
                    rows = _elemo_rows([lam], [ElemO.one(d), omega(d)])
                    cases.append((principal_ideal(lam, Fraction(2, 3)), rows, Fraction(2, 3), d))
    monkeypatch.setattr(ideals_module, "_hnf_pair", hnf_pair_reference)
    for got, rows, scale, d in cases:
        assert got == OIdeal._from_rows(rows, scale, d), (got, rows)


@pytest.mark.parametrize("d", (-3, -4))
def test_ray_class_equal_matches_the_unit_loop(d):
    # -3 and -4 are the only orders with units besides +-1
    for n in range(2, 13):
        reps = class_index(d, n, CongKind.UPPER_UNIPOTENT).reps
        forms = [form_to_ideal(rep) for rep in reps]
        ideals = forms + [conjugate_ideal(u) for u in forms]
        for u in ideals:
            for v in ideals:
                assert ray_class_equal(u, v, n) == ray_class_equal_reference(u, v, n), (u, v, n)


RAY_DISCS = (-3, -4, -15, -23, -31, -52, -59, -1003)


def _ray_pool(d, n, rng):
    """Class ideals at level n, some of their products and inverses, and
    principal ideals scaled by 2/3, alone and times a class ideal."""
    reps = class_index(d, n, CongKind.UPPER_UNIPOTENT).reps
    classes = [form_to_ideal(rep) for rep in reps]
    pool = classes + [rng.choice(classes) * rng.choice(classes) for _ in range(6)]
    pool += [u.inverse() for u in pool[:6]]
    for _ in range(4):
        lam = ElemO(rng.randint(-4, 4), rng.randint(-4, 4), d)
        if (lam.x, lam.y) != (0, 0):
            pool += [principal_ideal(lam, Fraction(2, 3)), principal_ideal(lam, Fraction(2, 3)) * rng.choice(classes)]
    return pool


def test_ray_class_equal_matches_the_object_reference_on_seeded_pairs():
    rng = random.Random(15)
    principal = 0
    for d in RAY_DISCS:
        units = ideals_module.unit_group(d)
        for n in range(1, 8):
            pool = _ray_pool(d, n, rng)
            for _ in range(60):
                u, v = rng.choice(pool), rng.choice(pool)
                want = _outcome(ray_class_equal_objects_reference, u, v, n)
                assert _outcome(ray_class_equal, u, v, n) == want, (u, v, n)
                w = u * v.inverse()
                got, ref = principal_generator(d, w.a, w.b), principal_generator_reference(w)
                assert (got is None) == (ref is None), (u, v)
                if got is not None:
                    principal += 1
                    lam = ref[1]
                    assert any((p.x, p.y) == got for e in units for p in (elem_mul(ElemO(*e, d), lam),)), (got, lam)
                    assert principal_ideal(ElemO(*got, d), w.scale) == w
    assert principal > 1000, principal


@pytest.mark.parametrize("d", (-3, -4, -23, -52))
def test_residue_product_and_name(d):
    units = unit_group(d)
    for n in (1, 2, 5, 6):
        residues = [(x, y) for x in range(n) for y in range(n)]
        for x in residues:
            name = residue_name(x, d, n)
            multiples = {residue_mul(e, x, d, n) for e in units}
            assert name == min(multiples) and {residue_name(m, d, n) for m in multiples} == {name}
            for y in residues[::3]:
                prod = elem_mul(ElemO(*x, d), ElemO(*y, d))
                assert residue_mul(x, y, d, n) == (prod.x % n, prod.y % n)


def test_ray_keys_decide_ray_class_equal_and_multiply():
    """Keys are equal exactly when `ray_class_equal` holds, and the key law
    gives the key of w exactly when w is ray-equal to the product."""
    rng = random.Random(28)
    hits = 0
    for d in RAY_DISCS:
        for n in range(1, 8):
            pool = [u for u in _ray_pool(d, n, rng) if u.prime_to(n)]
            keys, times = ray_keys(pool, n)
            assert None not in keys
            for _ in range(30):
                i, j, k = (rng.randrange(len(pool)) for _ in range(3))
                assert (keys[i] == keys[j]) == ray_class_equal(pool[i], pool[j], n), (pool[i], pool[j], n)
                prod = times(keys[i], keys[j])
                same = [m for m in range(len(pool)) if keys[m] == prod]
                hits += len(same)
                for m in [k] + same[:2]:
                    assert (keys[m] == prod) == ray_class_equal(pool[i] * pool[j], pool[m], n), (i, j, m, n)
    assert hits > 1000, hits


def test_ray_class_equal_builds_no_objects(monkeypatch):
    """The kernel runs on ints: no ideal, form or matrix is built."""
    u, v = form_to_ideal(QuadForm(2, 1, 3)), form_to_ideal(QuadForm(3, 1, 2))
    uu = u * u
    for cls in (OIdeal, QuadForm, UnimodMatrix):
        monkeypatch.setattr(cls, "__new__", lambda klass, *entries: pytest.fail(f"built {klass.__name__}{entries!r}"))
    assert ray_class_equal(u, u, 5) and ray_class_equal(uu, v, 1) and not ray_class_equal(u, v, 1)


def _unchecked_ideal(d, a, b):
    """An OIdeal that skips validation, for a basis no proper ideal has."""
    return tuple.__new__(OIdeal, (d, Fraction(1), a, b))


def test_ray_class_equal_refuses_a_quotient_that_is_no_proper_ideal():
    # (2, 2, 12) of disc -92 is not primitive: its module is an ideal of the
    # order of disc -23 only, so its quotient by the unit ideal fails the check
    bad = _unchecked_ideal(-92, 2, 2)
    with pytest.raises(ValueError, match="proper ideal"):
        ray_class_equal(bad, unit_ideal(-92), 1)
    with pytest.raises(ValueError, match="proper ideal"):
        ray_class_equal(unit_ideal(-92), bad, 3)


def _wrong_witness(real):
    """reduce_triple with its witness moved by [[1, 0], [1, 1]]: same reduced triple, wrong generator."""
    def patched(a, b, c):
        ra, rb, rc, p, q, r, s = real(a, b, c)
        return ra, rb, rc, p + q, q, r + s, s
    return patched


def _wrong_reexpansion(real):
    """_hnf_pair with the content of every two-row module (a re-expansion) off by one."""
    def patched(rows):
        e, g, h = real(rows)
        return (e, g, h + 1) if len(rows) == 2 else (e, g, h)
    return patched


@pytest.mark.parametrize("name,mutate", [("reduce_triple", _wrong_witness), ("_hnf_pair", _wrong_reexpansion)])
def test_wrong_generator_fails_the_reexpansion(monkeypatch, name, mutate):
    ideals = [form_to_ideal(f) for f in reduced_forms(-23)]
    monkeypatch.setattr(ideals_module, name, mutate(getattr(ideals_module, name)))
    with pytest.raises(RuntimeError, match="does not re-expand"):
        principal_generator(-23, 1, 1)
    for u in ideals:
        with pytest.raises(RuntimeError, match="does not re-expand"):
            ray_class_equal(u, u, 5)  # u * u^-1 = O is principal
    u, v = ideals[1], ideals[2]  # (2, +-1, 3): u / v = u^2 is not principal, so there is nothing to check
    assert not ray_class_equal(u, v, 1)


def test_kernel_checks_survive_optimized_mode():
    """python -O drops assert statements; the kernels' checks are plain ifs."""
    script = (
        "import formclass.ideals as m\n"
        "from formclass import QuadForm, compose\n"
        "from fractions import Fraction\n"
        "real = m._hnf_pair\n"
        "m._hnf_pair = lambda rows: (lambda e, g, h: (e, g, h + (len(rows) == 2)))(*real(rows))\n"
        "u = m.OIdeal(-23, Fraction(1, 2), 2, 1)\n"
        "try:\n"
        "    m.ray_class_equal(u, u, 1)\n"
        "except RuntimeError as err:\n"
        "    print('RuntimeError', err)\n"
        "m._hnf_pair = real\n"
        "try:\n"
        "    m.principal_generator(-92, 2, 2)\n"
        "except ValueError as err:\n"
        "    print('ValueError', err)\n"
        "for f in (QuadForm(3, 1, 2), QuadForm(2, 1, 2)):  # a shares a factor with 3; disc -15\n"
        "    try:\n"
        "        compose(f, QuadForm.principal(-23), 3)\n"
        "    except ValueError as err:\n"
        "        print('ValueError', err)\n"
    )
    env = dict(os.environ)
    src = str(Path(formclass.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["RuntimeError", "ValueError", "ValueError", "ValueError"], out.stdout


# -- principality -------------------------------------------------------------------


def test_principal_ideal_norm():
    lam = ElemO(3, 1, -23)
    u = principal_ideal(lam)
    assert ideal_norm(u) == lam.norm()


def test_principal_generator_roundtrip():
    for d in (-23, -15):
        for x, y in ((1, 0), (2, 0), (3, 1), (-1, 2), (5, -3)):
            u = principal_ideal(ElemO(x, y, d))
            got = principal_generator(d, u.a, u.b)
            assert got is not None
            assert principal_ideal(ElemO(*got, d), u.scale) == u


def test_nonprincipal_has_no_generator():
    for f in (QuadForm(2, 1, 3), QuadForm(2, 1, 2)):  # disc -23 and -15
        u = form_to_ideal(f)
        assert principal_generator(u.disc, u.a, u.b) is None


def test_principal_generator_refuses_a_basis_that_is_no_proper_ideal():
    with pytest.raises(ValueError, match="proper ideal"):
        principal_generator(-92, 2, 2)  # (2, 2, 12) is not primitive
    with pytest.raises(ValueError, match="proper ideal"):
        principal_generator(-23, 2, 0)  # 0^2 != -23 mod 8
    with pytest.raises(ValueError, match="proper ideal"):
        principal_generator(-23, 0, 1)
    # no negative discriminant: d = 5 would cycle in the reduction, d = 0 divide by zero
    for d, a, b in ((5, 1, 1), (0, 1, 0)):
        with pytest.raises(ValueError, match="not a negative discriminant"):
            principal_generator(d, a, b)


def test_principal_class_detected_at_level_one():
    u = form_to_ideal(QuadForm(2, 1, 3))
    sq = u * u
    conj = conjugate_ideal(u)
    # class group of -23 is cyclic of order 3: [u]^2 = [u]^-1 = [conj(u)]
    assert ray_class_equal(sq, conj, 1)
    assert not ray_class_equal(u, conj, 1)
    assert not ray_class_equal(u, unit_ideal(-23), 1)


def test_bruteforce_agrees_on_hits():
    u = form_to_ideal(QuadForm(2, 1, 3))
    sq = u * u
    conj = conjugate_ideal(u)
    # minimal witness needs coordinates of size ~9: keep the bound generous
    assert ray_class_equal_bruteforce(sq, conj, 1, bound=12)
    assert ray_class_equal_bruteforce(u, u, 3, bound=6)


def test_twice_unit_ideal_is_ray_trivial_mod_three_but_not_five():
    two = principal_ideal(ElemO(2, 0, -23))
    one = unit_ideal(-23)
    # nu = -2 satisfies nu = 1 mod 3, so 2O is trivial at level 3 ...
    assert ray_class_equal(two, one, 3)
    # ... but +-2 are both nontrivial mod 5
    assert not ray_class_equal(two, one, 5)


def test_ray_equality_needs_prime_to_level():
    u = form_to_ideal(QuadForm(2, 1, 3))
    with pytest.raises(ValueError):
        ray_class_equal(u, unit_ideal(-23), 2)


# -- counting ------------------------------------------------------------------------


def test_unit_groups():
    assert len(unit_group(-3)) == 6
    assert len(unit_group(-4)) == 4
    for d in (-15, -20, -23, -24):
        assert len(unit_group(d)) == 2
    for d in DISCS:
        units = {ElemO(x, y, d) for x, y in unit_group(d)}
        assert len(units) == len(unit_group(d))
        for u in units:
            assert u.norm() == 1
            assert {elem_mul(u, v) for v in units} == units  # closed under products


def test_residue_unit_counts():
    # split, inert, and ramified residue counts at a prime level p:
    # (p-1)^2, p^2-1, p(p-1) respectively
    assert residue_units(-23, 3) == 4   # -23 = 1 mod 3: split
    assert residue_units(-23, 5) == 24  # -23 = 2 mod 5, nonresidue: inert
    assert residue_units(-15, 5) == 20  # 5 divides -15: ramified
    assert residue_units(-23, 1) == 1


def test_unit_image_sizes():
    assert unit_image_size(-23, 1) == 1
    assert unit_image_size(-23, 3) == 2  # +-1 distinct mod 3
    assert unit_image_size(-23, 2) == 1  # -1 = 1 mod 2


@pytest.mark.parametrize(
    "d,n,expected",
    [
        (-23, 1, 3), (-23, 2, 3), (-23, 3, 6), (-23, 4, 6), (-23, 5, 36), (-23, 9, 54),
        (-15, 1, 2), (-15, 2, 2), (-15, 4, 4),
        (-20, 3, 4), (-24, 5, 16),
    ],
)
def test_ray_class_counts(d, n, expected):
    assert ray_class_count(d, n) == expected


# -- changing orders ------------------------------------------------------------------


def test_extend_to_order_frozen_images():
    u = form_to_ideal(QuadForm(3, 2, 8))  # disc -92
    assert extend_to_order(u, -23).to_json() == [1, 3, 3, 1]
    v = form_to_ideal(QuadForm(3, 0, 5))  # disc -60
    assert extend_to_order(v, -15).to_json() == [1, 3, 3, 3]


def test_extend_to_order_preserves_unit():
    got = extend_to_order(unit_ideal(-92), -23)
    assert got == unit_ideal(-23)


def test_extend_to_order_rejects_wrong_target():
    with pytest.raises(ValueError):
        extend_to_order(unit_ideal(-23), -15)
