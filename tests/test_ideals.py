"""Order elements, invertible modules, principality, and the ray-type predicate.

The brute-force principality search (`_helpers.ray_class_equal_bruteforce`) is one-sided:
a hit proves equality, a miss proves nothing, so it is only asserted positively
and with a generous coordinate bound.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formclass.ideals as ideals_module
from _helpers import basis_rows, conjugate_ideal, elem_add, elem_conj, elem_mul, hnf_pair_reference, ideal_norm
from _helpers import omega, ray_class_equal_bruteforce, ray_class_equal_reference, unit_ideal
from formclass.congruence import CongKind, class_index
from formclass.forms import QuadForm, reduced_forms
from formclass.ideals import (
    ElemO,
    _hnf_pair,
    OIdeal,
    extend_to_order,
    form_to_ideal,
    fundamental_part,
    principal_generator,
    principal_ideal,
    ray_class_count,
    ray_class_equal,
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


def test_omega_satisfies_its_quadratic():
    assert omega(-92).norm() == 2139  # (d^2 - d)/4, the constant term of w's minimal polynomial
    for d in DISCS:
        w = omega(d)
        # omega^2 - D*omega + (D^2 - D)/4 = 0
        lhs = elem_add(elem_add(elem_mul(w, w), -elem_mul(ElemO(d, 0, d), w)), ElemO((d * d - d) // 4, 0, d))
        assert lhs.is_zero()


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
            assert (e.norm() == 0) == e.is_zero()


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
            g = form_to_ideal(f).associated_form()
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


def _hnf_outcome(hnf, rows):
    try:
        return hnf(rows)
    except ValueError as err:
        return str(err)


def test_hnf_pair_edge_cases_match_reference():
    for rows in ([], [(0, 0)], [(0, 0), (0, 0)], [(3, 0), (-6, 0)], [(2, 4), (-1, -2)],
                 [(0, 5)], [(0, 0), (7, 0), (0, -3)], [(10**13, 3), (5, 10**14)]):
        assert _hnf_outcome(_hnf_pair, rows) == _hnf_outcome(hnf_pair_reference, rows), rows
    assert _hnf_outcome(_hnf_pair, [(0, 0)]) == "zero module"
    assert _hnf_outcome(_hnf_pair, [(2, 4), (-1, -2)]) == "module has rank < 2"


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
        assert _hnf_outcome(_hnf_pair, rows) == _hnf_outcome(hnf_pair_reference, rows), rows


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
                if not lam.is_zero():
                    rows = _elemo_rows([lam], [ElemO.one(d), omega(d)])
                    cases.append((principal_ideal(lam, Fraction(2, 3)), rows, Fraction(2, 3), d))
    monkeypatch.setattr(ideals_module, "_hnf_pair", hnf_pair_reference)
    for got, rows, scale, d in cases:
        assert got == OIdeal._from_rows(rows, scale, d), (got, rows)


@pytest.mark.parametrize("d", (-3, -4))
def test_ray_class_equal_matches_the_unit_loop(d):
    # -3 and -4 are the only orders with units besides +-1
    for n in range(2, 13):
        reps = class_index(d, n, CongKind.UPPER_UNIPOTENT, signed=False).reps
        forms = [form_to_ideal(rep.form) for rep in reps]
        ideals = forms + [conjugate_ideal(u) for u in forms]
        for u in ideals:
            for v in ideals:
                assert ray_class_equal(u, v, n) == ray_class_equal_reference(u, v, n), (u, v, n)


# -- principality -------------------------------------------------------------------


def test_principal_ideal_norm():
    lam = ElemO(3, 1, -23)
    u = principal_ideal(lam)
    assert ideal_norm(u) == lam.norm()


def test_principal_generator_roundtrip():
    for d in (-23, -15):
        for x, y in ((1, 0), (2, 0), (3, 1), (-1, 2), (5, -3)):
            lam = ElemO(x, y, d)
            if lam.is_zero():
                continue
            got = principal_generator(principal_ideal(lam))
            assert got is not None
            scale, mu = got
            assert principal_ideal(mu, scale) == principal_ideal(lam)


def test_nonprincipal_has_no_generator():
    assert principal_generator(form_to_ideal(QuadForm(2, 1, 3))) is None
    assert principal_generator(form_to_ideal(QuadForm(2, 1, 2))) is None  # disc -15


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
        for u in unit_group(d):
            assert u.norm() == 1


def test_residue_unit_counts():
    # split, inert, and ramified residue counts at a prime level p:
    # (p-1)^2, p^2-1, p(p-1) respectively
    assert residue_units(-23, 3)[0] == 4   # -23 = 1 mod 3: split
    assert residue_units(-23, 5)[0] == 24  # -23 = 2 mod 5, nonresidue: inert
    assert residue_units(-15, 5)[0] == 20  # 5 divides -15: ramified
    assert residue_units(-23, 1)[0] == 1


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
