"""Subgroup membership, coset enumeration, lifting, and class indexing."""

import math
import random

import pytest

from formclass._arith import egcd
import formclass.cm
from formclass.cm import cm_class_set, equivalent_points
from formclass.congruence import (
    CongKind,
    class_index,
    class_key,
    class_keys,
    cong_equivalent,
    coset_reps,
    enumerate_classes,
    in_gamma,
    key_from_witness,
    lift_matrix,
    unsigned_class_reps,
)
from formclass.forms import (
    IDENTITY,
    QuadForm,
    SignedForm,
    UnimodMatrix,
    automorphs,
    is_member,
    reduce_form,
    reduced_forms,
)

from _helpers import (
    SWAP,
    inverse,
    key_from_witness_reference,
    point_key,
    reduce_form_reference,
    seeded_forms,
    signed_class_index_reference,
    translation,
    upper_unipotent_coset_reps_reference,
)

FULL = CongKind.FULL_LEVEL
UPPER = CongKind.UPPER_UNIPOTENT
CURVE = {FULL: "y", UPPER: "y1"}

def sl2_order_mod(n: int) -> int:
    """|SL2(Z/n)| = n^3 * prod over p|n of (1 - 1/p^2)."""
    out = n**3
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out = out // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out = out // (m * m) * (m * m - 1)
    return out


def test_membership_basics():
    assert in_gamma(IDENTITY, 5, FULL)
    assert in_gamma(translation(5), 5, FULL)
    assert in_gamma(translation(1), 5, UPPER)  # upper entry is free
    assert not in_gamma(translation(1), 5, FULL)
    assert in_gamma(UnimodMatrix(1, 0, 5, 1), 5, UPPER)
    assert not in_gamma(UnimodMatrix(1, 0, 1, 1), 5, UPPER)
    assert not in_gamma(-IDENTITY, 3, UPPER)
    assert in_gamma(-IDENTITY, 2, FULL)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_coset_counts(n):
    # index of the principal subgroup is |SL2(Z/n)|; the unipotent kind is
    # n-fold coarser on the diagonal/upper entries: index |SL2(Z/n)| / n
    assert len(coset_reps(n, FULL)) == sl2_order_mod(n)
    assert len(coset_reps(n, UPPER)) == sl2_order_mod(n) // n


def test_coset_reps_pairwise_inequivalent():
    n = 3
    reps = coset_reps(n, UPPER)
    for i, g in enumerate(reps):
        for j, h in enumerate(reps):
            same = in_gamma(g * inverse(h), n, UPPER)
            assert same == (i == j)


def test_unipotent_coset_reps_match_orbit_min_reference():
    """One least (q, s) per first column (p, r) picks the same representatives,
    in the same order, as the minimum over every unipotent orbit."""
    for n in range(1, 17):
        assert coset_reps(n, UPPER) == upper_unipotent_coset_reps_reference(n), n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9])
def test_lift_matrix_hits_target_residue(n):
    for g in coset_reps(n, FULL)[:40]:
        p, q, r, s = (x % n for x in g)
        lifted = lift_matrix(p, q, r, s, n)
        lp, lq, lr, ls = lifted
        assert (lp - p) % n == 0 and (lq - q) % n == 0
        assert (lr - r) % n == 0 and (ls - s) % n == 0


def test_lift_matrix_rejects_nonunimodular_residue():
    with pytest.raises(ValueError):
        lift_matrix(0, 0, 0, 0, 3)


def test_equivalence_witness_lands_in_subgroup():
    f = QuadForm(1, 1, 6)
    for kind in (FULL, UPPER):
        g = f.transform(translation(3) if kind is FULL else translation(1))
        w = cong_equivalent(f, g, 3, kind)
        assert w is not None
        assert in_gamma(w, 3, kind)
        assert f.transform(w) == g


def test_equivalence_spec_pair_at_level_three():
    f = QuadForm(1, -1, 6)
    g = QuadForm(1, 1, 6)
    w = cong_equivalent(f, g, 3, UPPER)
    assert w == UnimodMatrix(1, 1, 0, 1)
    assert cong_equivalent(f, g, 3, FULL) is None


def test_equivalence_rejects_mixed_discriminants():
    with pytest.raises(ValueError):
        cong_equivalent(QuadForm(1, 0, 1), QuadForm(1, 1, 6), 2, FULL)


def test_equivalence_requires_leading_coeff_prime_to_level():
    f = QuadForm(3, 1, 2)  # disc -23, a = 3
    with pytest.raises(ValueError):
        cong_equivalent(f, f, 3, UPPER)


def test_signs_never_mix(monkeypatch):
    # the signs are compared before any witness search: opposite signs never
    # reach cong_equivalent, equal signs reach it once, on the bare forms
    calls = []

    def counted(f, g, n, kind):
        calls.append((f, g))
        return cong_equivalent(f, g, n, kind)

    monkeypatch.setattr(formclass.cm, "cong_equivalent", counted)
    f = SignedForm(QuadForm(1, 1, 6), 1)
    for curve in ("y1", "y"):
        assert not equivalent_points(f, SignedForm(f.form, -1), 3, curve)
        assert not equivalent_points(SignedForm(f.form, -1), f, 3, curve)
    assert calls == []
    points = cm_class_set(-23, 3, "y1")
    for p in points:
        for q in points:
            if p.sign != q.sign:
                assert not equivalent_points(p, q, 3, "y1")
    assert calls == []
    assert equivalent_points(SignedForm(f.form, -1), SignedForm(f.form, -1), 3, "y1")
    assert calls == [(f.form, f.form)]


def test_enumerate_classes_level_one_matches_reduced_forms():
    classes = enumerate_classes(-23, 1, FULL)
    assert len(classes) == 3
    assert tuple(rep for _, rep in classes) == reduced_forms(-23)
    signed = cm_class_set(-23, 1, "y")
    assert len(signed) == 6
    assert sum(1 for s in signed if s.sign == 1) == 3


@pytest.mark.parametrize(
    "d,n,expect_upper",
    [(-23, 2, 3), (-23, 3, 6), (-23, 4, 6), (-23, 5, 36), (-15, 2, 2), (-20, 3, 4), (-24, 5, 16)],
)
def test_unsigned_class_counts(d, n, expect_upper):
    assert len(enumerate_classes(d, n, UPPER)) == expect_upper


@pytest.mark.parametrize("d,n", [(-23, 3), (-23, 4), (-15, 4)])
def test_full_level_is_n_times_unipotent(d, n):
    full = cm_class_set(d, n, "y")
    upper = cm_class_set(d, n, "y1")
    assert len(full) == n * len(upper)


def test_class_index_locates_its_own_reps():
    for idx in (class_index(-23, 3, UPPER), signed_class_index_reference(-23, 3, UPPER)):
        for i, rep in enumerate(idx.reps):
            assert idx.locate(rep) == i
    idx = class_index(-23, 3, UPPER)
    assert all(type(rep) is QuadForm for rep in idx.reps)
    assert idx.reps == unsigned_class_reps(-23, 3, UPPER)


def test_class_index_locates_transformed_reps():
    idx = class_index(-23, 3, FULL)
    mover = lift_matrix(1, 0, 3, 1, 3) * translation(3)
    for i, rep in enumerate(idx.reps):
        assert idx.locate(rep.transform(mover)) == i


def test_class_index_rejects_foreign_forms():
    idx = class_index(-23, 3, FULL)
    with pytest.raises(LookupError):
        idx.locate(QuadForm(3, 1, 2))  # leading coeff not prime to 3
    with pytest.raises(LookupError) as err:
        idx.locate((3, 1, 2))  # a bare triple is named as [a, b, c]
    assert str(err.value) == "[3, 1, 2] is in no enumerated discriminant--23 level-3 class"


@pytest.mark.parametrize("d", [-3, -4, -15, -20, -23])
def test_locate_decides_membership_by_the_key_alone(d):
    """Every reduced form of d and of -31, moved by every coset rep: the index
    refuses it exactly when it is no member of the family, and otherwise
    names a rep that an explicit witness joins it to, the same for the form
    and its plain triple.  Taken as a point of either sign, the signed
    reference index refuses it alike, and otherwise names the point of its
    sign in that class."""
    for n in range(1, 7):
        for kind in (FULL, UPPER):
            idx, signed = class_index(d, n, kind), signed_class_index_reference(d, n, kind)
            for base in reduced_forms(d) + reduced_forms(-31):
                for g0 in coset_reps(n, kind):
                    f = base.transform(g0)
                    points = [SignedForm(f, sign) for sign in (1, -1)]
                    if not is_member(f, d, n):
                        for x in (f, tuple(f)):
                            with pytest.raises(LookupError):
                                idx.locate(x)
                        for x in points:
                            with pytest.raises(LookupError):
                                signed.locate(x)
                        continue
                    i = idx.locate(f)
                    assert idx.locate(tuple(f)) == i
                    assert cong_equivalent(f, idx.reps[i], n, kind) is not None, (d, n, kind, f, idx.reps[i])
                    for x in points:
                        rep = signed.reps[signed.locate(x)]
                        assert rep == SignedForm(idx.reps[i], x.sign), (d, n, kind, x, rep)
                        assert equivalent_points(x, rep, n, CURVE[kind]), (d, n, kind, x, rep)


def test_pairwise_distinct_classes():
    points = cm_class_set(-23, 4, "y1")
    for i, f in enumerate(points):
        for j, g in enumerate(points):
            assert equivalent_points(f, g, 4, "y1") == (i == j)
            assert (cong_equivalent(f.form, g.form, 4, UPPER) is not None) == (f.form == g.form)


def _random_word(rng: random.Random) -> UnimodMatrix:
    out = IDENTITY
    for _ in range(rng.randint(0, 8)):
        out = out * rng.choice((translation(1), translation(-1), SWAP))
    return out


def _random_member(rng: random.Random, f: SignedForm, n: int, in_subgroup: bool = False) -> SignedForm:
    """f moved by a random word, retried until prime to n.

    With in_subgroup the word w is replaced by w * T^(n k) * w^-1, which lies in
    the principal subgroup and so in both kinds.
    """
    while True:
        word = _random_word(rng)
        if in_subgroup:
            word = word * translation(n * rng.randint(1, 3)) * inverse(word)
        g = f.transform(word)
        if math.gcd(g.form.a, n) == 1:
            return g


def test_class_key_agrees_with_witness_search():
    rng = random.Random(20240517)
    outcomes = {True: 0, False: 0}
    for d in (-3, -4, -15, -23, -56):
        bases = reduced_forms(d)
        for n in range(1, 10):
            for kind in (FULL, UPPER):
                for trial in range(24):
                    f = _random_member(rng, SignedForm(rng.choice(bases), rng.choice((1, -1))), n)
                    if trial % 2:
                        g = _random_member(rng, SignedForm(rng.choice(bases), rng.choice((1, -1))), n)
                    else:
                        g = _random_member(rng, f, n, in_subgroup=trial % 4 == 0)
                    same = equivalent_points(f, g, n, CURVE[kind])
                    assert (point_key(f, n, kind) == point_key(g, n, kind)) == same, (d, n, kind, f, g)
                    same_form = cong_equivalent(f.form, g.form, n, kind) is not None
                    assert (class_key(f.form, n, kind) == class_key(g.form, n, kind)) == same_form, (d, n, kind, f, g)
                    assert same == (same_form and f.sign == g.sign)
                    outcomes[same] += 1
    assert outcomes[True] > 500 and outcomes[False] > 500, outcomes


def test_class_key_names_are_residues_of_matrix_products():
    rng = random.Random(991)
    for d in (-3, -4, -15, -23, -56):
        bases = reduced_forms(d)
        for n in range(1, 13):
            for kind in (FULL, UPPER):
                for _ in range(6):
                    f = _random_member(rng, SignedForm(rng.choice(bases), rng.choice((1, -1))), n)
                    reduced, w = reduce_form(f.form)
                    moved = [w * alpha for alpha in automorphs(reduced)]
                    if kind is FULL:
                        names = [(m.p % n, m.q % n, m.r % n, m.s % n) for m in moved]
                    else:
                        names = [(m.r % n, m.s % n) for m in moved]
                    assert class_key(f.form, n, kind) == (tuple(reduced), min(names)), (d, n, kind, f)


def test_class_key_matches_reduction_then_key_from_witness():
    """The uncached kernel behind class_key names every seeded form as the
    object-level reduction followed by key_from_witness does, and a form and
    its plain triple alike."""
    rng = random.Random(5)
    for f in seeded_forms():
        n, kind = rng.choice((1, 2, 5, 6, 9, 12)), rng.choice((FULL, UPPER))
        reduced, w = reduce_form_reference(f)
        want = key_from_witness(tuple(reduced), tuple(w), n, kind)
        assert class_key(f, n, kind) == want, (f, n, kind)
        assert class_key(tuple(f), n, kind) == want, (f, n, kind)


def test_residue_keys_match_reduced_keys():
    """Every enumeration candidate R.transform(g0) is named from g0^-1's
    residues exactly as reduction names it, including the extra automorphs of
    -3 and -4 and composite levels."""
    rng = random.Random(7)
    checked = 0
    for d in (-3, -4, -15, -20, -23, -56):
        for n in sorted(rng.sample((1, 2, 4, 6, 9, 12), 4)):
            for kind in (FULL, UPPER):
                for base in reduced_forms(d):
                    for g0 in coset_reps(n, kind):
                        cand = base.transform(g0)
                        if math.gcd(cand.a, n) != 1:
                            continue
                        got = key_from_witness(tuple(base), tuple(inverse(g0)), n, kind)
                        assert got == class_key(cand, n, kind), (d, n, kind, cand, g0)
                        checked += 1
    assert checked > 5000, checked


def _random_witness(rng: random.Random) -> tuple[int, int, int, int]:
    """A random SL2(Z) matrix with large entries of either sign."""
    while True:
        p, r = rng.randint(-10**12, 10**12), rng.randint(-10**12, 10**12)
        g, u, v = egcd(p, r)
        if g in (1, -1):
            break
    u, v = u * g, v * g  # p*u + r*v = 1
    k = rng.randint(-10**9, 10**9)
    return (p, -v + k * p, r, u + k * r)


def test_key_from_witness_matches_reference():
    """The {I, -I} fast path names every witness as the product over all of
    Aut(R) does, and -3 and -4 keep their larger automorph groups."""
    rng = random.Random(18)
    for d in (-3, -4, -15, -23, -95):
        for base in reduced_forms(d):
            triple = tuple(base)
            for n in range(1, 31):
                for kind in (FULL, UPPER):
                    for _ in range(3):
                        w = _random_witness(rng)
                        assert w[0] * w[3] - w[1] * w[2] == 1
                        want = key_from_witness_reference(triple, w, n, kind)
                        assert key_from_witness(triple, w, n, kind) == want, (triple, w, n, kind)


@pytest.mark.parametrize("d", [-3, -4, -15, -20, -23, -31, -56, -95])
def test_class_keys_match_keyed_classes(d):
    """The keys read off residues alone are the keys of the enumerated classes."""
    for n in (1, 2, 3, 4, 5, 6, 8, 9):
        for kind in (FULL, UPPER):
            assert class_keys(d, n, kind) == {key for key, _ in enumerate_classes(d, n, kind)}, (d, n, kind)


@pytest.mark.parametrize("d,n,kind", [(-3, 4, FULL), (-4, 6, UPPER), (-23, 6, FULL), (-56, 9, UPPER)])
def test_enumeration_keeps_least_triple_per_class(d, n, kind):
    """The representatives are the triple-least candidates, one per class, in
    triple order."""
    reps = unsigned_class_reps(d, n, kind)
    assert [tuple(f) for f in reps] == sorted(tuple(f) for f in reps)
    least = {}
    for base in reduced_forms(d):
        for g0 in coset_reps(n, kind):
            cand = base.transform(g0)
            if math.gcd(cand.a, n) == 1:
                key = class_key(cand, n, kind)
                least[key] = min(least.get(key, tuple(cand)), tuple(cand))
    assert [tuple(f) for f in reps] == sorted(least.values())


@pytest.mark.parametrize("d,n,kind", [(-3, 6, FULL), (-4, 4, UPPER), (-15, 4, FULL), (-23, 6, UPPER)])
def test_signed_class_index_maps_both_signs(d, n, kind):
    # a point's class carries its sign: flipping it moves the class by half
    # the point list, as in the signed reference index
    points = cm_class_set(d, n, CURVE[kind])
    keys = [point_key(f, n, kind) for f in points]
    reference = signed_class_index_reference(d, n, kind)
    assert reference.reps == points
    half = len(points) // 2
    for i, f in enumerate(points):
        flipped = SignedForm(f.form, -f.sign)
        assert point_key(flipped, n, kind) == keys[(i + half) % len(points)]
        assert reference.locate(f) == i and reference.locate(flipped) == (i + half) % len(points)
