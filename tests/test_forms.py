"""Reduction, the right action, and roots — checked against brute-force oracles."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formclass import forms
from formclass.classgroup import PMGroup, class_group_table
from formclass.cm import cm_class_set, point_json
from formclass.congruence import CongKind, class_index
from formclass.forms import (
    IDENTITY,
    QuadForm,
    SignedForm,
    UnimodMatrix,
    automorphs,
    is_discriminant,
    reduce_form,
    reduced_forms,
    require_discriminant,
    sl2_equivalent,
)
from formclass.ideals import OIdeal
from formclass.tower import MatrixSeq

from _helpers import (
    SWAP,
    QuadIrrational,
    inverse,
    is_reduced,
    mobius,
    reduce_form_reference,
    root,
    seeded_forms,
    sl2_equivalent_reference,
    translation,
    value,
)

SAMPLE_DISCS = (-3, -4, -15, -20, -23, -24, -47, -71, -92)

# independently known class numbers for the fundamental sample discriminants
CLASS_NUMBERS = {-3: 1, -4: 1, -15: 2, -20: 2, -23: 3, -24: 2, -47: 5, -71: 7}


def brute_reduced(d: int) -> set[tuple[int, int, int]]:
    """All primitive reduced positive definite forms of discriminant d, by
    direct scan: |b| <= a <= c, b^2 - 4ac = d, b >= 0 when |b| = a or a = c."""
    out = set()
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or math.gcd(a, b, c) != 1:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            out.add((a, b, c))
        a += 1
    return out


# -- hypothesis strategies ----------------------------------------------------

small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def unimod(draw):
    """A word of length <= 4 in elementary unipotents — covers a healthy chunk
    of SL2(Z) with bounded entries."""
    g = IDENTITY
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        k = draw(small_entries)
        g = g * (UnimodMatrix(1, k, 0, 1) if i % 2 else UnimodMatrix(1, 0, k, 1))
    return g


@st.composite
def definite_form(draw):
    d = draw(st.sampled_from(SAMPLE_DISCS))
    f = draw(st.sampled_from(reduced_forms(d)))
    return f.transform(draw(unimod()))


# -- discriminants and constructors --------------------------------------------


def test_discriminant_gate():
    assert require_discriminant(-23) == -23
    assert require_discriminant(-4) == -4
    for bad in (0, 5, -1, -2, -10):
        assert not is_discriminant(bad)
        with pytest.raises(ValueError):
            require_discriminant(bad)


def test_form_constructor_rejects_indefinite():
    with pytest.raises(ValueError):
        QuadForm(1, 3, 1)  # discriminant +5
    with pytest.raises(ValueError):
        QuadForm(-1, 1, -6)  # negative definite carrier not allowed
    with pytest.raises(ValueError):
        QuadForm(0, 1, 1)


def test_unimod_determinant_checked():
    with pytest.raises(ValueError):
        UnimodMatrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        UnimodMatrix(2, 0, 0, 2)


# -- values are validated tuples of their entries --------------------------------

# (value, a field, a value of that field which the constructor refuses)
CHECKED_VALUES = [
    (UnimodMatrix(2, 1, 1, 1), "p", 3),
    (QuadForm(2, 1, 3), "a", 0),
    (SignedForm(QuadForm(2, 1, 3), -1), "sign", 0),
    (OIdeal(-23, Fraction(1, 2), 2, 1), "b", 0),
    (MatrixSeq(3, (IDENTITY, translation(3), translation(3))), "prime", 4),
]
each_checked_value = pytest.mark.parametrize("v, field, bad", CHECKED_VALUES, ids=[type(v).__name__ for v, _, _ in CHECKED_VALUES])


def _all_values():
    table = class_group_table(-23, 3)
    return [v for v, _, _ in CHECKED_VALUES] + [table, PMGroup.build(table), class_index(-23, 3, CongKind.FULL_LEVEL)]


def _forged(v, field, bad):
    """v with one entry replaced, built past the constructor's check."""
    entries = list(v)
    entries[v._fields.index(field)] = bad
    return tuple.__new__(type(v), entries)


def test_value_is_its_entry_tuple():
    assert QuadForm(2, 1, 3) == (2, 1, 3)
    for v in _all_values():
        entries = tuple(getattr(v, field) for field in v._fields)
        assert v == entries and tuple(v) == entries, v
        first, *rest = v
        assert (first, *rest) == entries
        try:
            expected = hash(entries)
        except TypeError:  # a ClassIndex, or a table holding one: its by_key dict has no hash
            with pytest.raises(TypeError):
                hash(v)
        else:
            assert hash(v) == expected


def test_value_refuses_attribute_assignment():
    for v in _all_values():
        with pytest.raises(AttributeError):
            setattr(v, v._fields[0], None)
        with pytest.raises(AttributeError):
            v.extra = None


@each_checked_value
def test_value_replace_reruns_the_check(v, field, bad):
    assert v._replace() == v and type(v._replace()) is type(v)
    assert type(v)._make(v) == v  # a MatrixSeq unpacks to its two fields, as any value does
    with pytest.raises(ValueError):
        v._replace(**{field: bad})
    with pytest.raises(ValueError):
        type(v)._make(_forged(v, field, bad))


@each_checked_value
def test_value_copy_and_pickle_rerun_the_check(v, field, bad):
    forged = _forged(v, field, bad)
    for roundtrip in [copy.copy, copy.deepcopy] + [
        lambda x, proto=proto: pickle.loads(pickle.dumps(x, proto)) for proto in range(2, pickle.HIGHEST_PROTOCOL + 1)
    ]:
        again = roundtrip(v)
        assert again == v and type(again) is type(v)
        with pytest.raises(ValueError):
            roundtrip(forged)


def test_matrix_group_ops():
    g = UnimodMatrix(2, 1, 1, 1)
    assert g * inverse(g) == IDENTITY
    assert inverse(g) * g == IDENTITY
    assert tuple(-g) == (-2, -1, -1, -1)
    assert g.to_json() == [2, 1, 1, 1]


# -- reduction against the brute-force oracle ----------------------------------


@pytest.mark.parametrize("d", SAMPLE_DISCS)
def test_reduced_forms_match_brute_scan(d):
    got = {tuple(f) for f in reduced_forms(d)}
    assert got == brute_reduced(d)


@pytest.mark.parametrize("d,h", sorted(CLASS_NUMBERS.items()))
def test_class_numbers(d, h):
    assert len(reduced_forms(d)) == h


def test_reduce_witness_is_exact():
    f = QuadForm(7, 11, 5)
    red, w = reduce_form(f)
    assert tuple(red) == (1, 1, 5)
    assert f.transform(w) == red
    assert is_reduced(red)


@given(definite_form())
@settings(max_examples=120, deadline=None)
def test_reduce_idempotent_with_witness(f):
    red, w = reduce_form(f)
    assert is_reduced(red)
    assert f.transform(w) == red
    again, w2 = reduce_form(red)
    assert again == red and w2 == IDENTITY


def _reference_reduce(f: QuadForm) -> tuple[QuadForm, UnimodMatrix]:
    """Gauss reduction one validated step at a time, through the matrix objects."""
    g = IDENTITY
    while True:
        a, b, c = f
        if a > c or (a == c and b < 0):
            f, g = f.transform(SWAP), g * SWAP
        elif not (-a < b <= a):
            t = translation((a - b) // (2 * a))
            f, g = f.transform(t), g * t
        else:
            return f, g


def test_reduce_matches_stepwise_reference():
    checked = huge = 0
    for f in seeded_forms():
        red, w = reduce_form(f)
        assert (red, w) == _reference_reduce(f) == reduce_form_reference(f), f
        assert f.transform(w) == red and is_reduced(red)
        checked += 1
        huge += max(map(abs, f)) > 10**12
    assert checked >= 5000 and huge > 500, (checked, huge)


def test_reduce_rejects_a_wrong_witness(monkeypatch):
    # the kernel checks its witness with the triple action that QuadForm.transform shares
    f = QuadForm(7, 11, 5)
    monkeypatch.setattr(forms, "_moved", lambda a, b, c, p, q, r, s: (a, b, c))
    with pytest.raises(RuntimeError, match=r"does not take \(7, 11, 5\) to \(1, 1, 5\)"):
        reduce_form.__wrapped__(f)


# -- the right action -----------------------------------------------------------


@given(definite_form(), unimod(), unimod())
@settings(max_examples=120, deadline=None)
def test_action_composes_on_the_right(f, g, h):
    assert f.transform(g).transform(h) == f.transform(g * h)


@given(definite_form())
@settings(max_examples=60, deadline=None)
def test_action_identity_and_inverse(f):
    assert f.transform(IDENTITY) == f
    g = UnimodMatrix(2, 1, 1, 1)
    assert f.transform(g).transform(inverse(g)) == f


@given(definite_form(), unimod())
@settings(max_examples=120, deadline=None)
def test_action_preserves_disc_and_values(f, g):
    moved = f.transform(g)
    assert moved.discriminant() == f.discriminant()
    # values are permuted along the column map: moved(x, y) = f(px + qy, rx + sy)
    p, q, r, s = g
    for x, y in ((1, 0), (0, 1), (1, 1), (2, -3)):
        assert value(moved, x, y) == value(f, p * x + q * y, r * x + s * y)


@given(definite_form(), unimod())
@settings(max_examples=100, deadline=None)
def test_root_transforms_by_inverse_mobius(f, g):
    sf = SignedForm(f)
    assert root(sf.transform(g)) == mobius(root(sf), inverse(g))


def test_automorph_counts():
    assert len(automorphs(QuadForm.principal(-3))) == 6
    assert len(automorphs(QuadForm.principal(-4))) == 4
    for d in (-15, -23, -47):
        for f in reduced_forms(d):
            assert len(automorphs(f)) == 2


def test_automorphs_fix_the_form():
    for d in (-3, -4, -23):
        for f in reduced_forms(d):
            for g in automorphs(f):
                assert f.transform(g) == f


def test_automorphs_share_one_cache_entry_per_triple():
    """A form is its triple, so a plain triple and its `QuadForm` hit the same
    cache entry and get the same tuple of automorphs."""
    automorphs.cache_clear()
    by_triple = automorphs((1, 1, 6))
    assert automorphs(QuadForm(1, 1, 6)) is by_triple
    assert automorphs.cache_info().currsize == 1


# -- plain equivalence ------------------------------------------------------------


def test_sl2_equivalent_roundtrip():
    f = QuadForm(2, 1, 3)
    g = f.transform(UnimodMatrix(2, 1, 1, 1))
    w = sl2_equivalent(f, g)
    assert w is not None and f.transform(w) == g


def test_sl2_equivalent_matches_reference_witness():
    """Pairs of seeded forms of one discriminant, equivalent and not: the same
    verdict and the same witness, entry for entry, as the object-level body."""
    rng = random.Random(2113)
    by_disc: dict[int, list[QuadForm]] = {}
    for f in seeded_forms():
        by_disc.setdefault(f.discriminant(), []).append(f)
    found = {True: 0, False: 0}
    for fs in by_disc.values():
        for f in fs:
            g = rng.choice(fs)
            w = sl2_equivalent(f, g)
            assert w == sl2_equivalent_reference(f, g), (f, g)
            found[w is not None] += 1
    assert found[True] > 1000 and found[False] > 1000, found


def test_sl2_equivalent_rejects_a_wrong_witness(monkeypatch):
    f = QuadForm(2, 1, 3)
    g = f.transform(UnimodMatrix(2, 1, 1, 1))
    monkeypatch.setattr(QuadForm, "transform", lambda self, h: self)
    with pytest.raises(RuntimeError, match=r"^witness \(.*\) does not take \(2, 1, 3\) to \(13, 17, 6\)$"):
        sl2_equivalent(f, g)


def test_sl2_inequivalent_distinct_reduced():
    reps = reduced_forms(-23)
    for i, f in enumerate(reps):
        for j, g in enumerate(reps):
            assert (sl2_equivalent(f, g) is not None) == (i == j)


def test_conjugate_form_is_inverse_class_at_level_one():
    f = QuadForm(2, 1, 3)
    assert tuple(f.conjugate()) == (2, -1, 3)
    # (2,1,3) and (2,-1,3) are the two non-principal classes of -23
    assert sl2_equivalent(f, f.conjugate()) is None


# -- roots ------------------------------------------------------------------------


def test_root_is_actual_zero():
    """The tau that `point_json` prints, (num + rad*sqrt(disc))/den with rad = +1
    in the upper half-plane, is a zero of its form for every printed class,
    and it is the reference root field by field."""
    count = 0
    for d in (-3, -4, -23, -56):
        for n in range(1, 7):
            for curve in ("y1", "y"):
                for f in cm_class_set(d, n, curve):
                    tau = point_json(f)["tau"]
                    num, den, disc = tau["num"], tau["den"], tau["disc"]
                    rad = {"upper": 1, "lower": -1}[tau["half_plane"]]
                    a, b, c = f.form
                    # rational and irrational parts of a*t^2 + b*t + c, times den^2
                    assert a * (num * num + rad * rad * disc) + b * num * den + c * den * den == 0, f
                    assert 2 * a * num * rad + b * rad * den == 0, f
                    t = root(f)
                    assert (num, rad, disc, den) == (t.num, t.rad_coeff, t.disc, t.den), f
                    count += 1
    assert count > 1000, count


def test_root_halfplane_tracks_sign():
    f = QuadForm(2, 1, 3)
    assert point_json(SignedForm(f, 1))["tau"]["half_plane"] == "upper"
    assert point_json(SignedForm(f, -1))["tau"]["half_plane"] == "lower"
    assert root(SignedForm(f, 1)).in_upper_half_plane()
    assert not root(SignedForm(f, -1)).in_upper_half_plane()


def test_quad_irrational_value_equality():
    a = QuadIrrational(-1, 1, -23, 4)
    b = QuadIrrational(-2, 1, -92, 8)  # same value via sqrt(-92) = 2*sqrt(-23)
    assert a == b and hash(a) == hash(b)
    assert a != QuadIrrational(1, 1, -23, 4)
    assert a != QuadIrrational(-1, -1, -23, 4)  # the complex conjugate


def test_signed_form_sign_validation():
    with pytest.raises(ValueError):
        SignedForm(QuadForm(1, 0, 1), 2)
