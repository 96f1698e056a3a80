"""Finite-precision matrices, convergent sequences, and the level-p^n story."""

import random

import pytest

import formclass.tower
from formclass.cm import equivalent_points
from formclass.congruence import CongKind, class_key
from formclass.forms import IDENTITY, QuadForm, UnimodMatrix
from formclass.tower import (
    MatrixSeq,
    PadicMatrix,
    act_padic,
    base_point_set,
    correspondence_report,
    kernel_reps,
    limits_agree,
    random_compliant_pair,
    random_matrix_seq,
    seq_conditions_hold,
)

from _helpers import point, translation


def padic(g: UnimodMatrix, p: int, n: int) -> PadicMatrix:
    """g reduced mod p^n."""
    return PadicMatrix(p, n, *(x % p**n for x in g.entries()))


# -- finite-precision matrices ---------------------------------------------------


def test_padic_matrix_reduces_and_checks_det():
    g = padic(UnimodMatrix(2, 1, 1, 1), 3, 2)
    assert (g.a, g.b, g.c, g.d) == (2, 1, 1, 1)
    assert g.modulus() == 9
    assert padic(g.lift(1), 3, 1) == PadicMatrix(3, 1, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        g.lift(3)  # precision cannot be raised
    with pytest.raises(ValueError):
        g.lift(0)
    with pytest.raises(ValueError):
        PadicMatrix(3, 2, 1, 0, 0, 2)  # det = 2, not 1 mod 9
    with pytest.raises(ValueError):
        PadicMatrix(4, 1, 1, 0, 0, 1)  # 4 is not prime


def test_padic_entries_normalized():
    g = padic(UnimodMatrix(-1, 0, 0, -1), 3, 2)
    assert (g.a, g.b, g.c, g.d) == (8, 0, 0, 8)


def test_lift_roundtrip():
    for entries in ((1, 3, 3, 10), (1, 0, 9, 1), (4, 3, 9, 7)):
        g = padic(UnimodMatrix(*entries), 3, 2)
        lifted = g.lift(2)
        assert lifted.p * lifted.s - lifted.q * lifted.r == 1
        assert padic(lifted, 3, 2) == g


@pytest.mark.parametrize("p,n,count", [(3, 1, 1), (3, 2, 27), (5, 2, 125), (2, 2, 8)])
def test_kernel_sizes(p, n, count):
    reps = kernel_reps(p, n)
    assert len(reps) == count
    assert len(set(reps)) == count
    for g in reps:
        assert g.is_one_mod_p()
        m = p ** (n - 1)
        assert (g.a % m, g.b % m, g.c % m, g.d % m) == (1 % m, 0, 0, 1 % m)


# -- convergent sequences -----------------------------------------------------------


def test_sequence_conditions():
    s = MatrixSeq(3, (IDENTITY, translation(3), translation(3)))
    assert s.conditions_hold()
    with pytest.raises(ValueError):
        MatrixSeq(3, (translation(1), translation(1)))  # first term not I mod 3
    with pytest.raises(ValueError):
        MatrixSeq(3, (IDENTITY, translation(1)))  # no agreement mod 3
    bad = MatrixSeq(3, (IDENTITY, translation(1)), check=False)
    assert not bad.conditions_hold()


def test_constant_identity_vs_minus_identity_at_odd_prime():
    pos = MatrixSeq(3, (IDENTITY,) * 4)
    neg = MatrixSeq(3, (-IDENTITY,) * 4, check=False)
    # -I fails the first-term condition at p = 3, so the hypotheses fail ...
    assert not seq_conditions_hold(pos, neg)
    # ... and the conclusion is not even posed
    with pytest.raises(ValueError):
        limits_agree(pos, neg)


def test_even_prime_counterexample():
    # at p = 2 the pair (I, -I) satisfies every hypothesis yet the limits differ
    pos = MatrixSeq(2, (IDENTITY,) * 5)
    neg = MatrixSeq(2, (-IDENTITY,) * 5)  # -I = I mod 2, so the constructor's check passes
    assert seq_conditions_hold(pos, neg)
    assert not limits_agree(pos, neg)


def test_shape_mismatches_raise():
    s = MatrixSeq(3, (IDENTITY,) * 3)
    with pytest.raises(ValueError):
        seq_conditions_hold(s, MatrixSeq(3, (IDENTITY,) * 4))
    with pytest.raises(ValueError):
        seq_conditions_hold(s, MatrixSeq(5, (IDENTITY,) * 3))


def test_odd_prime_limits_always_agree():
    rng = random.Random(7)
    for p in (3, 5):
        for _ in range(120):
            s, t, expected = random_compliant_pair(p, 5, rng)
            assert expected is True
            assert limits_agree(s, t)


def test_even_prime_pairs_match_prediction():
    rng = random.Random(11)
    seen_false = False
    for _ in range(200):
        s, t, expected = random_compliant_pair(2, 5, rng)
        assert limits_agree(s, t) == expected
        seen_false = seen_false or not expected
    assert seen_false, "the sign coin never came up tails in 200 draws"


def test_random_sequences_are_compliant():
    rng = random.Random(3)
    for p in (2, 3, 5):
        s = random_matrix_seq(p, 6, rng)
        assert s.conditions_hold()
        for g in s.mats:
            assert g.p * g.s - g.q * g.r == 1


def _reference_elem(modulus, rng):
    # the elementary-factor product, one validated matrix per factor
    out = IDENTITY
    for j in range(rng.randint(2, 3)):
        k = rng.randint(-3, 3)
        if j % 2 == 0:
            out = out * UnimodMatrix(1, k * modulus, 0, 1)
        else:
            out = out * UnimodMatrix(1, 0, k * modulus, 1)
    return out


def _reference_seq(p, length, rng):
    mats = [_reference_elem(p, rng)]
    for k in range(1, length):
        mats.append(mats[-1] * _reference_elem(p**k, rng))
    return mats


def _reference_pair(p, length, rng):
    s = _reference_seq(p, length, rng)
    if p == 2:
        signs = [rng.choice((1, -1))]
        if length > 1:
            signs += [rng.choice((1, -1))] * (length - 1)
    else:
        signs = [1] * length
    t = []
    for k, (g, e) in enumerate(zip(s, signs), start=1):
        h = g * _reference_elem(p**k, rng)
        t.append(h if e == 1 else -h)
    return s, t, p != 2 or length < 2 or signs[1] == 1


def test_random_generators_match_the_matrix_product_reference():
    """The entry-tuple kernel draws the same numbers in the same order and
    returns the same matrices as chained UnimodMatrix products."""
    def entries(seq):
        return [g.entries() for g in seq]

    pairs = 0
    for p in (2, 3, 5, 7):
        for length in range(1, 8):
            for seed in range(40):
                ours, ref = random.Random(seed), random.Random(seed)
                s, t, expected = random_compliant_pair(p, length, ours)
                ref_s, ref_t, ref_expected = _reference_pair(p, length, ref)
                assert (entries(s.mats), entries(t.mats), expected) == (
                    entries(ref_s), entries(ref_t), ref_expected)
                assert entries(random_matrix_seq(p, length, ours).mats) == entries(_reference_seq(p, length, ref))
                assert ours.getstate() == ref.getstate()
                pairs += 1
    assert pairs == 1120


def test_below_mirrors_cpython_randrange():
    """`_below` draws as CPython's `Random._randbelow` does; a Python whose
    `_randbelow` draws differently fails here by name, not only through the
    matrix reference above."""
    below = formclass.tower._below
    for seed in range(20):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 71):
            assert below(ours.getrandbits, n) == ref.randrange(n), (seed, n)
            assert ours.getstate() == ref.getstate(), (seed, n)
            assert (1, -1)[below(ours.getrandbits, 2)] == ref.choice((1, -1)), (seed, n)
            assert 2 + below(ours.getrandbits, 2) == ref.randint(2, 3), (seed, n)
            assert below(ours.getrandbits, 7) - 3 == ref.randint(-3, 3), (seed, n)
            assert ours.getstate() == ref.getstate(), (seed, n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_running_moduli_sit_on_each_boundary(p):
    """Every predicate compares at exactly p^k in position k: moving a term by
    [[1, x], [0, 1]] with x at the modulus passes, with x one power of p short
    it fails.  An off-by-one in a running modulus fails one of the two."""
    base = random_matrix_seq(p, 5, random.Random(p)).mats
    # conditions_hold: term k + 1 against term k mod p^k (terms k + 1.. move
    # together, so no other comparison changes), and term 1 against I mod p
    for k in range(1, 5):
        for x, ok in ((p**k, True), (p ** (k - 1), False)):
            mats = base[:k] + tuple(g * translation(x) for g in base[k:])
            assert MatrixSeq(p, mats, check=False).conditions_hold() is ok, (k, x)
    for x, ok in ((p, True), (1, False)):
        mats = tuple(g * translation(x) for g in base)
        assert MatrixSeq(p, mats, check=False).conditions_hold() is ok, x
    # seq_conditions_hold and limits_agree: term k of t against term k of s
    # mod p^k, up to sign where the sign is free (p = 2 only: for odd p, -I is
    # not I mod p)
    s = MatrixSeq(p, base)
    for k in range(1, 6):
        for x, ok in ((p**k, True), (p ** (k - 1), False)):
            moved = base[:k - 1] + (base[k - 1] * translation(x),) + base[k:]
            for e in (1, -1) if p == 2 else (1,):
                t = MatrixSeq(p, moved if e == 1 else tuple(-g for g in moved), check=False)
                assert seq_conditions_hold(s, t) is ok, (k, x, e)
                if ok:
                    assert limits_agree(s, t) is (e == 1), (k, x, e)
                else:
                    with pytest.raises(ValueError):
                        limits_agree(s, t)


# -- base points and the correspondence ------------------------------------------


def test_base_point_set_sizes_and_gates():
    assert len(base_point_set(3, -23)) == 36
    assert len(base_point_set(5, -15)) == 200
    with pytest.raises(ValueError):
        base_point_set(2, -23)
    with pytest.raises(ValueError):
        base_point_set(9, -23)
    with pytest.raises(ValueError):
        base_point_set(3, -4)


def test_act_padic_identity_and_compatibility():
    x = point(1, 1, 6)
    e = PadicMatrix(3, 2, 1, 0, 0, 1)
    # the lift of the identity need not be I itself, only I mod 9
    assert equivalent_points(act_padic(x, e, e.lift(2)), x, 9, "y")
    gens = kernel_reps(3, 2)[:5]
    for g in gens:
        for h in gens:
            gh = padic(g.lift(2) * h.lift(2), 3, 2)
            one_step = act_padic(x, gh, gh.lift(2))
            two_step = act_padic(act_padic(x, g, g.lift(2)), h, h.lift(2))
            assert equivalent_points(one_step, two_step, 9, "y")


def lift_check(x, g):
    """The report's lift check for one pair at level 9: RuntimeError on a mismatch."""
    key = class_key(act_padic(x, g, g.lift(2)), 9, CongKind.FULL_LEVEL)
    formclass.tower._check_lift(x, g, 2, key)


def test_act_padic_lift_independence_and_gates():
    x = point(1, 1, 6)
    for g in kernel_reps(3, 2)[:6]:
        lift_check(x, g)  # raises RuntimeError if the image and the adjugate's residues disagree
    t = padic(translation(1), 3, 2)
    with pytest.raises(ValueError):
        act_padic(x, t, t.lift(2))  # not 1 mod p


def test_act_padic_lift_check_raises(monkeypatch):
    """A wrong lift (gamma * T(1)) or a wrong adjugate sends the two routes to
    different classes: the check fires on every kernel class, and only when
    asked for."""
    x = point(1, 1, 6)
    lift = PadicMatrix.lift
    monkeypatch.setattr(PadicMatrix, "lift", lambda self, n: lift(self, n) * translation(1))
    for g in kernel_reps(3, 2):
        with pytest.raises(RuntimeError, match="adjugate"):
            lift_check(x, g)
    correspondence_report(3, -23, 2)  # no check requested, no error
    with pytest.raises(RuntimeError, match="adjugate"):
        correspondence_report(3, -23, 2, check_lift=True)
    monkeypatch.setattr(PadicMatrix, "lift", lift)
    mul = formclass.tower._mul
    monkeypatch.setattr(formclass.tower, "_mul", lambda u, v: mul(mul(u, (1, 1, 0, 1)), v))
    for g in kernel_reps(3, 2):
        with pytest.raises(RuntimeError, match="adjugate"):
            lift_check(x, g)


class _ShiftedRebuild(QuadForm):
    """R whose moves are followed by T(1): a form rebuilt as R moved by g0
    lands at R moved by g0*T(1), whose name is T(-1) times the key's."""

    def transform(self, g):
        return super().transform(g * translation(1))


def test_located_check_raises(monkeypatch):
    """A representative rebuilt one class off is caught by the witness search,
    and only when the check is asked for."""
    monkeypatch.setattr(formclass.tower, "QuadForm", _ShiftedRebuild)
    correspondence_report(3, -23, 2)
    with pytest.raises(RuntimeError, match="no level-9 witness joins them"):
        correspondence_report(3, -23, 2, check_lift=True)


def test_located_check_rebuilds_the_key():
    """A key outside the codomain is refused, and so is a key whose name is
    not the least over Aut(R): its representative is in the right class, so a
    witness joins it to the image, but it reduces to the canonical key."""
    img = point(1, 1, 6)
    key = class_key(img, 9, CongKind.FULL_LEVEL)
    triple, sign, name = key
    negated = (triple, sign, tuple(-x % 9 for x in name))
    assert negated != key
    formclass.tower._check_located(img, key, frozenset({key}), 9)
    with pytest.raises(RuntimeError, match="which is no enumerated level-9 class"):
        formclass.tower._check_located(img, key, frozenset({negated}), 9)
    with pytest.raises(RuntimeError, match="but its own key is"):
        formclass.tower._check_located(img, negated, frozenset({negated}), 9)


def test_lift_check_searches_one_witness_per_base_point(monkeypatch):
    calls = []
    real = formclass.tower.equivalent_points
    monkeypatch.setattr(formclass.tower, "equivalent_points", lambda *a: calls.append(a) or real(*a))
    report = correspondence_report(3, -23, 2, check_lift=True)
    assert len(calls) == report["base_size"] == 36


def test_lift_check_holds_for_any_lift(monkeypatch):
    """Another lift gamma * delta, delta in the level-p^n principal subgroup,
    passes the check and gives the same report."""
    before = correspondence_report(3, -23, 2)
    rng = random.Random(12)
    lift = PadicMatrix.lift
    moved = []

    def other_lift(self, n):
        delta = UnimodMatrix(*formclass.tower._random_elem(self.prime**n, rng))
        moved.append(delta != IDENTITY)
        return lift(self, n) * delta

    monkeypatch.setattr(PadicMatrix, "lift", other_lift)
    assert correspondence_report(3, -23, 2, check_lift=True) == before
    assert sum(moved) > len(moved) // 2, (sum(moved), len(moved))


def test_correspondence_report_at_precision_one():
    report = correspondence_report(3, -23, 1)
    assert report["base_size"] == 36
    assert report["kernel_size"] == 1
    assert report["codomain_size"] == 36
    assert report["pairs"] == 36
    assert report["injective"] and report["surjective"]
    assert report["witnesses_of_failure"] == []
