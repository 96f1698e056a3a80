"""Reduction-kernel residues, convergent sequences, and the level-p^n story."""

import random

import pytest

import formclass.tower
from formclass.cm import cm_class_set, equivalent_points
from formclass.congruence import CongKind, class_key, lift_matrix
from formclass.forms import IDENTITY, QuadForm, SignedForm, UnimodMatrix, reduce_form
from formclass.tower import (
    MatrixSeq,
    act_padic,
    base_point_set,
    correspondence_report,
    kernel_reps,
    limits_agree,
    random_compliant_pair,
    random_matrix_seq,
    seq_conditions_hold,
)

from _helpers import correspondence_report_objects_reference, kernel_reps_reference, point
from _helpers import seq_conditions_hold_reference, translation


def residues(g: UnimodMatrix, m: int) -> tuple[int, int, int, int]:
    """The entries of g reduced mod m."""
    return tuple(x % m for x in g)


# -- residues mod p^n and their lifts ---------------------------------------------


def test_padic_matrix_reduces_and_checks_det():
    """A residue matrix mod p^n is lifted with determinant 1 and reduces back;
    a determinant other than 1 mod p^n or a precision below 1 is refused, and
    a non-prime p gets its closed-form kernel."""
    g = lift_matrix(2, 1, 1, 1, 9)
    assert residues(g, 9) == (2, 1, 1, 1) and g.p * g.s - g.q * g.r == 1
    with pytest.raises(ValueError, match="not unimodular mod 9"):
        lift_matrix(1, 0, 0, 2, 9)  # det = 2, not 1 mod 9
    assert kernel_reps(4, 2) == kernel_reps_reference(4, 2)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        kernel_reps(3, 0)


def test_padic_entries_normalized():
    """Residues are taken in [0, p^n): -I mod 9 is (8, 0, 0, 8), and so are the
    kernel's residues."""
    assert residues(lift_matrix(-1, 0, 0, -1, 9), 9) == (8, 0, 0, 8)
    for p, n in ((2, 3), (3, 2), (5, 2), (3, 3)):
        assert all(0 <= x < p**n for g in kernel_reps(p, n) for x in g), (p, n)


def test_lift_roundtrip():
    for entries in ((1, 3, 3, 10), (1, 0, 9, 1), (4, 3, 9, 7)):
        lifted = lift_matrix(*entries, 9)
        assert lifted.p * lifted.s - lifted.q * lifted.r == 1
        assert residues(lifted, 9) == tuple(x % 9 for x in entries)


@pytest.mark.parametrize("p,n,count", [(3, 1, 1), (3, 2, 27), (5, 2, 125), (2, 2, 8)])
def test_kernel_sizes(p, n, count):
    """p^(3(n-1)) distinct residue tuples in [0, p^n), each I mod p with
    determinant 1 mod p^n."""
    m = p**n
    reps = kernel_reps(p, n)
    assert len(reps) == count
    assert len(set(reps)) == count
    for a, b, c, d in reps:
        assert all(0 <= x < m for x in (a, b, c, d))
        assert (a % p, b % p, c % p, d % p) == (1 % p, 0, 0, 1 % p)
        assert (a * d - b * c) % m == 1 % m


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1), (5, 2), (6, 2), (7, 2)])
def test_kernel_matches_closed_form(p, n):
    """The residues of SL2(Z/p^n) in Gamma(p) are the closed-form kernel, in the
    same order, at a prime p or not."""
    assert kernel_reps(p, n) == kernel_reps_reference(p, n)


# -- convergent sequences -----------------------------------------------------------


def test_sequence_conditions():
    s = MatrixSeq(3, (IDENTITY, translation(3), translation(3)))
    assert s.conditions_hold()
    with pytest.raises(ValueError):
        MatrixSeq(3, (translation(1), translation(1)))  # first term not I mod 3
    with pytest.raises(ValueError):
        MatrixSeq(3, (IDENTITY, translation(1)))  # no agreement mod 3
    with pytest.raises(ValueError):
        MatrixSeq(4, (IDENTITY,))  # 4 is not prime
    with pytest.raises(ValueError):
        MatrixSeq(3, ())


def test_constant_identity_vs_minus_identity_at_odd_prime():
    # -I fails the first-term condition at p = 3, so the sequence, and with it
    # the conclusion about its pair, is not even posed
    with pytest.raises(ValueError, match="convergence conditions"):
        MatrixSeq(3, (-IDENTITY,) * 4)


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


def test_limits_agree_walks_an_odd_prime_pair_once(monkeypatch):
    # one termwise walk, with the + sign, decides the pair
    s, t, _ = random_compliant_pair(3, 5, random.Random(1))
    walks = []
    real = formclass.tower._agree
    monkeypatch.setattr(formclass.tower, "_agree", lambda xs, ys, p, e=1: walks.append(e) or real(xs, ys, p, e))
    assert limits_agree(s, t) and walks == [1]


def test_even_prime_pairs_match_prediction():
    rng = random.Random(11)
    seen_false = False
    for _ in range(200):
        s, t, expected = random_compliant_pair(2, 5, rng)
        assert limits_agree(s, t) == expected
        seen_false = seen_false or not expected
    assert seen_false, "the sign coin never came up tails in 200 draws"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_sign_for_all_terms_matches_a_sign_per_term(p):
    """On 300 compliant pairs, and on each s against the previous pair's t,
    one sign for the whole sequence decides as a sign per term does."""
    rng = random.Random(p)
    prev = None
    for _ in range(300):
        s, t, _ = random_compliant_pair(p, 5, rng)
        assert seq_conditions_hold(s, t) and seq_conditions_hold_reference(s, t)
        if prev is not None:
            assert seq_conditions_hold(s, prev) == seq_conditions_hold_reference(s, prev)
        prev = t


def test_first_term_sign_is_free_at_two():
    """At p = 2 the first term is taken mod 2, so its sign may differ from the rest."""
    s = MatrixSeq(2, (IDENTITY,) * 3)
    for mats, agree in [((-IDENTITY, IDENTITY, IDENTITY), True), ((IDENTITY, -IDENTITY, -IDENTITY), False)]:
        t = MatrixSeq(2, mats)
        assert seq_conditions_hold(s, t) and seq_conditions_hold_reference(s, t)
        assert limits_agree(s, t) is agree


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
        return [tuple(g) for g in seq]

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


def builds(p, mats) -> bool:
    """Whether MatrixSeq accepts the terms; only the convergence check may refuse them."""
    try:
        MatrixSeq(p, mats)
    except ValueError as err:
        assert "convergence conditions" in str(err)
        return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5])
def test_running_moduli_sit_on_each_boundary(p):
    """Every check compares at exactly p^k in position k: moving a term by
    [[1, x], [0, 1]] with x at the modulus passes, with x one power of p short
    it fails.  An off-by-one in a running modulus fails one of the two."""
    base = random_matrix_seq(p, 5, random.Random(p)).mats
    # construction: term k + 1 against term k mod p^k (terms k + 1.. move
    # together, so no other comparison changes), and term 1 against I mod p
    for k in range(1, 5):
        for x, ok in ((p**k, True), (p ** (k - 1), False)):
            assert builds(p, base[:k] + tuple(g * translation(x) for g in base[k:])) is ok, (k, x)
    for x, ok in ((p, True), (1, False)):
        assert builds(p, tuple(g * translation(x) for g in base)) is ok, x
    # seq_conditions_hold and limits_agree: term k of t against term k of s
    # mod p^k, up to sign where the sign is free (p = 2 only: for odd p, -I is
    # not I mod p).  t must converge on its own: it moves term k by p^k, which
    # keeps term k + 1 in step, or every term from k on by p^(k - 1), which
    # misses term k of s and keeps term k in step with term k - 1 (k >= 2)
    s = MatrixSeq(p, base)
    for k in range(1, 6):
        for x, ok in ((p**k, True), (p ** (k - 1), False)):
            if ok:
                moved = base[:k - 1] + (base[k - 1] * translation(x),) + base[k:]
            elif k >= 2:
                moved = base[:k - 1] + tuple(g * translation(x) for g in base[k - 1:])
            else:
                continue
            for e in (1, -1) if p == 2 else (1,):
                t = MatrixSeq(p, moved if e == 1 else tuple(-g for g in moved))
                assert seq_conditions_hold(s, t) is ok, (k, x, e)
                if ok:
                    assert limits_agree(s, t) is (e == 1), (k, x, e)
                else:
                    with pytest.raises(ValueError):
                        limits_agree(s, t)


# -- base points and the correspondence ------------------------------------------


def test_base_point_set_sizes_and_gates():
    """The base points are the level-p classes of the signed curve at every
    level and discriminant: the even level 2, the prime power 9 and the extra
    units of -4 included."""
    assert len(base_point_set(3, -23)) == 36
    assert len(base_point_set(5, -15)) == 200
    for p, d in ((2, -23), (9, -23), (3, -4)):
        assert base_point_set(p, d) == cm_class_set(d, p, "y"), (p, d)


def moved(x, lift, p):
    """The point x moved by the matrix `lift` through `act_padic`, which
    moves the form's triple by the lift's entries and keeps the sign."""
    return point(*act_padic(x.form, lift, p), x.sign)


def test_act_padic_identity_and_compatibility():
    x = point(1, 1, 6)
    e = lift_matrix(1, 0, 0, 1, 9)
    # the lift of the identity need not be I itself, only I mod 9
    assert e != IDENTITY
    assert equivalent_points(moved(x, e, 3), x, 9, "y")
    lifts = [lift_matrix(*g, 9) for g in kernel_reps(3, 2)[:5]]
    for g in lifts:
        for h in lifts:
            gh = lift_matrix(*residues(g * h, 9), 9)
            one_step = moved(x, gh, 3)
            two_step = moved(moved(x, g, 3), h, 3)
            assert equivalent_points(one_step, two_step, 9, "y")


def lift_check(x, g):
    """The report's lift check for one pair at level 9, the kernel class g
    lifted as the report lifts it: RuntimeError on a mismatch."""
    key = class_key(moved(x, formclass.tower.lift_matrix(*g, 9), 3).form, 9, CongKind.FULL_LEVEL)
    formclass.tower._check_lift(x, *reduce_form(x.form), g, 9, key)


def test_act_padic_lift_independence_and_gates():
    x = point(1, 1, 6)
    for g in kernel_reps(3, 2)[:6]:
        lift_check(x, g)  # raises RuntimeError if the image and the adjugate's residues disagree
    with pytest.raises(ValueError, match="not trivial mod p"):
        moved(x, translation(1), 3)
    with pytest.raises(ValueError, match="not trivial mod p"):
        moved(x, -IDENTITY, 3)  # -I is I mod 2 only
    assert moved(x, -IDENTITY, 2) == x


def test_act_padic_lift_check_raises(monkeypatch):
    """A wrong lift (gamma * T(3): still I mod 3, but off gamma mod 9) or a
    wrong adjugate sends the two routes to different classes: the check fires
    on every kernel class, and only when asked for."""
    x = point(1, 1, 6)
    lift = formclass.tower.lift_matrix
    monkeypatch.setattr(formclass.tower, "lift_matrix", lambda *g: lift(*g) * translation(3))
    for g in kernel_reps(3, 2):
        with pytest.raises(RuntimeError, match="adjugate"):
            lift_check(x, g)
    correspondence_report(3, -23, 2)  # no check requested, no error
    with pytest.raises(RuntimeError, match="adjugate"):
        correspondence_report(3, -23, 2, check_lift=True)
    monkeypatch.setattr(formclass.tower, "lift_matrix", lift)
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
    witness joins it to the image, but it reduces to the canonical key.  The
    class is rebuilt with the image's sign, so either sign passes."""
    key = class_key((1, 1, 6), 9, CongKind.FULL_LEVEL)
    triple, name = key
    negated = (triple, tuple(-x % 9 for x in name))
    assert negated != key
    for sign in (1, -1):
        img = point(1, 1, 6, sign)
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


def test_lift_check_reduces_each_base_point_once(monkeypatch):
    """The lift check takes the base point's reduction and witness once per
    base point, not once per (base point, kernel class) pair."""
    calls = []
    real = formclass.tower.reduce_form
    monkeypatch.setattr(formclass.tower, "reduce_form", lambda f: calls.append(f) or real(f))
    report = correspondence_report(3, -23, 2, check_lift=True)
    assert len(calls) == report["base_size"] == 36


def test_lift_check_holds_for_any_lift(monkeypatch):
    """Another lift gamma * delta, delta in the level-p^n principal subgroup,
    passes the check and gives the same report."""
    before = correspondence_report(3, -23, 2)
    rng = random.Random(12)
    lift = formclass.tower.lift_matrix
    moved = []

    def other_lift(a, b, c, d, m):
        delta = UnimodMatrix(*formclass.tower._random_elem(m, rng))
        moved.append(delta != IDENTITY)
        return lift(a, b, c, d, m) * delta

    monkeypatch.setattr(formclass.tower, "lift_matrix", other_lift)
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


@pytest.mark.parametrize("p,d,n", [(3, -23, 1), (3, -23, 2), (3, -31, 2), (3, -95, 2), (5, -15, 2), (7, -23, 1),
                                   (3, -4, 2), (3, -3, 2), (4, -23, 2)])
def test_report_matches_the_object_reference(p, d, n):
    """The pair loop on integer triples gives the report of the loop that
    moved and keyed one validated signed form per pair, with and without the
    lift and located checks; at D = -3 and -4 the lift check reads a reduced
    form with more automorphs than +-I."""
    for check_lift in (False, True):
        assert correspondence_report(p, d, n, check_lift) == correspondence_report_objects_reference(
            p, d, n, check_lift), check_lift


@pytest.mark.parametrize("d,n", [(-23, 2), (-4, 2), (-15, 3)])
def test_level_two_is_exactly_two_to_one(d, n):
    """-I lies in Gamma(2), so the kernel classes g and -g move every point
    alike: the pairs cover each level-2^n class exactly twice, and each
    witness pairs a base point's image under g with its image under -g."""
    report = correspondence_report(2, d, n, check_lift=True)
    kernel, m = kernel_reps(2, n), 2**n
    assert report["surjective"] and report["pairs"] == 2 * report["codomain_size"]
    assert len(report["witnesses_of_failure"]) == report["codomain_size"]
    for w in report["witnesses_of_failure"]:
        (ri, gi), (rj, gj) = w["first"], w["second"]
        assert ri == rj and all((x + y) % m == 0 for x, y in zip(kernel[gi], kernel[gj])), w


def test_report_witnesses_match_the_object_reference(monkeypatch):
    """With every kernel class lifted to a lift of I, all images of a base
    point collide: both loops name the same colliding pairs in the same order."""
    lift = formclass.tower.lift_matrix
    monkeypatch.setattr(formclass.tower, "lift_matrix", lambda *g: lift(1, 0, 0, 1, g[-1]))
    report = correspondence_report(3, -23, 2)
    assert not report["injective"] and len(report["witnesses_of_failure"]) == 36 * 26
    assert report == correspondence_report_objects_reference(3, -23, 2)


def test_report_keeps_the_signs_apart(monkeypatch):
    """With the minus half of the base points relabelled +1, each of them
    repeats its plus twin: its image under every kernel class collides with
    the twin's, and no image reaches the classes of the sign -1, although the
    pairs still number as many as the codomain."""
    real = formclass.tower.cm_class_set
    monkeypatch.setattr(formclass.tower, "cm_class_set",
                        lambda d, n, curve: tuple(SignedForm(f.form, 1) for f in real(d, n, curve)))
    for check_lift in (False, True):
        report = correspondence_report(3, -23, 2, check_lift)
        h, k = report["base_size"] // 2, report["kernel_size"]
        assert not report["injective"] and not report["surjective"]
        assert report["witnesses_of_failure"] == [
            {"first": [ri, gi], "second": [ri + h, gi]} for ri in range(h) for gi in range(k)]
        assert report["codomain_size"] == report["pairs"]
        assert report == correspondence_report_objects_reference(3, -23, 2, check_lift)


def test_report_builds_no_objects_per_pair(monkeypatch):
    """With caches warm, a checked report validates as many forms and signed
    forms at n = 2 (972 pairs) as at n = 1 (36 pairs): objects are built per
    base point, for the located check, and never per pair."""
    counts = {QuadForm: 0, SignedForm: 0}
    for cls in counts:
        def counted(klass, *entries, cls=cls, real=cls.__new__):
            counts[cls] += 1
            return real(klass, *entries)
        monkeypatch.setattr(cls, "__new__", counted)
    built = {}
    for n in (1, 2):
        correspondence_report(3, -23, n, check_lift=True)  # warm the caches
        counts.update(dict.fromkeys(counts, 0))
        correspondence_report(3, -23, n, check_lift=True)
        built[n] = dict(counts)
    assert built[1] == built[2], built
    assert min(built[1].values()) >= 36, built  # the counters see the located check
