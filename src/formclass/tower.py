"""Finite truncations of the projective limits: the reduction kernel mod p^n
read off SL2(Z/p^n) as its residues in Gamma(p), the uniqueness property of
truncated matrix limits (sharp at the odd/even prime boundary), and the
correspondence of base points times that kernel with the level-p^n classes at
any D, exhaustively: 1-to-1 for p != 2, 2-to-1 at 2^n, n >= 2.  Points are
signed forms (see `cm`); a kernel class is its residue tuple (a, b, c, d)
mod p^n, and it acts on points through an integral lift
(`congruence.lift_matrix`) taken at its own level.  In the pair loop a point
moves as its form's integer triple by the lift's entries and keeps its sign,
so an image is keyed by `class_key` of its triple among the images of its
sign; objects are built only for the located check, once per base point.
The group law on lim CM(D, Y1(N)^±) is checked on whole tables, level by
level, by `suites.levelmaps`, which projects the signed tables by
`classgroup.class_surjection` and its shift onto the minus coset.

Everything runs on exact integers; "precision n" always means working modulo
p^n with determinant exactly 1 on integral lifts.
"""

from __future__ import annotations

import random
from collections import namedtuple

from ._arith import is_prime
from .cm import cm_class_set, equivalent_points, point_json
from .congruence import CongKind, class_key, class_keys, in_gamma, key_from_witness, lift_matrix, sl2_residues
from .forms import (
    QuadForm,
    SignedForm,
    UnimodMatrix,
    _checked_make,
    _moved,
    _mul,
    reduce_form,
)

_Entries = tuple[int, int, int, int]


def kernel_reps(p: int, n: int) -> tuple[_Entries, ...]:
    """Residues (a, b, c, d) in [0, p^n) of all classes mod p^n that reduce to
    the identity mod p: count p^(3(n-1)) at any p >= 1, prime or not.

    They are read off the residues of SL2(Z/p^n) (`sl2_residues`) as the ones
    in Gamma(p), in the order those are enumerated.
    """
    if n < 1:
        raise ValueError("precision must be >= 1")
    return tuple(g for g in sl2_residues(p**n) if in_gamma(g, p, CongKind.FULL_LEVEL))


# -- truncated matrix sequences ----------------------------------------------


def _agree(xs: tuple[UnimodMatrix, ...], ys: tuple[UnimodMatrix, ...], p: int, e: int = 1) -> bool:
    """Whether the k-th term of xs is e times the k-th term of ys mod p^k,
    for k = 1, 2, ... over the shorter of the two."""
    m = p
    for (a, b, c, d), (w, x, y, z) in zip(xs, ys):
        if e < 0:  # negated entries, not four products by e, keep the common e = 1 walk fast
            w, x, y, z = -w, -x, -y, -z
        if (a - w) % m or (b - x) % m or (c - y) % m or (d - z) % m:
            return False
        m *= p
    return True


class MatrixSeq(namedtuple("MatrixSeq", "prime mats")):
    """gamma_1..gamma_L in SL2(Z) that converge: gamma_{n+1} = gamma_n mod p^n
    and gamma_1 = I mod p, checked once at construction."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, prime: int, mats: tuple[UnimodMatrix, ...]) -> "MatrixSeq":
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if not mats:
            raise ValueError("empty sequence")
        seq = tuple.__new__(cls, (prime, mats))
        if not seq.conditions_hold():
            raise ValueError("sequence violates the convergence conditions")
        return seq

    def conditions_hold(self) -> bool:
        """(i) the first term is I mod p; (ii) successive terms agree mod p^n."""
        p, mats = self
        return in_gamma(mats[0], p, CongKind.FULL_LEVEL) and _agree(mats[1:], mats, p)


def _limit_sign(s: MatrixSeq, t: MatrixSeq) -> int:
    """The sign e, +1 tried first, with term k of s = e times term k of t mod
    p^k for every k, or 0 if neither sign fits; ValueError unless s and t
    have one prime and one length."""
    if s.prime != t.prime:
        raise ValueError("sequences at different primes")
    if len(s.mats) != len(t.mats):
        raise ValueError("sequences of different lengths")
    for e in (1, -1):
        if _agree(s.mats, t.mats, s.prime, e):
            return e
    return 0


def seq_conditions_hold(s: MatrixSeq, t: MatrixSeq) -> bool:
    """Termwise equality up to sign mod p^n of two sequences of one shape;
    each converges by construction.

    One sign for all terms is the same test as a sign per term, because both
    sequences converge: from term 2 on (term 1 on for odd p) at most one sign
    fits, since 2h = 0 mod p^n is impossible for h = I mod p, and consecutive
    terms, agreeing mod p^n, carry that sign forward; term 1 at p = 2 is taken
    mod 2, where -h = h fits either sign.
    """
    return _limit_sign(s, t) != 0


def limits_agree(s: MatrixSeq, t: MatrixSeq) -> bool:
    """Exact termwise agreement mod p^n of two hypothesis-compliant sequences.

    For odd p this is forced (the sign ambiguity collapses); for p = 2 it can
    genuinely fail — the caller gets the honest answer either way.  ValueError
    if the pair does not satisfy the hypotheses.
    """
    e = _limit_sign(s, t)
    if not e:
        raise ValueError("sequences do not satisfy the hypotheses")
    return e > 0


def _below(getrandbits, n: int) -> int:
    """rng.randrange(n) for n >= 1, drawn as CPython's `_randbelow_with_getrandbits`
    draws it: the same bits, the same result, the same RNG state afterwards."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_elem(modulus: int, rng: random.Random) -> _Entries:
    """Entries (p, q, r, s) of a random element of the level-`modulus`
    principal congruence subgroup.

    The element is T(x)L(y) or T(x)L(y)T(z), with T(x) = [[1, x], [0, 1]],
    L(y) = [[1, 0], [y, 1]] and x, y, z random multiples of the modulus, in
    closed form: T(x)L(y) = (1 + xy, x, y, 1) and
    T(x)L(y)T(z) = (1 + xy, (1 + xy)z + x, y, yz + 1).  The draws go through
    `_below` and mirror randint(2, 3), then randint(-3, 3) once per factor.
    """
    bits = rng.getrandbits
    factors = 2 + _below(bits, 2)
    x = (_below(bits, 7) - 3) * modulus
    y = (_below(bits, 7) - 3) * modulus
    if factors == 2:
        return (1 + x * y, x, y, 1)
    z = (_below(bits, 7) - 3) * modulus
    return (1 + x * y, (1 + x * y) * z + x, y, y * z + 1)


def random_matrix_seq(p: int, length: int, rng: random.Random) -> MatrixSeq:
    """A random compliant sequence: each term perturbs the previous inside
    the matching principal congruence subgroup (`_random_elem` at moduli p, p,
    p^2, ..., p^(length-1), its draws mirroring randint's).

    The products run on entry tuples; each term becomes one validated
    UnimodMatrix (determinant checked) and MatrixSeq re-checks compliance.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    g = _random_elem(p, rng)
    mats = [UnimodMatrix(*g)]
    m = p
    for _ in range(1, length):
        g = _mul(g, _random_elem(m, rng))
        mats.append(UnimodMatrix(*g))
        m *= p
    return MatrixSeq(p, tuple(mats))


def random_compliant_pair(p: int, length: int, rng: random.Random) -> tuple[MatrixSeq, MatrixSeq, bool]:
    """(s, t, expected) with s, t jointly satisfying the hypotheses and
    `expected` the truth value limits_agree must return.

    t is built from s by in-class perturbation and a sign choice per term.
    For odd p every admissible sign is +1, so expected is always True; p = 2
    leaves the first two signs free and the limits disagree exactly when the
    persistent sign is -1.
    """
    s = random_matrix_seq(p, length, rng)
    if p == 2:
        signs = [(1, -1)[_below(rng.getrandbits, 2)]]  # rng.choice((1, -1))
        if length > 1:
            persistent = (1, -1)[_below(rng.getrandbits, 2)]
            signs += [persistent] * (length - 1)
    else:
        signs = [1] * length
    mats = []
    m = p
    for g, e in zip(s.mats, signs):
        a, b, c, d = _mul(g, _random_elem(m, rng))
        mats.append(UnimodMatrix(a, b, c, d) if e == 1 else UnimodMatrix(-a, -b, -c, -d))
        m *= p
    t = MatrixSeq(p, tuple(mats))
    expected = p != 2 or length < 2 or signs[1] == 1
    return s, t, expected


# -- base points at level p and the classes above them -------------------------


def base_point_set(p: int, d: int) -> tuple[SignedForm, ...]:
    """One point per class of the full-congruence signed curve at level p (`cm_class_set`)."""
    return cm_class_set(d, p, "y")


def act_padic(triple: tuple[int, int, int], lift: _Entries, p: int) -> tuple[int, int, int]:
    """The triple of a point's form moved by `lift`, an integral lift of a
    kernel class as its entries (a report lifts each class once, by
    `lift_matrix`, whose matrix is its entries); the sign of the point does
    not move.

    The lift must be trivial mod p (that is the domain of the correspondence).
    The class of the result at level p**n does not depend on which lift of the
    class mod p**n is passed (`_check_lift` tests that).
    """
    if not in_gamma(lift, p, CongKind.FULL_LEVEL):
        raise ValueError("matrix is not trivial mod p")
    return _moved(*triple, *lift)


def _check_lift(
    point: SignedForm, reduced: QuadForm, to_reduced: UnimodMatrix, g: _Entries, m: int, key: tuple
) -> None:
    """RuntimeError unless `key` is the level-m class key of the form of
    point.g, for the residue tuple g mod m.

    (reduced, to_reduced) is `reduce_form` of the point's form, taken once per
    base point by the caller.  Any gamma = g mod m takes the image back to R =
    reduced by gamma^-1 * to_reduced, and gamma^-1 is congruent to the
    adjugate of g mod m.  So the image's key is `key_from_witness` of
    adj(g) * to_reduced: no lift, transform or reduction of the image.
    """
    a, b, c, d = g
    want = key_from_witness(tuple(reduced), _mul((d, -b, -c, a), to_reduced), m, CongKind.FULL_LEVEL)
    if key != want:
        raise RuntimeError(
            f"{point_json(point)} moved by {list(g)} mod {m} lands in class {key}, "
            f"but the residues of its adjugate give {want}"
        )


def _check_located(img: SignedForm, key: tuple, codomain: frozenset, level: int) -> None:
    """RuntimeError unless img's key is in the codomain and its class holds img.

    The image is keyed through reduction, the codomain through the residues of
    SL2(Z/level) (`class_keys`).  The class (R, name) is rebuilt as R moved by
    a lift of the name's adjugate, with img's sign; `equivalent_points` joins
    img to it by a witness in the subgroup, using neither key, and the rebuilt
    form must reduce to the same key, so this ties both key routes to the class.
    """
    if key not in codomain:
        raise RuntimeError(f"{point_json(img)} has the key {key}, which is no enumerated level-{level} class")
    triple, (x, y, z, u) = key
    rep = SignedForm(QuadForm(*triple).transform(lift_matrix(u, -y, -z, x, level)), img.sign)
    if not equivalent_points(img, rep, level, "y"):
        raise RuntimeError(f"{point_json(img)} is located at {point_json(rep)}, but no level-{level} witness joins them")
    rebuilt = class_key(rep.form, level, CongKind.FULL_LEVEL)
    if rebuilt != key:
        raise RuntimeError(f"{point_json(rep)} was rebuilt from the key {key}, but its own key is {rebuilt}")


def correspondence_report(p: int, d: int, n: int, check_lift: bool = False) -> dict:
    """Exhaustive check that (base point, kernel class) pairs hit pairwise
    distinct classes at level p^n, with the codomain enumerated independently.

    The codomain is the level-p^n classes with each sign, keyed off the
    residues of SL2(Z/p^n) (`class_keys`), never built as representatives; an
    image keeps its point's sign, so the images are surjective when the key
    set of each sign's images equals the codomain's.

    The pairs run on integers: a base point moves as its form's triple by the
    entries of each class's lift (`act_padic`), and the image's key is
    `class_key` of that triple.
    No per-pair object is validated, and none needs to be: det-1 lifts keep
    the discriminant, primitivity and definiteness, and a stray key would
    break the equality with the codomain.

    Returns a plain dict (JSON-ready): sizes of all three sets, the pair
    count, injectivity and surjectivity verdicts, and explicit witnesses for
    any failure instead of an exception.  With check_lift every image's class
    is also read off the residues of its matrix (`_check_lift`), and the last
    image of each base point, the one signed form built per base point, is
    joined to the class its key names by an explicit witness
    (`_check_located`); either raises RuntimeError on a mismatch.
    """
    base = base_point_set(p, d)
    kernel = kernel_reps(p, n)
    level = p**n
    codomain = class_keys(d, level, CongKind.FULL_LEVEL)

    # images of one sign are distinct classes exactly when their keys are distinct
    first: dict[int, dict[tuple, tuple[int, int]]] = {1: {}, -1: {}}
    witnesses = []
    lifts = [lift_matrix(*g, level) for g in kernel]
    for ri, r in enumerate(base):
        triple, first_of_sign = tuple(r.form), first[r.sign]
        if check_lift:
            reduced, to_reduced = reduce_form(r.form)
        for gi, (g, lift) in enumerate(zip(kernel, lifts)):
            key = class_key(act_padic(triple, lift, p), level, CongKind.FULL_LEVEL)
            if check_lift:
                _check_lift(r, reduced, to_reduced, g, level, key)
            seen = first_of_sign.setdefault(key, (ri, gi))
            if seen != (ri, gi):
                witnesses.append({"first": list(seen), "second": [ri, gi]})
        if check_lift:
            _check_located(r.transform(lift), key, codomain, level)
    pairs = len(base) * len(kernel)
    injective = not witnesses
    return {
        "p": p,
        "D": d,
        "n": n,
        "base_size": len(base),
        "kernel_size": len(kernel),
        "codomain_size": 2 * len(codomain),
        "pairs": pairs,
        "injective": injective,
        "surjective": all(seen.keys() == codomain for seen in first.values()),
        "witnesses_of_failure": witnesses,
    }
