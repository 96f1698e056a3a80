"""Congruence subgroups of SL2(Z) and class enumeration of forms under them.

Two families are supported: the principal subgroup of level N (matrices
congruent to the identity mod N) and the upper-unipotent family (diagonal
congruent to 1, lower-left to 0 mod N, upper-right free).  The module decides
membership, enumerates coset representatives by lifting SL2(Z/N), and
enumerates the classes of forms exhaustively.  Classes here are of forms:
the group never moves the sign of a point, so no sign enters this module, and
`cm` and `tower` carry it next to the classes.  One exact key, `class_key` of
any triple, decides which class a form is in, and so whether it is a member
at all; `cong_equivalent` finds an explicit witness of an equivalence;
`class_keys` reads the classes as keys straight off the residues of SL2(Z/N),
where no representative is printed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from ._arith import egcd
from .forms import (
    IDENTITY,
    QuadForm,
    UnimodMatrix,
    _moved,
    _mul,
    automorphs,
    is_member,
    reduce_triple,
    reduced_forms,
    require_discriminant,
    sl2_equivalent,
)


class CongKind(Enum):
    """Which congruence subgroup a level refers to."""

    FULL_LEVEL = "full"          # g = I mod N
    UPPER_UNIPOTENT = "gamma1"   # diag = 1, lower-left = 0 mod N


def in_gamma(g: tuple[int, int, int, int], n: int, kind: CongKind) -> bool:
    """Whether the entries (p, q, r, s) of g lie in the level-n subgroup of `kind`."""
    if n < 1:
        raise ValueError("level must be >= 1")
    p, q, r, s = g
    if (p - 1) % n or r % n or (s - 1) % n:
        return False
    return kind is CongKind.UPPER_UNIPOTENT or q % n == 0


@lru_cache(maxsize=None)
def sl2_residues(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """All (p, q, r, s) over Z/n with p*s - q*r = 1 mod n."""
    if n < 1:
        raise ValueError("level must be >= 1")
    out = []
    for p in range(n):
        g, u, _ = egcd(p, n)
        for q in range(n):
            for r in range(n):
                target = 1 + q * r
                if target % g:
                    continue
                # p*s = target (mod n) has g solutions, spaced n/g apart
                s0 = (u * (target // g)) % (n // g)
                for k in range(g):
                    out.append((p, q, r, s0 + k * (n // g)))
    return tuple(out)


def lift_matrix(p: int, q: int, r: int, s: int, n: int) -> UnimodMatrix:
    """An SL2(Z) matrix congruent to (p, q, r, s) mod n.

    Deterministic: fix an integer bottom row congruent to (r, s) with coprime
    entries, complete it by the extended gcd, then correct the top row by the
    unique translate matching (p, q) mod n.
    """
    if n == 1:
        return IDENTITY
    if (p * s - q * r) % n != 1:
        raise ValueError(f"({p},{q},{r},{s}) is not unimodular mod {n}")
    rr = r % n
    ss = s % n
    if rr == 0:
        rr = n
    while math.gcd(rr, ss) != 1:
        ss += n
    _, u, v = egcd(rr, ss)
    # det [[v, -u], [rr, ss]] = v*ss + u*rr = 1
    p0, q0 = v, -u
    t = (u * (p - p0) + v * (q - q0)) % n
    lifted = UnimodMatrix(p0 + t * rr, q0 + t * ss, rr, ss)
    if any((x - y) % n for x, y in zip(lifted, (p, q, r, s))):
        raise RuntimeError(f"lift {tuple(lifted)} is not congruent to {(p, q, r, s)} mod {n}")
    return lifted


def coset_reps(n: int, kind: CongKind) -> tuple[UnimodMatrix, ...]:
    """Representatives g0 of the left cosets g0*Gamma in SL2(Z).

    For the principal subgroup these biject with SL2(Z/n).  For the
    upper-unipotent family they biject with SL2(Z/n) modulo right
    multiplication by unipotents [[1, k], [0, 1]].  That action fixes the
    first column (p, r) and moves the second freely, so an orbit is the set of
    residues with one first column; each orbit is collapsed to its
    lexicographically least tuple, the least (q, s) for its (p, r), before
    lifting, so the output is deterministic.
    """
    residues = sl2_residues(n)
    if kind is CongKind.FULL_LEVEL:
        return tuple(lift_matrix(*t, n) for t in residues)
    least: dict[tuple[int, int], tuple[int, int]] = {}
    for p, q, r, s in residues:
        kept = least.get((p, r))
        if kept is None or (q, s) < kept:
            least[(p, r)] = (q, s)
    chosen = sorted((p, q, r, s) for (p, r), (q, s) in least.items())
    return tuple(lift_matrix(*t, n) for t in chosen)


def cong_equivalent(f: QuadForm, g: QuadForm, n: int, kind: CongKind) -> UnimodMatrix | None:
    """A witness w in the subgroup with f.transform(w) == g, or None.

    The full SL2(Z) witness set is automorphs * w0 for any single witness w0,
    and it is finite, so membership of the class is decided exactly by testing
    each element.  Discriminant or membership violations raise ValueError.
    """
    d = f.discriminant()
    if g.discriminant() != d:
        raise ValueError(f"discriminant mismatch: {d} vs {g.discriminant()}")
    if not is_member(f, d, n) or not is_member(g, d, n):
        raise ValueError(f"forms must have leading coefficient prime to {n}")
    w0 = sl2_equivalent(f, g)
    if w0 is None:
        return None
    for alpha in automorphs(f):
        w = alpha * w0
        if in_gamma(w, n, kind):
            if f.transform(w) != g:
                raise RuntimeError(f"witness {tuple(w)} does not take {tuple(f)} to {tuple(g)}")
            return w
    return None


def key_from_witness(triple: tuple, w: tuple[int, int, int, int], n: int, kind: CongKind) -> tuple:
    """The class key of any form that the matrix w = (p, q, r, s) takes to the
    reduced form R with this triple.

    The matrices taking that form to R are w*Aut(R), so its class is the double
    coset Gamma*w*Aut(R).  Each right coset Gamma*m is named by m mod n
    (principal subgroup, which is normal) or by the bottom row of m mod n
    (upper-unipotent family); the key is R with the least such name over
    Aut(R).  Only w mod n matters, so w may be any integer matrix congruent to
    a witness.  When Aut(R) = {I, -I}, as for every form of D < -4, the least
    name is that of w or -w, taken with no products; otherwise each name is
    read off a product w*alpha (`_mul`).
    """
    auts = automorphs(triple)
    if len(auts) == 2:  # Aut(R) = {I, -I}: the name of w or of -w
        p, q, r, s = w
        if kind is CongKind.FULL_LEVEL:
            return (triple, min((p % n, q % n, r % n, s % n), (-p % n, -q % n, -r % n, -s % n)))
        return (triple, min((r % n, s % n), (-r % n, -s % n)))
    products = [_mul(w, alpha) for alpha in auts]
    if kind is CongKind.FULL_LEVEL:
        return (triple, min((p % n, q % n, r % n, s % n) for p, q, r, s in products))
    return (triple, min((r % n, s % n) for _, _, r, s in products))


def class_key(f: tuple, n: int, kind: CongKind) -> tuple:
    """A complete invariant of the form with the triple f, a `QuadForm` or
    not: equal keys exactly when the forms are equivalent.

    Reduction supplies R and a witness w that takes the triple to R; the key
    is `key_from_witness` of them, (R, name).  Uncached: the forms it locates
    (products, images) are mostly new.
    """
    a, b, c, p, q, r, s = reduce_triple(*f)
    return key_from_witness((a, b, c), (p, q, r, s), n, kind)


@lru_cache(maxsize=None)
def enumerate_classes(d: int, n: int, kind: CongKind) -> tuple[tuple[tuple, QuadForm], ...]:
    """(key, representative) for every class, in triple order of the
    representatives.

    Candidates are the reduced forms pushed through all coset representatives;
    every class is hit because a witness factors as (coset rep) * (subgroup
    element).  The candidate R.transform(g0) goes back to R under g0^-1, so its
    key is read off the residues of g0^-1 with no reduction.  Candidates whose
    leading coefficient shares a factor with n are discarded (that property
    is class-constant); the least triple is kept for each key.  Candidates
    stay integer triples; only the kept ones become validated `QuadForm`s.
    """
    require_discriminant(d)
    reps = coset_reps(n, kind)
    least: dict[tuple, tuple[int, int, int]] = {}
    for base in reduced_forms(d):
        triple = tuple(base)
        for g0 in reps:
            p, q, r, s = g0
            cand = _moved(*triple, p, q, r, s)
            if math.gcd(cand[0], n) != 1:
                continue
            key = key_from_witness(triple, (s, -q, -r, p), n, kind)
            kept = least.get(key)
            if kept is None or cand < kept:
                least[key] = cand
    return tuple((key, QuadForm(*cand)) for key, cand in sorted(least.items(), key=lambda item: item[1]))


def class_keys(d: int, n: int, kind: CongKind) -> frozenset:
    """The key set of `enumerate_classes`, with no lift, moved form or `QuadForm`:
    a candidate R.transform(g0), g0 = (p, q, r, s) mod n, has the leading
    coefficient R(p, r) and goes back to R under g0^-1 = (s, -q, -r, p).  For
    the upper-unipotent family, residues with one first column share a key."""
    require_discriminant(d)
    residues = sl2_residues(n)
    return frozenset(
        key_from_witness((a, b, c), (s, -q, -r, p), n, kind)
        for a, b, c in reduced_forms(d)
        for p, q, r, s in residues
        if math.gcd((a * p + b * r) * p + c * r * r, n) == 1
    )


def unsigned_class_reps(d: int, n: int, kind: CongKind) -> tuple[QuadForm, ...]:
    """One representative per class, deterministically ordered: the least
    candidate triple of each class, in triple order (see `enumerate_classes`)."""
    return tuple(rep for _, rep in enumerate_classes(d, n, kind))


class ClassIndex(namedtuple("ClassIndex", "disc level kind reps by_key")):
    """A frozen class list with exact membership lookup: `by_key` maps each
    class key to the index of its representative in `reps`."""

    __slots__ = ()

    def locate(self, f: tuple) -> int:
        """Index of the class of the form with the triple f, a `QuadForm` or
        not; LookupError if f is not a member, which the key decides: D and
        gcd(a, N) are class invariants."""
        i = self.by_key.get(class_key(f, self.level, self.kind))
        if i is None:
            raise LookupError(f"{list(f)} is in no enumerated discriminant-{self.disc} level-{self.level} class")
        return i


@lru_cache(maxsize=None)
def class_index(d: int, n: int, kind: CongKind) -> ClassIndex:
    """The classes of `enumerate_classes`, indexed by the keys they were
    enumerated under."""
    pairs = enumerate_classes(d, n, kind)
    return ClassIndex(d, n, kind, tuple(rep for _, rep in pairs), {key: i for i, (key, _) in enumerate(pairs)})
