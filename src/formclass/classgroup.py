"""Composition of form classes at a level, the resulting finite abelian group,
its signed (plus/minus) extension, and the transition maps between levels,
kinds, and orders.

A class is of forms, named by one representative `QuadForm`; the level is
an argument (`compose(f, g, n)`, `same_class(f, g, n)`, `inverse_class(f, n)`)
or comes from the `ClassGroupTable`, whose `locate_class` gives a form's
index.  The table's n^2 cells are filled by unordered pairs, `paired_grid`:
both orders are composed, and y*x is located only when its triple differs
from x*y's, which by the CRT it does not when a_x and a_y are coprime.  Level
projections are index maps, `class_surjection`; the signed extension is the
minus coset's indices, shifted by the order.

Composition keeps the stricter level-N equivalence throughout: the second
factor is moved inside its own class (by a matrix that is unipotent upper
triangular mod N) until its leading coefficient is coprime to the first
factor's, after which the two forms share a middle coefficient, Dirichlet's
closed form, and multiply like the ideals they correspond to.  An ideal is a
rational m times the ideal of a form; `class_of_ideal` moves that form by the
diamond operator <m> = diag(1/m, m) mod N, locates it and confirms once by
`ray_class_equal`.
The inverse is the conjugate class moved by <a>, NOT the conjugate once N > 1.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from ._arith import egcd
from .congruence import CongKind, class_index, cong_equivalent, lift_matrix
from .forms import QuadForm, is_member
from .ideals import OIdeal, extend_to_order, form_to_ideal, ray_class_count, ray_class_equal


class CompositionBoundError(RuntimeError):
    """The search for a concordant representative pair exhausted its shells."""


class GroupAxiomError(RuntimeError):
    """A built multiplication table failed a group-law or order check."""


def same_class(f: QuadForm, g: QuadForm, n: int) -> bool:
    return cong_equivalent(f, g, n, CongKind.UPPER_UNIPOTENT) is not None


# Shells 0.._SHELLS of candidate columns bound the concordance search.  A
# column always exists, since a primitive form represents integers prime to
# any given M (Cox, Primes of the form x^2 + ny^2, Lemma 2.25).  Over D = -3
# .. -399 and N = 1..40 with at most 160 classes, every representative x
# against every representative and conjugate y (27,411,132 pairs), the first
# hit lies within shell 3 and the fourth (the most an rng draw collects)
# within shell 6; the worst pair for four hits is (966, 751, 146) *
# (49, 47, 12) at (D, N) = (-143, 5).
_SHELLS = 10


@lru_cache(maxsize=None)
def _coprime_columns(n: int, shells: int) -> tuple[tuple[int, int, int, int], ...]:
    """(p, r, u, v) with u*p + v*r = 1 for each coprime candidate column (p, r) =
    (1 + kp*n, kr*n) with max(|kp|, |kr|) <= shells, shell by shell from the
    nearest and in (kp, kr) order within a shell.  Cached, so the columns and
    their Bezout coefficients are found once per level."""
    rings = [[] for _ in range(shells + 1)]
    for kp in range(-shells, shells + 1):
        for kr in range(-shells, shells + 1):
            p, r = 1 + kp * n, kr * n
            g, u, v = egcd(p, r)
            if g == 1:
                rings[max(abs(kp), abs(kr))].append((p, r, u, v))
    return tuple(col for ring in rings for col in ring)


def compose(f: tuple, g: tuple, n: int, rng: random.Random | None = None) -> QuadForm:
    """A representative of the product of the level-n classes of f and g, via a
    concordant pair of representatives.

    f and g are (a, b, c) triples, `QuadForm`s or not; ValueError unless they
    share a discriminant D and both leading coefficients are prime to n >= 1.
    Moves g by gamma = [[p, -v], [r, u]] (unipotent upper triangular mod n,
    built from any coprime column p = 1, r = 0 mod n with gcd(a_f, Q_g(p, r))
    = 1) to (a2, b2, c2).  The middle coefficient is Dirichlet's closed form
    (Cox, Primes of the form x^2 + ny^2, Lemma 3.2), B = b_f + 2a_f * (((b2 -
    b_f)/2) * a_f^-1 mod a2) in (-m, m] with m = a_f*a2, and the exact check
    B^2 = D (mod 4m) confirms that (m, B, (B^2 - D)/4m) is an integral form of
    discriminant D, and p*u + v*r = 1 that gamma is in SL2(Z) (RuntimeError
    otherwise).  The columns and their Bezout coefficients are computed once
    per level; CompositionBoundError if no column within _SHELLS shells
    qualifies.  The result class does not depend on the chosen column;
    passing rng picks among the first few admissible columns at random, which
    is how the independence is tested.
    """
    ax, bx, cx = f
    ay, by, cy = g
    d = bx * bx - 4 * ax * cx
    if by * by - 4 * ay * cy != d:
        raise ValueError(f"discriminant mismatch: {d} vs {by * by - 4 * ay * cy}")
    if n < 1 or math.gcd(ax, n) != 1 or math.gcd(ay, n) != 1:
        raise ValueError(f"leading coefficients {ax} and {ay} must be prime to the level {n}")
    wanted = 1 if rng is None else 4
    hits = []
    for col in _coprime_columns(n, _SHELLS):
        p, r = col[0], col[1]
        if math.gcd(ax, (ay * p + by * r) * p + cy * r * r) == 1:
            hits.append(col)
            if len(hits) == wanted:
                break
    if not hits:
        raise CompositionBoundError(
            f"no concordant column for {tuple(f)} * {tuple(g)} at level {n} within bound {_SHELLS}"
        )
    p, r, u, v = hits[0] if rng is None else rng.choice(hits)
    # g moved by gamma = [[p, -v], [r, u]]: leading and middle coefficients
    a2 = (ay * p + by * r) * p + cy * r * r
    b2 = -2 * ay * p * v + by * (p * u - v * r) + 2 * cy * r * u
    m = ax * a2
    big_b = (bx + 2 * ax * ((b2 - bx) // 2 * pow(ax, -1, a2) % a2)) % (2 * m)
    if big_b > m:
        big_b -= 2 * m
    if (big_b * big_b - d) % (4 * m):
        raise RuntimeError(f"B = {big_b} has B^2 != {d} mod {4 * m}: the moved pair is not concordant")
    # B^2 = D (mod 4m) sees only (m, B), so a gamma outside SL2(Z) can pass it
    if p * u + v * r != 1:
        raise RuntimeError(f"gamma = [[{p}, {-v}], [{r}, {u}]] has determinant {p * u + v * r}, not 1")
    return QuadForm(m, big_b, (big_b * big_b - d) // (4 * m))


def class_of_ideal(u: OIdeal, d: int, n: int) -> QuadForm:
    """The level-n class whose ideal is ray-equal to u: u = scale * (Z*a +
    Z*(-b + sqrt(d))/2) is m = scale*a times the ideal of (a, b, (b^2 - d)/4a),
    so that form moved by <m>, a lift of diag(1/m, m) mod n, is located and
    confirmed by one `ray_class_equal` call (LookupError if it disagrees).
    ValueError unless u is of disc d and prime to n."""
    if u.disc != d:
        raise ValueError("ideals of different orders")
    if not u.prime_to(n):
        raise ValueError(f"ideals must be prime to {n}")
    m = u.scale.numerator * u.a * pow(u.scale.denominator, -1, n) % n
    moved = QuadForm(u.a, u.b, (u.b * u.b - d) // (4 * u.a)).transform(lift_matrix(pow(m, -1, n), 0, 0, m, n))
    idx = class_index(d, n, CongKind.UPPER_UNIPOTENT)
    rep = idx.reps[idx.locate(moved)]
    if not ray_class_equal(u, form_to_ideal(rep), n):
        raise LookupError(f"ideal {u.to_json()} is not in the class of {tuple(rep)} at disc {d}, level {n}")
    return rep


def inverse_class(f: QuadForm, n: int) -> QuadForm:
    """The inverse of f's level-n class: its inverse ideal is a times conj(f)'s,
    so `class_of_ideal` moves conj(f) by <m> with m = a and confirms once."""
    return class_of_ideal(form_to_ideal(f).inverse(), f.discriminant(), n)


# -- the full group ----------------------------------------------------------


def _abelian_invariants(cayley: tuple[tuple[int, ...], ...], identity: int) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the abelian group with Cayley rows
    `cayley` and identity index `identity`.

    Reads nothing but the rows.  The powers x, x^2, .., x^o = 1 of each
    element of unknown order are walked down column x; x^j then has order
    o / gcd(j, o).  In Z/d_1 + .. + Z/d_k of order n the torsion counts
    t(m) = #{x : ord(x) | m} are prod_i gcd(m, d_i) for each m | n, so the
    least m with t(m) = t(n) is the largest factor e left, and dividing each
    t(m) by gcd(m, e) peels it off.  GroupAxiomError if a walk takes n steps
    without reaching the identity, or if the factors do not multiply to n
    and give back every t(m); so the factors returned are those of the one
    abelian group with the table's torsion counts.  Every loop is bounded by
    n or by the number of divisors of n.
    """
    n = len(cayley)
    orders = [0] * n
    for x in range(n):
        if orders[x]:
            continue
        walk = [x]
        for _ in range(n):
            if walk[-1] == identity:
                break
            walk.append(cayley[walk[-1]][x])
        else:
            raise GroupAxiomError(f"the powers of {x} do not reach the identity {identity} in {n} steps")
        o = len(walk)
        for j, y in enumerate(walk, 1):
            orders[y] = o // math.gcd(j, o)
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    counts = [sum(1 for o in orders if m % o == 0) for m in divisors]
    left, factors = counts, []
    for _ in divisors:
        if left[-1] == 1:
            break
        e = next(m for m, t in zip(divisors, left) if t == left[-1])
        factors.insert(0, e)
        left = [t // math.gcd(m, e) for m, t in zip(divisors, left)]
    if math.prod(factors) != n or counts != [math.prod(math.gcd(m, d) for d in factors) for m in divisors]:
        raise GroupAxiomError(f"invariant factors {factors} do not give the order {n} and the torsion counts {counts}")
    return tuple(factors)


def _check_group_table(cayley: tuple[tuple[int, ...], ...], identity: int) -> None:
    """GroupAxiomError unless cayley is the multiplication table of a group.

    Checks that identity is a two-sided identity and every row and column a
    permutation, then associativity by Light's test: (x*g)*z = x*(g*z) for
    all x, z and every g in a generating set.  The g that satisfy this for
    all x, z are closed under the product, so once the generators pass,
    every element they reach does.  The generators are picked greedily in
    index order and closed under right multiplication through the table, so
    every element is confirmed to be a product of them; at most log2(n) are
    needed for a group, and the test costs O(n^2) per generator.
    """
    t, e, n = tuple(map(tuple, cayley)), identity, len(cayley)
    for i in range(n):
        if t[e][i] != i or t[i][e] != i:
            raise GroupAxiomError(f"index {e} is not an identity")
    full = set(range(n))
    for i in range(n):
        if set(t[i]) != full or {t[j][i] for j in range(n)} != full:
            raise GroupAxiomError(f"row/column {i} is not a permutation")
    gens: list[int] = []
    reached = [False] * n
    reached[e] = True
    products = [e]
    for c in range(n):
        if reached[c]:
            continue
        gens.append(c)
        todo = [t[x][c] for x in products]
        while todo:
            y = todo.pop()
            if not reached[y]:
                reached[y] = True
                products.append(y)
                todo.extend(t[y][g] for g in gens)
    for g in gens:
        times_g_row = itemgetter(*t[g])  # row of x -> the row of x*(g*z) over z
        for i in range(n):
            if times_g_row(t[i]) != t[t[i][g]]:
                k = next(k for k in range(n) if t[t[i][g]][k] != t[i][t[g][k]])
                raise GroupAxiomError(f"associativity fails at ({i}, {g}, {k})")


def paired_grid(elems, product, locate) -> tuple[tuple[int, ...], ...]:
    """Rows of locate(product(x, y)) over x, y in elems, filled by unordered
    pairs: product runs once on the diagonal and on both orders of every
    other pair, so n^2 times, and the (j, i) cell takes the (i, j) index when
    the two products are one triple, which a second deterministic `locate`
    would return again.  Where they differ both are located, so a validator
    that compares (i, j) with (j, i) still tests every such pair.  Row i is
    complete after step i, and is a tuple from then on."""
    n = len(elems)
    rows = [[None] * n for _ in range(n)]
    for i, x in enumerate(elems):
        row = rows[i]
        row[i] = locate(product(x, x))
        for j in range(i + 1, n):
            y = elems[j]
            xy, yx = product(x, y), product(y, x)
            row[j] = k = locate(xy)
            rows[j][i] = k if xy == yx else locate(yx)
        rows[i] = tuple(row)
    return tuple(rows)


class ClassGroupTable(namedtuple("ClassGroupTable", "disc level classes cayley identity_index index")):
    """Dense multiplication table over the enumerated classes at (disc, level);
    `index` is their unsigned upper-unipotent `ClassIndex`."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.classes)

    @staticmethod
    def build(d: int, n: int) -> "ClassGroupTable":
        """The validated table at (d, n), its cells filled from `compose` by
        `paired_grid`.  GroupAxiomError if the classes disagree with
        `ray_class_count` or the table is no abelian group."""
        idx = class_index(d, n, CongKind.UPPER_UNIPOTENT)
        classes = idx.reps
        size = len(classes)
        expected = ray_class_count(d, n)
        if size != expected:
            raise GroupAxiomError(f"enumerated {size} classes at ({d}, {n}); order formula says {expected}")
        cayley = paired_grid(classes, lambda x, y: compose(x, y, n), idx.locate)
        identity = idx.locate(QuadForm.principal(d))
        table = ClassGroupTable(d, n, classes, cayley, identity, idx)
        table._validate()
        return table

    def _validate(self) -> None:
        """GroupAxiomError unless the table is an abelian group (see _check_group_table)."""
        t = self.cayley
        _check_group_table(t, self.identity_index)
        for i, (row, column) in enumerate(zip(t, zip(*t))):
            if tuple(row) != column:
                j = next(j for j in range(len(t)) if row[j] != column[j])
                raise GroupAxiomError(f"products {i}*{j} and {j}*{i} differ")

    def mul(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    def locate_class(self, f: QuadForm) -> int:
        """The index of f's class; ValueError unless f has this table's
        discriminant and a leading coefficient prime to its level."""
        if not is_member(f, self.disc, self.level):
            raise ValueError(f"form {tuple(f)} is not in the group at ({self.disc}, {self.level})")
        return self.index.locate(f)

    def invariant_factors(self) -> tuple[int, ...]:
        """The invariant factors d_1 | d_2 | ... of the group, read off the
        Cayley rows by `_abelian_invariants` (GroupAxiomError if their torsion
        counts are not those of an abelian group of this order)."""
        return _abelian_invariants(self.cayley, self.identity_index)

    def to_json(self) -> dict:
        return {
            "D": self.disc,
            "N": self.level,
            "order": self.order,
            "reps": [list(f) for f in self.classes],
            "cayley": [list(row) for row in self.cayley],
            "invariant_factors": list(self.invariant_factors()),
        }


@lru_cache(maxsize=None)
def class_group_table(d: int, n: int) -> ClassGroupTable:
    """The table at (d, n), built once per process."""
    return ClassGroupTable.build(d, n)


# -- transition maps ---------------------------------------------------------


def class_surjection(d: int, m: int, n: int, src_kind: CongKind, dst_kind: CongKind) -> tuple[int, ...]:
    """Index map of the class surjection (src_kind, m) -> (dst_kind, n).

    Defined when n | m and the source subgroup sits inside the target one,
    i.e. the source is full-congruence or the target is the unipotent kind.
    Each source representative is located in the target enumeration;
    GroupAxiomError names the target classes that nothing maps onto.
    """
    if n < 1 or m % n:
        raise ValueError(f"target level {n} must divide source level {m}")
    if not (src_kind == CongKind.FULL_LEVEL or dst_kind == CongKind.UPPER_UNIPOTENT):
        raise ValueError(f"no containment from {src_kind.value} at {m} into {dst_kind.value} at {n}")
    src = class_index(d, m, src_kind)
    dst = class_index(d, n, dst_kind)
    out = tuple(dst.locate(rep) for rep in src.reps)
    missing = sorted(set(range(len(dst.reps))) - set(out))
    if missing:
        raise GroupAxiomError(f"transition map misses target classes {missing}")
    return out


def order_change_map(f: QuadForm, target_disc: int, n: int) -> QuadForm:
    """Push f's level-n class to a smaller-conductor order (disc l1^2*d ->
    l2^2*d, l2 | l1).

    Extends f's ideal to the target order and reads off its class at the same
    level; ValueError if the extended ideal is not prime to the level.
    """
    return class_of_ideal(extend_to_order(form_to_ideal(f), target_disc), target_disc, n)


# -- the signed (plus/minus) extension ---------------------------------------


def conj_class(table: ClassGroupTable) -> tuple[int, ...]:
    """The index permutation of (a, b, c) -> (a, -b, c) on the table's classes:
    an automorphism, not the inverse."""
    return tuple(table.locate_class(f.conjugate()) for f in table.classes)


class PMGroup(namedtuple("PMGroup", "base conj_perm cayley")):
    """Dense table for the signed extension: indices [0, n) are the plus coset
    in base-table order, [n, 2n) the minus coset."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return 2 * self.base.order

    @property
    def identity_index(self) -> int:
        return self.base.identity_index

    @staticmethod
    def build(base: ClassGroupTable) -> "PMGroup":
        n = base.order
        conj = conj_class(base)
        # a plus factor keeps the coset of the right factor; a minus factor
        # conjugates the right factor and flips its coset
        plus = [row + tuple(k + n for k in row) for row in base.cayley]
        minus = []
        for row in base.cayley:
            twisted = tuple(row[c] for c in conj)
            minus.append(tuple(k + n for k in twisted) + twisted)
        group = PMGroup(base, conj, tuple(plus + minus))
        group._validate()
        return group

    def _validate(self) -> None:
        """GroupAxiomError unless the table is a group (see _check_group_table)
        whose plus coset is the base table and whose minus identity is an
        involution acting by the conjugate map."""
        n, e, t = self.base.order, self.identity_index, self.cayley
        _check_group_table(t, e)
        if any(t[i][:n] != self.base.cayley[i] for i in range(n)):
            raise GroupAxiomError("plus coset does not restrict to the base table")
        flip = n + e
        if t[flip][flip] != e:
            raise GroupAxiomError("the minus-identity is not an involution")
        for i in range(self.order):
            # conjugating by the involution must apply the conjugate map, coset kept
            expected = self.conj_perm[i % n] + (0 if i < n else n)
            if t[flip][t[i][flip]] != expected:
                raise GroupAxiomError(f"conjugation by the involution fails at {i}")
