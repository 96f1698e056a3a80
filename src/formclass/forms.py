"""Binary quadratic forms with exact arithmetic.

Primitive positive definite integer forms a*x^2 + b*x*y + c*y^2, the right
SL2(Z) action Q^g(v) = Q(g*v), Gauss reduction with a unimodular witness,
automorph groups, and signed forms, whose roots are the CM points of `cm`.
Everything is integer exact; no floating point is used anywhere.

A value is a validated tuple of its entries: a matrix is (p, q, r, s), a form
(a, b, c), a signed form (form, sign).  Its constructor checks it once, so it
equals, hashes and unpacks as that tuple, and it cannot be changed afterwards.
It has no `entries()` or `triple()`: code that prints a value as a plain tuple,
or puts it into a key, writes `tuple(v)`.

The hot paths work on plain ints, one kernel per operation: `_mul` is the 2x2
product, `_moved` the right action on a triple, and `reduce_triple`, the one
Gauss loop, carries a form and its witness as seven integers and checks the
witness exactly once.  `reduce_form` wraps it in values and caches it for two
callers: `tower.correspondence_report`, which reduces each base point once for
its lift check, and the `reduce` command.  `class_key` and `sl2_equivalent`
call `reduce_triple` uncached, as their forms are mostly new.  `is_member`
is on forms, as the sign never decides it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

# namedtuple's own _make, which _replace calls, builds with tuple.__new__ and
# would skip the check; a validated value sends it through its constructor
_checked_make = classmethod(lambda cls, entries: cls(*entries))


def is_discriminant(value: int) -> bool:
    """True for a negative integer congruent to 0 or 1 mod 4."""
    return value < 0 and value % 4 in (0, 1)


def require_discriminant(value: int) -> int:
    if not is_discriminant(value):
        raise ValueError(f"{value} is not a negative discriminant (need < 0 and = 0,1 mod 4)")
    return value


class UnimodMatrix(namedtuple("UnimodMatrix", "p q r s")):
    """2x2 integer matrix [[p, q], [r, s]] of determinant 1."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, p: int, q: int, r: int, s: int) -> "UnimodMatrix":
        if p * s - q * r != 1:
            raise ValueError(f"determinant of {(p, q, r, s)} is not 1")
        return tuple.__new__(cls, (p, q, r, s))

    def __mul__(self, other: "UnimodMatrix") -> "UnimodMatrix":
        return UnimodMatrix(*_mul(self, other))

    def __neg__(self) -> "UnimodMatrix":
        return UnimodMatrix(-self.p, -self.q, -self.r, -self.s)

    def to_json(self) -> list[int]:
        """Row-major [p, q, r, s]."""
        return list(self)


IDENTITY = UnimodMatrix(1, 0, 0, 1)


class QuadForm(namedtuple("QuadForm", "a b c")):
    """Primitive positive definite binary quadratic form (a, b, c)."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, a: int, b: int, c: int) -> "QuadForm":
        if math.gcd(a, b, c) != 1:
            raise ValueError(f"form {(a, b, c)} is not primitive")
        if a <= 0 or b * b - 4 * a * c >= 0:
            raise ValueError(f"form {(a, b, c)} is not positive definite")
        return tuple.__new__(cls, (a, b, c))

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def transform(self, g: UnimodMatrix) -> "QuadForm":
        """Right action: (Q.transform(g))(v) = Q(g*v).

        Satisfies Q.transform(g).transform(h) == Q.transform(g*h) and preserves
        the discriminant, primitivity and positive definiteness.
        """
        return QuadForm(*_moved(self.a, self.b, self.c, g.p, g.q, g.r, g.s))

    def conjugate(self) -> "QuadForm":
        """(a, b, c) -> (a, -b, c); the form of the complex-conjugate root."""
        return QuadForm(self.a, -self.b, self.c)

    @staticmethod
    def principal(d: int) -> "QuadForm":
        """The form (1, b0, (b0^2 - d)/4) with b0 = d mod 2; its root lattice is the full order."""
        require_discriminant(d)
        b0 = d % 2
        return QuadForm(1, b0, (b0 * b0 - d) // 4)


class SignedForm(namedtuple("SignedForm", "form sign")):
    """A positive definite carrier form plus a global sign.

    sign=-1 denotes the negated form -Q; the stored coefficients are always
    those of the positive definite carrier.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, form: QuadForm, sign: int = 1) -> "SignedForm":
        if sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {sign}")
        return tuple.__new__(cls, (form, sign))

    def transform(self, g: UnimodMatrix) -> "SignedForm":
        return SignedForm(self.form.transform(g), self.sign)

    def discriminant(self) -> int:
        return self.form.discriminant()

    def to_json(self) -> list[int]:
        """[a, b, c, s] with s = +-1."""
        return [self.form.a, self.form.b, self.form.c, self.sign]


def is_member(f: QuadForm, d: int, n: int) -> bool:
    """Whether f belongs to the discriminant-d family with leading coefficient prime to n.

    f is primitive positive definite by construction, so the checks are the
    discriminant and gcd(a, n) = 1.
    """
    return f.discriminant() == d and math.gcd(f.a, n) == 1


def _mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Row-major product of two 2x2 integer matrices given by their entries."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _moved(a: int, b: int, c: int, p: int, q: int, r: int, s: int) -> tuple[int, int, int]:
    """The triple of (a, b, c) under the right action of [[p, q], [r, s]]."""
    return ((a * p + b * r) * p + c * r * r,
            2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            (a * q + b * s) * q + c * s * s)


def reduce_triple(a: int, b: int, c: int) -> tuple[int, int, int, int, int, int, int]:
    """Gauss reduction on ints: (a', b', c', p, q, r, s), the reduced triple
    and the witness [[p, q], [r, s]] that takes (a, b, c) to it.

    A swap (right factor [[0, -1], [1, 0]]) sends form and witness to (c, -b, a)
    and (q, -p, s, -r), a translation by t to (a, b + 2at, (at + b)t + c) and
    (p, q + pt, r, s + rt).  RuntimeError unless ps - qr = 1 and the witness
    moves (a, b, c) to the result, checked once at the end.
    """
    start = a, b, c
    p, q, r, s = 1, 0, 0, 1
    while True:
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            p, q, r, s = q, -p, s, -r
        elif not (-a < b <= a):
            # translate b into (-a, a]
            t = (a - b) // (2 * a)
            b, c = b + 2 * a * t, (a * t + b) * t + c
            q, s = q + p * t, s + r * t
        else:
            break
    if p * s - q * r != 1 or _moved(*start, p, q, r, s) != (a, b, c):
        raise RuntimeError(f"reduction witness {(p, q, r, s)} does not take {start} to {(a, b, c)}")
    return a, b, c, p, q, r, s


@lru_cache(maxsize=None)
def reduce_form(f: QuadForm) -> tuple[QuadForm, UnimodMatrix]:
    """Gauss reduction.  Returns (R, g) with f.transform(g) == R and R reduced.

    Each SL2(Z) class contains exactly one reduced form, so R is a canonical
    class representative and g is an explicit equivalence witness.  Validated
    objects around `reduce_triple`, cached: a lift check reduces each base
    point once, and later reports on the same points hit the cache.
    """
    a, b, c, p, q, r, s = reduce_triple(f.a, f.b, f.c)
    return QuadForm(a, b, c), UnimodMatrix(p, q, r, s)


@lru_cache(maxsize=None)
def automorphs(triple: tuple[int, int, int]) -> tuple[UnimodMatrix, ...]:
    """All g that fix the form with this triple, in entry order.

    Built from the solutions of t^2 - D*u^2 = 4: the automorph
    [[(t - b*u)/2, -c*u], [a*u, (t + b*u)/2]] has determinant (t^2 - D*u^2)/4.
    Sizes: 2 for D < -4, 4 for D = -4, 6 for D = -3; always contains +-I.
    A `QuadForm` is its triple, so it shares the cache entry of the plain tuple.
    """
    a, b, c = triple
    d = b * b - 4 * a * c
    out = []
    umax = math.isqrt(4 // -d) if -d <= 4 else 0
    for u in range(-umax, umax + 1):
        t_sq = 4 + d * u * u
        if t_sq < 0:
            continue
        t_root = math.isqrt(t_sq)
        if t_root * t_root != t_sq:
            continue
        for t in ({t_root, -t_root} if t_root else {0}):
            g = UnimodMatrix((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2)
            if _moved(a, b, c, *g) == (a, b, c):
                out.append(g)
    out.sort()
    if IDENTITY not in out or -IDENTITY not in out:
        raise RuntimeError(f"automorphs of {(a, b, c)} miss +-I: {[tuple(g) for g in out]}")
    return tuple(out)


def sl2_equivalent(f: QuadForm, g: QuadForm) -> UnimodMatrix | None:
    """A matrix w with f.transform(w) == g, or None if the forms are inequivalent.

    Raises ValueError on a discriminant mismatch (that is an input error, not
    inequivalence).  The full witness set is automorphs(f) * w.  Both forms go
    through the uncached `reduce_triple`; w = w_f * adj(w_g) = w_f * w_g^-1 is
    checked exactly.
    """
    if f.discriminant() != g.discriminant():
        raise ValueError(f"discriminant mismatch: {f.discriminant()} vs {g.discriminant()}")
    *rf, p, q, r, s = reduce_triple(f.a, f.b, f.c)
    *rg, x, y, z, u = reduce_triple(g.a, g.b, g.c)
    if rf != rg:
        return None
    w = UnimodMatrix(*_mul((p, q, r, s), (u, -y, -z, x)))
    if f.transform(w) != g:
        raise RuntimeError(f"witness {tuple(w)} does not take {tuple(f)} to {tuple(g)}")
    return w


@lru_cache(maxsize=None)
def reduced_forms(d: int) -> tuple[QuadForm, ...]:
    """All reduced primitive positive definite forms of discriminant d, sorted.

    The count is the classical form class number h(d).
    """
    require_discriminant(d)
    out = []
    a_max = math.isqrt(-d // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            if (b - d) % 2 != 0:
                continue
            num = b * b - d
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if math.gcd(a, b, c) != 1:
                continue
            out.append(QuadForm(a, b, c))
    out.sort()
    return tuple(out)
