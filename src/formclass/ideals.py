"""Imaginary quadratic orders, their proper fractional ideals, and ray classes.

An order of discriminant D is Z[w] with w = (D + sqrt(D))/2, and an
element x + y*w is its pair (x, y): units, generators and rows.  Proper
fractional ideals are stored as a positive rational scale times an integral
pair basis (Z*a + Z*(-b + sqrt(D))/2).  A product or an extension to a larger
order is read off integer generator rows written from the basis entries
(w^2 = D*w - (D^2 - D)/4), and their two-column Hermite normal form comes from
one Bezout pass over the rows.  Ray-class equality runs on the same ints: two
ideals are identified when their quotient, written as rows and put in Hermite
form, reduces to the principal form (`principal_generator`) with a generator
congruent to 1 modulo N up to units.  No `OIdeal`, form, matrix or `Fraction`
is built on that path.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from ._arith import egcd, factorize, kronecker
from .forms import QuadForm, _checked_make, reduce_triple, reduced_forms, require_discriminant


def fundamental_part(d: int) -> tuple[int, int]:
    """Split d into (fundamental discriminant, conductor): d = conductor^2 * d0.

    d0 is m or 4m for m = -(product of the primes to an odd power in |d|),
    whichever is a discriminant (m = 1 mod 4 or not).
    """
    require_discriminant(d)
    m = -math.prod(p for p, e in factorize(-d).items() if e % 2)
    d0 = m if m % 4 == 1 else 4 * m
    return d0, math.isqrt(d // d0)


def _nrm(d: int) -> int:
    return (d * d - d) // 4


def _hnf_pair(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form of the module spanned by rows (u, v) meaning u + v*w.

    Returns (e, g, h) with the module equal to Z*e + Z*(g + h*w), e, h > 0 and
    0 <= g < e.  One pass folds the v column with egcd: h = gcd of the v's and
    (g, h) is the Bezout combination of the rows.  Subtracting (v/h)*(g, h)
    leaves each row as (u - (v/h)*g, 0), so e is the gcd of those.  The form is
    unique, so any basis of the same module gives the same (e, g, h).
    """
    g = h = 0
    for u, v in rows:
        h, s, t = egcd(h, v)
        g = s * g + t * u
    if h == 0:
        raise ValueError("module has rank < 2" if any(u for u, _ in rows) else "zero module")
    e = 0
    for u, v in rows:
        e = math.gcd(e, u - v // h * g)
    if e == 0:
        raise ValueError("module has rank < 2")
    return e, g % e, h


def _ideal_basis(rows: list[tuple[int, int]], d: int) -> tuple[int, int, int]:
    """(a, b, h) with the module of rows equal to h * (Z*a + Z*(-b + sqrt(d))/2)
    and 0 <= b < 2a; ValueError unless the module is an ideal of the order."""
    e, g, h = _hnf_pair(rows)
    if e % h or g % h:
        raise ValueError("module is not an ideal of the order")
    a = e // h
    # g + h*w = h*(g/h + (d + sqrt(d))/2); match against (-b + sqrt(d))/2
    return a, (-(2 * (g // h) + d)) % (2 * a), h


def _product_rows(d: int, a1: int, b1: int, a2: int, b2: int) -> list[tuple[int, int]]:
    """Generator rows of (Z*a1 + Z*(-b1 + sqrt(d))/2) * (Z*a2 + Z*(-b2 + sqrt(d))/2):
    the products of the bases (a, 0), (x, 1) with x = (-b - d)/2, using w^2 = d*w - nrm."""
    x1, x2 = (-b1 - d) // 2, (-b2 - d) // 2
    return [(a1 * a2, 0), (a1 * x2, a1), (a2 * x1, a2), (x1 * x2 - _nrm(d), x1 + x2 + d)]


class OIdeal(namedtuple("OIdeal", "disc scale a b")):
    """scale * (Z*a + Z*(-b + sqrt(disc))/2): a proper fractional ideal.

    Invariants: scale > 0, a > 0, 0 <= b < 2a, b^2 = disc mod 4a, and the
    associated form (a, b, (b^2-disc)/(4a)) is primitive (that primitivity is
    exactly what makes the multiplier ring the full order).
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, disc: int, scale: Fraction, a: int, b: int) -> "OIdeal":
        require_discriminant(disc)
        if scale <= 0:
            raise ValueError("scale must be positive")
        if a <= 0 or not 0 <= b < 2 * a:
            raise ValueError(f"need a > 0 and 0 <= b < 2a, got a={a}, b={b}")
        num = b * b - disc
        if num % (4 * a):
            raise ValueError(f"b^2 = disc (mod 4a) fails for a={a}, b={b}, disc={disc}")
        if math.gcd(a, b, num // (4 * a)) != 1:
            raise ValueError(f"(a, b) = ({a}, {b}) does not define a proper ideal")
        return tuple.__new__(cls, (disc, scale, a, b))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_rows(rows: list[tuple[int, int]], scale: Fraction, d: int) -> "OIdeal":
        """Build from generating rows (x, y) = x + y*w, absorbing the HNF content into scale."""
        a, b, h = _ideal_basis(rows, d)
        return OIdeal(d, scale * h, a, b)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "OIdeal") -> "OIdeal":
        if self.disc != other.disc:
            raise ValueError("ideals of different orders")
        rows = _product_rows(self.disc, self.a, self.b, other.a, other.b)
        return OIdeal._from_rows(rows, self.scale * other.scale, self.disc)

    def inverse(self) -> "OIdeal":
        """u * u.inverse() == unit_ideal exactly, via u * conj(u) = norm(u) * O."""
        return OIdeal(self.disc, 1 / (self.scale * self.a), self.a, (-self.b) % (2 * self.a))

    def prime_to(self, n: int) -> bool:
        q = self.scale
        return math.gcd(self.a * q.numerator * q.denominator, n) == 1

    # -- conversions -------------------------------------------------------

    def to_json(self) -> list[int]:
        """[scale numerator, scale denominator, a, b]."""
        return [self.scale.numerator, self.scale.denominator, self.a, self.b]


def form_to_ideal(f: QuadForm) -> OIdeal:
    """The fractional ideal Z*root(f) + Z = (1/a) * (Z*a + Z*(-b + sqrt(D))/2)."""
    return OIdeal(f.discriminant(), Fraction(1, f.a), f.a, f.b % (2 * f.a))


# -- residues and units -----------------------------------------------------


def residue_units(d: int, n: int) -> int:
    """|(O/nO)*| by exhaustive enumeration of all n^2 residues x + y*w.

    A residue is invertible exactly when its norm is prime to n (multiply by
    the conjugate to invert).
    """
    require_discriminant(d)
    if n < 1:
        raise ValueError("modulus must be >= 1")
    nrm = _nrm(d)
    return sum(1 for x in range(n) for y in range(n) if math.gcd(x * x + x * y * d + y * y * nrm, n) == 1)


def unit_count(d: int, n: int) -> int:
    """|(O/nO)*| in closed form: n^2 * prod over p | n of (1 - 1/p)(1 - (d/p)/p).

    `residue_units(d, n)` enumerates the same number, as grouplaw's second route.
    """
    count = n * n
    for p in factorize(n):
        count = count // (p * p) * (p - 1) * (p - kronecker(d, p))
    return count


@lru_cache(maxsize=None)
def unit_group(d: int) -> tuple[tuple[int, int], ...]:
    """The units of the order as pairs (x, y) = x + y*w: +-1, plus the extra
    units for disc -4 and -3; RuntimeError if one has norm other than 1."""
    require_discriminant(d)
    units = [(1, 0), (-1, 0)]
    if d == -4:
        units += [(2, 1), (-2, -1)]  # 2 + w = sqrt(-1)
    if d == -3:
        units += [(2, 1), (-2, -1), (1, 1), (-1, -1)]  # 2 + w, a primitive sixth root of unity
    for x, y in units:
        norm = x * x + x * y * d + y * y * _nrm(d)
        if norm != 1:
            raise RuntimeError(f"unit {x} + {y}*w of discriminant {d} has norm {norm}")
    return tuple(units)


def unit_image_size(d: int, n: int) -> int:
    """Size of the image of the unit group in (O/nO)*."""
    return len({(x % n, y % n) for x, y in unit_group(d)})


# -- principality and ray classes -------------------------------------------


def principal_generator(d: int, a: int, b: int) -> tuple[int, int] | None:
    """(x, y) with x + y*w generating Z*a + Z*(-b + sqrt(d))/2, or None if that
    ideal is not principal.

    ValueError unless d is a negative discriminant, a > 0 and
    (a, b, (b^2 - d)/4a) is a primitive integral form.  The ideal is
    principal exactly when that form reduces to the principal form, the one
    reduced form with a = 1.  That form is reduced
    already, so the witness [[p, q], [r, s]] of `reduce_triple` transports the
    basis: the generator is a*p - r*(-b + sqrt(d))/2 = (a*p + r*(b + d)/2) - r*w.
    Exactness is checked by re-expanding (x + y*w) * O through `_hnf_pair`;
    RuntimeError if it is not the basis (a, b).
    """
    num = b * b - require_discriminant(d)
    if a <= 0 or num % (4 * a) or math.gcd(a, b, num // (4 * a)) != 1:
        raise ValueError(f"(a, b) = ({a}, {b}) is not the basis of a proper ideal of disc {d}")
    one, _, _, p, _, r, _ = reduce_triple(a, b, num // (4 * a))
    if one != 1:
        return None
    x, y = a * p + r * (b + d) // 2, -r
    # x + y*w and (x + y*w)*w = -y*nrm + (x + y*d)*w
    if _hnf_pair([(x, y), (-y * _nrm(d), x + y * d)]) != (a, (-b - d) // 2 % a, 1):
        raise RuntimeError(f"generator {x} + {y}*w does not re-expand to the ideal ({a}, {b}) of disc {d}")
    return x, y


def ray_class_equal(u: OIdeal, v: OIdeal, n: int) -> bool:
    """Whether u and v agree in the ray class group for the modulus n.

    Both must be prime to n.  The quotient u * v^-1 is u * conj(v) scaled by
    1 / (v.scale * v.a); its rows go through `_ideal_basis` to h * (a, b).  It
    is principal with generator mu = scale * (x + y*w) iff the classes can
    agree at all; writing scale = num / den (den prime to n), the classes
    agree exactly when some unit times (x + y*w) * num * den^-1 is congruent
    to 1 mod n.  For n = 1 this reduces to plain principality.
    """
    if u.disc != v.disc:
        raise ValueError("ideals of different orders")
    if not u.prime_to(n) or not v.prime_to(n):
        raise ValueError(f"ideals must be prime to {n}")
    d = u.disc
    a, b, h = _ideal_basis(_product_rows(d, u.a, u.b, v.a, -v.b), d)
    found = principal_generator(d, a, b)
    if found is None:
        return False
    if n == 1:
        return True
    us, vs = u.scale, v.scale
    k = us.numerator * vs.denominator * h * pow(us.denominator * vs.numerator * v.a, -1, n)
    bx, by = found[0] * k % n, found[1] * k % n
    nrm = _nrm(d)
    return any(
        (ux * bx - uy * by * nrm) % n == 1 and (ux * by + uy * bx + uy * by * d) % n == 0
        for ux, uy in unit_group(d)
    )


def ray_class_count(d: int, n: int) -> int:
    """h(O) * |(O/nO)*| / |image of units|: h from the reduced-form scan, the
    unit count in closed form (`unit_count`), the image by reducing the units."""
    return len(reduced_forms(d)) * unit_count(d, n) // unit_image_size(d, n)


def extend_to_order(u: OIdeal, target_disc: int) -> "OIdeal":
    """The ideal u * O2 in a larger order O2 (conductor dividing the source's).

    Source disc = m^2 * target disc; the basis element (-b + sqrt(D1))/2
    rewrites as (-b - m*D2)/2 + m*w2 over the target order, and the product
    module is generated by the four products of basis pairs.
    """
    d1, d2 = u.disc, require_discriminant(target_disc)
    f1, ell1 = fundamental_part(d1)
    f2, ell2 = fundamental_part(d2)
    if f1 != f2 or ell1 % ell2:
        raise ValueError(f"no inclusion of the order of disc {d1} into disc {d2}")
    m = ell1 // ell2
    x = (-u.b - m * d2) // 2
    # beta = x + m*w2 and beta*w2 = -m*nrm + (x + m*d2)*w2
    rows = [(u.a, 0), (0, u.a), (x, m), (-m * _nrm(d2), x + m * d2)]
    return OIdeal._from_rows(rows, u.scale, d2)
