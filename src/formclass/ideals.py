"""Imaginary quadratic orders, their proper fractional ideals, and ray classes.

An order of discriminant D is Z[w] with w = (D + sqrt(D))/2, and an
element x + y*w is its pair (x, y): units, generators and rows.  Proper
fractional ideals are stored as a positive rational scale times an integral
pair basis (Z*a + Z*(-b + sqrt(D))/2).  A product or an extension to a larger
order is read off integer generator rows written from the basis entries
(w^2 = D*w - (D^2 - D)/4), and their two-column Hermite normal form comes from
one Bezout pass over the rows.  Ray classes run on the same ints: the
quotient of two ideals, written as rows and put in Hermite form, is principal
when it reduces to the principal form (`principal_generator`), and its
generator mod N is their ray residue (`ray_residue`).  Two ideals are
identified when that residue is 1 up to units (`ray_class_equal`); no
`OIdeal`, form, matrix or `Fraction` is built on that path.  Following the
exact sequence 1 -> (O/NO)*/units -> Cl_N -> Cl(O) -> 1 (Cohen, Advanced
Topics in Computational Number Theory, ch. 3), `ray_keys` names the ray class
of each ideal of a list by its level-1 class and the unit coset of its residue
against a fixed ideal of that class, and multiplies keys through h^2 products
of those fixed ideals.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
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


def residue_mul(x: tuple[int, int], y: tuple[int, int], d: int, n: int) -> tuple[int, int]:
    """The product of the residues x and y of O/nO, pairs (x0, x1) = x0 + x1*w,
    reduced mod n; w^2 = d*w - nrm."""
    x0, x1 = x
    y0, y1 = y
    return (x0 * y0 - x1 * y1 * _nrm(d)) % n, (x0 * y1 + x1 * y0 + x1 * y1 * d) % n


def residue_name(x: tuple[int, int], d: int, n: int) -> tuple[int, int]:
    """The name of x's coset in (O/nO)* modulo the image of the units: the
    least of its unit multiples."""
    return min(residue_mul(e, x, d, n) for e in unit_group(d))


def ray_residue(u: OIdeal, v: OIdeal, n: int) -> tuple[int, int] | None:
    """The generator of u * v^-1 reduced mod n, or None if that quotient is not
    principal.

    Both must be prime to n.  The quotient u * v^-1 is u * conj(v) scaled by
    1 / (v.scale * v.a); its rows go through `_ideal_basis` to h * (a, b).  If
    it is principal, its generator is mu = scale * (x + y*w) with (x, y) from
    `principal_generator`; writing scale = num / den (den prime to n), the
    residue is (x + y*w) * num * den^-1 mod n.  It is defined up to the image
    of the units, so `residue_name` names it.
    """
    if u.disc != v.disc:
        raise ValueError("ideals of different orders")
    if not u.prime_to(n) or not v.prime_to(n):
        raise ValueError(f"ideals must be prime to {n}")
    d = u.disc
    a, b, h = _ideal_basis(_product_rows(d, u.a, u.b, v.a, -v.b), d)
    found = principal_generator(d, a, b)
    if found is None:
        return None
    us, vs = u.scale, v.scale
    k = us.numerator * vs.denominator * h * pow(us.denominator * vs.numerator * v.a, -1, n)
    return found[0] * k % n, found[1] * k % n


def ray_class_equal(u: OIdeal, v: OIdeal, n: int) -> bool:
    """Whether u and v agree in the ray class group for the modulus n: u * v^-1
    is principal (`ray_residue`) and some unit times its residue is 1 mod n.
    For n = 1 this is plain principality."""
    found = ray_residue(u, v, n)
    d = u.disc
    return found is not None and any(residue_mul(e, found, d, n) == (1 % n, 0) for e in unit_group(d))


def _level_one_class(u: OIdeal) -> tuple[int, int, int]:
    """The reduced triple of u's form: u's class in Cl(O)."""
    return reduce_triple(u.a, u.b, (u.b * u.b - u.disc) // (4 * u.a))[:3]


def ray_keys(us: list[OIdeal], n: int) -> tuple[list[tuple | None], Callable[[tuple, tuple], tuple | None]]:
    """Ray-class keys of the ideals us (nonempty, of one order, all prime to
    n) and the law that multiplies them, read off the exact sequence
    1 -> (O/nO)*/units -> Cl_n -> Cl(O) -> 1.

    Write c(u) for u's level-1 class and R_c for the first of us in class c.
    key(u) = (c(u), the name of mu_u = ray_residue(u, R_c(u), n)), so two keys
    are equal exactly when `ray_class_equal` holds.  For each pair of level-1
    classes c, c' of us, the product R_c * R_c' (h^2 ideal products) lies in a
    class c'' with residue nu = ray_residue(R_c * R_c', R_c'', n); then
    key(u) * key(v) = (c'', name(mu_u * mu_v * nu)), which is key(w) exactly
    when w is ray-equal to u * v.  The name of a coset multiplies like any of
    its residues, so the law runs on keys.

    Returns (keys, times): keys[i] is the key of us[i], or None if its
    quotient by R_c has no generator; times(k, l) is the key of the product,
    or None if a factor is None, c'' has no ideal in us or nu is None.
    """
    d = us[0].disc
    first: dict[tuple[int, int, int], OIdeal] = {}
    classes = [_level_one_class(u) for u in us]
    for c, u in zip(classes, us):
        first.setdefault(c, u)
    keys = []
    for c, u in zip(classes, us):
        mu = ray_residue(u, first[c], n)
        keys.append(None if mu is None else (c, residue_name(mu, d, n)))
    law = {}
    for c, rc in first.items():
        for c2, rc2 in first.items():
            prod = rc * rc2
            c3 = _level_one_class(prod)
            nu = ray_residue(prod, first[c3], n) if c3 in first else None
            law[c, c2] = None if nu is None else (c3, nu)

    def times(k, l):
        entry = None if k is None or l is None else law[k[0], l[0]]
        if entry is None:
            return None
        return entry[0], residue_name(residue_mul(residue_mul(k[1], l[1], d, n), entry[1], d, n), d, n)

    return keys, times


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
