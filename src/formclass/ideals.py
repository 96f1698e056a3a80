"""Imaginary quadratic orders, their proper fractional ideals, and ray classes.

An order of discriminant D is Z[w] with w = (D + sqrt(D))/2.  Proper
fractional ideals are stored as a positive rational scale times an integral
pair basis (Z*a + Z*(-b + sqrt(D))/2).  A product, a principal ideal or an
extension to a larger order is read off integer generator rows written from
the basis entries (w^2 = D*w - (D^2 - D)/4), and their two-column Hermite
normal form comes from one Bezout pass over the rows.  The module also decides
ray-class equality: two ideals are identified when their quotient is principal
with a generator congruent to 1 modulo N (up to units), and a bounded
brute-force search provides an independent oracle for that criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._arith import egcd, factorize, kronecker
from .forms import QuadForm, require_discriminant, sl2_equivalent


@lru_cache(maxsize=None)
def fundamental_part(d: int) -> tuple[int, int]:
    """Split d into (fundamental discriminant, conductor): d = conductor^2 * d0."""
    require_discriminant(d)

    def squarefree(m: int) -> bool:
        m = abs(m)
        f = 2
        while f * f <= m:
            if m % (f * f) == 0:
                return False
            f += 1
        return True

    for ell in range(math.isqrt(-d), 0, -1):
        if d % (ell * ell):
            continue
        d0 = d // (ell * ell)
        if d0 % 4 == 1 and squarefree(d0):
            return d0, ell
        if d0 % 4 == 0 and d0 // 4 % 4 in (2, 3) and squarefree(d0 // 4):
            return d0, ell
    raise AssertionError(f"no fundamental part found for {d}")  # unreachable for valid d


@dataclass(frozen=True)
class QuadOrder:
    """The order of discriminant disc, generated by w = (disc + sqrt(disc))/2."""

    disc: int
    field_disc: int
    conductor: int

    @staticmethod
    def from_disc(d: int) -> "QuadOrder":
        d0, ell = fundamental_part(d)
        return QuadOrder(d, d0, ell)


def _nrm(d: int) -> int:
    return (d * d - d) // 4


@dataclass(frozen=True)
class ElemO:
    """x + y*w in the order of discriminant disc, with w = (disc + sqrt(disc))/2."""

    x: int
    y: int
    disc: int

    def __post_init__(self) -> None:
        require_discriminant(self.disc)

    @staticmethod
    def one(d: int) -> "ElemO":
        return ElemO(1, 0, d)

    @staticmethod
    def omega(d: int) -> "ElemO":
        return ElemO(0, 1, d)

    def _check(self, other: "ElemO") -> None:
        if self.disc != other.disc:
            raise ValueError("elements of different orders")

    def __add__(self, other: "ElemO") -> "ElemO":
        self._check(other)
        return ElemO(self.x + other.x, self.y + other.y, self.disc)

    def __neg__(self) -> "ElemO":
        return ElemO(-self.x, -self.y, self.disc)

    def __mul__(self, other: "ElemO") -> "ElemO":
        # w^2 = disc*w - (disc^2 - disc)/4
        self._check(other)
        d = self.disc
        return ElemO(
            self.x * other.x - self.y * other.y * _nrm(d),
            self.x * other.y + self.y * other.x + self.y * other.y * d,
            d,
        )

    def conj(self) -> "ElemO":
        """The image under sqrt(disc) -> -sqrt(disc); conj(w) = disc - w."""
        return ElemO(self.x + self.y * self.disc, -self.y, self.disc)

    def norm(self) -> int:
        """self * conj(self); positive unless self = 0."""
        return self.x * self.x + self.x * self.y * self.disc + self.y * self.y * _nrm(self.disc)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


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


@dataclass(frozen=True)
class OIdeal:
    """scale * (Z*a + Z*(-b + sqrt(disc))/2): a proper fractional ideal.

    Invariants: scale > 0, a > 0, 0 <= b < 2a, b^2 = disc mod 4a, and the
    associated form (a, b, (b^2-disc)/(4a)) is primitive (that primitivity is
    exactly what makes the multiplier ring the full order).
    """

    disc: int
    scale: Fraction
    a: int
    b: int

    def __post_init__(self) -> None:
        require_discriminant(self.disc)
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.a <= 0 or not 0 <= self.b < 2 * self.a:
            raise ValueError(f"need a > 0 and 0 <= b < 2a, got a={self.a}, b={self.b}")
        num = self.b * self.b - self.disc
        if num % (4 * self.a):
            raise ValueError(f"b^2 = disc (mod 4a) fails for a={self.a}, b={self.b}, disc={self.disc}")
        if math.gcd(self.a, self.b, num // (4 * self.a)) != 1:
            raise ValueError(f"(a, b) = ({self.a}, {self.b}) does not define a proper ideal")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_rows(rows: list[tuple[int, int]], scale: Fraction, d: int) -> "OIdeal":
        """Build from generating rows (x, y) = x + y*w, absorbing the HNF content into scale."""
        e, g, h, = _hnf_pair(rows)
        if e % h or g % h:
            raise ValueError("module is not an ideal of the order")
        a = e // h
        # g + h*w = h*(g/h + (d + sqrt(d))/2); match against (-b + sqrt(d))/2
        b = (-(2 * (g // h) + d)) % (2 * a)
        return OIdeal(d, scale * h, a, b)

    def basis_rows(self) -> list[tuple[int, int]]:
        """Integral basis of the unscaled part in (1, w) coordinates."""
        # (-b + sqrt(d))/2 = (-b - d)/2 + w
        return [(self.a, 0), ((-self.b - self.disc) // 2, 1)]

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "OIdeal") -> "OIdeal":
        if self.disc != other.disc:
            raise ValueError("ideals of different orders")
        d = self.disc
        a1, a2 = self.a, other.a
        x1, x2 = (-self.b - d) // 2, (-other.b - d) // 2
        # products of the bases (a, 0), (x, 1), using w^2 = d*w - nrm
        rows = [(a1 * a2, 0), (a1 * x2, a1), (a2 * x1, a2), (x1 * x2 - _nrm(d), x1 + x2 + d)]
        return OIdeal._from_rows(rows, self.scale * other.scale, d)

    def conjugate(self) -> "OIdeal":
        return OIdeal(self.disc, self.scale, self.a, (-self.b) % (2 * self.a))

    def inverse(self) -> "OIdeal":
        """u * u.inverse() == unit_ideal exactly, via u * conj(u) = norm(u) * O."""
        return OIdeal(self.disc, 1 / (self.scale * self.a), self.a, (-self.b) % (2 * self.a))

    def norm(self) -> Fraction:
        return self.scale * self.scale * self.a

    def prime_to(self, n: int) -> bool:
        q = self.scale
        return math.gcd(self.a * q.numerator * q.denominator, n) == 1

    # -- conversions -------------------------------------------------------

    def associated_form(self) -> QuadForm:
        return QuadForm(self.a, self.b, (self.b * self.b - self.disc) // (4 * self.a))

    def to_json(self) -> list[int]:
        """[scale numerator, scale denominator, a, b]."""
        return [self.scale.numerator, self.scale.denominator, self.a, self.b]


def unit_ideal(d: int) -> OIdeal:
    """The order itself: Z + Z*w = Z*1 + Z*(-b0 + sqrt(d))/2 with b0 = d mod 2."""
    b0 = d % 2
    return OIdeal(d, Fraction(1), 1, b0)


def form_to_ideal(f: QuadForm) -> OIdeal:
    """The fractional ideal Z*root(f) + Z = (1/a) * (Z*a + Z*(-b + sqrt(D))/2)."""
    return OIdeal(f.discriminant(), Fraction(1, f.a), f.a, f.b % (2 * f.a))


def principal_ideal(lam: ElemO, scale: Fraction = Fraction(1)) -> OIdeal:
    """The ideal (scale * lam) * O."""
    if lam.is_zero():
        raise ValueError("zero is not a generator")
    x, y, d = lam.x, lam.y, lam.disc
    # lam and lam*w = -y*nrm + (x + y*d)*w
    return OIdeal._from_rows([(x, y), (-y * _nrm(d), x + y * d)], scale, d)


# -- residues and units -----------------------------------------------------


@lru_cache(maxsize=None)
def residue_units(d: int, n: int) -> tuple[int, tuple[ElemO, ...]]:
    """The unit group of O/nO by exhaustive enumeration of all n^2 residues.

    A residue is invertible exactly when its norm is prime to n (multiply by
    the conjugate to invert).
    """
    require_discriminant(d)
    if n < 1:
        raise ValueError("modulus must be >= 1")
    elems = tuple(
        ElemO(x, y, d)
        for x in range(n)
        for y in range(n)
        if math.gcd(ElemO(x, y, d).norm(), n) == 1
    )
    return len(elems), elems


def unit_count(d: int, n: int) -> int:
    """|(O/nO)*| in closed form: n^2 * prod over p | n of (1 - 1/p)(1 - (d/p)/p).

    The same number as `residue_units(d, n)[0]` without its n^2 loop.
    """
    count = n * n
    for p in factorize(n):
        count = count // (p * p) * (p - 1) * (p - kronecker(d, p))
    return count


def unit_group(d: int) -> tuple[ElemO, ...]:
    """The units of the order: +-1, plus the extra units for disc -4 and -3."""
    require_discriminant(d)
    one = ElemO.one(d)
    units = [one, -one]
    if d == -4:
        i = ElemO(2, 1, d)  # 2 + w = sqrt(-1)
        units += [i, -i]
    if d == -3:
        z = ElemO(2, 1, d)  # 2 + w, a primitive sixth root of unity
        units += [z, -z, ElemO(1, 1, d), -ElemO(1, 1, d)]
    for u in units:
        if u.norm() != 1:
            raise RuntimeError(f"unit {u} of discriminant {d} has norm {u.norm()}")
    return tuple(units)


@lru_cache(maxsize=None)
def _unit_entries(d: int) -> tuple[tuple[int, int], ...]:
    """The units of the order as integer pairs (x, y) = x + y*w."""
    return tuple((u.x, u.y) for u in unit_group(d))


@lru_cache(maxsize=None)
def unit_image_size(d: int, n: int) -> int:
    """Size of the image of the unit group in (O/nO)*."""
    reduced = {(u.x % n, u.y % n) for u in unit_group(d)}
    return len(reduced)


# -- principality and ray classes -------------------------------------------


def principal_generator(u: OIdeal) -> tuple[Fraction, ElemO] | None:
    """(scale, lam) with u = scale * lam * O, or None if u is not principal.

    The associated form is reduced against the principal form; the witness
    matrix transports the basis, giving lam = a*p - r*(-b + sqrt(D))/2 for
    witness [[p, q], [r, s]].  Exactness is checked by re-expanding lam * O;
    RuntimeError if it fails.
    """
    d = u.disc
    w = sl2_equivalent(u.associated_form(), QuadForm.principal(d))
    if w is None:
        return None
    lam = ElemO(u.a * w.p + w.r * (u.b + d) // 2, -w.r, d)
    if principal_ideal(lam) != OIdeal(d, Fraction(1), u.a, u.b):
        raise RuntimeError(f"generator {lam} does not re-expand to the ideal {u}")
    return u.scale, lam


def _residue_inverse(k: int, n: int) -> int:
    g, inv, _ = egcd(k % n, n)
    if g != 1:
        raise ValueError(f"{k} is not invertible mod {n}")
    return inv % n


def ray_class_equal(u: OIdeal, v: OIdeal, n: int) -> bool:
    """Whether u and v agree in the ray class group for the modulus n.

    Both must be prime to n.  The quotient w = u * v^-1 is principal with
    generator mu = scale * lam iff the classes can agree at all; writing
    mu = alpha / den with alpha in the order and den a positive integer (both
    automatically prime to n), the classes agree exactly when some unit times
    alpha * den^-1 is congruent to 1 mod n.  For n = 1 this reduces to plain
    principality.
    """
    if u.disc != v.disc:
        raise ValueError("ideals of different orders")
    if not u.prime_to(n) or not v.prime_to(n):
        raise ValueError(f"ideals must be prime to {n}")
    w = u * v.inverse()
    found = principal_generator(w)
    if found is None:
        return False
    if n == 1:
        return True
    scale, lam = found
    d = w.disc
    k = scale.numerator * _residue_inverse(scale.denominator, n)
    bx, by = lam.x * k % n, lam.y * k % n
    nrm = _nrm(d)
    return any(
        (ux * bx - uy * by * nrm) % n == 1 and (ux * by + uy * bx + uy * by * d) % n == 0
        for ux, uy in _unit_entries(d)
    )


def ray_class_equal_bruteforce(u: OIdeal, v: OIdeal, n: int, bound: int = 6) -> bool:
    """Independent oracle: search nu, mu = 1 (mod nO) with nu*u == mu*v.

    Exhausts nu = 1 + n*(x + y*w) for |x|, |y| <= bound on both sides and
    intersects the two sets of products.  A hit proves equality; no hit within
    the bound proves nothing (the main predicate is the decision procedure).
    """
    if not u.prime_to(n) or not v.prime_to(n):
        raise ValueError(f"ideals must be prime to {n}")
    d = u.disc

    def scaled_products(w: OIdeal) -> set[tuple]:
        out = set()
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                nu = ElemO(1 + n * x, n * y, d)
                if nu.is_zero():
                    continue
                prod = principal_ideal(nu) * w
                out.add((prod.scale, prod.a, prod.b))
        return out

    return bool(scaled_products(u) & scaled_products(v))


@lru_cache(maxsize=None)
def ray_class_count(d: int, n: int) -> int:
    """h(O) * |(O/nO)*| / |image of units|, all three factors computed exactly."""
    from .forms import reduced_forms

    h = len(reduced_forms(d))
    order, _ = residue_units(d, n)
    return h * order // unit_image_size(d, n)


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
