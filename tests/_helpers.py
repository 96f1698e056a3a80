"""What only tests use: word matrices, form values, reducedness, exact
quadratic irrationals with the Moebius action on them, the root of a signed
form, points by coefficients or by value, the class key of a point (its
form's key with its sign), order elements `ElemO` and their
ring operations, principal ideals, ideal bases, associated forms, conjugates, norms
and the unit ideal, a brute-force ray-class oracle, matrix inverses, and the
reference versions of reduction, plain equivalence, unipotent coset
representatives, class keys, the HNF, principality, ray-equality and
composition kernels (with the generic CRT), grouplaw's pairwise ideal passes,
the signed class index and signed level map, the ideal-to-class scan, the
fundamental-part scan, the closed-form prime-power kernel, the per-term sign
check of two matrix sequences and the object-based tower correspondence
report; and a reset of the package's caches."""

import math
import random
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from formclass import tower
from formclass._arith import egcd
from formclass.classgroup import CompositionBoundError, compose, same_class
from formclass.congruence import CongKind, class_index, class_key, class_keys, in_gamma, lift_matrix
from formclass.congruence import sl2_residues
from formclass.forms import (
    QuadForm,
    SignedForm,
    UnimodMatrix,
    automorphs,
    reduced_forms,
    require_discriminant,
    sl2_equivalent,
)
from formclass.ideals import OIdeal, form_to_ideal, ray_class_equal, unit_group
from formclass.suites import check
from formclass.tower import MatrixSeq

SWAP = UnimodMatrix(0, -1, 1, 0)


def clear_package_caches() -> None:
    """Empty every cache of the package, so that earlier calls cannot hide one."""
    for name, module in list(sys.modules.items()):
        for obj in vars(module).values() if name.startswith("formclass.") else ():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("formclass"):
                obj.cache_clear()


def translation(m: int) -> UnimodMatrix:
    """[[1, m], [0, 1]]; acts on forms by b -> b + 2am."""
    return UnimodMatrix(1, m, 0, 1)


def inverse(g: UnimodMatrix) -> UnimodMatrix:
    """The inverse [[s, -q], [-r, p]] of g = [[p, q], [r, s]]."""
    return UnimodMatrix(g.s, -g.q, -g.r, g.p)


def reduce_form_reference(f: QuadForm) -> tuple[QuadForm, UnimodMatrix]:
    """`forms.reduce_form` as it was before its integer kernel `reduce_triple`:
    the same Gauss loop, its witness checked through the validated objects."""
    a, b, c = f.a, f.b, f.c
    p, q, r, s = 1, 0, 0, 1
    while True:
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            p, q, r, s = q, -p, s, -r
        elif not (-a < b <= a):
            t = (a - b) // (2 * a)
            b, c = b + 2 * a * t, (a * t + b) * t + c
            q, s = q + p * t, s + r * t
        else:
            break
    reduced, witness = QuadForm(a, b, c), UnimodMatrix(p, q, r, s)
    if f.transform(witness) != reduced:
        raise RuntimeError(f"reduction witness {tuple(witness)} does not take {tuple(f)} to {tuple(reduced)}")
    return reduced, witness


def sl2_equivalent_reference(f: QuadForm, g: QuadForm) -> UnimodMatrix | None:
    """`forms.sl2_equivalent` as it was before it reduced on ints: w_f * w_g^-1
    from `reduce_form_reference` and matrix objects."""
    if f.discriminant() != g.discriminant():
        raise ValueError(f"discriminant mismatch: {f.discriminant()} vs {g.discriminant()}")
    rf, wf = reduce_form_reference(f)
    rg, wg = reduce_form_reference(g)
    if rf != rg:
        return None
    w = wf * inverse(wg)
    if f.transform(w) != g:
        raise RuntimeError(f"witness {tuple(w)} does not take {tuple(f)} to {tuple(g)}")
    return w


def seeded_forms() -> list[QuadForm]:
    """5400 forms over D in (-3, -4, -15, -23, -56, -1003): reduced forms moved
    by random words of translations and swaps, many with coefficients above
    10**12."""
    rng = random.Random(4104)
    out = []
    for d in (-3, -4, -15, -23, -56, -1003):
        bases = reduced_forms(d)
        for _ in range(900):
            g = UnimodMatrix(1, 0, 0, 1)
            for _ in range(rng.randint(0, 6)):
                g = g * translation(rng.randint(-10**rng.randint(0, 4), 10**rng.randint(0, 4))) * SWAP
            out.append(rng.choice(bases).transform(g))
    return out


def value(f: QuadForm, x: int, y: int) -> int:
    return f.a * x * x + f.b * x * y + f.c * y * y


def is_reduced(f: QuadForm) -> bool:
    """|b| <= a <= c, with b >= 0 when |b| = a or a = c."""
    a, b, c = f
    return abs(b) <= a <= c and not ((abs(b) == a or a == c) and b < 0)


@dataclass(frozen=True, eq=False)
class QuadIrrational:
    """Exact quadratic irrational (num + rad_coeff*sqrt(disc)) / den.

    disc < 0, den > 0 and rad_coeff is +1 (upper half-plane) or -1 (lower).
    The representation keeps the invariant den | num^2 - disc, which makes the
    Moebius action by integer matrices exact and closed (no rationals needed).
    Equality compares values, not representations: sqrt(-4)/2 equals sqrt(-1).
    """

    num: int
    rad_coeff: int
    disc: int
    den: int

    def __post_init__(self) -> None:
        if self.rad_coeff not in (1, -1):
            raise ValueError(f"rad_coeff must be +-1, got {self.rad_coeff}")
        require_discriminant(self.disc)
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if (self.num * self.num - self.disc) % self.den != 0:
            raise ValueError(f"den {self.den} does not divide num^2 - disc = {self.num * self.num - self.disc}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadIrrational):
            return NotImplemented
        return (
            self.rad_coeff == other.rad_coeff
            and self.num * other.den == other.num * self.den
            and self.disc * other.den * other.den == other.disc * self.den * self.den
        )

    def __hash__(self) -> int:
        return hash((
            Fraction(self.num, self.den),
            self.rad_coeff,
            Fraction(self.disc, self.den * self.den),
        ))

    def in_upper_half_plane(self) -> bool:
        return self.rad_coeff == 1


def root(f: SignedForm) -> QuadIrrational:
    """sign=+1: the root (-b + sqrt(D))/(2a) in the upper half-plane;
    sign=-1: its complex conjugate in the lower half-plane."""
    return QuadIrrational(-f.form.b, f.sign, f.discriminant(), 2 * f.form.a)


def mobius(t: QuadIrrational, g: UnimodMatrix) -> QuadIrrational:
    """The fractional linear image (p*t + q)/(r*t + s), exactly.

    With t = (m + e*sqrt(D))/d, A = p*m + q*d and C = r*m + s*d:
        g(t) = ((A*C - p*r*D)/d + e*sqrt(D)) / ((C^2 - r^2*D)/d),
    and both divisions are exact because d | m^2 - D.
    """
    m, e, big_d, d = t.num, t.rad_coeff, t.disc, t.den
    a_top = g.p * m + g.q * d
    c_bot = g.r * m + g.s * d
    new_den = (c_bot * c_bot - g.r * g.r * big_d) // d
    return QuadIrrational((a_top * c_bot - g.p * g.r * big_d) // d, e, big_d, new_den)


def point(a: int, b: int, c: int, sign: int = 1) -> SignedForm:
    """The CM point at the root of a*x^2 + b*x + c in the half-plane of sign."""
    return SignedForm(QuadForm(a, b, c), sign)


def cm_from_value(t: QuadIrrational) -> SignedForm:
    """The CM point at t = (m + e*sqrt(D))/d: the root of the primitive part of
    (d^2, -2*m*d, m^2 - D), whatever presentation t was given in."""
    m, d, big_d = t.num, t.den, t.disc
    g = math.gcd(d * d, 2 * m * d, m * m - big_d)
    p = point(d * d // g, -2 * m * d // g, (m * m - big_d) // g, 1 if t.in_upper_half_plane() else -1)
    if root(p) != t:
        raise RuntimeError(f"the point of form {p.to_json()} does not sit at the given value")
    return p


def upper_unipotent_coset_reps_reference(n: int) -> tuple[UnimodMatrix, ...]:
    """`congruence.coset_reps(n, UPPER_UNIPOTENT)` as it was before it keyed
    orbits by their first column: the least of all n unipotent shifts of every
    residue, O(n^4)."""
    residues = sl2_residues(n)
    if n == 1:
        return tuple(lift_matrix(*t, n) for t in residues)
    chosen = set()
    for p, q, r, s in residues:
        orbit_min = min(((p, (q + k * p) % n, r, (s + k * r) % n) for k in range(n)))
        chosen.add(orbit_min)
    return tuple(lift_matrix(*t, n) for t in sorted(chosen))


def key_from_witness_reference(triple: tuple, w: tuple, n: int, kind: CongKind) -> tuple:
    """`congruence.key_from_witness` as it was before its Aut(R) = {I, -I}
    fast path: the least name of w*alpha over every automorph alpha of R."""
    p, q, r, s = w
    auts = [tuple(alpha) for alpha in automorphs(QuadForm(*triple))]
    if kind is CongKind.FULL_LEVEL:
        names = [((p * x + q * z) % n, (p * y + q * u) % n, (r * x + s * z) % n, (r * y + s * u) % n)
                 for x, y, z, u in auts]
    else:
        names = [((r * x + s * z) % n, (r * y + s * u) % n) for x, y, z, u in auts]
    return (triple, min(names))


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

    def __neg__(self) -> "ElemO":
        return ElemO(-self.x, -self.y, self.disc)

    def norm(self) -> int:
        """self times its conjugate under sqrt(disc) -> -sqrt(disc); positive unless self = 0."""
        return self.x * self.x + self.x * self.y * self.disc + self.y * self.y * ((self.disc * self.disc - self.disc) // 4)


def omega(d: int) -> ElemO:
    return ElemO(0, 1, d)


def elem_add(x: ElemO, y: ElemO) -> ElemO:
    return ElemO(x.x + y.x, x.y + y.y, x.disc)


def elem_mul(x: ElemO, y: ElemO) -> ElemO:
    """The product in the order of x, with w^2 = d*w - (d^2 - d)/4."""
    d = x.disc
    nrm = (d * d - d) // 4
    return ElemO(x.x * y.x - x.y * y.y * nrm, x.x * y.y + x.y * y.x + x.y * y.y * d, d)


def elem_conj(x: ElemO) -> ElemO:
    """The image under sqrt(d) -> -sqrt(d); conj(w) = d - w."""
    return ElemO(x.x + x.y * x.disc, -x.y, x.disc)


def basis_rows(u: OIdeal) -> list[tuple[int, int]]:
    """Integral basis of the unscaled part in (1, w) coordinates: (-b + sqrt(d))/2 = (-b - d)/2 + w."""
    return [(u.a, 0), ((-u.b - u.disc) // 2, 1)]


def conjugate_ideal(u: OIdeal) -> OIdeal:
    return OIdeal(u.disc, u.scale, u.a, (-u.b) % (2 * u.a))


def associated_form(u: OIdeal) -> QuadForm:
    return QuadForm(u.a, u.b, (u.b * u.b - u.disc) // (4 * u.a))


def principal_ideal(lam: ElemO, scale: Fraction = Fraction(1)) -> OIdeal:
    """The ideal (scale * lam) * O."""
    if (lam.x, lam.y) == (0, 0):
        raise ValueError("zero is not a generator")
    x, y, d = lam.x, lam.y, lam.disc
    # lam and lam*w = -y*nrm + (x + y*d)*w
    return OIdeal._from_rows([(x, y), (-y * ((d * d - d) // 4), x + y * d)], scale, d)


def ideal_norm(u: OIdeal) -> Fraction:
    return u.scale * u.scale * u.a


def unit_ideal(d: int) -> OIdeal:
    """The order itself: Z + Z*w = Z*1 + Z*(-b0 + sqrt(d))/2 with b0 = d mod 2."""
    return OIdeal(d, Fraction(1), 1, d % 2)


def ray_class_equal_bruteforce(u: OIdeal, v: OIdeal, n: int, bound: int = 6) -> bool:
    """Independent oracle: search nu, mu = 1 (mod nO) with nu*u == mu*v.

    Exhausts nu = 1 + n*(x + y*w) for |x|, |y| <= bound on both sides and
    intersects the two sets of products.  A hit proves equality; no hit within
    the bound proves nothing.
    """
    if not u.prime_to(n) or not v.prime_to(n):
        raise ValueError(f"ideals must be prime to {n}")

    def scaled_products(w: OIdeal) -> set[tuple]:
        out = set()
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                nu = ElemO(1 + n * x, n * y, u.disc)
                if (nu.x, nu.y) != (0, 0):
                    prod = principal_ideal(nu) * w
                    out.add((prod.scale, prod.a, prod.b))
        return out

    return bool(scaled_products(u) & scaled_products(v))


def hnf_pair_reference(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """The sort-and-subtract Hermite form that `ideals._hnf_pair` replaced.

    Returns (e, g, h) with the module equal to Z*e + Z*(g + h*w), e, h > 0 and
    0 <= g < e.
    """
    rows = [r for r in rows if r != (0, 0)]
    if not rows:
        raise ValueError("zero module")
    # column 2 first: reduce to a single row with minimal positive v
    work = list(rows)
    while True:
        nz = [r for r in work if r[1] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[1]))
        u0, v0 = nz[0]
        reduced = [nz[0]]
        for u, v in nz[1:]:
            k = v // v0
            nu, nv = u - k * u0, v - k * v0
            if (nu, nv) != (0, 0):
                reduced.append((nu, nv))
        work = [r for r in work if r[1] == 0] + reduced
    second = next((r for r in work if r[1] != 0), None)
    if second is None:
        raise ValueError("module has rank < 2")
    g, h = second
    if h < 0:
        g, h = -g, -h
    e = 0
    for u, v in work:
        if v == 0:
            e = math.gcd(e, u)
    if e == 0:
        raise ValueError("module has rank < 2")
    g %= e
    return e, g, h


def principal_generator_reference(u: OIdeal):
    """(scale, lam) with u = scale * lam * O, or None: `ideals.principal_generator`
    as it was on objects, through `sl2_equivalent` against the principal form
    and a re-expansion compared as an `OIdeal`."""
    d = u.disc
    w = sl2_equivalent(associated_form(u), QuadForm.principal(d))
    if w is None:
        return None
    lam = ElemO(u.a * w.p + w.r * (u.b + d) // 2, -w.r, d)
    if principal_ideal(lam) != OIdeal(d, Fraction(1), u.a, u.b):
        raise RuntimeError(f"generator {lam} does not re-expand to the ideal {u}")
    return u.scale, lam


def ray_class_equal_objects_reference(u: OIdeal, v: OIdeal, n: int) -> bool:
    """`ideals.ray_class_equal` as it was on objects: the quotient u * v^-1 as an
    `OIdeal`, its generator from `principal_generator_reference`, then the
    unit test on the integer entries of the units."""
    if u.disc != v.disc:
        raise ValueError("ideals of different orders")
    if not u.prime_to(n) or not v.prime_to(n):
        raise ValueError(f"ideals must be prime to {n}")
    found = principal_generator_reference(u * v.inverse())
    if found is None:
        return False
    if n == 1:
        return True
    scale, lam = found
    d = u.disc
    k = scale.numerator * pow(scale.denominator, -1, n)
    bx, by = lam.x * k % n, lam.y * k % n
    nrm = (d * d - d) // 4
    return any(
        (ux * bx - uy * by * nrm) % n == 1 and (ux * by + uy * bx + uy * by * d) % n == 0
        for ux, uy in unit_group(d)
    )


def ray_class_equal_reference(u, v, n: int) -> bool:
    """`ideals.ray_class_equal` with its unit test as a loop over the ElemO
    products of the units: some unit times alpha * den^-1 is 1 mod n."""
    found = principal_generator_reference(u * v.inverse())
    if found is None:
        return False
    if n == 1:
        return True
    scale, lam = found
    k = scale.numerator * pow(scale.denominator, -1, n)
    base = ElemO(lam.x * k % n, lam.y * k % n, u.disc)
    for unit in unit_group(u.disc):
        prod = elem_mul(ElemO(*unit, u.disc), base)
        if prod.x % n == 1 and prod.y % n == 0:
            return True
    return False


def column_shells_reference(n: int, bound: int):
    """Candidate first columns (p, r) with p = 1, r = 0 mod n, nearest first."""
    for shell in range(bound + 1):
        for kp in range(-shell, shell + 1):
            for kr in range(-shell, shell + 1):
                if max(abs(kp), abs(kr)) == shell:
                    yield 1 + kp * n, kr * n


def crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Solve x = r1 (mod m1), x = r2 (mod m2): the generic CRT that
    `classgroup.compose` used before its closed form.

    Returns (x, lcm(m1, m2)) with 0 <= x < lcm.  Raises ValueError if the
    congruences are incompatible.
    """
    g, u, _ = egcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError(f"incompatible congruences mod {m1}, {m2}")
    lcm = m1 // g * m2
    # r1 + m1 * t = r2 (mod m2)  =>  t = u * (r2 - r1) / g  (mod m2 / g)
    t = (u * ((r2 - r1) // g)) % (m2 // g)
    return (r1 + m1 * t) % lcm, lcm


def compose_reference(x: QuadForm, y: QuadForm, n: int, bound: int = 10, rng=None) -> QuadForm:
    """`classgroup.compose` as it was before its integer kernel: one egcd per
    candidate column and cell, y moved by a validated `UnimodMatrix`."""
    d = x.discriminant()
    if y.discriminant() != d:
        raise ValueError("forms of different discriminants")
    ax = x.a

    hits: list[tuple[int, int]] = []
    for p, r in column_shells_reference(n, bound):
        g, u, v = egcd(p, r)
        if g != 1:
            continue
        if math.gcd(ax, value(y, p, r)) != 1:
            continue
        hits.append((p, r))
        if rng is None or len(hits) >= 4:
            break
    if not hits:
        raise CompositionBoundError(
            f"no concordant column for {tuple(x)} * {tuple(y)} at level {n} within bound {bound}"
        )
    p, r = hits[0] if rng is None else rng.choice(hits)

    g, u, v = egcd(p, r)
    gamma = UnimodMatrix(p, -v, r, u)
    moved = y.transform(gamma)
    big_b, modulus = crt(x.b, 2 * ax, moved.b, 2 * moved.a)
    m = ax * moved.a
    if modulus != 2 * m:
        raise RuntimeError(f"CRT modulus {modulus} is not 2*{m}: the moved pair is not concordant")
    if big_b > m:
        big_b -= 2 * m
    return QuadForm(m, big_b, (big_b * big_b - d) // (4 * m))


def grouplaw_ideal_passes_reference(table, n: int, rng) -> list[dict]:
    """`suites.grouplaw`'s `dual-oracle-pairs` and `compose-matches-ideal-product`
    checks as they were, pairwise on ideals: `ray_class_equal` on all n^2 pairs
    of class ideals beside `same_class`, and per Cayley cell the ideal of the
    un-reduced composed z against the product of the factors' ideals.  Draws
    from rng exactly as the suite does."""
    ideals = [form_to_ideal(x) for x in table.classes]
    ok_dual = True
    for i, x in enumerate(table.classes):
        for j, y in enumerate(table.classes):
            matrix_route = same_class(x, y, n)
            ideal_route = ray_class_equal(ideals[i], ideals[j], n)
            if matrix_route != (i == j) or ideal_route != (i == j):
                ok_dual = False
    ok_cells = True
    for i, x in enumerate(table.classes):
        for j, y in enumerate(table.classes):
            z = compose(x, y, n, rng=rng)
            prod = ideals[i] * ideals[j]
            if not ray_class_equal(form_to_ideal(z), prod, n) or table.locate_class(z) != table.mul(i, j):
                ok_cells = False
    return [check("dual-oracle-pairs", ok_dual, pairs=table.order**2),
            check("compose-matches-ideal-product", ok_cells, cells=table.order**2)]


def point_key(f: SignedForm, n: int, kind: CongKind) -> tuple:
    """The class of a point: the class key of its form with its sign."""
    return class_key(f.form, n, kind), f.sign


class SignedClassIndexReference(namedtuple("SignedClassIndexReference", "level kind reps by_key")):
    """A class index of points, as `congruence.class_index` was before the
    sign left it: `by_key` maps each `point_key` to the index of its point in
    `reps`."""

    def locate(self, f: SignedForm) -> int:
        i = self.by_key.get(point_key(f, self.level, self.kind))
        if i is None:
            raise LookupError(f"{f.to_json()} is in no enumerated level-{self.level} point class")
        return i


def signed_class_index_reference(d: int, n: int, kind: CongKind) -> SignedClassIndexReference:
    """The signed index built before the sign became a label: the classes of
    `class_index` with the sign +1, then the same with the sign -1."""
    idx = class_index(d, n, kind)
    keys = [(key, sign) for sign in (1, -1) for key in idx.by_key]  # in index order
    reps = tuple(SignedForm(rep, sign) for sign in (1, -1) for rep in idx.reps)
    return SignedClassIndexReference(n, kind, reps, {key: i for i, key in enumerate(keys)})


def signed_surjection_reference(d: int, m: int, n: int, src_kind: CongKind, dst_kind: CongKind) -> tuple[int, ...]:
    """`classgroup.class_surjection` on the signed indexes, as `suites.levelmaps`
    read it before: each signed level-m representative located among the
    signed level-n classes."""
    src = signed_class_index_reference(d, m, src_kind)
    dst = signed_class_index_reference(d, n, dst_kind)
    return tuple(dst.locate(rep) for rep in src.reps)


def class_of_ideal_scan_reference(u: OIdeal, d: int, n: int) -> QuadForm:
    """`classgroup.class_of_ideal` as it was: the first enumerated class whose
    ideal is ray-equal to u, found by trying every class in turn."""
    for rep in class_index(d, n, CongKind.UPPER_UNIPOTENT).reps:
        if ray_class_equal(u, form_to_ideal(rep), n):
            return rep
    raise LookupError(f"no class at disc {d}, level {n} matches ideal {u.to_json()}")


def fundamental_part_reference(d: int) -> tuple[int, int]:
    """`ideals.fundamental_part` as it was before it read the fundamental
    discriminant off `factorize`: the largest ell with d / ell^2 a fundamental
    discriminant, by a descending scan and trial-division squarefree tests."""
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
    raise AssertionError(f"no fundamental part found for {d}")


def kernel_reps_reference(p: int, n: int) -> tuple[tuple[int, int, int, int], ...]:
    """`tower.kernel_reps` in closed form, as it was before it filtered the
    residues of SL2(Z/p^n): a = 1 + p*al, b = p*be, c = p*ga range freely mod
    p^(n-1) and d = (1 + p^2*be*ga) * a^-1 mod p^n solves the determinant,
    a being prime to p at a prime p or not."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    m, span = p**n, p ** (n - 1)
    out = []
    for al in range(span):
        a = 1 + p * al
        _, inv_a, _ = egcd(a, m)
        for be in range(span):
            for ga in range(span):
                out.append((a, p * be, p * ga, ((1 + p * p * be * ga) * inv_a) % m))
    return tuple(out)


def seq_conditions_hold_reference(s: MatrixSeq, t: MatrixSeq) -> bool:
    """`tower.seq_conditions_hold` with a sign chosen per term: every k-th term
    of s is +- the k-th term of t mod p^k, each sign on its own."""
    if s.prime != t.prime:
        raise ValueError("sequences at different primes")
    if len(s.mats) != len(t.mats):
        raise ValueError("sequences of different lengths")
    p = s.prime
    return all(
        any(all((x - e * y) % p**k == 0 for x, y in zip(g, h)) for e in (1, -1))
        for k, (g, h) in enumerate(zip(s.mats, t.mats), start=1)
    )


def correspondence_report_objects_reference(p: int, d: int, n: int, check_lift: bool = False) -> dict:
    """`tower.correspondence_report` as it ran on validated objects: each pair
    moves the base point's `SignedForm` by the kernel class's `UnimodMatrix`
    lift and keys the image by its `point_key` in one dict, over a codomain of
    signed keys.  The lifts, base points, kernel and checks are the module's
    own, looked up at call time."""
    base = tower.base_point_set(p, d)
    kernel = tower.kernel_reps(p, n)
    level = p**n
    unsigned = class_keys(d, level, CongKind.FULL_LEVEL)
    codomain = {(key, sign) for key in unsigned for sign in (1, -1)}
    first: dict[tuple, tuple[int, int]] = {}
    witnesses = []
    lifts = [tower.lift_matrix(*g, level) for g in kernel]
    for ri, r in enumerate(base):
        for gi, g in enumerate(kernel):
            if not in_gamma(lifts[gi], p, CongKind.FULL_LEVEL):
                raise ValueError("matrix is not trivial mod p")
            img = r.transform(lifts[gi])
            key = point_key(img, level, CongKind.FULL_LEVEL)
            if check_lift:
                tower._check_lift(r, *tower.reduce_form(r.form), g, level, key[0])
            seen = first.setdefault(key, (ri, gi))
            if seen != (ri, gi):
                witnesses.append({"first": list(seen), "second": [ri, gi]})
        if check_lift:
            tower._check_located(img, key[0], unsigned, level)
    return {
        "p": p,
        "D": d,
        "n": n,
        "base_size": len(base),
        "kernel_size": len(kernel),
        "codomain_size": len(codomain),
        "pairs": len(base) * len(kernel),
        "injective": not witnesses,
        "surjective": first.keys() == codomain,
        "witnesses_of_failure": witnesses,
    }
