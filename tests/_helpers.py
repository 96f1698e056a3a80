"""Matrices the tests build words and reference reductions from, and the
reference versions of the composition and ideal kernels."""

import math

from formclass._arith import crt, egcd
from formclass.classgroup import CompositionBoundError, FormClass
from formclass.forms import QuadForm, UnimodMatrix
from formclass.ideals import ElemO, principal_generator, unit_group

SWAP = UnimodMatrix(0, -1, 1, 0)


def translation(m: int) -> UnimodMatrix:
    """[[1, m], [0, 1]]; acts on forms by b -> b + 2am."""
    return UnimodMatrix(1, m, 0, 1)


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


def ray_class_equal_reference(u, v, n: int) -> bool:
    """`ideals.ray_class_equal` with its unit test as a loop over the ElemO
    products of unit_group: some unit times alpha * den^-1 is 1 mod n."""
    found = principal_generator(u * v.inverse())
    if found is None:
        return False
    if n == 1:
        return True
    scale, lam = found
    k = scale.numerator * pow(scale.denominator, -1, n)
    base = ElemO(lam.x * k % n, lam.y * k % n, u.disc)
    for unit in unit_group(u.disc):
        prod = unit * base
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


def compose_reference(x: FormClass, y: FormClass, bound: int = 10, rng=None) -> FormClass:
    """`classgroup.compose` as it was before its integer kernel: one egcd per
    candidate column and cell, y moved by a validated `UnimodMatrix`."""
    if (x.disc, x.level) != (y.disc, y.level):
        raise ValueError("classes live at different discriminant/level")
    d, n = x.disc, x.level
    ax = x.rep.a

    hits: list[tuple[int, int]] = []
    for p, r in column_shells_reference(n, bound):
        g, u, v = egcd(p, r)
        if g != 1:
            continue
        if math.gcd(ax, y.rep(p, r)) != 1:
            continue
        hits.append((p, r))
        if rng is None or len(hits) >= 4:
            break
    if not hits:
        raise CompositionBoundError(
            f"no concordant column for {x.rep.triple()} * {y.rep.triple()} at level {n} within bound {bound}"
        )
    p, r = hits[0] if rng is None else rng.choice(hits)

    g, u, v = egcd(p, r)
    gamma = UnimodMatrix(p, -v, r, u)
    moved = y.rep.transform(gamma)
    big_b, modulus = crt(x.rep.b, 2 * ax, moved.b, 2 * moved.a)
    m = ax * moved.a
    if modulus != 2 * m:
        raise RuntimeError(f"CRT modulus {modulus} is not 2*{m}: the moved pair is not concordant")
    if big_b > m:
        big_b -= 2 * m
    return FormClass(QuadForm(m, big_b, (big_b * big_b - d) // (4 * m)), d, n)
