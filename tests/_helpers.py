"""Matrices the tests build words and reference reductions from, and the
reference versions of the ideal kernels."""

import math

from formclass.forms import UnimodMatrix
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
