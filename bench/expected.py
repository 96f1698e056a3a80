"""Closed forms the benchmark checks results against.

Nothing here imports formclass: every expected value is derived from the
classical formulas, so a defect in the code under test cannot also shift the
value it is compared with.  Discriminants are negative and below -4 (only the
units +1 and -1), primes are small.
"""

from __future__ import annotations

import math


def class_number(d: int) -> int:
    """h(d): the number of reduced primitive positive definite forms of discriminant d."""
    h = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if math.gcd(a, b, c) == 1:
                h += 1
        a += 1
    return h


def kronecker(d: int, p: int) -> int:
    """The Kronecker symbol (d/p) at a prime p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    r = pow(d % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def prime_divisors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def residue_unit_count(d: int, n: int) -> int:
    """|(O/nO)*| = n^2 * prod over p | n of (1 - 1/p)(1 - (d/p)/p)."""
    count = n * n
    for p in prime_divisors(n):
        count = count // (p * p) * (p - 1) * (p - kronecker(d, p))
    return count


def ray_class_order(d: int, n: int) -> int:
    """h(d) * |(O/nO)*| / |image of the units {+1, -1}|; -1 = 1 only mod 1 and 2."""
    if d >= -4:
        raise ValueError("closed form assumes the only units are +1 and -1")
    unit_image = 1 if n <= 2 else 2
    return class_number(d) * residue_unit_count(d, n) // unit_image


def tower_pairs(p: int, d: int, n: int) -> int:
    """Number of (base point, kernel class) pairs for the correspondence at p^n.

    The base set holds the signed classes of the principal level-p curve:
    h(d) reduced forms times the p * (p^2 - 1 - (p - 1)(1 + (d/p))) matrices of
    SL2(Z/p) whose first column the form maps to a unit, halved by the
    automorph -I and doubled by the sign.  The kernel of reduction mod p has
    p^(3(n-1)) elements.
    """
    if d >= -4:
        raise ValueError("closed form assumes the only units are +1 and -1")
    base = class_number(d) * p * (p - 1) * (p - kronecker(d, p))
    return base * p ** (3 * (n - 1))
