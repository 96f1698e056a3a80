"""Small integer-arithmetic helpers shared across modules."""

from __future__ import annotations


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) >= 0 and u*a + v*b = g."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def is_prime(n: int) -> bool:
    """Whether n is prime, by `factorize`'s trial division; fine for the small
    moduli used here."""
    return n > 1 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def kronecker(d: int, p: int) -> int:
    """The Kronecker symbol (d/p) at a prime p.

    Euler's criterion d^((p-1)/2) mod p for odd p; for p = 2 it is 0 for even
    d, +1 for d = +-1 mod 8 and -1 for d = +-3 mod 8.
    """
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    r = pow(d, (p - 1) // 2, p)
    return -1 if r == p - 1 else r
