"""Number theory on small integers: primality, prime factors, orders.

Factoring is trial division, and each n is factored once per process, by
the cache of `prime_factors`.  `fields`, `znaction`, `families` and
`classify` all read these; the lemma sweep needs nothing else, so it never
loads the field code.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import NotAUnit


def is_prime(n: int) -> bool:
    return prime_factors(n) == (n,)


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending; each n is factored once."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def mult_order(x: int, modulus: int) -> int:
    """Multiplicative order of the unit x modulo modulus.

    The order divides phi(modulus): strip each prime of phi from it while x
    to the remaining power is still 1.  Both modulus and phi are factored
    once, by the cache of prime_factors.
    """
    if gcd(x, modulus) != 1:
        raise NotAUnit(f"{x} is not a unit mod {modulus}")
    phi = modulus
    for p in prime_factors(modulus):
        phi -= phi // p
    order = phi
    for q in prime_factors(phi):
        while order % q == 0 and pow(x, order // q, modulus) == 1:
            order //= q
    return order


def is_primitive_root(x: int, p: int) -> bool:
    """Whether the unit x generates Z_p^*, for a prime p: no x^((p-1)/l)
    is 1 for a prime l | p - 1.  One pow per prime of p - 1, whose factors
    are cached, and no order search."""
    for l in prime_factors(p - 1):
        if pow(x, (p - 1) // l, p) == 1:
            return False
    return True
