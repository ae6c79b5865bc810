"""Exact arithmetic in GF(p^r) with the exp table of a primitive element.

Elements are represented by integer codes in [0, q): the code of an element
with polynomial coefficients (c0, ..., c_{r-1}) (low degree first) is
sum(c_i * p**i).  The exp table lists the codes of the powers of a fixed
primitive element omega, so exp(i) is the element with discrete log i.
The module is pure Python.

Construction is fully deterministic: the modulus is the lexicographically
first monic irreducible polynomial of degree r over GF(p), and omega is the
lexicographically first element (by coefficient vector) of multiplicative
order q - 1.  Two fields built with the same (p, r) are therefore identical,
which keeps every downstream report reproducible.

Fields are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .errors import (CapExceeded, DegreeOutOfRange, InvariantViolation,
                     NotAUnit, NotPrime)

DEFAULT_FIELD_CAP = 2 ** 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
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
    return out


def mult_order(x: int, modulus: int) -> int:
    """Multiplicative order of the unit x modulo modulus.

    The order divides phi(modulus): strip each prime of phi from it while x
    to the remaining power is still 1.
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


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient tuples are low degree first
# ---------------------------------------------------------------------------

def _poly_rem(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    # den is monic, so no inverses are needed
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            for j in range(dd):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd]


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    r = len(modulus) - 1
    res = [0] * (2 * r - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    res[i + j] = (res[i + j] + x * y) % p
    return tuple(_poly_rem(res, modulus, p))


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    # trial division by every monic polynomial of degree 1..deg/2
    r = len(poly) - 1
    for d in range(1, r // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = (*tail, 1)
            if not any(_poly_rem(list(poly), den, p)):
                return False
    return True


def _find_modulus(p: int, r: int) -> tuple[int, ...]:
    if r == 1:
        return (0, 1)
    for tail in product(range(p), repeat=r):
        poly = (*tail, 1)
        if _is_irreducible(poly, p):
            return poly
    raise InvariantViolation(f"no monic irreducible polynomial of degree {r} "
                             f"over GF({p})")


class FiniteField:
    """GF(p^r) with the exp table of a primitive element."""

    def __init__(self, p: int, r: int, cap: int = DEFAULT_FIELD_CAP):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if r < 1:
            raise DegreeOutOfRange(f"extension degree r = {r} must be >= 1")
        q = p ** r
        if q > cap:
            raise CapExceeded(f"q = {p}^{r} = {q} exceeds the field cap {cap}")
        self.p = p
        self.r = r
        self.q = q
        self.modulus = _find_modulus(p, r)
        self._pow_p = tuple(p ** i for i in range(r))
        self.omega = self._find_omega()
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _encode(self, coeffs: tuple[int, ...]) -> int:
        return sum(c * w for c, w in zip(coeffs, self._pow_p))

    def _decode(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            code, c = divmod(code, self.p)
            out.append(c)
        return tuple(out)

    def _find_omega(self) -> int:
        one = (1,) + (0,) * (self.r - 1)
        n = self.q - 1
        checks = [(n // f) for f in prime_factors(n)]
        for cand in product(range(self.p), repeat=self.r):
            if not any(cand):
                continue
            if all(self._pow_coeffs(cand, e) != one for e in checks):
                return self._encode(cand)
        raise InvariantViolation(f"no primitive element of GF({self.q})")

    def _pow_coeffs(self, base: tuple[int, ...], e: int) -> tuple[int, ...]:
        result = (1,) + (0,) * (self.r - 1)
        while e:
            if e & 1:
                result = _poly_mul_mod(result, base, self.modulus, self.p)
            base = _poly_mul_mod(base, base, self.modulus, self.p)
            e >>= 1
        return result

    def _build_tables(self) -> None:
        """exp[i] = omega^i, by repeated multiplication; a power that
        repeats before i = q - 1 means omega is not primitive.

        x -> x * omega is GF(p)-linear: if x has digits d_j, the product's
        digit vector is sum_j d_j * col_j mod p, where col_j holds the digits
        of omega * X^j.  Each digit vector is packed into one integer with a
        lane of `width` bits per digit, wide enough for a lane sum of r
        products below p^2, so a step is r multiply-adds on packed integers
        and r lane reductions mod p.  `acc` holds the unreduced lanes of the
        current power.
        """
        p, r, n = self.p, self.r, self.q - 1
        width = (r * (p - 1) ** 2).bit_length()
        lane = (1 << width) - 1
        omega_coeffs = self._decode(self.omega)
        steps = []
        for j, weight in enumerate(self._pow_p):
            x_j = tuple(int(i == j) for i in range(r))
            col = _poly_mul_mod(x_j, omega_coeffs, self.modulus, p)
            steps.append((width * j, weight,
                          sum(c << (width * i) for i, c in enumerate(col))))
        exp_table = [0] * n
        seen = bytearray(self.q)
        acc = 1
        for i in range(n):
            code = nxt = 0
            for shift, weight, col in steps:
                d = (acc >> shift & lane) % p
                code += d * weight
                nxt += d * col
            if seen[code]:
                raise InvariantViolation(f"omega has order {i} < {n}")
            exp_table[i] = code
            seen[code] = 1
            acc = nxt
        if sum((acc >> shift & lane) % p * weight
               for shift, weight, _ in steps) != 1:
            raise InvariantViolation("omega^(q-1) != 1")
        self._exp = exp_table

    # -- element arithmetic on integer codes --------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        return self._decode(x)

    def exp(self, i: int) -> int:
        return self._exp[i % (self.q - 1)]

    # -- misc ----------------------------------------------------------------

    def descriptor(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "q": self.q,
            "modulus": list(self.modulus),
            "omega": list(self._decode(self.omega)),
        }

    def same_field(self, other: "FiniteField") -> bool:
        return self is other or (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, r={self.r})"


def build_field(p: int, r: int, cap: int = DEFAULT_FIELD_CAP) -> FiniteField:
    """Construct GF(p^r) with a verified modulus and primitive element."""
    return FiniteField(p, r, cap=cap)
