import functools
import random
from itertools import product
from math import gcd

import pytest

import oracles
from rank3affine import fields
from rank3affine.classify import as_prime_power, prime_powers_up_to
from rank3affine.errors import (CapExceeded, DegreeOutOfRange,
                                InvariantViolation, NotAUnit, NotPrime)
from rank3affine.fields import (build_field, is_prime,
                               is_primitive_root, mult_order)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (2, 6)]


# ---------------------------------------------------------------------------
# multiplicative order
# ---------------------------------------------------------------------------

@functools.cache
def walked_orders():
    # (x, m) -> the order of x mod m by the power walk, None for a non-unit,
    # for every m <= 300 and every prime m < 1000
    moduli = [*range(1, 301), *(p for p in range(301, 1000) if is_prime(p))]
    return {(x, m): oracles.loop_mult_order(x, m) if gcd(x, m) == 1 else None
            for m in moduli for x in range(m)}


def test_mult_order_matches_power_walk():
    walked = walked_orders()
    # m and phi(m) are factored once each: the second pass reads the cached
    # factors, and must give the same orders and the same errors
    for _ in range(2):
        for (x, m), order in walked.items():
            if order is None:
                with pytest.raises(NotAUnit):
                    mult_order(x, m)
            else:
                assert mult_order(x, m) == order, (x, m)


def test_primitive_root_test_matches_power_walk():
    # every unit of every prime p < 1000
    checked = 0
    for (x, m), order in walked_orders().items():
        if order is not None and is_prime(m):
            assert is_primitive_root(x, m) == (order == m - 1), (x, m)
            checked += 1
    assert checked == sum(p - 1 for p in range(2, 1000) if is_prime(p))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_gf5_omega_is_two():
    f = build_field(5, 1)
    assert f.omega == 2
    # direct power iteration: 2, 4, 3, 1
    seen = [oracles.field_pow(f, 2, i) for i in range(1, 5)]
    assert seen == [2, 4, 3, 1]


def test_gf9_order():
    assert build_field(3, 2).q == 9


def test_not_prime():
    with pytest.raises(NotPrime):
        build_field(4, 1)


def test_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        build_field(3, 0)


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        build_field(2, 21)
    # explicit override admits the same field
    assert build_field(2, 11, cap=2 ** 11).q == 2048
    # the cap comes before the primality test of p (tests/test_cli.py runs
    # the huge p and r that would not end otherwise); below it, and for
    # p < 2 or r < 1, the argument checks keep their errors
    with pytest.raises(CapExceeded):
        build_field(4, 30)
    with pytest.raises(NotPrime):
        build_field(1, 30)
    with pytest.raises(NotPrime):
        build_field(4, 0)


# ---------------------------------------------------------------------------
# modulus and omega against trial division and polynomial powers
# ---------------------------------------------------------------------------

def test_rabin_test_agrees_with_trial_division():
    # every monic polynomial of degree r over GF(p) with p^r <= 1024
    checked = 0
    for q in prime_powers_up_to(1024):
        p, r = as_prime_power(q)
        for tail in product(range(p), repeat=r):
            poly = (*tail, 1)
            assert (fields._is_irreducible(poly, p)
                    == oracles.trial_division_is_irreducible(poly, p)), poly
            checked += 1
    assert checked == 87760


def sampled_primes(lo, hi, count, rng):
    out = set()
    while len(out) < count:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            out.add(p)
    return sorted(out)


# past 2^16, up to the field cap: the largest prime, a seeded sample of
# primes and of squares p^2 with 256 < p < 1024
_RNG = random.Random(20)
LARGE_FIELDS = ([1048573] + sampled_primes(65537, 2 ** 20, 8, _RNG)
                + [p * p for p in sampled_primes(257, 1024, 4, _RNG)])


@pytest.mark.parametrize("q", prime_powers_up_to(4096)
                         + [2 ** r for r in range(13, 19)]
                         + [p * p for p in range(67, 256) if is_prime(p)]
                         + LARGE_FIELDS)
def test_modulus_and_omega_match_the_search_oracles(q):
    f = build_field(*as_prime_power(q))
    modulus = oracles.trial_division_modulus(f.p, f.r)
    assert f.modulus == modulus
    assert f.coeffs(f.omega) == oracles.power_search_omega(f.p, f.r, modulus)


def test_gf2_powers_match_the_oracle_product():
    # the GF(2) path works on bit-polynomials (bit i is the coefficient of
    # X^i): its squares and its products by the base, for every degree up
    # to the field cap, against square-and-multiply on coefficient vectors
    rng = random.Random(23)
    for r in range(1, 21):
        f = build_field(2, r)
        m = sum(c << i for i, c in enumerate(f.modulus))
        for _ in range(8):
            a, e = rng.randrange(1, 2 ** r), rng.randrange(2 ** r + 2)
            power = oracles.poly_pow_mod(f.coeffs(a), e, f.modulus, 2)
            assert f.coeffs(fields._bit_pow(a, e, m)) == power, (r, a, e)
    # a zero base, and exponents 0 and 1
    assert fields._bit_pow(0, 5, 0b10011) == 0
    assert fields._bit_pow(0b1011, 0, 0b10011) == 1
    assert fields._bit_pow(0b1011, 1, 0b10011) == 0b1011


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (7, 2)])
def test_no_irreducible_modulus_raises_invariant_violation(monkeypatch, p, r):
    monkeypatch.setattr(fields, "_is_irreducible", lambda poly, p: False)
    with pytest.raises(InvariantViolation, match="no monic irreducible"):
        build_field(p, r)


@pytest.mark.parametrize("p, r", [(13, 1), (2, 4), (3, 2)])
def test_no_primitive_element_raises_invariant_violation(monkeypatch, p, r):
    f = build_field(p, r)
    # with q - 1 itself as the only exponent, every candidate's power is 1
    monkeypatch.setattr(fields, "prime_factors", lambda n: [1])
    with pytest.raises(InvariantViolation, match="no primitive element"):
        f._find_omega()


def test_norm_off_gf_p_raises_invariant_violation():
    # over the reducible X^2 - 1 = (X - 1)(X + 1), the "norm" (1 + X)^4 of
    # the first unit that is not a constant is 2 + 2X, not in GF(3)
    f = build_field(3, 2)
    object.__setattr__(f, "modulus", (2, 0, 1))
    with pytest.raises(InvariantViolation, match="norm"):
        f._find_omega()


def test_modulus_has_no_root_for_extensions():
    for p, r in SMALL_FIELDS:
        if r == 1:
            continue
        f = build_field(p, r)
        for x in range(p):
            value = sum(c * x ** i for i, c in enumerate(f.modulus)) % p
            assert value != 0, (p, r, x)


def test_deterministic_construction():
    f1, f2 = build_field(3, 2), build_field(3, 2)
    assert f1.descriptor() == f2.descriptor()
    assert list(f1.powers()) == list(f2.powers())


@pytest.mark.parametrize(
    "q", prime_powers_up_to(1024) + [2048, 2187, 3125, 4093, 4096])
def test_tables_match_polynomial_loop(q):
    f = build_field(*as_prime_power(q))
    exp, descriptor = oracles.loop_field_tables(f.p, f.r)
    assert tuple(f.powers()) == exp
    assert f.descriptor() == descriptor


def test_descriptor_schema():
    d = build_field(2, 4).descriptor()
    assert d["p"] == 2 and d["r"] == 4 and d["q"] == 16
    assert len(d["modulus"]) == 5 and d["modulus"][-1] == 1
    assert len(d["omega"]) == 4


# ---------------------------------------------------------------------------
# ring axioms and basic arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,r", [(3, 2), (2, 3)])
def test_ring_axioms_exhaustive(p, r):
    # the product on coefficient vectors against digit-vector addition
    f = build_field(p, r)
    mul = functools.partial(oracles.field_mul, f)
    add = functools.partial(oracles.digit_add, f)
    els = range(f.q)
    for a in els:
        assert add(a, 0) == a
        assert add(a, oracles.digit_neg(f, a)) == 0
        for b in els:
            assert add(a, b) == add(b, a)
            for c in els:
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
                assert add(add(a, b), c) == add(a, add(b, c))


def test_gf9_exponent_addition():
    f = build_field(3, 2)
    exp = list(f.powers())
    # 3 + 7 = 10 = 2 mod 8
    assert oracles.field_mul(f, exp[3], exp[7]) == exp[2]


def test_inverses():
    # omega^(-i) = omega^(q - 1 - i) is the inverse of omega^i
    for p, r in SMALL_FIELDS:
        f = build_field(p, r)
        exp = list(f.powers())
        for i in range(f.q - 1):
            assert oracles.field_mul(f, exp[i], exp[-i]) == 1


# ---------------------------------------------------------------------------
# frobenius, x -> x^p on coefficient vectors
# ---------------------------------------------------------------------------

def test_frobenius_fixes_zero_and_matches_dlog_scale():
    # in dlog coordinates Frobenius scales the exponent by p
    for p, r in SMALL_FIELDS:
        f = build_field(p, r)
        exp = list(f.powers())
        assert oracles.field_pow(f, 0, p) == 0
        for i in range(f.q - 1):
            assert oracles.field_pow(f, exp[i], p) == exp[p * i % (f.q - 1)]


def test_frobenius_iterated_r_times_is_identity():
    # taken in GF(p)[X]/(modulus): a modulus with a repeated factor, or a
    # factor whose degree does not divide r, breaks it
    for p, r in [(3, 2), (2, 4), (5, 3), (2, 6)]:
        f = build_field(p, r)
        for x in range(f.q):
            y = x
            for _ in range(r):
                y = oracles.field_pow(f, y, p)
            assert y == x


def test_frobenius_is_a_field_automorphism():
    # (x + y)^p = x^p + y^p ties digit-vector addition to the product on
    # coefficient vectors; exhaustive for q <= 64, randomized beyond
    def check(f, x, y):
        frob = functools.partial(oracles.field_pow, f, e=f.p)
        add = functools.partial(oracles.digit_add, f)
        assert frob(add(x, y)) == add(frob(x), frob(y))

    for p, r in [(3, 2), (2, 4), (5, 2), (3, 3), (2, 6)]:
        f = build_field(p, r)
        for x in range(f.q):
            for y in range(f.q):
                check(f, x, y)
    rng = random.Random(7)
    for p, r in [(3, 4), (11, 2)]:
        f = build_field(p, r)
        for _ in range(200):
            check(f, rng.randrange(f.q), rng.randrange(f.q))


# ---------------------------------------------------------------------------
# discrete logs: the i-th power in the walk is the element with dlog i
# ---------------------------------------------------------------------------

def test_dlog_examples():
    f5 = build_field(5, 1)
    exp = list(f5.powers())
    assert exp[1] == f5.omega
    assert exp == [1, 2, 4, 3]  # 2^2 = 4 and 2 * 3 = 6 = 1 mod 5


def test_dlog_exp_inverse_bijection():
    # the walk maps Z_(q-1) onto the nonzero codes, so dlog is its inverse
    for p, r in SMALL_FIELDS:
        f = build_field(p, r)
        assert sorted(f.powers()) == list(range(1, f.q))


def test_exp_addition_random_pairs():
    rng = random.Random(123)
    for p, r in [(3, 2), (2, 4), (7, 2), (13, 1)]:
        f = build_field(p, r)
        exp = list(f.powers())
        n = f.q - 1
        for _ in range(100):
            i, j = rng.randrange(n), rng.randrange(n)
            assert oracles.field_mul(f, exp[i], exp[j]) == exp[(i + j) % n]


def test_squares_are_even_dlogs():
    # exhaustive for q <= 121
    for p, r in [(3, 2), (5, 2), (7, 2), (3, 4), (11, 2), (13, 1)]:
        f = build_field(p, r)
        squares = {oracles.field_mul(f, x, x) for x in range(1, f.q)}
        evens = set(list(f.powers())[::2])
        assert squares == evens
