import random

import pytest

import oracles
from rank3affine.classify import as_prime_power, prime_powers_up_to
from rank3affine.errors import CapExceeded, DegreeOutOfRange, LogOfZero, NotPrime
from rank3affine.fields import build_field

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (2, 6)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_gf5_omega_is_two():
    f = build_field(5, 1)
    assert f.omega == 2
    # direct power iteration: 2, 4, 3, 1
    seen = [f.pow(2, i) for i in range(1, 5)]
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
    assert f1._exp == f2._exp


@pytest.mark.parametrize(
    "q", prime_powers_up_to(1024) + [2048, 2187, 3125, 4093, 4096])
def test_tables_match_polynomial_loop(q):
    f = build_field(*as_prime_power(q))
    exp, log, descriptor = oracles.loop_field_tables(f.p, f.r)
    assert f._exp == exp
    assert f._log == log
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
    f = build_field(p, r)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 0) == 0
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("p, r", [(3, 2), (3, 3), (7, 2), (5, 3)])
def test_add_and_neg_match_digit_vectors(p, r):
    f = build_field(p, r)
    for x in f.elements():
        assert f.neg(x) == oracles.digit_neg(f, x)
        for y in f.elements():
            assert f.add(x, y) == oracles.digit_add(f, x, y)


def test_gf9_exponent_addition():
    f = build_field(3, 2)
    assert f.mul(f.exp(3), f.exp(7)) == f.exp(2)  # 3 + 7 = 10 = 2 mod 8


def test_char_two_negation_is_identity():
    f = build_field(2, 4)
    for x in f.elements():
        assert f.neg(x) == x


def test_inverses():
    for p, r in SMALL_FIELDS:
        f = build_field(p, r)
        for x in range(1, f.q):
            assert f.mul(x, f.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        build_field(3, 1).inv(0)


# ---------------------------------------------------------------------------
# frobenius
# ---------------------------------------------------------------------------

def test_frobenius_fixes_zero_and_matches_dlog_scale():
    for p, r in SMALL_FIELDS:
        f = build_field(p, r)
        assert f.frobenius(0) == 0
        for i in range(f.q - 1):
            assert f.frobenius(f.exp(i)) == f.exp(p * i % (f.q - 1))


def test_frobenius_iterated_r_times_is_identity():
    f = build_field(3, 2)
    for x in f.elements():
        assert f.frobenius(f.frobenius(x)) == x
    f = build_field(2, 4)
    for x in f.elements():
        y = x
        for _ in range(4):
            y = f.frobenius(y)
        assert y == x


def test_frobenius_is_a_field_automorphism():
    # exhaustive for q <= 64, randomized beyond
    for p, r in [(3, 2), (2, 4), (5, 2), (3, 3), (2, 6)]:
        f = build_field(p, r)
        for x in f.elements():
            for y in f.elements():
                assert f.frobenius(f.add(x, y)) == f.add(f.frobenius(x), f.frobenius(y))
                assert f.frobenius(f.mul(x, y)) == f.mul(f.frobenius(x), f.frobenius(y))
    rng = random.Random(7)
    for p, r in [(3, 4), (11, 2)]:
        f = build_field(p, r)
        for _ in range(200):
            x, y = rng.randrange(f.q), rng.randrange(f.q)
            assert f.frobenius(f.add(x, y)) == f.add(f.frobenius(x), f.frobenius(y))
            assert f.frobenius(f.mul(x, y)) == f.mul(f.frobenius(x), f.frobenius(y))


# ---------------------------------------------------------------------------
# discrete logs
# ---------------------------------------------------------------------------

def test_dlog_examples():
    f5 = build_field(5, 1)
    assert f5.dlog(f5.omega) == 1
    assert f5.dlog(1) == 0
    assert f5.dlog(4) == 2  # 2^2 = 4


def test_dlog_exp_inverse_bijection():
    for p, r in SMALL_FIELDS:
        f = build_field(p, r)
        for i in range(f.q - 1):
            assert f.dlog(f.exp(i)) == i
        for x in range(1, f.q):
            assert f.exp(f.dlog(x)) == x


def test_log_of_zero():
    with pytest.raises(LogOfZero):
        build_field(3, 2).dlog(0)


def test_exp_addition_random_pairs():
    rng = random.Random(123)
    for p, r in [(3, 2), (2, 4), (7, 2), (13, 1)]:
        f = build_field(p, r)
        n = f.q - 1
        for _ in range(100):
            i, j = rng.randrange(n), rng.randrange(n)
            assert f.mul(f.exp(i), f.exp(j)) == f.exp((i + j) % n)


def test_squares_are_even_dlogs():
    # exhaustive for q <= 121
    for p, r in [(3, 2), (5, 2), (7, 2), (3, 4), (11, 2), (13, 1)]:
        f = build_field(p, r)
        squares = {f.mul(x, x) for x in range(1, f.q)}
        evens = {f.exp(2 * i) for i in range(f.q - 1)}
        assert squares == evens
