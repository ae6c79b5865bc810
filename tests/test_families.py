import random

import pytest

import oracles
from rank3affine.arith import mult_order
from rank3affine.errors import (CharCondition, DegreeCondition, EmptySet,
                                IndexOutOfRange, NotPrime, NotSymmetric,
                                OrderCondition)
from rank3affine.families import (ConnectionSet, GeneralizedPaley, Paley,
                                  paley_connection_set, peisert_connection_set,
                                  vls_connection_set, vls_index_set)
from rank3affine.fields import build_field
from rank3affine.classify import prime_powers_up_to, as_prime_power
from rank3affine.znaction import OrbitPartition


def element_codes(c):
    exp = oracles.loop_field_tables(c.field.p, c.field.r)[0]
    return {exp[i] for i in c.indices}


# ---------------------------------------------------------------------------
# van Lint - Schrijver / generalized Paley
# ---------------------------------------------------------------------------

def test_vls_gf16_ell3():
    f = build_field(2, 4)
    c = vls_connection_set(f, 3)
    assert len(c) == 5
    assert c.label == GeneralizedPaley(ell=3, k=2)
    assert c.indices == frozenset(range(0, 15, 3))


def test_vls_gf9_ell2_is_squares():
    f = build_field(3, 2)
    c = vls_connection_set(f, 2)
    assert len(c) == 4
    assert c.indices == vls_index_set(9, 2) == paley_connection_set(f).indices
    assert c.label == GeneralizedPaley(ell=2, k=2)


def test_vls_order_condition():
    # 5^5 = 3125 = 1 mod 11, so ord_11(5) = 5, not 10
    f = build_field(5, 5)
    assert mult_order(5, 11) == 5
    with pytest.raises(OrderCondition):
        vls_connection_set(f, 11)


def test_vls_degree_condition():
    # ord_3(2) = 2 holds, but 2 does not divide r = 3
    with pytest.raises(DegreeCondition):
        vls_connection_set(build_field(2, 3), 3)


def test_vls_not_prime():
    with pytest.raises(NotPrime):
        vls_connection_set(build_field(2, 4), 4)


def test_vls_char_divides_ell():
    with pytest.raises(OrderCondition):
        vls_connection_set(build_field(3, 2), 3)


def test_vls_ell2_asymmetric_when_q_3_mod_4():
    f7 = build_field(7, 1)
    with pytest.raises(NotSymmetric):
        vls_connection_set(f7, 2)
    c = vls_connection_set(f7, 2, allow_directed=True)
    assert len(c) == 3 and not c.is_symmetric()


def test_vls_degenerate_singleton():
    f = build_field(2, 2)
    c = vls_connection_set(f, 3)
    assert c.indices == frozenset({0})
    assert c.label == GeneralizedPaley(ell=3, k=1)


def test_vls_orbit_property_random_pairs():
    rng = random.Random(99)
    for (p, r, ell) in [(2, 4, 3), (2, 4, 5), (3, 4, 5), (2, 6, 3)]:
        f = build_field(p, r)
        c = vls_connection_set(f, ell)
        n = f.q - 1
        idx = sorted(c.indices)
        for _ in range(50):
            i = rng.choice(idx)
            assert (i + ell) % n in c.indices          # omega^ell multiple
            assert (i * p) % n in c.indices            # frobenius image


def exhaustive_vls_instances(q_max):
    out = []
    for q in prime_powers_up_to(q_max):
        p, r = as_prime_power(q)
        for ell in range(2, q):
            if (q - 1) % ell or not as_prime_power(ell) == (ell, 1):
                continue
            if p % ell == 0 or mult_order(p, ell) != ell - 1 or r % (ell - 1):
                continue
            out.append((p, r, ell))
    return out


def test_vls_complement_is_single_orbit_up_to_1024():
    # closure of any complement point under i -> i + ell and i -> p*i must
    # recover the whole complement
    for p, r, ell in exhaustive_vls_instances(1024):
        f = build_field(p, r)
        c = vls_connection_set(f, ell, allow_directed=True)
        n = f.q - 1
        complement = frozenset(range(n)) - c.indices
        if not complement:
            continue
        start = min(complement)
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in ((i + ell) % n, (i * p) % n):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        assert seen == complement, (p, r, ell)


# ---------------------------------------------------------------------------
# Paley
# ---------------------------------------------------------------------------

def test_paley_gf9():
    f = build_field(3, 2)
    c = paley_connection_set(f)
    assert len(c) == 4
    assert oracles.digit_neg(f, 1) in element_codes(c)  # -1 is a square
    assert c.label == Paley()


def test_paley_gf13_squares():
    f = build_field(13, 1)
    assert sorted(element_codes(paley_connection_set(f))) == [1, 3, 4, 9, 10, 12]


def test_paley_rejects_q_3_mod_4():
    with pytest.raises(NotSymmetric):
        paley_connection_set(build_field(7, 1))
    with pytest.raises(NotSymmetric):
        paley_connection_set(build_field(2, 4))  # q - 1 odd, 2 is no index


# ---------------------------------------------------------------------------
# Peisert
# ---------------------------------------------------------------------------

def test_peisert_gf9_variants():
    f = build_field(3, 2)
    assert sorted(peisert_connection_set(f, 1).indices) == [0, 1, 4, 5]
    assert sorted(peisert_connection_set(f, 3).indices) == [0, 3, 4, 7]


def test_peisert_size():
    f = build_field(7, 2)
    assert len(peisert_connection_set(f, 1)) == 24
    assert len(peisert_connection_set(f, 3)) == 24


def test_peisert_conditions():
    with pytest.raises(CharCondition):
        peisert_connection_set(build_field(5, 2), 1)
    with pytest.raises(DegreeCondition):
        peisert_connection_set(build_field(3, 3), 1)
    with pytest.raises(ValueError):
        peisert_connection_set(build_field(3, 2), 2)


def test_peisert_invariance_under_twisted_frobenius():
    # variant 1 is fixed by i -> p*i + 1 (frobenius then multiply by omega);
    # variant 3 by the conjugate i -> p*i + p
    for p, r in [(3, 2), (7, 2), (3, 4)]:
        f = build_field(p, r)
        n = f.q - 1
        v1 = peisert_connection_set(f, 1).indices
        v3 = peisert_connection_set(f, 3).indices
        assert {(p * i + 1) % n for i in v1} == v1
        assert {(p * i + p) % n for i in v3} == v3


# ---------------------------------------------------------------------------
# symmetry across all constructions
# ---------------------------------------------------------------------------

def test_constructed_sets_are_symmetric():
    cases = [paley_connection_set(build_field(3, 2)),
             paley_connection_set(build_field(13, 1)),
             peisert_connection_set(build_field(3, 2), 1),
             peisert_connection_set(build_field(7, 2), 3),
             vls_connection_set(build_field(2, 4), 3),
             vls_connection_set(build_field(2, 4), 5),
             vls_connection_set(build_field(3, 4), 5),
             vls_connection_set(build_field(2, 2), 3)]
    for c in cases:
        assert c.is_symmetric()
        codes = element_codes(c)
        assert {oracles.digit_neg(c.field, x) for x in codes} == codes


# ---------------------------------------------------------------------------
# quartic coarsenings: the two-class unions of the classes mod 4, as the
# classifier reports them
# ---------------------------------------------------------------------------

def coarsenings(n):
    """(first, second) classes of the Paley, Peisert 1 and Peisert 3
    coarsenings of the quartic classes of Z_n."""
    return [tuple(frozenset(c)
                  for c in oracles.classes(OrbitPartition(m, r1), n))
            for m, r1 in ((2, {0}), (4, {0, 1}), (4, {0, 3}))]


def test_coarsenings_gf9():
    f = build_field(3, 2)
    paley, v1, v3 = (first for first, _ in coarsenings(f.q - 1))
    assert sorted(paley) == [0, 2, 4, 6]
    assert sorted(v1) == [0, 1, 4, 5]
    assert sorted(v3) == [0, 3, 4, 7]
    assert paley == paley_connection_set(f).indices
    assert v1 == peisert_connection_set(f, 1).indices
    assert v3 == peisert_connection_set(f, 3).indices


def test_coarsenings_cover_quartic_classes_in_equal_halves():
    for p, r in [(3, 2), (7, 2), (13, 1), (5, 2)]:
        f = build_field(p, r)
        n = f.q - 1
        quartic = [frozenset(i for i in range(n) if i % 4 == j) for j in range(4)]
        halves = set()
        for first, second in coarsenings(n):
            assert len(first) == len(second) == n // 2
            assert first | second == frozenset(range(n))
            parts = [cl for cl in quartic if cl <= first]
            assert len(parts) == 2
            halves.add(first)
        assert len(halves) == 3


def test_coarsening_paley_matches_connection_set():
    f = build_field(13, 1)
    paley = coarsenings(f.q - 1)[0][0]
    assert paley == paley_connection_set(f).indices


def test_coarsenings_invariant_under_their_subgroups():
    for p, r in [(3, 2), (7, 2), (3, 4)]:
        f = build_field(p, r)
        n = f.q - 1
        paley, v1, v3 = coarsenings(n)
        for cls in paley:
            assert {(i + 2) % n for i in cls} == cls
            assert {(i * p) % n for i in cls} == cls
        for cls in v1:
            assert {(i + 4) % n for i in cls} == cls
            assert {(i * p + 1) % n for i in cls} == cls
        for cls in v3:
            assert {(i + 4) % n for i in cls} == cls
            assert {(i * p + p) % n for i in cls} == cls


# ---------------------------------------------------------------------------
# tags and containers
# ---------------------------------------------------------------------------

def test_connection_set_validation():
    f = build_field(3, 2)
    with pytest.raises(EmptySet):
        ConnectionSet(f, [])
    with pytest.raises(IndexOutOfRange):
        ConnectionSet(f, [8])
    assert ConnectionSet(f, [7, 1, 7]).sorted_indices() == [1, 7]
