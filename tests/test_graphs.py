import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rank3affine.classify import as_prime_power, prime_powers_up_to
from rank3affine.errors import (CapExceeded, Directed, InfeasibleParameters,
                                NotSymmetric, Rank3Error)
from rank3affine.families import (ConnectionSet, paley_connection_set,
                                  peisert_connection_set, vls_connection_set)
from rank3affine.fields import build_field
from rank3affine.graphs import (NotStronglyRegular, SrgParams, _digit_step,
                                _reversed, _step,
                                build_cayley, export_edge_list, export_graph6,
                                srg_params)


def paley_graph(p, r):
    f = build_field(p, r)
    return build_cayley(f, paley_connection_set(f))


def neighbor_sets(g):
    return [set(g.neighbors(x)) for x in range(g.q)]


def edge_set(g):
    return {frozenset((x, y)) for x in range(g.q) for y in g.neighbors(x)}


def complement_graph(g):
    rest = set(range(g.q - 1)) - g.connection.indices
    return build_cayley(g.field, ConnectionSet(g.field, rest))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def bitset(codes):
    return sum(1 << c for c in codes)


def test_digit_steps_match_scalar_add():
    rng = random.Random(5)
    for p, r in [(2, 4), (3, 2), (5, 1), (3, 3), (7, 2), (5, 3)]:
        f = build_field(p, r)
        for _ in range(20):
            codes = rng.sample(range(f.q), rng.randrange(f.q + 1))
            forward, backward = bitset(codes), _reversed(bitset(codes), f.q)
            for i in range(r):
                e = p ** i
                moved = bitset(oracles.digit_add(f, c, e) for c in codes)
                assert _step(forward, _digit_step(f, i, 1)) == moved
                # bit q - 1 - c stands for code c: moving it by -e adds e
                assert (_step(backward, _digit_step(f, i, p - 1))
                        == _reversed(moved, f.q))
                a = rng.randrange(1, p)
                assert _step(forward, _digit_step(f, i, a)) == bitset(
                    oracles.digit_add(f, c, a * e) for c in codes)


def test_gf5_squares_is_the_five_cycle():
    g = paley_graph(5, 1)
    assert export_edge_list(g) == "0 1\n0 4\n1 2\n2 3\n3 4\n"


def test_gf4_singleton_is_perfect_matching():
    f = build_field(2, 2)
    g = build_cayley(f, vls_connection_set(f, 3))
    assert [g.neighbors(x) for x in range(4)] == [[1], [0], [3], [2]]


def test_directed_rejected_without_escape_hatch():
    f = build_field(7, 1)
    conn = vls_connection_set(f, 2, allow_directed=True)
    with pytest.raises(NotSymmetric):
        build_cayley(f, conn)
    g = build_cayley(f, conn, allow_directed=True)
    assert g.directed
    assert all(len(g.neighbors(x)) == 3 for x in range(7))
    with pytest.raises(Directed):
        srg_params(g)
    with pytest.raises(Directed):
        export_graph6(g)
    with pytest.raises(Directed):
        export_edge_list(g)


def test_degree_equals_connection_size():
    for p, r in [(3, 2), (13, 1), (2, 4)]:
        f = build_field(p, r)
        conn = paley_connection_set(f) if p != 2 else vls_connection_set(f, 3)
        g = build_cayley(f, conn)
        assert all(len(g.neighbors(x)) == len(conn) for x in range(g.q))


def test_translation_automorphism():
    rng = random.Random(3)
    for p, r in [(3, 2), (7, 2), (13, 1)]:
        f = build_field(p, r)
        adj = neighbor_sets(build_cayley(f, paley_connection_set(f)))
        for _ in range(100):
            c, x, y = (rng.randrange(f.q) for _ in range(3))
            assert (y in adj[x]) == (oracles.digit_add(f, y, c)
                                     in adj[oracles.digit_add(f, x, c)])


def test_even_scaling_automorphism_of_paley():
    # multiplication by omega^2 preserves squares, hence adjacency
    for p, r in [(3, 2), (13, 1), (5, 2), (7, 2), (3, 4), (11, 2)]:
        f = build_field(p, r)
        adj = neighbor_sets(build_cayley(f, paley_connection_set(f)))
        omega2 = oracles.field_mul(f, f.omega, f.omega)
        scaled = [oracles.field_mul(f, omega2, x) for x in range(f.q)]
        for x in range(f.q):
            for y in range(x + 1, f.q):
                assert (y in adj[x]) == (scaled[y] in adj[scaled[x]])


# ---------------------------------------------------------------------------
# strong regularity
# ---------------------------------------------------------------------------

def test_srg_paley9():
    g = paley_graph(3, 2)
    res = srg_params(g)
    assert res.as_tuple() == (9, 4, 1, 2)
    assert oracles.brute_srg_params(neighbor_sets(g)) == (9, 4, 1, 2)


def test_srg_vls16_clebsch_parameters():
    f = build_field(2, 4)
    g = build_cayley(f, vls_connection_set(f, 3))
    res = srg_params(g)
    assert res.as_tuple() == (16, 5, 0, 2)
    assert oracles.brute_srg_params(neighbor_sets(g)) == (16, 5, 0, 2)


def test_srg_peisert49_has_paley_parameters():
    f = build_field(7, 2)
    g = build_cayley(f, peisert_connection_set(f, 1))
    res = srg_params(g)
    assert res.as_tuple() == (49, 24, 11, 12)
    assert res == oracles.paley_parameter_formula(49)
    assert oracles.brute_srg_params(neighbor_sets(g)) == (49, 24, 11, 12)


def test_not_strongly_regular_witness():
    # the 13-cycle: non-adjacent pairs share 0 or 1 neighbors
    f = build_field(13, 1)
    g = build_cayley(f, ConnectionSet(f, [0, 6]))  # 1 and -1
    assert g.neighbors(0) == [1, 12]
    res = srg_params(g)
    assert isinstance(res, NotStronglyRegular)
    x, y = res.witness
    assert y not in g.neighbors(x)


def test_srg_cap():
    g = paley_graph(3, 2)
    with pytest.raises(CapExceeded):
        srg_params(g, cap=8)


def test_feasibility_identity_enforced():
    with pytest.raises(InfeasibleParameters):
        SrgParams(9, 4, 1, 3)


def test_paley_formula():
    assert oracles.paley_parameter_formula(9).as_tuple() == (9, 4, 1, 2)
    assert oracles.paley_parameter_formula(49).as_tuple() == (49, 24, 11, 12)
    from rank3affine.errors import BadResidue
    with pytest.raises(BadResidue):
        oracles.paley_parameter_formula(7)


def test_complement_duality():
    for p, r in [(3, 2), (13, 1), (5, 2), (7, 2)]:
        f = build_field(p, r)
        g = build_cayley(f, paley_connection_set(f))
        v, k, lam, mu = srg_params(g).as_tuple()
        comp = srg_params(complement_graph(g))
        assert comp.as_tuple() == (v, v - k - 1, v - 2 - 2 * k + mu, v - 2 * k + lam)


# ---------------------------------------------------------------------------
# the isomorphism oracle
# ---------------------------------------------------------------------------

def test_peisert9_isomorphic_to_paley9():
    f = build_field(3, 2)
    g1 = build_cayley(f, peisert_connection_set(f, 1))
    g2 = build_cayley(f, paley_connection_set(f))
    assert oracles.is_isomorphic_small(g1, g2)


def test_paley5_isomorphic_to_relabLed_five_cycle():
    f = build_field(5, 1)
    g1 = build_cayley(f, paley_connection_set(f))
    pentagram = build_cayley(f, ConnectionSet(f, [1, 3]))  # 2 and 3
    assert oracles.is_isomorphic_small(g1, pentagram)


def test_paley13_self_complementary():
    g = paley_graph(13, 1)
    assert oracles.is_isomorphic_small(g, complement_graph(g))


def test_non_isomorphic_same_degree():
    # the Clebsch-parameter graph is triangle-free; the connection set of
    # the elements 1, ..., 5 has the same size but holds 1 + 2 = 3
    f = build_field(2, 4)
    clebsch = build_cayley(f, vls_connection_set(f, 3))
    codes = {x: i for i, x in enumerate(f.powers())}
    other = build_cayley(f, ConnectionSet(f, [codes[x] for x in (1, 2, 3, 4, 5)]))
    assert not oracles.is_isomorphic_small(clebsch, other)


def test_isomorphism_quick_rejects():
    g5 = paley_graph(5, 1)
    g9 = paley_graph(3, 2)
    assert not oracles.is_isomorphic_small(g5, g9)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_graph6_five_cycle_bytes():
    assert export_graph6(paley_graph(5, 1)) == b"Dhc"


def test_graph6_single_edge():
    f = build_field(2, 1)
    k2 = build_cayley(f, ConnectionSet(f, [0]))
    assert export_graph6(k2) == b"A_"


def test_graph6_decoder_examples():
    assert oracles.decode_graph6(b"A?") == (2, set())
    assert oracles.decode_graph6(b"A_") == (2, {frozenset({0, 1})})


def test_graph6_roundtrip_small():
    for p, r in [(5, 1), (3, 2), (2, 4), (13, 1)]:
        f = build_field(p, r)
        conn = paley_connection_set(f) if p != 2 else vls_connection_set(f, 3)
        g = build_cayley(f, conn)
        v, edges = oracles.decode_graph6(export_graph6(g))
        assert v == g.q
        assert edges == edge_set(g)


def test_graph6_long_form_roundtrip():
    f = build_field(2, 6)
    g = build_cayley(f, vls_connection_set(f, 3))
    data = export_graph6(g)
    assert data[0] == 126  # long form marker for v > 62
    v, edges = oracles.decode_graph6(data)
    assert v == 64
    assert edges == edge_set(g) and len(edges) == 64 * 21 // 2


def test_edge_list_matches_adjacency():
    g = paley_graph(3, 2)
    pairs = [tuple(map(int, line.split()))
             for line in export_edge_list(g).splitlines()]
    assert all(i < j for i, j in pairs) and pairs == sorted(pairs)
    assert {frozenset(pair) for pair in pairs} == edge_set(g)
    assert len(pairs) == 9 * 4 // 2


# ---------------------------------------------------------------------------
# differential: connection-set graphs against the dense bitrow oracle
# ---------------------------------------------------------------------------

@functools.cache
def field_of_order(q):
    return build_field(*as_prime_power(q))


def admissible_connection_sets(f):
    """Every Paley, vls and Peisert connection set GF(q) admits."""
    makers = [lambda: paley_connection_set(f)]
    makers += [lambda ell=ell: vls_connection_set(f, ell)
               for ell in range(2, f.r + 2)]
    makers += [lambda v=v: peisert_connection_set(f, v) for v in (1, 3)]
    conns = []
    for make in makers:
        try:
            conns.append(make())
        except Rank3Error:
            pass
    return conns


# r = 1, p = 2, and odd p with r = 2, 4, 6: every (p, r) shape of construct
@pytest.mark.parametrize("q", prime_powers_up_to(256)
                         + [625, 729, 841, 953, 961, 1024])
def test_family_graphs_match_bitrow_oracle(q):
    f = field_of_order(q)
    for conn in admissible_connection_sets(f):
        g = build_cayley(f, conn)
        rows = oracles.bitrows(f, conn)
        res = srg_params(g)
        assert isinstance(res, SrgParams)
        assert res == oracles.bitrow_srg_params(rows)
        assert export_graph6(g) == oracles.loop_graph6(rows)


def symmetric_indices(f, chosen):
    """The dlog indices chosen, closed under negation: -1 = omega^((q-1)/2)
    in odd characteristic, and x = -x in characteristic 2."""
    half = (f.q - 1) // 2 if f.p != 2 else 0
    return set(chosen) | {i + half for i in chosen}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_random_symmetric_sets_match_bitrow_oracle(data):
    q = data.draw(st.sampled_from(prime_powers_up_to(49)), label="q")
    f = field_of_order(q)
    reps = range((q - 1) // 2 if f.p != 2 else q - 1)
    chosen = data.draw(st.sets(st.sampled_from(reps), min_size=1), label="S")
    conn = ConnectionSet(f, symmetric_indices(f, chosen))
    g = build_cayley(f, conn)
    rows = oracles.bitrows(f, conn)
    assert srg_params(g) == oracles.bitrow_srg_params(rows)
    assert export_graph6(g) == oracles.loop_graph6(rows)
    assert [sum(1 << y for y in g.neighbors(x)) for x in range(q)] == rows
    assert export_edge_list(g) == "".join(
        f"{x} {y}\n" for x in range(q) for y in range(x + 1, q)
        if (rows[x] >> y) & 1)
