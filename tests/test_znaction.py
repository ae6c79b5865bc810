import hashlib
import io
import json
import random
import re
from itertools import chain
from math import gcd

import pytest

import oracles
from rank3affine.arith import is_prime, is_primitive_root, mult_order
from rank3affine.errors import (CapExceeded, EmptySet, InvariantViolation,
                               MalformedPartition)
from rank3affine.classify import as_prime_power, prime_powers_up_to
import rank3affine.znaction as znaction
from rank3affine.znaction import (AffineActionContext, Case1, Case2,
                                  OrbitPartition, Violation, _radical_full_table,
                                  classify_partition,
                                  two_orbit_partitions_with_generators, units,
                                  verify_lemma)


def class_sets(part, n):
    return [frozenset(c) for c in oracles.classes(part, n)]


def partition_sets(ctx):
    return {frozenset(class_sets(p, ctx.n))
            for p in two_orbit_partitions_with_generators(ctx)}


# ---------------------------------------------------------------------------
# radical (an oracle: src reads radicals off its closed-form tables)
# ---------------------------------------------------------------------------

def test_radical_examples():
    assert oracles.radical({0, 2, 4, 6}, 8) == 2
    assert oracles.radical({1}, 5) == 5
    assert oracles.radical({0, 1, 4, 5}, 8) == 4


def test_radical_empty_set():
    with pytest.raises(EmptySet):
        oracles.radical(set(), 6)


def test_radical_divides_n_and_stabilizes():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(2, 64)
        size = rng.randrange(1, n + 1)
        S = frozenset(rng.sample(range(n), size))
        d = oracles.radical(S, n)
        assert n % d == 0
        if d < n:
            assert {(x + d) % n for x in S} == S
        for u in range(1, d):
            assert {(x + u) % n for x in S} != S


def test_radical_translation_invariance():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(2, 64)
        S = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        c = rng.randrange(n)
        shifted = {(x + c) % n for x in S}
        assert oracles.radical(shifted, n) == oracles.radical(S, n)


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def test_context_validates_units():
    with pytest.raises(ValueError):
        AffineActionContext(6, 2)
    with pytest.raises(ValueError):
        AffineActionContext(1, 1)


def test_context_order():
    # the context keeps n and a mod n; the order of a comes from mult_order
    for n, a, order in [(5, 2, 4), (8, 3, 2), (4, 1, 1), (5, 7, 4)]:
        ctx = AffineActionContext(n, a)
        assert (ctx.n, ctx.a) == (n, a % n)
        assert mult_order(ctx.a, ctx.n) == order
    assert repr(AffineActionContext(8, 3)) == "AffineActionContext(n=8, a=3)"


def test_orbit_examples():
    orbits, AffineMapZn = oracles.orbits, oracles.AffineMapZn
    ctx = AffineActionContext(5, 2)
    assert orbits(ctx, [AffineMapZn(1, 0)]) == [frozenset(range(5))]
    assert orbits(ctx, [AffineMapZn(0, 1)]) == [frozenset({0}), frozenset({1, 2, 3, 4})]
    ctx4 = AffineActionContext(4, 3)
    assert orbits(ctx4, [AffineMapZn(1, 1)]) == [frozenset({0, 1}), frozenset({2, 3})]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_examples():
    sets52 = partition_sets(AffineActionContext(5, 2))
    assert frozenset([frozenset({0}), frozenset({1, 2, 3, 4})]) in sets52

    sets43 = partition_sets(AffineActionContext(4, 3))
    assert frozenset([frozenset({0, 1}), frozenset({2, 3})]) in sets43
    assert frozenset([frozenset({0, 3}), frozenset({1, 2})]) in sets43
    assert frozenset([frozenset({0, 2}), frozenset({1, 3})]) in sets43
    assert len(sets43) == 3


def test_enumeration_closed_under_translation():
    # conjugating a subgroup by a translation translates its orbits
    for n, a in [(5, 2), (12, 5), (16, 3), (9, 2)]:
        ctx = AffineActionContext(n, a)
        sets = partition_sets(ctx)
        for part in sets:
            for c in range(n):
                shifted = frozenset(frozenset((x + c) % n for x in cls)
                                    for cls in part)
                assert shifted in sets


def test_singleton_partitions_for_primitive_root():
    # n prime, a a primitive root: the stabilizer-style subgroups fix one
    # point each, so every singleton partition appears
    ctx = AffineActionContext(7, 3)
    sets = partition_sets(ctx)
    for f in range(7):
        assert frozenset([frozenset({f}), frozenset(range(7)) - {f}]) in sets


def test_trivial_alpha_context():
    parts = two_orbit_partitions_with_generators(AffineActionContext(4, 1))
    assert len(parts) == 1
    (p,) = parts
    assert oracles.classes(p, 4) == ([0, 2], [1, 3])
    case = classify_partition(AffineActionContext(4, 1), p)
    assert case == Case1(m=2, shift=0)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        two_orbit_partitions_with_generators(AffineActionContext(5000, 7),
                                             cap=4096)


def test_witness_generators_reproduce_partitions():
    # each partition of the per-shift scan is the orbit partition of its
    # witness pair, and the enumeration lists exactly those, in report
    # order
    for n in range(2, 28):
        for a in units(n):
            ctx = AffineActionContext(n, a)
            found = oracles.per_shift_two_orbit_partitions(ctx)
            for part, gens in found.items():
                assert oracles.orbits(ctx, list(gens)) == \
                    class_sets(part, n), (n, a, part)
            assert two_orbit_partitions_with_generators(ctx) == \
                oracles.in_report_order(found, n), (n, a)


def test_translation_table_closed_form_for_b_one():
    # a translation has radical-full two-cycle partitions only on Z_2
    evens = OrbitPartition(2, frozenset({0}))
    assert _radical_full_table(2, 1) == (evens,)
    for k in range(3, 1000):
        assert _radical_full_table(k, 1) == (), k


def test_tables_match_per_shift_scan():
    # every unit b, so every closed form and every empty table (composite
    # k other than 4 included) is checked against cycle counts
    nonempty = 0
    for k in range(2, 91):
        for b in units(k):
            parts = _radical_full_table(k, b)
            assert parts == oracles.radical_full_oracle(k, b), (k, b)
            nonempty += bool(parts)
    # k = 2, (k, b) = (4, 3), and the phi(p - 1) primitive roots of each odd
    # prime p < 91
    assert nonempty == 361


def test_certificate_script_exits_0_and_1(monkeypatch, capsys):
    # tests/certify.py runs these checks past tier-1's ranges; it exits 0
    # when they hold and 1, naming each failure, when a table, a field or a
    # field's count or the fields' descriptors disagree with its oracle
    import certify
    monkeypatch.setattr(certify, "PRIMES", 0)
    monkeypatch.setattr(certify, "CONTEXTS", 0)
    monkeypatch.setattr(certify, "SWEEP_Q", 9)
    monkeypatch.setattr(certify, "SWEEP_PARTITIONS", 9)
    digest = hashlib.sha256()
    for q in prime_powers_up_to(9):
        p, r = oracles.trial_division_prime_power(q)
        modulus = oracles.trial_division_modulus(p, r)
        omega = oracles.power_search_omega(p, r, modulus)
        digest.update(json.dumps({"p": p, "r": r, "q": q,
                                  "modulus": list(modulus),
                                  "omega": list(omega)}).encode() + b"\n")
    monkeypatch.setattr(certify, "FIELD_DIGEST", digest.hexdigest())
    assert certify.main(["--k-max", "12", "--q-max", "9"]) == 0
    assert "field counts: 7 prime powers q <= 9, 9 partitions" in (
        capsys.readouterr().out)
    monkeypatch.setattr(certify, "PRIMES", 2)
    monkeypatch.setattr(certify, "CONTEXTS", 1)
    monkeypatch.setattr(certify, "_radical_full_table", lambda k, b: ())
    monkeypatch.setattr(oracles, "classified_field_codes", lambda q: set())
    # the sampled checks disagree too, and cost nothing
    monkeypatch.setattr(oracles, "radical_full_oracle", lambda k, b: (k, b))
    monkeypatch.setattr(oracles, "per_shift_two_orbit_partitions",
                        lambda ctx: {})
    monkeypatch.setattr(certify, "two_orbit_partitions_with_generators",
                        lambda ctx: None)
    monkeypatch.setattr(certify, "SWEEP_Q", 3)
    monkeypatch.setattr(oracles, "closed_form_count", lambda p, r: 0)
    assert certify.main(["--k-max", "3", "--q-max", "3"]) == 1
    out = capsys.readouterr().out
    assert "k = 3, b = 2: the table is not the per-shift scan" in out
    assert "k = 4093, b = 2: the table is not the per-shift scan" in out
    assert "the partitions are not the per-shift scan's" in out
    assert "q = 3: classify_field's partitions are not" in out
    assert ("q = 3: classify_field finds 1 partitions, 0 unmatched; the "
            "closed form counts 0") in out
    assert "the fields q <= 3 have 1 partitions, not 9" in out
    assert "the descriptors of the fields q <= 3 hash to" in out
    # the three (k, b) with k <= 3, two b for each of two primes, one
    # context, q = 3 on the field and by its count, the total and the
    # descriptors
    assert out.endswith("12 failures\n")


def test_certificate_samples_reach_the_lemma_cap():
    import certify
    primes = certify.sampled_primes(400, 25, random.Random(0))
    assert len(primes) == 25 and primes[-1] == 4093 and primes[0] > 400
    assert all(is_prime(k) for k in primes)
    assert certify.sampled_primes(4093, 25, random.Random(0)) == []
    for k in (3, 1009, 4093):
        root, other = certify.root_and_non_root(k, random.Random(k))
        assert is_primitive_root(root, k) and not is_primitive_root(other, k)
        assert not any(is_primitive_root(b, k) for b in range(1, root))


def test_parity_swapping_tables_match_per_shift_scan():
    # 4 | k and b = 3 mod 4: the odd t swap evens and odds, and their
    # partitions have radical 4, so only k = 4 lists them
    checked = 0
    for k in range(4, 401, 4):
        for b in range(3, k, 4):
            if gcd(b, k) == 1:
                assert _radical_full_table(k, b) == \
                    oracles.radical_full_oracle(k, b), (k, b)
                checked += 1
    assert checked == 4081


def test_matches_per_shift_oracle_lemma_contexts():
    # the same partitions, in report order
    for n in range(2, 121):
        for a in units(n):
            ctx = AffineActionContext(n, a)
            assert two_orbit_partitions_with_generators(ctx) == \
                oracles.in_report_order(
                    oracles.per_shift_two_orbit_partitions(ctx), n), (n, a)


def test_matches_per_shift_oracle_sampled_lemma_contexts():
    # the union step past n = 120: a context's partitions are its nonempty
    # tables, whole classes read as verify_lemma reads them, joined
    rng = random.Random(20)
    for _ in range(100):
        n = rng.randint(121, 400)
        a = rng.choice(units(n))
        ctx = AffineActionContext(n, a)
        expected = oracles.in_report_order(
            oracles.per_shift_two_orbit_partitions(ctx), n)
        listed = [t for k in znaction._table_moduli(n)
                  if (t := _radical_full_table(k, a % k))]
        assert tuple(chain.from_iterable(listed)) == expected, (n, a)
        assert two_orbit_partitions_with_generators(ctx) == expected, (n, a)


def test_matches_per_shift_oracle_field_contexts():
    for q in prime_powers_up_to(512)[1:] + [4096]:
        p, _ = as_prime_power(q)
        ctx = AffineActionContext(q - 1, p % (q - 1))
        assert two_orbit_partitions_with_generators(ctx) == \
            oracles.in_report_order(
                oracles.per_shift_two_orbit_partitions(ctx), q - 1), q


def test_matches_pair_closure_oracle_small():
    for n in range(2, 13):
        for a in units(n):
            ctx = AffineActionContext(n, a)
            assert partition_sets(ctx) == \
                oracles.pair_closure_two_orbit_partitions(n, a), (n, a)


# ---------------------------------------------------------------------------
# partitions and classification
# ---------------------------------------------------------------------------

def test_orbit_partition_validation():
    # the radical index must divide n, to classify or to write the classes
    for n, m in [(4, 3), (6, 4), (5, 10), (5, 0), (10, 3), (10, -2)]:
        with pytest.raises(MalformedPartition, match="does not divide"):
            classify_partition(AffineActionContext(n, 1),
                               OrbitPartition(m, frozenset({0})))
        with pytest.raises(MalformedPartition, match="does not divide"):
            OrbitPartition(m, frozenset({0})).classes_json(n)


def test_canonical_ordering():
    # the first class leads by (size, smallest element)
    for n in range(2, 41):
        for a in units(n):
            for part in two_orbit_partitions_with_generators(
                    AffineActionContext(n, a)):
                c1, c2 = oracles.classes(part, n)
                assert (len(c1), c1[0]) < (len(c2), c2[0])


def test_orbit_partition_classes_and_sort_key():
    part = OrbitPartition(4, frozenset({0, 3}))
    assert oracles.classes(part, 8) == ([0, 3, 4, 7], [1, 2, 5, 6])
    assert oracles.classes(part, 4) == ([0, 3], [1, 2])
    assert oracles.sort_key(part, 8) == (4, 4, [0, 3])
    singleton = OrbitPartition(5, frozenset({2}))
    assert oracles.classes(singleton, 5) == ([2], [0, 1, 3, 4])
    assert oracles.sort_key(singleton, 5) < oracles.sort_key(part, 8)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_classes_json_matches_the_list_encoding(monkeypatch, order):
    # every partition shape the enumerator makes: m = 2 with either residue,
    # m = 4 with variant 1 or 3, and each shift of each odd prime m < 50, at
    # every n <= 240 that m divides; ascending n grows the digit list on
    # each call, descending n reads a list longer than n
    monkeypatch.setattr(OrbitPartition, "_digits", [])
    shapes = [OrbitPartition(2, {0}), OrbitPartition(2, {1}),
              OrbitPartition(4, {0, 1}), OrbitPartition(4, {0, 3})]
    odd_primes = [m for m in range(3, 50, 2) if is_prime(m)]
    shapes += [OrbitPartition(m, {c}) for m in odd_primes for c in range(m)]
    checked = 0
    for part in shapes:
        ns = range(part.m, 241, part.m)
        for n in (ns if order == "ascending" else reversed(ns)):
            assert part.classes_json(n) == \
                json.dumps(list(oracles.classes(part, n))), (part, n)
            checked += 1
    assert len(OrbitPartition._digits) == 240
    assert checked == 2 * 120 + 2 * 60 + sum(m * (240 // m)
                                             for m in odd_primes)


@pytest.mark.parametrize("head, tail", [
    ({}, {}), ({"n": 4}, {}), ({}, {"reason": "x"}),
    ({"n": 4, "a": 3}, {"case1": 1, "partitions": []})])
def test_json_splice_matches_json_dumps(head, tail):
    value = [[0, 2], [1, 3]]
    assert (znaction.json_splice(head, "classes", json.dumps(value), tail)
            == json.dumps({**head, "classes": value, **tail}))


def test_orbit_partitions_compare_by_value():
    # one value per (m, residues), whatever iterable the residues come in
    part = OrbitPartition(4, frozenset({0, 3}))
    for same in (OrbitPartition(4, {0, 3}), OrbitPartition(4, (3, 0)),
                 OrbitPartition(m=4, r1=[0, 3])):
        assert same == part and hash(same) == hash(part)
        assert same is not part
    assert part.r1 == frozenset({0, 3}) and type(part.r1) is frozenset
    # equality and hashing are the value base's, over (m, r1)
    assert "__eq__" not in vars(OrbitPartition)
    assert "__hash__" not in vars(OrbitPartition)
    assert hash(part) == hash((4, frozenset({0, 3})))
    with pytest.raises(AttributeError):
        part.m = 8
    others = [OrbitPartition(4, {0, 1}), OrbitPartition(8, {0, 3}),
              OrbitPartition(2, {0}), OrbitPartition(3, {0})]
    assert len({part, *others}) == 5
    assert all(part != other for other in others)
    with pytest.raises(TypeError):
        OrbitPartition(4)


def test_enumerated_partitions_are_the_constructed_objects():
    # equal by value to a fresh partition, and the one object the tables
    # hold, so that two units' tuples compare by identity
    tables = {(part.m, part.r1): part for part in chain(
        znaction._EVENS, znaction._QUARTIC,
        *(znaction._singletons(p) for p in range(3, 60, 2) if is_prime(p)))}
    for n in range(2, 61):
        for a in units(n):
            for part in two_orbit_partitions_with_generators(
                    AffineActionContext(n, a)):
                fresh = OrbitPartition(part.m, set(part.r1))
                assert fresh == part and hash(fresh) == hash(part), (n, a)
                assert tables[part.m, part.r1] is part, (n, a)


def test_classify_examples():
    ctx52 = AffineActionContext(5, 2)
    part = OrbitPartition(5, frozenset({0}))
    assert classify_partition(ctx52, part) == Case1(m=5, shift=0)

    ctx43 = AffineActionContext(4, 3)
    part = OrbitPartition(4, frozenset({0, 1}))
    assert classify_partition(ctx43, part) == Case2(variant=1)
    part = OrbitPartition(4, frozenset({0, 3}))
    assert classify_partition(ctx43, part) == Case2(variant=3)
    part = OrbitPartition(2, frozenset({0}))
    assert classify_partition(ctx43, part) == Case1(m=2, shift=0)


def test_classify_violations_for_inadmissible_shapes():
    ctx = AffineActionContext(8, 3)
    for part in [OrbitPartition(2, frozenset({0, 1})),   # prime m, two cosets
                 OrbitPartition(4, frozenset({0})),      # m = 4, unequal halves
                 OrbitPartition(4, frozenset({0, 2})),   # m = 4, wrong pairing
                 OrbitPartition(8, frozenset({0, 1}))]:  # m neither prime nor 4
        assert isinstance(classify_partition(ctx, part), Violation)
    # the pairing needs a = -1 mod 4
    assert isinstance(classify_partition(AffineActionContext(8, 5),
                                         OrbitPartition(4, frozenset({0, 1}))),
                      Violation)


def test_classify_translated_singleton():
    ctx = AffineActionContext(5, 2)
    part = OrbitPartition(5, frozenset({3}))
    assert classify_partition(ctx, part) == Case1(m=5, shift=3)


def test_classify_violation_for_non_transitive_alpha():
    # {0} vs rest needs a to be a primitive root; 4 has order 2 mod 5
    ctx = AffineActionContext(5, 4)
    part = OrbitPartition(5, frozenset({0}))
    assert isinstance(classify_partition(ctx, part), Violation)


def test_enumerated_partitions_share_radical_and_case_shapes():
    for n in range(2, 41):
        for a in units(n):
            ctx = AffineActionContext(n, a)
            for part in two_orbit_partitions_with_generators(ctx):
                c1, c2 = oracles.classes(part, n)
                assert oracles.radical(c1, n) == oracles.radical(c2, n) == part.m
                case = classify_partition(ctx, part)
                if isinstance(case, Case1):
                    assert len(c1) == n // case.m
                    assert {x % case.m for x in c1} == {case.shift}
                else:
                    assert isinstance(case, Case2)
                    assert n % 4 == 0
                    assert len(c1) == len(c2) == n // 2


# ---------------------------------------------------------------------------
# verify_lemma
# ---------------------------------------------------------------------------

def test_verify_lemma_ten():
    summary = verify_lemma(10)
    assert summary["violation_count"] == 0
    assert summary["violations"] == []
    assert summary["contexts_checked"] == sum(len(units(n)) for n in range(2, 11))


def test_verify_lemma_cap():
    with pytest.raises(CapExceeded):
        verify_lemma(10 ** 9)


def test_verify_lemma_stream_matches_summary():
    buf = io.StringIO()
    summary = verify_lemma(20, sink=buf, include_classes=True)
    doc = json.loads(buf.getvalue())
    assert doc["violation_count"] == summary["violation_count"] == 0
    assert doc["partitions_checked"] == summary["partitions_checked"]
    assert len(doc["contexts"]) == summary["contexts_checked"]
    for ctx_doc in doc["contexts"]:
        n = ctx_doc["n"]
        for entry in ctx_doc["partitions"]:
            c1, c2 = entry["classes"]
            assert sorted(c1 + c2) == list(range(n))
            if entry["case"] == 1:
                m, shift = entry["m"], entry["shift"]
                assert c1 == [x for x in range(n) if x % m == shift]


@pytest.mark.parametrize("n_max, include_classes", [(120, False), (40, True)])
def test_verify_lemma_stream_matches_the_per_partition_oracle(
        n_max, include_classes):
    # listed by table layout, one verdict and one cached string per odd
    # prime class, the stream is still the per-partition report, line by line
    buf = io.StringIO()
    verify_lemma(n_max, sink=buf, include_classes=include_classes)
    assert buf.getvalue().split("\n") == oracles.per_partition_lemma_report(
        n_max, include_classes).split("\n")


def test_walked_orders_match_the_power_walk():
    # every unit's m_ord comes from the walk of its subgroup, not mult_order
    buf = io.StringIO()
    verify_lemma(200, sink=buf)
    headers = [tuple(map(int, h)) for h in re.findall(
        r'\{"n": (\d+), "a": (\d+), "m_ord": (\d+), ', buf.getvalue())]
    assert [(n, a) for n, a, _ in headers] == [
        (n, a) for n in range(2, 201) for a in units(n)]
    for n, a, m_ord in headers:
        assert m_ord == oracles.loop_mult_order(a, n), (n, a)


def _verdicts(n, a):
    ctx = AffineActionContext(n, a)
    return {part: classify_partition(ctx, part)
            for part in two_orbit_partitions_with_generators(ctx)}


def test_partitions_and_verdicts_depend_only_on_the_subgroup():
    # every generator a^j of <a> must give the same partitions and cases;
    # this is what lets verify_lemma share one result per subgroup
    for n in range(2, 61):
        seen = {a: _verdicts(n, a) for a in units(n)}
        for a in units(n):
            order = mult_order(a, n)
            for j in range(2, order):
                if gcd(j, order) == 1:
                    assert seen[pow(a, j, n)] == seen[a], (n, a, j)
    # Z_8^* is not cyclic: 3 and 5 both have order 2 but differ, so the
    # sharing must be keyed by the subgroup, not by its order
    assert mult_order(3, 8) == mult_order(5, 8)
    assert _verdicts(8, 3).keys() != _verdicts(8, 5).keys()


def test_verify_lemma_expands_shared_violations_per_unit(monkeypatch):
    real = classify_partition

    def inject(ctx, part):
        if (ctx.n, part.m) == (12, 2) or (
                ctx.n == 16 and part == OrbitPartition(4, frozenset({0, 3}))):
            return Violation("injected")
        return real(ctx, part)

    monkeypatch.setattr(znaction, "classify_partition", inject)
    expected = []
    for n in (12, 16):
        for a in units(n):
            ctx = AffineActionContext(n, a)
            found = two_orbit_partitions_with_generators(ctx)
            for part in sorted(found, key=lambda part: oracles.sort_key(part, n)):
                if isinstance(inject(ctx, part), Violation):
                    expected.append({"n": n, "a": a,
                                     "classes": list(oracles.classes(part, n)),
                                     "reason": "injected"})
    # 3 and 11 generate the same subgroup of Z_16^*, and each keeps its own a
    assert [(v["n"], v["a"]) for v in expected] == [
        (12, 1), (12, 5), (12, 7), (12, 11),
        (16, 3), (16, 7), (16, 11), (16, 15)]
    buf = io.StringIO()
    summary = verify_lemma(16, sink=buf)
    doc = json.loads(buf.getvalue())
    assert summary["violations"] == doc["violations"] == expected
    # the streamed entries, classes spliced in as text, are the list form's
    assert buf.getvalue().endswith(
        '"violations": %s}\n' % json.dumps(expected))
    assert summary["violation_count"] == doc["violation_count"] == 8
    assert sum(c["violations"] for c in doc["contexts"]) == 8
    for c in doc["contexts"]:
        bad = [e for e in c["partitions"] if e["case"] == "violation"]
        assert len(bad) == c["violations"] == sum(
            (v["n"], v["a"]) == (c["n"], c["a"]) for v in expected)


def test_odd_prime_class_not_case_1_is_classified_per_partition(monkeypatch):
    # a class whose residue 0 is not case 1 gets one verdict per partition:
    # the stream is the per-partition report under the same verdicts
    real = classify_partition

    def inject(ctx, part):
        if part.m == 5 and part.r1 in ({0}, {3}):
            return Violation("injected")
        return real(ctx, part)

    monkeypatch.setattr(znaction, "classify_partition", inject)
    monkeypatch.setattr(oracles, "classify_partition", inject)
    buf = io.StringIO()
    summary = verify_lemma(30, sink=buf)
    assert buf.getvalue() == oracles.per_partition_lemma_report(30)
    assert summary["violation_count"] > 0
    assert {v["reason"] for v in summary["violations"]} == {"injected"}


def test_each_literal_class_entry_carries_its_own_verdict(monkeypatch):
    # with the literal classes no entry is written from residue 0's
    # verdict: a violation at residue 3 of Z_7 reaches the report for both
    # primitive roots mod 7, and its entry keeps its classes.  The default
    # report still writes a case-1 class from residue 0, by design
    real = classify_partition

    def inject(ctx, part):
        if ctx.n == 7 and part == OrbitPartition(7, {3}):
            return Violation("injected")
        return real(ctx, part)

    monkeypatch.setattr(znaction, "classify_partition", inject)
    buf = io.StringIO()
    summary = verify_lemma(7, sink=buf, include_classes=True)
    assert summary["violation_count"] == 2
    assert [(v["n"], v["a"]) for v in summary["violations"]] == [(7, 3), (7, 5)]
    doc = json.loads(buf.getvalue())
    for c in doc["contexts"]:
        if (c["n"], c["a"]) in ((7, 3), (7, 5)):
            assert c["violations"] == 1 and c["case1"] == 6
            assert c["partitions"][3] == {
                "case": "violation", "reason": "injected",
                "classes": [[3], [0, 1, 2, 4, 5, 6]]}


def test_verify_lemma_checks_each_unit_against_its_subgroup(monkeypatch):
    # 2 and 3 both generate Z_5^*; an enumeration that disagrees for 3 must
    # not be covered up by the result shared from 2
    real = two_orbit_partitions_with_generators

    def drop_one(ctx, cap=znaction.DEFAULT_N_CAP):
        found = real(ctx, cap=cap)
        return found[1:] if (ctx.n, ctx.a) == (5, 3) else found

    monkeypatch.setattr(znaction, "two_orbit_partitions_with_generators",
                        drop_one)
    with pytest.raises(InvariantViolation, match="a = 3"):
        verify_lemma(5)


@pytest.mark.parametrize("drop, add", [(0, False), (None, True), (2, True)])
def test_verify_lemma_refuses_partitions_off_the_table_layout(monkeypatch,
                                                              drop, add):
    # a subgroup is encoded from the table layout, not from its tuple, so
    # part of a class left out, or a partition the layout lacks, must raise
    # rather than vanish from the report; both at once keep the count
    # right.  3 is the first primitive root mod 7, the first unit with any
    # partition
    real = two_orbit_partitions_with_generators

    def altered(ctx, cap=znaction.DEFAULT_N_CAP):
        found = real(ctx, cap=cap)
        if ctx.n == 7 and found:
            if drop is not None:
                found = tuple(part for part in found
                              if part != OrbitPartition(7, {drop}))
            if add:
                found += (OrbitPartition(7, {0, 1}),)
        return found

    monkeypatch.setattr(znaction, "two_orbit_partitions_with_generators",
                        altered)
    with pytest.raises(InvariantViolation, match="n = 7, a = 3: "):
        verify_lemma(7)
