import io
import json

import pytest

import oracles
import rank3affine.classify as classify
from rank3affine.classify import (as_prime_power, classify_field, family_key,
                                  gammal1_context, prime_powers_up_to,
                                  verify_theorem)
from rank3affine import families
from rank3affine.arith import mult_order
from rank3affine.errors import (CapExceeded, CharCondition, DegenerateModulus,
                                DegreeCondition, InvariantViolation, NotPrime,
                                OrderCondition)
from rank3affine.families import (GeneralizedPaley, Paley, Peisert, Unmatched,
                                  paley_index_set, peisert_connection_set,
                                  peisert_index_set, vls_connection_set,
                                  vls_index_set)
from rank3affine.fields import build_field
from rank3affine.znaction import Case1, Case2, two_orbit_partitions_with_generators


# ---------------------------------------------------------------------------
# the dlog dictionary
# ---------------------------------------------------------------------------

def test_gammal1_contexts():
    # the order of p mod q - 1 is r
    for (p, r), expected in [((3, 2), (8, 3, 2)), ((2, 4), (15, 2, 4)),
                             ((5, 1), (4, 1, 1))]:
        ctx = gammal1_context(build_field(p, r))
        assert (ctx.n, ctx.a, mult_order(ctx.a, ctx.n)) == expected


def test_gammal1_degenerate():
    with pytest.raises(DegenerateModulus):
        gammal1_context(build_field(2, 1))


def test_gammal1_context_checks_the_order_of_p(monkeypatch):
    monkeypatch.setattr(classify, "mult_order", lambda x, modulus: 3)
    with pytest.raises(InvariantViolation, match="not r = 2"):
        gammal1_context(build_field(3, 2))


def test_dictionary_equivariance():
    # Frobenius is i -> p * i in dlog coordinates: omega^(p * i) =
    # (omega^i)^p, with the p-th power taken on coefficient vectors, not
    # from the walk
    for q in prime_powers_up_to(256) + [729, 1024]:
        f = build_field(*as_prime_power(q))
        exp = list(f.powers())
        for i in range(q - 1):
            assert exp[f.p * i % (q - 1)] == oracles.field_pow(
                f, exp[i], f.p), (q, i)


# ---------------------------------------------------------------------------
# per-field classification
# ---------------------------------------------------------------------------

def entry_classes(report, e):
    return [frozenset(c)
            for c in oracles.classes(e.partition, report.field.q - 1)]


def entry_class_sets(report):
    return {frozenset(entry_classes(report, e)) for e in report.entries}


def test_gf5_single_paley_partition():
    report = classify_field(build_field(5, 1))
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.family == Paley()
    assert oracles.classes(entry.partition, 4) == ([0, 2], [1, 3])
    assert report.unmatched_count == 0


def test_gf9_partitions():
    report = classify_field(build_field(3, 2))
    assert report.unmatched_count == 0
    families = {family_key(e.family) for e in report.entries}
    assert families == {"paley", "peisert(1)", "peisert(3)"}
    sets = entry_class_sets(report)
    assert frozenset([frozenset({0, 2, 4, 6}), frozenset({1, 3, 5, 7})]) in sets
    assert frozenset([frozenset({0, 1, 4, 5}), frozenset({2, 3, 6, 7})]) in sets
    assert frozenset([frozenset({0, 3, 4, 7}), frozenset({1, 2, 5, 6})]) in sets
    assert len(report.entries) == 3


def test_gf4_degenerate_vls():
    report = classify_field(build_field(2, 2))
    assert report.unmatched_count == 0
    singleton = [e for e in report.entries
                 if entry_classes(report, e)[0] == frozenset({0})]
    assert len(singleton) == 1
    assert singleton[0].family == GeneralizedPaley(ell=3, k=1)
    # translated copies carry the multiplicative shift
    shifts = {e.shift for e in report.entries}
    assert shifts == {0, 1, 2}
    assert all(e.family == GeneralizedPaley(3, 1) for e in report.entries)


def test_gf16_includes_both_vls_indices():
    report = classify_field(build_field(2, 4))
    assert report.unmatched_count == 0
    fams = {family_key(e.family) for e in report.entries}
    assert fams == {"generalized-paley(3,2)", "generalized-paley(5,1)"}


def test_gf8_empty_report():
    report = classify_field(build_field(2, 3))
    assert report.entries == [] and report.unmatched_count == 0


def test_gf2_empty_report():
    report = classify_field(build_field(2, 1))
    assert report.entries == [] and report.unmatched_count == 0


def test_gf25_has_paley_but_no_peisert():
    report = classify_field(build_field(5, 2))
    fams = {family_key(e.family) for e in report.entries}
    assert "paley" in fams
    assert not any(k.startswith("peisert") for k in fams)
    assert report.unmatched_count == 0


def test_gf49_all_three_coarsenings_distinct():
    report = classify_field(build_field(7, 2))
    assert len(report.entries) == 3
    assert {family_key(e.family) for e in report.entries} == \
        {"paley", "peisert(1)", "peisert(3)"}
    assert len(entry_class_sets(report)) == 3
    assert report.unmatched_count == 0


def test_classification_cap():
    with pytest.raises(CapExceeded):
        classify_field(build_field(3, 2), cap=4)


# ---------------------------------------------------------------------------
# structural invariants of the classifier
# ---------------------------------------------------------------------------

def test_matched_class_equals_family_set_up_to_shift_and_complement():
    # the literal oracle for matching by lemma case: the first class is the
    # family set translated by the shift, never its complement
    for q in prime_powers_up_to(1024)[1:]:
        p, r = as_prime_power(q)
        report = classify_field(build_field(p, r))
        n = q - 1
        for e in report.entries:
            assert not isinstance(e.family, Unmatched)
            if isinstance(e.family, Paley):
                base = paley_index_set(q)
            elif isinstance(e.family, GeneralizedPaley):
                base = vls_index_set(q, e.family.ell)
            else:
                base = peisert_index_set(q, e.family.variant)
            target = {(x + e.shift) % n for x in base}
            assert oracles.classes(e.partition, n) == \
                (sorted(target), sorted(set(range(n)) - target)), (q, e)


def test_two_orbit_partitions_found_on_the_field():
    # the theorem checked on F_q^* itself: pair closure over the maps
    # x -> lam * x^(p^s) on field codes finds exactly classify_field's
    # partitions, read through omega^i only at the end
    for q in prime_powers_up_to(128):
        assert oracles.field_side_two_orbit_partitions(q) == \
            oracles.classified_field_codes(q), q


def test_labels_match_the_constructors():
    # classify reads each label from the preconditions alone; the
    # constructors build the set and must give the same label, and raise
    # exactly where classify reports Unmatched
    errors = (NotPrime, OrderCondition, DegreeCondition, CharCondition)
    for q in prime_powers_up_to(4096):
        field = build_field(*as_prime_power(q))
        for e in classify_field(field).entries:
            case = e.lemma_case
            if isinstance(case, Case1) and case.m == 2:
                assert e.family == Paley(), (q, e)
                continue
            try:
                if isinstance(case, Case1):
                    label = vls_connection_set(field, case.m,
                                               allow_directed=True).label
                else:
                    label = peisert_connection_set(field, case.variant).label
            except errors:
                label = Unmatched()
            assert e.family == label, (q, e)


def test_classify_builds_no_connection_set(monkeypatch):
    # labels come from the preconditions, so a constructor that raises is
    # never reached; GF(4096) still has 13, 5 and 3 case-1 partitions of
    # m = 13, 5 and 3, all generalized Paley
    def refuse(*args, **kwargs):
        raise AssertionError("classify built a connection set")

    for name in ("paley_connection_set", "vls_connection_set",
                 "peisert_connection_set"):
        monkeypatch.setattr(families, name, refuse)
        monkeypatch.setattr(classify, name, refuse, raising=False)
    report = classify_field(build_field(2, 12))
    assert [e.lemma_case.m for e in report.entries
            if isinstance(e.family, GeneralizedPaley)] == [13] * 13 + [5] * 5 + [3] * 3
    assert verify_theorem(prime_powers_up_to(1024) + [4096])["all_matched"]


def test_lemma_case_matches_family_kind():
    for p, r in [(3, 2), (2, 4), (7, 2)]:
        report = classify_field(build_field(p, r))
        for e in report.entries:
            if isinstance(e.family, Peisert):
                assert isinstance(e.lemma_case, Case2)
                assert e.lemma_case.variant == e.family.variant
            else:
                assert isinstance(e.lemma_case, Case1)


def test_unmet_preconditions_leave_a_case_unmatched():
    # the branch that would report a counterexample to the theorem: for
    # GF(9), ord_5(3) = 4 does not divide r = 2; for GF(25), p = 1 mod 4
    assert classify._match_family(build_field(3, 2), Case1(5, 0)) == (
        Unmatched(), 0)
    assert classify._match_family(build_field(5, 2), Case2(1)) == (
        Unmatched(), 0)


def test_partitions_invariant_under_witness_subgroups():
    # each partition the per-shift oracle finds is the orbit partition of
    # its witness pair, and the enumeration lists exactly those, in report
    # order
    for p, r in [(3, 2), (2, 4), (7, 2)]:
        field = build_field(p, r)
        ctx = gammal1_context(field)
        found = oracles.per_shift_two_orbit_partitions(ctx)
        for part, gens in found.items():
            assert oracles.orbits(ctx, list(gens)) == \
                [frozenset(c) for c in oracles.classes(part, ctx.n)]
        assert two_orbit_partitions_with_generators(ctx) == tuple(
            sorted(found, key=lambda part: oracles.sort_key(part, ctx.n)))


def test_streamed_theorem_documents_match_the_list_encoding():
    # field by field, the stream (classes spliced in as text) against
    # json.dumps of the report with its classes as int lists, the reference
    qs = prime_powers_up_to(4096)
    buf = io.StringIO()
    verify_theorem(qs, sink=buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == '{"fields": [' and lines[-1] == ""
    docs = [line.removesuffix(",") for line in lines[1:-2]]
    assert len(docs) == len(qs)
    for q, doc in zip(qs, docs):
        report = classify_field(build_field(*as_prime_power(q)))
        assert doc == oracles.theorem_document(report), q


def test_report_json_schema():
    doc = classify_field(build_field(3, 2)).to_json()
    assert {"q", "p", "r", "field", "partitions", "families", "unmatched"} <= set(doc)
    assert doc["unmatched"] == 0
    for entry in doc["partitions"]:
        assert {"classes", "lemma_case", "family", "complemented", "shift"} <= set(entry)
        c1, c2 = entry["classes"]
        assert sorted(c1 + c2) == list(range(8))
    json.dumps(doc)  # must be serializable


# ---------------------------------------------------------------------------
# theorem sweep plumbing
# ---------------------------------------------------------------------------

def test_as_prime_power():
    assert as_prime_power(16) == (2, 4)
    assert as_prime_power(13) == (13, 1)
    assert as_prime_power(1) is None
    assert as_prime_power(12) is None
    assert as_prime_power(1024) == (2, 10)


def test_prime_powers_up_to():
    assert prime_powers_up_to(16) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_prime_powers_match_trial_division():
    expected = [oracles.trial_division_prime_power(q) for q in range(-3, 5000)]
    assert [as_prime_power(q) for q in range(-3, 5000)] == expected
    listed = [q for q, pr in zip(range(-3, 5000), expected) if pr is not None]
    for q_max in [-3, 0, 1, 2, 3, 4, 8, 9, 24, 25, 26, 127, 128, 4999]:
        assert prime_powers_up_to(q_max) == [q for q in listed if q <= q_max]


def test_prime_power_sieve_factors_nothing(monkeypatch):
    # through the unbounded cache of prime_factors, factoring every q would
    # hold one entry per q <= q_max
    def refuse(*args):
        raise AssertionError("the sieve factored a number")

    monkeypatch.setattr(classify, "as_prime_power", refuse)
    monkeypatch.setattr(classify, "prime_factors", refuse)
    assert len(prime_powers_up_to(65536)) == 6635


def test_verify_theorem_small():
    buf = io.StringIO()
    summary = verify_theorem([2, 4, 5, 8, 9, 16, 25, 49], sink=buf)
    assert summary["all_matched"] and summary["unmatched_total"] == 0
    assert summary["fields_checked"] == 8
    doc = json.loads(buf.getvalue())
    assert doc["unmatched_total"] == 0
    assert len(doc["fields"]) == 8
    by_q = {d["q"]: d for d in summary["fields"]}
    assert by_q[9]["families"] == ["paley", "peisert(1)", "peisert(3)"]
    assert by_q[25]["families"] == ["generalized-paley(3,1)", "paley"]


def test_verify_theorem_rejects_non_prime_power():
    with pytest.raises(ValueError):
        verify_theorem([12])


def test_verify_theorem_checks_the_field_cap_before_any_field(monkeypatch):
    # 1048583, the first prime power over the field cap, is under the given
    # cap; it fails the sweep before GF(5) is built
    def refuse(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(classify, "build_field", refuse)
    with pytest.raises(CapExceeded, match="q = 1048583 exceeds the field cap "
                                          "1048576"):
        verify_theorem([5, 1048583], cap=2 ** 21)


def test_verify_theorem_checks_the_caps_before_it_factors_any_q(monkeypatch):
    # the least q over either cap fails the sweep before 4 or 5 is factored
    def refuse(q):
        raise AssertionError(f"q = {q} was factored")

    monkeypatch.setattr(classify, "as_prime_power", refuse)
    with pytest.raises(CapExceeded, match="q = 1048583 exceeds the field cap "
                                          "1048576"):
        verify_theorem([4, 5, 1048583], cap=10 ** 30)
    # a q over the cap fails the list before a smaller non-prime-power does
    with pytest.raises(CapExceeded, match="q = 5000 exceeds the "
                                          "classification cap 4096"):
        verify_theorem([6, 5000])


def test_verify_theorem_past_the_default_cap():
    # every prime power in (4096, 16384], with no class arrays written
    qs = [q for q in prime_powers_up_to(16384) if q > 4096]
    summary = verify_theorem(qs, cap=16384)
    assert summary["fields_checked"] == len(qs) == 1357
    assert summary["unmatched_total"] == 0 and summary["all_matched"]
    # and each field's count is the closed form, found without enumerating
    for f in summary["fields"]:
        assert f["partitions"] == oracles.closed_form_count(f["p"], f["r"]), f
