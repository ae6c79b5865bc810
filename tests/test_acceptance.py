"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criteria 1 and 3 execute the installed CLI in a subprocess.
"""

import hashlib
import json
import subprocess
import sys
import time

import oracles
from rank3affine.classify import as_prime_power, classify_field, prime_powers_up_to
from rank3affine.families import (ConnectionSet, GeneralizedPaley, Paley,
                                  Peisert, paley_connection_set,
                                  peisert_connection_set, vls_connection_set)
from rank3affine.fields import build_field
from rank3affine.graphs import build_cayley, export_graph6, srg_params
from rank3affine.znaction import (AffineActionContext, OrbitPartition,
                                  two_orbit_partitions_with_generators, units)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _cli(args, output):
    cmd = [sys.executable, "-m", "rank3affine"] + args + ["--output", str(output)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc, time.time() - start


# sha256 of the n <= 200 lemma report, pinned like the golden reports
LEMMA200_SHA256 = (
    "4443ec58d1fc00118e4e8292c1a1f104f9da8e2e6623b4d4421f6899f178d4c4")
# and of the default (q <= 1024) theorem report
THEOREM1024_SHA256 = (
    "75cf1a067ec479e5499f991d3517294133f5207b4ce24fd0ec06f0746da819b0")


def test_criterion_1_lemma_exhaustion(tmp_path):
    out = tmp_path / "lemma200.json"
    proc, elapsed = _cli(["verify", "--lemma", "--n-max", "200"], out)
    raw = out.read_bytes() if proc.returncode == 0 else b"{}"
    doc = json.loads(raw)
    digest = hashlib.sha256(raw).hexdigest()
    ok = (proc.returncode == 0 and doc.get("violation_count") == 0
          and digest == LEMMA200_SHA256 and elapsed < 120)
    _report("criterion 1: lemma exhaustion n <= 200", ok,
            f"exit={proc.returncode}, violations={doc.get('violation_count')}, "
            f"sha256 {'pinned' if digest == LEMMA200_SHA256 else digest}, "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_2_lemma_oracle_equivalence():
    start = time.time()
    mismatches = []
    for n in range(2, 25):
        for a in units(n):
            ctx = AffineActionContext(n, a)
            ours = {frozenset(frozenset(c) for c in oracles.classes(p, n))
                    for p in two_orbit_partitions_with_generators(ctx)}
            brute = oracles.pair_closure_two_orbit_partitions(n, a)
            if ours != brute:
                mismatches.append((n, a))
    _report("criterion 2: pair-closure oracle equivalence n <= 24",
            not mismatches,
            f"mismatches={mismatches or 'none'}, {time.time() - start:.1f}s")


def test_criterion_3_theorem_exhaustion(tmp_path):
    out = tmp_path / "theorem1024.json"
    proc, elapsed = _cli(["verify", "--theorem"], out)
    raw = out.read_bytes() if proc.returncode == 0 else b"{}"
    doc = json.loads(raw)
    digest = hashlib.sha256(raw).hexdigest()
    ok = (proc.returncode == 0 and doc.get("unmatched_total") == 0
          and doc.get("fields_checked") == len(prime_powers_up_to(1024))
          and digest == THEOREM1024_SHA256 and elapsed < 300)
    _report("criterion 3: theorem exhaustion q <= 1024", ok,
            f"exit={proc.returncode}, fields={doc.get('fields_checked')}, "
            f"unmatched={doc.get('unmatched_total')}, "
            f"sha256 {'pinned' if digest == THEOREM1024_SHA256 else digest}, "
            f"{elapsed:.1f}s (< 300s)")


def test_criterion_4_construction_srg_cross_checks():
    start = time.time()
    f9 = build_field(3, 2)
    ok9 = srg_params(build_cayley(f9, paley_connection_set(f9))).as_tuple() == (9, 4, 1, 2)

    f16 = build_field(2, 4)
    ok16 = srg_params(build_cayley(f16, vls_connection_set(f16, 3))).as_tuple() == (16, 5, 0, 2)

    f49 = build_field(7, 2)
    srg49 = srg_params(build_cayley(f49, peisert_connection_set(f49, 1)))
    ok49 = (srg49.as_tuple() == (49, 24, 11, 12)
            and srg49 == oracles.paley_parameter_formula(49))

    failures = []
    for q in prime_powers_up_to(1024):
        if q % 4 != 1:
            continue
        p, r = as_prime_power(q)
        f = build_field(p, r)
        g = build_cayley(f, paley_connection_set(f))
        if srg_params(g) != oracles.paley_parameter_formula(q):
            failures.append(q)
    ok = ok9 and ok16 and ok49 and not failures
    _report("criterion 4: construction / SRG cross-checks", ok,
            f"paley9={ok9}, vls16={ok16}, peisert49={ok49}, "
            f"paley sweep failures={failures or 'none'}, "
            f"{time.time() - start:.1f}s")


def test_criterion_5_peisert_paley_coincidence_at_9():
    f9 = build_field(3, 2)
    paley = build_cayley(f9, paley_connection_set(f9))
    v1 = build_cayley(f9, peisert_connection_set(f9, 1))
    v3 = build_cayley(f9, peisert_connection_set(f9, 3))
    ok = (oracles.is_isomorphic_small(v1, paley)
          and oracles.is_isomorphic_small(v1, v3))
    _report("criterion 5: Peisert(9) ~= Paley(9) and variant conjugacy", ok)


def test_criterion_6_coarsening_remark():
    start = time.time()
    checked = []
    failures = []
    for q in prime_powers_up_to(1024):
        p, r = as_prime_power(q)
        if p % 4 != 3 or r % 2 != 0:
            continue
        checked.append(q)
        field = build_field(p, r)
        # the Paley and the two Peisert pairings of the classes mod 4
        coarsenings = {label: oracles.classes(OrbitPartition(m, r1), q - 1)
                       for label, m, r1 in ((Paley(), 2, {0}),
                                            (Peisert(1), 4, {0, 1}),
                                            (Peisert(3), 4, {0, 3}))}
        firsts = {tuple(first) for first, _ in coarsenings.values()}
        if len(firsts) != 3:
            failures.append((q, "coarsenings not pairwise distinct"))
            continue
        produced = {frozenset(frozenset(c)
                              for c in oracles.classes(e.partition, q - 1))
                    for e in classify_field(field).entries}
        for label, classes in coarsenings.items():
            if frozenset(frozenset(c) for c in classes) not in produced:
                failures.append((q, f"{label} not produced by classify_field"))
        expected = oracles.paley_parameter_formula(q)
        for label, (first, _) in coarsenings.items():
            g = build_cayley(field, ConnectionSet(field, first, label))
            if srg_params(g) != expected:
                failures.append((q, f"{label} is not an SRG with Paley parameters"))
    ok = not failures and checked == [9, 49, 81, 121, 361, 529, 729, 961]
    _report("criterion 6: three coarsenings at p = 3 mod 4, r even", ok,
            f"fields={checked}, failures={failures or 'none'}, "
            f"{time.time() - start:.1f}s")


def test_criterion_7_degenerate_gf4():
    field = build_field(2, 2)
    report = classify_field(field)
    singleton = [e for e in report.entries
                 if oracles.classes(e.partition, 3)[0] == [0]
                 and e.family == GeneralizedPaley(ell=3, k=1)]
    graph = build_cayley(field, vls_connection_set(field, 3))
    ok = (len(singleton) == 1
          and all(len(graph.neighbors(x)) == 1 for x in range(4)))
    _report("criterion 7: GF(4) singleton VLS(3,1) and 1-regular graph", ok)


def test_criterion_8_graph6_roundtrip():
    f5 = build_field(5, 1)
    g = build_cayley(f5, paley_connection_set(f5))
    data = export_graph6(g)
    v, edges = oracles.decode_graph6(data)
    expected = {frozenset((x, y)) for x in range(5) for y in g.neighbors(x)}
    ok = v == 5 and edges == expected and data == b"Dhc"
    _report("criterion 8: graph6 round-trip through independent decoder", ok,
            f"encoded={data!r}")
