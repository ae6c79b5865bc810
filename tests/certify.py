"""Certify the lemma tables and the theorem against independent oracles.

    PYTHONPATH=src python tests/certify.py --k-max 400 --q-max 512

For every k <= K and every unit b mod k, the closed-form table
znaction._radical_full_table(k, b) must equal oracles.radical_full_oracle
(k, b), the per-shift cycle-count scan kept to the partitions of radical k.
Past K, to the lemma cap 4096, it checks PRIMES seeded primes k, 4093
among them, each with its least primitive root and one non-root, found by
the power walk of oracles.loop_mult_order, and CONTEXTS seeded contexts
(n, a) with K < n < 4096, the enumerator against
oracles.per_shift_two_orbit_partitions (n = 4096 alone takes 20 s).  For
every prime power q <= Q, the two-orbit partitions of classify_field,
mapped to field elements through the powers of omega, must equal those
oracles.field_side_two_orbit_partitions finds on the field itself.  For
every prime power q <= SWEEP_Q, the field cap 2^20, classify_field must
match every partition it finds and find as many as
oracles.closed_form_count, SWEEP_PARTITIONS in all, and the sha256 of the
fields' descriptors, one json.dumps line each in order of q, must be
FIELD_DIGEST: every modulus and omega up to the field cap is pinned.

Exits 0 when every check holds and 1 when any fails, each failure named on
stdout; bad arguments exit 2.  pytest does not collect this file: tier-1
runs the same checks on smaller ranges, and CI runs this as its own job.
"""

import argparse
import hashlib
import json
import random
import sys
import time

import oracles
from rank3affine.classify import classify_field, prime_powers_up_to
from rank3affine.errors import DEFAULT_N_CAP
from rank3affine.fields import build_field
from rank3affine.znaction import (AffineActionContext, _radical_full_table,
                                  two_orbit_partitions_with_generators, units)

SEED = 0
PRIMES = 30
CONTEXTS = 8
SWEEP_Q = 2 ** 20
# the two-orbit partitions of every field q <= SWEEP_Q
SWEEP_PARTITIONS = 82895
# the sha256 of the descriptor lines of every field q <= SWEEP_Q
FIELD_DIGEST = (
    "fcb5967b52992d89b6cca426738836a4dc3bd51e84acd2f28b15051baa912ea1")


def sampled_primes(k_max: int, count: int, rng: random.Random) -> list[int]:
    """count odd primes in (k_max, DEFAULT_N_CAP], the largest always among
    them; primes by trial division, not by the arithmetic under test."""
    primes = [k for k in range(k_max + 1, DEFAULT_N_CAP + 1)
              if k > 2 and all(k % d for d in range(2, int(k ** 0.5) + 1))]
    if not primes or count < 1:
        return []
    return sorted({primes[-1], *rng.sample(primes[:-1],
                                           min(count, len(primes)) - 1)})


def root_and_non_root(k: int, rng: random.Random) -> tuple[int, int]:
    """The least primitive root mod the odd prime k, and a seeded unit
    that is not one."""
    root = next(b for b in range(1, k)
                if oracles.loop_mult_order(b, k) == k - 1)
    while oracles.loop_mult_order(b := rng.randrange(1, k), k) == k - 1:
        pass
    return root, b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--k-max", type=int, required=True,
                        help="check the tables of every k <= K")
    parser.add_argument("--q-max", type=int, required=True,
                        help="check every prime power q <= Q on the field")
    args = parser.parse_args(argv)
    failures = 0
    start = time.perf_counter()
    pairs = 0
    for k in range(2, args.k_max + 1):
        for b in units(k):
            pairs += 1
            if _radical_full_table(k, b) != oracles.radical_full_oracle(k, b):
                print(f"k = {k}, b = {b}: the table is not the per-shift scan")
                failures += 1
    print(f"tables: {pairs} (k, b) with k <= {args.k_max} "
          f"({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    rng = random.Random(SEED)
    if primes := sampled_primes(args.k_max, PRIMES, rng):
        for k in primes:
            for b in root_and_non_root(k, rng):
                if (_radical_full_table(k, b)
                        != oracles.radical_full_oracle(k, b)):
                    print(f"k = {k}, b = {b}: the table is not the "
                          f"per-shift scan")
                    failures += 1
        print(f"sampled tables: {len(primes)} primes k in ({args.k_max}, "
              f"{DEFAULT_N_CAP}], up to {primes[-1]}, each with "
              f"a root and a non-root ({time.perf_counter() - start:.1f} s)")
    if CONTEXTS and args.k_max < DEFAULT_N_CAP - 1:
        start = time.perf_counter()
        rng = random.Random(SEED)
        for _ in range(CONTEXTS):
            n = rng.randrange(args.k_max + 1, DEFAULT_N_CAP)
            ctx = AffineActionContext(n, rng.choice(units(n)))
            if (two_orbit_partitions_with_generators(ctx)
                    != oracles.in_report_order(
                        oracles.per_shift_two_orbit_partitions(ctx), n)):
                print(f"n = {n}, a = {ctx.a}: the partitions are not the "
                      f"per-shift scan's")
                failures += 1
        print(f"sampled contexts: {CONTEXTS} with {args.k_max} < n < "
              f"{DEFAULT_N_CAP} ({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    qs = prime_powers_up_to(args.q_max)
    for q in qs:
        if (oracles.field_side_two_orbit_partitions(q)
                != oracles.classified_field_codes(q)):
            print(f"q = {q}: classify_field's partitions are not those "
                  f"found on the field")
            failures += 1
    print(f"fields: {len(qs)} prime powers q <= {args.q_max} "
          f"({time.perf_counter() - start:.1f} s)")
    start = time.perf_counter()
    qs = prime_powers_up_to(SWEEP_Q)
    total = 0
    digest = hashlib.sha256()
    for q in qs:
        p, r = oracles.trial_division_prime_power(q)
        field = build_field(p, r)
        digest.update(json.dumps(field.descriptor()).encode() + b"\n")
        report = classify_field(field, cap=SWEEP_Q)
        count = oracles.closed_form_count(p, r)
        if len(report.entries) != count or report.unmatched_count:
            print(f"q = {q}: classify_field finds {len(report.entries)} "
                  f"partitions, {report.unmatched_count} unmatched; the "
                  f"closed form counts {count}")
            failures += 1
        total += len(report.entries)
    if total != SWEEP_PARTITIONS:
        print(f"the fields q <= {SWEEP_Q} have {total} partitions, not "
              f"{SWEEP_PARTITIONS}")
        failures += 1
    if digest.hexdigest() != FIELD_DIGEST:
        print(f"the descriptors of the fields q <= {SWEEP_Q} hash to "
              f"{digest.hexdigest()}, not {FIELD_DIGEST}")
        failures += 1
    print(f"field counts: {len(qs)} prime powers q <= {SWEEP_Q}, {total} "
          f"partitions, descriptors hashed "
          f"({time.perf_counter() - start:.1f} s)")
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
