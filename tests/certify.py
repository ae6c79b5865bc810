"""Certify the lemma tables and the theorem against independent oracles.

    PYTHONPATH=src python tests/certify.py --k-max 400 --q-max 512

For every k <= K and every unit b mod k, the closed-form table
znaction._radical_full_table(k, b) must equal oracles.radical_full_oracle
(k, b), the per-shift cycle-count scan kept to the partitions of radical k.
For every prime power q <= Q, the two-orbit partitions of classify_field,
mapped to field elements through the powers of omega, must equal those
oracles.field_side_two_orbit_partitions finds on the field itself.

Exits 0 when every check holds and 1 when any fails, each failure named on
stdout; bad arguments exit 2.  pytest does not collect this file: tier-1
runs the same checks on smaller ranges, and CI runs this as its own job.
"""

import argparse
import sys
import time

import oracles
from rank3affine.classify import prime_powers_up_to
from rank3affine.znaction import _radical_full_table, units


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
    qs = prime_powers_up_to(args.q_max)
    for q in qs:
        if (oracles.field_side_two_orbit_partitions(q)
                != oracles.classified_field_codes(q)):
            print(f"q = {q}: classify_field's partitions are not those "
                  f"found on the field")
            failures += 1
    print(f"fields: {len(qs)} prime powers q <= {args.q_max} "
          f"({time.perf_counter() - start:.1f} s)")
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
