"""Record expected.json from the rank3affine sources in this checkout.

Usage: python3 perfbench/record.py      (about ten minutes on one core)

The benchmark checks every report against these values, so record them
only from a commit whose verdicts are trusted.  Recorded:

- lemma_partitions: partitions_checked of ``verify --lemma`` for the
  n_max the workload and the tests use;
- theorem_partitions: the number of two-orbit partitions of F_q^* for
  every prime power q <= 4096;
- construct_pool: every admissible construction with q in the ranges the
  workload and the tests use (vls with ell = 2 is the Paley graph and is
  left out), with the recorded SRG tuple for vls graphs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from rank3affine.classify import (as_prime_power, classify_field,  # noqa: E402
                                  prime_powers_up_to)
from rank3affine.errors import Rank3Error  # noqa: E402
from rank3affine.families import (paley_connection_set,  # noqa: E402
                                  peisert_connection_set, vls_connection_set)
from rank3affine.fields import build_field, is_prime  # noqa: E402
from rank3affine.graphs import build_cayley, srg_params  # noqa: E402
from rank3affine.znaction import verify_lemma  # noqa: E402
from workloads import CONSTRUCT_Q_RANGE, LEMMA_N_MAX  # noqa: E402

LEMMA_SIZES = (12, LEMMA_N_MAX)
CONSTRUCT_RANGES = ((9, 16), CONSTRUCT_Q_RANGE)


def construct_pool() -> list[dict]:
    pool = []
    for lo, hi in CONSTRUCT_RANGES:
        for q in prime_powers_up_to(hi):
            if q < lo:
                continue
            p, r = as_prime_power(q)
            field = build_field(p, r)
            constructors = [({"family": "paley"}, paley_connection_set, ())]
            constructors += [({"family": "vls", "ell": ell},
                              vls_connection_set, (ell,))
                             for ell in range(3, q) if is_prime(ell)]
            constructors += [({"family": "peisert", "variant": v},
                              peisert_connection_set, (v,)) for v in (1, 3)]
            for entry, build, args in constructors:
                try:
                    conn = build(field, *args)
                except Rank3Error:
                    continue
                entry.update(p=p, r=r)
                if entry["family"] == "vls":
                    entry["srg"] = list(srg_params(build_cayley(field, conn))
                                        .as_tuple())
                pool.append(entry)
    return pool


def main() -> int:
    expected = {"lemma_partitions": {
        str(n): verify_lemma(n)["partitions_checked"] for n in LEMMA_SIZES}}
    counts = {}
    for q in prime_powers_up_to(4096):
        p, r = as_prime_power(q)
        report = classify_field(build_field(p, r))
        counts[str(q)] = len(report.entries)
        if report.unmatched_count:
            raise SystemExit(f"q = {q}: {report.unmatched_count} unmatched")
    expected["theorem_partitions"] = counts
    expected["construct_pool"] = construct_pool()
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
