"""Workloads: the rank3affine argv lists a seed generates, and the checks
that turn each command's exit code and report into failed operations.

An operation is one context (lemma), one field (theorem) or one graph
(construct).  The program sees only the generated argv; every expected value
comes from ``expected.json``, recorded from the program by ``record.py``.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

LEMMA_N_MAX = 100
THEOREM_Q_MAX = 512
# Always in the theorem tail: GF(2^12) has the largest build_field tables
# and the highest peak RSS of the sweep, so no seed changes peak_rss_mb.
THEOREM_TAIL_FIXED = 4096
# The seeded tail draws one prime from each of these ranges.
THEOREM_TAIL_RANGES = ((1024, 2048), (2048, 3072), (3072, 4096))
CONSTRUCT_Q_RANGE = (512, 1024)
CONSTRUCT_PER_FAMILY = 4
# A seeded sample is the best of this many draws at matching the mean cost.
DRAWS = 64


@functools.cache
def recorded() -> dict:
    return json.loads(Path(__file__).with_name("expected.json").read_text())


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``rank3affine *args --output FILE``."""
    kind: str            # "lemma", "theorem" or "construct"
    args: tuple          # argv after the program name, without --output
    ops: int             # operations the command attempts
    expect: object       # what a correct report must show


def lemma_sweep(seed: int, n_max: int = LEMMA_N_MAX) -> list[Command]:
    """Every context (n, a), n <= n_max; the sweep is exhaustive, so the
    seed selects nothing."""
    del seed
    contexts = sum(1 for n in range(2, n_max + 1) for a in range(1, n)
                   if gcd(a, n) == 1)
    args = ("verify", "--lemma", "--n-max", str(n_max))
    return [Command("lemma", args, contexts,
                    recorded()["lemma_partitions"][str(n_max)])]


def theorem_sweep(seed: int, q_max: int = THEOREM_Q_MAX,
                  tail: bool = True) -> list[Command]:
    """Every prime power q <= q_max, plus, with tail, 4096 and one seeded
    prime from each of THEOREM_TAIL_RANGES: prime fields (the O(q^2) b = 1
    path), drawn so that every seed's tail costs about the same."""
    expected = recorded()
    counts = {int(q): c for q, c in expected["theorem_partitions"].items()}
    rng = random.Random(seed)
    qs = [q for q in sorted(counts) if q <= q_max]
    if tail:
        qs.append(THEOREM_TAIL_FIXED)
        strata = [[q for q in counts if lo < q <= hi and _is_prime(q)]
                  for lo, hi in THEOREM_TAIL_RANGES]
        qs += _balanced(rng, strata, _prime_field_steps)
    qs = sorted(set(qs))
    args = ("verify", "--theorem") + tuple(a for q in qs for a in ("--q", str(q)))
    return [Command("theorem", args, len(qs),
                    tuple((q, counts[q]) for q in qs))]


def construct_srg(seed: int, q_range=CONSTRUCT_Q_RANGE) -> list[Command]:
    """A stratified sample of admissible constructions with q in q_range:
    each family's instances, sorted by q, are cut into CONSTRUCT_PER_FAMILY
    runs of neighbours and one instance is drawn from each, so every seed
    draws graphs of similar sizes.  A graph on q vertices costs about q^2,
    and the draws are balanced on that."""
    rng = random.Random(seed)
    lo, hi = q_range
    strata = []
    for family in ("paley", "vls", "peisert"):
        pool = [e for e in recorded()["construct_pool"]
                if e["family"] == family and lo <= e["p"] ** e["r"] <= hi]
        pool.sort(key=lambda e: (e["p"] ** e["r"], e.get("ell", 0),
                                 e.get("variant", 0)))
        chunks = min(CONSTRUCT_PER_FAMILY, len(pool))
        strata += [pool[i * len(pool) // chunks:(i + 1) * len(pool) // chunks]
                   for i in range(chunks)]
    picks = _balanced(rng, strata, lambda e: (e["p"] ** e["r"]) ** 2)
    return [_construct_command(e) for e in picks]


def _balanced(rng: random.Random, strata: list[list], cost) -> list:
    """One item from each stratum: of DRAWS seeded draws, the one whose
    total cost is nearest the mean total, so that seeds differ in their
    inputs but not in the work they ask for."""
    mean = sum(sum(map(cost, s)) / len(s) for s in strata)
    draws = [[rng.choice(s) for s in strata] for _ in range(DRAWS)]
    return min(draws, key=lambda d: abs(sum(map(cost, d)) - mean))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _prime_field_steps(q: int) -> int:
    """Steps of the enumeration for a prime field GF(q), which dominates its
    cost: on the b = 1 path, each even divisor k of q - 1 has phi(k/2)
    shifts t with gcd(t, k) = 2, and each shift walks all of Z_k."""
    n = q - 1
    return sum(k * _phi(k // 2) for k in range(2, n + 1, 2) if n % k == 0)


def _phi(m: int) -> int:
    result, rest, d = m, m, 2
    while d * d <= rest:
        if rest % d == 0:
            result -= result // d
            while rest % d == 0:
                rest //= d
        d += 1
    return result - result // rest if rest > 1 else result


def _construct_command(e: dict) -> Command:
    q = e["p"] ** e["r"]
    args = ("construct", "--family", e["family"], "--p", str(e["p"]),
            "--r", str(e["r"]))
    if e["family"] == "vls":
        args += ("--ell", str(e["ell"]))
        expect = tuple(e["srg"])
    else:
        if e["family"] == "peisert":
            args += ("--variant", str(e["variant"]))
        # Paley and Peisert graphs share the conference-graph parameters
        expect = (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)
    return Command("construct", args + ("--format", "json"), 1, expect)


WORKLOADS = {
    "lemma-sweep": lemma_sweep,
    "theorem-sweep": theorem_sweep,
    "construct-srg": construct_srg,
}


def warmup(kind: str) -> Command:
    """A small command of the kind, run untimed before measuring so that the
    bytecode cache is warm, as it is for a user's second command."""
    if kind == "lemma":
        return lemma_sweep(0, n_max=12)[0]
    if kind == "theorem":
        return theorem_sweep(0, q_max=9, tail=False)[0]
    return construct_srg(0, q_range=(13, 13))[0]


def failed_ops(cmd: Command, exit_code: int, report: bytes) -> int:
    """How many of cmd's operations failed, judged from its exit code and
    its report: a non-zero exit or an unparsable report fails them all."""
    if exit_code != 0:
        return cmd.ops
    try:
        doc = json.loads(report)
        if cmd.kind == "lemma":
            if (doc["partitions_checked"] != cmd.expect
                    or len(doc["contexts"]) != cmd.ops):
                return cmd.ops
            return sum(1 for c in doc["contexts"] if c["violations"])
        if cmd.kind == "theorem":
            fields = {f["q"]: f for f in doc["fields"]}
            return sum(1 for q, count in cmd.expect
                       if q not in fields or fields[q]["unmatched"]
                       or len(fields[q]["partitions"]) != count)
        srg = doc["srg"]
        got = (srg["v"], srg["k"], srg["lambda"], srg["mu"])
        return 0 if got == cmd.expect else 1
    except (ValueError, KeyError, TypeError):
        return cmd.ops
