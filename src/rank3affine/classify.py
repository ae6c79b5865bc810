"""Exhaustive classification of two-orbit partitions of F_q^*.

GammaL(1, q) acting on F_q^* becomes, in dlog coordinates, the affine group
Z_{q-1} x| <p>: multiplication by omega is translation by 1 and the
Frobenius map is multiplication by p.  Every two-orbit subgroup partition
of that context is classified by the lemma, and its case names the family:
case 1 with m = 2 is the Paley set, case 1 with an odd prime m the
generalized Paley set of index m, and case 2 a Peisert set.  Each is
matched when that family's preconditions hold for GF(q), as checked by
families.vls_label and peisert_label, so no connection set is built.  No
class is compared with a family set: a case-1 first class is the single coset
shift + mZ_{q-1}, the family set translated by shift (a multiplicative
shift of the connection set, hence a graph isomorphism), and a case-2
first class has residues {0, variant} mod 4, the Peisert set itself.
Together this checks that the Paley, generalized Paley and Peisert sets
are the only possibilities.

The theorem report holds both classes of every partition, about q integers
per partition.  ClassificationReport.dumps is the field document's only
encoder: the class arrays come as text from OrbitPartition.classes_json,
spliced into json.dumps of the rest, with no Python step or int per class
element.  The digit strings they are joined from are shared and grow to
the largest field written, so peak memory is bounded by one field's
strings, not by the sum of q over the sweep.  verify_theorem streams the
documents; to_json loads one back for classify's indented report.
"""

from __future__ import annotations

import json
from itertools import compress, count
from math import isqrt

from .arith import mult_order, prime_factors
from .errors import (DEFAULT_FIELD_CAP, DEFAULT_N_CAP, CapExceeded,
                     CharCondition, DegreeCondition, InvariantViolation,
                     NotPrime, NotPrimePower, OrderCondition)
from .families import (FamilyLabel, Paley, Unmatched, label_to_json,
                       peisert_label, vls_label)
from .fields import FiniteField, build_field
from .znaction import (AffineActionContext, Case1, Case2,
                       LemmaCase, OrbitPartition, case_to_json,
                       classify_partition, json_splice,
                       two_orbit_partitions_with_generators)
from .values import Value


def gammal1_context(field: FiniteField) -> AffineActionContext:
    """The dlog-space context (n = q - 1, a = p); Frobenius has order r.

    p^j = 1 mod (q-1) forces p^j - 1 >= q - 1, so the order is exactly r:
    p^r = 1 and no p^(r/l) = 1 for a prime l | r.  That check factors only
    r; mult_order, which would factor q - 1 and phi(q - 1) and keep both in
    the cache of prime_factors, runs only to word a failure.  GF(2) has
    n = 1, which AffineActionContext refuses.
    """
    ctx = AffineActionContext(field.q - 1, field.p)
    a, n, r = ctx.a, ctx.n, field.r
    if pow(a, r, n) != 1 or any(pow(a, r // l, n) == 1
                                for l in prime_factors(r)):
        raise InvariantViolation(
            f"p = {field.p} has order {mult_order(a, n)} mod {n}, "
            f"not r = {r}")
    return ctx


class ClassifiedPartition(Value):
    """An OrbitPartition with its lemma case, family label and shift."""
    __slots__ = _fields = ("partition", "lemma_case", "family", "shift")

    def to_json(self) -> dict:
        """The report entry after its classes.

        The first class is the family set itself, never its complement,
        so "complemented" is always false; the key stays in the schema.
        """
        return {"lemma_case": case_to_json(self.lemma_case),
                "family": label_to_json(self.family),
                "complemented": False, "shift": self.shift}


class ClassificationReport(Value):
    """A field's ClassifiedPartitions.  Its entries are a list, so it does
    not hash."""
    __slots__ = _fields = ("field", "entries", "unmatched_count")

    def families_present(self) -> list[str]:
        seen = set()
        for e in self.entries:
            if not isinstance(e.family, Unmatched):
                seen.add(family_key(e.family))
        return sorted(seen)

    def to_json(self) -> dict:
        return json.loads(self.dumps())

    def dumps(self) -> str:
        """The field's report as compact JSON text, each entry led by its
        classes of Z_{q-1}, spliced in as text from
        OrbitPartition.classes_json."""
        desc = self.field.descriptor()
        n = self.field.q - 1
        entries = ", ".join(
            json_splice({}, "classes", e.partition.classes_json(n), e.to_json())
            for e in self.entries)
        return json_splice(
            {"q": desc["q"], "p": desc["p"], "r": desc["r"], "field": desc},
            "partitions", "[" + entries + "]",
            {"families": self.families_present(),
             "unmatched": self.unmatched_count})


def family_key(label: FamilyLabel) -> str:
    values = label._values()
    return label.name + (f"({','.join(map(str, values))})" if values else "")


def _match_family(field: FiniteField, case: LemmaCase) -> tuple[FamilyLabel, int]:
    """The family the lemma case points at, if GF(q) meets its preconditions.

    Returns (label, shift): the first class is the family set translated by
    shift (multiplication by omega^shift on the field side).
    """
    try:
        if isinstance(case, Case1):
            if case.m == 2:
                return Paley(), case.shift
            return vls_label(field, case.m), case.shift
        if isinstance(case, Case2):
            return peisert_label(field, case.variant), 0
    except (NotPrime, OrderCondition, DegreeCondition, CharCondition):
        pass
    return Unmatched(), 0


def classify_field(field: FiniteField, cap: int = DEFAULT_N_CAP) -> ClassificationReport:
    """Classify every two-orbit partition of F_q^* under GammaL(1, q)."""
    if field.q > cap:
        raise CapExceeded(f"q = {field.q} exceeds the classification cap {cap}")
    if field.q == 2:
        return ClassificationReport(field, [], 0)
    ctx = gammal1_context(field)
    entries = []
    unmatched = 0
    # the enumeration comes in report order
    for part in two_orbit_partitions_with_generators(ctx, cap=cap):
        case = classify_partition(ctx, part)
        family, shift = _match_family(field, case)
        if isinstance(family, Unmatched):
            unmatched += 1
        entries.append(ClassifiedPartition(part, case, family, shift))
    return ClassificationReport(field, entries, unmatched)


# ---------------------------------------------------------------------------
# theorem-level sweep
# ---------------------------------------------------------------------------

def as_prime_power(q: int) -> tuple[int, int] | None:
    """(p, r) with q = p^r, or None if q is not a prime power >= 2."""
    if q < 2 or len(prime_factors(q)) != 1:
        return None
    (p,) = prime_factors(q)
    return p, next(r for r in count(1) if p ** r == q)


def prime_powers_up_to(q_max: int) -> list[int]:
    """The prime powers 2 <= q <= q_max, ascending: the primes from one
    sieve of Eratosthenes, then the powers p^k, k >= 2, of the primes up to
    sqrt(q_max).  No q is factored, so the sieve adds no entry to the
    cache of prime_factors."""
    root = isqrt(max(q_max, 0))
    flags = bytearray(2) + bytearray([1]) * (q_max - 1)
    for p in range(2, root + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, q_max + 1, p)))
    for p in compress(range(root + 1), flags[:root + 1]):
        power = p * p
        while power <= q_max:
            flags[power] = 1
            power *= p
    return list(compress(range(q_max + 1), flags))


def verify_theorem(q_values, cap: int = DEFAULT_N_CAP, sink=None) -> dict:
    """Run classify_field over the given q values and tally unmatched counts.

    Returns fields_checked, unmatched_total and all_matched, nothing per
    field: a field's report is dropped once its document is written, so a
    sweep to the field cap holds one field at a time.  When sink is given,
    the full per-field reports (with class arrays) are streamed to it as one
    JSON document, which is where each field's counts and families are.
    """
    qs = sorted(set(q_values))
    # the least q over a cap fails first: factoring a huge q would not end
    q = next((q for q in qs if q > min(cap, DEFAULT_FIELD_CAP)), None)
    if q is not None:
        raise CapExceeded(
            f"q = {q} exceeds the classification cap {cap}" if q > cap
            else f"q = {q} exceeds the field cap {DEFAULT_FIELD_CAP}")
    q = next((q for q in qs if as_prime_power(q) is None), None)
    if q is not None:
        raise NotPrimePower(f"q = {q} is not a prime power")
    unmatched_total = 0
    if sink:
        sink.write('{"fields": [\n')
    for i, q in enumerate(qs):
        report = classify_field(build_field(*as_prime_power(q)), cap=cap)
        unmatched_total += report.unmatched_count
        if sink:
            sink.write((",\n" if i else "") + report.dumps())
    summary = {"fields_checked": len(qs), "unmatched_total": unmatched_total,
               "all_matched": unmatched_total == 0}
    if sink:
        sink.write("\n], " + json.dumps(summary)[1:] + "\n")
    return summary
