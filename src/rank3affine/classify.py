"""Exhaustive classification of two-orbit partitions of F_q^*.

GammaL(1, q) acting on F_q^* becomes, in dlog coordinates, the affine group
Z_{q-1} x| <p>: multiplication by omega is translation by 1 and the
Frobenius map is multiplication by p.  Every two-orbit subgroup partition
of that context is classified by the lemma, and its case names the family:
case 1 with m = 2 is the Paley set, case 1 with an odd prime m the
generalized Paley set of index m, and case 2 a Peisert set.  Each is
matched when that family's preconditions hold for GF(q).  No class is
compared with a family set: a case-1 first class is the single coset
shift + mZ_{q-1}, the family set translated by shift (a multiplicative
shift of the connection set, hence a graph isomorphism), and a case-2
first class has residues {0, variant} mod 4, the Peisert set itself.
Together this checks that the Paley, generalized Paley and Peisert sets
are the only possibilities.

The theorem report holds both classes of every partition, about q integers
per partition.  verify_theorem streams each field's document as
ClassificationReport.dumps: the class arrays come as text from
OrbitPartition.classes_json, spliced into json.dumps of the rest, so the
bytes are those of json.dumps(report.to_json()) without a Python step or
an int per class element.  The digit strings they are joined from are
shared and grow to the largest field written, so peak memory is bounded
by one field's strings, not by the sum of q over the sweep.  to_json, with
the classes as lists, serves classify's indented report and the tests.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import (CapExceeded, CharCondition, DegenerateModulus,
                     DegreeCondition, InvariantViolation, NotPrime,
                     NotPrimePower, OrderCondition)
from .families import (FamilyLabel, GeneralizedPaley, Paley, Peisert, Unmatched,
                       label_to_json, peisert_connection_set,
                       vls_connection_set)
from .fields import FiniteField, build_field
from .znaction import (AffineActionContext, Case1, Case2, LemmaCase,
                       OrbitPartition, Violation, case_to_json,
                       classify_partition, json_splice,
                       two_orbit_partitions_with_generators)
from .values import Value

DEFAULT_Q_CAP = 4096


def gammal1_context(field: FiniteField) -> AffineActionContext:
    """The dlog-space context (n = q - 1, a = p); Frobenius has order r."""
    if field.q == 2:
        raise DegenerateModulus(
            "q = 2: F_q^* is a single point, no two-orbit partitions exist")
    ctx = AffineActionContext(field.q - 1, field.p % (field.q - 1))
    # p^j = 1 mod (q-1) forces p^j - 1 >= q - 1, so the order is exactly r
    if ctx.m_ord != field.r:
        raise InvariantViolation(
            f"p = {field.p} has order {ctx.m_ord} mod {field.q - 1}, not r = {field.r}")
    return ctx


class ClassifiedPartition(Value):
    """An OrbitPartition with its lemma case, family label and shift."""
    __slots__ = _fields = ("partition", "lemma_case", "family", "shift")

    def to_json(self, n: int | None = None) -> dict:
        """The report entry, led by the classes of Z_n when n is given.

        The first class is the family set itself, never its complement,
        so "complemented" is always false; the key stays in the schema.
        """
        doc: dict = {}
        if n is not None:
            doc["classes"] = json.loads(self.partition.classes_json(n))
        doc["lemma_case"] = case_to_json(self.lemma_case)
        doc["family"] = label_to_json(self.family)
        doc["complemented"] = False
        doc["shift"] = self.shift
        return doc


class ClassificationReport(Value):
    """A field's ClassifiedPartitions; unlike other values, mutable."""
    __slots__ = _fields = ("field", "entries", "unmatched_count")
    __setattr__, __hash__ = object.__setattr__, None

    def families_present(self) -> list[str]:
        seen = set()
        for e in self.entries:
            if not isinstance(e.family, Unmatched):
                seen.add(family_key(e.family))
        return sorted(seen)

    def _frame(self) -> tuple[dict, dict]:
        # the keys of the report before "partitions", and those after it
        desc = self.field.descriptor()
        return ({"q": desc["q"], "p": desc["p"], "r": desc["r"], "field": desc},
                {"families": self.families_present(),
                 "unmatched": self.unmatched_count})

    def to_json(self) -> dict:
        head, tail = self._frame()
        n = self.field.q - 1
        return {**head, "partitions": [e.to_json(n) for e in self.entries],
                **tail}

    def dumps(self) -> str:
        """json.dumps(self.to_json()), byte for byte, with each entry's
        classes spliced in as text from OrbitPartition.classes_json."""
        head, tail = self._frame()
        n = self.field.q - 1
        entries = ", ".join(
            json_splice({}, "classes", e.partition.classes_json(n), e.to_json())
            for e in self.entries)
        return json_splice(head, "partitions", "[" + entries + "]", tail)


def family_key(label: FamilyLabel) -> str:
    if isinstance(label, Paley):
        return "paley"
    if isinstance(label, GeneralizedPaley):
        return f"generalized-paley({label.ell},{label.k})"
    if isinstance(label, Peisert):
        return f"peisert({label.variant})"
    return "unmatched"


@lru_cache(maxsize=8)
def _vls_label(field: FiniteField, ell: int) -> FamilyLabel:
    # the label of the index-ell subgroup depends on the field and ell
    # alone; report order keeps one ell's partitions together, so a field
    # builds each of its subgroups once, and a few entries are kept
    return vls_connection_set(field, ell, allow_directed=True).label


def _match_family(field: FiniteField, case: LemmaCase) -> tuple[FamilyLabel, int]:
    """The family the lemma case points at, if GF(q) meets its preconditions.

    Returns (label, shift): the first class is the family set translated by
    shift (multiplication by omega^shift on the field side).
    """
    try:
        if isinstance(case, Case1):
            if case.m == 2:
                return Paley(), case.shift
            return _vls_label(field, case.m), case.shift
        if isinstance(case, Case2):
            return peisert_connection_set(field, case.variant).label, 0
    except (NotPrime, OrderCondition, DegreeCondition, CharCondition):
        pass
    return Unmatched(), 0


def classify_field(field: FiniteField, cap: int = DEFAULT_Q_CAP) -> ClassificationReport:
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
        if isinstance(family, Unmatched) or isinstance(case, Violation):
            unmatched += 1
        entries.append(ClassifiedPartition(part, case, family, shift))
    return ClassificationReport(field, entries, unmatched)


# ---------------------------------------------------------------------------
# theorem-level sweep
# ---------------------------------------------------------------------------

def as_prime_power(q: int) -> tuple[int, int] | None:
    """(p, r) with q = p^r, or None if q is not a prime power >= 2."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)
        if q % p == 0:
            r = 0
            while q % p == 0:
                q //= p
                r += 1
            return (p, r) if q == 1 else None
    return None


def prime_powers_up_to(q_max: int) -> list[int]:
    return [q for q in range(2, q_max + 1) if as_prime_power(q) is not None]


def verify_theorem(q_values, cap: int = DEFAULT_Q_CAP, sink=None) -> dict:
    """Run classify_field over the given q values and tally unmatched counts.

    When sink is given, the full per-field reports (with class arrays) are
    streamed to it as one JSON document.
    """
    orders = []
    for q in sorted(set(q_values)):
        # the cap first: trial division of a huge q would not end
        if q > cap:
            raise CapExceeded(f"q = {q} exceeds the classification cap {cap}")
        pr = as_prime_power(q)
        if pr is None:
            raise NotPrimePower(f"q = {q} is not a prime power")
        orders.append((q, *pr))
    fields_summary = []
    unmatched_total = 0
    if sink:
        sink.write('{"fields": [\n')
    first = True
    for q, p, r in orders:
        field = build_field(p, r)
        report = classify_field(field, cap=cap)
        unmatched_total += report.unmatched_count
        fields_summary.append({
            "q": q, "p": p, "r": r,
            "partitions": len(report.entries),
            "families": report.families_present(),
            "unmatched": report.unmatched_count,
        })
        if sink:
            sink.write(("" if first else ",\n") + report.dumps())
            first = False
    summary = {
        "fields": fields_summary,
        "fields_checked": len(fields_summary),
        "unmatched_total": unmatched_total,
        "all_matched": unmatched_total == 0,
    }
    if sink:
        sink.write('\n], "fields_checked": %d, "unmatched_total": %d, '
                   '"all_matched": %s}\n'
                   % (len(fields_summary), unmatched_total,
                      "true" if unmatched_total == 0 else "false"))
    return summary
