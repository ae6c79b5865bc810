"""Connection sets of the three strongly regular graph families.

All sets live in dlog space: a connection set is a subset of Z_{q-1} whose
image under i -> omega^i is the actual subset of F_q^*.  The three
constructions:

  * generalized Paley (Van Lint-Schrijver): the index-ell subgroup <omega^ell>,
    requiring ell prime with ord_ell(p) = ell - 1 and q = p^((ell-1)k);
  * classical Paley: the nonzero squares, i.e. even dlog indices, q = 1 mod 4;
  * Peisert: <omega^4> united with <omega^4>*omega^i for i in {1, 3},
    requiring p = 3 mod 4 and r even.

Symmetry (S = -S, needed for an undirected graph) is enforced at
construction; allow_directed=True skips the check for exploratory use.
vls_label and peisert_label check a family's preconditions without building
a set; the constructors call them first, and classify calls only them.
"""

from __future__ import annotations

from .errors import (BadVariant, CharCondition, DegreeCondition, EmptySet,
                     IndexOutOfRange, InvariantViolation, NotPrime,
                     NotSymmetric, OrderCondition)
from .arith import is_prime, mult_order
from .fields import FiniteField
from .values import Value


# ---------------------------------------------------------------------------
# family labels
# ---------------------------------------------------------------------------

class Paley(Value):
    __slots__ = ()


class GeneralizedPaley(Value):
    __slots__ = _fields = ("ell", "k")


class Peisert(Value):
    __slots__ = _fields = ("variant",)


class Unmatched(Value):
    __slots__ = ()


FamilyLabel = Paley | GeneralizedPaley | Peisert | Unmatched


def label_to_json(label: FamilyLabel) -> dict:
    if isinstance(label, Paley):
        return {"family": "paley"}
    if isinstance(label, GeneralizedPaley):
        return {"family": "generalized-paley", "ell": label.ell, "k": label.k}
    if isinstance(label, Peisert):
        return {"family": "peisert", "variant": label.variant}
    return {"family": "unmatched"}


# ---------------------------------------------------------------------------
# connection sets
# ---------------------------------------------------------------------------

class ConnectionSet(Value):
    """Subset of F_q^* in dlog coordinates, tagged with its family label."""
    __slots__ = _fields = ("field", "indices", "label")

    def __init__(self, field: FiniteField, indices, label: FamilyLabel = Unmatched()):
        indices = frozenset(indices)
        if not indices:
            raise EmptySet("connection set must be nonempty")
        n = field.q - 1
        if not all(0 <= i < n for i in indices):
            raise IndexOutOfRange(f"indices must lie in [0, {n})")
        super().__init__(field, indices, label)

    def is_symmetric(self) -> bool:
        """Whether S = -S as field elements."""
        if self.field.p == 2:
            return True
        half = (self.field.q - 1) // 2
        n = self.field.q - 1
        return all((i + half) % n in self.indices for i in self.indices)

    def sorted_indices(self) -> list[int]:
        return sorted(self.indices)

    def to_json(self) -> dict:
        doc = {"indices": self.sorted_indices(), "size": len(self.indices)}
        doc.update(label_to_json(self.label))
        doc["field"] = self.field.descriptor()
        return doc

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return (f"ConnectionSet(GF({self.field.q}), size={len(self.indices)}, "
                f"label={self.label!r})")


def vls_index_set(q: int, ell: int) -> frozenset:
    """Indices of <omega^ell> in Z_{q-1} (requires ell | q - 1)."""
    return frozenset(range(0, q - 1, ell))


def vls_label(field: FiniteField, ell: int) -> GeneralizedPaley:
    """The index-ell subgroup's label; raises on its first failed precondition."""
    # r = (ell - 1) k needs ell - 1 <= r < q: a larger ell fails the degree
    # condition before a primality test or an order that would not end
    if ell > field.q:
        raise DegreeCondition(f"(ell - 1) = {ell - 1} does not divide r = {field.r}")
    if not is_prime(ell):
        raise NotPrime(f"ell = {ell} is not prime")
    if field.p % ell == 0:
        raise OrderCondition(f"p = {field.p} is divisible by ell = {ell}")
    o = mult_order(field.p, ell)
    if o != ell - 1:
        raise OrderCondition(f"ord_{ell}({field.p}) = {o} != {ell - 1}")
    if field.r % (ell - 1) != 0:
        raise DegreeCondition(f"(ell - 1) = {ell - 1} does not divide r = {field.r}")
    return GeneralizedPaley(ell, field.r // (ell - 1))


def vls_connection_set(field: FiniteField, ell: int,
                       allow_directed: bool = False) -> ConnectionSet:
    """The index-ell subgroup of F_q^* as a generalized Paley connection set."""
    label = vls_label(field, ell)
    # ell | p^(ell-1) - 1 | q - 1, so the subgroup has index exactly ell
    conn = ConnectionSet(field, vls_index_set(field.q, ell), label)
    if not allow_directed and not conn.is_symmetric():
        raise NotSymmetric(f"<omega^{ell}> is not closed under negation for "
                           f"q = {field.q} (q = 3 mod 4)")
    return conn


def paley_index_set(q: int) -> frozenset:
    return frozenset(range(0, q - 1, 2))


def paley_connection_set(field: FiniteField) -> ConnectionSet:
    """The nonzero squares; undirected only for q = 1 mod 4."""
    if field.q % 4 != 1:
        raise NotSymmetric(
            f"q = {field.q} = {field.q % 4} mod 4; the squares are symmetric "
            f"only when q = 1 mod 4")
    return ConnectionSet(field, paley_index_set(field.q), Paley())


def peisert_index_set(q: int, variant: int) -> frozenset:
    return frozenset(i for i in range(q - 1) if i % 4 in (0, variant))


def peisert_label(field: FiniteField, variant: int) -> Peisert:
    """The Peisert set's label; raises on its first failed precondition."""
    if variant not in (1, 3):
        raise BadVariant(f"variant must be 1 or 3, got {variant}")
    if field.p % 4 != 3:
        raise CharCondition(f"p = {field.p} = {field.p % 4} mod 4; need p = 3 mod 4")
    if field.r % 2 != 0:
        raise DegreeCondition(f"r = {field.r} must be even")
    return Peisert(variant)


def peisert_connection_set(field: FiniteField, variant: int = 1) -> ConnectionSet:
    """<omega^4> u <omega^4> omega^variant, variant in {1, 3}."""
    label = peisert_label(field, variant)
    conn = ConnectionSet(field, peisert_index_set(field.q, variant), label)
    if len(conn) * 2 != field.q - 1:
        raise InvariantViolation(
            f"Peisert set has {len(conn)} indices, not (q - 1)/2 for q = {field.q}")
    return conn
