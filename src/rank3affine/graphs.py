"""Cayley graphs over the additive group of GF(q).

Adjacency is x ~ y iff x - y lies in the connection set.  Rows are stored as
dense bitmasks (arbitrary-precision ints), so common-neighbor counts are a
word-wise AND plus popcount and the full strong-regularity check runs in
O(v^3 / wordsize).  Graphs are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BadResidue, CapExceeded, ContainsZero, Directed,
                     FieldMismatch, InfeasibleParameters, InvariantViolation,
                     NotSymmetric, TooLarge)
from .families import ConnectionSet
from .fields import FiniteField

DEFAULT_SRG_CAP = 1024
ISO_VERTEX_LIMIT = 16


class CayleyGraph:
    """Graph on the elements of GF(q); vertex i is the element with code i."""

    def __init__(self, field: FiniteField, connection: ConnectionSet,
                 rows: list[int], directed: bool):
        self.field = field
        self.connection = connection
        self.q = field.q
        self.rows = rows
        self.directed = directed

    def adjacent(self, x: int, y: int) -> bool:
        return bool((self.rows[x] >> y) & 1)

    def neighbors(self, x: int) -> list[int]:
        row = self.rows[x]
        return [y for y in range(self.q) if (row >> y) & 1]

    def degree(self, x: int) -> int:
        return self.rows[x].bit_count()

    def edge_count(self) -> int:
        total = sum(r.bit_count() for r in self.rows)
        return total if self.directed else total // 2

    def complement(self) -> "CayleyGraph":
        return build_cayley(self.field, self.connection.complement(),
                            allow_directed=self.directed)

    def __repr__(self) -> str:
        return f"CayleyGraph(q={self.q}, degree={self.degree(0)})"


def build_cayley(field: FiniteField, connection: ConnectionSet,
                 allow_directed: bool = False) -> CayleyGraph:
    """Build the Cayley graph of F_q^+ with the given connection set."""
    if not field.same_field(connection.field):
        raise FieldMismatch("connection set belongs to a different field")
    codes = connection.element_codes()
    if 0 in codes:
        raise ContainsZero("connection set contains zero (would create loops)")
    symmetric = connection.is_symmetric()
    if not symmetric and not allow_directed:
        raise NotSymmetric(
            "connection set is not closed under negation; the graph would be "
            "directed (q = 3 mod 4 squares, for instance)")
    q = field.q
    adj = np.zeros((q, q), dtype=bool)
    xs = np.arange(q)
    for s in codes:
        adj[xs, field.vadd(xs, s)] = True
    rows = [int.from_bytes(np.packbits(adj[x], bitorder="little").tobytes(),
                           "little") for x in range(q)]
    deg = len(codes)
    if any(r.bit_count() != deg for r in rows):
        raise InvariantViolation(
            f"a Cayley graph row has degree other than |S| = {deg}")
    return CayleyGraph(field, connection, rows, directed=not symmetric)


# ---------------------------------------------------------------------------
# strong regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SrgParams:
    v: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        # standard feasibility identity for strongly regular graphs
        if self.k * (self.k - self.lam - 1) != (self.v - self.k - 1) * self.mu:
            raise InfeasibleParameters(
                f"infeasible parameter set {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    def to_json(self) -> dict:
        return {"v": self.v, "k": self.k, "lambda": self.lam, "mu": self.mu}


@dataclass(frozen=True)
class NotStronglyRegular:
    witness: tuple[int, int]
    reason: str


def srg_params(g: CayleyGraph, cap: int = DEFAULT_SRG_CAP) -> SrgParams | NotStronglyRegular:
    """Exact (v, k, lambda, mu) by counting common neighbors of every pair.

    Returns NotStronglyRegular with a witness pair when the counts are not
    uniform.  Any graph or its complement is connected, so the usual
    non-degeneracy precondition needs no explicit check.
    """
    if g.directed:
        raise Directed("strong regularity is defined for undirected graphs")
    if g.q > cap:
        raise CapExceeded(f"q = {g.q} exceeds the SRG check cap {cap}")
    v = g.q
    rows = g.rows
    k = rows[0].bit_count()
    for x in range(v):
        if rows[x].bit_count() != k:
            return NotStronglyRegular((0, x), "graph is not regular")
    lam = mu = None
    for x in range(v):
        rx = rows[x]
        for y in range(x + 1, v):
            c = (rx & rows[y]).bit_count()
            if (rx >> y) & 1:
                if lam is None:
                    lam = c
                elif c != lam:
                    return NotStronglyRegular(
                        (x, y), f"adjacent pair shares {c} neighbors, expected {lam}")
            else:
                if mu is None:
                    mu = c
                elif c != mu:
                    return NotStronglyRegular(
                        (x, y), f"non-adjacent pair shares {c} neighbors, expected {mu}")
    return SrgParams(v, k, lam or 0, mu or 0)


def paley_parameter_formula(q: int) -> SrgParams:
    """(q, (q-1)/2, (q-5)/4, (q-1)/4) for q = 1 mod 4."""
    if q % 4 != 1:
        raise BadResidue(f"q = {q} = {q % 4} mod 4; Paley parameters need q = 1 mod 4")
    return SrgParams(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


# ---------------------------------------------------------------------------
# small-order isomorphism
# ---------------------------------------------------------------------------

def is_isomorphic_small(g1: CayleyGraph, g2: CayleyGraph) -> bool:
    """Exact isomorphism test by backtracking, for graphs on <= 16 vertices."""
    if g1.q > ISO_VERTEX_LIMIT or g2.q > ISO_VERTEX_LIMIT:
        raise TooLarge(f"isomorphism backtracking is limited to "
                       f"{ISO_VERTEX_LIMIT} vertices")
    if g1.q != g2.q:
        return False
    n = g1.q
    deg1 = [r.bit_count() for r in g1.rows]
    deg2 = [r.bit_count() for r in g2.rows]
    if sorted(deg1) != sorted(deg2):
        return False
    rows1, rows2 = g1.rows, g2.rows
    order = sorted(range(n), key=lambda u: -deg1[u])
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        u = order[i]
        for c in range(n):
            if used[c] or deg2[c] != deg1[u]:
                continue
            if all(((rows1[u] >> order[j]) & 1) == ((rows2[c] >> mapping[order[j]]) & 1)
                   for j in range(i)):
                mapping[u] = c
                used[c] = True
                if extend(i + 1):
                    return True
                used[c] = False
                mapping[u] = -1
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def export_graph6(g: CayleyGraph) -> bytes:
    """Standard graph6 bytes: N(v) then the upper triangle column by column,
    packed big-endian into 6-bit groups, each offset by 63."""
    if g.directed:
        raise Directed("graph6 encodes undirected graphs")
    v = g.q
    if v <= 62:
        head = bytes([v + 63])
    elif v <= 258047:
        head = bytes([126, 63 + ((v >> 12) & 63), 63 + ((v >> 6) & 63),
                      63 + (v & 63)])
    else:
        raise TooLarge(f"graph6 long form supports at most 258047 vertices")
    out = bytearray()
    acc = nbits = 0
    for j in range(1, v):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                out.append(63 + acc)
                acc = nbits = 0
    if nbits:
        out.append(63 + (acc << (6 - nbits)))
    return head + bytes(out)


def export_edge_list(g: CayleyGraph) -> str:
    """One \"u v\" line per edge, u < v, ascending."""
    if g.directed:
        raise Directed("edge-list export covers undirected graphs")
    lines = [f"{i} {j}" for i in range(g.q) for j in range(i + 1, g.q)
             if (g.rows[i] >> j) & 1]
    return "\n".join(lines) + ("\n" if lines else "")
