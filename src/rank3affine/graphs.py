"""Cayley graphs over the additive group of GF(q).

There is an arc x -> y iff y - x lies in the connection set S, so a graph is
fixed by S alone.  It is stored as the length-q indicator of S's element
codes; no q x q matrix is ever built.  Translations are automorphisms, so
the number of common neighbors of a pair (x, y) is the difference count
c(y - x) = |S & (y - x + S)|, which the SRG check computes for every y with
one vectorized translation per element of S, in O(q |S|).  The exports
walk the adjacency rows one at a time: row x is the indicator read at
y - x, and each row is gathered from the previous one through one of r
fixed permutations into a preallocated buffer, so they hold O(q) memory
beside their output.  Graphs are immutable once built.

This is the only module that uses numpy, and it imports numpy inside the
functions that build or read a graph, so verification and classification,
which never build a graph, run without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import (BadResidue, CapExceeded, Directed, FieldMismatch,
                     InfeasibleParameters, InvariantViolation, NotSymmetric,
                     TooLarge)
from .families import ConnectionSet
from .fields import FiniteField

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SRG_CAP = 1024
ISO_VERTEX_LIMIT = 16


class CayleyGraph:
    """Graph on the elements of GF(q); vertex i is the element with code i.

    ``indicator`` is a read-only boolean array of length q whose entry c is
    set iff the element with code c lies in the connection set.
    """

    def __init__(self, field: FiniteField, connection: ConnectionSet,
                 indicator: np.ndarray, directed: bool):
        self.field = field
        self.connection = connection
        self.q = field.q
        self.indicator = indicator
        self.directed = directed

    @cached_property
    def _translate(self) -> Callable[[int], np.ndarray]:
        return _translation(self.field)

    def adjacent(self, x: int, y: int) -> bool:
        return bool(self.indicator[self.field.add(y, self.field.neg(x))])

    def neighbors(self, x: int) -> list[int]:
        import numpy as np
        return np.flatnonzero(
            self.indicator[self._translate(self.field.neg(x))]).tolist()

    def degree(self, x: int) -> int:
        return len(self.connection)

    def edge_count(self) -> int:
        total = self.q * len(self.connection)
        return total if self.directed else total // 2

    def complement(self) -> "CayleyGraph":
        return build_cayley(self.field, self.connection.complement(),
                            allow_directed=self.directed)

    def __repr__(self) -> str:
        return f"CayleyGraph(q={self.q}, degree={self.degree(0)})"


def _translation(field: FiniteField) -> Callable[[int], np.ndarray]:
    """The map s -> (codes of y + s for y = 0, 1, ..., q - 1).

    For p = 2 addition is XOR and for r = 1 it is addition mod p.  Otherwise
    adding s adds its code and then takes back p^(i+1) for every digit i of
    y that carries, which is when s_i > 0 and y_i >= p - s_i; the digit
    columns y_i are computed once, in the smallest dtype that holds p - 1.
    """
    import numpy as np
    p, r = field.p, field.r
    ys = np.arange(field.q)
    if p == 2:
        return lambda s: ys ^ s
    if r == 1:
        return lambda s: (ys + s) % p
    columns = []
    rest = ys
    for _ in range(r):
        rest, digit = np.divmod(rest, p)
        columns.append(digit.astype(np.min_scalar_type(p - 1)))

    def translate(s: int) -> np.ndarray:
        out = ys + s
        for i, s_i in enumerate(field.coeffs(s)):
            if s_i:
                out -= p ** (i + 1) * (columns[i] >= p - s_i)
        return out

    return translate


def build_cayley(field: FiniteField, connection: ConnectionSet,
                 allow_directed: bool = False) -> CayleyGraph:
    """Build the Cayley graph of F_q^+ with the given connection set."""
    import numpy as np
    if not field.same_field(connection.field):
        raise FieldMismatch("connection set belongs to a different field")
    symmetric = connection.is_symmetric()
    if not symmetric and not allow_directed:
        raise NotSymmetric(
            "connection set is not closed under negation; the graph would be "
            "directed (q = 3 mod 4 squares, for instance)")
    indicator = np.zeros(field.q, dtype=bool)
    indicator[[field.exp(i) for i in connection.indices]] = True
    distinct = np.count_nonzero(indicator)
    if distinct != len(connection):
        raise InvariantViolation(
            f"the {len(connection)} dlog indices of the connection set map to "
            f"{distinct} distinct elements of GF({field.q})")
    indicator.flags.writeable = False
    return CayleyGraph(field, connection, indicator, directed=not symmetric)


def _rows(g: CayleyGraph) -> Iterator[np.ndarray]:
    """Yield row x of the adjacency, the indicator read at y - x for every
    y, for x = 0, 1, ..., q - 1.

    In code order x = (x - 1) + e_0 + ... + e_t, where e_i has code p^i and
    t is the number of trailing zero base-p digits of x, so row x is row
    x - 1 read at y - (e_0 + ... + e_t).  The r permutations are built once
    and every row is gathered into one of two preallocated buffers, so a
    caller must use each row before taking the next but one.
    """
    import numpy as np
    field, p = g.field, g.field.p
    steps = []
    e = 0
    for t in range(field.r):
        e = field.add(e, p ** t)
        steps.append(g._translate(field.neg(e)))
    row, spare = g.indicator.copy(), np.empty_like(g.indicator)
    yield row
    for x in range(1, g.q):
        t, rest = 0, x
        while rest % p == 0:
            rest //= p
            t += 1
        # the indices are in range; mode="raise" would copy through a buffer
        np.take(row, steps[t], out=spare, mode="clip")
        row, spare = spare, row
        yield row


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
    """Exact (v, k, lambda, mu) from the difference counts of the connection
    set.

    The pair (x, y) shares c(y - x) neighbors, where c(y) counts the s in S
    with y + s in S, and is adjacent iff y - x lies in S.  Every difference
    occurs in the pairs (0, y), so scanning y upward finds the same first
    non-uniform pair as a row-by-row scan of all pairs; it is returned as
    the NotStronglyRegular witness.  Any graph or its complement is
    connected, so the usual non-degeneracy precondition needs no explicit
    check.
    """
    if g.directed:
        raise Directed("strong regularity is defined for undirected graphs")
    if g.q > cap:
        raise CapExceeded(f"q = {g.q} exceeds the SRG check cap {cap}")
    import numpy as np
    v, ind = g.q, g.indicator
    counts = np.zeros(v, dtype=np.int64)
    for s in np.flatnonzero(ind).tolist():
        counts += ind[g._translate(s)]
    expected: dict[bool, int] = {}
    for y, (adj, c) in enumerate(zip(ind[1:].tolist(), counts[1:].tolist()),
                                 start=1):
        want = expected.setdefault(adj, c)
        if c != want:
            kind = "adjacent" if adj else "non-adjacent"
            return NotStronglyRegular(
                (0, y), f"{kind} pair shares {c} neighbors, expected {want}")
    return SrgParams(v, len(g.connection), expected.get(True, 0),
                     expected.get(False, 0))


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
    rows1, rows2 = ([sum(1 << y for y in g.neighbors(x)) for x in range(n)]
                    for g in (g1, g2))
    deg1 = [r.bit_count() for r in rows1]
    deg2 = [r.bit_count() for r in rows2]
    if sorted(deg1) != sorted(deg2):
        return False
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
    import numpy as np
    body = np.empty((v * (v - 1) // 2 + 5) // 6, dtype=np.uint8)
    # fewer than 6 bits carried over, then column j of the upper triangle
    bits = np.zeros(v + 5, dtype=bool)
    held = written = 0
    for j, row in enumerate(_rows(g)):
        # bit (i, j) is 1_S(j - i), which is row j at i because S = -S
        bits[held:held + j] = row[:j]
        held += j
        whole = held - held % 6
        groups = np.packbits(bits[:whole].reshape(-1, 6), axis=1)
        body[written:written + whole // 6] = groups[:, 0]
        written += whole // 6
        bits[:held - whole] = bits[whole:held]
        held -= whole
    if held:
        bits[held:6] = False
        body[written] = np.packbits(bits[:6])[0]
    # packbits fills the top six bits of each byte
    body >>= 2
    body += 63
    return head + body.tobytes()


def export_edge_list(g: CayleyGraph) -> str:
    """One \"u v\" line per edge, u < v, ascending."""
    if g.directed:
        raise Directed("edge-list export covers undirected graphs")
    import numpy as np
    lines = [f"{x} {y}" for x, row in enumerate(_rows(g))
             for y in (np.flatnonzero(row[x + 1:]) + x + 1).tolist()]
    return "\n".join(lines) + ("\n" if lines else "")
