"""Cayley graphs over the additive group of GF(q).

There is an arc x -> y iff y - x lies in the connection set S, so a graph is
fixed by S alone, direction too: it is undirected exactly when S = -S (the
SRG check and the exports refuse a directed one).  It is stored as the
indicator of S's element codes, one Python int whose bit c is set iff code
c lies in S; no q x q matrix is ever built.  Row x of the adjacency is the
translate S + x, again one int.  Adding e_i, the element with code p^i, to
every member of such a bitset moves the codes whose digit i is below p - 1
up by p^i and the rest down by (p - 1) p^i: two masks and two shifts, which
is XOR for p = 2 and a rotation for r = 1.  Walking x in code order takes
each row from the previous one with one such step per digit that changes.

Translations are automorphisms, so the number of common neighbors of a pair
(x, y) is the difference count c(y - x) = |S & (y - x + S)|, which the SRG
check reads as the popcount of the indicator AND row y - x: O(q^2 / 64)
word operations in all.  The exports walk the rows one at a time, so they
hold O(q) bits beside their output.  Graphs, like their fields and
connection sets, are `values.Value`s: they refuse assignment and compare
and hash by their fields.  The module is pure Python.
"""

from __future__ import annotations

from base64 import b64encode
from functools import lru_cache
from itertools import compress
from typing import Iterator

from .errors import (DEFAULT_SRG_CAP, CapExceeded, Directed, FieldMismatch,
                     InfeasibleParameters, InvariantViolation, TooLarge)
from .families import ConnectionSet
from .fields import FiniteField
from .values import Value

# one byte per bit of a bitset, and back: b"\0" / b"\1" <-> b"0" / b"1"
_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
# a graph6 character is a 6-bit group plus 63; base64 writes group g as the
# g-th letter of its alphabet
_BASE64_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


class CayleyGraph(Value):
    """Graph on the elements of GF(q); vertex i is the element with code i.

    ``indicator`` is an int whose bit c is set iff the element with code c
    lies in the connection set.
    """
    __slots__ = _fields = ("field", "connection", "indicator", "directed")

    @property
    def q(self) -> int:
        return self.field.q

    def neighbors(self, x: int) -> list[int]:
        row = self.indicator
        for i, a in enumerate(self.field.coeffs(x)):
            if a:
                row = _step(row, _digit_step(self.field, i, a))
        return _members(row, self.q)

    def __repr__(self) -> str:
        return f"CayleyGraph(q={self.q}, degree={len(self.connection)})"


def build_cayley(field: FiniteField, connection: ConnectionSet) -> CayleyGraph:
    """Build the Cayley graph of F_q^+ with the given connection set, whose
    codes are marked as the field's walk of the powers of omega streams by."""
    if field != connection.field:
        raise FieldMismatch("connection set belongs to a different field")
    mark = bytearray(field.q)
    inside = map(connection.indices.__contains__, range(field.q - 1))
    # compress pulls each power before its flag: the walk runs to its end check
    for code in compress(field.powers(), inside):
        mark[code] = 1
    # int() reads the highest bit first, so code 0 goes last
    indicator = int(mark[::-1].translate(_FLAG_DIGITS), 2)
    distinct = indicator.bit_count()
    if distinct != len(connection):
        raise InvariantViolation(
            f"the {len(connection)} dlog indices of the connection set map to "
            f"{distinct} distinct elements of GF({field.q})")
    return CayleyGraph(field, connection, indicator,
                       directed=not connection.is_symmetric())


# ---------------------------------------------------------------------------
# bitsets of element codes
# ---------------------------------------------------------------------------

def _digit_step(field: FiniteField, i: int, a: int) -> tuple[int, int, int, int]:
    """(low, up, high, down) such that adding a * e_i to every member of a
    bitset b, 0 < a < p, gives ((b & low) << up) | ((b & high) >> down).

    ``high`` marks the codes whose digit i is at least p - a: in every block
    of p^(i+1) codes, the top a * p^i.  They wrap round to digit i - (p - a).
    """
    p, q = field.p, field.q
    w = p ** i
    full = (1 << q) - 1
    blocks = full // ((1 << (p * w)) - 1)  # bit 0 of every block
    high = (((1 << (a * w)) - 1) << ((p - a) * w)) * blocks
    return full ^ high, a * w, high, (p - a) * w


def _step(bits: int, step: tuple[int, int, int, int]) -> int:
    low, up, high, down = step
    return ((bits & low) << up) | ((bits & high) >> down)


def _reversed(bits: int, q: int) -> int:
    """The bitset with bit q - 1 - c set iff bit c of ``bits`` is."""
    return int(format(bits, f"0{q}b")[::-1], 2)


@lru_cache(maxsize=1)
def _codes(q: int) -> tuple[int, ...]:
    # one int object per code, shared by every row of the graph
    return tuple(range(q))


def _members(bits: int, q: int, lo: int = 0) -> list[int]:
    """The set bits lo <= c < q of ``bits``, ascending."""
    flags = format(bits >> lo << lo, "b").encode()[::-1].translate(_DIGIT_FLAGS)
    return list(compress(_codes(q), flags))


def _rows(field: FiniteField, first: int, a: int = 1) -> Iterator[int]:
    """Yield the bitset ``first`` translated by a * x, for x = 0, 1, ...,
    q - 1.

    With a = 1 and the indicator these are the adjacency rows S + x.  In a
    bit-reversed bitset bit q - 1 - c stands for code c, and digit by digit
    q - 1 - (c + x) = (q - 1 - c) - x, so a = p - 1 walks bit-reversed rows.
    In code order x = (x - 1) + e_0 + ... + e_t, where t is the number of
    trailing zero base-p digits of x, so each row is the previous one
    stepped by a * e_0, ..., a * e_t.
    """
    p = field.p
    steps = [_digit_step(field, i, a) for i in range(field.r)]
    row = first
    yield row
    for x in range(1, field.q):
        rest = x
        for step in steps:
            row = _step(row, step)
            if rest % p:
                break
            rest //= p
        yield row


# ---------------------------------------------------------------------------
# strong regularity
# ---------------------------------------------------------------------------

class SrgParams(Value):
    __slots__ = _fields = ("v", "k", "lam", "mu")

    def __init__(self, v: int, k: int, lam: int, mu: int):
        super().__init__(v, k, lam, mu)
        # standard feasibility identity for strongly regular graphs
        if k * (k - lam - 1) != (v - k - 1) * mu:
            raise InfeasibleParameters(
                f"infeasible parameter set {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    def to_json(self) -> dict:
        return {"v": self.v, "k": self.k, "lambda": self.lam, "mu": self.mu}


class NotStronglyRegular(Value):
    """The vertex pair whose common-neighbor count breaks regularity, and why."""
    __slots__ = _fields = ("witness", "reason")


def srg_params(g: CayleyGraph, cap: int = DEFAULT_SRG_CAP) -> SrgParams | NotStronglyRegular:
    """Exact (v, k, lambda, mu) from the difference counts of the connection
    set.

    The pair (x, y) shares c(y - x) neighbors, where c(y) counts the s in S
    with y + s in S (the popcount of the indicator AND row y), and is
    adjacent iff y - x lies in S.  Every difference occurs in the pairs
    (0, y), so scanning y upward finds the same first
    non-uniform pair as a row-by-row scan of all pairs; it is returned as
    the NotStronglyRegular witness.  Any graph or its complement is
    connected, so the usual non-degeneracy precondition needs no explicit
    check.
    """
    if g.directed:
        raise Directed("strong regularity is defined for undirected graphs")
    if g.q > cap:
        raise CapExceeded(f"q = {g.q} exceeds the SRG check cap {cap}")
    v, ind = g.q, g.indicator
    expected: dict[bool, int] = {}
    rows = _rows(g.field, ind)
    next(rows)
    for y, row in enumerate(rows, start=1):
        adj = bool(ind >> y & 1)
        c = (ind & row).bit_count()
        want = expected.setdefault(adj, c)
        if c != want:
            kind = "adjacent" if adj else "non-adjacent"
            return NotStronglyRegular(
                (0, y), f"{kind} pair shares {c} neighbors, expected {want}")
    return SrgParams(v, len(g.connection), expected.get(True, 0),
                     expected.get(False, 0))


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
    # column j of the upper triangle is bits (0, j), ..., (j - 1, j), and bit
    # (i, j) is 1_S(j - i), bit i of row j because S = -S; in a bit-reversed
    # row those are the top j bits, first bit highest.  The columns go out
    # as whole bytes, zero-padded at the end; base64 turns every 6 bits into
    # one character, and the body keeps the first ceil(v(v-1)/12).
    chunks = []
    held = bits = 0
    for j, row in enumerate(_rows(g.field, _reversed(g.indicator, v),
                                  g.field.p - 1)):
        held = (held << j) | (row >> (v - j))
        bits += j
        spare = bits % 8
        chunks.append((held >> spare).to_bytes(bits // 8, "big"))
        held &= (1 << spare) - 1
        bits = spare
    if bits:
        chunks.append(bytes([held << (8 - bits)]))
    body = b64encode(b"".join(chunks)).translate(_BASE64_GRAPH6)
    return head + body[:(v * (v - 1) // 2 + 5) // 6]


def export_edge_list(g: CayleyGraph) -> str:
    """One \"u v\" line per edge, u < v, ascending."""
    if g.directed:
        raise Directed("edge-list export covers undirected graphs")
    out = []
    for x, row in enumerate(_rows(g.field, g.indicator)):
        ys = _members(row, g.q, x + 1)
        if ys:
            head = f"{x} "
            out.append(head + f"\n{head}".join(map(str, ys)) + "\n")
    return "".join(out)
