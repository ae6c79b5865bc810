"""The affine action of X = Z_n x| <alpha> on Z_n and its two-orbit subgroups.

alpha is multiplication by a unit a mod n, and the group element (t, s) acts
by u -> a^s * u + t.  The central computation enumerates, for a given
context (n, a), every partition {O1, O2} of Z_n that arises as the orbit
partition of some subgroup Y <= X with exactly two orbits (singleton classes
included), and classifies each partition into one of two shapes:

  case 1: the radical index m of O1 is prime, O1 is a coset c + mZ_n, and
          multiplication by a is transitive on the nonzero classes mod m;
  case 2: m = 4, the classes are equal halves pairing the cosets of 4Z_n as
          {0, i} vs {2, -i} residues with i in {1, 3}, and a = -1 mod 4.

Everything here is exact and exhaustive.  The enumeration is sound because X
has a cyclic normal subgroup Z_n with cyclic quotient, so every subgroup is
generated by one translation (k, 0) with k | n together with one extra
element (t, s) whose image generates the projection to <alpha>; and because
the orbits of <(k,0), (t,s)> on Z_n are exactly the preimages of the cycles
of the single induced affine map u -> (a^s mod k) * u + t on Z_k.

Soundness in detail: if Y <= X has exactly two orbits, put <k> = Y & Z_n
(so k | n) and let s | ord(a) generate the image of Y in <alpha>.  Some
(t, s) lies in Y, and Y = <(k,0), (t,s)> with t mattering only mod k.
Conversely every generated pair is a genuine subgroup, so candidate hits are
never spurious.  Iterating k | n, s | ord(a), t in Z_k therefore covers every
subgroup, and distinct candidates producing the same partition are merged.

The candidates of one (k, s) depend on the context only through k and
b = a^s mod k, so their partitions come from one table per (k, b), shared
by every context.  Within it, u -> b*u + t and u -> b*u + t + c*(1-b) are
conjugate under u -> u + c, so t only matters up to translation within its
class mod gcd(b-1, k): one cycle scan per class gives the partition of
every t in it, translated.  For b = 1 the table is closed form.

Note the partition set of a context is closed under translation: conjugating
Y by the translation u -> u + c (an element of X) translates both orbits by
c.  Case 1 therefore carries the coset shift c explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import (CapExceeded, EmptySet, MalformedPartition,
                     ModulusOutOfRange, NotAUnit)
from .fields import is_prime, mult_order

DEFAULT_N_CAP = 4096


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def units(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]


def radical(S, n: int) -> int:
    """Index divisor d of n with {u : S + u = S} = d Z_n; d = n means trivial.

    The shift stabilizer of any subset is a subgroup of Z_n, hence equal to
    d Z_n for a divisor d, so it suffices to test divisors in increasing
    order and return the first that stabilizes S.
    """
    if not S:
        raise EmptySet("radical of the empty set is undefined")
    S = frozenset(S)
    for d in divisors(n):
        if d == n:
            break
        if all((x + d) % n in S for x in S):
            return d
    return n


@dataclass(frozen=True)
class AffineMapZn:
    """Element (t, s) of Z_n x| <alpha>, acting as u -> a^s * u + t."""

    t: int
    s: int


class AffineActionContext:
    """Immutable context (n, a): alpha = multiplication by a on Z_n."""

    def __init__(self, n: int, a: int):
        if n < 2:
            raise ModulusOutOfRange(f"modulus n = {n} must be >= 2")
        a %= n
        if gcd(a, n) != 1:
            raise NotAUnit(f"a = {a} is not a unit mod {n}")
        self.n = n
        self.a = a
        powers = [1]
        x = a % n
        while x != 1 % n:
            powers.append(x)
            x = x * a % n
        self.m_ord = len(powers)
        self._a_pow = powers

    def __repr__(self) -> str:
        return f"AffineActionContext(n={self.n}, a={self.a}, m_ord={self.m_ord})"


def orbits(ctx: AffineActionContext, generators) -> list[frozenset]:
    """Orbit partition of Z_n under the subgroup generated by the maps.

    Union-find closure: orbits of a generated permutation group are the
    connected components of the union of the generators' functional graphs.
    """
    parent = list(range(ctx.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        mult = ctx._a_pow[g.s % ctx.m_ord]
        for u in range(ctx.n):
            v = (mult * u + g.t) % ctx.n
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
    classes: dict[int, list[int]] = {}
    for u in range(ctx.n):
        classes.setdefault(find(u), []).append(u)
    return sorted((frozenset(c) for c in classes.values()),
                  key=lambda c: (len(c), min(c)))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class OrbitPartition:
    """Two-class partition of Z_n, quotiented by its radical.

    m is the radical index, rad(O1) = rad(O2) = m Z_n, so both classes are
    unions of m-cosets.  r1 holds the residues mod m of the first class in
    (size, smallest element) order; the second class has the complementary
    residues.  The same object describes the partition for every n that m
    divides.
    """

    m: int
    r1: frozenset

    def classes(self, n: int) -> tuple[list[int], list[int]]:
        """The two classes of Z_n, each ascending."""
        mark = bytearray(self.m)
        for x in self.r1:
            mark[x] = 1
        c1, c2 = [], []
        for x in range(n):
            (c1 if mark[x % self.m] else c2).append(x)
        return c1, c2

    def sort_key(self, n: int):
        """Report order on Z_n: first-class size, then m, then residues."""
        return len(self.r1) * (n // self.m), self.m, sorted(self.r1)


# ---------------------------------------------------------------------------
# two-orbit subgroup enumeration
# ---------------------------------------------------------------------------

def _zero_cycle_if_two(k: int, b: int, t: int) -> list[int] | None:
    """The cycle through 0 of u -> b*u + t on Z_k if the map has exactly two
    cycles, else None.  The other cycle is the complement."""
    seen = bytearray(k)
    first = []
    u = 0
    while not seen[u]:
        seen[u] = 1
        first.append(u)
        u = (b * u + t) % k
    if len(first) == k:
        return None
    u = seen.index(0)
    rest = 0
    while not seen[u]:
        seen[u] = 1
        rest += 1
        u = (b * u + t) % k
    return first if len(first) + rest == k else None


def _canonical_mask(m: int, mask: int) -> int:
    # the first class by (size, min); class sizes scale the residue counts
    # by the common factor n/m, so the rule can run on residues directly
    rest = ((1 << m) - 1) ^ mask
    if (mask.bit_count(), mask & -mask) > (rest.bit_count(), rest & -rest):
        return rest
    return mask


@lru_cache(maxsize=None)
def _partition_from_mask(m: int, mask: int) -> OrbitPartition:
    # one shared object per partition: the same few partitions of Z_m recur
    # in the tables of every multiple k of m
    residues = []
    while mask:
        low = mask & -mask
        residues.append(low.bit_length() - 1)
        mask ^= low
    return OrbitPartition(m, frozenset(residues))


# most (k, b) have no two-cycle map; their table entries share one value
_NO_PARTITIONS: tuple[tuple, tuple] = ((), ())


@lru_cache(maxsize=None)
def _two_orbit_table(k: int, b: int) -> tuple[tuple[OrbitPartition, ...],
                                              tuple[int, ...]]:
    """Distinct partitions of Z_k into the two cycles of some map
    u -> b*u + t, with the least witness t of each, ordered by t.

    For b = 1 the map is a translation with gcd(t, k) cycles, so only
    gcd(t, k) = 2 hits and every hit splits Z_k into evens and odds: the
    table is (m = 2, {0}) with least witness t = 2 (t = 0 when k = 2), and
    empty for odd k.  Otherwise the maps with t and t + c*(1-b) are
    conjugate under u -> u + c, so the second partition is the first
    translated by c.  The shifts c*(1-b) form gcd(b-1, k) Z_k, so one cycle
    scan per class t0 mod gcd(b-1, k) settles the whole class, and every t
    in a hit class yields its partition by a rotation of the residue mask.
    """
    if k == 1:
        return _NO_PARTITIONS
    b %= k
    if b == 1:
        if k % 2:
            return _NO_PARTITIONS
        return (_partition_from_mask(2, 1),), (0 if k == 2 else 2,)
    g = gcd(b - 1, k)
    # t = t0 + j*g is t0 + c*(1-b) for c = j * inv mod k/g
    inv = pow((1 - b) % k // g, -1, k // g)
    least: dict[tuple[int, int], int] = {}
    for t0 in range(g):
        cycle = _zero_cycle_if_two(k, b, t0)
        if cycle is None:
            continue
        m = radical(cycle, k)
        full = (1 << m) - 1
        mask0 = 0
        for x in cycle:
            mask0 |= 1 << (x % m)
        for j in range(k // g):
            c = j * inv % (k // g) % m
            key = (m, _canonical_mask(
                m, ((mask0 << c) | (mask0 >> (m - c))) & full))
            t = t0 + j * g
            if t < least.get(key, k):
                least[key] = t
    if not least:
        return _NO_PARTITIONS
    ordered = sorted(least.items(), key=lambda e: e[1])
    return (tuple(_partition_from_mask(m, mask) for (m, mask), _ in ordered),
            tuple(t for _, t in ordered))


def two_orbit_partitions_with_generators(
        ctx: AffineActionContext,
        cap: int = DEFAULT_N_CAP,
) -> dict[OrbitPartition, tuple[AffineMapZn, AffineMapZn]]:
    """Two-orbit partitions, each with one witness generator pair.

    The witness pair ((k, 0), (t, s)) generates a subgroup whose orbit
    partition of Z_n is the key; it is the first hit in (k, s, t) ascending
    order.
    """
    if ctx.n > cap:
        raise CapExceeded(f"n = {ctx.n} exceeds the enumeration cap {cap}")
    found: dict[OrbitPartition, tuple[AffineMapZn, AffineMapZn]] = {}
    for k in divisors(ctx.n):
        for s in divisors(ctx.m_ord):
            b = pow(ctx.a, s, k) if k > 1 else 0
            for part, t in zip(*_two_orbit_table(k, b)):
                if part not in found:
                    found[part] = (AffineMapZn(k % ctx.n, 0),
                                  AffineMapZn(t, s % ctx.m_ord))
    return found


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case1:
    """O1 = shift + m Z_n with m prime; alpha transitive mod m."""

    m: int
    shift: int


@dataclass(frozen=True)
class Case2:
    """m = 4, equal halves pairing residues {0, variant} vs {2, -variant}."""

    variant: int


@dataclass(frozen=True)
class Violation:
    reason: str


LemmaCase = Case1 | Case2 | Violation


def classify_partition(ctx: AffineActionContext, part: OrbitPartition) -> LemmaCase:
    """Match a two-orbit partition against the two admissible shapes."""
    m, r1 = part.m, part.r1
    if m < 1 or ctx.n % m:
        raise MalformedPartition(
            f"radical index {m} does not divide n = {ctx.n}")
    if m > 1 and is_prime(m):
        if len(r1) != 1:
            return Violation(
                f"radical index {m} is prime but the small class is not a single coset")
        # m prime: the nonzero classes form a cyclic group of order m - 1
        if mult_order(ctx.a % m, m) != m - 1:
            return Violation(
                f"multiplication by a is not transitive on the nonzero classes mod {m}")
        return Case1(m, next(iter(r1)))
    if m == 4:
        if 2 * len(r1) != m:
            return Violation("radical index 4 but the classes are not equal halves")
        if r1 not in (frozenset({0, 1}), frozenset({0, 3})):
            return Violation(
                f"coset residues {sorted(r1)} do not match the 0/i vs 2/-i pairing")
        if ctx.a % 4 != 3:
            return Violation("a is not -1 modulo 4")
        return Case2(1 if 1 in r1 else 3)
    return Violation(f"radical index {m} is neither prime nor 4")


def case_to_json(case: LemmaCase) -> dict:
    if isinstance(case, Case1):
        return {"case": 1, "m": case.m, "shift": case.shift}
    if isinstance(case, Case2):
        return {"case": 2, "variant": case.variant}
    return {"case": "violation", "reason": case.reason}


# ---------------------------------------------------------------------------
# exhaustive verification
# ---------------------------------------------------------------------------

def verify_lemma(n_max: int, cap: int = DEFAULT_N_CAP, sink=None,
                 include_classes: bool = False) -> dict:
    """Classify every two-orbit partition for all n <= n_max and units a.

    Returns a summary dict with the numbers of contexts and partitions
    checked and the full list of violations (expected empty).  When sink (a
    writable text stream) is given, a complete JSON report is streamed to
    it; partition entries carry the exact compact descriptors (m and shift,
    or variant), from which the classes are reconstructible, plus the
    literal class arrays when include_classes is set (they can be very
    large for prime n).
    """
    if n_max > cap:
        raise CapExceeded(f"n_max = {n_max} exceeds the cap {cap}")
    violations = []
    contexts = total = 0
    if sink:
        sink.write('{"n_max": %d, "contexts": [\n' % n_max)
    for n in range(2, n_max + 1):
        for a in units(n):
            ctx = AffineActionContext(n, a)
            found = two_orbit_partitions_with_generators(ctx, cap=cap)
            entries = []
            counts = [0, 0, 0]  # case1, case2, violations
            for part in sorted(found, key=lambda part: part.sort_key(n)):
                case = classify_partition(ctx, part)
                entry = case_to_json(case)
                if isinstance(case, Case1):
                    counts[0] += 1
                elif isinstance(case, Case2):
                    counts[1] += 1
                else:
                    counts[2] += 1
                    violations.append({
                        "n": n, "a": a,
                        "classes": list(part.classes(n)),
                        "reason": case.reason,
                    })
                if include_classes:
                    entry["classes"] = list(part.classes(n))
                entries.append(entry)
            contexts += 1
            total += len(entries)
            if sink:
                ctx_doc = {"n": n, "a": a, "m_ord": ctx.m_ord,
                           "partitions": entries,
                           "case1": counts[0], "case2": counts[1],
                           "violations": counts[2]}
                sink.write(("" if contexts == 1 else ",\n")
                           + json.dumps(ctx_doc))
    summary = {
        "n_max": n_max,
        "contexts_checked": contexts,
        "partitions_checked": total,
        "violation_count": len(violations),
        "violations": violations,
    }
    if sink:
        sink.write('\n], "partitions_checked": %d, "violation_count": %d, '
                   '"violations": %s}\n'
                   % (total, len(violations), json.dumps(violations)))
    return summary
