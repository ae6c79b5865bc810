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
subgroup, and each partition is witnessed by its first hit in that order.

Each partition is found at its own radical.  Let Y give the partition P,
with radical m Z_n.  The translation (m, 0) maps each class of P onto
itself, so Y and (m, 0) generate a subgroup with the same orbits, whose
translation part is exactly <m>: a translation that keeps both classes lies
in the radical.  That subgroup is <(m, 0), (t, s)> with Y's own s, so
k = m hits P.  A hit at k gives classes that are unions of k-cosets, so
m | k, and the first hit in (k, s, t) order has k = m.  The enumerator
therefore reads, for each k | n, only the partitions of Z_k whose radical
is k itself, and partitions read at different k differ.

Only k = 2, 4 and the odd primes have such partitions.  Reducing mod a
divisor d of k maps each cycle of u -> b*u + t on Z_k onto a cycle of the
reduced map on Z_d, so the map has at least as many cycles as its
reduction, and when both have two, the classes are the preimages of the
reduced ones, with radical dividing d.  By CRT the map is the product of
its components on the prime powers p^e || k, and the cycle count of a
product is at least the product of the counts, so a map with two cycles
has two on one component and one on each other one.  Its two cycles then
lie over the two cycles of that component and are their preimages, so the
radical is k only for k = p^e.  For odd p, the map reduces mod p to a
translation (one cycle for t not divisible by p, and then, by Hull-Dobell,
so is the map; p cycles otherwise), or to the fixed point t / (1 - b) and
the orbits of multiplication by b around it, which are one exactly when b
is a primitive root mod p: the classes are a residue class mod p and the
rest, so e = 1.  For p = 2, a map with even t reduces mod 2 to two fixed
points, and its classes are the evens and the odds (k = 2).  With odd t it
is a single cycle for b = 1 mod 4 (Hull-Dobell); for b = 3 mod 4 it
reduces mod 4 to u -> 3u + t, with the cycles {0, t} and {2, 2 + t}
(k = 4).

So the table of Z_k and b is empty unless k = 2; k = 4 and b = 3; or k an
odd prime and b a primitive root mod k, when it lists all k residue
classes.  A power of b is a primitive root mod k, or 3 mod 4, only if b
is, so the first s | ord(a) with a nonempty table is s = 1.

Note the partition set of a context is closed under translation: conjugating
Y by the translation u -> u + c (an element of X) translates both orbits by
c.  Case 1 therefore carries the coset shift c explicitly.

The context depends on a only through the cyclic subgroup <a> <= Z_n^*:
every generator a^j of <a> (gcd(j, ord a) = 1) gives the same group X, so
the same two-orbit subgroups and partitions.  The verdicts agree as well.
Case 1 reads the order of a mod m, which is the order of <a mod m>.  Case 2
reads a = 3 mod 4; when 4 | n and a = 3 mod 4, ord(a) is even, so every
generator a^j has odd j and a^j = 3 mod 4 too.  verify_lemma therefore
classifies and encodes once per subgroup, not once per unit; it still
enumerates every unit and checks that its partitions are the subgroup's.

A unit costs little beyond its dictionary of partitions: only k = 2, 4 and
the odd primes p | n are visited, each p by one multiplicative order (phi
factored once per modulus) and one C-level gather off the powers of a
primitive root mod p, and the partitions, interned, hash by identity.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import compress, repeat
from math import gcd
from operator import itemgetter
from typing import Sequence

from .errors import (CapExceeded, InvariantViolation, MalformedPartition,
                     ModulusOutOfRange)
from .fields import is_prime, mult_order, prime_factors
from .values import Value

DEFAULT_N_CAP = 4096


def units(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]


class AffineMapZn(Value):
    """Element (t, s) of Z_n x| <alpha>, acting as u -> a^s * u + t."""

    __slots__ = _fields = ("t", "s")


class AffineActionContext:
    """Immutable context (n, a): alpha = multiplication by a on Z_n."""

    def __init__(self, n: int, a: int):
        if n < 2:
            raise ModulusOutOfRange(f"modulus n = {n} must be >= 2")
        self.n = n
        self.a = a % n
        self.m_ord = mult_order(self.a, n)  # raises NotAUnit

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
        mult = pow(ctx.a, g.s, ctx.n)
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

class OrbitPartition(Value):
    """Two-class partition of Z_n, quotiented by its radical.

    m is the radical index, rad(O1) = rad(O2) = m Z_n, so both classes are
    unions of m-cosets.  r1 holds the residues mod m of the first class in
    (size, smallest element) order, as a frozenset; the second class has the
    complementary residues.  The same object describes the partition for
    every n that m divides: partitions are interned, one per (m, r1) for the
    life of the process, so equality and hashing are identity, in C.

    Reports encode the classes of Z_n as text, through classes_json: the
    bytes of json.dumps(list(classes(n))), joined from one shared list of
    the decimal strings of 0, ..., n - 1 by C-level slices and masks, with
    no int list and no Python step per element.  The list grows to the
    largest n written and never shrinks, so peak memory is that of one
    field's strings, whatever the number of fields or partitions written.
    """

    __slots__ = _fields = ("m", "r1")
    _interned: dict[tuple[int, frozenset], OrbitPartition] = {}
    _digits: list[str] = []

    def __new__(cls, m: int, r1) -> OrbitPartition:
        key = m, frozenset(r1)
        try:
            return cls._interned[key]
        except KeyError:
            self = cls._interned[key] = object.__new__(cls)
            Value.__init__(self, *key)
            return self

    # __new__ set the fields; the C slots skip a Python call per construction
    __init__ = object.__init__
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self) -> str:
        return f"OrbitPartition(m={self.m!r}, r1={set(self.r1)!r})"

    def classes(self, n: int) -> tuple[list[int], list[int]]:
        """The two classes of Z_n, each ascending."""
        mark = bytearray(self.m)
        for x in self.r1:
            mark[x] = 1
        c1, c2 = [], []
        for x in range(n):
            (c1 if mark[x % self.m] else c2).append(x)
        return c1, c2

    def classes_json(self, n: int) -> str:
        """json.dumps(list(self.classes(n))), byte for byte: the classes are
        gathered from _digits, str(i) for every i below the largest n written
        so far, by a stride for m = 2 and by the residue mask repeated n / m
        times (and its complement) otherwise."""
        digits = self._digits
        if len(digits) < n:
            # a longer copy replaces the list, so no reader sees it change
            digits = digits + list(map(str, range(len(digits), n)))
            OrbitPartition._digits = digits
        if self.m == 2:
            c = next(iter(self.r1))
            c1, c2 = digits[c:n:2], digits[1 - c:n:2]
        else:
            mask = bytearray(self.m)
            for x in self.r1:
                mask[x] = 1
            mask *= n // self.m
            c1 = compress(digits, mask)
            c2 = compress(digits, mask.translate(_COMPLEMENT))
        return "[[" + ", ".join(c1) + "], [" + ", ".join(c2) + "]]"

    def sort_key(self, n: int):
        """Report order on Z_n: first-class size, then m, then residues."""
        return len(self.r1) * (n // self.m), self.m, sorted(self.r1)


_COMPLEMENT = bytes.maketrans(b"\0\1", b"\1\0")


def json_splice(head: dict, key: str, raw: str, tail: dict) -> str:
    """json.dumps({**head, key: value, **tail}), byte for byte, where key is
    a plain name and raw is json.dumps(value): the value goes in as text."""
    text = (json.dumps(head)[:-1] + ", " if head else "{") + f'"{key}": {raw}'
    return text + (", " + json.dumps(tail)[1:] if tail else "}")


# ---------------------------------------------------------------------------
# two-orbit subgroup enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _radical_moduli(n: int) -> tuple[int, ...]:
    # the k | n with a table (see the module docstring): 2, 4 and the odd
    # primes, ascending
    return tuple(sorted(prime_factors(n) + ((4,) if n % 4 == 0 else ())))


@lru_cache(maxsize=None)
def _prime_cycle(p: int) -> tuple[list[int], tuple, itemgetter]:
    # for an odd prime p and its least primitive root g: the discrete logs
    # log[g^j] = j, the partitions {g^j + pZ, rest} by j in [0, 2p - 2), and
    # the getter of the positions log 1, ..., log(p - 1)
    g = next(c for c in range(2, p) if mult_order(c, p) == p - 1)
    powers = [pow(g, j, p) for j in range(p - 1)]
    log = [0] * p
    for j, x in enumerate(powers):
        log[x] = j
    ring = tuple(OrbitPartition(p, (x,)) for x in powers)
    return log, ring + ring, itemgetter(*log[1:])


def _radical_full_table(k: int, b: int) -> tuple[tuple[OrbitPartition, ...],
                                                 Sequence[int]]:
    """Partitions of Z_k with radical k into the two cycles of some map
    u -> b*u + t, with the least witness t of each, ordered by t (see the
    module docstring for why no other (k, b) has one)."""
    if k == 2:
        return (OrbitPartition(2, (0,)),), (0,)
    if k == 4 and b == 3:
        # the cycles {0, t} and {2, 2 + t} of u -> 3u + t, for t = 1 and 3
        return (OrbitPartition(4, (0, 1)), OrbitPartition(4, (0, 3))), (1, 3)
    # b has order k - 1 only for prime k, as the order divides phi(k)
    if k % 2 and mult_order(b, k) == k - 1:
        # the class of t is the fixed point t / (1 - b): 0 for t = 0, else
        # g^(log t + j) with j = -log(1 - b), read off the ring
        log, ring, at_logs = _prime_cycle(k)
        j = -log[(1 - b) % k] % (k - 1)
        return ((OrbitPartition(k, (0,)),) + at_logs(ring[j:j + k - 1]),
                range(k))
    return (), ()


@lru_cache(maxsize=None)
def _affine_map(t: int, s: int) -> AffineMapZn:
    # one object per map, shared by the witness pairs of every table
    return AffineMapZn(t, s)


@lru_cache(maxsize=None)
def _witness_pairs(shifts: Sequence[int], translation: int, s: int) -> tuple:
    # the pairs ((translation, 0), (t, s)) by t in shifts; translation is
    # k mod n, so a table has two, shared by every unit of every context
    return tuple(zip(repeat(_affine_map(translation, 0)),
                     map(_affine_map, shifts, repeat(s))))


def two_orbit_partitions_with_generators(
        ctx: AffineActionContext,
        cap: int = DEFAULT_N_CAP,
) -> dict[OrbitPartition, tuple[AffineMapZn, AffineMapZn]]:
    """Two-orbit partitions, each with one witness generator pair.

    The witness pair ((k, 0), (t, s)) generates a subgroup whose orbit
    partition of Z_n is the key; it is the first hit in (k, s, t) ascending
    order.  Each partition is read at k = its radical index, from the
    table of b = a mod k, so s = 1 (see the module docstring).
    """
    if ctx.n > cap:
        raise CapExceeded(f"n = {ctx.n} exceeds the enumeration cap {cap}")
    found: dict[OrbitPartition, tuple[AffineMapZn, AffineMapZn]] = {}
    s = 1 % ctx.m_ord
    for k in _radical_moduli(ctx.n):
        parts, shifts = _radical_full_table(k, ctx.a % k)
        if parts:
            found.update(zip(parts, _witness_pairs(shifts, k % ctx.n, s)))
    return found


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class Case1(Value):
    """O1 = shift + m Z_n with m prime; alpha transitive mod m."""

    __slots__ = _fields = ("m", "shift")


class Case2(Value):
    """m = 4, equal halves pairing residues {0, variant} vs {2, -variant}."""

    __slots__ = _fields = ("variant",)


class Violation(Value):
    __slots__ = _fields = ("reason",)


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
    large for prime n).  Class arrays, there and in the violation entries,
    are spliced in as text from OrbitPartition.classes_json.

    Classification and encoding are done once per cyclic subgroup <a> of
    Z_n^*, not once per unit: X = Z_n x| <alpha> depends on a only through
    <a>, so every generator of <a> has the same partitions and the same
    verdicts (see the module docstring).  Each unit is still enumerated,
    and its partitions must be those of the subgroup, or InvariantViolation
    is raised.  Each unit a gets its own header and its own violation
    entries; the encoded partitions are shared.
    """
    if n_max > cap:
        raise CapExceeded(f"n_max = {n_max} exceeds the cap {cap}")
    violations = []
    contexts = total = 0
    if sink:
        sink.write('{"n_max": %d, "contexts": [\n' % n_max)
    for n in range(2, n_max + 1):
        # each generator of <a> -> (encoded tail of the context document,
        #                           the enumeration it came from,
        #                           [(partition, reason)] of its violations)
        shared: dict[int, tuple[str, dict, list]] = {}
        for a in units(n):
            ctx = AffineActionContext(n, a)
            found = two_orbit_partitions_with_generators(ctx, cap=cap)
            if a not in shared:
                entries = []
                counts = [0, 0, 0]  # case1, case2, violations
                bad = []
                for part in sorted(found, key=lambda part: part.sort_key(n)):
                    case = classify_partition(ctx, part)
                    entry = case_to_json(case)
                    if isinstance(case, Case1):
                        counts[0] += 1
                    elif isinstance(case, Case2):
                        counts[1] += 1
                    else:
                        counts[2] += 1
                        bad.append((part, case.reason))
                    if include_classes:
                        entry = json_splice(entry, "classes",
                                            part.classes_json(n), {})
                    entries.append(entry)
                totals = {"case1": counts[0], "case2": counts[1],
                          "violations": counts[2]}
                # the document minus its opening brace: the per-unit header
                # completes it byte for byte as json.dumps would
                if include_classes:
                    tail = json_splice({}, "partitions",
                                       "[" + ", ".join(entries) + "]",
                                       totals)[1:]
                else:
                    tail = json.dumps({"partitions": entries, **totals})[1:]
                # a is the first unit of <a>; the others are the a^j with
                # gcd(j, ord a) = 1
                x = a
                for j in range(1, ctx.m_ord + 1):
                    if gcd(j, ctx.m_ord) == 1:
                        shared[x] = tail, found, bad
                    x = x * a % n
            tail, subgroup_found, bad = shared[a]
            if found.keys() != subgroup_found.keys():
                raise InvariantViolation(
                    f"n = {n}: a = {a} has other two-orbit partitions than "
                    f"a generator of the same subgroup <a>")
            violations += [(n, a, part, reason) for part, reason in bad]
            contexts += 1
            total += len(found)
            if sink:
                sink.write(("" if contexts == 1 else ",\n")
                           + '{"n": %d, "a": %d, "m_ord": %d, '
                           % (n, a, ctx.m_ord) + tail)
    summary = {
        "n_max": n_max,
        "contexts_checked": contexts,
        "partitions_checked": total,
        "violation_count": len(violations),
        "violations": [{"n": n, "a": a, "classes": list(part.classes(n)),
                        "reason": reason}
                       for n, a, part, reason in violations],
    }
    if sink:
        sink.write('\n], "partitions_checked": %d, "violation_count": %d, '
                   '"violations": [%s]}\n'
                   % (total, len(violations), ", ".join(
                       json_splice({"n": n, "a": a}, "classes",
                                   part.classes_json(n), {"reason": reason})
                       for n, a, part, reason in violations)))
    return summary
