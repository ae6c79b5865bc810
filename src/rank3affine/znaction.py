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
subgroup.

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
is, so the tables of b = a mod k (s = 1) hold every partition.

Note the partition set of a context is closed under translation: conjugating
Y by the translation u -> u + c (an element of X) translates both orbits by
c.  Case 1 therefore carries the coset shift c explicitly.

The context depends on a only through the cyclic subgroup <a> <= Z_n^*:
every generator a^j of <a> (gcd(j, ord a) = 1) gives the same group X, so
the same two-orbit subgroups and partitions.  The verdicts agree as well.
Case 1 reads the order of a mod m, which is the order of <a mod m>.  Case 2
reads a = 3 mod 4; when 4 | n and a = 3 mod 4, ord(a) is even, so every
generator a^j has odd j and a^j = 3 mod 4 too.  For an odd prime p the
verdict reads only p, the number of residues and a mod p, so the p
singletons, one translation class, share one verdict.

The enumerator returns the tables of the k | n in report order, the odd
primes descending, then k = 2, then k = 4, each table a whole class with
its residues ascending.  That is the order of first-class size n / k, then
k, then residues, so the tuple is listed as reported, with no sort.

verify_lemma works at three levels.  Per subgroup <a>: one walk a, a^2,
..., 1, which gives ord(a) to every generator, so no unit computes an
order, and one read of its tables, those of a mod k for the k | n, whose
nonempty ones are encoded as they come.  Per translation class, in the
default report only: an odd prime's singletons are classified at residue 0,
and a case 1 there is written as one string cached per p; every other
partition, and each literal-class entry, is classified on its own.  Per
unit: its own enumeration, which must be the subgroup's tables joined, its
own header and its own violations.  A unit's enumeration visits only
k = 2, 4 and the odd primes p | n, each p by one primitive-root test (a
pow per prime of p - 1, factored once), and joins tables that hold one
partition object per (k, residue) for the life of the process, so the
tuples of two units, and a unit's tuple and its subgroup's tables,
compare by identity.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, compress
from math import gcd

from .arith import is_prime, is_primitive_root, prime_factors
from .errors import (DEFAULT_N_CAP, CapExceeded, InvariantViolation,
                     MalformedPartition, ModulusOutOfRange, NotAUnit)
from .values import Value


def units(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]


class AffineActionContext(Value):
    """Context (n, a): alpha = multiplication by a on Z_n."""

    __slots__ = _fields = ("n", "a")

    def __init__(self, n: int, a: int):
        if n < 2:
            raise ModulusOutOfRange(f"modulus n = {n} must be >= 2")
        if gcd(a, n) != 1:
            raise NotAUnit(f"{a % n} is not a unit mod {n}")
        # set directly, not by Value.__init__, which takes twice as long:
        # a lemma sweep builds one context per unit
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a % n)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

class OrbitPartition(Value):
    """Two-class partition of Z_n, quotiented by its radical.

    m is the radical index, rad(O1) = rad(O2) = m Z_n, so both classes are
    unions of m-cosets.  r1 holds the residues mod m of the first class in
    (size, smallest element) order, as a frozenset; the second class has the
    complementary residues.  The same value describes the partition for
    every n that m divides.  The enumerator hands out only the objects that
    _singletons, _EVENS and _QUARTIC hold, so tuples of its partitions
    compare by identity, element for element, before any Python __eq__.

    Reports encode the classes of Z_n as text, through classes_json: the
    bytes of json.dumps of the two ascending class lists, joined from one
    shared list of the decimal strings of 0, ..., n - 1 by C-level slices
    and masks, with no int list and no Python step per element.  The list grows to the
    largest n written and never shrinks, so peak memory is that of one
    field's strings, whatever the number of fields or partitions written.
    """

    __slots__ = _fields = ("m", "r1")
    _digits: list[str] = []

    def __init__(self, m: int, r1):
        super().__init__(m, frozenset(r1))

    def __repr__(self) -> str:
        return f"OrbitPartition(m={self.m!r}, r1={set(self.r1)!r})"

    def classes_json(self, n: int) -> str:
        """json.dumps([c1, c2]) for the classes c1 and c2 of Z_n, each
        ascending, byte for byte: the classes are gathered from _digits,
        str(i) for every i below the largest n written so far, by a stride
        for m = 2 and by the residue mask repeated n / m times (and its
        complement) otherwise.  m must divide n."""
        _check_radical(self.m, n)
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


_COMPLEMENT = bytes.maketrans(b"\0\1", b"\1\0")


def _check_radical(m: int, n: int) -> None:
    if m < 1 or n % m:
        raise MalformedPartition(f"radical index {m} does not divide n = {n}")


def json_splice(head: dict, key: str, raw: str, tail: dict) -> str:
    """json.dumps({**head, key: value, **tail}), byte for byte, where key is
    a plain name and raw is json.dumps(value): the value goes in as text."""
    text = (json.dumps(head)[:-1] + ", " if head else "{") + f'"{key}": {raw}'
    return text + (", " + json.dumps(tail)[1:] if tail else "}")


# ---------------------------------------------------------------------------
# two-orbit subgroup enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _table_moduli(n: int) -> tuple[int, ...]:
    # the k | n with a table (see the module docstring), in report order:
    # the odd primes descending, then 2, then 4.  Only the last n is kept:
    # the lemma asks for one n for all its units and subgroups, the theorem
    # once per field, and prime_factors already caches each n
    return (tuple(p for p in reversed(prime_factors(n)) if p > 2)
            + tuple(k for k in (2, 4) if n % k == 0))


@lru_cache(maxsize=None)
def _singletons(p: int) -> tuple[OrbitPartition, ...]:
    # {c + pZ, rest} for c = 0, ..., p - 1: an odd prime's translation class
    # in report order
    return tuple(OrbitPartition(p, (c,)) for c in range(p))


# the evens and odds, and the cycles {0, t} and {2, 2 + t} of u -> 3u + t
# for t = 1 and 3
_EVENS = (OrbitPartition(2, (0,)),)
_QUARTIC = (OrbitPartition(4, (0, 1)), OrbitPartition(4, (0, 3)))


def _radical_full_table(k: int, b: int) -> tuple[OrbitPartition, ...]:
    """Partitions of Z_k with radical k into the two cycles of some map
    u -> b*u + t: one whole translation class in report order, or none
    (see the module docstring for why no other (k, b) has one)."""
    if k == 2:
        return _EVENS
    if k == 4 and b == 3:
        return _QUARTIC
    # an odd k has a table only if it is prime (the root test presumes it)
    # and b is a primitive root mod k
    if k % 2 and is_prime(k) and is_primitive_root(b, k):
        return _singletons(k)
    return ()


def two_orbit_partitions_with_generators(
        ctx: AffineActionContext,
        cap: int = DEFAULT_N_CAP,
) -> tuple[OrbitPartition, ...]:
    """The two-orbit partitions of the context, in report order.

    Each partition is read at k = its radical index, from the table of
    b = a mod k, and the tables come in report order (see the module
    docstring).  Only partitions are returned, no generators; the name is
    kept because the benchmark's tracer records the enumeration by it.
    """
    n, a = ctx.n, ctx.a
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the enumeration cap {cap}")
    found = ()
    for k in _table_moduli(n):
        found += _radical_full_table(k, a % k)
    return found


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class Case1(Value):
    """O1 = shift + m Z_n with m prime; alpha transitive mod m."""

    __slots__ = _fields = ("m", "shift")
    tag = 1


class Case2(Value):
    """m = 4, equal halves pairing residues {0, variant} vs {2, -variant}."""

    __slots__ = _fields = ("variant",)
    tag = 2


class Violation(Value):
    __slots__ = _fields = ("reason",)
    tag = "violation"


LemmaCase = Case1 | Case2 | Violation


def classify_partition(ctx: AffineActionContext, part: OrbitPartition) -> LemmaCase:
    """Match a two-orbit partition against the two admissible shapes."""
    m, r1 = part.m, part.r1
    _check_radical(m, ctx.n)
    if m > 1 and is_prime(m):
        if len(r1) != 1:
            return Violation(
                f"radical index {m} is prime but the small class is not a single coset")
        # m prime: the nonzero classes form a cyclic group of order m - 1
        if not is_primitive_root(ctx.a % m, m):
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
    return {"case": case.tag, **case._asdict()}


# ---------------------------------------------------------------------------
# exhaustive verification
# ---------------------------------------------------------------------------

# case 1 and case 2 report entries as text, without the closing brace so
# that classes can follow; the bytes of json.dumps(case_to_json(case))
_CASE1 = '{"case": 1, "m": %d, "shift": %d'
_CASE2 = '{"case": 2, "variant": %d'


@lru_cache(maxsize=None)
def _case1_class(p: int) -> str:
    # the entries of an odd prime's translation class, all case 1
    return ", ".join([_CASE1 % (p, c) + "}" for c in range(p)])


def _encode_subgroup(ctx: AffineActionContext, listed: list,
                     include_classes: bool) -> tuple[str, list]:
    """The context document of <a> after its header, and the [(partition,
    reason)] of its violations.  listed holds the nonempty tables of <a>,
    whole translation classes in report order; they are written in that
    order.  The default report writes an odd prime's class from one verdict,
    at residue 0, where it is case 1 (see the module docstring); with
    include_classes every partition is classified for its own entry."""
    entries = []
    counts = [0, 0, 0]  # case1, case2, violations
    bad = []
    for members in listed:
        if not include_classes and len(members) > 2 and isinstance(
                classify_partition(ctx, members[0]), Case1):
            counts[0] += len(members)
            entries.append(_case1_class(members[0].m))
            continue
        for part in members:
            case = classify_partition(ctx, part)
            if isinstance(case, Case1):
                counts[0] += 1
                entry = _CASE1 % (case.m, case.shift)
            elif isinstance(case, Case2):
                counts[1] += 1
                entry = _CASE2 % case.variant
            else:
                counts[2] += 1
                bad.append((part, case.reason))
                entry = json.dumps(case_to_json(case))[:-1]
            if include_classes:
                entry += ', "classes": ' + part.classes_json(ctx.n)
            entries.append(entry + "}")
    return ('"partitions": [%s], "case1": %d, "case2": %d, "violations": %d}'
            % (", ".join(entries), *counts)), bad


def verify_lemma(n_max: int, cap: int = DEFAULT_N_CAP, sink=None,
                 include_classes: bool = False) -> dict:
    """Classify every two-orbit partition for all n <= n_max and units a.

    Returns a summary dict with the numbers of contexts and partitions
    checked and the full list of violations (expected empty).  When sink (a
    writable text stream) is given, a complete JSON report is streamed to
    it; partition entries carry the exact compact descriptors (m and shift,
    or variant), from which the classes are reconstructible, plus the
    literal class arrays when include_classes is set (they can be very
    large for prime n).  Those class arrays are spliced in as text from
    OrbitPartition.classes_json; the stream's tail is written from the
    summary.

    Every generator of <a> has the same tables, so the same partitions and
    verdicts (see the module docstring).  So the work is done per subgroup
    (the walk that gives each generator its order, one read of its tables
    and their encoding), per translation class in the default report only
    (one verdict and one cached string per odd prime; with include_classes
    each literal entry is classified on its own) and, only where it must
    be, per unit: its own enumeration, its own header and its own violation
    entries.  Each unit is enumerated once, the first unit of a subgroup
    included, and its tuple must be the subgroup's tables joined in report
    order, or InvariantViolation is raised.
    """
    if n_max > cap:
        raise CapExceeded(f"n_max = {n_max} exceeds the cap {cap}")
    violations = []
    contexts = total = 0
    sep = ""
    if sink:
        sink.write('{"n_max": %d, "contexts": [\n' % n_max)
    for n in range(2, n_max + 1):
        # each generator of <a> -> (ord a, encoded tail of the context
        #                           document, the partitions of <a>,
        #                           [(partition, reason)] of its violations)
        shared: dict[int, tuple[int, str, tuple, list]] = {}
        for a in units(n):
            ctx = AffineActionContext(n, a)
            found = two_orbit_partitions_with_generators(ctx, cap=cap)
            if a not in shared:
                # a is the first unit of <a>; the walk a, a^2, ..., 1 gives
                # ord(a) and the other generators, the a^j with
                # gcd(j, ord a) = 1
                powers = [a]
                while powers[-1] != 1:
                    powers.append(powers[-1] * a % n)
                m_ord = len(powers)
                listed = [t for k in _table_moduli(n)
                          if (t := _radical_full_table(k, a % k))]
                tail, bad = _encode_subgroup(ctx, listed, include_classes)
                entry = m_ord, tail, tuple(chain.from_iterable(listed)), bad
                for j, x in enumerate(powers, 1):
                    if gcd(j, m_ord) == 1:
                        shared[x] = entry
            m_ord, tail, parts, bad = shared[a]
            if found != parts:
                raise InvariantViolation(
                    f"n = {n}, a = {a}: the two-orbit partitions are not "
                    f"the tables of its subgroup <a>")
            if bad:
                violations += [(n, a, part, reason) for part, reason in bad]
            contexts += 1
            total += len(found)
            if sink:
                sink.write('%s{"n": %d, "a": %d, "m_ord": %d, '
                           % (sep, n, a, m_ord))
                sink.write(tail)
                sep = ",\n"
    summary = {
        "n_max": n_max,
        "contexts_checked": contexts,
        "partitions_checked": total,
        "violation_count": len(violations),
        "violations": [{"n": n, "a": a,
                        "classes": json.loads(part.classes_json(n)),
                        "reason": reason}
                       for n, a, part, reason in violations],
    }
    if sink:
        sink.write("\n], " + json.dumps({k: summary[k] for k in (
            "partitions_checked", "violation_count", "violations")})[1:] + "\n")
    return summary
