"""Independent reference implementations used to cross-check the package.

These deliberately avoid the code paths they validate: strong regularity is
counted with a plain triple loop, two-orbit partitions come from closing
every unordered pair of group elements, and the graph6 decoder is written
from the format description rather than by inverting the encoder.  The
bitrow graph code (rows from digit-wise field additions, a pair scan, a
bit-loop graph6 writer and a backtracking isomorphism test) is kept as the
reference for the connection-set graph code, trial division and the
polynomial-power search as the reference for the field's modulus and omega,
the polynomial-product table loop as the reference for the packed field
tables, the power walk as the reference for multiplicative orders, trial
division per q as the reference for the sieve of prime powers, and the
per-partition report as the reference for the lemma report, and
json.dumps with int-list classes as the reference for the theorem report's
spliced text.  Partitions
are rebuilt as orbits of their witness generators, their classes as int
lists and their report order as a sort key, the Paley parameters come
from the closed form, and so does the number of two-orbit partitions of
each field.
Field sums in tests are taken on base-p digits and field products on
coefficient vectors by this module's own schoolbook product, and the powers of omega come from that loop, never
from the field walk they check.  The two-orbit partitions of F_q^* are
also found on the field itself, by pair closure over the maps
x -> lam * x^(p^s) of GammaL(1, q) on field codes, with no discrete log
and no lemma table.
"""

import json
from functools import lru_cache
from itertools import product
from math import gcd

from rank3affine.classify import classify_field
from rank3affine.errors import EmptySet, NotAUnit, Rank3Error
from rank3affine.fields import build_field
from rank3affine.graphs import NotStronglyRegular, SrgParams
from rank3affine.values import Value
from rank3affine.znaction import (AffineActionContext, Case1, Case2,
                                  OrbitPartition, case_to_json,
                                  classify_partition,
                                  two_orbit_partitions_with_generators)


@lru_cache(maxsize=None)
def divisors(n):
    """Divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def brute_srg_params(neighbor_sets):
    """(v, k, lambda, mu) by direct common-neighbor counting, or None."""
    v = len(neighbor_sets)
    degrees = {len(s) for s in neighbor_sets}
    if len(degrees) != 1:
        return None
    k = degrees.pop()
    lams, mus = set(), set()
    for x in range(v):
        for y in range(x + 1, v):
            c = len(neighbor_sets[x] & neighbor_sets[y])
            (lams if y in neighbor_sets[x] else mus).add(c)
    if len(lams) > 1 or len(mus) > 1:
        return None
    lam = lams.pop() if lams else 0
    mu = mus.pop() if mus else 0
    return (v, k, lam, mu)


def _cycle_labels(perm):
    """Cycle id per point, ids assigned in first-seen order."""
    n = len(perm)
    labels = [-1] * n
    nxt = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        u = start
        while labels[u] == -1:
            labels[u] = nxt
            u = perm[u]
        nxt += 1
    return tuple(labels)


def _join_partition(n, lab1, lab2):
    """Join of two partitions given as label arrays -> list of classes.

    The orbits of the group generated by two permutations are the join of
    their cycle partitions (connected components of the union of the two
    functional graphs).
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels in (lab1, lab2):
        first = {}
        for u in range(n):
            l = labels[u]
            if l in first:
                ru, rv = find(u), find(first[l])
                if ru != rv:
                    parent[rv] = ru
            else:
                first[l] = u
    classes = {}
    for u in range(n):
        classes.setdefault(find(u), []).append(u)
    return list(classes.values())


def pair_closure_two_orbit_partitions(n, a):
    """Orbit partitions with exactly two classes, over the subgroups generated
    by every unordered pair of elements of Z_n x| <a> (pairs include g with
    itself, covering cyclic subgroups).

    Elements sharing a cycle partition generate the same joins, so the pair
    loop runs over distinct cycle partitions.
    """
    a %= n
    assert gcd(a, n) == 1
    powers = [1]
    x = a % n
    while x != 1 % n:
        powers.append(x)
        x = x * a % n
    distinct = {}
    for s in range(len(powers)):
        for t in range(n):
            labels = _cycle_labels(tuple((powers[s] * u + t) % n
                                         for u in range(n)))
            distinct[labels] = True
    label_sets = list(distinct)
    out = set()
    for i, lab1 in enumerate(label_sets):
        for lab2 in label_sets[i:]:
            classes = _join_partition(n, lab1, lab2)
            if len(classes) == 2:
                out.add(frozenset(frozenset(c) for c in classes))
    return out


def decode_graph6(data):
    """(vertex count, set of frozenset edges) from graph6 bytes.

    Header: one byte v+63 for v <= 62, else byte 126 followed by three bytes
    encoding v in big-endian 6-bit groups.  Body: the upper triangle in
    column order (0,1),(0,2),(1,2),(0,3),..., packed big-endian six bits per
    byte, each offset by 63.
    """
    data = data.rstrip(b"\n")
    if data[0] == 126:
        v = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        v = data[0] - 63
        body = data[1:]
    bits = []
    for byte in body:
        val = byte - 63
        assert 0 <= val < 64
        bits.extend((val >> (5 - i)) & 1 for i in range(6))
    edges = set()
    pos = 0
    for j in range(1, v):
        for i in range(j):
            if bits[pos]:
                edges.add(frozenset((i, j)))
            pos += 1
    return v, edges


# ---------------------------------------------------------------------------
# dense bitrow Cayley graphs
# ---------------------------------------------------------------------------

def bitrows(field, connection):
    """Row x of the Cayley graph as an int whose bit y is set iff y - x lies
    in the connection set.  Row x adds x to every member one base-p digit
    at a time, through tables of c -> c + d * p^i: the table for d = 1 adds
    1 to digit i mod p of each decoded code, and d + 1 composes d with 1."""
    p, q = field.p, field.q
    digits = [field.coeffs(c) for c in range(q)]
    step = []
    for i in range(field.r):
        one = [c + ((x[i] + 1) % p - x[i]) * p ** i
               for c, x in enumerate(digits)]
        tables = [range(q)]
        for _ in range(p - 1):
            tables.append(list(map(one.__getitem__, tables[-1])))
        step.append(tables)
    exp = loop_field_tables(p, field.r)[0]
    members = [exp[i] for i in connection.indices]
    bit = [1 << c for c in range(q)]
    rows = []
    for x in digits:
        codes = members
        for i, d in enumerate(x):
            codes = map(step[i][d].__getitem__, codes)
        rows.append(sum(map(bit.__getitem__, codes)))
    return rows


def bitrow_srg_params(rows):
    """SrgParams, or NotStronglyRegular at the first pair (x, y), x < y in
    row order, whose common-neighbor count differs from the first count
    seen for its kind of pair (adjacent or not)."""
    v = len(rows)
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


ISO_VERTEX_LIMIT = 16


def is_isomorphic_small(g1, g2):
    """Exact isomorphism test of two Cayley graphs by backtracking over
    their bitrows, for graphs on at most ISO_VERTEX_LIMIT vertices."""
    if g1.q > ISO_VERTEX_LIMIT or g2.q > ISO_VERTEX_LIMIT:
        raise ValueError(f"isomorphism backtracking is limited to "
                         f"{ISO_VERTEX_LIMIT} vertices")
    if g1.q != g2.q:
        return False
    n = g1.q
    rows1, rows2 = (bitrows(g.field, g.connection) for g in (g1, g2))
    deg1 = [r.bit_count() for r in rows1]
    deg2 = [r.bit_count() for r in rows2]
    if sorted(deg1) != sorted(deg2):
        return False
    order = sorted(range(n), key=lambda u: -deg1[u])
    mapping = [-1] * n
    used = [False] * n

    def extend(i):
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


def loop_graph6(rows):
    """graph6 bytes written one bit at a time: N(v), then the upper triangle
    column by column in 6-bit groups offset by 63."""
    v = len(rows)
    if v <= 62:
        head = bytes([v + 63])
    else:
        head = bytes([126, 63 + ((v >> 12) & 63), 63 + ((v >> 6) & 63),
                      63 + (v & 63)])
    out = bytearray()
    acc = nbits = 0
    for j in range(1, v):
        for i in range(j):
            acc = (acc << 1) | ((rows[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                out.append(63 + acc)
                acc = nbits = 0
    if nbits:
        out.append(63 + (acc << (6 - nbits)))
    return head + bytes(out)


# ---------------------------------------------------------------------------
# the affine action, partitions and their report order
# ---------------------------------------------------------------------------

class AffineMapZn(Value):
    """Element (t, s) of Z_n x| <alpha>, acting as u -> a^s * u + t."""

    __slots__ = _fields = ("t", "s")


def orbits(ctx, generators):
    """Orbit partition of Z_n under the subgroup generated by the maps, as
    frozensets in (size, smallest element) order.

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
            ru, rv = find(u), find((mult * u + g.t) % ctx.n)
            if ru != rv:
                parent[rv] = ru
    groups = {}
    for u in range(ctx.n):
        groups.setdefault(find(u), []).append(u)
    return sorted((frozenset(c) for c in groups.values()),
                  key=lambda c: (len(c), min(c)))


def classes(part, n):
    """The two classes of Z_n of an OrbitPartition, each an ascending list."""
    c1, c2 = [], []
    for x in range(n):
        (c1 if x % part.m in part.r1 else c2).append(x)
    return c1, c2


def sort_key(part, n):
    """Report order on Z_n: first-class size, then m, then residues."""
    return len(part.r1) * (n // part.m), part.m, sorted(part.r1)


class BadResidue(Rank3Error):
    """q is not 1 mod 4, so the Paley parameter formula does not apply."""


def paley_parameter_formula(q):
    """(q, (q-1)/2, (q-5)/4, (q-1)/4) for q = 1 mod 4."""
    if q % 4 != 1:
        raise BadResidue(
            f"q = {q} = {q % 4} mod 4; Paley parameters need q = 1 mod 4")
    return SrgParams(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


# ---------------------------------------------------------------------------
# radicals and multiplicative orders, by walking
# ---------------------------------------------------------------------------

def radical(S, n):
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


def trial_division_prime_power(q):
    """(p, r) with q = p^r, or None if q is not a prime power >= 2, by trial
    division up to the least prime factor of q: the previous as_prime_power."""
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


def loop_mult_order(x, modulus):
    """Multiplicative order of x modulo modulus, by multiplying by x until
    the product returns to 1."""
    cur = x % modulus
    order = 1
    while cur != 1 % modulus:
        cur = cur * x % modulus
        order += 1
        if order > modulus:
            raise NotAUnit(f"{x} is not a unit mod {modulus}")
    return order


def closed_form_count(p, r):
    """The number of two-orbit partitions of GF(p^r)^* under GammaL(1, p^r),
    without enumerating them: 1 (the squares) if 2 | q - 1, 2 (the Peisert
    halves) if 4 | q - 1 and p = 3 mod 4, and ell (the cosets of the
    index-ell subgroup) for each odd prime ell | q - 1 of which p is a
    primitive root, by trial division and the power walk."""
    n = p ** r - 1
    count = (n % 2 == 0) + 2 * (n % 4 == 0 and p % 4 == 3)
    while n % 2 == 0:
        n //= 2
    ell = 3
    while n > 1:
        if ell * ell > n:
            ell = n
        if n % ell == 0:
            if loop_mult_order(p, ell) == ell - 1:
                count += ell
            while n % ell == 0:
                n //= ell
        ell += 2
    return count


# ---------------------------------------------------------------------------
# per-shift enumerator: one cycle scan for every hitting t in Z_k
# ---------------------------------------------------------------------------

def _affine_cycle_count(k, b, t):
    """Number of cycles of u -> b*u + t on Z_k, bailing out above 2."""
    seen = bytearray(k)
    count = 0
    for start in range(k):
        if seen[start]:
            continue
        count += 1
        if count > 2:
            return count
        u = start
        while not seen[u]:
            seen[u] = 1
            u = (b * u + t) % k
    return count


def _affine_cycles(k, b, t):
    seen = bytearray(k)
    cycles = []
    for start in range(k):
        if seen[start]:
            continue
        cyc = []
        u = start
        while not seen[u]:
            seen[u] = 1
            cyc.append(u)
            u = (b * u + t) % k
        cycles.append(cyc)
    return cycles


def _two_orbit_shifts(k, b):
    """All t in Z_k for which u -> b*u + t has exactly two cycles.

    For b = 1 the map is a translation with gcd(t, k) cycles.  Otherwise the
    cycle count only depends on t mod gcd(b-1, k), so one count per residue
    class decides the class.
    """
    if k == 1:
        return ()
    b %= k
    if b == 1:
        return tuple(t for t in range(k) if gcd(t, k) == 2)
    g = gcd(b - 1, k)
    hits = []
    for t0 in range(g):
        if _affine_cycle_count(k, b, t0) == 2:
            hits.extend(range(t0, k, g))
    return tuple(sorted(hits))


def _reduce_candidate(k, b, t):
    c1, c2 = _affine_cycles(k, b, t)
    small = c1 if len(c1) <= len(c2) else c2
    m = radical(small, k)
    r1, r2 = frozenset(x % m for x in c1), frozenset(x % m for x in c2)
    # the first class leads by (size, smallest element); class sizes are the
    # residue counts times k/m, so residues decide
    if (len(r1), min(r1)) > (len(r2), min(r2)):
        r1 = r2
    return OrbitPartition(m, r1)


def per_shift_table(k, b):
    """(partitions, least witnesses) of Z_k under u -> b*u + t, ordered by
    t, from a cycle count of every class of t."""
    least = {}
    for t in _two_orbit_shifts(k, b):
        least.setdefault(_reduce_candidate(k, b, t), t)
    return tuple(least), tuple(least.values())


def in_report_order(parts, n):
    """The partitions sorted by sort_key on Z_n: the report order."""
    return tuple(sorted(parts, key=lambda part: sort_key(part, n)))


def radical_full_oracle(k, b):
    """The per-shift cycle-count table, kept to the partitions with radical
    k, in report order on Z_k: the reference for _radical_full_table."""
    parts, _ = per_shift_table(k, b)
    return in_report_order((part for part in parts if part.m == k), k)


def per_shift_two_orbit_partitions(ctx):
    """Reduced partition -> first witness pair, scanning every hitting t of
    every (k, s) in ascending order."""
    found = {}
    order = loop_mult_order(ctx.a, ctx.n)
    for k in divisors(ctx.n):
        for s in divisors(order):
            b = pow(ctx.a, s, k) if k > 1 else 0
            for t in _two_orbit_shifts(k, b):
                red = _reduce_candidate(k, b, t)
                if red not in found:
                    found[red] = (AffineMapZn(k % ctx.n, 0),
                                  AffineMapZn(t, s % order))
    return found


# ---------------------------------------------------------------------------
# the lemma report, one unit and one partition at a time
# ---------------------------------------------------------------------------

def per_partition_lemma_report(n_max, include_classes=False):
    """The text verify_lemma streams for n <= n_max, built with nothing
    shared: per unit, its order by loop_mult_order, its partitions sorted by
    sort_key, classify_partition and json.dumps(case_to_json(case)) per
    partition, and the classes as int lists."""
    docs, violations = [], []
    total = 0
    for n in range(2, n_max + 1):
        for a in (a for a in range(1, n) if gcd(a, n) == 1):
            ctx = AffineActionContext(n, a)
            found = two_orbit_partitions_with_generators(ctx)
            entries = []
            counts = {"case1": 0, "case2": 0, "violations": 0}
            for part in sorted(found, key=lambda part: sort_key(part, n)):
                case = classify_partition(ctx, part)
                entry = case_to_json(case)
                if isinstance(case, Case1):
                    counts["case1"] += 1
                elif isinstance(case, Case2):
                    counts["case2"] += 1
                else:
                    counts["violations"] += 1
                    violations.append({"n": n, "a": a,
                                       "classes": list(classes(part, n)),
                                       "reason": case.reason})
                if include_classes:
                    entry["classes"] = list(classes(part, n))
                entries.append(entry)
            docs.append(json.dumps({"n": n, "a": a,
                                    "m_ord": loop_mult_order(a, n),
                                    "partitions": entries, **counts}))
            total += len(found)
    return ('{"n_max": %d, "contexts": [\n' % n_max + ",\n".join(docs)
            + '\n], "partitions_checked": %d, "violation_count": %d, '
            '"violations": %s}\n' % (total, len(violations),
                                      json.dumps(violations)))


def theorem_document(report):
    """The text of ClassificationReport.dumps, built as json.dumps of the
    report with each entry's classes as the int lists of classes."""
    desc = report.field.descriptor()
    n = report.field.q - 1
    return json.dumps({
        "q": desc["q"], "p": desc["p"], "r": desc["r"], "field": desc,
        "partitions": [{"classes": list(classes(e.partition, n)),
                        **e.to_json()} for e in report.entries],
        "families": report.families_present(),
        "unmatched": report.unmatched_count})


# ---------------------------------------------------------------------------
# field addition on digit vectors
# ---------------------------------------------------------------------------

def digit_add(field, x, y):
    """x + y by decoding both codes into base-p digits, adding them mod p
    and re-encoding."""
    p = field.p
    return sum((a + b) % p * p ** i for i, (a, b) in
               enumerate(zip(field.coeffs(x), field.coeffs(y))))


def digit_neg(field, x):
    """-x by negating every base-p digit mod p."""
    p = field.p
    return sum((-a) % p * p ** i for i, a in enumerate(field.coeffs(x)))


# ---------------------------------------------------------------------------
# field arithmetic on coefficient vectors
# ---------------------------------------------------------------------------

def _encode(p, coeffs):
    return sum(c * p ** i for i, c in enumerate(coeffs))


def field_mul(field, x, y):
    """x * y: the product of the coefficient vectors modulo the field's
    modulus, by poly_mul_mod, independent of the products in fields.py."""
    return _encode(field.p, poly_mul_mod(field.coeffs(x), field.coeffs(y),
                                         field.modulus, field.p))


def field_pow(field, x, e):
    """x^e for e >= 0 by square-and-multiply on coefficient vectors."""
    result, base = 1, x
    while e:
        if e & 1:
            result = field_mul(field, result, base)
        base = field_mul(field, base, base)
        e >>= 1
    return result


def field_side_two_orbit_partitions(q):
    """The two-orbit partitions of F_q^* under GammaL(1, q), each a
    frozenset of two frozensets of field codes, found on the field itself:
    every map x -> lam * x^(p^s) is a permutation of the codes 1, ..., q - 1
    built with field_mul and field_pow on coefficient vectors, with no
    powers() walk and no discrete log.  As in
    pair_closure_two_orbit_partitions, the orbits of the subgroup a pair of
    maps generates are the join of their cycle partitions, and every
    subgroup of the metacyclic GammaL(1, q) is generated by two elements."""
    field = build_field(*trial_division_prime_power(q))
    codes = range(1, q)
    # mul[x][y] = x * y; point i of the permutations is the code i + 1
    mul = [None] + [[0] + [field_mul(field, x, y) for y in codes]
                    for x in codes]
    distinct = {}
    for s in range(field.r):
        frob = [field_pow(field, x, field.p ** s) for x in codes]
        for lam in codes:
            row = mul[lam]
            distinct[_cycle_labels([row[y] - 1 for y in frob])] = True
    label_sets = list(distinct)
    out = set()
    for i, lab1 in enumerate(label_sets):
        for lab2 in label_sets[i:]:
            classes = _join_partition(q - 1, lab1, lab2)
            if len(classes) == 2:
                out.add(frozenset(frozenset(u + 1 for u in c)
                                  for c in classes))
    return out


def classified_field_codes(q):
    """classify_field's partitions of GF(q)^*, each class mapped from its
    dlog indices i to the field codes of omega^i, by field_pow, in the form
    field_side_two_orbit_partitions returns."""
    field = build_field(*trial_division_prime_power(q))
    n = q - 1
    codes = [field_pow(field, field.omega, i) for i in range(n)]
    return {frozenset(frozenset(codes[i] for i in c)
                      for c in classes(e.partition, n))
            for e in classify_field(field).entries}


# ---------------------------------------------------------------------------
# field construction: trial division and polynomial powers
# ---------------------------------------------------------------------------

def _poly_mod(num, den, p):
    """num mod den over GF(p) by long division, den monic; coefficient
    lists low degree first.  The result may be shorter than deg den."""
    num = list(num)
    d = len(den) - 1
    while len(num) > d:
        c = num.pop()
        for j in range(d):
            num[len(num) - d + j] = (num[len(num) - d + j] - c * den[j]) % p
    return num


def trial_division_is_irreducible(poly, p):
    """Whether no monic polynomial of degree 1 .. deg/2 divides poly."""
    r = len(poly) - 1
    return all(any(_poly_mod(poly, (*tail, 1), p))
               for d in range(1, r // 2 + 1)
               for tail in product(range(p), repeat=d))


def trial_division_modulus(p, r):
    """The first monic irreducible polynomial of degree r over GF(p), with
    its lower coefficients in lexicographic order, low degree first."""
    for tail in product(range(p), repeat=r):
        poly = (*tail, 1)
        if trial_division_is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {r} over GF({p})")


def poly_mul_mod(a, b, modulus, p):
    """a * b mod modulus over GF(p), schoolbook, as a tuple; it has deg
    modulus entries when a and b have that many."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return tuple(_poly_mod([c % p for c in prod], modulus, p))


def poly_pow_mod(base, e, modulus, p):
    """base^e mod modulus by square-and-multiply, padded to deg modulus."""
    result = (1,)
    while e:
        if e & 1:
            result = poly_mul_mod(result, base, modulus, p)
        base = poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result + (0,) * (len(modulus) - 1 - len(result))


def power_search_omega(p, r, modulus):
    """The first coefficient vector, in lexicographic order, of order
    q - 1: its (q - 1) / l-th power is not 1 for any prime l | q - 1."""
    n = p ** r - 1
    exponents = [n // l for l in range(2, n + 1)
                 if n % l == 0 and all(l % d for d in range(2, l))]
    one = (1,) + (0,) * (r - 1)
    for cand in product(range(p), repeat=r):
        if any(cand) and all(poly_pow_mod(cand, e, modulus, p) != one
                             for e in exponents):
            return cand
    raise AssertionError(f"no primitive element of GF({p}^{r})")


# ---------------------------------------------------------------------------
# field tables: one polynomial product per power of omega
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def loop_field_tables(p, r):
    """(exp, descriptor) of GF(p^r) by the polynomial-product loop, cached
    per (p, r).

    The modulus comes from trial division and omega from the polynomial
    power search; exp[i] is the code of omega^i, and the loop stops early
    if omega^i returns to 1 before i = q - 1, so a non-primitive omega
    shows as a short table.  Callers share the cached result and must not
    change it.
    """
    q = p ** r
    modulus = trial_division_modulus(p, r)
    omega = power_search_omega(p, r, modulus)
    one = (1,) + (0,) * (r - 1)
    exp, x = [], one
    for _ in range(q - 1):
        exp.append(_encode(p, x))
        x = poly_mul_mod(x, omega, modulus, p)
        if x == one:
            break
    descriptor = {"p": p, "r": r, "q": q, "modulus": list(modulus),
                  "omega": list(omega)}
    return tuple(exp), descriptor
