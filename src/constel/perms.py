"""Permutations of {0..n-1} and certificates for the alternating group.

Composition is in right-action order: (p * q) moves v to q[p[v]], matching
the action of reading edge labels left to right.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a permutation of 0..n-1: %r" % (self.images,))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its least point, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = self.images[start]
            while v != start:
                seen[v] = True
                cyc.append(v)
                v = self.images[v]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def is_even(self) -> bool:
        return (self.degree - len(self.cycles(include_fixed=True))) % 2 == 0

    def sign(self) -> int:
        return 1 if self.is_even() else -1


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def from_cycles(n: int, cycles) -> Permutation:
    images = list(range(n))
    used: set[int] = set()
    for cyc in cycles:
        for v in cyc:
            if not 0 <= v < n:
                raise ValueError("cycle point %r out of range for degree %d" % (v, n))
            if v in used:
                raise ValueError("point %d appears twice in cycles" % v)
            used.add(v)
        for i, v in enumerate(cyc):
            images[v] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(0 1 2)(3 4)"; "()" is the identity."""
    text = text.strip()
    cycles = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise ValueError("expected '(' in cycle notation %r" % text)
        end = text.find(")", pos)
        if end < 0:
            raise ValueError("unbalanced cycle notation %r" % text)
        inner = text[pos + 1:end].replace(",", " ").split()
        if inner:
            cycles.append(tuple(int(t) for t in inner))
        pos = end + 1
    return from_cycles(n, cycles)


def format_cycles(p: Permutation) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)


@dataclass(frozen=True)
class PermGroupGens:
    """Generating tuple of permutations, one per letter."""

    degree: int
    perms: tuple[Permutation, ...]

    def __post_init__(self):
        for p in self.perms:
            if p.degree != self.degree:
                raise ValueError("generator degree mismatch")


def orbit(g: PermGroupGens, point: int) -> set[int]:
    moves = [p.images for p in g.perms] + [p.inverse().images for p in g.perms]
    seen = {point}
    stack = [point]
    while stack:
        v = stack.pop()
        for images in moves:
            w = images[v]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_transitive(g: PermGroupGens) -> bool:
    if g.degree == 0:
        return True
    return len(orbit(g, 0)) == g.degree


def _minimal_block_size(g: PermGroupGens, beta: int) -> int:
    """Size of the smallest block containing {0, beta} (Atkinson's algorithm)."""
    n = g.degree
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        parent[ry] = rx
        return rx

    queue = [(0, beta)]
    union(0, beta)
    while queue:
        u, v = queue.pop()
        for p in g.perms:
            x, y = find(p.images[u]), find(p.images[v])
            if x != y:
                union(x, y)
                queue.append((x, y))
    root = find(0)
    return sum(1 for v in range(n) if find(v) == root)


def is_primitive(g: PermGroupGens) -> bool:
    """Primitivity of a transitive group; degree 1 and 2 are primitive."""
    if not is_transitive(g):
        raise ValueError("primitivity is only defined for transitive groups here")
    if g.degree <= 2:
        return True
    for beta in range(1, g.degree):
        if _minimal_block_size(g, beta) < g.degree:
            return False
    return True


def prime_power_cycle(p: Permutation) -> tuple[int, int] | None:
    """Find (q, r) with q prime so that p**r is a single q-cycle.

    Succeeds when the cycle type has exactly one cycle of prime length q
    and q divides no other cycle length; r is the lcm of the others.
    """
    from math import lcm

    lengths = sorted({len(c) for c in p.cycles(include_fixed=True)})
    counts = {}
    for c in p.cycles(include_fixed=True):
        counts[len(c)] = counts.get(len(c), 0) + 1
    for q in lengths:
        if not is_prime(q) or counts[q] != 1:
            continue
        others = [len(c) for c in p.cycles(include_fixed=True) if len(c) != q]
        if any(length % q == 0 for length in others):
            continue
        r = lcm(*others) if others else 1
        return (q, r)
    return None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class AlternatingCertificate:
    """Evidence that a generating tuple generates Alt(degree).

    Based on Jordan's criterion: a primitive group containing a q-cycle
    for a prime q <= degree-3 contains Alt(degree); if moreover every
    generator is even, the group equals Alt(degree).
    """

    degree: int
    transitive: bool
    primitive: bool
    all_even: bool
    prime_cycle: tuple[int, int, int] | None  # (q, power, letter index)

    def valid(self) -> bool:
        if not (self.transitive and self.primitive and self.all_even):
            return False
        if self.prime_cycle is None:
            return False
        q, _, _ = self.prime_cycle
        return is_prime(q) and q <= self.degree - 3


def alternating_certificate(g: PermGroupGens) -> AlternatingCertificate:
    if g.degree < 5:
        raise ValueError("alternating certificate requires degree >= 5")
    transitive = is_transitive(g)
    primitive = is_primitive(g) if transitive else False
    all_even = all(p.is_even() for p in g.perms)
    prime_cycle = None
    for letter, p in enumerate(g.perms):
        found = prime_power_cycle(p)
        if found is not None and found[0] <= g.degree - 3:
            prime_cycle = (found[0], found[1], letter)
            break
    return AlternatingCertificate(g.degree, transitive, primitive, all_even, prime_cycle)


def generated_order(g: PermGroupGens, max_degree: int = 7) -> int:
    """Order of the generated group by closure; guarded to small degrees."""
    if g.degree > max_degree:
        raise ValueError("brute-force order is limited to degree <= %d" % max_degree)
    seen = {identity(g.degree)}
    frontier = [identity(g.degree)]
    while frontier:
        nxt = []
        for x in frontier:
            for p in g.perms:
                y = x * p
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)
