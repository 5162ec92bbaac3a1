"""Permutations of {0..n-1} and certificates for the alternating group.

Composition is in right-action order: (p * q) moves v to q[p[v]], matching
the action of reading edge labels left to right.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm


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

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, fixed points as 1-cycles, each from its least point, sorted."""
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
            out.append(tuple(cyc))
        return out

    def is_even(self) -> bool:
        return (self.degree - len(self.cycles())) % 2 == 0


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
    from .groups import parse_int  # groups imports this module
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
            cycles.append(tuple(parse_int(t, "permutation point") for t in inner))
        pos = end + 1
    return from_cycles(n, cycles)


@dataclass(frozen=True)
class PermSpec:
    """A permutation of 0..degree-1 per letter: spec, transition group, certificate input."""

    degree: int
    images: tuple[Permutation, ...]

    def __post_init__(self):
        if any(p.degree != self.degree for p in self.images):
            raise ValueError("permutation degree mismatch")

    @property
    def n_letters(self) -> int:
        return len(self.images)


def _orbit(start, maps) -> set[int]:
    """Closure of start under each map, every map an index list."""
    seen = set(start)
    queue = list(seen)
    while queue:
        x = queue.pop()
        for m in maps:
            y = m[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def orbit(g: PermSpec, point: int) -> set[int]:
    # a permutation of finite order has its inverse among its powers
    return _orbit([point], [p.images for p in g.images])


def is_transitive(g: PermSpec) -> bool:
    if g.degree == 0:
        return True
    return len(orbit(g, 0)) == g.degree


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _minimal_block_size(g: PermSpec, alpha: int, beta: int) -> tuple[int, int]:
    """Size of the smallest block containing {alpha, beta}, alpha != beta
    (Atkinson's algorithm), and the number of point images the pass read.

    Classes only grow into blocks, and the blocks of a transitive group
    all have one size dividing n, so a class of more than n/2 points
    already means the whole set."""
    n = g.degree
    moves = [p.images for p in g.images]
    parent = list(range(n))
    size = [1] * n
    parent[beta] = alpha
    size[alpha] = 2
    queue = [(alpha, beta)]
    reads = 0
    while queue:
        u, v = queue.pop()
        reads += 2 * len(moves)
        for images in moves:
            x, y = _find(parent, images[u]), _find(parent, images[v])
            if x != y:
                if size[x] < size[y]:
                    x, y = y, x
                parent[y] = x
                size[x] += size[y]
                if 2 * size[x] > n:
                    return n, reads
                queue.append((x, y))
    return size[_find(parent, alpha)], reads


def is_primitive(g: PermSpec) -> bool:
    """Primitivity of a transitive group; degree 1 and 2 are primitive.

    A transitive group of prime degree is primitive, since block sizes
    divide n.  Otherwise (Atkinson) G is primitive iff the smallest block
    B(0, beta) containing {0, beta} is the whole set for every beta != 0.
    For h in the stabilizer G_0 of 0, B(0, beta^h) = B(0, beta)^h, so one
    beta per G_0-orbit suffices.

    The orbits are approached from below by a union-find over the points,
    merged along Schreier generators u_v s u_w^-1 of G_0, where u_v is the
    BFS-tree word from 0 to v, s a generator and w = v^s.  They are taken
    over the non-tree edges in BFS order and applied from the tree words,
    so no transversal is stored.  Every class lies inside one G_0-orbit,
    so one block pass on any of its points settles it, and the answer is
    True once every class is settled.  Exactness does not depend on how
    far the classes have merged, only the number of block passes does.
    So the next generator is drawn only while the point images read for
    generators are at most those read by block passes: on a regular group
    G_0 is trivial and every generator is wasted, and this balance keeps
    such inputs within twice the cost of the block passes alone.
    """
    if not is_transitive(g):
        raise ValueError("primitivity is only defined for transitive groups here")
    n = g.degree
    if n <= 2 or is_prime(n):
        return True
    moves = [p.images for p in g.images]
    inverses = [p.inverse().images for p in g.images]
    tree = [-1] * n  # tree[v]: the generator on the BFS-tree edge into v
    order = [0]
    for v in order:
        for s, images in enumerate(moves):
            w = images[v]
            if w and tree[w] < 0:
                tree[w] = s
                order.append(w)

    def tree_word(v):  # generators along the tree path from 0 to v
        word = []
        while v:
            word.append(tree[v])
            v = inverses[tree[v]][v]
        word.reverse()
        return word

    def schreier_generators():
        for v in order:
            for s, images in enumerate(moves):
                w = images[v]
                if tree[w] != s:
                    yield ([moves[a] for a in tree_word(v)] + [images]
                           + [inverses[a] for a in reversed(tree_word(w))])

    parent = list(range(n))  # union-find of the classes, each inside a G_0-orbit
    tested = [False] * n

    generators = schreier_generators()
    generator_reads = block_reads = 0
    beta = 1
    while beta < n:
        if generators is not None and generator_reads <= block_reads:
            word = next(generators, None)
            if word is None:
                generators = None  # the classes are the G_0-orbits now
                continue
            image = range(n)
            for images in word:
                image = [images[x] for x in image]
            generator_reads += n * (len(word) + 1)
            for x, y in enumerate(image):
                if x != y:
                    x, y = _find(parent, x), _find(parent, y)
                    if x != y:
                        parent[y] = x
                        tested[x] = tested[x] or tested[y]
            continue
        root = _find(parent, beta)
        if not tested[root]:
            size, reads = _minimal_block_size(g, 0, beta)
            block_reads += reads
            if size < n:
                return False
            tested[root] = True
        beta += 1
    return True


def _prime_cycles(lengths: list[int]):
    """Yield every (q, r), q ascending, with q prime and p**r a single
    q-cycle, for p of these cycle lengths (fixed points included): q
    occurs once and divides no other length, r is the lcm of the others."""
    counts = Counter(lengths)
    for q in sorted(counts):
        if counts[q] == 1 and is_prime(q):
            others = [length for length in lengths if length != q]
            if all(length % q for length in others):
                yield q, lcm(*others)


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


def alternating_certificate(g: PermSpec) -> AlternatingCertificate:
    """Certificate of a generating tuple; `prime_cycle` is the least
    (q, r) of `_prime_cycles` of the first letter whose q is at most n-3.

    Primitivity is read off a prime cycle when a letter has one.  Lemma:
    let G be transitive and c in G a q-cycle, q prime; then c maps every
    block B with |B| > 1 to itself.  If c moved B, c would fix no point
    of B (it would lie in B and B^c), and as q is prime B, B^c, ...,
    B^(c^(q-1)) would be q disjoint blocks inside the q points c moves,
    so |B| = 1.  Hence supp(c), one <c>-orbit, lies in one block of
    every block system, and G is primitive iff the smallest block
    containing two points of supp(c) is all n points: one block pass.
    `is_primitive` runs only when no letter has such a cycle.
    """
    n = g.degree
    if n < 5:
        raise ValueError("alternating certificate requires degree >= 5")
    transitive = is_transitive(g)
    cycles = [p.cycles() for p in g.images]
    lengths = [[len(c) for c in cs] for cs in cycles]
    all_even = all((n - len(ls)) % 2 == 0 for ls in lengths)
    least = [next(_prime_cycles(ls), None) for ls in lengths]  # least (q, r) per letter
    prime_cycle = next(((*found, letter) for letter, found in enumerate(least)
                        if found is not None and found[0] <= n - 3), None)
    support = next((cs[ls.index(found[0])] for cs, ls, found in zip(cycles, lengths, least)
                    if found is not None), None)
    primitive = transitive and (is_primitive(g) if support is None
                                else _minimal_block_size(g, *support[:2])[0] == n)
    return AlternatingCertificate(n, transitive, primitive, all_even, prime_cycle)
