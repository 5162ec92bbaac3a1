"""Finite A-generated groups: a group together with a chosen generator
image per letter.  The assignment need not be injective; everything is
keyed by letter indices.

Materialized groups carry their full element list (BFS discovery order
from the identity, letters ascending, so element 0 is the identity) and
their Cayley graph as a complete inverse automaton.  The Cayley table is
recorded while the elements are discovered, and all later arithmetic is
done by table: a product follows the right factor's generation-tree word
through the Cayley graph, so element objects are never multiplied or
hashed again after materialization.  A product costs one Cayley step per
letter of that word, up to n - 1 in cyclic(n; a=1, b=1), so closures use
whole left-multiplication rows, each one pass along the tree, and the
abelianization walks the cosets of [G,G] over the letters.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from math import gcd

from .automata import InverseAutomaton
from .errors import VerificationError
from .perms import Permutation
from .words import Word


@dataclass(frozen=True)
class CyclicSpec:
    n: int
    images: tuple[int, ...]  # residue per letter

    @property
    def n_letters(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class KleinSpec:
    images: tuple[tuple[int, int], ...]  # bit pair per letter

    @property
    def n_letters(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class PermSpec:
    degree: int
    images: tuple[Permutation, ...]

    @property
    def n_letters(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class ExtensionSpec:
    """Gaschütz extension layer over an inner spec; tilde quotients by the center."""

    inner: "GroupSpec"
    p: int
    tilde: bool

    @property
    def n_letters(self) -> int:
        return self.inner.n_letters


@dataclass(frozen=True)
class ProductSpec:
    left: "GroupSpec"
    right: "GroupSpec"

    @property
    def n_letters(self) -> int:
        return self.left.n_letters


GroupSpec = CyclicSpec | KleinSpec | PermSpec | ExtensionSpec | ProductSpec

DEFAULT_BOUND = 10 ** 6


class OrderBoundError(ValueError):
    pass


class MaterializedGroup:
    """Finite A-generated group with explicit elements and Cayley graph.

    Arithmetic runs on the Cayley graph alone.  Every element j > 0 was
    discovered as parent[j] * image(letter[j]); the letters along that
    generation tree spell j's positive word, so i * j is i moved along
    that word and j^-1 is the identity moved back along it.  Only the
    tree is stored; a word is read off it when a product needs it.
    """

    def __init__(self, n_letters, elems, index, images, table, parent, letter):
        self.n_letters = n_letters
        self.elems = elems
        self.index = index
        self.images = images  # element index per letter
        self.cayley = table_automaton(table, n_letters)
        self._parent = parent  # generation tree: element j > 0 is
        self._letter = letter  # parent[j] * image(letter[j])

    @property
    def order(self) -> int:
        return len(self.elems)

    def mul_idx(self, i: int, j: int) -> int:
        word = []  # j's tree letters, read off last letter first
        while j:
            word.append(self._letter[j])
            j = self._parent[j]
        fwd = self.cayley.fwd
        for a in reversed(word):
            i = fwd[i][a]
        return i

    def inv_idx(self, i: int) -> int:
        bwd = self.cayley.bwd
        parent, letter = self._parent, self._letter
        x = 0
        while i:  # i's tree letters, last letter first
            x = bwd[x][letter[i]]
            i = parent[i]
        return x

    def left_row(self, i: int) -> list[int]:
        """The products i * h for every element h, in one pass along the
        generation tree."""
        fwd = self.cayley.fwd
        row = [i]
        for j in range(1, len(self.elems)):
            row.append(fwd[row[self._parent[j]]][self._letter[j]])
        return row

    def evaluate(self, w: Word) -> int:
        v = self.cayley.trace(0, w)
        if v is None:
            raise VerificationError("word %r leaves the Cayley graph" % (w,))
        return v

    def is_identity(self, w: Word) -> bool:
        return self.evaluate(w) == 0

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.mul_idx(x, i)
            k += 1
        return k

    def __repr__(self):
        return "MaterializedGroup(order=%d, letters=%d)" % (self.order, self.n_letters)


def table_automaton(table: list[list[int]], n_letters: int) -> InverseAutomaton:
    """The complete inverse automaton of a table of letter successors,
    based at vertex 0."""
    return InverseAutomaton(
        len(table), n_letters,
        ((i, a, j) for i, row in enumerate(table) for a, j in enumerate(row)), base=0)


def _generate(n_letters, identity, images, mul, bound) -> MaterializedGroup:
    """Breadth-first closure of the identity under right multiplication
    by the letter images, recording the Cayley table and the generation
    tree as it goes."""
    index = {identity: 0}
    elems = [identity]
    table = []
    parent, letter = [0], [-1]
    for i, x in enumerate(elems):  # grows while it is walked
        row = []
        for a, img in enumerate(images):
            y = mul(x, img)
            j = index.get(y)
            if j is None:
                if len(elems) >= bound:
                    raise OrderBoundError("materialization exceeds bound %d" % bound)
                j = index[y] = len(elems)
                elems.append(y)
                parent.append(i)
                letter.append(a)
            row.append(j)
        table.append(row)
    return MaterializedGroup(n_letters, elems, index, [index[img] for img in images],
                             table, parent, letter)


def _warn_identity_letters(images, identity):
    for a, img in enumerate(images):
        if img == identity:
            warnings.warn("letter %d maps to the identity" % a, stacklevel=3)


def materialize(spec: GroupSpec, bound: int = DEFAULT_BOUND) -> MaterializedGroup:
    if isinstance(spec, CyclicSpec):
        if spec.n < 1:
            raise ValueError("cyclic group order must be positive")
        images = [r % spec.n for r in spec.images]
        if gcd(spec.n, *images) != 1 and spec.n > 1:
            raise ValueError("images do not generate the cyclic group of order %d" % spec.n)
        _warn_identity_letters(images, 0)
        return _generate(spec.n_letters, 0, images, lambda x, y: (x + y) % spec.n, bound)
    if isinstance(spec, KleinSpec):
        images = [tuple(b % 2 for b in img) for img in spec.images]
        _warn_identity_letters(images, (0, 0))
        g = _generate(spec.n_letters, (0, 0), images,
                      lambda x, y: (x[0] ^ y[0], x[1] ^ y[1]), bound)
        if g.order != 4:
            raise ValueError("images do not generate the Klein four-group")
        return g
    if isinstance(spec, PermSpec):
        for img in spec.images:
            if img.degree != spec.degree:
                raise ValueError("permutation degree mismatch")
        from .perms import identity as perm_identity
        _warn_identity_letters(list(spec.images), perm_identity(spec.degree))
        return _generate(spec.n_letters, perm_identity(spec.degree), list(spec.images),
                         lambda x, y: x * y, bound)
    if isinstance(spec, ExtensionSpec):
        from .gaschuetz import GaschuetzLayer
        return GaschuetzLayer(materialize(spec.inner, bound), spec.p,
                              spec.tilde).materialize(bound)
    if isinstance(spec, ProductSpec):
        if spec.left.n_letters != spec.right.n_letters:
            raise ValueError("product components must share the alphabet")
        left, right = materialize(spec.left, bound), materialize(spec.right, bound)
        return product_A(left, right, bound)
    raise TypeError("unknown group spec %r" % (spec,))


def product_A(g: MaterializedGroup, h: MaterializedGroup, bound: int = DEFAULT_BOUND) -> MaterializedGroup:
    """Subgroup of g x h generated by the paired letter images."""
    if g.n_letters != h.n_letters:
        raise ValueError("alphabet size mismatch")
    images = [(g.images[a], h.images[a]) for a in range(g.n_letters)]
    return _generate(g.n_letters, (0, 0), images,
                     lambda x, y: (g.mul_idx(x[0], y[0]), h.mul_idx(x[1], y[1])), bound)


@dataclass(frozen=True, eq=False)
class Morphism:
    """Letter-respecting surjection between materialized groups."""

    src: MaterializedGroup
    dst: MaterializedGroup
    mapping: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def kernel(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.mapping) if g == 0)

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, g in enumerate(self.mapping):
            out.setdefault(g, []).append(i)
        return out

    def compose(self, other: "Morphism") -> "Morphism":
        """self: H->G composed with other: G->K, giving H->K."""
        if other.src is not self.dst:
            raise ValueError("morphisms do not compose")
        return Morphism(self.src, other.dst, tuple(other.mapping[g] for g in self.mapping))


def identity_morphism(g: MaterializedGroup) -> Morphism:
    return Morphism(g, g, tuple(range(g.order)))


def canonical_morphism(src: MaterializedGroup, dst: MaterializedGroup) -> Morphism | None:
    """The unique letter-respecting morphism src -> dst, if it exists.

    Exists iff the A-product of src and dst has exactly |src| elements.
    """
    if src.n_letters != dst.n_letters:
        raise ValueError("alphabet size mismatch")
    mapping = [-1] * src.order
    mapping[0] = 0
    queue = deque([0])
    while queue:
        h = queue.popleft()
        for a in range(src.n_letters):
            h2 = src.cayley.fwd[h][a]
            g2 = dst.cayley.fwd[mapping[h]][a]
            if mapping[h2] == -1:
                mapping[h2] = g2
                queue.append(h2)
            elif mapping[h2] != g2:
                return None
    return Morphism(src, dst, tuple(mapping))


def traversal_vector(g: MaterializedGroup, w: Word) -> dict[tuple[int, int], int]:
    """Signed traversal counts of w's path from the identity, per positive
    Cayley edge (element index, letter).  The word is read as given,
    without free reduction."""
    counts: dict[tuple[int, int], int] = {}
    v = 0
    for letter, sign in w:
        if sign > 0:
            e = (v, letter)
            v = g.cayley.fwd[v][letter]
            counts[e] = counts.get(e, 0) + 1
        else:
            v = g.cayley.bwd[v][letter]
            e = (v, letter)
            counts[e] = counts.get(e, 0) - 1
    return {e: c for e, c in counts.items() if c != 0}


def _orbit(start, maps) -> set[int]:
    """Closure of start under each map, every map an index list."""
    seen = set(start)
    queue = list(seen)
    while queue:
        x = queue.pop()
        for m in maps:
            if m[x] not in seen:
                seen.add(m[x])
                queue.append(m[x])
    return seen


def subgroup_closure(g: MaterializedGroup, gens) -> frozenset[int]:
    """Subgroup generated by the given element indices, as an orbit under
    left multiplication; at most log2|g| generators add a row."""
    members, rows = {0}, []
    for s in gens:
        if s not in members:
            rows.append(g.left_row(s))
            members = _orbit(members, rows)
    return frozenset(members)


def normal_closure(g: MaterializedGroup, gens) -> frozenset[int]:
    """Subgroup generated by the orbit of gens under conjugation by the
    letter images: image * x * image^-1 is a left row, then a bwd step."""
    bwd = g.cayley.bwd
    conj = [[bwd[y][a] for y in g.left_row(img)] for a, img in enumerate(g.images)]
    return subgroup_closure(g, sorted(_orbit(gens, conj)))


def commutator_subgroup(g: MaterializedGroup) -> frozenset[int]:
    comms = []
    for a in range(g.n_letters):
        for b in range(g.n_letters):
            x, y = g.images[a], g.images[b]
            comms.append(g.mul_idx(g.mul_idx(g.mul_idx(x, y), g.inv_idx(x)), g.inv_idx(y)))
    return normal_closure(g, comms)


def coset_walk(g: MaterializedGroup, t_elems):
    """Right cosets T x numbered breadth-first from T over the letters (a
    letter maps each coset onto a coset): the coset of every element, the
    coset table, and the tree (parent coset, letter) of the walk."""
    fwd = g.cayley.fwd
    coset_of = [-1] * g.order
    cosets = [list(t_elems)]
    for x in cosets[0]:
        coset_of[x] = 0
    table, parent, letter = [], [0], [-1]
    for c, members in enumerate(cosets):  # grows while it is walked
        row = []
        for a in range(g.n_letters):
            d = coset_of[fwd[members[0]][a]]
            if d == -1:
                d = len(cosets)
                cosets.append([fwd[x][a] for x in members])
                for x in cosets[d]:
                    coset_of[x] = d
                parent.append(c)
                letter.append(a)
            row.append(d)
        table.append(row)
    return coset_of, table, parent, letter


class AbelianQuotient:
    """The abelianization of a materialized group, with coset arithmetic
    in `quotient`, g/[g,g] as an A-generated group on the coset indices."""

    def __init__(self, g: MaterializedGroup):
        self.group = g
        self.coset_of, table, parent, letter = coset_walk(g, commutator_subgroup(g))
        self.letter_images = [self.coset_of[img] for img in g.images]
        ids = range(len(table))
        self.quotient = MaterializedGroup(g.n_letters, list(ids), {c: c for c in ids},
                                          self.letter_images, table, parent, letter)

    @property
    def order(self) -> int:
        return self.quotient.order

    def mul(self, c1: int, c2: int) -> int:
        return self.quotient.mul_idx(c1, c2)

    def coset_order(self, c: int) -> int:
        row = self.quotient.left_row(c)  # the quotient is abelian: x * c = c * x
        x = c
        for k in range(1, self.order + 1):
            if x == 0:
                return k
            x = row[x]
        raise VerificationError("the powers of coset %d miss the identity" % c)

    def eval_vector(self, v) -> int:
        """Coset of prod_a image_a^{v_a}."""
        return self.quotient.evaluate(Word(tuple((a, 1 if k > 0 else -1)
                                                 for a, k in enumerate(v) for _ in range(abs(k)))))

    def invariant_factors(self) -> list[int]:
        return _factors_from_order_counts(self.order, [self.coset_order(c) for c in range(self.order)])


def _factors_from_order_counts(order: int, elem_orders: list[int]) -> list[int]:
    """Invariant factors of a finite abelian group from its element orders.

    For each prime p the counts n_j = #{x : x^(p^j) = 1} = p^(f_j) recover
    the conjugate of the partition of p-exponents via f_j - f_(j-1);
    factors are assembled largest-with-largest across primes.
    """
    if order == 1:
        return []
    primes = []
    m, d = order, 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    partitions: dict[int, list[int]] = {}
    for p in primes:
        conj: list[int] = []
        prev = 0
        j = 1
        while True:
            pj = p ** j
            n_j = sum(1 for o in elem_orders if pj % o == 0)
            f_j = _ilog(n_j, p)
            if f_j == prev:
                break
            conj.append(f_j - prev)
            prev = f_j
            j += 1
        nparts = conj[0] if conj else 0
        partitions[p] = [sum(1 for c in conj if c >= i) for i in range(1, nparts + 1)]
    width = max(len(parts) for parts in partitions.values())
    factors = []
    for rank in range(width):
        d = 1
        for p, parts in partitions.items():
            if rank < len(parts):
                d *= p ** parts[rank]
        factors.append(d)
    return sorted(factors)


def _ilog(n: int, p: int) -> int:
    k = 0
    while n > 1:
        n //= p
        k += 1
    return k


def abelianization(g: MaterializedGroup) -> list[int]:
    """Invariant factors (ascending, each dividing the next) of g/[g,g]."""
    return AbelianQuotient(g).invariant_factors()

