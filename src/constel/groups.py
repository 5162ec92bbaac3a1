"""Finite A-generated groups: a group together with a chosen generator
image per letter.  The assignment need not be injective; everything is
keyed by letter indices.

A materialized group is its Cayley table: elements are the indices of
their discovery by BFS from the identity, letters ascending, so element 0
is the identity.  The table is recorded while the elements are discovered
and the element objects are dropped afterwards; all later arithmetic is
done by table: a product follows the right factor's generation-tree word
through the Cayley graph.  A product costs one Cayley step per letter of
that word, up to n - 1 in cyclic(n; a=1, b=1), so closures use whole
left-multiplication rows, each one pass along the tree, and the
abelianization is the Smith normal form of the relations read off the
coset graph of [G,G].
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

DEFAULT_BOUND = 10 ** 6  # the one size limit; only check_size compares against it


class OrderBoundError(ValueError):
    pass


def check_size(n: int, what: str) -> None:
    """Refuse to build something of size n past DEFAULT_BOUND, read at
    call time.  Callers check before they allocate."""
    if n > DEFAULT_BOUND:
        try:
            size = str(n)
        except ValueError:  # past Python's int-to-str digit limit
            size = ">= 2^%d" % (n.bit_length() - 1)
        raise OrderBoundError("%s %s exceeds the bound %d" % (what, size, DEFAULT_BOUND))


class MaterializedGroup:
    """Finite A-generated group given by its Cayley graph.

    Arithmetic runs on the Cayley graph alone.  Every element j > 0 was
    discovered as parent[j] * image(letter[j]); the letters along that
    generation tree spell j's positive word, so i * j is i moved along
    that word and j^-1 is the identity moved back along it.  Only the
    tree is stored; a word is read off it when a product needs it.
    """

    def __init__(self, n_letters, images, table, parent, letter):
        self.n_letters = n_letters
        self.images = images  # element index per letter
        self.cayley = table_automaton(table, n_letters)
        self._parent = parent  # generation tree: element j > 0 is
        self._letter = letter  # parent[j] * image(letter[j])

    @property
    def order(self) -> int:
        return len(self._parent)

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
        for j in range(1, len(self._parent)):
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


def _generate(n_letters, identity, images, mul) -> MaterializedGroup:
    """Breadth-first closure of the identity under right multiplication
    by the letter images, recording the Cayley table and the generation
    tree as it goes.  The element objects are dropped once the letter
    images are resolved to indices."""
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
                check_size(len(elems) + 1, "element count")
                j = index[y] = len(elems)
                elems.append(y)
                parent.append(i)
                letter.append(a)
            row.append(j)
        table.append(row)
    image_ids = [index[img] for img in images]
    del elems, index
    return MaterializedGroup(n_letters, image_ids, table, parent, letter)


def _warn_identity_letters(images, identity):
    for a, img in enumerate(images):
        if img == identity:
            warnings.warn("letter %d maps to the identity" % a, stacklevel=3)


def materialize(spec: GroupSpec) -> MaterializedGroup:
    if isinstance(spec, CyclicSpec):
        if spec.n < 1:
            raise ValueError("cyclic group order must be positive")
        check_size(spec.n, "cyclic group order")
        images = [r % spec.n for r in spec.images]
        if gcd(spec.n, *images) != 1 and spec.n > 1:
            raise ValueError("images do not generate the cyclic group of order %d" % spec.n)
        _warn_identity_letters(images, 0)
        return _generate(spec.n_letters, 0, images, lambda x, y: (x + y) % spec.n)
    if isinstance(spec, KleinSpec):
        images = [tuple(b % 2 for b in img) for img in spec.images]
        _warn_identity_letters(images, (0, 0))
        g = _generate(spec.n_letters, (0, 0), images,
                      lambda x, y: (x[0] ^ y[0], x[1] ^ y[1]))
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
                         lambda x, y: x * y)
    if isinstance(spec, ExtensionSpec):
        from .gaschuetz import GaschuetzLayer
        return GaschuetzLayer(materialize(spec.inner), spec.p, spec.tilde).materialize()
    if isinstance(spec, ProductSpec):
        if spec.left.n_letters != spec.right.n_letters:
            raise ValueError("product components must share the alphabet")
        return product_A(materialize(spec.left), materialize(spec.right))
    raise TypeError("unknown group spec %r" % (spec,))


def product_A(g: MaterializedGroup, h: MaterializedGroup) -> MaterializedGroup:
    """Subgroup of g x h generated by the paired letter images."""
    if g.n_letters != h.n_letters:
        raise ValueError("alphabet size mismatch")
    images = [(g.images[a], h.images[a]) for a in range(g.n_letters)]
    return _generate(g.n_letters, (0, 0), images,
                     lambda x, y: (g.mul_idx(x[0], y[0]), h.mul_idx(x[1], y[1])))


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


def abelian_relations(g: MaterializedGroup) -> list[tuple[int, ...]]:
    """Generators of Lambda = ker(Z^A -> g/[g,g]), one per edge (c, a) of
    the coset graph of [g,g]: the letter counts of the walk's tree path to
    c, then a, then the tree path back from c.a.  Tree edges give zero;
    zero and repeated rows are dropped."""
    _, table, parent, letter = coset_walk(g, commutator_subgroup(g))
    counts = [(0,) * g.n_letters]  # letter counts of the tree path to each coset
    for c in range(1, len(table)):
        v = list(counts[parent[c]])
        v[letter[c]] += 1
        counts.append(tuple(v))
    rows = {}
    for c, row in enumerate(table):
        for a, d in enumerate(row):
            r = tuple(x - y + (i == a) for i, (x, y) in enumerate(zip(counts[c], counts[d])))
            if any(r):
                rows[r] = None
    return list(rows)


def abelianization(g: MaterializedGroup) -> list[int]:
    """Invariant factors (ascending, each dividing the next) of g/[g,g] =
    Z^A / Lambda, from the Smith normal form of the coset-graph relations."""
    return [d for d in _smith_diagonal(abelian_relations(g), g.n_letters) if d > 1]


def _smith_diagonal(rows: list[list[int]], ncols: int) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix, ascending
    with each entry dividing the next (zeros dropped)."""
    mat = [list(r) for r in rows if any(r)]
    k = 0
    diag = []
    while k < len(mat) and k < ncols:
        piv = next(((i, j) for i in range(k, len(mat))
                    for j in range(k, ncols) if mat[i][j]), None)
        if piv is None:
            break
        i, j = piv
        mat[k], mat[i] = mat[i], mat[k]
        if j != k:
            for row in mat:
                row[k], row[j] = row[j], row[k]
        while True:
            dirty = False
            for i in range(k + 1, len(mat)):
                while mat[i][k]:
                    q = mat[i][k] // mat[k][k]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[k])]
                    if mat[i][k]:
                        mat[i], mat[k] = mat[k], mat[i]
                        dirty = True
            for j in range(k + 1, ncols):
                while mat[k][j]:
                    q = mat[k][j] // mat[k][k]
                    for row in mat:
                        row[j] -= q * row[k]
                    if mat[k][j]:
                        for row in mat:
                            row[j], row[k] = row[k], row[j]
                        dirty = True
            if not dirty:
                break
        diag.append(abs(mat[k][k]))
        k += 1
    # enforce the divisibility chain; per prime this sorts exponents
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return [d for d in diag if d]
