"""Finite A-generated groups: a group together with a chosen generator
image per letter.  The assignment need not be injective; everything is
keyed by letter indices.

A materialized group is its Cayley table: elements are the indices of
their discovery by BFS from the identity, letters ascending, so element 0
is the identity.  The table is one column per letter, column a holding
x * image(a) for every element x; it is recorded while the elements are
discovered, becomes the `fwd` of the Cayley automaton as it stands, and
the keys that stood for the elements (ints, pairs, tuples of permutation
images) are dropped afterwards; all later arithmetic is
done by table: a product follows the right factor's generation-tree word
through the Cayley graph.  A product costs one Cayley step per letter of
that word, up to n - 1 in cyclic(n; a=1, b=1), so closures use whole
left-multiplication rows, each one pass along the tree, and the
abelianization is the Smith normal form of the letter counts of the
cycles that close that tree.
"""

from __future__ import annotations

import re
import sys
import warnings
from collections import deque
from dataclasses import dataclass
from math import gcd

from .automata import InverseAutomaton
from .errors import VerificationError
from .perms import PermSpec, _orbit
from .words import Word


class _ImageSpec:
    """A spec with one image per letter in `images`."""

    @property
    def n_letters(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class CyclicSpec(_ImageSpec):
    n: int
    images: tuple[int, ...]  # residue per letter


@dataclass(frozen=True)
class KleinSpec(_ImageSpec):
    images: tuple[tuple[int, int], ...]  # bit pair per letter


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


def format_size(n: int) -> str:
    """n in decimal, or as ">= 2^k" past Python's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return ">= 2^%d" % (n.bit_length() - 1)


def check_size(n: int, what: str) -> None:
    """Refuse to build something of size n past DEFAULT_BOUND, read at
    call time.  Callers check before they allocate."""
    if n > DEFAULT_BOUND:
        raise OrderBoundError("%s %s exceeds the bound %d" % (what, format_size(n), DEFAULT_BOUND))


def parse_int(text: str, what: str) -> int:
    """int(text) of an input.  A decimal string past Python's int-to-str
    digit limit is read in ASCII digits, without underscores and leading
    zeros of any script; one still past the limit is at least
    10^(digits - 1) in size, and check_size refuses it as a `what`.
    Text that int() cannot read at any length is named as not an integer."""
    try:
        return int(text)
    except ValueError:
        match = re.fullmatch(r"\s*([+-]?)(\d(?:_?\d)*)\s*", text)
        if not match:
            raise ValueError("%s %.200r is not an integer" % (what, text.strip())) from None
    digits = "".join(str(int(c)) for c in match[2] if c != "_").lstrip("0")  # ASCII digits
    if len(digits) > sys.get_int_max_str_digits() > 0:
        check_size(10 ** (len(digits) - 1), what)
    return int(match[1] + (digits or "0"))


class MaterializedGroup:
    """Finite A-generated group given by its Cayley graph.

    Arithmetic runs on the Cayley graph alone.  Every element j > 0 was
    discovered as parent[j] * image(letter[j]); the letters along that
    generation tree spell j's positive word, so i * j is i moved along
    that word and j^-1 is the identity moved back along it.  Only the
    tree is stored; a word is read off it when a product needs it.
    """

    def __init__(self, columns, parent, letter):
        self.n_letters = len(columns)
        self.images = [column[0] for column in columns]  # element index per letter
        self.cayley = table_automaton(columns, len(parent))
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
            i = fwd[a][i]
        return i

    def inv_idx(self, i: int) -> int:
        bwd = self.cayley.bwd
        parent, letter = self._parent, self._letter
        x = 0
        while i:  # i's tree letters, last letter first
            x = bwd[letter[i]][x]
            i = parent[i]
        return x

    def left_row(self, i: int) -> list[int]:
        """The products i * h for every element h, in one pass along the
        generation tree."""
        fwd = self.cayley.fwd
        row = [i]
        for j in range(1, len(self._parent)):
            row.append(fwd[self._letter[j]][row[self._parent[j]]])
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


def table_automaton(columns: list[list[int]], n: int) -> InverseAutomaton:
    """The complete inverse automaton on n vertices, based at vertex 0,
    whose fwd is the given letter columns.  It is folded exactly when
    each column is a permutation of the vertices; each bwd column is its
    inverse, filled once that is checked."""
    aut = InverseAutomaton(n, len(columns), base=0)
    aut.fwd = columns
    for a, (column, into) in enumerate(zip(columns, aut.bwd)):
        rows = sorted(column)  # the column's own int objects, shared by bwd
        if len(rows) != n or any(u != v for u, v in enumerate(rows)):
            raise ValueError("graph is not folded: letter %d does not permute the vertices" % a)
        for u, v in zip(rows, column):
            into[v] = u
    return aut


def _generate(n_letters, identity, step) -> MaterializedGroup:
    """Breadth-first closure of the identity under generator steps:
    step(x, a) is x times the image of letter a.  The letter columns of
    the Cayley table and the generation tree are recorded as it goes.
    The numbering depends only on which keys are equal, so any key that
    identifies the element numbers it the same way.  The keys are
    dropped once the table is complete."""
    index = {identity: 0}
    elems = [identity]
    columns = [[] for _ in range(n_letters)]
    parent, letter = [0], [-1]
    for i, x in enumerate(elems):  # grows while it is walked
        for a, column in enumerate(columns):
            y = step(x, a)
            j = index.get(y)
            if j is None:
                check_size(len(elems) + 1, "element count")
                j = index[y] = len(elems)
                elems.append(y)
                parent.append(i)
                letter.append(a)
            column.append(j)
    del elems, index
    return MaterializedGroup(columns, parent, letter)


def materialize(spec: GroupSpec) -> MaterializedGroup:
    """The group a spec names.  A letter that maps to its identity warns;
    the inner groups of extension and product specs do not."""
    g = _materialize(spec)
    warn_identity_letters(g.images, 0)
    return g


def warn_identity_letters(images, identity) -> None:
    """Warn once per letter whose image is the identity, naming the line
    that called our caller."""
    for a, img in enumerate(images):
        if img == identity:
            warnings.warn("letter %d maps to the identity" % a, stacklevel=3)


def _materialize(spec: GroupSpec) -> MaterializedGroup:
    if isinstance(spec, CyclicSpec):
        if spec.n < 1:
            raise ValueError("cyclic group order must be positive")
        check_size(spec.n, "cyclic group order")
        n, images = spec.n, [r % spec.n for r in spec.images]
        if gcd(n, *images) != 1 and n > 1:
            raise ValueError("images do not generate the cyclic group of order %d" % n)
        return _generate(spec.n_letters, 0, lambda x, a: (x + images[a]) % n)
    if isinstance(spec, KleinSpec):
        images = [(b0 % 2) << 1 | b1 % 2 for b0, b1 in spec.images]  # the bit pair as an int
        g = _generate(spec.n_letters, 0, lambda x, a: x ^ images[a])
        if g.order != 4:
            raise ValueError("images do not generate the Klein four-group")
        return g
    if isinstance(spec, PermSpec):
        images = [img.images for img in spec.images]  # x * img moves v to img[x[v]]
        return _generate(spec.n_letters, tuple(range(spec.degree)),
                         lambda x, a: tuple([images[a][v] for v in x]))
    if isinstance(spec, ExtensionSpec):
        from .gaschuetz import GaschuetzLayer
        return GaschuetzLayer(_materialize(spec.inner), spec.p, spec.tilde).materialize()
    if isinstance(spec, ProductSpec):
        if spec.left.n_letters != spec.right.n_letters:
            raise ValueError("product components must share the alphabet")
        return product_A(_materialize(spec.left), _materialize(spec.right))
    raise TypeError("unknown group spec %r" % (spec,))


def product_A(g: MaterializedGroup, h: MaterializedGroup) -> MaterializedGroup:
    """Subgroup of g x h generated by the paired letter images: one
    Cayley step in each factor per letter."""
    if g.n_letters != h.n_letters:
        raise ValueError("alphabet size mismatch")
    g_fwd, h_fwd = g.cayley.fwd, h.cayley.fwd
    return _generate(g.n_letters, (0, 0), lambda x, a: (g_fwd[a][x[0]], h_fwd[a][x[1]]))


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
    columns = list(zip(src.cayley.fwd, dst.cayley.fwd))
    while queue:
        h = queue.popleft()
        for src_col, dst_col in columns:
            h2 = src_col[h]
            g2 = dst_col[mapping[h]]
            if mapping[h2] == -1:
                mapping[h2] = g2
                queue.append(h2)
            elif mapping[h2] != g2:
                return None
    return Morphism(src, dst, tuple(mapping))


def traversal_vector(aut: InverseAutomaton, w: Word) -> dict[tuple[int, int], int]:
    """Signed traversal counts of w's path from the base of a based
    automaton that reads all of w (any Cayley graph), per positive edge
    (vertex, letter).  The word is read as given, without free reduction."""
    counts: dict[tuple[int, int], int] = {}
    v = aut.base
    for letter, sign in w:
        if sign > 0:
            e = (v, letter)
            v = aut.fwd[letter][v]
            counts[e] = counts.get(e, 0) + 1
        else:
            v = aut.bwd[letter][v]
            e = (v, letter)
            counts[e] = counts.get(e, 0) - 1
    return {e: c for e, c in counts.items() if c != 0}


def subgroup_closure(g: MaterializedGroup, gens) -> frozenset[int]:
    """Subgroup generated by the given element indices, as an orbit under
    left multiplication; at most log2|g| generators add a row."""
    members, rows = {0}, []
    for s in gens:
        if s not in members:
            rows.append(g.left_row(s))
            members = _orbit(members, rows)
    return frozenset(members)


def coset_walk(g: MaterializedGroup, t_elems):
    """Right cosets T x numbered breadth-first from T over the letters (a
    letter maps each coset onto a coset): the coset of every element and
    the letter columns of the coset table."""
    coset_of = [-1] * g.order
    cosets = [list(t_elems)]
    for x in cosets[0]:
        coset_of[x] = 0
    columns = [[] for _ in range(g.n_letters)]
    for members in cosets:  # grows while it is walked
        for step, column in zip(g.cayley.fwd, columns):
            d = coset_of[step[members[0]]]
            if d == -1:
                d = len(cosets)
                cosets.append([step[x] for x in members])
                for x in cosets[d]:
                    coset_of[x] = d
            column.append(d)
    return coset_of, columns


def abelian_relations(g: MaterializedGroup) -> list[tuple[int, ...]]:
    """Generators of Lambda = ker(Z^A -> g/[g,g]), one per edge (h, a) of
    the Cayley graph: the letter counts of the generation-tree word to h,
    plus a, minus the counts of the tree word to h.a.  These are the
    fundamental cycles of the Cayley graph for that tree; by
    Reidemeister-Schreier they generate ker(F -> g), whose letter-count
    image is Lambda.  Tree edges give zero; zero and repeated rows are
    dropped."""
    counts = []  # counts[b][j]: how often b occurs in the tree word to j
    for b in range(g.n_letters):
        col = [0] * g.order
        for j, (p, a) in enumerate(zip(g._parent, g._letter)):  # the root has letter -1
            col[j] = col[p] + (a == b)
        counts.append(col)
    rows = {}
    for h, out in enumerate(zip(*g.cayley.fwd)):  # h's targets, letters ascending
        for a, d in enumerate(out):
            r = [col[h] - col[d] for col in counts]
            r[a] += 1
            if any(r):
                rows[tuple(r)] = None
    return list(rows)


def abelianization(g: MaterializedGroup) -> list[int]:
    """Invariant factors (ascending, each dividing the next) of g/[g,g] =
    Z^A / Lambda, from the Smith normal form of the Cayley-graph cycle
    relations."""
    return [d for d in _smith_diagonal(abelian_relations(g), g.n_letters) if d > 1]


def _smith_diagonal(rows: list[list[int]], ncols: int) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix, ascending
    with each entry dividing the next (zeros dropped), by one elimination
    loop with least-entry pivots (Cohen 1993, 2.4).  A pass moves the first
    least nonzero |entry| of the unfinished block to (k, k) and reduces its
    column and row by floor quotients.  A remainder there, or the one left
    in row k once a row the pivot does not divide is added to it, is
    smaller than the pivot, so |pivot| falls within two passes and the
    loop ends.  A pivot is recorded once it divides the rest, and every
    later pivot is an integer combination of entries of the rest."""
    mat = [list(r) for r in rows if any(r)]
    diag = []
    while len(diag) < min(len(mat), ncols):
        k = len(diag)
        block = [(i, j) for i in range(k, len(mat)) for j in range(k, ncols) if mat[i][j]]
        if not block:
            break
        i, j = min(block, key=lambda ij: abs(mat[ij[0]][ij[1]]))
        mat[k], mat[i] = mat[i], mat[k]
        for row in mat:
            row[k], row[j] = row[j], row[k]
        piv = mat[k][k]
        for row in mat[k + 1:]:
            q = row[k] // piv
            row[:] = [a - q * b for a, b in zip(row, mat[k])]
        for j in range(k + 1, ncols):
            q = mat[k][j] // piv
            for row in mat:
                row[j] -= q * row[k]
        if any(row[k] for row in mat[k + 1:]) or any(mat[k][k + 1:]):
            continue  # a remainder is the least entry now
        bad = next((row for row in mat[k + 1:] if any(a % piv for a in row)), None)
        if bad is None:
            diag.append(abs(piv))
        else:
            mat[k] = [a + b for a, b in zip(mat[k], bad)]
    return diag
