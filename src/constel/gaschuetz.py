"""Mod-p extension layers over a finite A-generated group.

For a materialized group G with letter images phi(a), the plain layer is
the subgroup of F_p[G x A] |x G generated by the pairs (e_a, phi(a)),
where e_a is the indicator vector of the Cayley edge (1, a) and G shifts
edge indices by left multiplication.  The tilde layer is the quotient of
the plain layer by its center, which consists of the pairs (alpha, 1)
with alpha constant on each letter class.

An element is a pair (alpha, g): alpha is a dense tuple mod p over the
edge index h * |A| + a of the base, g a base element index.  The left
shift by g is a gather through an index map built from the base's
left-multiplication row on first use, so products never rebuild or
rehash vectors beyond the result.  Elements are kept lazy: a word
evaluates to (traversal vector mod p, base image) without enumerating
the layer.  Materialization goes through the generic BFS in `groups`
when the order fits the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

from .automata import bfs_tree, tree_word
from .errors import VerificationError
from .groups import (
    GroupSpec,
    MaterializedGroup,
    Morphism,
    _generate,
    _smith_diagonal,
    abelian_relations,
    canonical_morphism,
    check_size,
    identity_morphism,
    materialize,
    traversal_vector,
)
from .perms import is_prime
from .words import Word, concat, invert, power


@dataclass(frozen=True)
class GaschuetzElement:
    """Layer element (alpha, g): alpha is a dense tuple mod p over the
    base's edge index h * |A| + a, g an element index of the base."""

    alpha: tuple[int, ...]
    g: int
    tilde: bool = False


def check_modulus(p: int) -> None:
    """Refuse a non-prime modulus; one past DEFAULT_BOUND^2 is refused before
    trial division, so trial division takes at most DEFAULT_BOUND steps."""
    if p > 1:
        check_size(isqrt(p - 1) + 1, "modulus %d: trial division to" % p)  # ceil(sqrt(p))
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)


def order_formula(base_order: int, n_letters: int, p: int, tilde: bool) -> int:
    """Layer order: |G| * p^(|G|(|A|-1)+1) plain, |G| * p^((|G|-1)(|A|-1)) tilde."""
    if tilde:
        return base_order * p ** ((base_order - 1) * (n_letters - 1))
    return base_order * p ** (base_order * (n_letters - 1) + 1)


class GaschuetzLayer:
    """Lazy arithmetic for the mod-p layer over a materialized base group."""

    def __init__(self, base: MaterializedGroup, p: int, tilde: bool = False):
        check_modulus(p)
        self.base = base
        self.p = p
        self.tilde = tilde
        self.n_letters = base.n_letters
        size = base.order * base.n_letters
        self.identity = GaschuetzElement((0,) * size, 0, tilde)
        self.images = [self._make([1 if i == a else 0 for i in range(size)], base.images[a])
                       for a in range(base.n_letters)]
        self._shifts: dict[int, list[int]] = {}

    def _make(self, alpha, g: int) -> GaschuetzElement:
        """Element from an unreduced dense vector; the tilde layer takes
        the coset form modulo label-constant vectors, with the entry of
        every edge (1, a) forced to zero."""
        p = self.p
        if self.tilde:
            consts = alpha[:self.n_letters] * self.base.order
            return GaschuetzElement(tuple([(u - c) % p for u, c in zip(alpha, consts)]), g, True)
        return GaschuetzElement(tuple([u % p for u in alpha]), g, False)

    def _shift(self, g: int) -> list[int]:
        """Gather indices of the left shift (h, a) -> (g h, a): entry
        (k, a) of the shifted vector is entry (g^-1 k, a) of the input."""
        m = self._shifts.get(g)
        if m is None:
            n_letters = self.n_letters
            m = [h * n_letters + a for h in self.base.left_row(self.base.inv_idx(g))
                 for a in range(n_letters)]
            self._shifts[g] = m
        return m

    def mul(self, x: GaschuetzElement, y: GaschuetzElement) -> GaschuetzElement:
        beta = y.alpha
        return self._make([u + beta[i] for u, i in zip(x.alpha, self._shift(x.g))],
                          self.base.mul_idx(x.g, y.g))

    def inv(self, x: GaschuetzElement) -> GaschuetzElement:
        gi = self.base.inv_idx(x.g)
        alpha = x.alpha
        return self._make([-alpha[i] for i in self._shift(gi)], gi)

    def evaluate(self, w: Word) -> GaschuetzElement:
        alpha = [0] * (self.base.order * self.n_letters)
        for (h, a), c in traversal_vector(self.base, w).items():
            alpha[h * self.n_letters + a] = c
        return self._make(alpha, self.base.evaluate(w))

    def is_identity(self, w: Word) -> bool:
        x = self.evaluate(w)
        return x.g == 0 and not any(x.alpha)

    def order(self) -> int:
        return order_formula(self.base.order, self.n_letters, self.p, self.tilde)

    def kernel_rank(self) -> int:
        """p-rank of the kernel of the projection onto the base."""
        if self.tilde:
            return (self.base.order - 1) * (self.n_letters - 1)
        return self.base.order * (self.n_letters - 1) + 1

    def materialize(self) -> MaterializedGroup:
        check_size(self.order(), "layer order")
        return _generate(self.n_letters, self.identity, self.images, self.mul)

    def __repr__(self):
        return "GaschuetzLayer(base_order=%d, p=%d, tilde=%r)" % (
            self.base.order, self.p, self.tilde)


@dataclass(frozen=True)
class CenterInfo:
    p: int
    n_letters: int
    base_order: int
    order: int
    generators: tuple[GaschuetzElement, ...]
    witness_words: tuple[Word, ...]

    def elements(self):
        """All center elements: label-constant vectors paired with 1."""
        for coeffs in itertools.product(range(self.p), repeat=self.n_letters):
            yield GaschuetzElement(coeffs * self.base_order, 0, False)


def center(layer: GaschuetzLayer) -> CenterInfo:
    """Center of a plain layer: label-constant vectors over the identity.

    For each letter a the witness word is a product, over the cycles of
    right multiplication by phi(a), of w_i a^ord(phi(a)) w_i^-1 where w_i
    labels a path from the identity to the smallest cycle element; it
    traverses every a-edge exactly once and evaluates to the generator
    that is constant 1 on letter a.  The cycles are walked along Cayley
    a-steps, and each has length ord(phi(a)).
    """
    if layer.tilde:
        raise ValueError("the center description applies to the plain layer")
    base, p = layer.base, layer.p
    tree, step = bfs_tree(base.cayley, 0), base.cayley.fwd
    generators = []
    witnesses = []
    for a in range(base.n_letters):
        vec = tuple(1 if b == a else 0 for b in range(base.n_letters)) * base.order
        gen = GaschuetzElement(vec, 0, False)
        seen = set()
        pieces = []
        for start in range(base.order):
            if start in seen:
                continue
            h, length = start, 0
            while h not in seen:
                seen.add(h)
                h = step[h][a]
                length += 1
            w_i = tree_word(tree, start)
            if w_i is None:
                raise VerificationError("element %d is unreachable in the Cayley graph" % start)
            pieces.append(concat(w_i, power(Word(((a, 1),)), length), invert(w_i)))
        w_a = concat(*pieces)
        if layer.evaluate(w_a) != gen:
            raise VerificationError("the center witness for letter %d misses its generator" % a)
        generators.append(gen)
        witnesses.append(w_a)
    return CenterInfo(p, base.n_letters, base.order, p ** base.n_letters,
                      tuple(generators), tuple(witnesses))


@dataclass(frozen=True)
class StructureReport:
    order: int
    order_ok: bool
    kernel_size: int
    kernel_exponent_ok: bool
    kernel_abelian_ok: bool
    center_size: int
    center_order_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.order_ok and self.kernel_exponent_ok
                and self.kernel_abelian_ok and self.center_order_ok)


def _pairwise_commute(g: MaterializedGroup, elements) -> bool:
    """Whether x * y == y * x for all x, y in a subgroup of g.

    y * x is the inverse of x^-1 * y^-1, so the left rows of x and x^-1
    decide x against every y, and x^-1 along with it: one left row per
    element, and memory linear in |G|."""
    inverse = {x: g.inv_idx(x) for x in elements}
    for x in elements:
        x_inv = inverse[x]
        if x_inv < x:
            continue  # decided with x_inv
        row = g.left_row(x)
        row_inv = row if x_inv == x else g.left_row(x_inv)
        if any(row[y] != inverse[row_inv[inverse[y]]] for y in elements):
            return False
    return True


def coprime_structure_checks(base: MaterializedGroup, p: int) -> StructureReport:
    """Verify the split structure of the plain layer when p does not divide
    |G|: the order formula, an elementary abelian kernel, a center of order p^|A|."""
    layer = GaschuetzLayer(base, p, tilde=False)
    if base.order % p == 0:
        raise ValueError("hypothesis violated: %d divides the base order %d" % (p, base.order))
    mat = layer.materialize()
    phi = canonical_morphism(mat, base)
    if phi is None:
        raise VerificationError("the layer does not project onto its base")
    kernel = phi.kernel()
    exponent_ok = all(k == 0 or mat.element_order(k) == p for k in kernel)
    abelian_ok = _pairwise_commute(mat, kernel)
    image_rows = [mat.left_row(img) for img in mat.images]
    center_size = sum(1 for x in range(mat.order)
                      if all(mat.cayley.fwd[x][a] == row[x] for a, row in enumerate(image_rows)))
    return StructureReport(
        order=mat.order,
        order_ok=mat.order == layer.order(),
        kernel_size=len(kernel),
        kernel_exponent_ok=exponent_ok,
        kernel_abelian_ok=abelian_ok,
        center_size=center_size,
        center_order_ok=center_size == p ** base.n_letters,
    )


@dataclass(frozen=True)
class TowerSpec:
    base: GroupSpec
    layers: tuple[tuple[int, bool], ...]


@dataclass(frozen=True, eq=False)
class Tower:
    """Iterated layers G_0, G_1, ..., materialized except possibly the top."""

    spec: TowerSpec
    levels: tuple[MaterializedGroup, ...]
    top: GaschuetzLayer | None
    projections: tuple[Morphism, ...]  # projections[i]: levels[i+1] -> levels[i]

    @property
    def n_levels(self) -> int:
        return len(self.levels) + (1 if self.top is not None else 0)

    def orders(self) -> list[int]:
        out = [g.order for g in self.levels]
        if self.top is not None:
            out.append(self.top.order())
        return out

    def morphism(self, i: int, j: int) -> Morphism:
        """Composite projection levels[i] -> levels[j], i >= j."""
        if not 0 <= j <= i < len(self.levels):
            raise ValueError("level indices out of range")
        phi = identity_morphism(self.levels[i])
        for k in range(i, j, -1):
            phi = phi.compose(self.projections[k - 1])
        return phi

    def is_identity(self, w: Word) -> bool:
        """Word problem at the top level."""
        if self.top is not None:
            return self.top.is_identity(w)
        return self.levels[-1].is_identity(w)

    def evaluate(self, w: Word):
        if self.top is not None:
            return self.top.evaluate(w)
        return self.levels[-1].evaluate(w)


def build_tower(spec: TowerSpec) -> Tower:
    for p, _ in spec.layers:
        check_modulus(p)
    levels = [materialize(spec.base)]
    for p, tilde in spec.layers[:-1]:
        levels.append(GaschuetzLayer(levels[-1], p, tilde).materialize())
    top = None
    if spec.layers:
        p, tilde = spec.layers[-1]
        top = GaschuetzLayer(levels[-1], p, tilde)
    projections = []
    for i in range(len(levels) - 1):
        phi = canonical_morphism(levels[i + 1], levels[i])
        if phi is None:
            raise VerificationError("level %d does not project onto level %d" % (i + 1, i))
        projections.append(phi)
    return Tower(spec, tuple(levels), top, tuple(projections))


def layer_abelianization(base: MaterializedGroup, p: int, tilde: bool) -> list[int]:
    """Invariant factors of the layer's abelianization, without
    materializing the layer.

    Words trivial in the plain layer are the w with trivial base image
    and traversal vector zero mod p; their letter-count vectors form
    p * Lambda, Lambda = ker(Z^A -> ab(G)), which the coset-graph
    relations of `abelian_relations` generate.  The tilde quotient further
    kills the center witnesses, whose count vectors are |G| * e_a.  So
    the abelianization is Z^A / (p*Lambda) resp. Z^A / (p*Lambda + |G|Z^A).
    """
    check_modulus(p)
    n = base.n_letters
    rows = [[p * x for x in row] for row in abelian_relations(base)]
    if tilde:
        rows.extend([base.order if i == a else 0 for i in range(n)] for a in range(n))
    diag = _smith_diagonal(rows, n)
    if len(diag) != n:
        raise VerificationError("the relation lattice has infinite index")
    return [d for d in diag if d > 1]

