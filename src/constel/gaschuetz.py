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
left-multiplication row, so products never rebuild or rehash vectors
beyond the result.  Elements are kept lazy: a word
evaluates to (traversal vector mod p, base image) without enumerating
the layer.  Materialization, when the order fits the bound, runs the
BFS of `groups` over packed int keys, alpha's entries as digits above
g, by one-digit generator steps: right multiplication by a letter image
changes one digit, and on tilde layers also one letter class at g = 1.
`evaluate` builds elements through `_make`; no production path calls
`mul` or `inv`, which only the tests and the benchmark's tracing read.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from math import gcd, isqrt

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
from .perms import Permutation, is_prime
from .words import Word, concat, invert, power


@dataclass(frozen=True)
class GaschuetzElement:
    """Layer element (alpha, g): alpha is a dense tuple mod p over the
    base's edge index h * |A| + a, g an element index of the base."""

    alpha: tuple[int, ...]
    g: int


def check_modulus(p: int) -> None:
    """Refuse a non-prime modulus; one past DEFAULT_BOUND^2 is refused before
    trial division, so trial division takes at most DEFAULT_BOUND steps."""
    if p > 1:
        check_size(isqrt(p - 1) + 1, "modulus %d: trial division to" % p)  # ceil(sqrt(p))
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)


def order_formula(base_order: int, n_letters: int, p: int, tilde: bool) -> int:
    """Layer order: |G| * p^(|G|(|A|-1)+1) plain, |G| * p^((|G|-1)(|A|-1)) tilde.

    An order of p^k >= 2^k with 2^k already past Python's int-to-str digit
    limit is not built: 2^k stands for it.  It exceeds every size bound
    just as the order does, and a report refuses to print it just the same,
    while the order itself can take seconds to build."""
    k = (base_order - 1) * (n_letters - 1) if tilde else base_order * (n_letters - 1) + 1
    if k > 4 * sys.get_int_max_str_digits() > 0:  # 2^k > 16^limit has more digits than the limit
        return 1 << k
    return base_order * p ** k


class GaschuetzLayer:
    """Lazy arithmetic for the mod-p layer over a materialized base group.
    It holds the base, p and tilde; its identity and letter images are
    `evaluate` of the empty word and of the one-letter words."""

    def __init__(self, base: MaterializedGroup, p: int, tilde: bool = False):
        check_modulus(p)
        self.base = base
        self.p = p
        self.tilde = tilde
        self.n_letters = base.n_letters

    def _make(self, alpha, g: int) -> GaschuetzElement:
        """Element from an unreduced dense vector; the tilde layer takes
        the coset form modulo label-constant vectors, with the entry of
        every edge (1, a) forced to zero.  The tilde form is taken in
        place, one letter's slice at a time, and consumes alpha."""
        p = self.p
        if self.tilde:
            n = self.n_letters
            for a in range(n):
                c = alpha[a]
                alpha[a::n] = [(u - c) % p for u in alpha[a::n]]
            return GaschuetzElement(tuple(alpha), g)
        return GaschuetzElement(tuple([u % p for u in alpha]), g)

    def _shift(self, g: int) -> list[int]:
        """Gather indices of the left shift (h, a) -> (g h, a): entry
        (k, a) of the shifted vector is entry (g^-1 k, a) of the input."""
        n_letters = self.n_letters
        return [h * n_letters + a for h in self.base.left_row(self.base.inv_idx(g))
                for a in range(n_letters)]

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
        for (h, a), c in traversal_vector(self.base.cayley, w).items():
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
        """The layer enumerated by generator steps on packed int keys.

        The key of (alpha, g) holds g in its low |G|.bit_length() bits and
        entry i = h * |A| + a of alpha as a p.bit_length()-bit digit above
        them, at bit |G|.bit_length() + i * p.bit_length().  A digit holds
        0..p-1 and the g field 0..|G|-1, so each fits its field and the
        key is injective.  Right multiplication by the image (e_a, phi(a))
        of letter a adds the shift g.e_a = e_(g,a), so a step adds 1 mod p
        to the one digit (g, a) and moves g along its Cayley a-edge.  The
        step keeps the tilde normal form, zero on the edges (1, b), except
        at g = 1: there the digit (1, a) becomes 1, and subtracting 1 mod p
        from every letter-a digit takes off that label-constant vector
        again.  That subtraction is a few int operations on the whole key:
        a digit that is zero gains p first, found by the carry-free test
        ((x & low) + low) | x on its top bit, where low masks the other
        bits of each digit.  No element object is built."""
        check_size(self.order(), "layer order")
        p, n_letters, tilde, fwd = self.p, self.n_letters, self.tilde, self.base.cayley.fwd
        g_bits, width = self.base.order.bit_length(), p.bit_length()
        g_mask, digit = (1 << g_bits) - 1, (1 << width) - 1
        shifts = [g_bits + i * width for i in range(self.base.order * n_letters)]
        # per letter a: the ones digit, the top bit and the lower bits of every letter-a digit
        ones = [sum(1 << s for s in shifts[a::n_letters]) for a in range(n_letters)]
        tops = [u << (width - 1) for u in ones]
        lows = [u * (digit >> 1) for u in ones]

        def step(x: int, a: int) -> int:
            g = x & g_mask
            s = shifts[g * n_letters + a]
            x += (1 if x >> s & digit != p - 1 else 1 - p) << s
            if tilde and g == 0:
                zero = ~((x & lows[a]) + lows[a] | x) & tops[a]
                x += p * (zero >> (width - 1)) - ones[a]
            return x + fwd[a][g] - g

        return _generate(n_letters, 0, step)

    def cover(self) -> tuple[MaterializedGroup, Morphism]:
        """The materialized layer with its projection onto the base,
        found as the canonical morphism; a layer without one raises."""
        mat = self.materialize()
        phi = canonical_morphism(mat, self.base)
        if phi is None:
            raise VerificationError("the layer does not project onto its base")
        return mat, phi

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
            yield GaschuetzElement(coeffs * self.base_order, 0)


def center(layer: GaschuetzLayer) -> CenterInfo:
    """Center of a plain layer: label-constant vectors over the identity.

    For each letter a the witness word is a product, over the cycles of
    right multiplication by phi(a), of w_i a^ord(phi(a)) w_i^-1 where w_i
    labels a path from the identity to the smallest cycle element; it
    traverses every a-edge exactly once and evaluates to the generator
    that is constant 1 on letter a.  The cycles are those of the Cayley
    a-step as a permutation, and each has length ord(phi(a)).
    """
    if layer.tilde:
        raise ValueError("the center description applies to the plain layer")
    base, p = layer.base, layer.p
    tree = bfs_tree(base.cayley, 0)
    generators = []
    witnesses = []
    for a in range(base.n_letters):
        vec = tuple(1 if b == a else 0 for b in range(base.n_letters)) * base.order
        gen = GaschuetzElement(vec, 0)
        pieces = []
        a_step = Permutation(tuple(base.cayley.fwd[a]))
        for cycle in a_step.cycles():
            w_i = tree_word(tree, cycle[0])
            if w_i is None:
                raise VerificationError("element %d is unreachable in the Cayley graph" % cycle[0])
            pieces.append(concat(w_i, power(Word(((a, 1),)), len(cycle)), invert(w_i)))
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
    mat, phi = layer.cover()
    kernel = phi.kernel()
    exponent_ok = all(k == 0 or mat.element_order(k) == p for k in kernel)
    abelian_ok = _pairwise_commute(mat, kernel)
    image_rows = [mat.left_row(img) for img in mat.images]
    center_size = sum(1 for x in range(mat.order)
                      if all(col[x] == row[x] for col, row in zip(mat.cayley.fwd, image_rows)))
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

    def morphism(self, i: int, j: int) -> Morphism:
        """Composite projection levels[i] -> levels[j], i >= j."""
        if not 0 <= j <= i < len(self.levels):
            raise ValueError("level indices out of range")
        phi = identity_morphism(self.levels[i])
        for k in range(i, j, -1):
            phi = phi.compose(self.projections[k - 1])
        return phi


def build_tower(spec: TowerSpec) -> Tower:
    for p, _ in spec.layers:
        check_modulus(p)
    levels, projections = [materialize(spec.base)], []
    for p, tilde in spec.layers[:-1]:
        mat, phi = GaschuetzLayer(levels[-1], p, tilde).cover()
        levels.append(mat)
        projections.append(phi)
    top = None
    if spec.layers:
        p, tilde = spec.layers[-1]
        top = GaschuetzLayer(levels[-1], p, tilde)
    return Tower(spec, tuple(levels), top, tuple(projections))


def layer_abelianization(layer: GaschuetzLayer) -> list[int]:
    """Invariant factors of the layer's abelianization, without
    materializing the layer; its modulus was checked when it was built.

    Words trivial in the plain layer are the w with trivial base image
    and traversal vector zero mod p; their letter-count vectors form
    p * Lambda, Lambda = ker(Z^A -> ab(G)), which the letter counts of
    the base's Cayley-graph cycles from `abelian_relations` generate.
    The tilde quotient further kills the center witnesses, whose count
    vectors are |G| * e_a.  So the abelianization is Z^A / (p*Lambda)
    resp. Z^A / (p*Lambda + |G|Z^A).  Take a basis f_i of Z^A with Lambda
    = sum d_i Z f_i, d_1 | ... | d_|A| its Smith diagonal; then p*Lambda =
    sum p*d_i Z f_i and |G|Z^A = sum |G| Z f_i, so the factors are p*d_i
    resp. gcd(p*d_i, |G|), and gcd(p*d_i, |G|) keeps the divisibility chain.
    """
    base, p = layer.base, layer.p
    diag = _smith_diagonal(abelian_relations(base), base.n_letters)
    if len(diag) != base.n_letters:
        raise VerificationError("the relation lattice has infinite index")
    factors = [gcd(p * d, base.order) if layer.tilde else p * d for d in diag]
    return [d for d in factors if d > 1]

