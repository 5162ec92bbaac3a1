"""Decision procedures for dissolving constellations.

A group H over G (via the canonical letter-respecting morphism)
dissolves a constellation (Xi, g, Theta) when no pair of words u, v
whose paths from 1 run inside Xi resp. Theta and end at g satisfies
[u]_H = [v]_H.  Every decision is made per maximal pair: the g choices
of one pair (Xi, Theta) share the lifts of Xi and Theta, so each pair
is lifted once and each g is decided from the fibers of those lifts.
A lift is found by BFS from the identity over preimage edges, so only
its own component of the cover is visited.  Two exact deciders are
provided:

- reachability: materialize H, lift Xi and Theta to the components of 1
  of their edge preimages in Gamma(H), and intersect the endpoint fibers
  over g.  Complete because the fiber of g in the lift is exactly the
  set of H-endpoints of qualifying words.  Witness words come from one
  BFS tree per lift, built on first use.
- linear: for a lazy mod-p top layer over a materialized M, the fibers
  of the lifts meet at an M-endpoint m iff the difference of reference
  paths to m lies in Z(Xi^) + Z(Theta^), the mod-p cycle spaces of the
  lifts, plus the constants c_a for tilde layers.  By Mayer-Vietoris
  for graphs that holds iff m and 1 lie in one component of Xi^
  intersect Theta^.  A constant c_a counts only when every a-edge lies
  in Xi^ or Theta^, and then adds the per-component boundary of its
  Xi^ part: the test is whether [m] - [1] lies in the span of those at
  most |A| vectors.  For plain layers the component of 1 lies over the
  base component of Xi intersect Theta, which misses g, so plain layers
  dissolve every constellation.  Components are labelled once per
  pair, only when some g has shared endpoints.

`dissolves_materialized` and `dissolves_linear` decide one
constellation through the same pair deciders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .automata import Subgraph, bfs_tree, full_subgraph, tree_word
from .constellations import Constellation, delta_a, maximal_constellations
from .errors import VerificationError
from .gaschuetz import GaschuetzLayer, Tower
from .groups import (MaterializedGroup, Morphism, OrderBoundError, canonical_morphism,
                     check_size, coset_walk, subgroup_closure, traversal_vector)
from .words import ASCII_LETTERS, Word

Vec = dict[tuple[int, int], int]

# The largest layer that is enumerated: up to it dissolve decides by reachability, the key
# lemma runs and rank reports are verified, so reports depend on its value.
MATERIALIZE_BOUND = 100000


@dataclass(frozen=True)
class DissolveReport:
    label: str
    dissolved: bool
    method: str  # "reachability" or "linear"
    witness: tuple[Word, Word] | None = None  # (u, v) with [u]_H = [v]_H
    endpoint: int | None = None               # shared lifted endpoint (linear)
    vector: Vec | None = None                 # offending difference vector


def reachable_lift(xi: Subgraph, h_group: MaterializedGroup, phi: Morphism
                   ) -> tuple[Subgraph, dict[int, frozenset[int]]]:
    """Component of the identity of the edge preimage of xi in Gamma(H),
    with its fibers: fibers[g] is exactly the set of H-endpoints of
    words whose G-path from 1 stays inside xi and ends at g.  Found by
    search from the identity over preimage edges."""
    base = xi.parent.base
    if base is None or not xi.has_vertex(base):
        raise ValueError("the base vertex must lie in the subgraph")
    gamma_h = h_group.cayley
    fwd, bwd, image, xi_edges = gamma_h.fwd, gamma_h.bwd, phi.mapping, xi.edges
    letters = range(gamma_h.n_letters)
    seen = {0}
    stack = [0]
    edges = []
    while stack:
        h = stack.pop()
        g = image[h]
        for a in letters:
            if (g, a) in xi_edges:
                edges.append((h, a))
                nxt = fwd[h][a]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            prv = bwd[h][a]
            if prv not in seen and (image[prv], a) in xi_edges:
                seen.add(prv)
                stack.append(prv)
    fibers: dict[int, set[int]] = {}
    for h in seen:
        fibers.setdefault(image[h], set()).add(h)
    lifted = Subgraph(gamma_h, frozenset(edges), frozenset(seen))
    return lifted, {g: frozenset(s) for g, s in fibers.items()}


def _witness_words(sub: Subgraph):
    """word(dst): label of a path from the base to dst inside the
    subgraph, purely positive when one exists.  The positive BFS tree
    and the signed one are each built once, on first use."""
    trees: dict[bool, dict[int, tuple[int, int, int]]] = {}

    def word(dst: int) -> Word | None:
        for forward_only in (True, False):
            if forward_only not in trees:
                trees[forward_only] = bfs_tree(sub.parent, sub.parent.base, sub.edges,
                                               forward_only)
            u = tree_word(trees[forward_only], dst)
            if u is not None:
                return u
        return None

    return word


def _path_stays(sub: Subgraph, w: Word) -> bool:
    v = sub.parent.base
    if not sub.has_vertex(v):
        return False
    for letter, sign in w:
        nxt = sub.parent.step(v, letter, sign)
        if nxt is None:
            return False
        edge = (v, letter) if sign > 0 else (nxt, letter)
        if edge not in sub.edges or not sub.has_vertex(nxt):
            return False
        v = nxt
    return True


def dissolves_pair_materialized(h_group: MaterializedGroup, phi: Morphism,
                                xi: Subgraph, theta: Subgraph, g_choices: Sequence[int],
                                labels: Sequence[str]) -> list[DissolveReport]:
    """Exact reachability decisions for (xi, g, theta), one report per g
    choice, labelled by `labels`; failures carry a re-verified word pair."""
    xi_hat, fib_xi = reachable_lift(xi, h_group, phi)
    th_hat, fib_th = reachable_lift(theta, h_group, phi)
    word_xi, word_th = _witness_words(xi_hat), _witness_words(th_hat)
    out = []
    for g, label in zip(g_choices, labels, strict=True):
        shared = fib_xi.get(g, frozenset()) & fib_th.get(g, frozenset())
        if not shared:
            out.append(DissolveReport(label, True, "reachability"))
            continue
        h = min(shared)
        u, v = word_xi(h), word_th(h)
        if (u is None or v is None
                or not h_group.evaluate(u) == h == h_group.evaluate(v)
                or not (_path_stays(xi, u) and _path_stays(theta, v))):
            raise VerificationError("witness for g=%d does not re-verify" % g)
        out.append(DissolveReport(label, False, "reachability", witness=(u, v)))
    return out


def dissolves_materialized(h_group: MaterializedGroup, phi: Morphism,
                           c: Constellation, label: str = "") -> DissolveReport:
    """Exact reachability decision; failures carry a re-verified word pair."""
    return dissolves_pair_materialized(h_group, phi, c.xi, c.theta, (c.g,), (label,))[0]


class GFpSpan:
    """Row space over F_p with streaming insertion and membership tests;
    rows map sortable column keys (edges, component ids) to entries."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[tuple[int, int], Vec] = {}  # pivot column -> reduced row

    def _clean(self, vec: Vec) -> Vec:
        return {e: c % self.p for e, c in vec.items() if c % self.p}

    def reduce(self, vec: Vec) -> Vec:
        vec = self._clean(vec)
        while vec:
            piv = max(vec)
            row = self.rows.get(piv)
            if row is None:
                return vec
            c = vec[piv]
            vec = {e: (vec.get(e, 0) - c * row.get(e, 0)) % self.p
                   for e in set(vec) | set(row)}
            vec = {e: x for e, x in vec.items() if x}
        return vec

    def add(self, vec: Vec) -> bool:
        r = self.reduce(vec)
        if not r:
            return False
        piv = max(r)
        inv = pow(r[piv], -1, self.p)
        self.rows[piv] = {e: c * inv % self.p for e, c in r.items()}
        return True

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _tree_vectors(sub: Subgraph, p: int) -> dict[int, Vec]:
    """Traversal vectors (mod p) of BFS-tree paths from the parent base
    to every vertex of the connected subgraph."""
    vecs: dict[int, Vec] = {}
    for w, (v, letter, sign) in bfs_tree(sub.parent, sub.parent.base, sub.edges).items():
        if v < 0:
            vecs[w] = {}
            continue
        edge = (v, letter) if sign > 0 else (w, letter)
        nxt = dict(vecs[v])
        nxt[edge] = (nxt.get(edge, 0) + sign) % p
        if not nxt[edge]:
            del nxt[edge]
        vecs[w] = nxt
    return vecs


def cycle_space_rows(sub: Subgraph, p: int) -> list[Vec]:
    """Fundamental-cycle basis of the subgraph's mod-p cycle space."""
    vecs = _tree_vectors(sub, p)
    rows = []
    for edge in sorted(sub.edges):
        u, _ = edge
        row = dict(vecs[u])
        row[edge] = (row.get(edge, 0) + 1) % p
        for e, c in vecs[sub.dst(edge)].items():
            row[e] = (row.get(e, 0) - c) % p
        row = {e: c for e, c in row.items() if c % p}
        if row:
            rows.append(row)
    return rows


def _constant_boundary(sub: Subgraph, letter: int, p: int) -> dict[int, int]:
    """Boundary mod p of the part inside sub of the constant vector
    c_letter (every letter-edge once): vertex -> coefficient, zeros
    dropped."""
    edges = [e for e in sub.edges if e[1] == letter]
    bnd = Counter(sub.dst(e) for e in edges)
    bnd.subtract(h for h, _ in edges)
    return {v: c % p for v, c in bnd.items() if c % p}


def dissolves_pair_linear(layer: GaschuetzLayer, phi: Morphism,
                          xi: Subgraph, theta: Subgraph, g_choices: Sequence[int],
                          labels: Sequence[str]) -> list[DissolveReport]:
    """Exact decisions for (xi, g, theta), one report per g choice,
    labelled by `labels`, for a lazy top layer over the materialized
    base of phi, without enumerating the layer.  Decided on the
    components of the intersection of the lifts; failures carry the
    endpoint and the difference of its signed BFS-tree vectors."""
    m_group = layer.base
    if phi.src is not m_group:
        raise ValueError("morphism must start at the layer's base group")
    xi_hat, fib_xi = reachable_lift(xi, m_group, phi)
    th_hat, fib_th = reachable_lift(theta, m_group, phi)
    p = layer.p
    ids = vecs = None
    out = []
    for g, label in zip(g_choices, labels, strict=True):
        report = DissolveReport(label, True, "linear")
        shared = sorted(fib_xi.get(g, frozenset()) & fib_th.get(g, frozenset()))
        if shared and ids is None:
            ids = _component_ids(xi_hat.intersection(th_hat))
            span = GFpSpan(p)  # per-component boundaries of the tilde constants
            for a in range(m_group.n_letters):
                if layer.tilde and all((h, a) in xi_hat.edges or (h, a) in th_hat.edges
                                       for h in range(m_group.order)):
                    row: Counter[int] = Counter()
                    for v, c in _constant_boundary(xi_hat, a, p).items():
                        if v not in ids:
                            raise VerificationError("the boundary of constant %d leaves "
                                                    "the intersection of the lifts" % a)
                        row[ids[v]] += c
                    span.add(row)
        for m in shared:
            if span.contains({} if ids[m] == ids[0] else {ids[m]: 1, ids[0]: -1}):
                vecs = vecs or (_tree_vectors(xi_hat, p), _tree_vectors(th_hat, p))
                diff = Counter(vecs[0][m])
                diff.subtract(vecs[1][m])
                diff = {e: cnt % p for e, cnt in diff.items() if cnt % p}
                report = DissolveReport(label, False, "linear", endpoint=m, vector=diff)
                break
        out.append(report)
    return out


def dissolves_linear(layer: GaschuetzLayer, phi: Morphism, c: Constellation,
                     label: str = "") -> DissolveReport:
    """Exact decision for a lazy top layer over the materialized base of
    phi, without enumerating the layer."""
    return dissolves_pair_linear(layer, phi, c.xi, c.theta, (c.g,), (label,))[0]


def _letter_label(letter: int, sign: int) -> str:
    return "delta:%s%s" % (ASCII_LETTERS[letter], "" if sign > 0 else "^-1")


def dissolve_all(tower: Tower, weak: bool = False) -> list[DissolveReport]:
    """Dissolving reports for the tower's top group over its base, over
    the weak (delta) or the full maximal constellation family, decided
    per pair.  Uses reachability whenever the top has at most
    MATERIALIZE_BOUND elements.  The report count is refused before any
    report is decided."""
    base = tower.levels[0]
    if weak:
        pairs = []
        for letter in range(base.n_letters):
            for sign in (1, -1):
                c = delta_a(base, letter, sign)
                pairs.append((c.xi, c.theta, (c.g,), (_letter_label(letter, sign),)))
    else:
        pairs = maximal_constellations(base)
        check_size(sum(len(pair.g_choices) for pair in pairs), "dissolve reports")
        pairs = [(pair.xi, pair.theta, pair.g_choices,
                  ["max%d:g%d" % (i, g) for g in pair.g_choices])
                 for i, pair in enumerate(pairs)]
    if tower.top is None:
        decide = partial(dissolves_pair_materialized, tower.levels[-1],
                         tower.morphism(len(tower.levels) - 1, 0))
    elif tower.top.order() <= MATERIALIZE_BOUND:
        h_group = tower.top.materialize()
        phi = canonical_morphism(h_group, base)
        if phi is None:
            raise VerificationError("the materialized top does not project onto the base")
        decide = partial(dissolves_pair_materialized, h_group, phi)
    else:
        decide = partial(dissolves_pair_linear, tower.top,
                         tower.morphism(len(tower.levels) - 1, 0))
    reports = []
    for xi, theta, g_choices, labels in pairs:
        reports += decide(xi, theta, g_choices, labels)
    return reports


def is_weak_dissolver(tower: Tower) -> bool:
    return all(r.dissolved for r in dissolve_all(tower, weak=True))


def is_dissolver(tower: Tower) -> bool:
    return all(r.dissolved for r in dissolve_all(tower, weak=False))


def _component_ids(sub: Subgraph) -> dict[int, int]:
    """Vertex -> least vertex of its component."""
    ids: dict[int, int] = {}
    for v in sorted(sub.vertices):
        if v not in ids:
            ids.update(dict.fromkeys(sub.component_of(v), v))
    return ids


def disconnection_equivalence(phi: Morphism, letter: int, sign: int = 1
                              ) -> tuple[bool, bool, bool, bool]:
    """The four equivalent statements for H over G and a signed letter,
    computed independently: (1) Gamma(H) minus the kernel translates of
    the letter's base edge is disconnected, (2) 1 and the letter image
    are separated there, (3) every n and n*image are separated, (4) H
    dissolves the letter constellation of G."""
    h_group, g_group = phi.src, phi.dst
    cayley = h_group.cayley
    kernel = phi.kernel()
    # n * img is one Cayley step; the geometric edge of (n, a^-1) is (n * img, a)
    removed = {(cayley.step(n, letter, sign) if sign < 0 else n, letter) for n in kernel}
    sub = full_subgraph(cayley).minus_edges(removed)
    ids = _component_ids(sub)
    disconnected = len(set(ids.values())) > 1
    separated_1 = ids[0] != ids[cayley.step(0, letter, sign)]
    separated_all = all(ids[n] != ids[cayley.step(n, letter, sign)] for n in kernel)
    dissolved = dissolves_materialized(h_group, phi, delta_a(g_group, letter, sign)).dissolved
    return (disconnected, separated_1, separated_all, dissolved)


@dataclass(frozen=True)
class KeyLemmaReport:
    n_edges: int
    failures: tuple[tuple[int, int], ...]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def key_lemma_edge(h_group: MaterializedGroup, l_set: frozenset[int],
                   edge: tuple[int, int]) -> bool:
    """Disconnection with separated endpoints after removing the L
    translates of one edge of Gamma(H)."""
    g, letter = edge
    removed = {(h_group.mul_idx(x, g), letter) for x in l_set}
    kept = {(h, a) for h in range(h_group.order) for a in range(h_group.n_letters)} - removed
    comp = bfs_tree(h_group.cayley, g, kept)
    return len(comp) < h_group.order and h_group.cayley.fwd[g][letter] not in comp


def key_lemma_report(g_group: MaterializedGroup, p: int, k_set) -> KeyLemmaReport:
    """Check, for every edge (g,a) of Gamma(G~), that removing the
    translates of the edge by the preimage L of K disconnects the graph
    with g and ga separated.  K must be a nontrivial subgroup of G.
    Left multiplication by L permutes Gamma(G~) and fixes the removed
    set, so one edge per orbit (right coset L.g, letter) is checked; L.g
    is the preimage of the coset K.phi(g)."""
    k_set = frozenset(k_set)
    if k_set == {0}:
        raise ValueError("K must be nontrivial")
    if subgroup_closure(g_group, k_set) != k_set:
        raise ValueError("K is not a subgroup")
    layer = GaschuetzLayer(g_group, p, tilde=True)
    if layer.order() > MATERIALIZE_BOUND:
        raise OrderBoundError("layer order %d exceeds the bound %d"
                              % (layer.order(), MATERIALIZE_BOUND))
    h_group = layer.materialize()
    phi = canonical_morphism(h_group, g_group)
    if phi is None:
        raise VerificationError("the layer does not project onto its base")
    l_set = frozenset(h for h in range(h_group.order) if phi(h) in k_set)
    coset, _, _, _ = coset_walk(g_group, k_set)  # element of G -> index of its coset K.g
    verdicts: dict[tuple[int, int], bool] = {}
    failures = []
    for h, letter, _ in h_group.cayley.pos_edges():
        orbit = (coset[phi(h)], letter)
        if orbit not in verdicts:
            verdicts[orbit] = key_lemma_edge(h_group, l_set, (h, letter))
        if not verdicts[orbit]:
            failures.append((h, letter))
    return KeyLemmaReport(h_group.cayley.n_pos_edges, tuple(failures))


def counting_lifts_check(phi: Morphism, w: Word) -> bool:
    """Pushing the H-traversal vector down along phi gives the
    G-traversal vector, as exact integers."""
    down: dict[tuple[int, int], int] = {}
    for (h, a), cnt in traversal_vector(phi.src, w).items():
        key = (phi(h), a)
        down[key] = down.get(key, 0) + cnt
    down = {e: c for e, c in down.items() if c}
    return down == traversal_vector(phi.dst, w)


def detecting_edges_check(phi: Morphism, c: Constellation, w: Word) -> bool:
    """Signed border-crossing count of the lifted word: the traversal of
    w in Gamma(H), summed over the preimages of the edges of Xi leaving
    the component of 1 of Xi intersect Theta minus those entering it,
    must equal exactly 1."""
    g_group = phi.dst
    if g_group.evaluate(w) != c.g:
        raise ValueError("word does not evaluate to the constellation's g")
    pi_g = traversal_vector(g_group, w)
    if not set(pi_g) <= c.xi.edges:
        raise ValueError("word traversal leaves xi")
    upsilon = c.xi.intersection(c.theta).component_of(c.base)
    border_out = {e for e in c.xi.edges
                  if e[0] in upsilon and c.xi.dst(e) not in upsilon}
    border_in = {e for e in c.xi.edges
                 if e[0] not in upsilon and c.xi.dst(e) in upsilon}
    total = 0
    for (h, a), cnt in traversal_vector(phi.src, w).items():
        if (phi(h), a) in border_out:
            total += cnt
        elif (phi(h), a) in border_in:
            total -= cnt
    return total == 1


@dataclass(frozen=True)
class RankReport:
    p: int
    tilde: bool
    rank: int        # kernel p-rank by the index formula
    cycle_dim: int   # E - V + 1 of the base Cayley graph
    tilde_deficit: int
    formula_ok: bool
    verified: bool | None  # enumeration check, None when out of bound


def schreier_rank_check(layer: GaschuetzLayer) -> RankReport:
    """The kernel rank of a plain layer equals the cycle-space dimension
    |G||A| - |G| + 1 of the base graph; tilde layers sit |A| lower."""
    base = layer.base
    rank = layer.kernel_rank()
    cycle_dim = base.order * base.n_letters - base.order + 1
    deficit = base.n_letters if layer.tilde else 0
    verified: bool | None = None
    if layer.order() <= MATERIALIZE_BOUND:
        mat = layer.materialize()
        phi = canonical_morphism(mat, base)
        if phi is None:
            raise VerificationError("the layer does not project onto its base")
        kernel = phi.kernel()
        verified = (len(kernel) == layer.p ** rank
                    and all(k == 0 or mat.element_order(k) == layer.p for k in kernel))
    return RankReport(layer.p, layer.tilde, rank, cycle_dim, deficit,
                      rank == cycle_dim - deficit, verified)
