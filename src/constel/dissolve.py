"""Decision procedures for dissolving constellations.

A group H over G (via the canonical letter-respecting morphism)
dissolves a constellation (Xi, g, Theta) when no pair of words u, v
whose paths from 1 run inside Xi resp. Theta and end at g satisfies
[u]_H = [v]_H.  Decisions read the lifts Xi^ and Theta^, the components
of 1 of the edge preimages of Xi and Theta in Gamma(H), off one
contraction (`_contraction`, `_Lifts`) of the preimage of an edge set S
inside Xi intersect Theta.  Every split of a bond C has Xi intersect
Theta = Gamma - C, so each bond is contracted once, and a split only
joins the preimages of its |C| cut edges.  Every letter constellation
(Gamma - e, g, {e}) has Xi containing Gamma - D, D the set of letter
edges, so the whole weak family is contracted once along the preimage
of Gamma - D, and a letter's Xi^ only joins the preimages of D - e:
it is told by the labels of the components it joins, never built as a
vertex set.  `dissolve_all` reads the fibers of phi once for either
family.  Two exact deciders are provided:

- reachability: materialize H and intersect the fibers over g of the
  lifts.  Complete because the fiber of g in a lift is exactly the
  set of H-endpoints of qualifying words.  Witness words come from one
  positive, else one signed, BFS tree per lift, each grown only until it
  holds the endpoint asked for; a later endpoint resumes the search.
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
  dissolve every constellation.  A failure carries the mod-p
  difference of the traversal vectors of the signed-tree words to m in
  Xi^ and in Theta^, read off the trees reachability grows.

`dissolves_materialized` and `dissolves_linear` decide one
constellation (Xi, g, Theta) from one contraction of its pair, and keep
the lifts of the last (phi, Xi, Theta) they were asked about, with the
tilde-constant span and the BFS trees grown on them, for the g choices
of one pair; `dissolve_all` never holds them.

Mirrors.  (Xi, g, Theta) is dissolved exactly when (Theta, g, Xi) is,
and `dissolve_all` decides each unordered split of a bond once.  The
mirror split (C_Theta, C_Xi) has the same bond and g choices and the
complementary mask, full ^ mask with full = 2^|C| - 1, and its
reports are the kept ones with the witness (u, v) read as (v, u), the
same endpoint and the vector negated mod p: the reports its own
decision would give.  Reachability: `shared(g)` reads `both`, which is
symmetric, and a witness tree depends only on its subgraph; Gamma - C_Xi
is the Theta of one order and the Xi of the other, so the words swap
and the mirror's re-check would test the same four facts.  Linear:
`comp`, `both` and the rule for when a constant c_a counts are the same
for both orders.  When it counts, the Xi^ part and the Theta^ part
cover every a-edge of Gamma(M), whose boundary is zero because h -> ha
permutes M; an edge in both parts joins two vertices of one contracted
component of `both`.  So the Theta^ part's boundary is minus the Xi^
part's at every vertex outside `both` and on every component, the check
on it raises for both or neither, the span and the first m are the same,
and the difference vector changes sign.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Sequence

from .automata import BfsTree, InverseAutomaton, Subgraph, bfs_tree, tree_word
from .constellations import (Constellation, MinimalCut, _base_component, delta_a,
                             maximal_constellations)
from .errors import VerificationError
from .gaschuetz import GaschuetzLayer, Tower, check_modulus, order_formula
from .groups import (MaterializedGroup, Morphism, check_size, subgroup_closure,
                     traversal_vector)
from .words import ASCII_LETTERS, Word

Vec = dict[tuple[int, int], int]

# The largest layer that is enumerated: up to it dissolve decides by reachability and rank
# reports are verified, so reports depend on its value.
MATERIALIZE_BOUND = 100000


@dataclass(frozen=True, slots=True)
class DissolveReport:
    label: str
    dissolved: bool
    method: str  # "reachability" or "linear"
    witness: tuple[Word, Word] | None = None  # (u, v) with [u]_H = [v]_H
    endpoint: int | None = None               # shared lifted endpoint (linear)
    vector: Vec | None = None                 # offending difference vector


def _contract(aut: InverseAutomaton, fibers, edges) -> list[int]:
    """comp[h]: the least vertex of the component of h in the preimage
    of the edge set `edges`, by union-find with path halving, written
    out in the loop.  A union hangs the larger root below the smaller,
    so parent[v] <= v throughout and each root is the least vertex of
    its component.  fibers[g] lists the vertices over g, so only the
    preimages of `edges` are walked."""
    parent = list(range(aut.n))
    for g, a in edges:
        step = aut.fwd[a]
        for x in fibers[g]:
            y = step[x]
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]  # x's parent is set before x moves up
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y
    for h in range(aut.n):
        parent[h] = parent[parent[h]]  # parent[h] < h already points at its root
    return parent


def _check_target(phi: Morphism, *subs: Subgraph) -> None:
    if any(sub.parent is not phi.dst.cayley for sub in subs):
        raise ValueError("subgraph must lie in the Cayley graph of the morphism's target")


def reachable_lift(xi: Subgraph, h_group: MaterializedGroup, phi: Morphism
                   ) -> tuple[Subgraph, dict[int, frozenset[int]]]:
    """Component of the identity of the edge preimage of xi in Gamma(H),
    with its fibers: fibers[g] is exactly the set of H-endpoints of
    words whose G-path from 1 stays inside xi and ends at g.  Read off
    the contraction of that preimage."""
    if h_group is not phi.src:
        raise ValueError("morphism must start at the given group")
    _check_target(phi, xi)
    if xi.parent.base not in xi.vertices:
        raise ValueError("the base vertex must lie in the subgraph")
    all_fibers = phi.fibers()
    comp = frozenset(h for h, c in enumerate(_contract(h_group.cayley, all_fibers, xi.edges))
                     if not c)
    edges = frozenset((h, a) for h in comp for a in range(h_group.n_letters)
                      if (phi(h), a) in xi.edges)
    fibers = {g: frozenset(hs).intersection(comp) for g, hs in all_fibers.items()}
    return Subgraph(h_group.cayley, edges, comp), {g: hs for g, hs in fibers.items() if hs}


class _LiftView:
    """The edges (h, a) of Gamma(H) over the edges of a subgraph of
    Gamma(G).  From the base, a BfsTree over this view discovers the lift
    in the order it would over the lift's own edges."""

    def __init__(self, edges, image: Sequence[int]):
        self.edges, self.image = edges, image

    def __contains__(self, edge: tuple[int, int]) -> bool:
        return (self.image[edge[0]], edge[1]) in self.edges


class _Members:
    """The vertices h of Gamma(H) with comp[h] in `labels`: a union of
    contracted components, told by membership without its vertex set."""

    __slots__ = ("comp", "labels")

    def __init__(self, comp: Sequence[int], labels: set[int]):
        self.comp, self.labels = comp, labels

    def __contains__(self, h: int) -> bool:
        return self.comp[h] in self.labels

    def __and__(self, vertices) -> set[int]:
        return {h for h in vertices if h in self}


class _Lifts:
    """Xi^ and Theta^ read off `comp`, the contraction of Gamma(H) along
    the preimage of an edge set S inside Xi intersect Theta.

    Each lift is a union of contracted components, and `halves` holds
    their labels: a set, or `_Members` of a coarser contraction.  A
    preimage of an edge of Xi - S is no edge of Theta^, and vice versa,
    so every edge of Xi^ intersect Theta^ is a preimage of S: the
    components of the intersection are exactly the contracted components
    in both lifts (`both`), labelled by their least vertex."""

    def __init__(self, phi: Morphism, fibers: dict[int, list[int]], comp: Sequence[int],
                 halves: tuple[set[int] | _Members, set[int]], xi: Subgraph, theta: Subgraph):
        self.phi, self.fibers, self.comp = phi, fibers, comp
        self.xi, self.theta, self.halves, self.both = xi, theta, halves, halves[0] & halves[1]
        self.spans: dict[tuple[int, bool], GFpSpan] = {}  # complete spans by (p, tilde)
        self.trees: dict[tuple[int, bool], BfsTree] = {}  # by (side, forward_only)

    def shared(self, g: int) -> list[int]:
        return [h for h in self.fibers[g] if self.comp[h] in self.both]  # ascending

    def word(self, side: int, dst: int, positive_first: bool = False) -> Word:
        """Label of a path from 1 to dst in Xi^ (side 0) or Theta^ (side
        1), purely positive when `positive_first` and one exists.  Each
        tree is started once and grown only until it holds dst; a
        positive tree that never reaches dst is grown to the end.  The
        deciders ask only for vertices of `both`, which lie in each lift."""
        for forward_only in (True, False) if positive_first else (False,):
            tree = self.trees.get((side, forward_only))
            if tree is None:
                gamma, sub = self.phi.src.cayley, (self.xi, self.theta)[side]
                tree = self.trees[side, forward_only] = BfsTree(
                    gamma, gamma.base, _LiftView(sub.edges, self.phi.mapping), forward_only)
            u = tree_word(tree.grow(dst), dst)
            if u is not None:
                return u
        raise VerificationError("vertex %d is not reached in its lift" % dst)


def _contraction(phi: Morphism, fibers, shared, others):
    """(comp, reach): comp contracts Gamma(H) along the preimage of
    `shared`, and reach(half) is the set of contracted components that
    preimages of the edges `half`, drawn from `others`, join to the
    component of 1, labelled 0.  joins lists each preimage at both ends."""
    aut = phi.src.cayley
    comp = _contract(aut, fibers, shared)
    joins = {e: defaultdict(list) for e in others}
    for (g, a), join in joins.items():
        step = aut.fwd[a]
        for h in fibers[g]:
            join[comp[h]].append(comp[step[h]])
            join[comp[step[h]]].append(comp[h])

    def reach(half) -> set[int]:
        seen, order = {0}, [0]
        for c in order:
            for e in half:
                for d in joins[e].get(c, ()):
                    if d not in seen:
                        seen.add(d)
                        order.append(d)
        return seen
    return comp, reach


def _pair_lifts(phi: Morphism, xi: Subgraph, theta: Subgraph) -> _Lifts:
    """Lifts of any two subgraphs containing the base, over S = Xi
    intersect Theta: Gamma(H) is contracted once along the preimage of
    S, and Xi^ and Theta^ are reached over the preimages of Xi - Theta
    and Theta - Xi: a maximal pair's |C| cut edges, but all of Gamma - e
    for a letter constellation, which `disconnection_equivalence` hands
    to `_delta_lifts` instead.  Only the one-g API uses it; `dissolve_all`
    contracts once per bond or letter family."""
    _check_target(phi, xi, theta)  # the Constellation of xi and theta checked the base
    fibers, shared = phi.fibers(), xi.edges & theta.edges
    comp, reach = _contraction(phi, fibers, shared, xi.edges ^ theta.edges)
    return _Lifts(phi, fibers, comp, (reach(xi.edges - shared), reach(theta.edges - shared)),
                  xi, theta)


# The one-g deciders' lifts of the last (phi, xi, theta), all keyed by identity.
_last_pair_lifts = lru_cache(maxsize=1)(_pair_lifts)


def _bond_lifts(phi: Morphism, fibers, cut: MinimalCut):
    """lifts(pair) for the splits of a bond C: Gamma(H) is contracted
    once along the preimage of Gamma(G) - C, and a split's lift is found
    by a search over the components that preimages of its cut edges join."""
    comp, reach = _contraction(phi, fibers, cut.full.edges.difference(cut.edges), cut.edges)
    # Xi = (Gamma - C) + C_Xi and Theta = (Gamma - C) + C_Theta
    return lambda pair: _Lifts(phi, fibers, comp, tuple(map(reach, pair.halves())),
                               pair.xi, pair.theta)


def _delta_lifts(phi: Morphism, fibers, deltas: Sequence[Constellation]):
    """lifts(c) for the letter constellations c = (Gamma - e, g, {e}) in
    `deltas`: Gamma(H) is contracted once along the preimage of what every
    Xi shares, Gamma(G) - D, D the set of their letter edges e.

    Each Xi = (Gamma - D) + (D - e) contains Gamma - D, so Xi^ is the
    union of the contracted components that preimages of D - e join to
    the component of 1.  Theta = {e} with its two ends, one of them the
    base.  phi is a covering, so exactly one preimage edge of e meets 1,
    and its far end is the only other vertex of Theta^: 1.a when e
    leaves the base, 1.a^-1 when it enters it.  Xi and Theta share no
    edge, so S is empty, its contraction is the identity and `comp` is
    range(|H|).  The Theta half is its two vertices; the Xi half is
    membership through the contraction along Gamma - D, h in Xi^ iff
    its component's label is one of Xi^'s, so no letter builds a vertex
    set, and `both` is the part of Theta^'s two vertices inside Xi^."""
    aut = phi.src.cayley
    letter_edges = frozenset().union(*(c.theta.edges for c in deltas))
    comp, reach = _contraction(phi, fibers, frozenset.intersection(*(c.xi.edges for c in deltas)),
                               letter_edges)  # the joins are dropped on return; the labels stay
    xi_labels = {e: reach(letter_edges - {e}) for e in letter_edges}

    def lifts(c: Constellation) -> _Lifts:
        (t, a), = c.theta.edges
        halves = (_Members(comp, xi_labels[t, a]),
                  {0, aut.fwd[a][0] if t == c.base else aut.bwd[a][0]})
        return _Lifts(phi, fibers, range(aut.n), halves, c.xi, c.theta)
    return lifts


def _path_stays(sub: Subgraph, w: Word) -> bool:
    v = sub.parent.base
    if v not in sub.vertices:
        return False
    for letter, sign in w:
        nxt = sub.parent.step(v, letter, sign)
        # a Subgraph holds only parent edges with both ends in its vertices
        edge = (v, letter) if sign > 0 else (nxt, letter)
        if edge not in sub.edges:
            return False
        v = nxt
    return True


def _reach_reports(lifts: _Lifts, g_choices: Sequence[int],
                   labels: Sequence[str]) -> list[DissolveReport]:
    h_group = lifts.phi.src
    out = []
    for g, label in zip(g_choices, labels, strict=True):
        shared = lifts.shared(g)
        if not shared:
            out.append(DissolveReport(label, True, "reachability"))
            continue
        h = shared[0]
        u, v = lifts.word(0, h, positive_first=True), lifts.word(1, h, positive_first=True)
        if (not h_group.evaluate(u) == h == h_group.evaluate(v)
                or not (_path_stays(lifts.xi, u) and _path_stays(lifts.theta, v))):
            raise VerificationError("witness for g=%d does not re-verify" % g)
        out.append(DissolveReport(label, False, "reachability", witness=(u, v)))
    return out


def dissolves_materialized(phi: Morphism, c: Constellation, label: str = "") -> DissolveReport:
    """Exact reachability decision over phi.src; failures carry a re-verified word pair."""
    return _reach_reports(_last_pair_lifts(phi, c.xi, c.theta), (c.g,), (label,))[0]


class GFpSpan:
    """Row space over F_p with streaming insertion and membership tests;
    rows map sortable column keys (edges, component ids) to entries."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[tuple[int, int], Vec] = {}  # pivot column -> reduced row

    def reduce(self, vec: Vec) -> Vec:
        vec = {e: c % self.p for e, c in vec.items() if c % self.p}
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


def _difference(aut: InverseAutomaton, u: Word, v: Word, p: int) -> Vec:
    """Traversal vector of u minus that of v, mod p, without zeros."""
    diff = Counter(traversal_vector(aut, u))
    diff.subtract(traversal_vector(aut, v))
    return {e: c % p for e, c in diff.items() if c % p}


def cycle_space_rows(sub: Subgraph, p: int) -> list[Vec]:
    """Fundamental-cycle basis of the subgraph's mod-p cycle space: the
    row of an edge (u, a) is the tree word to u followed by a, less the
    tree word to its end; zero rows, those of tree edges, are dropped."""
    aut = sub.parent
    tree = bfs_tree(aut, aut.base, sub.edges)
    rows = []
    for u, a in sorted(sub.edges):
        row = _difference(aut, Word(tree_word(tree, u).letters + ((a, 1),)),
                          tree_word(tree, aut.fwd[a][u]), p)
        if row:
            rows.append(row)
    return rows


def _linear_reports(layer: GaschuetzLayer, lifts: _Lifts, g_choices: Sequence[int],
                    labels: Sequence[str]) -> list[DissolveReport]:
    m_group, p, comp, image = layer.base, layer.p, lifts.comp, lifts.phi.mapping
    in_xi, in_th = lifts.halves
    span = lifts.spans.get((p, layer.tilde))
    out = []
    for g, label in zip(g_choices, labels, strict=True):
        report = DissolveReport(label, True, "linear")
        shared = lifts.shared(g)
        if shared and span is None:
            span = GFpSpan(p)  # per-component boundaries of the tilde constants
            for a in range(m_group.n_letters if layer.tilde else 0):
                if not all(comp[h] in in_xi and (image[h], a) in lifts.xi.edges
                           or comp[h] in in_th and (image[h], a) in lifts.theta.edges
                           for h in range(m_group.order)):
                    continue
                part = [h for h in range(m_group.order)
                        if comp[h] in in_xi and (image[h], a) in lifts.xi.edges]
                bnd = Counter(m_group.cayley.fwd[a][h] for h in part)
                bnd.subtract(part)
                row: Counter[int] = Counter()
                for v, c in bnd.items():
                    if c % p and comp[v] not in lifts.both:
                        raise VerificationError("the boundary of constant %d leaves "
                                                "the intersection of the lifts" % a)
                    row[comp[v]] += c
                span.add(row)
            lifts.spans[p, layer.tilde] = span
        for m in shared:
            if span.contains({comp[m]: 1, 0: -1} if comp[m] else {}):  # 1 is in component 0
                diff = _difference(m_group.cayley, lifts.word(0, m), lifts.word(1, m), p)
                report = DissolveReport(label, False, "linear", endpoint=m, vector=diff)
                break
        out.append(report)
    return out


def dissolves_linear(layer: GaschuetzLayer, phi: Morphism, c: Constellation,
                     label: str = "") -> DissolveReport:
    """Exact decision for a lazy top layer over the materialized base of
    phi, without enumerating the layer."""
    if phi.src is not layer.base:
        raise ValueError("morphism must start at the layer's base group")
    return _linear_reports(layer, _last_pair_lifts(phi, c.xi, c.theta), (c.g,), (label,))[0]


def _letter_label(letter: int, sign: int) -> str:
    return "delta:%s%s" % (ASCII_LETTERS[letter], "" if sign > 0 else "^-1")


def _mirror(report: DissolveReport, label: str, p: int | None) -> DissolveReport:
    """The report on (Theta, g, Xi) from the one on (Xi, g, Theta)."""
    return replace(report, label=label,
                   witness=None if report.witness is None else report.witness[::-1],
                   vector=None if report.vector is None
                   else {e: -c % p for e, c in report.vector.items()})


def dissolve_all(tower: Tower, weak: bool = False) -> list[DissolveReport]:
    """Dissolving reports for the tower's top group over its base, over
    the weak (delta) or the full maximal constellation family, with one
    contraction per bond.  Each unordered split of a bond is decided
    once; its reports are kept, by mask, until the bond yields the
    mirror split at the complementary mask, whose reports are derived
    from them (see Mirrors above).  Uses
    reachability whenever the top has at most MATERIALIZE_BOUND
    elements.  The report count is refused before any report is
    decided."""
    base = tower.levels[0]
    if weak:
        deltas = {_letter_label(letter, sign): delta_a(base, letter, sign)
                  for letter in range(base.n_letters) for sign in (1, -1)}
    else:
        pairs = maximal_constellations(base)
        check_size(sum(len(pair.g_choices) for pair in pairs), "dissolve reports")
    down = tower.morphism(len(tower.levels) - 1, 0)
    if tower.top is None:
        phi, decide = down, _reach_reports
    elif tower.top.order() <= MATERIALIZE_BOUND:
        phi, decide = tower.top.cover()[1].compose(down), _reach_reports
    else:
        phi, decide = down, partial(_linear_reports, tower.top)
    fibers = phi.fibers()
    if weak:
        lifts = _delta_lifts(phi, fibers, list(deltas.values()))
        return [report for label, c in deltas.items()
                for report in decide(lifts(c), (c.g,), (label,))]
    p = None if tower.top is None else tower.top.p
    reports: list[DissolveReport] = []
    for i, pair in enumerate(pairs):
        if not i or pair.cut is not pairs[i - 1].cut:
            lifts, kept = _bond_lifts(phi, fibers, pair.cut), {}  # reports by mask
            full = (1 << len(pair.cut.edges)) - 1
        labels = ["max%d:g%d" % (i, g) for g in pair.g_choices]
        mirrored = kept.pop(full ^ pair.mask, None)
        if mirrored is None:
            kept[pair.mask] = decide(lifts(pair), pair.g_choices, labels)
            reports += kept[pair.mask]
        else:
            reports += [_mirror(r, label, p) for r, label in zip(mirrored, labels, strict=True)]
    return reports


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
    comp = _contract(cayley, [(h,) for h in range(cayley.n)],
                     {(h, a) for h, a, _ in cayley.pos_edges()} - removed)
    disconnected = len(set(comp)) > 1
    separated_1 = comp[0] != comp[cayley.step(0, letter, sign)]
    separated_all = all(comp[n] != comp[cayley.step(n, letter, sign)] for n in kernel)
    c = delta_a(g_group, letter, sign)  # its lifts are read off one contraction along Gamma - e
    report, = _reach_reports(_delta_lifts(phi, phi.fibers(), [c])(c), (c.g,), ("",))
    return (disconnected, separated_1, separated_all, report.dissolved)


def key_lemma_edge(h_group: MaterializedGroup, l_set: frozenset[int],
                   edge: tuple[int, int]) -> bool:
    """Disconnection with separated endpoints after removing the L
    translates of one edge of Gamma(H): the key lemma for one edge, by
    search, as the tests check `key_lemma_report` against."""
    g, letter = edge
    removed = {(h_group.mul_idx(x, g), letter) for x in l_set}
    kept = {(h, a) for h in range(h_group.order) for a in range(h_group.n_letters)} - removed
    comp = bfs_tree(h_group.cayley, g, kept)
    return len(comp) < h_group.order and h_group.cayley.fwd[letter][g] not in comp


def key_lemma_report(g_group: MaterializedGroup, p: int, k_set) -> int:
    """The key lemma for the tilde layer H over G with projection phi,
    a nontrivial subgroup K of G and L = phi^-1(K): removing the L
    translates of any edge of Gamma(H) disconnects the graph with the
    edge's two ends separated.  Every edge holds by the proof below:
    the result is the edge count |H|.|A|, read off the order formula.

    Proof.  Let (h, a) be an edge over (g0, a).  L contains ker phi, so
    the L translates of (h, a) are exactly the H-edges over S = {(k.g0,
    a) : k in K}, and |S| = |K| >= 2.  A walk from h = (alpha, g0) that
    avoids them projects to a walk from g0 in Gamma(G) - S with some
    traversal vector t, and ends at (alpha + t, end) modulo the letter
    constants C.  It ends at ha = (alpha + e, g0.a), e the indicator of
    (g0, a), only if t - e lies in C mod p.  On S, t is 0, and -e is -1
    on (g0, a) and 0 on the other edges of S, while every vector of C
    is constant on the a-edges.  So no such walk exists: h and ha are
    separated, and the graph is disconnected.  For K trivial |S| = 1 and
    the argument fails, so a trivial K is refused."""
    k_set = frozenset(k_set)
    if k_set == {0}:
        raise ValueError("K must be nontrivial")
    if subgroup_closure(g_group, k_set) != k_set:
        raise ValueError("K is not a subgroup")
    check_modulus(p)
    return order_formula(g_group.order, g_group.n_letters, p, tilde=True) * g_group.n_letters


def counting_lifts_check(phi: Morphism, w: Word) -> bool:
    """Pushing the H-traversal vector down along phi gives the
    G-traversal vector, as exact integers."""
    down = Counter()
    for (h, a), cnt in traversal_vector(phi.src.cayley, w).items():
        down[phi(h), a] += cnt
    return down == Counter(traversal_vector(phi.dst.cayley, w))  # zero counts compare as absent


def detecting_edges_check(phi: Morphism, c: Constellation, w: Word) -> bool:
    """Signed border-crossing count of the lifted word: the traversal of
    w in Gamma(H), summed over the preimages of the edges of Xi leaving
    the component of 1 of Xi intersect Theta minus those entering it,
    must equal exactly 1."""
    _check_target(phi, c.xi)
    if phi.dst.evaluate(w) != c.g:
        raise ValueError("word does not evaluate to the constellation's g")
    pi_g = traversal_vector(c.parent, w)
    if not set(pi_g) <= c.xi.edges:
        raise ValueError("word traversal leaves xi")
    upsilon = _base_component(c.xi, c.theta)  # computed when c was checked
    leaving = {e: (e[0] in upsilon) - (c.xi.dst(e) in upsilon) for e in c.xi.edges}
    return sum(cnt * leaving.get((phi(h), a), 0)
               for (h, a), cnt in traversal_vector(phi.src.cayley, w).items()) == 1


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
        mat, phi = layer.cover()
        kernel = phi.kernel()
        verified = (len(kernel) == layer.p ** rank
                    and all(k == 0 or mat.element_order(k) == layer.p for k in kernel))
    return RankReport(layer.p, layer.tilde, rank, cycle_dim, deficit,
                      rank == cycle_dim - deficit, verified)
