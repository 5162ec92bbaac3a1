"""Decision procedures for dissolving constellations.

A group H over G (via the canonical letter-respecting morphism)
dissolves a constellation (Xi, g, Theta) when no pair of words u, v
whose paths from 1 run inside Xi resp. Theta and end at g satisfies
[u]_H = [v]_H.  Decisions read the lifts Xi^ and Theta^, the components
of 1 of the edge preimages of Xi and Theta in Gamma(H), off one builder
(`_lifts_over`, `_Lifts`): it contracts Gamma(H) once along the
preimage of a core that every Xi it serves holds, and reaches each Xi^
over the preimages of the other edges.  Every split of a bond C has Xi
intersect Theta = Gamma - C, so each bond is contracted once, and a
split only joins the preimages of its |C| cut edges.  Every letter
constellation (Gamma - e, g, {e}) has Xi containing Gamma - D, D the
set of letter edges, so the whole weak family is contracted once along
the preimage of Gamma - D, and a letter's Xi^ only joins the
preimages of D - e: it is told by the labels of the components it
joins, never built as a vertex set.  `dissolve_all` reads the fibers
of phi once for either family.  Two exact deciders are provided:

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
  difference of the traversal vectors of the signed-tree paths to m in
  Xi^ and in Theta^, read off the trees reachability grows by walking
  each from m up to 1.

`dissolves_materialized` and `dissolves_linear` decide one
constellation (Xi, g, Theta) at the cost `dissolve_all` pays per bond.
They take the builder from a one-entry memo keyed by (phi, core,
others), the core being Xi intersect Theta, or Xi when the two share no
edge, so the splits of a bond C asked about one after another share one
contraction of Gamma - C.  They keep the lifts of the last (phi, Xi,
Theta), with the tilde-constant span and the BFS trees grown on them,
for the g choices of one pair; `dissolve_all` holds neither memo.  Like
`dissolve_all`, they decide each unordered split once while its entry
lasts: a split and its mirror share core and others, the entry keeps
each report it decided, and the mirror is served from it, building no
lifts.

Mirrors.  (Xi, g, Theta) is dissolved exactly when (Theta, g, Xi) is,
and its reports are the ones of (Xi, g, Theta) with the witness (u, v)
read as (v, u), the same endpoint and the vector negated mod p: the
reports its own decision would give.  The argument below uses only the
two subgraphs, so it holds for any constellation, not only the splits
of a bond.  `dissolve_all` decides each unordered split of a bond once:
the mirror split (C_Theta, C_Xi) has the same bond and g choices and
the complementary mask, full ^ mask with full = 2^|C| - 1.
Reachability: `shared(g)` reads `both`, which is symmetric, and a
witness tree depends only on its subgraph; Theta is the second
subgraph of one order and the first of the other, so the words swap
and the mirror's re-check would test the same four facts.  Linear:
`comp`, `both` and the rule for when a constant c_a counts are the same
for both orders.  When it counts, the Xi^ part and the Theta^ part
cover every a-edge of Gamma(M), whose boundary is zero because h -> ha
permutes M; an edge in both parts joins two vertices of one contracted
component of `both`.  So the Theta^ part's boundary is minus the Xi^
part's at every vertex outside `both` and on every component, the check
on it raises for both or neither, the span and the first m are the same,
and the difference vector changes sign.

Translates.  Left translation by k in G, (u, a) -> (ku, a), is a
label-preserving automorphism of Gamma(G), so it maps a bond C with
near side N (holding 1) and far side F onto the bond kC.  When k^-1
lies on N, 1 lies on kN, so kC has near side kN and far side kF, and
the split (C_Xi, C_Theta) maps to the split (kC_Xi, kC_Theta) of kC,
with Xi' = kXi and Theta' = kTheta.  Let t label a path from 1 to k in
Gamma - kC; it stays in kN, inside Xi' intersect Theta'.  A witness (u,
v) for (Xi, g, Theta) gives the witness (tu, tv) for (Xi', kg, Theta'):
read from k, u's path is the translate of its path from 1, inside kXi =
Xi' and ending at kg, so tu runs inside Xi' from 1 to kg, tv inside
Theta', and [tu]_H = [t]_H [u]_H = [t]_H [v]_H = [tv]_H; free reduction
drops backtracks only.  Conversely k^-1 maps kC back onto C, and k
lies on kN, so k^-1 applied to the translate maps a witness of it to one
of (Xi, g, Theta): the two are dissolved together.  For a linear
failure, lambda = [t] in M lies over k, and left multiplication by
lambda maps the lifts of Xi and Theta through 1 onto those of Xi' and
Theta' through lambda, which are the lifts through 1, since t's lift
joins them inside both.  So lambda.m is a shared endpoint over kg, and
the difference of the traversal vectors of the two lifted paths t u and
t v to it is the translate {(lambda.x, a): c} of the vector, t's part
cancelling.  Taking kC for k^-1 on C's near side is an equivalence on
the bonds (`bond_translates`), and `dissolve_all` decides the first
bond of each class and derives every other bond's reports from it.
Translation commutes with the swap of Mirrors, so a translated bond,
too, translates one split of each mirror pair and mirrors the other.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

from .automata import BfsTree, InverseAutomaton, Subgraph, bfs_tree, tree_word
from .constellations import (Constellation, MaxConstellationPair, MinimalCut, _base_component,
                             bond_translates, delta_a, paired_bonds)
from .errors import VerificationError
from .gaschuetz import GaschuetzLayer, Tower, check_modulus, order_formula
from .groups import (MaterializedGroup, Morphism, check_size, subgroup_closure,
                     traversal_vector)
from .words import ASCII_LETTERS, Word, reduce

Vec = dict[tuple[int, int], int]
Steps = list[tuple[tuple[int, int], int]]  # (edge, sign) per step of a path

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
    the preimage of S = Xi intersect Theta.

    Each lift is a union of contracted components, and `halves` holds
    their labels: a set, or, for an Xi^ that shares no edge with its
    Theta, `_Members` of a coarser contraction.  A
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

    def tree(self, side: int, forward_only: bool, dst: int) -> dict[int, tuple[int, int, int]]:
        """The positive or signed BFS tree of Xi^ (side 0) or Theta^ (side
        1), started once and grown only until it holds dst, or to the end
        when it never does.  A signed tree must reach dst: the deciders
        ask only for vertices of `both`, which lie in each lift."""
        tree = self.trees.get((side, forward_only))
        if tree is None:
            gamma, sub = self.phi.src.cayley, (self.xi, self.theta)[side]
            tree = self.trees[side, forward_only] = BfsTree(
                gamma, gamma.base, _LiftView(sub.edges, self.phi.mapping), forward_only)
        if dst not in tree.grow(dst) and not forward_only:
            raise VerificationError("vertex %d is not reached in its lift" % dst)
        return tree.tree

    def word(self, side: int, dst: int, positive_first: bool = False) -> Word:
        """Label of a path from 1 to dst in the lift of `side`, purely
        positive when `positive_first` and one exists."""
        if positive_first:
            tree = self.tree(side, True, dst)
            if dst in tree:
                return tree_word(tree, dst)
        return tree_word(self.tree(side, False, dst), dst)


def _lifts_over(phi: Morphism, fibers, core, others):
    """lifts(xi, theta) for pairs whose Xi holds the edge set `core` and
    whose other edges lie in the edge set `others`.  Gamma(H) is
    contracted once along the preimage of `core` (labels `comp`, 1's
    component labelled 0), each preimage of an edge of `others` joins
    two contracted components (`joins`), and Xi^ is the union of the
    components that the joins of Xi's edges in `others` reach from 0.

    Each Theta handed to one builder either holds the whole core or
    shares no edge with Xi, so one core edge, picked once, tells the two
    cases apart in O(1), and a split costs O(|others|) beyond its lifts.

    - Theta holds the core, which is then Xi intersect Theta: the splits
      of a bond C (core Gamma - C, others C) and one pair sharing an
      edge (others Xi xor Theta).  Theta^ is reached like Xi^.  An
      empty core falls here too (a bond C = Gamma, or D = Gamma):
      nothing is contracted, so the joins reach each lift over its own
      preimage edges.
    - Xi and Theta share no edge: the letter family (core Gamma - D, D
      its letter edges, others D) and one pair sharing none (core Xi,
      others Theta).  Theta^ is the BFS tree of 1 over Theta's preimage
      edges.  Xi^ intersect Theta^ has no edge, so its components are
      single vertices: `_Lifts` gets comp = range(|H|), and Xi^ as the
      vertices whose labels it reaches (`_Members`), never a vertex set."""
    aut = phi.src.cayley
    comp = _contract(aut, fibers, core)
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

    probe = next(iter(core), None)

    def lifts(xi: Subgraph, theta: Subgraph) -> _Lifts:
        xi_labels = reach(others - theta.edges)
        if probe is None or probe in theta.edges:
            return _Lifts(phi, fibers, comp, (xi_labels, reach(others - xi.edges)), xi, theta)
        theta_hat = set(bfs_tree(aut, aut.base, _LiftView(theta.edges, phi.mapping)))
        return _Lifts(phi, fibers, range(aut.n), (_Members(comp, xi_labels), theta_hat), xi, theta)
    return lifts


@lru_cache(maxsize=1)
def _last_builder(phi: Morphism, core: frozenset, others: frozenset):
    """The builder of the last (phi, core, others) the one-g API asked
    for, phi by identity and the edge sets by value, so that every split
    of a bond gets the one contraction of its core Gamma - C; and the
    reports the one-g API decided on it, keyed by (decider, Xi
    intersect others, g).  A split and its mirror share core and others,
    so the mirror finds its report here (see Mirrors); a report goes
    when its mirror takes it or with the entry, when another (phi, core,
    others) is asked for."""
    return _lifts_over(phi, phi.fibers(), core, others), {}


def _pair_entry(phi: Morphism, xi: Subgraph, theta: Subgraph):
    """(builder, kept reports, others) of `_last_builder` for any two
    subgraphs containing the base: core Xi intersect Theta with others
    Xi xor Theta, or core Xi with others Theta when they share no edge,
    as a letter constellation (Gamma - e, g, {e}) does, so a letter's
    joins cover only e.  Every split of a bond C has core Gamma - C and
    others C, so a bond is contracted once while its splits come in
    turn."""
    _check_target(phi, xi, theta)  # the Constellation of xi and theta checked the base
    shared = xi.edges & theta.edges
    core, others = (shared, xi.edges ^ theta.edges) if shared else (xi.edges, theta.edges)
    return *_last_builder(phi, core, others), others


def _pair_lifts(phi: Morphism, xi: Subgraph, theta: Subgraph) -> _Lifts:
    """Lifts of any two subgraphs containing the base, for the one-g
    API, by the builder `_pair_entry` finds for them."""
    return _pair_entry(phi, xi, theta)[0](xi, theta)


# The one-g deciders' lifts of the last (phi, xi, theta), all keyed by identity.
_last_pair_lifts = lru_cache(maxsize=1)(_pair_lifts)


def _one_g(decider, decide, phi: Morphism, c: Constellation, label: str,
           p: int | None) -> DissolveReport:
    """decide's report on c: the mirror of the kept report on (Theta, g,
    Xi) when the builder entry holds one, else decided on the pair's
    lifts and kept for the mirror.  `decider` is part of the key, since
    deciders that share phi give different reports.  A pair sharing no
    edge keeps its reports under the part {} and asks for its mirror's
    under all of others; neither is the part of a pair that shares an
    edge, as its core Xi intersect Theta would then be all of Xi or of
    Theta, one connected subgraph holding 1 and g."""
    _, kept, others = _pair_entry(phi, c.xi, c.theta)
    report = kept.pop((decider, c.theta.edges & others, c.g), None)
    if report is not None:
        return _mirror(report, label, p)
    report = kept[decider, c.xi.edges & others, c.g] = decide(
        _last_pair_lifts(phi, c.xi, c.theta), (c.g,), (label,))[0]
    return report


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


def _lifted_end(phi: Morphism, edges, w: Word) -> int | None:
    """The end of w read from 1 in Gamma(H), H = phi.src, or None when
    the image of its path in Gamma(G) crosses an edge outside `edges`."""
    fwd, bwd, image, h = phi.src.cayley.fwd, phi.src.cayley.bwd, phi.mapping, 0
    for a, sign in w:
        if sign > 0:
            edge, h = (image[h], a), fwd[a][h]
        else:
            h = bwd[a][h]
            edge = (image[h], a)
        if edge not in edges:
            return None
    return h


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
    return _one_g("reachability", _reach_reports, phi, c, label, None)


class GFpSpan:
    """Row space over F_p with streaming insertion and membership tests;
    rows map sortable column keys to entries.  `_linear_reports` keys
    them by component labels; any sortable keys, such as edges, work."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> reduced row

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
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

    def add(self, vec: dict[int, int]) -> bool:
        r = self.reduce(vec)
        if not r:
            return False
        piv = max(r)
        inv = pow(r[piv], -1, self.p)
        self.rows[piv] = {e: c * inv % self.p for e, c in r.items()}
        return True

    def contains(self, vec: dict[int, int]) -> bool:
        return not self.reduce(vec)


def _tree_steps(tree: dict[int, tuple[int, int, int]], v: int) -> Steps:
    """The steps of the tree path from the root to v, from the root on.
    A step from prev along a forward crosses (prev, a); one backward
    crosses (v, a) against its direction."""
    steps = []
    prev, a, sign = tree[v]
    while prev >= 0:
        steps.append(((prev, a) if sign > 0 else (v, a), sign))
        v = prev
        prev, a, sign = tree[v]
    steps.reverse()
    return steps


def _difference(plus: Steps, minus: Steps, p: int) -> Vec:
    """Traversal vector of the steps `plus` less that of `minus`, mod p,
    without zeros, keyed in the order the steps first cross each edge."""
    diff: dict[tuple[int, int], int] = {}
    for steps, scale in ((plus, 1), (minus, -1)):
        for e, sign in steps:
            diff[e] = diff.get(e, 0) + scale * sign
    return {e: c % p for e, c in diff.items() if c % p}


def cycle_space_rows(sub: Subgraph, p: int) -> list[Vec]:
    """Fundamental-cycle basis of the subgraph's mod-p cycle space: the
    row of an edge (u, a) is the tree path to u followed by a, less the
    tree path to its end; zero rows, those of tree edges, are dropped."""
    aut = sub.parent
    tree = bfs_tree(aut, aut.base, sub.edges)
    rows = []
    for u, a in sorted(sub.edges):
        row = _difference(_tree_steps(tree, u) + [((u, a), 1)],
                          _tree_steps(tree, aut.fwd[a][u]), p)
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
                u, v = (_tree_steps(lifts.tree(side, False, m), m) for side in (0, 1))
                out.append(DissolveReport(label, False, "linear", endpoint=m,
                                          vector=_difference(u, v, p)))
                break
        else:
            out.append(DissolveReport(label, True, "linear"))
    return out


def dissolves_linear(layer: GaschuetzLayer, phi: Morphism, c: Constellation,
                     label: str = "") -> DissolveReport:
    """Exact decision for a lazy top layer over the materialized base of
    phi, without enumerating the layer."""
    if phi.src is not layer.base:
        raise ValueError("morphism must start at the layer's base group")
    return _one_g(layer, partial(_linear_reports, layer), phi, c, label, layer.p)


def _letter_label(letter: int, sign: int) -> str:
    return "delta:%s%s" % (ASCII_LETTERS[letter], "" if sign > 0 else "^-1")


def _mirror(report: DissolveReport, label: str, p: int | None) -> DissolveReport:
    """The report on (Theta, g, Xi) from the one on (Xi, g, Theta)."""
    return DissolveReport(
        label, report.dissolved, report.method, endpoint=report.endpoint,
        witness=None if report.witness is None else report.witness[::-1],
        vector=None if report.vector is None else {e: -c % p for e, c in report.vector.items()})


def _translate(report: DissolveReport, label: str, g: int, t: Word, sides,
               shift: Sequence[int] | None, phi: Morphism) -> DissolveReport:
    """The report on the translate (Xi', g, Theta') = k.(Xi, k^-1 g,
    Theta) of `report`'s constellation (see Translates).  t labels a
    path from 1 to k in Gamma - kC, `sides` holds the edge sets of Xi'
    and Theta', and shift[x] = lambda.x in phi.src, lambda the value of
    t, for a linear failure.  A witness is re-verified on the words
    printed: equal in H, each path inside its side, ending over g."""
    if report.dissolved:
        return DissolveReport(label, True, report.method)
    if report.witness is not None:
        u, v = (reduce(Word(t.letters + x.letters)) for x in report.witness)
        h = _lifted_end(phi, sides[0], u)
        if h is None or h != _lifted_end(phi, sides[1], v) or phi(h) != g:
            raise VerificationError("translated witness for g=%d does not re-verify" % g)
        return DissolveReport(label, False, report.method, witness=(u, v))
    m = shift[report.endpoint]
    if phi(m) != g:
        raise VerificationError("translated endpoint %d does not lie over g=%d" % (m, g))
    return DissolveReport(label, False, report.method, endpoint=m,
                          vector={(shift[x], a): c for (x, a), c in report.vector.items()})


def _translator(phi: Morphism, cut: MinimalCut, rep: MinimalCut, k: int,
                reports: Sequence[DissolveReport], start: int):
    """split(mask, labels): the reports of the split at `mask` of the bond
    cut = k.rep, from rep's reports, which `reports` holds from `start`
    on, |far side| of them per mask: bit b of a mask of cut is the edge
    k.e of rep's edge e, and g on cut's far side is k.g0 for g0 on
    rep's.  t and lambda are read once a failure asks for them."""
    base, h_group, full = phi.dst, phi.src, cut.full.edges
    back = base.left_row(base.inv_idx(k))  # back[x] = k^-1 x
    bit = {e: 1 << b for b, e in enumerate(rep.edges)}
    bits = [bit[back[u], a] for u, a in cut.edges]
    index = {g0: n for n, g0 in enumerate(rep.far)}
    at = [index[back[g]] for g in cut.far]
    t = shift = None

    def split(mask: int, labels: Sequence[str]) -> list[DissolveReport]:
        nonlocal t, shift
        offset = start + (sum(b for i, b in enumerate(bits) if mask >> i & 1) - 1) * len(at)
        c_xi, c_theta = MaxConstellationPair(cut, mask).halves()
        sides = full.difference(c_theta), full.difference(c_xi)
        out = []
        for g, n, label in zip(cut.far, at, labels, strict=True):
            report = reports[offset + n]
            if t is None and not report.dissolved:
                t = tree_word(BfsTree(base.cayley, 0, full.difference(cut.edges)).grow(k), k)
            if shift is None and report.vector is not None:
                shift = h_group.left_row(h_group.evaluate(t))
            out.append(_translate(report, label, g, t, sides, shift, phi))
        return out
    return split


def dissolve_all(tower: Tower, weak: bool = False) -> list[DissolveReport]:
    """Dissolving reports for the tower's top group over its base, over
    the weak (delta) or the full maximal constellation family.  Of the
    full family, only the first bond of each class of `bond_translates`
    is decided, with one contraction.  Every other bond kC translates
    the reports of C (see Translates above).  Either way each unordered
    split of a bond is decided or translated once, and the mirror split
    at the complementary mask is derived from it (see Mirrors above).
    Uses reachability whenever the top has at most MATERIALIZE_BOUND
    elements.  The pair and report counts are read off the bonds and
    refused before any pair is built; the pairs of each bond are then
    walked by mask."""
    base = tower.levels[0]
    if weak:
        deltas = {_letter_label(letter, sign): delta_a(base, letter, sign)
                  for letter in range(base.n_letters) for sign in (1, -1)}
    else:
        cuts = paired_bonds(base)
        check_size(sum(((1 << len(cut.edges)) - 2) * len(cut.far) for cut in cuts),
                   "dissolve reports")
    down = tower.morphism(len(tower.levels) - 1, 0)
    if tower.top is None:
        phi, decide = down, _reach_reports
    elif tower.top.order() <= MATERIALIZE_BOUND:
        phi, decide = tower.top.cover()[1].compose(down), _reach_reports
    else:
        phi, decide = down, partial(_linear_reports, tower.top)
    fibers = phi.fibers()
    if weak:
        family = deltas.values()  # core Gamma - D, others D
        lifts = _lifts_over(phi, fibers, frozenset.intersection(*(c.xi.edges for c in family)),
                            frozenset().union(*(c.theta.edges for c in family)))
        lifted = {label: lifts(c.xi, c.theta) for label, c in deltas.items()}
        del lifts  # the joins go before any witness tree grows; each lift keeps its labels
        return [report for label, c in deltas.items()
                for report in decide(lifted.pop(label), (c.g,), (label,))]
    p = None if tower.top is None else tower.top.p
    translates = bond_translates(base, cuts)
    reports: list[DissolveReport] = []
    starts = []  # the index in reports of each bond's first report
    first = 0  # the running index of the bond's first pair, for the labels
    for j, cut in enumerate(cuts):
        starts.append(len(reports))
        if j in translates:
            i, k = translates[j]
            translate = _translator(phi, cut, cuts[i], k, reports, starts[i])
        else:
            lifts = _lifts_over(phi, fibers, cut.full.edges.difference(cut.edges),
                                frozenset(cut.edges))
        full, width = (1 << len(cut.edges)) - 1, len(cut.far)
        for mask in range(1, full):
            labels = ["max%d:g%d" % (first + mask - 1, g) for g in cut.far]
            if full ^ mask < mask:  # the mirror split came first
                at = starts[j] + ((full ^ mask) - 1) * width
                reports += [_mirror(r, label, p) for r, label in zip(
                    reports[at:at + width], labels, strict=True)]
            elif j in translates:
                reports += translate(mask, labels)
            else:
                pair = MaxConstellationPair(cut, mask)
                reports += decide(lifts(pair.xi, pair.theta), cut.far, labels)
        first += full - 1
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
    dissolved = dissolves_materialized(phi, delta_a(g_group, letter, sign)).dissolved
    return (disconnected, separated_1, separated_all, dissolved)


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
