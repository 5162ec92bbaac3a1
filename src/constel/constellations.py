"""Constellations in finite Cayley graphs.

A constellation over a based graph is a triple (Xi, g, Theta) of
connected subgraphs, both containing the base vertex and g, such that
the base and g lie in distinct components of Xi intersect Theta.  The
maximal ones arise from minimal edge cuts: split a cut C into nonempty
halves (C_Xi, C_Theta) and take Xi = Gamma - C_Theta, Theta = Gamma -
C_Xi, with g on the far side of the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automata import (
    InverseAutomaton,
    Subgraph,
    amalgam,
    bfs_tree,
    embed_check,
    full_subgraph,
    write_aut,
)
from .errors import VerificationError
from .groups import MaterializedGroup, check_size


@lru_cache(maxsize=1)
def _base_component(xi: Subgraph, theta: Subgraph) -> dict:
    """Check what a constellation asks of (xi, theta) alone and return
    the base component of xi & theta.  One entry is kept, so the
    constellations of one pair check and search their subgraphs once."""
    if xi.parent is not theta.parent:
        raise ValueError("subgraphs live over different parent graphs")
    base = xi.parent.base
    if base is None:
        raise ValueError("constellations need a based parent graph")
    for name, sub in (("xi", xi), ("theta", theta)):
        if base not in sub.vertices:
            raise ValueError("%s must contain the base vertex and g" % name)
        if not sub.is_connected():
            raise ValueError("%s is not connected" % name)
    return bfs_tree(xi.parent, base, xi.edges & theta.edges)


@dataclass(frozen=True, eq=False)
class Constellation:
    xi: Subgraph
    g: int
    theta: Subgraph

    def __post_init__(self):
        upsilon = _base_component(self.xi, self.theta)  # faults of (xi, theta) before g's
        if self.g == self.base:
            raise ValueError("g coincides with the base vertex")
        for name, sub in (("xi", self.xi), ("theta", self.theta)):
            if self.g not in sub.vertices:
                raise ValueError("%s must contain the base vertex and g" % name)
        if self.g in upsilon:
            raise ValueError("base and g lie in one component of the intersection")

    @property
    def parent(self) -> InverseAutomaton:
        return self.xi.parent

    @property
    def base(self) -> int:
        return self.xi.parent.base


@dataclass(frozen=True, eq=False)
class MinimalCut:
    full: Subgraph  # the whole graph, shared by all its cuts
    cut: frozenset[tuple[int, int]]
    edges: tuple[tuple[int, int], ...]  # the cut in sorted order; bit i of a split mask is edges[i]
    near: frozenset[int]  # side containing the base vertex
    far: frozenset[int]


def minimal_cut_sets(aut: InverseAutomaton) -> list[MinimalCut]:
    """All minimal cut sets (bonds) of a connected graph, grown from their
    near sides, after Tsukiyama et al. (JACM 1980) and Provan-Shier
    (Algorithmica 1996).

    A bond is the crossing edge set of a bipartition (S, V - S) whose two
    sides are both connected; S holds the anchor (the base, else vertex
    0).  The search keeps a connected S containing the anchor and a set X
    of excluded neighbors of S.  While the frontier N(S) - X is nonempty
    it branches on its least vertex v: take v into S, or exclude it into
    X.  A branch is pruned when X does not lie in one component of
    G[V - S].  At a leaf the frontier is empty, so X = N(S), and S is
    emitted when X is nonempty.

    - Each connected S' containing the anchor reaches exactly one leaf.
      Follow the branch that takes v iff v is in S'.  Along it S stays
      inside S' and X outside it, and each step adds a vertex, so the
      walk ends at a leaf.  There every neighbor of S lies in X, outside
      S', and S' is connected, so S = S'.  Any other branch disagrees
      with S' on some vertex and never reaches it.
    - The prune is sound.  Below a node, S only grows and X only grows,
      so G[V - S] only loses vertices and its components only split.  If
      X meets two of them, V - S' is disconnected at every leaf S' below,
      and no bond is lost.
    - An emitted V - S is connected.  G is connected, so every component
      of G[V - S] has a vertex adjacent to S, that is, a vertex of
      N(S) = X.  The unpruned leaf has X in one component, so there is
      only one.  X is nonempty, so V - S is too.

    An unpruned node whose nonempty X lies in the component K of G[V - S]
    has the leaf V - K below it: V - K contains S, misses X, and is
    connected, since every other component is adjacent to S.  Nodes with
    X empty only ever took, so they form one path.  So every unpruned
    node lies on one of at most (bonds + 1) root paths of length at most
    n, and each node costs one search, O(n + m).  No bipartition is
    tried; the 2^(n-1) bipartitions are refused up front as a bound on
    the bond count.  The bonds are sorted by the far-side bitmask whose
    bit i is the i-th vertex other than the anchor."""
    check_size(2 ** (aut.n - 1), "vertex bipartitions")
    if not aut.is_connected():
        raise ValueError("graph is not connected")
    full = full_subgraph(aut)
    anchor = aut.base if aut.base is not None else 0
    bit = {v: 1 << i for i, v in enumerate(v for v in range(aut.n) if v != anchor)}
    edges = aut.pos_edges()
    columns = aut.fwd + aut.bwd
    nears = []

    def grow(near: frozenset[int], excluded: frozenset[int]) -> None:
        if excluded:
            outside = {(u, letter) for u, letter, v in edges if u not in near and v not in near}
            if not excluded <= bfs_tree(aut, min(excluded), outside).keys():
                return
        frontier = {col[v] for v in near for col in columns} - {None} - near - excluded
        if frontier:
            v = min(frontier)
            grow(near | {v}, excluded)
            grow(near, excluded | {v})
        elif excluded:
            nears.append(near)

    grow(frozenset([anchor]), frozenset())
    out = []
    for near in nears:
        far = full.vertices - near
        cut = frozenset((u, letter) for u, letter, v in edges if (u in far) != (v in far))
        out.append(MinimalCut(full, cut, tuple(sorted(cut)), near, far))
    out.sort(key=lambda mc: sum(bit[v] for v in mc.far))
    return out


@dataclass(frozen=True, eq=False, slots=True)
class MaxConstellationPair:
    """A maximal pair is its bond and a split mask: bit i of `mask` is 1
    when the bond's i-th sorted edge `cut.edges[i]` lies in C_Xi, else it
    lies in C_Theta.  The mirror split (C_Theta, C_Xi) has the mask
    `full ^ mask`, full = 2^|C| - 1.  Xi = Gamma - C_Theta and Theta =
    Gamma - C_Xi are not stored with it.  They are built on first access
    and kept for the last pair accessed only, so the g choices of one
    pair share one Xi and one Theta, and a list of pairs holds no
    subgraphs or edge sets."""

    cut: MinimalCut
    mask: int
    g_choices: tuple[int, ...]

    def __post_init__(self):
        """Check the split against its bond instead of re-proving it.

        `maximal_constellations` builds Xi = Gamma - C_Theta and Theta =
        Gamma - C_Xi from a bond C whose near side N (with the base) and
        far side F are each connected in Gamma - C, as `minimal_cut_sets`
        proves of every bond it grows.  If C_Xi and C_Theta are nonempty
        and split C, then Xi holds every vertex and joins N to F through
        C_Xi, so it is connected, and so is Theta; Xi intersect Theta =
        Gamma - C has exactly N and F as its components.  So (Xi, g, Theta) is a
        constellation for every g in F.  A mask splits C into two
        nonempty halves exactly when 0 < mask < 2^|C| - 1, so checking
        the split costs O(1) and the g choices O(|F|)."""
        if not 0 < self.mask < (1 << len(self.cut.edges)) - 1:
            raise ValueError("C_Xi and C_Theta must split the cut into two nonempty parts")
        if not all(g in self.cut.far for g in self.g_choices):
            raise ValueError("every g must lie on the far side of the cut")

    def halves(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(C_Xi, C_Theta) in sorted order, read off the mask in one pass."""
        mask, c_xi, c_theta = self.mask, [], []
        for e in self.cut.edges:
            (c_xi if mask & 1 else c_theta).append(e)
            mask >>= 1
        return tuple(c_xi), tuple(c_theta)

    @property
    def xi(self) -> Subgraph:
        return _split_subgraphs(self)[0]

    @property
    def theta(self) -> Subgraph:
        return _split_subgraphs(self)[1]

    def constellation(self, g: int) -> Constellation:
        return Constellation(self.xi, g, self.theta)


@lru_cache(maxsize=1)
def _split_subgraphs(pair: MaxConstellationPair) -> tuple[Subgraph, Subgraph]:
    """(Xi, Theta) of the pair, keyed by its identity (pairs are eq=False)."""
    c_xi, c_theta = pair.halves()
    return pair.cut.full.minus_edges(c_theta), pair.cut.full.minus_edges(c_xi)


def maximal_constellations(group: MaterializedGroup) -> list[MaxConstellationPair]:
    """All ordered pairs (C_Xi, C_Theta) over all minimal cuts, with the
    far-side vertices as g choices: one pair per mask of each bond, in
    rising order.  Every pair is checked against its bond.  The pair
    count is refused before any is built."""
    cuts = minimal_cut_sets(group.cayley)
    check_size(sum(2 ** len(mc.cut) - 2 for mc in cuts), "maximal constellation pairs")
    out = []
    for mc in cuts:
        far = tuple(sorted(mc.far))
        out += (MaxConstellationPair(mc, mask, far) for mask in range(1, (1 << len(mc.edges)) - 1))
    return out


def delta_a(group: MaterializedGroup, letter: int, sign: int = 1) -> Constellation:
    """The one-edge constellation of a signed letter: Xi is the Cayley
    graph minus the letter's base edge, g its far endpoint, Theta the
    edge alone.  Xi is connected: the edge lies on the letter's cycle
    through the base, of length at least 2 since g is not the base."""
    gamma = group.cayley
    if sign > 0:
        g = group.images[letter]
        edge = (0, letter)
    else:
        g = group.inv_idx(group.images[letter])
        edge = (g, letter)
    if g == 0:
        raise ValueError("letter image is the identity; the edge endpoints coincide")
    xi = full_subgraph(gamma).minus_edges([edge])
    theta = Subgraph(gamma, frozenset([edge]), frozenset([0, g]))
    return Constellation(xi, g, theta)


def amalgams_of(group: MaterializedGroup) -> list[InverseAutomaton]:
    """Amalgams of the unordered maximal pairs, in a canonical order.
    Within a bond the masks rise, so of a split and its mirror, at
    `full ^ mask`, the one met first has the smaller mask."""
    out = []
    for pair in maximal_constellations(group):
        if pair.mask < ((1 << len(pair.cut.edges)) - 1) ^ pair.mask:
            out.append(amalgam(pair.xi, pair.theta))  # fold returns it canonical
    out.sort(key=write_aut)
    return out


def chain_letter(aut: InverseAutomaton) -> int:
    """Smallest letter whose action is not a total permutation."""
    for letter, col in enumerate(aut.fwd):
        if None in col:
            return letter
    raise ValueError("every letter acts totally; nothing to chain on")


def assemble_AG(group: MaterializedGroup) -> InverseAutomaton:
    """One connected, folded, incomplete automaton containing every
    amalgam of a maximal pair: group the amalgams by their chain letter,
    join consecutive members with a bridge edge (smallest vertex missing
    an outgoing edge to the smallest missing an incoming one), and give
    the last of each chain an edge to a common sink."""
    amalgams = amalgams_of(group)
    if not amalgams:
        raise ValueError("no maximal constellations to assemble")
    classes: dict[int, list[int]] = {}
    offsets = []
    total = 0
    for i, a in enumerate(amalgams):
        classes.setdefault(chain_letter(a), []).append(i)
        offsets.append(total)
        total += a.n
    result = InverseAutomaton(total + 1, group.n_letters, base=0)  # vertex total is the sink
    for a, offset in zip(amalgams, offsets):
        for u, letter, v in a.pos_edges():
            result.add_edge(u + offset, letter, v + offset)
    for letter in sorted(classes):
        out, into = result.fwd[letter], result.bwd[letter]
        idxs = classes[letter]
        for j, i in enumerate(idxs):
            # a partial injection misses as many ends as starts, so each
            # search stops inside amalgam i or idxs[j + 1]
            u = out.index(None, offsets[i])
            if j + 1 < len(idxs):
                v = into.index(None, offsets[idxs[j + 1]])
            else:
                v = total
            result.add_edge(u, letter, v)
    for i, a in enumerate(amalgams):
        if embed_check(a, result, offsets[i] + a.base) is None:
            raise VerificationError("amalgam %d does not embed in the assembly" % i)
    return result
