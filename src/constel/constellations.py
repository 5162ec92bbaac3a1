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

from .automata import (
    InverseAutomaton,
    Subgraph,
    amalgam,
    bfs_tree,
    canonical,
    embed_check,
    full_subgraph,
    write_aut,
)
from .errors import VerificationError
from .groups import MaterializedGroup, check_size


def _check_constellations(xi: Subgraph, theta: Subgraph, g_choices) -> None:
    """Raise ValueError unless (xi, g, theta) is a constellation for
    every g in g_choices; the intersection component is found once."""
    if xi.parent is not theta.parent:
        raise ValueError("subgraphs live over different parent graphs")
    base = xi.parent.base
    if base is None:
        raise ValueError("constellations need a based parent graph")
    if base in g_choices:
        raise ValueError("g coincides with the base vertex")
    for name, sub in (("xi", xi), ("theta", theta)):
        if not (sub.has_vertex(base) and all(sub.has_vertex(g) for g in g_choices)):
            raise ValueError("%s must contain the base vertex and g" % name)
        if not sub.is_connected():
            raise ValueError("%s is not connected" % name)
    upsilon = xi.intersection(theta).component_of(base)
    if any(g in upsilon for g in g_choices):
        raise ValueError("base and g lie in one component of the intersection")


@dataclass(frozen=True, eq=False)
class Constellation:
    xi: Subgraph
    g: int
    theta: Subgraph

    def __post_init__(self):
        _check_constellations(self.xi, self.theta, (self.g,))

    @property
    def parent(self) -> InverseAutomaton:
        return self.xi.parent

    @property
    def base(self) -> int:
        return self.xi.parent.base


@dataclass(frozen=True, eq=False)
class MinimalCut:
    cut: frozenset[tuple[int, int]]
    near: frozenset[int]  # side containing the base vertex
    far: frozenset[int]


def minimal_cut_sets(aut: InverseAutomaton) -> list[MinimalCut]:
    """All minimal cut sets of a connected graph: the crossing edge sets
    of vertex bipartitions whose two sides are induced-connected.  A
    search over the non-crossing edges stays on the side it starts from,
    so the sides are connected iff the searches from the anchor and from
    the least far vertex reach all n vertices together."""
    check_size(2 ** (aut.n - 1), "vertex bipartitions")
    anchor = aut.base if aut.base is not None else 0
    others = [v for v in range(aut.n) if v != anchor]
    edges = aut.pos_edges()
    out = []
    for mask in range(1, 1 << len(others)):
        far = frozenset(others[i] for i in range(len(others)) if mask >> i & 1)
        cut, kept = set(), set()
        for u, letter, v in edges:
            (cut if (u in far) != (v in far) else kept).add((u, letter))
        if (len(bfs_tree(aut, anchor, kept)) == aut.n - len(far)
                and len(bfs_tree(aut, min(far), kept)) == len(far)):
            out.append(MinimalCut(frozenset(cut), frozenset(range(aut.n)) - far, far))
    return out


@dataclass(frozen=True, eq=False)
class MaxConstellationPair:
    xi: Subgraph
    theta: Subgraph
    cut: MinimalCut
    c_xi: frozenset[tuple[int, int]]
    c_theta: frozenset[tuple[int, int]]
    g_choices: tuple[int, ...]

    def __post_init__(self):
        _check_constellations(self.xi, self.theta, self.g_choices)

    def constellation(self, g: int) -> Constellation:
        return Constellation(self.xi, g, self.theta)

    def constellations(self) -> list[Constellation]:
        return [Constellation(self.xi, g, self.theta) for g in self.g_choices]


def maximal_constellations(group: MaterializedGroup) -> list[MaxConstellationPair]:
    """All ordered pairs (C_Xi, C_Theta) over all minimal cuts, with the
    far-side vertices as g choices.  Every pair is validated once for
    all its g choices.  The pair count is refused before any is built."""
    gamma = group.cayley
    full = full_subgraph(gamma)
    cuts = minimal_cut_sets(gamma)
    check_size(sum(2 ** len(mc.cut) - 2 for mc in cuts), "maximal constellation pairs")
    out = []
    for mc in cuts:
        edges = sorted(mc.cut)
        for mask in range(1, (1 << len(edges)) - 1):
            c_xi = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
            c_theta = mc.cut - c_xi
            pair = MaxConstellationPair(
                xi=full.minus_edges(c_theta),
                theta=full.minus_edges(c_xi),
                cut=mc,
                c_xi=c_xi,
                c_theta=c_theta,
                g_choices=tuple(sorted(mc.far)),
            )
            out.append(pair)
    return out


def delta_a(group: MaterializedGroup, letter: int, sign: int = 1) -> Constellation:
    """The one-edge constellation of a signed letter: Xi is the Cayley
    graph minus the letter's base edge, g its far endpoint, Theta the
    edge alone."""
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
    if not xi.is_connected():
        raise ValueError("removing the edge disconnects the Cayley graph")
    theta = Subgraph(gamma, frozenset([edge]), frozenset([0, g]))
    return Constellation(xi, g, theta)


def amalgams_of(group: MaterializedGroup) -> list[InverseAutomaton]:
    """Amalgams of the unordered maximal pairs, in a canonical order."""
    seen = set()
    out = []
    for pair in maximal_constellations(group):
        key = frozenset((pair.xi.edges, pair.theta.edges))
        if key in seen:
            continue
        seen.add(key)
        out.append(canonical(amalgam(pair.xi, pair.theta)))
    out.sort(key=write_aut)
    return out


def chain_letter(aut: InverseAutomaton) -> int:
    """Smallest letter whose action is not a total permutation."""
    for letter in range(aut.n_letters):
        if aut.missing_outgoing(letter):
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
    edges: list[tuple[int, int, int]] = []
    for i, a in enumerate(amalgams):
        classes.setdefault(chain_letter(a), []).append(i)
        offsets.append(total)
        edges.extend((u + total, letter, v + total) for u, letter, v in a.pos_edges())
        total += a.n
    sink = total
    has_out = {(u, letter) for u, letter, _ in edges}
    has_in = {(v, letter) for _, letter, v in edges}
    for letter in sorted(classes):
        idxs = classes[letter]
        for j, i in enumerate(idxs):
            u = min(v for v in range(offsets[i], offsets[i] + amalgams[i].n)
                    if (v, letter) not in has_out)
            if j + 1 < len(idxs):
                k = idxs[j + 1]
                v = min(x for x in range(offsets[k], offsets[k] + amalgams[k].n)
                        if (x, letter) not in has_in)
            else:
                v = sink
            edges.append((u, letter, v))
            has_out.add((u, letter))
            has_in.add((v, letter))
    result = InverseAutomaton(total + 1, group.n_letters, edges, base=0)
    for i, a in enumerate(amalgams):
        if embed_check(a, result, offsets[i] + a.base) is None:
            raise VerificationError("amalgam %d does not embed in the assembly" % i)
    return result
