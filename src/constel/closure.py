"""Finite-level closures, extendibility, and product membership.

At a finite level G, the closure of the subgroup generated by a list of
words is the full preimage of its image T <= G; its Stallings automaton
is the (complete) Schreier coset graph of T.  Extendibility at the level
asks whether a folded automaton appears as a pointed subgraph of that
coset graph, and product membership checks the level shadow of
membership in a product of finitely generated subgroups.
"""

from __future__ import annotations

from .automata import InverseAutomaton, _product_walk
from .errors import VerificationError
from .gaschuetz import GaschuetzLayer, TowerSpec
from .groups import (MaterializedGroup, coset_walk, materialize, subgroup_closure,
                     table_automaton)
from .perms import _orbit
from .words import Word


def subgroup_image(gens: list[Word], g_group: MaterializedGroup) -> frozenset[int]:
    """Image in G of the subgroup generated by the words."""
    return subgroup_closure(g_group, [g_group.evaluate(w) for w in gens])


def schreier_graph(g_group: MaterializedGroup, t_elems
                   ) -> tuple[InverseAutomaton, tuple[int, ...]]:
    """Right-coset graph of T (base coset T, BFS numbering) together
    with the coset index of every group element."""
    t_set = frozenset(t_elems)
    if 0 not in t_set:
        raise ValueError("subgroup must contain the identity")
    coset_of, columns = coset_walk(g_group, t_set)
    return table_automaton(columns, max(coset_of) + 1), tuple(coset_of)


def closure_at_level(gens: list[Word], g_group: MaterializedGroup) -> InverseAutomaton:
    """Stallings automaton of the level-G closure of <gens>: the coset
    graph of the image subgroup (complete, hence its own core)."""
    aut, _ = schreier_graph(g_group, subgroup_image(gens, g_group))
    return aut


def extendible_at_level(a: InverseAutomaton, g_group: MaterializedGroup
                        ) -> tuple[bool, dict[int, int]]:
    """Whether the canonical morphism of a into the coset graph of T, the
    image of a's closed paths at its base, is injective; also returns
    its vertex map, vertex of a -> coset, with the base on coset 0.

    The map is well defined: two elements paired with one vertex v
    differ by the image of a closed path at the base of a, which lies
    in T, so they share a coset.  In an inverse automaton an edge is
    fixed by its source and letter, so a morphism that is injective on
    vertices is injective on edges.  A disconnected a leaves some
    vertices unmapped, and the answer is False."""
    if a.base is None:
        raise ValueError("extendibility needs a based automaton")
    seen = _product_walk(a, g_group.cayley)
    coset_of, _ = coset_walk(g_group, {g for v, g in seen if v == a.base})
    image = {v: coset_of[g] for v, g in seen}
    return len(set(image.values())) == len(image) == a.n, image


def product_membership_at_level(w: Word, subgroups: list[list[Word]],
                                g_group: MaterializedGroup) -> bool:
    """Whether [w]_G lies in the literal set product T_1 ... T_n of the
    image subgroups; necessary at every level for membership in the
    closure of the product.  P T_i is the orbit of P under right
    multiplication by the generators of T_i."""
    prod = {0}
    for gens in subgroups:
        prod = _orbit(prod, [[g_group.cayley.trace(x, u) for x in range(g_group.order)]
                             for u in gens])
    return g_group.evaluate(w) in prod


def closure_chain(w: Word, gens: list[Word], spec: TowerSpec) -> list[bool]:
    """Membership of w in the level closure of <gens> at every level of
    the tower; nonincreasing since the projections carry image to image."""
    level = materialize(spec.base)
    answers = [level.evaluate(w) in subgroup_image(gens, level)]
    for p, tilde in spec.layers:
        level = GaschuetzLayer(level, p, tilde=tilde).materialize()
        answers.append(level.evaluate(w) in subgroup_image(gens, level))
    for earlier, later in zip(answers, answers[1:]):
        if later and not earlier:
            raise VerificationError("level membership must be nonincreasing")
    return answers
