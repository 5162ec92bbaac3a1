import random
import re
from collections import deque

import pytest

from constel.automata import (BfsTree, InverseAutomaton, LabeledGraph, Subgraph,
                              amalgam, as_inverse_automaton, bfs_tree, canonical,
                              core_of_words, embed_check, fold, full_subgraph, member,
                              rank_from_core, read_aut, to_dot, transition_group,
                              tree_word, trim, write_aut)
from constel.groups import CyclicSpec, KleinSpec, PermSpec, materialize
from constel.words import Word, invert, reduce
import oracle as O
from group_elements import S3_GENS, oracle_automaton, w


def z2_cayley() -> InverseAutomaton:
    # complete 2-vertex automaton: a swaps, b fixes
    return InverseAutomaton(2, 2, [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)], 0)


def graph_from_edges(n, n_letters, edges, base=0) -> LabeledGraph:
    g = LabeledGraph(n_letters)
    g.vertices.update(range(n))
    for u, letter, v in edges:
        g.add_edge(u, letter, v)
    g.set_base(base)
    return g


def test_inverse_automaton_rejects_nondeterminism():
    with pytest.raises(ValueError):
        InverseAutomaton(3, 1, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        InverseAutomaton(3, 1, [(0, 0, 2), (1, 0, 2)])


LOOP = [(0, 0, 0)]  # one vertex, an a-loop, no base


@pytest.mark.parametrize("call, message", [
    (lambda: LabeledGraph(2, ("a",)), "letter_names length mismatch"),
    (lambda: LabeledGraph(1).add_edge(0, 1, 0), "letter 1 out of range"),
    (lambda: InverseAutomaton(2, 1, [], 2), "base vertex 2 out of range"),
    (lambda: InverseAutomaton(2, 1, [(0, 0, 2)]), "edge endpoint out of range"),
    (lambda: InverseAutomaton(2, 1, [(0, 1, 1)]), "letter 1 out of range"),
    (lambda: InverseAutomaton(1, 1, LOOP).trace(0, Word(((1, 1),))),
     "word letter 1 outside automaton alphabet"),
    (lambda: member(InverseAutomaton(1, 1, LOOP), w("a")), "membership needs a based automaton"),
    (lambda: rank_from_core(InverseAutomaton(2, 1, [], 0)),
     "rank is defined for connected graphs only"),
    (lambda: Subgraph(z2_cayley(), frozenset(), frozenset({0})).component_of(1),
     "vertex 1 not in subgraph"),
    (lambda: amalgam(*[full_subgraph(InverseAutomaton(1, 1, LOOP))] * 2),
     "amalgam needs a based parent graph"),
    (lambda: write_aut(z2_cayley(), ("x",)), "need 2 letter names"),
    (lambda: to_dot(z2_cayley(), ("x", "y", "z")), "need 2 letter names"),
])
def test_out_of_range_inputs_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()


def test_fold_wedge_of_aa_and_b():
    core = core_of_words([w("aa"), w("b")], 2)
    assert core.n == 2
    assert sorted(core.pos_edges()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert core.base == 0
    assert rank_from_core(core) == 2


def test_cores_and_membership_against_oracle():
    # O.stallings_core folds the bouquet and trims the leaves off the base;
    # O.Automaton.accepts walks the freely reduced word.  Half of the
    # words asked about are products of the generators, which both accept
    rng = random.Random(41)
    letters = [(a, s) for a in range(2) for s in (1, -1)]

    def random_letters(low, high):
        return [rng.choice(letters) for _ in range(rng.randint(low, high))]

    accepted = 0
    for _ in range(200):
        gens = [random_letters(1, 6) for _ in range(rng.randint(1, 3))]
        core, want = core_of_words([Word(tuple(g)) for g in gens], 2), O.stallings_core(gens, 2)
        assert O.pointed_iso(oracle_automaton(core), want), gens
        for i in range(10):
            if i % 2:
                u = random_letters(0, 8)
            else:
                u = [x for g in rng.choices(gens, k=3)
                     for x in (g if rng.random() < 0.5 else [(a, -s) for a, s in reversed(g)])]
            assert member(core, Word(tuple(u))) == want.accepts(u), (gens, u)
            accepted += want.accepts(u)
    assert 1000 <= accepted < 2000


def random_aut_lines(rng) -> tuple[str, list[str], list[str], str]:
    """Alphabet, vertex, edge and base lines of an unfolded .aut graph on
    1-12 vertices with ids below 40, over 1-3 letters: sparse enough to
    leave components off the base, and without a base in about a third."""
    n, n_letters = rng.randint(1, 12), rng.randint(1, 3)
    ids = rng.sample(range(40), n)
    vertices = ["vertex %d" % v for v in ids]
    edges = ["edge %d %s %d" % (rng.choice(ids), "abc"[rng.randrange(n_letters)], rng.choice(ids))
             for _ in range(rng.randint(0, n + 2))]
    base = "base %d" % rng.choice(ids) if rng.random() < 0.65 else ""
    return "alphabet " + " ".join("abc"[:n_letters]), vertices, edges, base


def aut_text(alphabet: str, vertices: list[str], edges: list[str], base: str) -> str:
    return "\n".join([alphabet] + vertices + edges + [base]) + "\n"


def test_fold_confluent_under_edge_order():
    rng = random.Random(21)
    edges = [(0, 0, 1), (1, 0, 2), (2, 1, 0), (0, 1, 3), (3, 0, 1),
             (2, 0, 4), (4, 1, 4), (1, 1, 5), (5, 0, 0)]
    reference = canonical(fold(graph_from_edges(6, 2, edges)))
    for _ in range(20):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        got = canonical(fold(graph_from_edges(6, 2, shuffled)))
        assert got == reference
    # the bytes, components off the base and baseless graphs included, do
    # not depend on the order of the edge lines or of the vertex lines
    kinds = set()
    for _ in range(300):
        lines = random_aut_lines(rng)
        _, vertices, edges, _ = lines
        aut = fold(read_aut(aut_text(*lines)))
        reference = write_aut(aut)
        for _ in range(3):
            rng.shuffle(edges)
            assert write_aut(fold(read_aut(aut_text(*lines)))) == reference
            rng.shuffle(vertices)
            assert write_aut(fold(read_aut(aut_text(*lines)))) == reference
        kinds.add((aut.base is None, aut.is_connected()))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def oracle_fold_classes(g: LabeledGraph) -> dict[int, object]:
    """Class label of each vertex in O.fold_edges, the fold that merges
    until no two equally labeled edges share a source or a target: the
    fold based at v has v's class as its base.  It drops edgeless
    vertices, which stay classes of their own."""
    ids = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(ids)}
    raw = [(pos[u], a, pos[v]) for u, a, v in g.edges]
    touched = {x for u, _, v in raw for x in (u, v)}
    return {v: O.fold_edges(len(ids), raw, g.n_letters, pos[v]).base if pos[v] in touched
            else ("edgeless", v) for v in ids}


def test_fold_against_fixpoint_oracle():
    # the oracle's classes, numbered by their least vertices as `fold`
    # numbers its roots, give the same automaton; a fold that loses the
    # entries of a merged root has too few edges
    rng = random.Random(27)
    for _ in range(300):
        g = read_aut(aut_text(*random_aut_lines(rng)))
        cls = oracle_fold_classes(g)
        least = {}
        for v in sorted(cls):
            least.setdefault(cls[v], len(least))
        edges = {(least[cls[u]], a, least[cls[v]]) for u, a, v in g.edges}
        base = None if g.base is None else least[cls[g.base]]
        oracle = InverseAutomaton(len(least), g.n_letters, edges, base)
        got = fold(g)
        assert (got.n, got.n_pos_edges) == (oracle.n, oracle.n_pos_edges)
        assert got == canonical(oracle)


def test_fold_result_is_deterministic_automaton():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randrange(2, 7)
        edges = [(rng.randrange(n), rng.randrange(2), rng.randrange(n))
                 for _ in range(rng.randrange(1, 10))]
        aut = fold(graph_from_edges(n, 2, edges))
        for v in range(aut.n):
            for letter in range(2):
                assert len([1 for u, l, _ in aut.pos_edges()
                            if u == v and l == letter]) <= 1


def random_reduced_word(rng, max_len):
    pairs = []
    for _ in range(rng.randrange(max_len + 1)):
        pairs.append((rng.randrange(2), rng.choice((1, -1))))
    return reduce(Word(tuple(pairs)))


def test_member_against_exponent_parity_oracle():
    # the 2-vertex complete automaton accepts exactly words with even
    # a-exponent sum, which free reduction preserves
    aut = z2_cayley()
    rng = random.Random(23)
    for _ in range(300):
        u = random_reduced_word(rng, 8)
        parity = sum(sign for letter, sign in u.letters if letter == 0) % 2
        assert member(aut, u) == (parity == 0), u


def test_member_core_is_finer_than_parity():
    core = core_of_words([w("aa"), w("b")], 2)
    assert member(core, w("aa"))
    assert member(core, w("b"))
    assert member(core, w("aaB"))
    assert not member(core, w("a"))
    assert not member(core, w("aba"))  # even a-parity, still outside


def test_member_accepts_generator_products():
    gens = [w("abA"), w("bb"), w("aBab")]
    core = core_of_words(gens, 2)
    rng = random.Random(24)
    for _ in range(100):
        parts = [rng.choice(gens) for _ in range(rng.randrange(1, 6))]
        prod = Word(tuple(pair for part in parts
                          for pair in (part.letters if rng.random() < 0.5
                                       else invert(part).letters)))
        assert member(core, prod)


def test_trim_removes_hair_keeps_base():
    g = graph_from_edges(4, 2, [(0, 0, 1), (1, 0, 2), (2, 1, 3)])
    aut = trim(fold(g))
    assert aut.n == 1 and aut.base == 0 and aut.pos_edges() == []


def test_cores_have_no_hair():
    rng = random.Random(25)
    for _ in range(30):
        gens = [random_reduced_word(rng, 6) for _ in range(3)]
        gens = [u for u in gens if len(u.letters)]
        if not gens:
            continue
        core = core_of_words(gens, 2)
        for v in range(core.n):
            if v != core.base:
                assert core.degree(v) >= 2


def test_transition_group_matches_tracing():
    aut = z2_cayley()
    gens = transition_group(aut)
    assert gens.degree == 2
    rng = random.Random(26)
    for _ in range(100):
        u = random_reduced_word(rng, 6)
        for v in range(aut.n):
            cur = v
            for letter, sign in u.letters:
                p = gens.images[letter]
                cur = p(cur) if sign > 0 else p.inverse()(cur)
            assert cur == aut.trace(v, u)


def test_transition_group_requires_complete():
    core = core_of_words([w("aa"), w("b")], 2)
    with pytest.raises(ValueError):
        transition_group(core)


def test_canonical_idempotent_and_invariant():
    core = core_of_words([w("abA"), w("bb")], 2)
    assert canonical(canonical(core)) == canonical(core)
    # relabel vertices by a rotation; canonical form must agree
    n = core.n
    relabel = {v: (v + 1) % n for v in range(n)}
    moved = InverseAutomaton(
        n, 2, [(relabel[u], l, relabel[v]) for u, l, v in core.pos_edges()],
        relabel[core.base])
    assert canonical(moved) == canonical(core)
    assert canonical(core) != canonical(z2_cayley())


def random_folded(rng) -> InverseAutomaton:
    """Folded automaton on 1-12 vertices over 1-3 letters: each letter a
    random partial injection, sparse enough to leave several components;
    the base is missing in about a quarter of them."""
    n, n_letters = rng.randint(1, 12), rng.randint(1, 3)
    edges = []
    for letter in range(n_letters):
        sources = rng.sample(range(n), rng.randint(0, n))
        targets = rng.sample(range(n), len(sources))
        edges += [(u, letter, v) for u, v in zip(sources, targets) if rng.random() < 0.6]
    base = rng.randrange(n) if rng.random() < 0.75 else None
    return InverseAutomaton(n, n_letters, edges, base)


def trim_one_vertex_at_a_time(aut: InverseAutomaton) -> InverseAutomaton:
    """Oracle for trim: delete the least non-base vertex of degree <= 1,
    renumbering the rest in order, until there is none."""
    while True:
        v = next((v for v in range(aut.n) if v != aut.base and aut.degree(v) <= 1), None)
        if v is None:
            return canonical(aut)
        newid = [u - (u > v) for u in range(aut.n)]
        aut = InverseAutomaton(aut.n - 1, aut.n_letters,
                               [(newid[u], letter, newid[w]) for u, letter, w in aut.pos_edges()
                                if v not in (u, w)],
                               None if aut.base is None else newid[aut.base])


def test_trim_matches_deleting_one_vertex_at_a_time():
    rng = random.Random(27)
    shapes = set()
    for _ in range(300):
        aut = random_folded(rng)
        assert write_aut(trim(aut)) == write_aut(trim_one_vertex_at_a_time(aut)), write_aut(aut)
        pairs = {(u, w) for u, _, w in aut.pos_edges()}
        shapes.update({"loop" for u, w in pairs if u == w}
                      | {"2-cycle" for u, w in pairs if u != w and (w, u) in pairs}
                      | {"isolated" for v in range(aut.n) if aut.degree(v) == 0}
                      | ({"no base"} if aut.base is None else set()))
    assert shapes == {"loop", "2-cycle", "isolated", "no base"}


def queue_numbering(aut: InverseAutomaton) -> dict[int, int]:
    """Old id -> new id by a breadth-first queue from the base, then from
    each unseen vertex in ascending order; at each vertex the letters
    ascend, and the a-successor comes before the a-predecessor."""
    order, seen = [], set()
    for seed in ([aut.base] if aut.base is not None else []) + list(range(aut.n)):
        if seed in seen:
            continue
        seen.add(seed)
        queue = deque([seed])
        while queue:
            v = queue.popleft()
            order.append(v)
            for letter in range(aut.n_letters):
                for nxt in (aut.fwd[letter][v], aut.bwd[letter][v]):
                    if nxt is not None and nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
    return {v: i for i, v in enumerate(order)}


def test_canonical_numbering_is_breadth_first():
    rng = random.Random(31)
    kinds = set()
    for _ in range(400):
        aut = random_folded(rng)
        new = queue_numbering(aut)
        got = canonical(aut)
        assert (got.n, got.n_letters) == (aut.n, aut.n_letters)
        assert got.base == (None if aut.base is None else new[aut.base])
        assert got.pos_edges() == sorted((new[u], a, new[v]) for u, a, v in aut.pos_edges())
        kinds.add((aut.base is None, aut.is_connected()))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_embed_check_examples():
    cay = z2_cayley()
    core = core_of_words([w("aa")], 2)
    mapping = embed_check(core, cay, core.base)
    assert mapping is not None and mapping[core.base] == cay.base
    loop = core_of_words([w("a")], 2)  # a-loop at base
    assert embed_check(loop, cay, loop.base) is None


def test_bfs_tree_word_prefers_positive():
    core = core_of_words([w("aa"), w("b")], 2)
    assert tree_word(bfs_tree(core, 0), 1) == w("a")
    assert tree_word(bfs_tree(core, 0), 0) == Word(())
    two = InverseAutomaton(2, 1, [(1, 0, 0)], 0)
    assert tree_word(bfs_tree(two, 0), 1) == w("A")
    assert tree_word(bfs_tree(InverseAutomaton(2, 1, [], 0), 0), 1) is None


def test_tree_words_share_signed_letters_past_z():
    # a .aut file may name more than 26 letters; each signed letter is
    # one object in every word a tree spells
    aut = InverseAutomaton(3, 30, [(0, 29, 1), (1, 29, 2)], 0)
    tree = bfs_tree(aut, 0)
    one, two = tree_word(tree, 1), tree_word(tree, 2)
    assert one == Word(((29, 1),)) and two == Word(((29, 1), (29, 1)))
    assert two.letters[0] is two.letters[1] is one.letters[0]


def distances(aut, root, edges, forward_only):
    """Step counts from root by relaxing every allowed step until
    nothing changes: the oracle for the BFS tree's depths."""
    steps = [(u, v) for u, letter, v in aut.pos_edges()
             if edges is None or (u, letter) in edges]
    if not forward_only:
        steps += [(v, u) for u, v in steps]
    dist = {root: 0}
    changed = True
    while changed:
        changed = False
        for u, v in steps:
            if u in dist and dist[u] + 1 < dist.get(v, len(steps) + 1):
                dist[v] = dist[u] + 1
                changed = True
    return dist


def whole_tree(aut, root, edges, forward_only):
    """The whole search: `bfs_tree`, or a grown `BfsTree` when forward only."""
    if forward_only:
        return BfsTree(aut, root, edges, True).grow()
    return bfs_tree(aut, root, edges)


def test_bfs_tree_against_relaxed_distances():
    rng = random.Random(7)
    for _ in range(30):
        words = [random_reduced_word(rng, rng.randrange(1, 7)) for _ in range(3)]
        aut = core_of_words(words, 2)
        edges = frozenset((u, l) for u, l, _ in aut.pos_edges() if rng.random() < 0.7)
        for root in range(aut.n):
            for sub_edges in (None, edges):
                for forward_only in (False, True):
                    tree = whole_tree(aut, root, sub_edges, forward_only)
                    dist = distances(aut, root, sub_edges, forward_only)
                    assert set(tree) == set(dist)
                    for v in tree:
                        u = tree_word(tree, v)
                        assert len(u) == dist[v] and aut.trace(root, u) == v
                        assert not forward_only or all(s > 0 for _, s in u)
                        assert sub_edges is None or all(
                            e in sub_edges for e in traversed_edges(aut, root, u))
                    if sub_edges is None and not forward_only:
                        assert set(tree) == aut.component_of(root)
                    elif not forward_only:
                        sub = Subgraph(aut, sub_edges, frozenset(range(aut.n)))
                        assert set(tree) == sub.component_of(root)
    assert tree_word({0: (-1, -1, 0)}, 1) is None


def oracle_cayley_graphs():
    """Cayley graphs of Z6, S3, Klein and Z16 for the networkx oracles."""
    return [materialize(spec).cayley for spec in (
        CyclicSpec(6, (1, 2)), PermSpec(3, S3_GENS), KleinSpec(((1, 0), (0, 1))),
        CyclicSpec(16, (1, 1)))]


def test_bfs_tree_depths_match_networkx_path_lengths():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    for aut in oracle_cayley_graphs():
        all_edges = [(u, letter) for u, letter, _ in aut.pos_edges()]
        subsets = [None] + [frozenset(e for e in all_edges if rng.random() < 0.6)
                            for _ in range(4)]
        for edges in subsets:
            for forward_only in (False, True):
                graph = nx.MultiDiGraph() if forward_only else nx.MultiGraph()
                graph.add_nodes_from(range(aut.n))
                graph.add_edges_from((u, v) for u, letter, v in aut.pos_edges()
                                     if edges is None or (u, letter) in edges)
                for root in range(aut.n):
                    tree = whole_tree(aut, root, edges, forward_only)
                    depths = {v: len(tree_word(tree, v)) for v in tree}
                    assert depths == nx.single_source_shortest_path_length(graph, root)


def reference_tree(aut, root, edges, forward_only):
    """The whole search, written as a queue over signed steps, letters
    ascending and the forward step first: the oracle for the order and
    the entries of every tree, grown in pieces or at once."""
    tree, queue = {root: (-1, -1, 0)}, deque([root])
    while queue:
        v = queue.popleft()
        for letter in range(aut.n_letters):
            for sign in (1,) if forward_only else (1, -1):
                w = aut.step(v, letter, sign)
                if w is None or w in tree:
                    continue
                if edges is None or ((v, letter) if sign > 0 else (w, letter)) in edges:
                    tree[w] = (v, letter, sign)
                    queue.append(w)
    return tree


def test_tree_grown_in_pieces_is_a_prefix_of_the_whole_search():
    rng = random.Random(29)
    auts = [core_of_words([random_reduced_word(rng, 8) for _ in range(3)], 2)
            for _ in range(25)] + oracle_cayley_graphs()
    for aut in auts:
        all_edges = [(u, letter) for u, letter, _ in aut.pos_edges()]
        for edges in (None, frozenset(e for e in all_edges if rng.random() < 0.6)):
            for forward_only in (False, True):
                root = rng.randrange(aut.n)
                full = list(reference_tree(aut, root, edges, forward_only).items())
                assert list(whole_tree(aut, root, edges, forward_only).items()) == full
                index = {v: i for i, (v, _) in enumerate(full)}
                stops = rng.choices(range(aut.n), k=6)
                off = [v for v in range(aut.n) if v not in index]
                if off:
                    stops.insert(rng.randrange(len(stops) + 1), rng.choice(off))
                tree, grown = BfsTree(aut, root, edges, forward_only), 1
                for stop in stops:
                    assert tree.grow(stop) is tree.tree
                    if stop not in index:
                        grown = len(full)
                    elif stop != root:
                        # processed up to stop's previous vertex, and no further
                        last = index[full[index[stop]][1][0]]
                        grown = max(grown, sum(1 for _, (u, *_) in full
                                               if index.get(u, -1) <= last))
                    assert list(tree.tree.items()) == full[:grown]
                    assert (stop in tree.tree) == (stop in index)
                assert list(tree.grow().items()) == full


def traversed_edges(aut, v, u):
    for letter, sign in u:
        nxt = aut.step(v, letter, sign)
        yield (v, letter) if sign > 0 else (nxt, letter)
        v = nxt


def test_subgraph_component_and_neighbors():
    cay = z2_cayley()
    sub = Subgraph(cay, frozenset({(0, 0)}), frozenset({0, 1}))
    seen = sorted((v, letter, sign) for v, letter, sign, _ in sub.neighbors(0))
    assert seen == [(1, 0, 1)]
    assert sub.component_of(0) == frozenset({0, 1})
    only_b = Subgraph(cay, frozenset({(0, 1)}), frozenset({0, 1}))
    assert only_b.component_of(0) == frozenset({0})
    assert not only_b.is_connected()
    assert full_subgraph(cay).is_connected()


def test_subgraph_validation():
    core = core_of_words([w("aa"), w("b")], 2)
    with pytest.raises(ValueError):
        Subgraph(core, frozenset({(0, 0)}), frozenset({0}))  # endpoint missing
    with pytest.raises(ValueError):
        Subgraph(core, frozenset({(1, 1)}), frozenset({1}))  # no such edge
    # edge ids outside the parent, which an index would wrap or overrun:
    # in Z4, 3 --a--> 0 and 0 --b--> 1
    z4 = materialize(CyclicSpec(4, (1, 1))).cayley
    for edge, vertices in (((-1, 0), {-1, 0, 3}), ((0, -1), {0, 1}), ((0, 2), {0, 1}),
                           ((4, 0), {0, 4})):
        with pytest.raises(ValueError, match="not in parent"):
            Subgraph(z4, frozenset({edge}), frozenset(vertices))


def test_amalgam_glues_at_base():
    cay = z2_cayley()
    xi = Subgraph(cay, frozenset({(0, 0), (1, 0)}), frozenset({0, 1}))
    theta = Subgraph(cay, frozenset({(0, 1)}), frozenset({0}))
    got = canonical(amalgam(xi, theta))
    assert got == canonical(core_of_words([w("aa"), w("b")], 2))
    with pytest.raises(ValueError):
        amalgam(theta, Subgraph(cay, frozenset({(1, 1)}), frozenset({1})))


def test_aut_round_trip():
    core = core_of_words([w("aa"), w("b")], 2)
    text = write_aut(core)
    assert text == "edge 0 a 1\nedge 0 b 0\nedge 1 a 0\nbase 0\n"
    back = as_inverse_automaton(read_aut(text))
    assert back == core


def test_aut_round_trip_sparse_ids_and_comments():
    text = "# comment\nalphabet x y\nvertex 7\nedge 3 y 5\nbase 3\n"
    g = read_aut(text)
    aut = as_inverse_automaton(g)
    assert aut.n == 3  # ids 3, 5, 7 packed
    assert aut.base == 0
    assert write_aut(aut, g.letter_names) == "alphabet x y\nvertex 2\nedge 0 y 1\nbase 0\n"


def test_read_aut_errors():
    with pytest.raises(ValueError):
        read_aut("alphabet a b\nedge 0 q 1\nbase 0\n")  # letter outside alphabet
    with pytest.raises(ValueError):
        read_aut("alphabet a\nedge 0 a\n")
    with pytest.raises(ValueError):
        read_aut("frobnicate 3\n")
    with pytest.raises(ValueError, match="bad .aut line 1: repeated letter name"):
        read_aut("alphabet a a\nedge 0 a 1\n")


def test_as_inverse_automaton_rejects_unfolded():
    g = graph_from_edges(3, 1, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        as_inverse_automaton(g)


def test_to_dot_shape():
    core = core_of_words([w("aa"), w("b")], 2)
    lines = to_dot(core).splitlines()
    assert lines[0] == "digraph aut {"
    assert lines[-1] == "}"
    assert sum(1 for line in lines if "->" in line) == 3
    assert sum(1 for line in lines if "doublecircle" in line) == 1
    quoted = to_dot(InverseAutomaton(2, 1, [(0, 0, 1)], 0), ('x"\\y',))
    assert '0 -> 1 [label="x\\"\\\\y"];' in quoted
