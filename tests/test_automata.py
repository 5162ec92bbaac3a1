import itertools
import random

import pytest

from constel.automata import (InverseAutomaton, LabeledGraph, Subgraph,
                              amalgam, as_inverse_automaton, bfs_tree, bouquet,
                              canonical, core_of_words, embed_check, fold,
                              full_subgraph, induced_subgraph, member,
                              path_word, pointed_isomorphic,
                              product_automaton, rank_from_core, read_aut,
                              span_from_base, subgraph_automaton, to_dot,
                              transition_group, tree_word, trim, write_aut)
from constel.words import Alphabet, Word, parse_word, reduce, word

A2 = Alphabet.of_size(2)


def w(text: str) -> Word:
    return parse_word(text, A2)


def z2_cayley() -> InverseAutomaton:
    # complete 2-vertex automaton: a swaps, b fixes
    return InverseAutomaton(2, 2, [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)], 0)


def graph_from_edges(n, n_letters, edges, base=0) -> LabeledGraph:
    g = LabeledGraph(n_letters)
    for v in range(n):
        g.add_vertex(v)
    for u, letter, v in edges:
        g.add_edge(u, letter, v)
    g.set_base(base)
    return g


def test_inverse_automaton_rejects_nondeterminism():
    with pytest.raises(ValueError):
        InverseAutomaton(3, 1, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        InverseAutomaton(3, 1, [(0, 0, 2), (1, 0, 2)])


def test_fold_wedge_of_aa_and_b():
    core = core_of_words([w("aa"), w("b")], 2)
    assert core.n == 2
    assert sorted(core.pos_edges()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert core.base == 0
    assert rank_from_core(core) == 2


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
        prod = word(pair for part in parts
                    for pair in (part.letters if rng.random() < 0.5
                                 else (~part).letters))
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


def enumerate_reduced(max_len):
    out = [Word(())]
    frontier = [Word(())]
    for _ in range(max_len):
        nxt = []
        for u in frontier:
            for letter in range(2):
                for sign in (1, -1):
                    if u.letters and u.letters[-1] == (letter, -sign):
                        continue
                    nxt.append(Word(u.letters + ((letter, sign),)))
        out.extend(nxt)
        frontier = nxt
    return out


def test_product_automaton_language_is_intersection():
    a = core_of_words([w("aa"), w("b")], 2)
    b = core_of_words([w("a"), w("bab")], 2)
    prod = product_automaton(a, b)
    for u in enumerate_reduced(6):
        assert member(prod, u) == (member(a, u) and member(b, u)), u
    # the same product from relabelled factors whose bases are not 0
    moved = [InverseAutomaton(x.n, 2, [((u + 1) % x.n, l, (v + 1) % x.n)
                                       for u, l, v in x.pos_edges()], (x.base + 1) % x.n)
             for x in (a, b)]
    assert all(x.base != 0 for x in moved)
    assert product_automaton(*moved) == prod


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
                p = gens.perms[letter]
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
    assert pointed_isomorphic(moved, core)
    assert not pointed_isomorphic(core, z2_cayley())


def test_embed_check_examples():
    cay = z2_cayley()
    core = core_of_words([w("aa")], 2)
    mapping = embed_check(core, cay, core.base)
    assert mapping is not None and mapping[core.base] == cay.base
    loop = core_of_words([w("a")], 2)  # a-loop at base
    assert embed_check(loop, cay, loop.base) is None


def test_path_word_prefers_positive():
    core = core_of_words([w("aa"), w("b")], 2)
    assert path_word(core, 0, 1) == w("a")
    assert path_word(core, 0, 0) == Word(())
    two = InverseAutomaton(2, 1, [(1, 0, 0)], 0)
    assert path_word(two, 0, 1) == w("A")
    assert path_word(InverseAutomaton(2, 1, [], 0), 0, 1) is None


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


def test_bfs_tree_against_relaxed_distances():
    rng = random.Random(7)
    for _ in range(30):
        words = [random_reduced_word(rng, rng.randrange(1, 7)) for _ in range(3)]
        aut = core_of_words(words, 2)
        edges = frozenset((u, l) for u, l, _ in aut.pos_edges() if rng.random() < 0.7)
        for root in range(aut.n):
            for sub_edges in (None, edges):
                for forward_only in (False, True):
                    tree = bfs_tree(aut, root, sub_edges, forward_only)
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


def test_span_from_base():
    cay = z2_cayley()
    core = core_of_words([w("aa")], 2)
    sub = span_from_base(core, cay)
    assert sub.edges == frozenset({(0, 0), (1, 0)})
    assert sub.vertices == frozenset({0, 1})
    single = span_from_base(core_of_words([w("b")], 2), cay)
    assert single.edges == frozenset({(0, 1)})
    assert single.vertices == frozenset({0})


def test_subgraph_automaton_renumbers():
    cay = z2_cayley()
    sub = Subgraph(cay, frozenset({(1, 1)}), frozenset({1}))
    aut = subgraph_automaton(sub, 1)
    assert aut.n == 1 and aut.base == 0
    assert aut.pos_edges() == [(0, 1, 0)]


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
    assert write_aut(g) == "alphabet x y\nvertex 7\nedge 3 y 5\nbase 3\n"


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
