import random
import tracemalloc
from collections import Counter, deque
from collections.abc import Sized
from functools import partial
from itertools import zip_longest

import pytest

import constel.constellations
import constel.dissolve
import constel.groups
from constel.automata import (BfsTree, InverseAutomaton, Subgraph, bfs_tree, full_subgraph,
                              tree_word)
from constel.constellations import (Constellation, delta_a, maximal_constellations,
                                    minimal_cut_sets)
from constel.dissolve import (DissolveReport, GFpSpan, counting_lifts_check,
                              cycle_space_rows, detecting_edges_check,
                              disconnection_equivalence, dissolve_all,
                              dissolves_linear, dissolves_materialized,
                              key_lemma_edge, key_lemma_report, reachable_lift,
                              schreier_rank_check)
from constel.errors import VerificationError
from constel.gaschuetz import GaschuetzLayer, TowerSpec, build_tower
from constel.groups import (CyclicSpec, KleinSpec, OrderBoundError, PermSpec,
                            canonical_morphism, coset_walk, identity_morphism, materialize,
                            subgroup_closure, traversal_vector)
from constel.perms import from_cycles
from constel.words import Word
import oracle as O
from group_elements import (S3_GENS, klein, left_rows, oracle_table, s3, str_word,
                            translation_classes, w, z2, z3)


def brute_endpoints(sub: Subgraph, h_group, phi, max_len: int) -> dict[int, set[int]]:
    """H-endpoints of all words of length <= max_len whose G-path from the
    identity stays inside sub, grouped by G-endpoint.  Walks raw letters,
    independent of the lift construction."""
    gamma_g = sub.parent
    seen = {0}
    frontier = {0}
    for _ in range(max_len):
        nxt = set()
        for h in frontier:
            g = phi(h)
            for letter in range(gamma_g.n_letters):
                for sign in (1, -1):
                    g2 = gamma_g.step(g, letter, sign)
                    if g2 is None or g2 not in sub.vertices:
                        continue
                    edge = (g, letter) if sign > 0 else (g2, letter)
                    if edge not in sub.edges:
                        continue
                    h2 = h_group.cayley.step(h, letter, sign)
                    if h2 not in seen:
                        seen.add(h2)
                        nxt.add(h2)
        frontier = nxt
    out: dict[int, set[int]] = {}
    for h in seen:
        out.setdefault(phi(h), set()).add(h)
    return out


def test_gfp_span():
    span = GFpSpan(3)
    assert span.add({(0, 0): 1, (1, 0): 2})
    assert not span.add({(0, 0): 2, (1, 0): 4})  # scalar multiple
    assert span.add({(1, 0): 1})
    assert len(span.rows) == 2
    assert span.contains({(0, 0): 1})
    assert not span.contains({(2, 1): 1})
    assert span.contains({})


def tree_vectors(aut, edges, p):
    """Reference for the tree words' vectors: signed traversal counts
    (mod p) carried vertex by vertex down the BFS tree from the base."""
    vecs = {}
    for w, (v, letter, sign) in bfs_tree(aut, aut.base, edges).items():
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


def tree_vector_rows(sub, p):
    """Reference fundamental-cycle rows from `tree_vectors`: the vector
    to u, plus the edge (u, a), minus the vector to its end."""
    vecs = tree_vectors(sub.parent, sub.edges, p)
    rows = []
    for edge in sorted(sub.edges):
        row = dict(vecs[edge[0]])
        row[edge] = (row.get(edge, 0) + 1) % p
        for e, c in vecs[sub.dst(edge)].items():
            row[e] = (row.get(e, 0) - c) % p
        row = {e: c for e, c in row.items() if c}
        if row:
            rows.append(row)
    return rows


def test_cycle_space_rank_is_e_minus_v_plus_1():
    for group in (z2(), klein(), z3()):
        sub = full_subgraph(group.cayley)
        span = GFpSpan(2)
        for row in cycle_space_rows(sub, 2):
            span.add(row)
        e = len(sub.edges)
        v = len(sub.vertices)
        assert len(span.rows) == e - v + 1


def test_reachable_lift_single_vertex():
    g = z2()
    sub = Subgraph(g.cayley, frozenset(), frozenset({0}))
    lifted, fibers = reachable_lift(sub, g, identity_morphism(g))
    assert lifted.vertices == frozenset({0})
    assert fibers == {0: frozenset({0})}


S3 = PermSpec(3, S3_GENS)


def oracle_lift(table, proj, sub: Subgraph):
    """(edges, vertices, fibers) of O.lift: the identity component of the
    preimage of sub in the oracle's table, grown over the edges whose
    projection lies in sub."""
    tvec, comp_edges = O.lift(table, proj, sub.edges, O.Vectors(2))
    fibers: dict[int, set[int]] = {}
    for h in tvec:
        fibers.setdefault(proj[h], set()).add(h)
    return (frozenset((h, a) for h, a, _ in comp_edges), frozenset(tvec),
            {g: frozenset(hs) for g, hs in fibers.items()})


def search_word(sub: Subgraph, dst: int):
    """Word oracle: a fresh BFS from the base for each destination, over
    forward edges first, then over all edges."""
    for positive_only in (True, False):
        prev = {0: None}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for nxt, letter, sign, _ in sub.neighbors(v):
                if (sign > 0 or not positive_only) and nxt not in prev:
                    prev[nxt] = (v, letter, sign)
                    queue.append(nxt)
        if dst in prev:
            pairs = []
            while prev[dst] is not None:
                dst, letter, sign = prev[dst]
                pairs.append((letter, sign))
            return Word(tuple(reversed(pairs)))
    return None


def test_reachable_lift_matches_filtered_lift():
    base = s3()
    mat = GaschuetzLayer(base, 2, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    table, proj = O.Layer(oracle_table(S3), 2, True).materialize()
    pairs = maximal_constellations(base)
    subs = [delta_a(base, 0).xi, delta_a(base, 1, -1).theta]
    subs += [sub for pair in pairs[::7] for sub in (pair.xi, pair.theta)]
    for sub in subs:
        lifted, fibers = reachable_lift(sub, mat, phi)
        assert (lifted.edges, lifted.vertices, fibers) == oracle_lift(table, proj, sub)


CONTRACTED_TOWERS = [(S3, ((2, True),)), (CyclicSpec(6, (1, 2)), ((2, True),)),
                     (KleinSpec(((1, 0), (0, 1))), ((3, True),)),
                     (S3, ((2, True), (2, True)))]


def cover_of(tower):
    """The materialized top over the base, or M under a lazy top."""
    down = tower.morphism(len(tower.levels) - 1, 0)
    if tower.top.order() > constel.dissolve.MATERIALIZE_BOUND:
        return tower.levels[-1], down
    h_group, cover = tower.top.cover()
    return h_group, cover.compose(down)


def oracle_cover(spec, layers):
    """(table, projection) of the oracle's tower, as `cover_of` gives
    (H, phi)."""
    tower = O.Tower(oracle_table(spec), layers)
    if tower.top.order() > constel.dissolve.MATERIALIZE_BOUND:
        return tower.levels[-1], tower.proj[-1]
    table, down = tower.top.materialize()
    return table, [tower.proj[-1][h] for h in down]


class VerticesOnly:
    """O.lift's vector arithmetic, skipped: only the vertex set is read,
    and p = 2 bitsets of |H||A| bits per vertex would take about 150 MB
    on a 24576-element top."""
    zero = None

    @staticmethod
    def plus_unit(x, i: int, sign: int):
        return None


def assert_halves_match_the_oracle(splits, table, proj):
    """Each half of each lift, read through `c in half`, holds exactly the
    vertices of O.lift, and no half, nor `both`, is a container of |H|
    entries."""
    for lifts, pair in splits:
        for held in (*lifts.halves, lifts.both):
            assert not isinstance(held, Sized) or len(held) < table.order
        for half, sub in zip(lifts.halves, (pair.xi, pair.theta)):
            tvec, _ = O.lift(table, proj, sub.edges, VerticesOnly)
            assert {h for h, c in enumerate(lifts.comp) if c in half} == tvec.keys()


def bond_lifts(phi, fibers, cut):
    """lifts(xi, theta) for the splits of a bond C, as dissolve_all
    builds it: over core Gamma - C, joined by C."""
    return constel.dissolve._lifts_over(phi, fibers, cut.full.edges.difference(cut.edges),
                                        frozenset(cut.edges))


def letter_lifts(base, phi):
    """(lifts, c) for the four letter constellations of a two-letter
    base, from one contraction along Gamma - D, joined by D."""
    deltas = [delta_a(base, a, sign) for a in range(2) for sign in (1, -1)]
    lifts_of = constel.dissolve._lifts_over(
        phi, phi.fibers(), frozenset.intersection(*(c.xi.edges for c in deltas)),
        frozenset().union(*(c.theta.edges for c in deltas)))
    return [(lifts_of(c.xi, c.theta), c) for c in deltas]


@pytest.mark.parametrize("spec, layers", CONTRACTED_TOWERS)
def test_bond_contractions_lift_every_split_as_the_filter_does(spec, layers):
    tower = build_tower(TowerSpec(spec, layers))
    base = tower.levels[0]
    h_group, phi = cover_of(tower)
    table, proj = oracle_cover(spec, layers)
    assert proj == [phi(h) for h in range(h_group.order)]
    fibers = phi.fibers()
    bond = lifts_of = None
    splits = []
    for pair in maximal_constellations(base):
        if pair.cut is not bond:
            bond, lifts_of = pair.cut, bond_lifts(phi, fibers, pair.cut)
        splits.append((lifts_of(pair.xi, pair.theta), pair))
    # the letter constellations are no splits; one contraction serves them all
    assert_halves_match_the_oracle(splits + letter_lifts(base, phi), table, proj)


def test_letter_lifts_build_no_vertex_set():
    # on Z12 ~2 every letter's Xi^ is all 24576 vertices of Gamma(H); its
    # half is told through the contraction along Gamma - D instead
    spec, layers = CyclicSpec(12, (1, 1)), ((2, True),)
    tower = build_tower(TowerSpec(spec, layers))
    h_group, phi = cover_of(tower)
    table, proj = oracle_cover(spec, layers)
    assert proj == [phi(h) for h in range(h_group.order)] and h_group.order == 24576
    splits = letter_lifts(tower.levels[0], phi)
    for _, c in splits:
        assert len(O.lift(table, proj, c.xi.edges, VerticesOnly)[0]) == h_group.order
    assert_halves_match_the_oracle(splits, table, proj)


def test_one_g_letter_decisions_join_only_the_letter_edge():
    # Xi = Gamma - e and Theta = {e} share no edge, so one decision
    # contracts along Xi and joins only the preimages of e; joining those
    # of all of Gamma - e peaked at about 16 MiB per letter
    tower = build_tower(TowerSpec(CyclicSpec(12, (1, 1)), ((2, True),)))
    h_group, phi = cover_of(tower)
    assert h_group.order == 24576
    deltas = [delta_a(tower.levels[0], a, sign) for a in range(2) for sign in (1, -1)]
    peaks = []
    tracemalloc.start()
    try:
        for c in deltas:
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            assert not dissolves_materialized(phi, c).dissolved
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert max(peaks) < 4 * 2 ** 20, peaks


TWO_EDGE_THETA_TOWERS = [(CyclicSpec(6, (1, 2)), ((2, True),)), (S3, ((2, True),)),
                         (S3, ((3, True),))]


def two_edge_theta_constellations(base):
    """(Gamma - P, g, P) for each path P of two distinct edges from the
    base to g != base whose removal leaves Gamma connected."""
    gamma, full = base.cayley, full_subgraph(base.cayley)
    out = []
    for x, sx, y, sy in ((x, sx, y, sy) for x in range(2) for y in range(2)
                         for sx in (1, -1) for sy in (1, -1)):
        v = gamma.step(0, x, sx)
        g = gamma.step(v, y, sy)
        path = [(0, x) if sx > 0 else (v, x), (v, y) if sy > 0 else (g, y)]
        if g != 0 and path[0] != path[1] and full.minus_edges(path).is_connected():
            theta = Subgraph(gamma, frozenset(path), frozenset({0, v, g}))
            out.append(Constellation(full.minus_edges(path), g, theta))
    return out


@pytest.mark.parametrize("spec, layers", TWO_EDGE_THETA_TOWERS)
def test_a_two_edge_theta_sharing_no_edge_with_xi(spec, layers):
    # the builder's no-shared-edge branch with a Theta^ of more than one
    # edge: both one-g deciders against the oracle's elimination, and
    # each half against O.lift
    tower = build_tower(TowerSpec(spec, layers))
    h_group, phi = cover_of(tower)
    table, proj = oracle_cover(spec, layers)
    o_tower = O.Tower(oracle_table(spec), layers)
    deciders = [one_g_decider(tower, method) for method in ("reachability", "linear")]
    cases = two_edge_theta_constellations(tower.levels[0])
    splits, verdicts = [], []
    for c in cases:
        want = O.dissolved_by_pair(o_tower, c.xi.edges, c.theta.edges, (c.g,))[c.g]
        assert [decide(c, "").dissolved for decide in deciders] == [want, want]
        verdicts.append(want)
        lifts = constel.dissolve._pair_lifts(phi, c.xi, c.theta)
        assert isinstance(lifts.comp, range) and len(lifts.halves[1]) == 3  # a path of 3
        splits.append((lifts, c))
    assert_halves_match_the_oracle(splits, table, proj)
    assert len(cases) >= 8 and not all(verdicts)


@pytest.mark.parametrize("spec, layers", CONTRACTED_TOWERS)
def test_cycle_space_rows_match_the_tree_vector_rows(spec, layers):
    tower = build_tower(TowerSpec(spec, layers))
    base = tower.levels[0]
    h_group, phi = cover_of(tower)
    first = {id(pair.cut): pair for pair in reversed(maximal_constellations(base))}
    subs = [sub for pair in first.values() for sub in (pair.xi, pair.theta)]
    subs += [delta_a(base, 0).xi, delta_a(base, 1, -1).theta]
    for sub in subs:
        lifted, _ = reachable_lift(sub, h_group, phi)
        for p in (2, 3, 5):
            assert cycle_space_rows(lifted, p) == tree_vector_rows(lifted, p)


@pytest.mark.parametrize("weak", [True, False])
def test_failure_vectors_are_tree_vector_differences(weak):
    # p = 3 tells a vector from its negative, which p = 2 cannot
    tower = build_tower(TowerSpec(CyclicSpec(12, (1, 1)), ((3, True),)))
    base, p = tower.levels[0], tower.top.p
    phi = tower.morphism(len(tower.levels) - 1, 0)
    if weak:
        subs = {constel.dissolve._letter_label(a, sign): delta_a(base, a, sign)
                for a in range(2) for sign in (1, -1)}
    else:
        subs = {"max%d:g%d" % (i, g): pair
                for i, pair in enumerate(maximal_constellations(base)) for g in pair.g_choices}
    reports = dissolve_all(tower, weak)
    failures = [r for r in reports if not r.dissolved]
    assert failures and {r.method for r in failures} == {"linear"}
    vecs, want = {}, []
    for r in reports:
        pair = subs[r.label]
        if not r.dissolved and id(pair) not in vecs:
            lifts = [reachable_lift(sub, phi.src, phi)[0] for sub in (pair.xi, pair.theta)]
            vecs[id(pair)] = [tree_vectors(lift.parent, lift.edges, p) for lift in lifts]
        vector = None
        if not r.dissolved:
            vx, vt = (v[r.endpoint] for v in vecs[id(pair)])
            vector = {e: (vx.get(e, 0) - vt.get(e, 0)) % p for e in set(vx) | set(vt)}
            vector = {e: c for e, c in vector.items() if c}
        want.append((r.label, r.dissolved, r.method, None, r.endpoint, vector))
    # a decided bond's vector is its tree vector difference; a translated
    # bond's is the translate of its representative's
    if not weak:
        want = translate_reports(CyclicSpec(12, (1, 1)), tower, want)
    assert [astuple(r) for r in reports] == want


@pytest.mark.parametrize("spec, layers", CONTRACTED_TOWERS)
def test_bond_contractions_match_networkx_components(spec, layers):
    nx = pytest.importorskip("networkx")
    tower = build_tower(TowerSpec(spec, layers))
    h_group, phi = cover_of(tower)
    first = {id(pair.cut): pair for pair in reversed(maximal_constellations(tower.levels[0]))}
    for pair in first.values():
        cut = frozenset(pair.cut.edges)
        comp = bond_lifts(phi, phi.fibers(), pair.cut)(pair.xi, pair.theta).comp
        graph = nx.Graph()
        graph.add_nodes_from(range(h_group.order))
        graph.add_edges_from((h, v) for h, a, v in h_group.cayley.pos_edges()
                             if (phi(h), a) not in cut)
        for component in nx.connected_components(graph):
            assert {comp[h] for h in component} == {min(component)}


def least_vertex_labels(n, pairs):
    """label[v]: the least vertex of v's component in the graph on 0..n-1
    with the undirected edges `pairs`; a BFS from each vertex left
    unlabelled, in increasing order, labels its component by it."""
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    label = [None] * n
    for root in range(n):
        if label[root] is None:
            label[root] = root
            queue = deque([root])
            while queue:
                for v in adj[queue.popleft()]:
                    if label[v] is None:
                        label[v] = root
                        queue.append(v)
    return label


def test_contract_labels_each_component_by_its_least_vertex():
    # seeded random edge subsets of Gamma(G), contracted in Gamma(H) over
    # three layers and in the Cayley graph of a base with an identity letter
    with pytest.warns(UserWarning):
        z6_id = materialize(CyclicSpec(6, (1, 0)))
    cases = []
    for base, p, tilde in ((klein(), 3, False), (s3(), 2, True), (z6_id, 2, True)):
        h_group, phi = GaschuetzLayer(base, p, tilde).cover()
        cases.append((h_group.cayley, phi.fibers(), base))
    cases.append((z6_id.cayley, [(h,) for h in range(z6_id.order)], z6_id))  # b-edges are loops
    rng = random.Random(11)
    loops = 0
    for aut, fibers, base in cases:
        all_edges = [(g, a) for g in range(base.order) for a in range(base.n_letters)]
        for density in (0.05, 0.2, 0.4, 0.7, 1.0):
            for _ in range(4):
                edges = {e for e in all_edges if rng.random() < density}
                pairs = [(h, aut.fwd[a][h]) for g, a in edges for h in fibers[g]]
                loops += sum(u == v for u, v in pairs)
                assert constel.dissolve._contract(aut, fibers, edges) == \
                    least_vertex_labels(aut.n, pairs)
    assert loops  # step[h] == h was contracted


def counted(calls, name, real):
    def wrapper(*args):
        calls[name] += 1
        return real(*args)
    return wrapper


def test_dissolve_all_contracts_once_per_bond(monkeypatch):
    tower = build_tower(TowerSpec(CyclicSpec(6, (1, 2)), ((2, True),)))
    calls = {"contract": 0, "lift": 0, "decide": 0}
    monkeypatch.setattr(constel.dissolve, "_contract",
                        counted(calls, "contract", constel.dissolve._contract))
    monkeypatch.setattr(constel.dissolve, "reachable_lift",
                        counted(calls, "lift", constel.dissolve.reachable_lift))
    monkeypatch.setattr(constel.dissolve, "_reach_reports",
                        counted(calls, "decide", constel.dissolve._reach_reports))
    assert len(dissolve_all(tower)) == 7440
    assert len(minimal_cut_sets(tower.levels[0].cayley)) == 28
    assert len(maximal_constellations(tower.levels[0])) == 2600
    # one decision per unordered split of the 10 bonds decided, one per
    # class of translates: mirror splits and translated bonds are derived
    assert calls == {"contract": 10, "lift": 0, "decide": 454}


def test_each_lift_builder_joins_only_the_edges_outside_its_core(monkeypatch):
    # the core's preimages are contracted; joining them as well would
    # change no lift but add a join per preimage edge: for a letter
    # constellation, one per preimage of Gamma - e
    tower = build_tower(TowerSpec(S3, ((2, True),)))
    base = tower.levels[0]
    h_group, phi = cover_of(tower)
    built = []
    real = constel.dissolve._lifts_over
    monkeypatch.setattr(constel.dissolve, "_lifts_over", lambda phi, fibers, core, others: (
        built.append((frozenset(core), frozenset(others))) or real(phi, fibers, core, others)))
    deltas = [delta_a(base, a, sign) for a in range(2) for sign in (1, -1)]
    pairs = maximal_constellations(base)[::40]
    clear_memos()
    for c in deltas + [pair.constellation(pair.g_choices[0]) for pair in pairs]:
        built.clear()
        dissolves_materialized(phi, c)
        shared = c.xi.edges & c.theta.edges
        assert built == [(shared, c.xi.edges ^ c.theta.edges) if shared
                         else (c.xi.edges, c.theta.edges)]
    full = full_subgraph(base.cayley).edges
    letter_edges = frozenset().union(*(c.theta.edges for c in deltas))
    built.clear()
    dissolve_all(tower, weak=True)
    assert built == [(full - letter_edges, letter_edges)]
    built.clear()
    dissolve_all(tower)
    cuts = minimal_cut_sets(base.cayley)
    _, derived = translation_classes(oracle_table(S3), [(cut.edges, cut.far) for cut in cuts])
    # one builder per decided bond; a translated bond builds none
    assert built == [(full - frozenset(cut.edges), frozenset(cut.edges))
                     for j, cut in enumerate(cuts) if j not in derived]
    assert 0 < len(built) < len(cuts)


def one_g_decider(tower, method: str):
    """decide(c, label) by the one-g wrapper of `method` for the top over
    the base, with the top lazy for the linear method."""
    down = tower.morphism(len(tower.levels) - 1, 0)
    if method == "linear":
        return partial(dissolves_linear, tower.top, down)
    return partial(dissolves_materialized, tower.top.cover()[1].compose(down))


def clear_memos():
    constel.constellations._split_subgraphs.cache_clear()
    constel.constellations._base_component.cache_clear()
    constel.dissolve._last_builder.cache_clear()
    constel.dissolve._last_pair_lifts.cache_clear()


def one_g_reports(decide, pairs, cold: bool = False):
    """astuple of every one-g report of the pairs, each pair's g choices
    in turn; `cold` clears every memo before each constellation."""
    out = []
    for i, pair in enumerate(pairs):
        for g in pair.g_choices:
            if cold:
                clear_memos()
            out.append(astuple(decide(pair.constellation(g), "max%d:g%d" % (i, g))))
    return out


def log_trees(monkeypatch):
    """(lifted edge set, forward_only) of each witness tree that dissolve
    starts from now on.  The list holds the edge sets, so no id is reused."""
    trees = []

    class Logged(BfsTree):
        def __init__(self, aut, root, edges=None, forward_only=False):
            trees.append((edges.edges, forward_only))
            super().__init__(aut, root, edges, forward_only)

    monkeypatch.setattr(constel.dissolve, "BfsTree", Logged)
    return trees


def test_one_g_deciders_contract_and_build_subgraphs_once_per_pair(monkeypatch):
    tower = build_tower(TowerSpec(CyclicSpec(6, (1, 2)), ((2, True),)))
    deciders = [one_g_decider(tower, method) for method in ("linear", "reachability")]
    pairs = maximal_constellations(tower.levels[0])
    assert (len(pairs), sum(len(pair.g_choices) for pair in pairs)) == (2600, 7440)
    calls = Counter()
    monkeypatch.setattr(constel.dissolve, "_contract",
                        counted(calls, "contract", constel.dissolve._contract))
    monkeypatch.setattr(Subgraph, "__post_init__",
                        counted(calls, "subgraph", Subgraph.__post_init__))
    trees = log_trees(monkeypatch)
    for decide, kinds in zip(deciders, ({False}, {True, False})):
        calls.clear()
        trees.clear()
        one_g_reports(decide, pairs)
        # each bond's core Gamma - C is contracted once, not per pair or g
        assert calls == {"contract": 28, "subgraph": 2 * 2600}
        # each pair builds at most one positive and one signed tree per side
        # (each side's edge set is its own object); linear reads signed trees only
        per_side = Counter((id(edges), forward_only) for edges, forward_only in trees)
        assert trees and max(per_side.values()) == 1
        assert {forward_only for _, forward_only in trees} <= kinds


def test_alternating_splits_of_a_bond_share_its_contraction(monkeypatch):
    # the builder memo holds one (phi, core, others): the splits of one
    # bond, taken in turn, reuse it under each morphism, and the other
    # morphism of the same tower, phi keyed by identity, never reads it
    tower = build_tower(TowerSpec(CyclicSpec(6, (1, 2)), ((2, True),)))
    by_bond = {}
    for i, pair in enumerate(maximal_constellations(tower.levels[0])):
        by_bond.setdefault(id(pair.cut), []).append(
            [(pair, g, "max%d:g%d" % (i, g)) for g in pair.g_choices])
    # two splits of each of two bonds, their g choices taken in turn
    asked = [x for splits in list(by_bond.values())[:2]
             for turn in zip_longest(*splits[:2]) for x in turn if x is not None]
    assert len({id(pair) for pair, _, _ in asked}) == 4
    calls = Counter()
    monkeypatch.setattr(constel.dissolve, "_contract",
                        counted(calls, "contract", constel.dissolve._contract))
    deciders = {method: one_g_decider(tower, method) for method in ("linear", "reachability")}
    cold = {}
    for method, decide in deciders.items():
        cold[method] = []
        for pair, g, label in asked:
            clear_memos()
            cold[method].append(astuple(decide(pair.constellation(g), label)))
        assert not all(r[1] for r in cold[method])  # the witnesses are compared too
        calls.clear()
        assert [astuple(decide(pair.constellation(g), label))
                for pair, g, label in asked] == cold[method]
        assert calls == {"contract": 2}  # once per bond
    calls.clear()
    pair, g, label = asked[0]
    for method in list(deciders) * 2:  # one bond, the morphisms in turn
        assert astuple(deciders[method](pair.constellation(g), label)) == cold[method][0]
    assert calls == {"contract": 4}


def test_one_g_deciders_decide_each_unordered_split_once(monkeypatch):
    # the mirror (Theta, g, Xi) of a split is served from the kept report
    # of (Xi, g, Theta): half of the 2600 pairs build lifts and half of
    # the 7440 g choices are decided
    tower = build_tower(TowerSpec(CyclicSpec(6, (1, 2)), ((2, True),)))
    pairs = maximal_constellations(tower.levels[0])
    calls = Counter()
    for name in ("_contract", "_Lifts", "_reach_reports", "_linear_reports"):
        monkeypatch.setattr(constel.dissolve, name,
                            counted(calls, name, getattr(constel.dissolve, name)))
    for method, decider in (("linear", "_linear_reports"), ("reachability", "_reach_reports")):
        decide = one_g_decider(tower, method)
        calls.clear()
        clear_memos()
        one_g_reports(decide, pairs)
        assert calls == {"_contract": 28, "_Lifts": 1300, decider: 3720}


def test_one_g_reports_are_kept_for_one_bond_only():
    # a kept report goes when its mirror takes it, and the memo keeps one
    # bond, so the pass holds a fraction of one bond's reports at a time
    tower = build_tower(TowerSpec(CyclicSpec(6, (1, 2)), ((2, True),)))
    pairs = maximal_constellations(tower.levels[0])
    for method in ("linear", "reachability"):
        decide = one_g_decider(tower, method)
        clear_memos()
        tracemalloc.start()
        try:
            for i, pair in enumerate(pairs):
                for g in pair.g_choices:
                    decide(pair.constellation(g), "max%d:g%d" % (i, g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (method, peak)
        hits = constel.dissolve._last_builder.cache_info().hits
        _, kept, _ = constel.dissolve._pair_entry(decide.args[-1], pairs[-1].xi, pairs[-1].theta)
        assert constel.dissolve._last_builder.cache_info().hits == hits + 1  # the loop's entry
        assert kept == {}


def test_linear_reports_read_no_word_back(monkeypatch):
    # a linear failure's vector is read off the signed trees, not retraced
    # from the witness words
    calls = Counter()
    for name in ("traversal_vector", "tree_word"):
        monkeypatch.setattr(constel.dissolve, name,
                            counted(calls, name, getattr(constel.dissolve, name)))
    assert {r.method for r in dissolve_all(build_tower(TowerSpec(S3, ((2, True), (2, True)))))} \
        == {"linear"}
    klein_3 = build_tower(TowerSpec(KleinSpec(((1, 0), (0, 1))), ((3, True),)))
    clear_memos()
    reports = one_g_reports(one_g_decider(klein_3, "linear"),
                            maximal_constellations(klein_3.levels[0]))
    assert {r[2] for r in reports} == {"linear"} and any(r[5] for r in reports)
    assert calls == {}
    one_g_reports(one_g_decider(klein_3, "reachability"), maximal_constellations(
        klein_3.levels[0])[:1])
    assert calls["tree_word"] > 0  # the counter sees dissolve's calls


def test_reachability_and_linear_share_the_signed_trees_of_a_pair(monkeypatch):
    # H = Z8 over G = Z4, and a ~3 layer over H: both deciders fail on this
    # constellation, and the reachability witness needs Xi^'s signed tree
    base, mid = materialize(CyclicSpec(4, (1, 3))), materialize(CyclicSpec(8, (1, 3)))
    phi = canonical_morphism(mid, base)
    layer = GaschuetzLayer(mid, 3, tilde=True)
    c = maximal_constellations(base)[43].constellation(1)
    clear_memos()
    trees = log_trees(monkeypatch)
    reach = dissolves_materialized(phi, c)
    linear = dissolves_linear(layer, phi, c)
    assert not reach.dissolved and not linear.dissolved
    side = {id(c.xi.edges): "xi", id(c.theta.edges): "theta"}
    assert [(side[id(edges)], forward_only) for edges, forward_only in trees] == [
        ("xi", True), ("xi", False), ("theta", True), ("theta", False)]
    clear_memos()  # cold, the linear report reads the same signed trees
    assert dissolves_linear(layer, phi, c) == linear


def test_witness_words_match_a_search_per_endpoint():
    # the trees run over a membership view of all of Gamma(H); the oracle
    # searches the lift's own edges
    base = s3()
    mat = GaschuetzLayer(base, 2, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    for pair in maximal_constellations(base)[::42]:
        lifted, _ = reachable_lift(pair.theta, mat, phi)
        lifts = constel.dissolve._pair_lifts(phi, pair.xi, pair.theta)
        for h in sorted(lifted.vertices):
            assert lifts.word(1, h, positive_first=True) == search_word(lifted, h)


def per_triple_reports(tower):
    """Reports from one decision per constellation through the one-g
    wrappers, as (label, dissolved, method, witness, endpoint, vector)."""
    small = tower.top.order() <= constel.dissolve.MATERIALIZE_BOUND
    decide = one_g_decider(tower, "reachability" if small else "linear")
    return one_g_reports(decide, maximal_constellations(tower.levels[0]))


def astuple(r: DissolveReport):
    return (r.label, r.dissolved, r.method, r.witness, r.endpoint, r.vector)


def translate_reports(spec, tower, reports):
    """`reports` (astuples of every maximal pair's g choices, in
    dissolve_all's order), each report of a bond j = kC_i that
    `translation_classes` derives replaced by the translate of the report
    of C_i on k^-1 of its split and g: the witness (u, v) becomes (tu, tv)
    freely reduced, t the BFS tree word from 1 to k in Gamma - C_j, and a
    linear endpoint m and vector key (x, a) move to lambda.m and
    (lambda.x, a), lambda the value of t in the level below the top."""
    base, m_group = tower.levels[0], tower.levels[-1]
    table = oracle_table(spec)
    cuts = minimal_cut_sets(base.cayley)
    _, derived = translation_classes(table, [(cut.edges, cut.far) for cut in cuts])
    rows = left_rows(table)
    firsts = [0]
    for cut in cuts:
        firsts.append(firsts[-1] + 2 ** len(cut.edges) - 2)
    by_label = {r[0]: r for r in reports}
    moved = {}
    for j, (i, k) in derived.items():
        back, rep = rows[[row[k] for row in rows].index(0)], cuts[i]  # back[x] = k^-1 x
        cut = cuts[j]
        t = tree_word(bfs_tree(base.cayley, 0, cut.full.edges - set(cut.edges)), k)
        lam = m_group.evaluate(t)
        for mask in range(1, 2 ** len(cut.edges) - 1):
            rep_mask = sum(1 << rep.edges.index((back[u], a))
                           for b, (u, a) in enumerate(cut.edges) if mask >> b & 1)
            for g in cut.far:
                label = "max%d:g%d" % (firsts[j] + mask - 1, g)
                _, dissolved, method, witness, endpoint, vector = by_label[
                    "max%d:g%d" % (firsts[i] + rep_mask - 1, back[g])]
                if witness is not None:
                    witness = tuple(Word(tuple(O.free_reduce(t.letters + x.letters)))
                                    for x in witness)
                if endpoint is not None:
                    endpoint = m_group.mul_idx(lam, endpoint)
                    vector = {(m_group.mul_idx(lam, x), a): c for (x, a), c in vector.items()}
                moved[label] = (label, dissolved, method, witness, endpoint, vector)
    return [moved.get(r[0], r) for r in reports]


@pytest.mark.parametrize("spec, layers, method", [
    (CyclicSpec(6, (1, 2)), ((2, True),), "linear"),
    (CyclicSpec(6, (1, 2)), ((2, True),), "reachability"),
    (KleinSpec(((1, 0), (0, 1))), ((3, True),), "linear"),
    (S3, ((2, False),), "linear"),
])
def test_memos_never_change_a_one_g_report(spec, layers, method):
    tower = build_tower(TowerSpec(spec, layers))
    decide = one_g_decider(tower, method)
    pairs = maximal_constellations(tower.levels[0])
    reports = one_g_reports(decide, pairs)
    assert reports == one_g_reports(decide, pairs, cold=True)
    assert {r[2] for r in reports} == {method}
    assert all(r[1] for r in reports) == (not layers[0][1])  # plain layers dissolve all


def test_interleaved_pairs_give_the_same_reports():
    tower = build_tower(TowerSpec(CyclicSpec(6, (1, 2)), ((2, True),)))
    pairs = [pair for pair in maximal_constellations(tower.levels[0])
             if len(pair.g_choices) > 2]
    a, b = pairs[0], pairs[-1]
    assert a.cut is not b.cut
    for method in ("linear", "reachability"):
        decide = one_g_decider(tower, method)
        alone = one_g_reports(decide, [a, b])
        mixed = []
        for ga, gb in zip_longest(a.g_choices, b.g_choices):
            for i, (pair, g) in enumerate(((a, ga), (b, gb))):
                if g is not None:
                    mixed.append(astuple(decide(pair.constellation(g), "max%d:g%d" % (i, g))))
        assert sorted(mixed, key=repr) == sorted(alone, key=repr)
        assert not all(r[1] for r in alone)


def test_one_pair_decided_against_layers_at_two_primes():
    # one phi, so the layers share the last pair's lifts and are told
    # apart by the span key (p, tilde)
    base = klein()
    phi = identity_morphism(base)
    layers = [GaschuetzLayer(base, 2, True), GaschuetzLayer(base, 3, True),
              GaschuetzLayer(base, 2, False)]
    pairs = maximal_constellations(base)

    def reports(cold):
        out = []
        for pair in pairs:
            for g in pair.g_choices:
                for layer in layers:
                    if cold:
                        clear_memos()
                    out.append(astuple(dissolves_linear(layer, phi, pair.constellation(g))))
        return out

    clear_memos()
    warm = reports(cold=False)
    # one lift per unordered split: each mirror is served from the kept reports
    assert constel.dissolve._last_pair_lifts.cache_info().misses == len(pairs) // 2 == 42
    assert warm == reports(cold=True)
    verdicts = [[r[1] for r in warm[i::3]] for i in range(3)]
    assert verdicts[0] != verdicts[1] and all(verdicts[2])


def test_kept_reports_are_told_apart_by_decider():
    # one phi serves both deciders, so they share each builder entry and
    # its kept reports, and only the decider in the key tells them apart
    base = s3()
    phi = identity_morphism(base)
    deciders = (partial(dissolves_materialized, phi),
                partial(dissolves_linear, GaschuetzLayer(base, 2, True), phi))
    pairs = maximal_constellations(base)

    def reports(cold):
        out = []
        for i, pair in enumerate(pairs):
            for g in pair.g_choices:
                for decide in deciders:
                    if cold:
                        clear_memos()
                    out.append(astuple(decide(pair.constellation(g), "max%d:g%d" % (i, g))))
        return out

    clear_memos()
    warm = reports(cold=False)
    assert constel.dissolve._last_pair_lifts.cache_info().misses == len(pairs) // 2
    assert warm == reports(cold=True)
    # H = G never dissolves; the ~2 layer dissolves some splits
    assert not any(r[1] for r in warm[::2]) and any(r[1] for r in warm[1::2])


def test_dissolve_all_holds_no_lifts():
    # the weak path's 24576-element lifts and contraction would otherwise
    # outlive the call
    memos = (constel.dissolve._last_pair_lifts, constel.dissolve._last_builder)
    clear_memos()
    dissolve_all(build_tower(TowerSpec(CyclicSpec(12, (1, 1)), ((2, True),))), weak=True)
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]
    dissolve_all(build_tower(TowerSpec(CyclicSpec(6, (1, 2)), ((2, True),))))
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]


def test_witness_words_share_their_signed_letters():
    # tree_word takes each (letter, sign) from one table: the words of the
    # 7440 reports of Z6 ~2 hold no pair per letter
    tower = build_tower(TowerSpec(CyclicSpec(6, (1, 2)), ((2, True),)))
    reports = dissolve_all(tower)
    words = [u for r in reports if r.witness for u in r.witness]
    assert len(reports) == 7440 and sum(map(len, words)) > 2 * tower.levels[0].n_letters
    assert len({id(pair) for u in words for pair in u}) <= 2 * tower.levels[0].n_letters


def test_reports_and_words_carry_no_instance_dict():
    # one of each is held per report; slots keep them small
    report = DissolveReport("max0:g1", False, "reachability", witness=(w("ab"), w("bA")))
    assert not hasattr(report, "__dict__") and not hasattr(report.witness[0], "__dict__")


@pytest.mark.parametrize("spec, layers, bound, method", [
    (S3, ((2, True),), 100000, "reachability"),
    (KleinSpec(((1, 0), (0, 1))), ((3, True),), 100000, "reachability"),
    (S3, ((2, True),), 1, "linear"),
    (KleinSpec(((1, 0), (0, 1))), ((3, True),), 1, "linear"),  # odd p: mirrors negate
])
def test_pair_deciders_match_per_constellation_decisions(monkeypatch, spec, layers, bound,
                                                         method):
    tower = build_tower(TowerSpec(spec, layers))
    verdicts = [(r.label, r.dissolved) for r in dissolve_all(tower)]
    monkeypatch.setattr(constel.dissolve, "MATERIALIZE_BOUND", bound)
    reports = [astuple(r) for r in dissolve_all(tower)]
    # exact on the decided bonds, and the translate of the representative
    # on every other bond
    assert reports == translate_reports(spec, tower, per_triple_reports(tower))
    assert {r[2] for r in reports} == {method}
    assert not all(r[1] for r in reports) and any(r[1] for r in reports)
    assert [r[:2] for r in reports] == verdicts  # the same verdicts by either method


@pytest.mark.parametrize("bound", [100000, 1])
@pytest.mark.parametrize("spec, layers", [
    (S3, ((2, True),)),  # involutions: (0, a) and (a, a) are both letter edges
    (PermSpec(3, (from_cycles(3, [(0, 1)]),) * 2), ((2, True),)),  # two letters, one image
    (KleinSpec(((1, 0), (0, 1))), ((3, True),)),
    (CyclicSpec(5, (1, 2, 3)), ((2, True),)),
    (S3, ((2, True), (2, True))),
    (S3, ((2, False),)),  # dissolved: Xi^ misses the far end of e's lift at 1
])
def test_weak_dissolve_matches_per_letter_decisions(monkeypatch, spec, layers, bound):
    tower = build_tower(TowerSpec(spec, layers))
    base = tower.levels[0]
    monkeypatch.setattr(constel.dissolve, "MATERIALIZE_BOUND", bound)
    method = "reachability" if tower.top.order() <= bound else "linear"
    decide = one_g_decider(tower, method)
    want = [astuple(decide(delta_a(base, a, sign), constel.dissolve._letter_label(a, sign)))
            for a in range(base.n_letters) for sign in (1, -1)]
    reports = [astuple(r) for r in dissolve_all(tower, weak=True)]
    assert reports == want
    assert {r[2] for r in want} == {method}
    # both deciders lift a letter by the same rule, so the verdicts are
    # also checked against the oracle's elimination over O.delta
    o_tower = O.Tower(oracle_table(spec), layers)
    verdicts = []
    for a in range(base.n_letters):
        for sign in (1, -1):
            xi, g, theta = O.delta(o_tower.levels[0], a, sign)
            verdicts.append(O.dissolved_by_pair(o_tower, xi, theta, (g,))[g])
    assert [r[1] for r in reports] == verdicts


def elimination_span(layer, phi, xi, theta):
    """(span, lifts): the span mod p of the cycle spaces of both lifts
    and, for tilde layers, the constants sum_h e_(h,a), with the
    (lift, fibers) of Xi and of Theta.  Two paths in the lifts from 1 to
    one m are equal at the top exactly when their vector difference lies
    in it."""
    m_group, p = layer.base, layer.p
    lifts = [reachable_lift(sub, m_group, phi) for sub in (xi, theta)]
    span = GFpSpan(p)
    for lifted, _ in lifts:
        for row in cycle_space_rows(lifted, p):
            span.add(row)
    if layer.tilde:
        for a in range(m_group.n_letters):
            span.add({(h, a): 1 for h in range(m_group.order)})
    return span, lifts


def elimination_evidence(layer, phi, xi, theta, g_choices):
    """(endpoint, vector) of a failing report per g, by Gaussian
    elimination: the least m over g in both lifts whose signed BFS-tree
    vector difference lies in `elimination_span`; (None, None) when no m
    does.  O.dissolved_by_pair gives verdicts only, not this evidence."""
    m_group, p = layer.base, layer.p
    span, ((xi_hat, fib_xi), (th_hat, fib_th)) = elimination_span(layer, phi, xi, theta)
    trees = [bfs_tree(m_group.cayley, 0, lift.edges) for lift in (xi_hat, th_hat)]

    def vector(m):
        ux, ut = (traversal_vector(m_group.cayley, tree_word(tree, m)) for tree in trees)
        diff = {e: (ux.get(e, 0) - ut.get(e, 0)) % p for e in set(ux) | set(ut)}
        return {e: c for e, c in diff.items() if c}

    shared = (sorted(fib_xi.get(g, frozenset()) & fib_th.get(g, frozenset())) for g in g_choices)
    return [next(((m, vector(m)) for m in ms if span.contains(vector(m))), (None, None))
            for ms in shared]


D4 = PermSpec(4, (from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 2)])))


@pytest.mark.parametrize("spec, layers, bound", [
    (CyclicSpec(6, (1, 2)), ((2, True),), 100000),
    (S3, ((2, True),), 100000),
    (KleinSpec(((1, 0), (0, 1))), ((3, True),), 100000),
    (D4, ((2, True),), 100000),
    (CyclicSpec(12, (1, 1)), ((3, True),), 1),
    (CyclicSpec(10, (1, 1)), ((3, True),), 1),
])
def test_translated_reports_check_against_the_oracle(monkeypatch, spec, layers, bound):
    # every report, derived or decided, against checks that share nothing
    # with the decider or the translation: the oracle's verdict per pair,
    # each witness walked inside Xi and Theta to g and compared at the
    # top on the oracle's tables, each linear endpoint over g with its
    # vector in the elimination span; and a decided bond's reports are
    # exactly the one-g API's
    monkeypatch.setattr(constel.dissolve, "MATERIALIZE_BOUND", bound)
    tower = build_tower(TowerSpec(spec, layers))
    base = tower.levels[0]
    method = "reachability" if tower.top.order() <= bound else "linear"
    phi = tower.morphism(len(tower.levels) - 1, 0)
    table = oracle_table(spec)
    o_tower = O.Tower(table, layers)
    cuts = minimal_cut_sets(base.cayley)
    _, derived = translation_classes(table, [(cut.edges, cut.far) for cut in cuts])
    reports = iter(dissolve_all(tower))
    decide = one_g_decider(tower, method)
    decided, bond, prev = [], -1, None
    for i, pair in enumerate(maximal_constellations(base)):
        if pair.cut is not prev:
            bond, prev = bond + 1, pair.cut
        verdicts = O.dissolved_by_pair(o_tower, pair.xi.edges, pair.theta.edges, pair.g_choices)
        span = None
        for g in pair.g_choices:
            r = next(reports)
            assert (r.label, r.dissolved, r.method) == ("max%d:g%d" % (i, g), verdicts[g], method)
            if bond not in derived:
                decided.append((astuple(r), astuple(decide(pair.constellation(g), r.label))))
            if r.witness is not None:
                u, v = (x.letters for x in r.witness)
                assert O.walk_inside(table, pair.xi.edges, u) == g, r.label
                assert O.walk_inside(table, pair.theta.edges, v) == g, r.label
                assert o_tower.top.evaluate(u) == o_tower.top.evaluate(v), r.label
            if r.endpoint is not None:
                assert o_tower.proj[-1][r.endpoint] == g, r.label
                span = span or elimination_span(tower.top, phi, pair.xi, pair.theta)[0]
                assert r.vector and span.contains(r.vector), r.label
            assert r.dissolved or (r.witness is None) == (method == "linear")
    assert next(reports, None) is None
    assert 0 < len(derived) < len(cuts)
    got, want = zip(*decided)
    assert got == want


ONE_LAYER_BASES = [CyclicSpec(2, (1, 1)), CyclicSpec(3, (1, 1)), CyclicSpec(4, (1, 1)),
                   KleinSpec(((1, 0), (0, 1))), S3]


@pytest.mark.parametrize("spec, layers", [
    (base, ((p, tilde),)) for base in ONE_LAYER_BASES for p in (2, 3, 5)
    for tilde in (True, False)] + [
    (S3, ((2, True), (2, True))),
    (KleinSpec(((1, 0), (0, 1))), ((2, True), (3, True))),
    (CyclicSpec(2, (1, 1)), ((3, True), (2, True))),
])
def test_component_test_matches_elimination(spec, layers):
    tower = build_tower(TowerSpec(spec, layers))
    base = tower.levels[0]
    phi = tower.morphism(len(tower.levels) - 1, 0)
    o_tower = O.Tower(oracle_table(spec), layers)
    assert o_tower.proj[-1] == [phi(h) for h in range(tower.levels[-1].order)]
    pairs = [(pair.xi, pair.theta, pair.g_choices,
              ["max%d:g%d" % (i, g) for g in pair.g_choices])
             for i, pair in enumerate(maximal_constellations(base))]
    pairs += [(c.xi, c.theta, (c.g,), ("delta",))
              for c in (delta_a(base, a, sign) for a in range(2) for sign in (1, -1))]
    # not a constellation: every g lies in the base component of the
    # intersection, so the lifts meet in the component of 1
    full = full_subgraph(base.cayley)
    pairs.append((full, full.minus_edges([(0, 0)]), tuple(range(1, base.order)),
                  ["full:g%d" % g for g in range(1, base.order)]))
    reports = []
    for xi, theta, g_choices, labels in pairs:
        lifts = constel.dissolve._pair_lifts(phi, xi, theta)
        got = [astuple(r) for r in constel.dissolve._linear_reports(tower.top, lifts,
                                                                    g_choices, labels)]
        verdicts = O.dissolved_by_pair(o_tower, xi.edges, theta.edges, g_choices)
        assert [r[:4] for r in got] == [(label, verdicts[g], "linear", None)
                                        for g, label in zip(g_choices, labels)]
        assert [r[4:] for r in got] == elimination_evidence(tower.top, phi, xi, theta, g_choices)
        reports += got
    assert not any(r[1] for r in reports if r[0].startswith("full:"))
    constellations = [r for r in reports if not r[0].startswith("full:")]
    if layers[-1][1]:
        assert len(layers) > 1 or not all(r[1] for r in constellations)
    else:  # plain top layers dissolve every constellation
        assert all(r[1] for r in constellations)


def test_constant_boundary_outside_the_intersection_raises():
    base = s3()
    layer = GaschuetzLayer(base, 2, tilde=True)
    c = delta_a(base, 0)  # every a-edge lies in Xi or Theta
    assert not dissolves_linear(layer, identity_morphism(base), c).dissolved
    lifts = constel.dissolve._pair_lifts(identity_morphism(base), c.xi, c.theta)
    assert lifts.both == {0, c.g}  # the boundary of Xi^'s a-part is [1] - [g]
    lifts.both = {c.g}  # an intersection that misses 1 but still meets the fiber of g
    for _ in range(2):  # a span that raised is not kept
        with pytest.raises(VerificationError, match="leaves the intersection"):
            constel.dissolve._linear_reports(layer, lifts, (c.g,), ("",))


def test_failed_witness_check_raises(monkeypatch):
    base = z2()
    mat = GaschuetzLayer(base, 2, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    monkeypatch.setattr(constel.dissolve, "_path_stays", lambda sub, word: False)
    with pytest.raises(VerificationError):
        dissolves_materialized(phi, delta_a(base, 0))


def test_a_translated_report_that_fails_its_check_raises(monkeypatch):
    # a derived witness is walked again before it is kept, and a derived
    # linear endpoint must lie over its g: here t is lost, as if the
    # translated words and endpoint were read from 1 instead of from k
    z6 = build_tower(TowerSpec(CyclicSpec(6, (1, 2)), ((2, True),)))
    with monkeypatch.context() as patch:
        patch.setattr(constel.dissolve, "_lifted_end", lambda phi, edges, w: None)
        with pytest.raises(VerificationError, match=r"translated witness .* not re-verify"):
            dissolve_all(z6)
    monkeypatch.setattr(constel.dissolve, "MATERIALIZE_BOUND", 1)
    monkeypatch.setattr(constel.dissolve, "tree_word", lambda tree, v: Word())
    with pytest.raises(VerificationError, match=r"translated endpoint \d+ does not lie over"):
        dissolve_all(z6)


def test_a_witness_endpoint_missing_from_its_tree_raises():
    # the deciders ask only for endpoints in both lifts, so a tree that
    # never reaches one is a fault, not a dissolved report
    base, mid = materialize(CyclicSpec(4, (1, 3))), materialize(CyclicSpec(8, (1, 3)))
    phi = canonical_morphism(mid, base)
    c = maximal_constellations(base)[43].constellation(1)
    deciders = (constel.dissolve._reach_reports,
                partial(constel.dissolve._linear_reports, GaschuetzLayer(mid, 3, tilde=True)))
    for decide in deciders:
        lifts = constel.dissolve._pair_lifts(phi, c.xi, c.theta)
        assert not decide(lifts, (c.g,), ("",))[0].dissolved
        lifts = constel.dissolve._pair_lifts(phi, c.xi, c.theta)
        lifts.trees = {(side, forward_only): BfsTree(mid.cayley, 0, frozenset(), forward_only)
                       for side in (0, 1) for forward_only in (True, False)}
        with pytest.raises(VerificationError, match=r"^vertex \d+ is not reached in its lift$"):
            decide(lifts, (c.g,), ("",))


def test_path_stays_rejects_each_way_out():
    # the parent is partial: its one edge is 0 -a-> 1, and 0 is its base
    parent = InverseAutomaton(2, 2, [(0, 0, 1)], 0)
    a, a_inv, b = Word(((0, 1),)), Word(((0, -1),)), Word(((1, 1),))
    stays = constel.dissolve._path_stays
    edge = Subgraph(parent, frozenset({(0, 0)}), frozenset({0, 1}))
    assert stays(edge, a) and stays(edge, Word(((0, 1), (0, -1))))
    assert not stays(Subgraph(parent, frozenset(), frozenset({1})), Word(()))  # base outside
    assert not stays(edge, b) and not stays(edge, a_inv)  # no such step in the parent
    assert not stays(Subgraph(parent, frozenset(), frozenset({0, 1})), a)  # edge outside


def test_path_stays_and_trace_against_oracle():
    # O.walk_inside ends a word's path from 1, or refuses it off the edges;
    # half the words are walks inside the subgraph, half are any words
    rng = random.Random(5)
    for spec in (CyclicSpec(2, (1, 1)), PermSpec(3, S3_GENS), CyclicSpec(6, (1, 2))):
        group, table = materialize(spec), oracle_table(spec)
        subs = [sub for pair in maximal_constellations(group)[::5] for sub in (pair.xi, pair.theta)]
        subs += [sub for a in range(2) for c in (delta_a(group, a), delta_a(group, a, -1))
                 for sub in (c.xi, c.theta)]
        for sub in subs:
            for inside in (True, False) * 10:
                pairs, v = [], 0
                for _ in range(rng.randrange(9)):
                    steps = ([(letter, sign) for _, letter, sign, _ in sub.neighbors(v)]
                             if inside else [(a, sign) for a in range(2) for sign in (1, -1)])
                    if not steps:
                        break
                    pairs.append(rng.choice(steps))
                    v = group.cayley.step(v, *pairs[-1])
                u = Word(tuple(pairs))
                want = O.walk_inside(table, sub.edges, u.letters)
                assert want is not None or not inside
                assert want == (group.cayley.trace(0, u)
                                if constel.dissolve._path_stays(sub, u) else None)
                assert want == constel.dissolve._lifted_end(identity_morphism(group), sub.edges, u)


def test_reachable_lift_fibers_match_brute_force():
    base = z2()
    layer = GaschuetzLayer(base, 2, tilde=True)
    mat = layer.materialize()
    phi = canonical_morphism(mat, base)
    da = delta_a(base, 0)
    for sub in (da.xi, da.theta):
        lifted, fibers = reachable_lift(sub, mat, phi)
        brute = brute_endpoints(sub, mat, phi, 12)
        assert {g: frozenset(s) for g, s in brute.items()} == fibers


def test_golden_witness_for_tilde_z2():
    base = z2()
    mat = GaschuetzLayer(base, 2, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    rep = dissolves_materialized(phi, delta_a(base, 0))
    assert not rep.dissolved
    assert rep.witness is not None
    u, v = rep.witness
    assert (str_word(u), str_word(v)) == ("bab", "a")
    # independent re-verification: same H-element, paths inside the parts
    assert mat.evaluate(u) == mat.evaluate(v)
    assert base.evaluate(u) == base.evaluate(v) == 1
    da = delta_a(base, 0)
    assert all(e in da.theta.edges for e in
               {((0, 0) if s > 0 else (1, 0)) for l, s in v})


def test_plain_layer_dissolves_the_letter_constellations():
    base = z2()
    mat = GaschuetzLayer(base, 2, tilde=False).materialize()
    phi = canonical_morphism(mat, base)
    for letter in range(2):
        for sign in (1, -1):
            rep = dissolves_materialized(phi, delta_a(base, letter, sign))
            assert rep.dissolved, (letter, sign)


AGREEMENT_COUNTS = {
    # (base, p, tilde) -> (dissolved full, total full)
    ("z2", 2, False): (14, 14), ("z2", 2, True): (2, 14),
    ("z2", 3, False): (14, 14), ("z2", 3, True): (2, 14),
    ("klein", 2, False): (140, 140), ("klein", 2, True): (36, 140),
    ("klein", 3, False): (140, 140), ("klein", 3, True): (28, 140),
    ("z3", 2, False): (56, 56), ("z3", 2, True): (8, 56),
    ("z3", 3, False): (56, 56), ("z3", 3, True): (8, 56),
}


def test_linear_method_agrees_with_reachability():
    groups = {"z2": z2(), "klein": klein(), "z3": z3()}
    for name, base in groups.items():
        targets = [(i, pair.constellation(g))
                   for i, pair in enumerate(maximal_constellations(base))
                   for g in pair.g_choices]
        for p in (2, 3):
            for tilde in (False, True):
                layer = GaschuetzLayer(base, p, tilde)
                mat = layer.materialize()
                phi = canonical_morphism(mat, base)
                ident = identity_morphism(base)
                dissolved = 0
                for i, c in targets:
                    slow = dissolves_materialized(phi, c)
                    fast = dissolves_linear(layer, ident, c)
                    assert slow.dissolved == fast.dissolved, (name, p, tilde, i)
                    dissolved += slow.dissolved
                assert (dissolved, len(targets)) == AGREEMENT_COUNTS[(name, p, tilde)]


def test_inputs_off_the_target_graph_are_refused():
    base = z2()
    h_group, phi = GaschuetzLayer(base, 2, tilde=True).cover()
    off = "must lie in the Cayley graph of the morphism's target"
    with pytest.raises(ValueError, match=off):
        dissolves_materialized(phi, delta_a(klein(), 0))
    with pytest.raises(ValueError, match=off):
        dissolves_linear(GaschuetzLayer(base, 2, True), identity_morphism(base),
                         delta_a(klein(), 0))
    # an equal copy of the base is still another graph
    copy = delta_a(z2(), 0)
    with pytest.raises(ValueError, match=off):
        reachable_lift(copy.xi, h_group, phi)
    with pytest.raises(ValueError, match=off):
        detecting_edges_check(phi, copy, w("b"))
    assert detecting_edges_check(phi, delta_a(base, 0), w("b"))


def test_inputs_off_the_morphism_source_are_refused():
    base = z2()
    layer = GaschuetzLayer(base, 2, tilde=True)
    h_group, phi = layer.cover()
    other, _ = layer.cover()
    assert other is not h_group  # equal to phi's source, but another object
    c = delta_a(base, 0)
    with pytest.raises(ValueError, match="must start at the given group"):
        reachable_lift(c.xi, other, phi)
    with pytest.raises(ValueError, match="must start at the layer's base group"):
        dissolves_linear(layer, phi, c)
    assert not dissolves_materialized(phi, c).dissolved
    assert 0 in reachable_lift(c.xi, h_group, phi)[0].vertices


def test_linear_method_requires_matching_base():
    layer = GaschuetzLayer(z2(), 2, True)
    other = z2()
    with pytest.raises(ValueError):
        dissolves_linear(layer, identity_morphism(other), delta_a(other, 0))


def test_dissolved_verdicts_are_sound():
    # brute-force word enumeration cannot find a collision the decider missed
    base = klein()
    mat = GaschuetzLayer(base, 2, tilde=False).materialize()
    phi = canonical_morphism(mat, base)
    pairs = maximal_constellations(base)
    for pair in pairs[:3]:
        c = pair.constellation(pair.g_choices[0])
        assert dissolves_materialized(phi, c).dissolved
        bx = brute_endpoints(c.xi, mat, phi, 8)
        bt = brute_endpoints(c.theta, mat, phi, 8)
        assert not (bx.get(c.g, set()) & bt.get(c.g, set()))


def test_dissolve_all_selects_method_by_order():
    small = build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ((2, True),)))
    reports = dissolve_all(small, weak=True)
    assert [r.label for r in reports] == ["delta:a", "delta:a^-1",
                                          "delta:b", "delta:b^-1"]
    assert all(r.method == "reachability" for r in reports)
    assert not any(r.dissolved for r in reports)
    assert not all(r.dissolved for r in dissolve_all(small, weak=True))

    tall = build_tower(TowerSpec(CyclicSpec(2, (1, 1)),
                                 ((2, True), (2, True), (2, True))))
    assert tall.top is not None and tall.top.order() > 100000
    reports = dissolve_all(tall, weak=True)
    assert all(r.method == "linear" for r in reports)
    assert all(r.dissolved for r in reports)
    assert all(r.dissolved for r in dissolve_all(tall, weak=True))

    flat = build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ()))
    assert all(r.method == "reachability" for r in dissolve_all(flat, weak=True))


def test_plain_one_layer_tower_is_a_dissolver():
    tower = build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ((2, False),)))
    assert all(r.dissolved for r in dissolve_all(tower))
    assert all(r.dissolved for r in dissolve_all(tower, weak=True))


def test_disconnection_equivalence_agrees_and_varies():
    base = z2()
    # Klein over Z/2 never separates; the plain layer always does
    neg = canonical_morphism(GaschuetzLayer(base, 2, True).materialize(), base)
    pos = canonical_morphism(GaschuetzLayer(base, 2, False).materialize(), base)
    for letter in range(2):
        for sign in (1, -1):
            four = disconnection_equivalence(neg, letter, sign)
            assert len(set(four)) == 1 and not four[0]
            four = disconnection_equivalence(pos, letter, sign)
            assert len(set(four)) == 1 and four[0]


def test_disconnection_equivalence_tilde_z2_p3():
    base = z2()
    phi = canonical_morphism(GaschuetzLayer(base, 3, True).materialize(), base)
    for letter in range(2):
        for sign in (1, -1):
            four = disconnection_equivalence(phi, letter, sign)
            assert len(set(four)) == 1


def test_key_lemma_reports():
    assert key_lemma_report(z2(), 2, frozenset({0, 1})) == 8
    assert key_lemma_report(z2(), 3, frozenset({0, 1})) == 12
    base = klein()
    for gen in range(1, 4):
        assert key_lemma_report(base, 2, subgroup_closure(base, [gen])) == 64


def test_key_lemma_rejects_trivial_subgroup():
    with pytest.raises(ValueError):
        key_lemma_report(z2(), 2, frozenset({0}))
    # the proof needs a prime modulus, checked as a layer checks it
    with pytest.raises(ValueError, match="^modulus 4 is not prime$"):
        key_lemma_report(z2(), 4, frozenset({0, 1}))


def test_lift_off_the_base_and_key_lemma_off_a_subgroup_are_refused():
    base = z2()
    h_group, phi = GaschuetzLayer(base, 2, tilde=True).cover()
    with pytest.raises(ValueError, match="^the base vertex must lie in the subgraph$"):
        reachable_lift(Subgraph(base.cayley, frozenset(), frozenset({1})), h_group, phi)
    with pytest.raises(ValueError, match="^K is not a subgroup$"):
        key_lemma_report(z3(), 2, frozenset({0, 1}))


def edge_orbits(h_group, l_set):
    """Orbits of the positive edges of Gamma(H) under left
    multiplication by L."""
    orbits = {}
    for h, letter, _ in h_group.cayley.pos_edges():
        orbit = frozenset((h_group.mul_idx(x, h), letter) for x in l_set)
        orbits[orbit] = None
    return list(orbits)


@pytest.mark.parametrize("spec, p", [(KleinSpec(((1, 0), (0, 1))), 2), (S3, 2),
                                     (CyclicSpec(4, (1, 1)), 3)])
def test_key_lemma_edge_gives_one_verdict_per_orbit(spec, p):
    base = materialize(spec)
    mat = GaschuetzLayer(base, p, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    k_set = subgroup_closure(base, [base.images[0]])
    for l_set, verdict in ((frozenset(phi.kernel()), False),
                           (frozenset(h for h in range(mat.order) if phi(h) in k_set), True)):
        orbits = edge_orbits(mat, l_set)
        assert sum(map(len, orbits)) == mat.cayley.n_pos_edges
        for orbit in orbits:
            assert {key_lemma_edge(mat, l_set, edge) for edge in orbit} == {verdict}


def per_edge_key_lemma(g_group, p, k_set):
    """Key-lemma oracle: one call of key_lemma_edge per edge; returns
    (n_edges, failures)."""
    mat = GaschuetzLayer(g_group, p, tilde=True).materialize()
    phi = canonical_morphism(mat, g_group)
    l_set = frozenset(h for h in range(mat.order) if phi(h) in k_set)
    failures = tuple((h, a) for h, a, _ in mat.cayley.pos_edges()
                     if not constel.dissolve.key_lemma_edge(mat, l_set, (h, a)))
    return mat.cayley.n_pos_edges, failures


def enumerated_key_lemma(g_group, p, k_set):
    """Key-lemma oracle by enumeration: materialize the tilde layer H and
    search one edge per orbit.  Left multiplication by L permutes Gamma(H)
    and fixes the removed set, so the orbits are the (right coset L.h,
    letter) pairs, and L.h is the preimage of the coset K.phi(h).
    Returns (n_edges, failures)."""
    h_group, phi = GaschuetzLayer(g_group, p, tilde=True).cover()
    l_set = frozenset(h for h in range(h_group.order) if phi(h) in k_set)
    coset, _ = coset_walk(g_group, k_set)  # element of G -> index of its coset K.g
    verdicts: dict[tuple[int, int], bool] = {}
    failures = []
    for h, letter, _ in h_group.cayley.pos_edges():
        orbit = (coset[phi(h)], letter)
        if orbit not in verdicts:
            verdicts[orbit] = constel.dissolve.key_lemma_edge(h_group, l_set, (h, letter))
        if not verdicts[orbit]:
            failures.append((h, letter))
    return h_group.cayley.n_pos_edges, tuple(failures)


def test_key_lemma_report_matches_the_per_edge_loop(monkeypatch):
    cases = [(z2(), 3, frozenset({0, 1})), (klein(), 2, subgroup_closure(klein(), [1])),
             (s3(), 2, subgroup_closure(s3(), [3]))]
    real = constel.dissolve.key_lemma_edge
    calls = []
    monkeypatch.setattr(constel.dissolve, "key_lemma_edge",
                        lambda *args: calls.append(args[2]) or real(*args))
    for group, p, k_set in cases:
        calls.clear()
        assert (key_lemma_report(group, p, k_set), ()) == enumerated_key_lemma(group, p, k_set)
        # the enumeration searches one edge per (right coset L.g, letter)
        assert len(calls) == group.order // len(k_set) * group.n_letters
        assert (key_lemma_report(group, p, k_set), ()) == per_edge_key_lemma(group, p, k_set)


# bases of the key-lemma check: cyclic, elementary abelian and nonabelian
KEY_LEMMA_BASES = [CyclicSpec(2, (1, 1)), CyclicSpec(3, (1, 1)), CyclicSpec(4, (1, 3)),
                   CyclicSpec(6, (1, 2)), KleinSpec(((1, 0), (0, 1))), S3,
                   PermSpec(4, (from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 2)])))]


def nontrivial_subgroups(group):
    """The nontrivial subgroups generated by one or two elements."""
    return sorted({subgroup_closure(group, [x, y]) for x in range(group.order)
                   for y in range(x, group.order)} - {frozenset({0})}, key=sorted)


def test_key_lemma_report_agrees_with_the_enumeration():
    # acceptance criterion 10's cases, then every subgroup of each base at
    # p = 2, and at p = 3 below order 8; the proof answers without a layer,
    # the oracle searches one
    z2_, klein_ = z2(), klein()
    cases = [(z2_, p, frozenset(range(z2_.order))) for p in (2, 3)]
    cases += [(klein_, 2, frozenset({0, x})) for x in range(1, klein_.order)]
    for spec in KEY_LEMMA_BASES:
        group = materialize(spec)
        cases += [(group, p, k_set) for p in ((2, 3) if group.order < 8 else (2,))
                  for k_set in nontrivial_subgroups(group)]
    # D4 at p = 3: a 17,496-element layer
    cases.append((group, 3, subgroup_closure(group, [group.images[1]])))
    for group, p, k_set in cases:
        assert ((key_lemma_report(group, p, k_set), ())
                == enumerated_key_lemma(group, p, k_set)), (group, p, k_set)


def test_key_lemma_single_edge():
    base = z2()
    mat = GaschuetzLayer(base, 2, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    l_set = frozenset(range(mat.order))  # preimage of the whole base group
    assert key_lemma_edge(mat, l_set, (0, 0))
    # the kernel alone is the preimage of the trivial subgroup: too small
    assert not key_lemma_edge(mat, frozenset(phi.kernel()), (0, 0))


def test_counting_lifts():
    base = z2()
    mat = GaschuetzLayer(base, 2, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    rng = random.Random(61)
    for _ in range(100):
        u = Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                       for _ in range(rng.randrange(10))))
        assert counting_lifts_check(phi, u)


def test_detecting_edges():
    base = z2()
    mat = GaschuetzLayer(base, 2, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    da = delta_a(base, 0)
    assert detecting_edges_check(phi, da, w("b"))
    assert detecting_edges_check(phi, da, w("bbb"))
    with pytest.raises(ValueError):
        detecting_edges_check(phi, da, w("aa"))  # lands on the identity
    with pytest.raises(ValueError):
        detecting_edges_check(phi, da, w("a"))  # crosses the missing edge


def test_schreier_rank_reports():
    r = schreier_rank_check(GaschuetzLayer(z2(), 2, False))
    assert (r.rank, r.cycle_dim, r.tilde_deficit) == (3, 3, 0)
    assert r.formula_ok and r.verified is True
    r = schreier_rank_check(GaschuetzLayer(z2(), 2, True))
    assert (r.rank, r.cycle_dim, r.tilde_deficit) == (1, 3, 2)
    assert r.formula_ok and r.verified is True
    r = schreier_rank_check(GaschuetzLayer(klein(), 3, True))
    assert (r.rank, r.cycle_dim, r.tilde_deficit) == (3, 5, 2)
    assert r.formula_ok and r.verified is True


def test_schreier_rank_report_past_the_bound():
    g108 = GaschuetzLayer(klein(), 3, tilde=True).materialize()
    r = schreier_rank_check(GaschuetzLayer(g108, 5, True))
    assert r.rank == 107 and r.cycle_dim == 109 and r.tilde_deficit == 2
    assert r.formula_ok and r.verified is None


def test_size_refusals_fire_one_past_the_bound(monkeypatch):
    # Klein has 8 vertex bipartitions, 84 maximal pairs and 140 reports;
    # at each count that stage passes and the next one refuses
    tower = build_tower(TowerSpec(KleinSpec(((1, 0), (0, 1))), ()))
    stages = ((8, "vertex bipartitions"), (84, "maximal constellation pairs"),
              (140, "dissolve reports"))
    for count, what in stages:
        monkeypatch.setattr(constel.groups, "DEFAULT_BOUND", count - 1)
        with pytest.raises(OrderBoundError, match="^%s %d exceeds the bound %d$"
                           % (what, count, count - 1)):
            dissolve_all(tower)
        monkeypatch.setattr(constel.groups, "DEFAULT_BOUND", count)
        if count < 140:
            with pytest.raises(OrderBoundError) as info:
                dissolve_all(tower)
            assert not str(info.value).startswith(what)
    assert len(dissolve_all(tower)) == 140


def test_dissolve_refuses_the_report_count_before_building_a_pair():
    # 391 bonds with 972,338 maximal pairs and 5,729,052 g choices: the
    # counts are read off the bonds, so the refusal holds no pair; building
    # the pairs first peaked at about 79 MiB
    tower = build_tower(TowerSpec(CyclicSpec(12, (1, 2)), ((2, True),)))
    tracemalloc.start()
    try:
        with pytest.raises(OrderBoundError,
                           match="^dissolve reports 5729052 exceeds the bound 1000000$"):
            dissolve_all(tower)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
