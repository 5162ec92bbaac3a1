import random
from collections import deque

import pytest

import constel.dissolve
import constel.groups
from constel.automata import Subgraph, bfs_tree, full_subgraph, tree_word
from constel.constellations import delta_a, maximal_constellations
from constel.dissolve import (DissolveReport, GFpSpan, counting_lifts_check,
                              cycle_space_rows, detecting_edges_check,
                              disconnection_equivalence, dissolve_all,
                              dissolves_linear, dissolves_materialized,
                              dissolves_pair_linear,
                              is_dissolver, is_weak_dissolver, key_lemma_edge,
                              key_lemma_report, reachable_lift,
                              schreier_rank_check)
from constel.errors import VerificationError
from constel.gaschuetz import GaschuetzLayer, TowerSpec, build_tower
from constel.groups import (CyclicSpec, KleinSpec, OrderBoundError, PermSpec,
                            canonical_morphism, identity_morphism, materialize,
                            subgroup_closure, traversal_vector)
from constel.perms import from_cycles
from constel.words import Alphabet, Word, parse_word

A2 = Alphabet.of_size(2)


def w(text: str) -> Word:
    return parse_word(text, A2)


def str_word(u: Word) -> str:
    return "".join(("ab"[l] if s > 0 else "AB"[l]) for l, s in u)


def z2():
    return materialize(CyclicSpec(2, (1, 1)))


def klein():
    return materialize(KleinSpec(((1, 0), (0, 1))))


def z3():
    return materialize(CyclicSpec(3, (1, 1)))


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
    assert span.rank == 2
    assert span.contains({(0, 0): 1})
    assert not span.contains({(2, 1): 1})
    assert span.contains({})


def test_cycle_space_rank_is_e_minus_v_plus_1():
    for group in (z2(), klein(), z3()):
        sub = full_subgraph(group.cayley)
        span = GFpSpan(2)
        for row in cycle_space_rows(sub, 2):
            span.add(row)
        e = len(sub.edges)
        v = len(sub.vertices)
        assert span.rank == e - v + 1


def test_reachable_lift_single_vertex():
    g = z2()
    sub = Subgraph(g.cayley, frozenset(), frozenset({0}))
    lifted, fibers = reachable_lift(sub, g, identity_morphism(g))
    assert lifted.vertices == frozenset({0})
    assert fibers == {0: frozenset({0})}


S3 = PermSpec(3, (from_cycles(3, [(0, 1)]), from_cycles(3, [(1, 2)])))


def s3():
    return materialize(S3)


def filtered_lift(xi: Subgraph, h_group, phi):
    """Lift oracle: filter all of Gamma(H) for preimage vertices and
    edges, then keep the component of the identity."""
    gamma_h = h_group.cayley
    vertices = frozenset(h for h in range(h_group.order) if phi(h) in xi.vertices)
    edges = frozenset((h, a) for h, a, _ in gamma_h.pos_edges() if (phi(h), a) in xi.edges)
    comp = Subgraph(gamma_h, edges, vertices).component_of(0)
    fibers: dict[int, set[int]] = {}
    for h in comp:
        fibers.setdefault(phi(h), set()).add(h)
    return (frozenset(e for e in edges if e[0] in comp), comp,
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
    pairs = maximal_constellations(base)
    subs = [delta_a(base, 0).xi, delta_a(base, 1, -1).theta]
    subs += [sub for pair in pairs[::7] for sub in (pair.xi, pair.theta)]
    for sub in subs:
        lifted, fibers = reachable_lift(sub, mat, phi)
        assert (lifted.edges, lifted.vertices, fibers) == filtered_lift(sub, mat, phi)


def test_witness_words_match_a_search_per_endpoint():
    base = s3()
    mat = GaschuetzLayer(base, 2, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    for pair in maximal_constellations(base)[::42]:
        lifted, _ = reachable_lift(pair.theta, mat, phi)
        word = constel.dissolve._witness_words(lifted)
        for h in sorted(lifted.vertices):
            assert word(h) == search_word(lifted, h)


def per_triple_reports(tower):
    """Reports from one decision per constellation through the one-g
    wrappers, as (label, dissolved, method, witness, endpoint, vector)."""
    base = tower.levels[0]
    if tower.top.order() <= constel.dissolve.MATERIALIZE_BOUND:
        mat = tower.top.materialize()
        phi = canonical_morphism(mat, base)
        decide = lambda c, label: dissolves_materialized(mat, phi, c, label)
    else:
        phi = tower.morphism(len(tower.levels) - 1, 0)
        decide = lambda c, label: dissolves_linear(tower.top, phi, c, label)
    return [astuple(decide(pair.constellation(g), "max%d:g%d" % (i, g)))
            for i, pair in enumerate(maximal_constellations(base))
            for g in pair.g_choices]


def astuple(r: DissolveReport):
    return (r.label, r.dissolved, r.method, r.witness, r.endpoint, r.vector)


@pytest.mark.parametrize("spec, layers, bound, method", [
    (S3, ((2, True),), 100000, "reachability"),
    (KleinSpec(((1, 0), (0, 1))), ((3, True),), 100000, "reachability"),
    (S3, ((2, True),), 1, "linear"),
])
def test_pair_deciders_match_per_constellation_decisions(monkeypatch, spec, layers, bound,
                                                         method):
    tower = build_tower(TowerSpec(spec, layers))
    verdicts = [(r.label, r.dissolved) for r in dissolve_all(tower)]
    monkeypatch.setattr(constel.dissolve, "MATERIALIZE_BOUND", bound)
    reports = [astuple(r) for r in dissolve_all(tower)]
    assert reports == per_triple_reports(tower)
    assert {r[2] for r in reports} == {method}
    assert not all(r[1] for r in reports) and any(r[1] for r in reports)
    assert [r[:2] for r in reports] == verdicts  # the same verdicts by either method


def elimination_reports(layer, phi, xi, theta, g_choices, labels):
    """Linear-method oracle by Gaussian elimination: the fibers over g
    meet at m iff the difference of the signed BFS-tree vectors to m
    lies in the span of both cycle spaces and, for tilde layers, the
    constants sum_h e_(h,a).  Reports as `astuple` gives them."""
    m_group, p = layer.base, layer.p
    xi_hat, fib_xi = reachable_lift(xi, m_group, phi)
    th_hat, fib_th = reachable_lift(theta, m_group, phi)
    span = GFpSpan(p)
    for row in cycle_space_rows(xi_hat, p) + cycle_space_rows(th_hat, p):
        span.add(row)
    if layer.tilde:
        for a in range(m_group.n_letters):
            span.add({(h, a): 1 for h in range(m_group.order)})
    trees = [bfs_tree(m_group.cayley, 0, lift.edges) for lift in (xi_hat, th_hat)]

    def vector(m):
        ux, ut = (traversal_vector(m_group, tree_word(tree, m)) for tree in trees)
        diff = {e: (ux.get(e, 0) - ut.get(e, 0)) % p for e in set(ux) | set(ut)}
        return {e: c for e, c in diff.items() if c}

    out = []
    for g, label in zip(g_choices, labels):
        rep = (label, True, "linear", None, None, None)
        for m in sorted(fib_xi.get(g, frozenset()) & fib_th.get(g, frozenset())):
            if span.contains(vector(m)):
                rep = (label, False, "linear", None, m, vector(m))
                break
        out.append(rep)
    return out


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
        got = [astuple(r) for r in dissolves_pair_linear(tower.top, phi, xi, theta,
                                                         g_choices, labels)]
        assert got == elimination_reports(tower.top, phi, xi, theta, g_choices, labels)
        reports += got
    assert not any(r[1] for r in reports if r[0].startswith("full:"))
    constellations = [r for r in reports if not r[0].startswith("full:")]
    if layers[-1][1]:
        assert len(layers) > 1 or not all(r[1] for r in constellations)
    else:  # plain top layers dissolve every constellation
        assert all(r[1] for r in constellations)


def test_constant_boundary_outside_the_intersection_raises(monkeypatch):
    base = s3()
    layer = GaschuetzLayer(base, 2, tilde=True)
    c = delta_a(base, 0)  # every a-edge lies in Xi or Theta
    assert not dissolves_linear(layer, identity_morphism(base), c).dissolved
    outside = min(set(range(base.order)) - c.theta.vertices)
    monkeypatch.setattr(constel.dissolve, "_constant_boundary",
                        lambda sub, letter, p: {outside: 1})
    with pytest.raises(VerificationError, match="leaves the intersection"):
        dissolves_linear(layer, identity_morphism(base), c)


def test_failed_witness_check_raises(monkeypatch):
    base = z2()
    mat = GaschuetzLayer(base, 2, tilde=True).materialize()
    phi = canonical_morphism(mat, base)
    monkeypatch.setattr(constel.dissolve, "_path_stays", lambda sub, word: False)
    with pytest.raises(VerificationError):
        dissolves_materialized(mat, phi, delta_a(base, 0))


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
    rep = dissolves_materialized(mat, phi, delta_a(base, 0))
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
            rep = dissolves_materialized(mat, phi, delta_a(base, letter, sign))
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
                    slow = dissolves_materialized(mat, phi, c)
                    fast = dissolves_linear(layer, ident, c)
                    assert slow.dissolved == fast.dissolved, (name, p, tilde, i)
                    dissolved += slow.dissolved
                assert (dissolved, len(targets)) == AGREEMENT_COUNTS[(name, p, tilde)]


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
        assert dissolves_materialized(mat, phi, c).dissolved
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
    assert not is_weak_dissolver(small)

    tall = build_tower(TowerSpec(CyclicSpec(2, (1, 1)),
                                 ((2, True), (2, True), (2, True))))
    assert tall.top is not None and tall.top.order() > 100000
    reports = dissolve_all(tall, weak=True)
    assert all(r.method == "linear" for r in reports)
    assert all(r.dissolved for r in reports)
    assert is_weak_dissolver(tall)

    flat = build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ()))
    assert all(r.method == "reachability" for r in dissolve_all(flat, weak=True))


def test_plain_one_layer_tower_is_a_dissolver():
    tower = build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ((2, False),)))
    assert is_dissolver(tower)
    assert is_weak_dissolver(tower)


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
    assert key_lemma_report(z2(), 2, frozenset({0, 1})).n_edges == 8
    assert key_lemma_report(z2(), 2, frozenset({0, 1})).all_ok
    rep = key_lemma_report(z2(), 3, frozenset({0, 1}))
    assert rep.n_edges == 12 and rep.all_ok
    base = klein()
    for gen in range(1, 4):
        sub = subgroup_closure(base, [gen])
        rep = key_lemma_report(base, 2, sub)
        assert rep.n_edges == 64 and rep.all_ok


def test_key_lemma_rejects_trivial_subgroup():
    with pytest.raises(ValueError):
        key_lemma_report(z2(), 2, frozenset({0}))


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
    """Key-lemma oracle: one call of key_lemma_edge per edge."""
    mat = GaschuetzLayer(g_group, p, tilde=True).materialize()
    phi = canonical_morphism(mat, g_group)
    l_set = frozenset(h for h in range(mat.order) if phi(h) in k_set)
    failures = tuple((h, a) for h, a, _ in mat.cayley.pos_edges()
                     if not constel.dissolve.key_lemma_edge(mat, l_set, (h, a)))
    return mat.cayley.n_pos_edges, failures


def test_key_lemma_report_matches_the_per_edge_loop(monkeypatch):
    cases = [(z2(), 3, frozenset({0, 1})), (klein(), 2, subgroup_closure(klein(), [1])),
             (s3(), 2, subgroup_closure(s3(), [3]))]
    real = constel.dissolve.key_lemma_edge
    calls = []
    monkeypatch.setattr(constel.dissolve, "key_lemma_edge",
                        lambda *args: calls.append(args[2]) or real(*args))
    for group, p, k_set in cases:
        calls.clear()
        rep = key_lemma_report(group, p, k_set)
        # one call per (right coset L.g, letter)
        assert len(calls) == group.order // len(k_set) * group.n_letters
        assert rep.all_ok and (rep.n_edges, rep.failures) == per_edge_key_lemma(group, p, k_set)
    # a stand-in verdict, constant on orbits: the b-edges at L fail
    def fake(h_group, l_set, edge):
        return edge[0] not in l_set or edge[1] == 0

    monkeypatch.setattr(constel.dissolve, "key_lemma_edge", fake)
    for group, p, k_set in cases:
        rep = key_lemma_report(group, p, k_set)
        assert (rep.n_edges, rep.failures) == per_edge_key_lemma(group, p, k_set)
        assert 0 < len(rep.failures) < rep.n_edges


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
