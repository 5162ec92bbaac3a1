import dataclasses
import math
import re
import tracemalloc
import warnings

import pytest

import constel.constellations
from constel.automata import (InverseAutomaton, Subgraph, amalgam, bfs_tree, canonical,
                              embed_check, full_subgraph, write_aut)
from constel.constellations import (Constellation, amalgams_of, assemble_AG, chain_letter,
                                    delta_a, maximal_constellations, minimal_cut_sets)
from constel.errors import VerificationError
from constel.gaschuetz import GaschuetzLayer
from constel.groups import CyclicSpec, KleinSpec, OrderBoundError, PermSpec, materialize
import oracle as O
from group_elements import S3_GENS, _perm, klein, oracle_table, s3, sample_groups, z2, z3


def test_minimal_cuts_against_oracle():
    # O.bonds tries every edge subset and gives each bond with its far side
    for spec in (CyclicSpec(2, (1, 1)), KleinSpec(((1, 0), (0, 1))), CyclicSpec(3, (1, 1)),
                 PermSpec(3, S3_GENS), CyclicSpec(6, (1, 2))):
        got = {(mc.cut, mc.far) for mc in minimal_cut_sets(materialize(spec).cayley)}
        assert got == set(O.bonds(oracle_table(spec))), spec


def mask_minimal_cuts(aut: InverseAutomaton) -> list[tuple]:
    """(cut, near, far) of every vertex bipartition whose two sides are
    connected, by far-side bitmask (bit i is the i-th vertex other than
    the anchor).  A search over the non-crossing edges stays on the side
    it starts from, so both sides are connected iff the searches from the
    anchor and from the least far vertex reach all n vertices together.
    Kept beside O.bonds, which tries edge subsets of Cayley graphs: vertex
    masks reach 14 vertices, any automaton and the order of the bonds."""
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
            out.append((frozenset(cut), frozenset(range(aut.n)) - far, far))
    return out


def cut_triples(aut: InverseAutomaton) -> list[tuple]:
    return [(mc.cut, mc.near, mc.far) for mc in minimal_cut_sets(aut)]


def z3xz3():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # both letters map to the identity of Z1
        return GaschuetzLayer(materialize(CyclicSpec(1, (0, 0))), 3, False).materialize()


def test_minimal_cuts_match_the_mask_oracle_on_every_sample_group():
    groups = sample_groups() + [("z3 x z3", z3xz3())]
    checked = set()
    for name, group in groups:
        if group.order > 14:
            continue
        assert cut_triples(group.cayley) == mask_minimal_cuts(group.cayley), name
        checked.add(name)
    assert {"d4", "a4", "cyclic(12;(1, 1))", "z3 x z3"} <= checked


def test_minimal_cuts_match_the_mask_oracle_on_random_automata():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def connected_automata(draw):
        # a random spanning tree, then extra edges that fit: loops, and
        # parallel edges under other letters or in the other direction
        n, k = draw(st.integers(1, 10)), draw(st.integers(1, 3))
        out, into, edges = set(), set(), []

        def add(u, letter, v):
            if (u, letter) not in out and (v, letter) not in into:
                out.add((u, letter))
                into.add((v, letter))
                edges.append((u, letter, v))

        for v in range(1, n):
            # a tree on v vertices has v - 1 edges, so one of its 2kv
            # (vertex, letter, direction) slots is free
            slots = [(u, letter, sign) for u in range(v) for letter in range(k)
                     for sign in (1, -1) if (u, letter) not in (out if sign > 0 else into)]
            u, letter, sign = draw(st.sampled_from(slots))
            if sign > 0:
                add(u, letter, v)
            else:
                add(v, letter, u)
        vertex, letter = st.integers(0, n - 1), st.integers(0, k - 1)
        for u, a, v in draw(st.lists(st.tuples(vertex, letter, vertex), max_size=2 * n)):
            add(u, a, v)
        return InverseAutomaton(n, k, edges, base=draw(st.none() | vertex))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(connected_automata())
    def check(aut):
        assert aut.is_connected()
        assert cut_triples(aut) == mask_minimal_cuts(aut)

    check()


def test_minimal_cuts_refuse_a_disconnected_graph():
    two_cycles = InverseAutomaton(4, 1, [(0, 0, 1), (1, 0, 0), (2, 0, 3), (3, 0, 2)], base=0)
    with pytest.raises(ValueError, match="graph is not connected"):
        minimal_cut_sets(two_cycles)


@pytest.mark.parametrize("n", [18, 20])
def test_cyclic_bond_count_past_the_mask_range(n):
    # a bond of the doubled n-cycle cuts it in two places
    cuts = minimal_cut_sets(materialize(CyclicSpec(n, (1, 1))).cayley)
    assert len(cuts) == len({mc.cut for mc in cuts}) == math.comb(n, 2)
    assert all(len(mc.cut) == 4 for mc in cuts)


def test_minimal_cut_counts():
    assert len(minimal_cut_sets(z2().cayley)) == 1
    assert len(minimal_cut_sets(klein().cayley)) == 6
    assert len(minimal_cut_sets(z3().cayley)) == 3


def test_minimal_cut_structure():
    for group in (klein(), z3()):
        aut = group.cayley
        for mc in minimal_cut_sets(aut):
            assert mc.near | mc.far == set(range(aut.n))
            assert not mc.near & mc.far
            assert aut.base in mc.near
            crossing = {(u, letter) for u, letter, v in aut.pos_edges()
                        if (u in mc.far) != (v in mc.far)}
            assert mc.cut == crossing


def test_both_sides_of_every_bond_are_connected_in_networkx():
    nx = pytest.importorskip("networkx")
    for group in (materialize(CyclicSpec(6, (1, 2))), s3(), klein(),
                  materialize(CyclicSpec(16, (1, 1))), materialize(CyclicSpec(18, (1, 1)))):
        aut = group.cayley
        graph = nx.MultiGraph()
        graph.add_edges_from((u, v) for u, _, v in aut.pos_edges())
        cuts = minimal_cut_sets(aut)
        assert cuts
        for mc in cuts:
            assert nx.is_connected(graph.subgraph(mc.near))
            assert nx.is_connected(graph.subgraph(mc.far))


def test_minimal_cut_bound():
    big = materialize(CyclicSpec(21, (1,))).cayley  # 2^20 bipartitions, one vertex past 20
    with pytest.raises(OrderBoundError, match="exceeds the bound"):
        minimal_cut_sets(big)


def test_maximal_pair_counts():
    assert len(maximal_constellations(z2())) == 14
    assert len(maximal_constellations(klein())) == 84
    assert len(maximal_constellations(z3())) == 42


def test_maximal_pair_structure():
    for pair in maximal_constellations(klein()):
        c_xi, c_theta = map(frozenset, pair.halves())
        assert c_xi and c_theta
        assert not c_xi & c_theta
        assert c_xi | c_theta == pair.cut.cut
        assert pair.xi.edges == full_subgraph(pair.xi.parent).edges - c_theta
        assert pair.theta.edges == full_subgraph(pair.xi.parent).edges - c_xi
        assert pair.g_choices == tuple(sorted(pair.cut.far))
        for c in map(pair.constellation, pair.g_choices):
            assert c.g in pair.cut.far


def test_the_pair_list_holds_a_bond_and_a_mask_per_pair():
    # two frozensets per pair held about 817 B per pair on these 2,600 pairs
    group = materialize(CyclicSpec(6, (1, 2)))
    tracemalloc.start()
    try:
        pairs = maximal_constellations(group)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 2600
    assert held / len(pairs) < 200, (
        "%.0f B per pair; a pair should hold its shared bond, an int split mask "
        "and the bond's shared g choices, and no edge sets" % (held / len(pairs)))


@pytest.mark.parametrize("make", [
    klein, lambda: materialize(CyclicSpec(6, (1, 2))), s3,
    lambda: _perm(4, [(0, 1, 2, 3)], [(0, 2)]),  # D4
], ids=["klein", "z6", "s3", "d4"])
def test_split_masks_match_the_edge_subset_enumeration(make):
    group = make()
    full = full_subgraph(group.cayley)
    pairs = maximal_constellations(group)
    by_bond: dict[int, dict[int, tuple]] = {}
    for pair in pairs:
        # the enumeration the masks replaced: edge i of the sorted cut is in C_Xi when bit i is
        edges = sorted(pair.cut.cut)
        c_xi = frozenset(e for i, e in enumerate(edges) if pair.mask >> i & 1)
        c_theta = pair.cut.cut - c_xi
        assert pair.halves() == (tuple(sorted(c_xi)), tuple(sorted(c_theta)))
        by_bond.setdefault(id(pair.cut), {})[pair.mask] = (pair, c_xi, c_theta)
    for splits in by_bond.values():
        size = len(next(iter(splits.values()))[0].cut.cut)
        top = 2 ** size - 1
        assert list(splits) == list(range(1, top))  # every split once, masks rising
        for mask, (pair, c_xi, c_theta) in splits.items():
            mirror, m_xi, m_theta = splits[top ^ mask]
            assert (m_xi, m_theta) == (c_theta, c_xi)
            assert mirror.halves() == pair.halves()[::-1]
    seen, want = set(), []
    for splits in by_bond.values():
        for _, c_xi, c_theta in splits.values():
            key = frozenset((c_xi, c_theta))
            if key not in seen:
                seen.add(key)
                want.append(amalgam(full.minus_edges(c_theta), full.minus_edges(c_xi)))
    want.sort(key=write_aut)
    assert [write_aut(a) for a in amalgams_of(group)] == [write_aut(a) for a in want]


def test_maximal_pair_rejects_g_in_the_base_component():
    for pair in maximal_constellations(klein()):
        near = sorted(pair.cut.near - {0})
        if near:
            break
    with pytest.raises(ValueError):
        dataclasses.replace(pair, g_choices=pair.g_choices + (near[0],))
    with pytest.raises(ValueError):
        dataclasses.replace(pair, g_choices=(0,))
    assert dataclasses.replace(pair, g_choices=pair.g_choices[:1]).g_choices


def test_every_maximal_pair_is_a_constellation():
    # pairs are checked against their bond only; re-prove each one in full
    # on every sample group of at most 20,000 pairs (about 59,000 in all)
    checked = 0
    for name, group in sample_groups():
        if group.order > 20:
            continue
        if sum(2 ** len(mc.cut) - 2 for mc in minimal_cut_sets(group.cayley)) > 20000:
            continue
        full = full_subgraph(group.cayley).edges
        for pair in maximal_constellations(group):
            c_xi, c_theta = pair.halves()
            assert pair.xi.edges == full - set(c_theta), name
            assert pair.theta.edges == full - set(c_xi), name
            for g in pair.g_choices:
                Constellation(pair.xi, g, pair.theta)
            checked += 1
    assert checked > 50000


def test_constellation_validation():
    group = klein()
    full = full_subgraph(group.cayley)
    with pytest.raises(ValueError):
        Constellation(full, 0, full)  # g is the base
    with pytest.raises(ValueError):
        Constellation(full, 1, full)  # base and g joined in the intersection
    lonely = Subgraph(group.cayley, frozenset(), frozenset({0}))
    with pytest.raises(ValueError):
        Constellation(lonely, 1, full)  # xi misses g
    split = Subgraph(group.cayley, frozenset(), frozenset({0, 1}))
    with pytest.raises(ValueError):
        Constellation(split, 1, full)  # xi not connected


def constellation_of(aut, xi_vertices):
    """(xi, 1, Gamma) with xi the edgeless subgraph on xi_vertices."""
    return Constellation(Subgraph(aut, frozenset(), frozenset(xi_vertices)), 1,
                         full_subgraph(aut))


def z3_pair_with_mask(mask_of):
    """The first maximal pair of Z3 with its mask replaced by mask_of(|C|)."""
    pair = maximal_constellations(z3())[0]
    return dataclasses.replace(pair, mask=mask_of(len(pair.cut.cut)))


@pytest.mark.parametrize("call, message", [
    (lambda: Constellation(full_subgraph(klein().cayley), 1, full_subgraph(klein().cayley)),
     "subgraphs live over different parent graphs"),
    (lambda: constellation_of(InverseAutomaton(2, 1, [(0, 0, 1), (1, 0, 0)]), {0, 1}),
     "constellations need a based parent graph"),
    (lambda: constellation_of(z2().cayley, {1}), "xi must contain the base vertex and g"),
    (lambda: z3_pair_with_mask(lambda size: 0),
     "C_Xi and C_Theta must split the cut into two nonempty parts"),
    (lambda: z3_pair_with_mask(lambda size: 2 ** size - 1),
     "C_Xi and C_Theta must split the cut into two nonempty parts"),
])
def test_malformed_constellations_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()


def test_per_g_checks_fire_after_the_pair_checks_are_kept():
    pair = next(pair for pair in maximal_constellations(materialize(CyclicSpec(6, (1, 2))))
                if len(pair.cut.near) > 1)
    near = min(pair.cut.near - {0})
    for _ in range(2):  # the second round runs with every memo warm
        assert pair.constellation(pair.g_choices[0]).xi is pair.xi
        with pytest.raises(ValueError, match="^g coincides with the base vertex$"):
            Constellation(pair.xi, 0, pair.theta)
        with pytest.raises(ValueError,
                           match="^base and g lie in one component of the intersection$"):
            Constellation(pair.xi, near, pair.theta)


def test_delta_basic():
    da = delta_a(z2(), 0)
    assert da.g == 1
    assert da.theta.edges == frozenset({(0, 0)})
    assert da.theta.vertices == frozenset({0, 1})
    assert da.xi.edges == full_subgraph(da.parent).edges - {(0, 0)}


def test_delta_negative_sign():
    da = delta_a(z3(), 0, sign=-1)
    # the base edge of a^-1 is the a-edge into the base
    assert da.g == 2
    assert da.theta.edges == frozenset({(2, 0)})


def test_delta_rejects_identity_letter():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        skew = materialize(CyclicSpec(2, (1, 0)))
    with pytest.raises(ValueError):
        delta_a(skew, 1)


def test_delta_dominated_by_some_maximal_pair():
    for group in (z2(), klein(), z3()):
        pairs = maximal_constellations(group)
        for letter in range(2):
            for sign in (1, -1):
                da = delta_a(group, letter, sign)
                assert any(da.g in pair.g_choices
                           and da.xi.edges <= pair.xi.edges
                           and da.theta.edges <= pair.theta.edges
                           for pair in pairs)


def test_delta_is_literally_maximal_for_z2():
    da = delta_a(z2(), 0)
    assert any(pair.xi.edges == da.xi.edges
               and pair.theta.edges == da.theta.edges
               and da.g in pair.g_choices
               for pair in maximal_constellations(z2()))


def test_amalgam_counts():
    assert len(amalgams_of(z2())) == 7
    assert len(amalgams_of(klein())) == 42
    assert len(amalgams_of(z3())) == 21


def test_amalgam_of_one_edge_split():
    # C_Xi = {(0,a)}, C_Theta the rest of the unique cut of Gamma(Z/2)
    group = z2()
    for pair in maximal_constellations(group):
        if pair.halves()[0] == ((0, 0),):
            am = canonical(amalgam(pair.xi, pair.theta))
            assert write_aut(am) == ("edge 0 a 1\nedge 0 b 2\nedge 2 a 0\n"
                                     "edge 2 b 0\nbase 0\n")
            return
    pytest.fail("expected split not generated")


def test_amalgam_of_overlapping_subgraphs_folds_back():
    # removing one letter edge from each side leaves enough overlap that
    # folding collapses the two copies onto the Cayley graph itself
    group = z2()
    full = full_subgraph(group.cayley)
    xi = full.minus_edges([(0, 1)])
    theta = full.minus_edges([(0, 0)])
    assert canonical(amalgam(xi, theta)) == canonical(group.cayley)


def test_amalgams_are_incomplete_and_connected():
    for group in (z2(), z3()):
        for am in amalgams_of(group):
            assert not am.is_complete()
            assert am.is_connected()
            assert am.base is not None


def test_chain_letter():
    ams = amalgams_of(z2())
    assert all(chain_letter(a) in (0, 1) for a in ams)
    with pytest.raises(ValueError):
        chain_letter(z2().cayley)  # complete, nothing missing


def test_assemble_AG_z2():
    group = z2()
    ag = assemble_AG(group)
    assert ag.n == 22  # seven 3-vertex amalgams and one sink
    assert ag.is_connected()
    assert not ag.is_complete()
    for am in amalgams_of(group):
        assert any(embed_check(am, ag, s) is not None for s in range(ag.n))


def test_assemble_AG_z3():
    ag = assemble_AG(z3())
    assert ag.is_connected()
    assert not ag.is_complete()
    for am in amalgams_of(z3()):
        assert any(embed_check(am, ag, s) is not None for s in range(ag.n))


def test_assemble_AG_checks_its_embeddings(monkeypatch):
    monkeypatch.setattr(constel.constellations, "embed_check", lambda a, b, start: None)
    with pytest.raises(VerificationError):
        assemble_AG(z2())
