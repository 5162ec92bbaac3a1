import dataclasses
import itertools

import pytest

import constel.constellations
from constel.automata import (InverseAutomaton, Subgraph, amalgam, canonical,
                              embed_check, full_subgraph, write_aut)
from constel.constellations import (Constellation, MinimalCut, amalgams_of,
                                    assemble_AG, chain_letter, delta_a,
                                    maximal_constellations, minimal_cut_sets)
from constel.errors import VerificationError
from constel.groups import CyclicSpec, KleinSpec, OrderBoundError, PermSpec, materialize
from constel.perms import from_cycles


def z2():
    return materialize(CyclicSpec(2, (1, 1)))


def klein():
    return materialize(KleinSpec(((1, 0), (0, 1))))


def z3():
    return materialize(CyclicSpec(3, (1, 1)))


# --- independent oracle: inclusion-minimal disconnecting edge sets ---

def geometric_edges(aut: InverseAutomaton):
    return [(u, letter) for u, letter, _ in aut.pos_edges()]


def connected_without(aut: InverseAutomaton, removed) -> bool:
    removed = set(removed)
    adj = {v: [] for v in range(aut.n)}
    for u, letter, v in aut.pos_edges():
        if (u, letter) not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == aut.n


def brute_minimal_cuts(aut: InverseAutomaton) -> set[frozenset]:
    edges = geometric_edges(aut)
    out = set()
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            if connected_without(aut, combo):
                continue
            if all(connected_without(aut, set(combo) - {e}) for e in combo):
                out.add(frozenset(combo))
    return out


def test_minimal_cuts_against_oracle():
    s3 = materialize(PermSpec(3, (from_cycles(3, [(0, 1)]), from_cycles(3, [(1, 2)]))))
    for group in (z2(), klein(), z3(), s3, materialize(CyclicSpec(6, (1, 2)))):
        got = {mc.cut for mc in minimal_cut_sets(group.cayley)}
        assert got == brute_minimal_cuts(group.cayley)


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
        assert pair.c_xi and pair.c_theta
        assert not pair.c_xi & pair.c_theta
        assert pair.c_xi | pair.c_theta == pair.cut.cut
        assert pair.xi.edges == full_subgraph(pair.xi.parent).edges - pair.c_theta
        assert pair.theta.edges == full_subgraph(pair.xi.parent).edges - pair.c_xi
        assert pair.g_choices == tuple(sorted(pair.cut.far))
        for c in pair.constellations():
            assert c.g in pair.cut.far


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
        if pair.c_xi == frozenset({(0, 0)}):
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
