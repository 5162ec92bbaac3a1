"""End-to-end acceptance checks, one test per criterion.

Fixtures are rebuilt from scratch in each test and, where a criterion
carries a runtime budget, the elapsed wall time is asserted.  Besides
constel, the tests import the shared oracle `perfbench/oracle.py` (the
bond count of criterion 2) and, from `tests/group_elements.py`, the word
helpers `w` and `str_word`, the oracle's tables and the element
numbering of criterion 6.
"""

import random
import time

from constel.automata import (core_of_words, embed_check, member,
                              rank_from_core, transition_group)
from constel.closure import (closure_at_level, product_membership_at_level,
                             subgroup_image)
from constel.completion import (complete_to_alternating,
                                predissolver_certificate,
                                smallest_prime_greater)
from constel.constellations import (amalgams_of, assemble_AG, delta_a,
                                    maximal_constellations)
from constel.dissolve import (counting_lifts_check, detecting_edges_check,
                              disconnection_equivalence, dissolves_linear,
                              dissolves_materialized, key_lemma_report)
from constel.gaschuetz import (GaschuetzLayer, TowerSpec, build_tower, center,
                               layer_abelianization, order_formula)
from constel.groups import (CyclicSpec, ExtensionSpec, KleinSpec, PermSpec,
                            abelianization, canonical_morphism,
                            identity_morphism, materialize, subgroup_closure)
from constel.perms import from_cycles
from constel.words import Word, reduce
import oracle as O
from group_elements import element_list, layer_generators, oracle_table, str_word, w

Z2 = CyclicSpec(2, (1, 1))
KLEIN = KleinSpec(((1, 0), (0, 1)))


def random_word(rng, max_len):
    pairs = tuple((rng.randrange(2), rng.choice((1, -1)))
                  for _ in range(rng.randrange(max_len + 1)))
    return Word(pairs)


def all_constellations(group):
    return [pair.constellation(g)
            for pair in maximal_constellations(group)
            for g in pair.g_choices]


def path_endpoint_inside(group, sub, u):
    """Walk u in the Cayley graph from the identity, asserting every
    traversed geometric edge and vertex lies in sub; return the endpoint."""
    v = 0
    for letter, sign in u:
        if sign > 0:
            nxt = group.mul_idx(v, group.images[letter])
            edge = (v, letter)
        else:
            nxt = group.mul_idx(v, group.inv_idx(group.images[letter]))
            edge = (nxt, letter)
        assert edge in sub.edges and nxt in sub.vertices
        v = nxt
    return v


def test_criterion_01_completion_corpus():
    start = time.monotonic()
    rng = random.Random(101)
    cores, sizes = [], set()
    while len(cores) < 25:
        gens = []
        for _ in range(rng.randrange(1, 4)):
            u = reduce(random_word(rng, 9))
            if len(u):
                gens.append(u)
        if not gens:
            continue
        core = core_of_words(gens, 2)
        if not 3 <= core.n <= 8 or core.is_complete():
            continue
        cores.append(core)
        sizes.add(core.n)
    assert sizes == {3, 4, 5, 6, 7, 8}
    for i, core in enumerate(cores):
        m = core.n
        q = smallest_prime_greater(m)
        for extra in (2, 3, 4):
            n = m + q + extra
            completed, cert, plan = complete_to_alternating(core, n, seed=i)
            for u, letter, v in core.pos_edges():
                assert completed.fwd[letter][u] == v
            assert completed.base == core.base
            group = transition_group(completed)
            assert all(p.is_even() for p in group.images)
            lengths = [len(c) for c in group.images[plan.b].cycles()]
            assert lengths.count(plan.q) == 1
            assert all(l < plan.q for l in lengths if l != plan.q)
            assert cert.valid()
            assert cert.prime_cycle is not None
            assert cert.prime_cycle[0] <= n - 3
    assert time.monotonic() - start < 60


def test_criterion_02_three_tilde_tower_dissolves_z2():
    start = time.monotonic()
    tower = build_tower(TowerSpec(Z2, ((2, True), (2, True), (2, True))))
    z2 = tower.levels[0]
    assert tower.levels[2].order == 32
    assert tower.top is not None and tower.top.base is tower.levels[2]
    bonds = O.bonds(oracle_table(Z2))  # every edge subset of Gamma(Z/2)
    assert len(bonds) == 1
    cs = all_constellations(z2)
    assert len(cs) == 2 ** len(bonds[0][0]) - 2 == 14
    phi = tower.morphism(2, 0)
    for c in cs:
        assert dissolves_linear(tower.top, phi, c).dissolved
    assert time.monotonic() - start < 10


def test_criterion_03_weak_dissolver_failure_witness():
    z2 = materialize(Z2)
    h = materialize(ExtensionSpec(Z2, 2, True))
    assert h.order == 4
    phi = canonical_morphism(h, z2)
    c = delta_a(z2, 0)
    report = dissolves_materialized(phi, c)
    assert not report.dissolved
    u, v = report.witness
    assert (str_word(u), str_word(v)) == ("bab", "a")
    assert h.evaluate(u) == h.evaluate(v)
    assert path_endpoint_inside(z2, c.xi, u) == c.g
    assert path_endpoint_inside(z2, c.theta, v) == c.g


def test_criterion_04_plain_layers_dissolve_everything():
    start = time.monotonic()
    z2 = materialize(Z2)
    cs = all_constellations(z2)
    assert len(cs) == 14
    for p in (2, 3):
        layer = GaschuetzLayer(z2, p, tilde=False)
        mat = layer.materialize()
        phi = canonical_morphism(mat, z2)
        for c in cs:
            by_reach = dissolves_materialized(phi, c)
            by_linear = dissolves_linear(layer, identity_morphism(z2), c)
            assert by_reach.dissolved and by_linear.dissolved
            assert by_reach.dissolved == by_linear.dissolved
    assert time.monotonic() - start < 10


def test_criterion_05_four_way_disconnection_equivalence():
    start = time.monotonic()
    z2 = materialize(Z2)
    klein = materialize(KLEIN)
    fixtures = [
        canonical_morphism(klein, z2),
        canonical_morphism(GaschuetzLayer(z2, 2).materialize(), z2),
        canonical_morphism(materialize(ExtensionSpec(Z2, 3, True)), z2),
        canonical_morphism(GaschuetzLayer(klein, 3).materialize(), klein),
    ]
    for phi in fixtures:
        assert phi is not None
        for letter in range(2):
            for sign in (1, -1):
                quad = disconnection_equivalence(phi, letter, sign)
                assert len(set(quad)) == 1, (letter, sign, quad)
    assert time.monotonic() - start < 30


def test_criterion_06_center_is_the_label_constant_subgroup():
    for spec, p, expected in ((Z2, 2, 4), (Z2, 3, 9), (KLEIN, 3, 9)):
        base = materialize(spec)
        layer = GaschuetzLayer(base, p, tilde=False)
        info = center(layer)
        assert info.order == p ** base.n_letters == expected
        mat = layer.materialize()
        brute = {x for x in range(mat.order)
                 if all(mat.mul_idx(x, img) == mat.mul_idx(img, x)
                        for img in mat.images)}
        _, index = element_list(mat, *layer_generators(layer), layer.mul)
        assert {index[el] for el in info.elements()} == brute
        witness_elems = [mat.evaluate(word_) for word_ in info.witness_words]
        assert subgroup_closure(mat, witness_elems) == frozenset(brute)


def test_criterion_07_lazy_word_problem_matches_materialized():
    rng = random.Random(107)
    for spec in (Z2, KLEIN):
        base = materialize(spec)
        for p in (2, 3):
            for tilde in (False, True):
                layer = GaschuetzLayer(base, p, tilde=tilde)
                mat = layer.materialize()
                for _ in range(500):
                    u = random_word(rng, 12)
                    assert layer.is_identity(u) == mat.is_identity(u), u


def test_criterion_08_order_and_rank_formulas():
    fixtures = [
        (Z2, 2, False, 16), (Z2, 3, False, 54),
        (Z2, 2, True, 4), (Z2, 3, True, 6),
        (KLEIN, 3, False, 972), (KLEIN, 3, True, 108),
    ]
    for spec, p, tilde, expected in fixtures:
        base = materialize(spec)
        layer = GaschuetzLayer(base, p, tilde=tilde)
        assert layer.order() == expected
        assert order_formula(base.order, base.n_letters, p, tilde) == expected
        assert layer.materialize().order == expected
        assert p ** layer.kernel_rank() == expected // base.order
        if not tilde:
            n_pos = len(base.cayley.pos_edges())
            assert layer.kernel_rank() == n_pos - base.order + 1


def test_criterion_09_tilde_abelianizations():
    klein = materialize(KLEIN)
    mat = materialize(ExtensionSpec(KLEIN, 3, True))
    assert mat.order == 108
    assert abelianization(mat) == [2, 2]
    assert layer_abelianization(GaschuetzLayer(klein, 3, True)) == [2, 2]
    z2 = materialize(Z2)
    assert abelianization(materialize(ExtensionSpec(Z2, 3, True))) == [2]
    assert layer_abelianization(GaschuetzLayer(z2, 3, True)) == [2]


def test_criterion_10_key_lemma_every_edge():
    start = time.monotonic()
    z2 = materialize(Z2)
    for p, n_edges in ((2, 8), (3, 12)):
        assert key_lemma_report(z2, p, frozenset(range(z2.order))) == n_edges
    klein = materialize(KLEIN)
    for x in range(1, klein.order):
        assert key_lemma_report(klein, 2, frozenset({0, x})) == 64
    assert time.monotonic() - start < 30


def test_criterion_11_predissolver_pipeline():
    start = time.monotonic()
    z2 = materialize(Z2)
    amalgams = amalgams_of(z2)
    assert len(amalgams) == 7
    ag = assemble_AG(z2)
    for a in amalgams:
        assert any(embed_check(a, ag, s) is not None for s in range(ag.n))
    m = ag.n
    n = m + smallest_prime_greater(m) + 2
    completed, cert, _ = complete_to_alternating(ag, n)
    assert cert.valid()
    report = predissolver_certificate(completed, amalgams)
    assert report.all_found
    for a, start_vertex in zip(amalgams, report.witnesses):
        assert embed_check(a, completed, start_vertex) is not None
    assert time.monotonic() - start < 60


def walk_inside(rng, c, max_len=12):
    """Seeded random walk in xi from the base, stopped at g."""
    while True:
        v, pairs = c.base, []
        for _ in range(max_len):
            nbrs = sorted(c.xi.neighbors(v))
            nxt, letter, sign, _ = nbrs[rng.randrange(len(nbrs))]
            pairs.append((letter, sign))
            v = nxt
            if v == c.g:
                return Word(tuple(pairs))


def test_criterion_12_lift_counting_identities():
    rng = random.Random(112)
    z2 = materialize(Z2)
    klein = materialize(KLEIN)
    morphisms = [
        canonical_morphism(klein, z2),
        canonical_morphism(materialize(CyclicSpec(4, (1, 1))), z2),
        canonical_morphism(materialize(ExtensionSpec(Z2, 2, True)), z2),
        canonical_morphism(GaschuetzLayer(z2, 2).materialize(), z2),
        canonical_morphism(materialize(ExtensionSpec(KLEIN, 2, True)), klein),
    ]
    assert all(phi is not None for phi in morphisms)
    for _ in range(100):
        phi = morphisms[rng.randrange(len(morphisms))]
        assert counting_lifts_check(phi, random_word(rng, 10))

    over_z2 = [m for m in morphisms if m.dst is z2]
    over_klein = [m for m in morphisms if m.dst is klein]
    instances = [(phi, c) for phi in over_z2
                 for c in ([delta_a(z2, a, s) for a in range(2)
                            for s in (1, -1)] + all_constellations(z2)[:4])]
    instances += [(phi, delta_a(klein, a)) for phi in over_klein
                  for a in range(2)]
    for _ in range(50):
        phi, c = instances[rng.randrange(len(instances))]
        assert detecting_edges_check(phi, c, walk_inside(rng, c))


def test_criterion_13_closure_level_checks():
    z4 = materialize(CyclicSpec(4, (1, 1)))
    gens = [w("aa")]
    image = subgroup_image(gens, z4)
    index = z4.order // len(image)
    assert index == 2
    aut = closure_at_level(gens, z4)
    assert rank_from_core(aut) == index * (z4.n_letters - 1) + 1 == 3

    frontier, words = [w("")], [w("")]
    for _ in range(6):
        nxt = []
        for u in frontier:
            for letter in range(2):
                for sign in (1, -1):
                    if u.letters and u.letters[-1] == (letter, -sign):
                        continue
                    nxt.append(Word(u.letters + ((letter, sign),)))
        words.extend(nxt)
        frontier = nxt
    for u in words:
        assert member(aut, u) == (z4.evaluate(u) in image)

    s3 = materialize(PermSpec(3, (from_cycles(3, [(0, 1)]),
                                  from_cycles(3, [(1, 2)]))))
    subgroups = [[w("a")], [w("b")]]
    assert product_membership_at_level(w("ab"), subgroups, s3)
    assert not product_membership_at_level(w("ba"), subgroups, s3)
