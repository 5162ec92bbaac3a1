import random
import warnings

import pytest

import constel.closure
from constel.automata import (InverseAutomaton, core_of_words, embed_check,
                              member, rank_from_core, write_aut)
from constel.closure import (closure_at_level, closure_chain,
                             extendible_at_level, product_membership_at_level,
                             schreier_graph, subgroup_image)
from constel.errors import VerificationError
from constel.gaschuetz import TowerSpec
from constel.groups import CyclicSpec, KleinSpec, materialize
from constel.words import Word, concat, power
from group_elements import s3, w


def z4():
    return materialize(CyclicSpec(4, (1, 1)))


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


def test_subgroup_image():
    g = z4()
    assert subgroup_image([w("aa")], g) == frozenset({0, 2})
    assert subgroup_image([w("a")], g) == frozenset(range(4))
    assert subgroup_image([], g) == frozenset({0})


def test_schreier_graph_of_index_two_subgroup():
    aut, coset_of = schreier_graph(z4(), {0, 2})
    assert aut.n == 2 and aut.base == 0 and aut.is_complete()
    assert coset_of == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        schreier_graph(z4(), {1, 3})


def test_closure_fixtures():
    g = z4()
    cl = closure_at_level([w("aa")], g)
    assert write_aut(cl) == ("edge 0 a 1\nedge 0 b 1\nedge 1 a 0\n"
                             "edge 1 b 0\nbase 0\n")
    assert rank_from_core(cl) == 3
    assert closure_at_level([w("a")], g).n == 1  # bouquet
    assert closure_at_level([], g).n == 4  # regular representation


def test_closure_language_is_level_membership():
    for group, gens in ((z4(), [w("aa")]),
                        (materialize(KleinSpec(((1, 0), (0, 1)))), [w("ab")]),
                        (s3(), [w("ab")])):
        cl = closure_at_level(gens, group)
        image = subgroup_image(gens, group)
        for u in enumerate_reduced(6):
            assert member(cl, u) == (group.evaluate(u) in image), u


def test_extendible_fixtures():
    g = materialize(CyclicSpec(4, (1, 2)))
    ok, psi = extendible_at_level(core_of_words([w("aa"), w("b")], 2), g)
    assert ok and psi.n == 2
    ok, psi = extendible_at_level(g.cayley, g)
    assert ok and psi.n == 4
    edge = InverseAutomaton(2, 2, [(0, 0, 1)], 0)
    ok, psi = extendible_at_level(edge, g)
    assert ok and psi.n == 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        skew = materialize(CyclicSpec(2, (0, 1)))
    # the letter folds onto the identity, so the edge collapses
    ok, psi = extendible_at_level(edge, skew)
    assert not ok and psi.n == 1


def test_extendible_needs_base():
    with pytest.raises(ValueError):
        extendible_at_level(InverseAutomaton(1, 2, [], None), z4())


def test_extendible_agrees_with_embedding_into_the_coset_graph():
    g = materialize(CyclicSpec(4, (1, 2)))
    cases = [
        (core_of_words([w("aa"), w("b")], 2), {0, 2}),
        (InverseAutomaton(2, 2, [(0, 0, 1)], 0), {0}),
        (core_of_words([w("abab")], 2), {0, 3}),
    ]
    for a, t_set in cases:
        sigma, _ = schreier_graph(g, t_set)
        via_embed = embed_check(a, sigma, 0) is not None
        assert extendible_at_level(a, g)[0] == via_embed


def test_product_membership():
    g = s3()
    subgroups = [[w("a")], [w("b")]]
    assert product_membership_at_level(w("ab"), subgroups, g)
    assert not product_membership_at_level(w("ba"), subgroups, g)
    assert product_membership_at_level(w(""), subgroups, g)
    # a third factor makes the product the whole group
    assert product_membership_at_level(w("ba"), subgroups + [[w("a")]], g)


def test_product_membership_accepts_literal_products():
    g = s3()
    rng = random.Random(71)
    factors = [[w("ab")], [w("b")]]
    for _ in range(50):
        u = concat(power(w("ab"), rng.randrange(-3, 4)), power(w("b"), rng.randrange(-3, 4)))
        assert product_membership_at_level(u, factors, g)


def test_closure_chain_fixtures():
    spec = TowerSpec(CyclicSpec(2, (1, 1)), ((2, True), (2, True)))
    assert closure_chain(w("a"), [w("aa")], spec) == [False, False, False]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        skew_spec = TowerSpec(CyclicSpec(2, (0, 1)), ((2, True),))
        assert closure_chain(w("a"), [w("aa")], skew_spec) == [True, False]
    pow_spec = TowerSpec(CyclicSpec(2, (1, 1)), ((2, True), (3, True)))
    assert closure_chain(w("aaaa"), [w("a")], pow_spec) == [True, True, True]


def test_closure_chain_is_nonincreasing():
    rng = random.Random(72)
    spec = TowerSpec(CyclicSpec(2, (1, 1)), ((2, True), (2, True)))
    for _ in range(30):
        u = Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                       for _ in range(rng.randrange(8))))
        gens = [Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                           for _ in range(rng.randrange(1, 5))))]
        chain = closure_chain(u, gens, spec)  # asserts internally
        assert len(chain) == 3
        for earlier, later in zip(chain, chain[1:]):
            assert earlier or not later


def test_closure_chain_checks_monotonicity(monkeypatch):
    answers = iter([False, True, True])
    monkeypatch.setattr(constel.closure, "member", lambda aut, word: next(answers))
    spec = TowerSpec(CyclicSpec(2, (1, 1)), ((2, True), (2, True)))
    with pytest.raises(VerificationError):
        closure_chain(w("a"), [w("aa")], spec)
