import random
import time
import tracemalloc
import warnings

import pytest

from constel.errors import VerificationError
from constel.gaschuetz import GaschuetzLayer
from constel.groups import (AbelianQuotient, CyclicSpec, ExtensionSpec,
                            KleinSpec, Morphism, OrderBoundError, PermSpec,
                            ProductSpec, abelianization, canonical_morphism,
                            commutator_subgroup, identity_morphism,
                            materialize, normal_closure,
                            product_A, subgroup_closure, traversal_vector)
from constel.perms import from_cycles
from constel.words import Alphabet, Word, parse_word

A2 = Alphabet.of_size(2)


def w(text: str) -> Word:
    return parse_word(text, A2)


def z2():
    return materialize(CyclicSpec(2, (1, 1)))


def klein():
    return materialize(KleinSpec(((1, 0), (0, 1))))


def s3():
    return materialize(PermSpec(3, (from_cycles(3, [(0, 1)]),
                                    from_cycles(3, [(1, 2)]))))


def test_materialize_orders():
    assert z2().order == 2
    assert klein().order == 4
    assert s3().order == 6
    assert materialize(CyclicSpec(4, (1, 2))).order == 4


def test_materialize_validation():
    with pytest.raises(ValueError):
        materialize(CyclicSpec(4, (2, 2)))  # generates index-2 subgroup
    with pytest.raises(ValueError):
        materialize(KleinSpec(((1, 0), (1, 0))))
    with pytest.raises(ValueError):
        materialize(PermSpec(3, (from_cycles(4, [(0, 1)]),)))
    with pytest.raises(ValueError):
        materialize(CyclicSpec(0, (1,)))


def test_identity_letter_warns():
    with pytest.warns(UserWarning):
        materialize(CyclicSpec(2, (1, 0)))


def test_order_bound():
    with pytest.raises(OrderBoundError):
        materialize(CyclicSpec(100, (1, 1)), bound=10)
    with pytest.raises(OrderBoundError):
        materialize(ExtensionSpec(CyclicSpec(2, (1, 1)), 2, False), bound=10)


def test_cayley_is_complete_and_based_at_identity():
    for g in (z2(), klein(), s3()):
        assert g.cayley.is_complete()
        assert g.cayley.base == 0
        assert g.cayley.n == g.order


def test_evaluate_and_element_order():
    g = s3()
    assert g.evaluate(Word(())) == 0
    assert g.is_identity(w("aa"))
    assert g.is_identity(w("ababab"))  # (01)(12) is a 3-cycle
    assert not g.is_identity(w("ab"))
    assert g.element_order(g.evaluate(w("ab"))) == 3
    assert g.element_order(0) == 1


def test_evaluate_matches_permutation_action():
    g = s3()
    rng = random.Random(31)
    perms = {0: from_cycles(3, [(0, 1)]), 1: from_cycles(3, [(1, 2)])}
    for _ in range(100):
        u = Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                       for _ in range(rng.randrange(8))))
        p = g.elems[g.evaluate(u)]
        q = from_cycles(3, [])
        for letter, sign in u:
            q = q * (perms[letter] if sign > 0 else perms[letter].inverse())
        assert p == q


def check_table_arithmetic(g, mul, inv):
    """mul_idx, inv_idx and left_row on all pairs against products of
    the element objects themselves."""
    for i, x in enumerate(g.elems):
        assert g.elems[g.inv_idx(i)] == inv(x)
        row = g.left_row(i)
        for j, y in enumerate(g.elems):
            assert g.elems[g.mul_idx(i, j)] == mul(x, y) == g.elems[row[j]]


def test_table_arithmetic_of_plain_groups():
    # repeated letter images, and identity letters (which warn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cyclic = [materialize(CyclicSpec(n, images))
                  for n, images in ((6, (1, 2)), (5, (2, 2)), (4, (1, 0, 3)), (1, (0, 0)))]
    for g in cyclic:
        n = g.order
        check_table_arithmetic(g, lambda x, y: (x + y) % n, lambda x: -x % n)
    check_table_arithmetic(klein(), lambda x, y: (x[0] ^ y[0], x[1] ^ y[1]), lambda x: x)
    a4 = materialize(PermSpec(4, (from_cycles(4, [(0, 1, 2)]),
                                  from_cycles(4, [(1, 2, 3)]))))
    for g in (s3(), a4):
        check_table_arithmetic(g, lambda x, y: x * y, lambda x: x.inverse())


def test_table_arithmetic_of_products():
    left, right = s3(), materialize(CyclicSpec(4, (1, 3)))

    def mul(x, y):
        return (left.index[left.elems[x[0]] * left.elems[y[0]]],
                right.index[(right.elems[x[1]] + right.elems[y[1]]) % 4])

    def inv(x):
        return left.index[left.elems[x[0]].inverse()], right.index[-right.elems[x[1]] % 4]

    prod = product_A(left, right)
    assert prod.order == 12
    check_table_arithmetic(prod, mul, inv)


def test_table_arithmetic_of_layers():
    z2 = materialize(CyclicSpec(2, (1, 1)))
    with pytest.warns(UserWarning):
        z2_id = materialize(CyclicSpec(2, (1, 0)))
    # the first case is level 1 of the S3 tower ~2,~2, 192 elements
    for base, p, tilde in ((s3(), 2, True), (klein(), 2, False), (klein(), 3, True),
                           (z2, 3, False), (z2_id, 2, False), (z2_id, 3, True)):
        layer = GaschuetzLayer(base, p, tilde)
        check_table_arithmetic(layer.materialize(), layer.mul, layer.inv)


def test_long_generation_tree_stays_linear():
    """In cyclic(n; a=1, b=1) element k is k letters deep in the
    generation tree, so a per-element word store would hold about n^2/2
    letters (about 100 MiB at n = 5000)."""
    tracemalloc.start()
    try:
        materialize(CyclicSpec(5000, (1, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    n = 100000
    start = time.perf_counter()
    g = materialize(CyclicSpec(n, (1, 1)))
    assert time.perf_counter() - start < 15
    assert g.order == n
    for i, j in ((77777, 99999), (n - 1, n - 1), (0, 54321), (12345, 0)):
        assert g.elems[g.mul_idx(i, j)] == (g.elems[i] + g.elems[j]) % n
    assert [g.elems[g.inv_idx(i)] for i in (0, 1, n // 2, n - 1)] == [0, n - 1, n // 2, 1]
    assert g.element_order(g.index[n // 4]) == 4
    row = g.left_row(g.index[n - 3])
    assert all(g.elems[row[j]] == (n - 3 + g.elems[j]) % n for j in range(0, n, 997))


def dihedral(n: int):
    rot = from_cycles(n, [tuple(range(n))])
    ref = from_cycles(n, [(i, n - i) for i in range(1, (n + 1) // 2)])
    return materialize(PermSpec(n, (rot, ref)))


def permutation_span(g, gens):
    """Subgroup generated by permutation elements, closed by products."""
    span = {0}
    while True:
        bigger = span | {g.index[g.elems[x] * y] for x in span for y in gens}
        if bigger == span:
            return frozenset(span)
        span = bigger


def test_closures_and_quotient_against_permutation_products():
    for g in (s3(), dihedral(12), dihedral(15)):
        elems, index = g.elems, g.index
        brute_derived = permutation_span(
            g, {x * y * x.inverse() * y.inverse() for x in elems for y in elems})
        assert commutator_subgroup(g) == brute_derived
        ref = g.images[1]
        assert normal_closure(g, [ref]) == permutation_span(
            g, {x * elems[ref] * x.inverse() for x in elems})
        rot = g.images[0]
        assert subgroup_closure(g, [ref, rot, 0]) == frozenset(range(g.order))
        assert subgroup_closure(g, [g.mul_idx(rot, rot), ref]) == permutation_span(
            g, {elems[rot] * elems[rot], elems[ref]})
        q = AbelianQuotient(g)
        assert q.order * len(brute_derived) == g.order
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                assert q.coset_of[index[x * y]] == q.mul(q.coset_of[i], q.coset_of[j])
            k, power = 1, x
            while q.coset_of[index[power]] != 0:
                power, k = power * x, k + 1
            assert q.coset_order(q.coset_of[i]) == k
        assert q.quotient.order == q.order == len(set(q.coset_of))
    assert abelianization(dihedral(12)) == [2, 2]
    assert abelianization(dihedral(15)) == [2]


def test_abelianization_of_a_long_cycle():
    start = time.perf_counter()
    z = materialize(CyclicSpec(1000, (1, 1)))
    assert abelianization(z) == [1000]
    assert time.perf_counter() - start < 10
    q = AbelianQuotient(z)
    assert q.eval_vector([-3, 1]) == q.coset_of[z.index[998]]
    assert q.eval_vector([0, -1000]) == 0


def test_evaluate_raises_off_the_cayley_graph(monkeypatch):
    g = s3()
    monkeypatch.setattr(g.cayley, "trace", lambda v, word: None)
    with pytest.raises(VerificationError):
        g.evaluate(w("ab"))


def test_extension_spec_materializes():
    g = materialize(ExtensionSpec(CyclicSpec(2, (1, 1)), 2, True))
    assert g.order == 4
    assert abelianization(g) == [2, 2]


def test_product_A_orders():
    prod = materialize(ProductSpec(CyclicSpec(2, (1, 1)), CyclicSpec(3, (1, 1))))
    assert prod.order == 6
    small = product_A(klein(), z2())
    assert small.order == 4
    with pytest.raises(ValueError):
        product_A(z2(), materialize(CyclicSpec(2, (1,))))


def test_canonical_morphism_projection():
    phi = canonical_morphism(klein(), z2())
    assert phi is not None
    assert sorted(phi.mapping) == [0, 0, 1, 1]
    assert len(phi.kernel()) == 2
    assert phi(0) == 0
    fib = phi.fibers()
    assert sorted(len(v) for v in fib.values()) == [2, 2]
    assert phi.kernel() == tuple(i for i in range(4) if phi(i) == 0)


def test_canonical_morphism_conflict_is_none():
    z4 = materialize(CyclicSpec(4, (1, 1)))
    with pytest.warns(UserWarning):
        z2_skew = materialize(CyclicSpec(2, (1, 0)))
    assert canonical_morphism(z4, z2_skew) is None
    assert canonical_morphism(z4, z2()) is not None


def test_morphism_compose_and_identity():
    g = materialize(ExtensionSpec(CyclicSpec(2, (1, 1)), 2, True))
    base = z2()
    phi = canonical_morphism(g, base)
    assert phi is not None
    both = phi.compose(identity_morphism(base))
    assert both.mapping == phi.mapping
    with pytest.raises(ValueError):
        identity_morphism(base).compose(phi)  # wrong way round


def test_traversal_vector_examples():
    g = z2()
    assert traversal_vector(g, w("ab")) == {(0, 0): 1, (1, 1): 1}
    assert traversal_vector(g, w("aA")) == {}
    assert traversal_vector(g, w("Ab")) == {(1, 0): -1, (1, 1): 1}
    assert traversal_vector(g, w("aa")) == {(0, 0): 1, (1, 0): 1}


def test_traversal_vector_is_flow():
    # signed counts form a flow from the identity to the endpoint
    g = s3()
    rng = random.Random(32)
    for _ in range(200):
        u = Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                       for _ in range(rng.randrange(10))))
        vec = traversal_vector(g, u)
        end = g.evaluate(u)
        net = [0] * g.order
        for (src, letter), c in vec.items():
            dst = g.cayley.fwd[src][letter]
            net[src] -= c
            net[dst] += c
        for v in range(g.order):
            expect = (1 if v == end else 0) - (1 if v == 0 else 0)
            assert net[v] == expect


def test_traversal_vector_letter_sums_are_exponent_sums():
    g = klein()
    rng = random.Random(33)
    for _ in range(100):
        u = Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                       for _ in range(rng.randrange(12))))
        vec = traversal_vector(g, u)
        for a in range(2):
            total = sum(c for (_, letter), c in vec.items() if letter == a)
            assert total == sum(sign for letter, sign in u if letter == a)


def test_subgroup_closure():
    z6 = materialize(CyclicSpec(6, (1, 1)))
    two = z6.index[2]
    assert sorted(z6.elems[i] for i in subgroup_closure(z6, [two])) == [0, 2, 4]
    assert subgroup_closure(z6, []) == frozenset({0})


def test_normal_closure_of_transposition_is_whole_s3():
    g = s3()
    t = g.evaluate(w("a"))
    assert len(normal_closure(g, [t])) == 6
    rot = g.evaluate(w("ab"))
    assert len(normal_closure(g, [rot])) == 3


def test_commutator_subgroup():
    g = s3()
    derived = commutator_subgroup(g)
    assert len(derived) == 3
    assert all(g.element_order(i) in (1, 3) for i in derived)
    assert commutator_subgroup(klein()) == frozenset({0})


def test_abelianization_fixtures():
    assert abelianization(z2()) == [2]
    assert abelianization(klein()) == [2, 2]
    assert abelianization(s3()) == [2]
    assert abelianization(materialize(CyclicSpec(6, (1, 1)))) == [6]
    a4 = materialize(PermSpec(4, (from_cycles(4, [(0, 1, 2)]),
                                  from_cycles(4, [(1, 2, 3)]))))
    assert abelianization(a4) == [3]
    d4 = materialize(PermSpec(4, (from_cycles(4, [(0, 1, 2, 3)]),
                                  from_cycles(4, [(0, 2)]))))
    assert abelianization(d4) == [2, 2]


def test_invariant_factors_divide():
    for g in (s3(), klein(), materialize(CyclicSpec(12, (1, 5)))):
        factors = abelianization(g)
        for small, big in zip(factors, factors[1:]):
            assert big % small == 0


def test_abelian_quotient_arithmetic():
    q = AbelianQuotient(s3())
    assert q.order == 2
    assert q.letter_images[0] == q.letter_images[1] != 0
    assert q.mul(1, 1) == 0
    assert q.eval_vector([1, 1]) == 0
    assert q.eval_vector([1, 0]) == 1
    assert q.eval_vector([-3, 0]) == 1
