import random
import time
import tracemalloc
import warnings
from math import prod

import pytest

import constel.groups
from constel.automata import BfsTree, tree_word
from constel.errors import VerificationError
from constel.gaschuetz import GaschuetzLayer
from constel.groups import (DEFAULT_BOUND, CyclicSpec, ExtensionSpec, KleinSpec,
                            OrderBoundError, PermSpec, ProductSpec,
                            _smith_diagonal, abelian_relations, abelianization,
                            canonical_morphism, coset_walk, identity_morphism,
                            materialize, parse_int, product_A, subgroup_closure,
                            table_automaton, traversal_vector)
from constel.perms import from_cycles
from constel.words import Word
from group_elements import (S3_GENS, cayley_rows, element_list, klein, layer_generators,
                            oracle_table, s3, sample_groups, w, z2)


def perm_group(gens):
    """A permutation group with its rebuilt element list and index."""
    degree = gens[0].degree
    g = materialize(PermSpec(degree, tuple(gens)))
    return (g, *element_list(g, from_cycles(degree, []), gens, lambda x, y: x * y))


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


def test_table_automaton_needs_permuting_columns():
    aut = table_automaton([[1, 0], [0, 1]], 2)
    assert aut.pos_edges() == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    assert aut.bwd == [[1, 0], [0, 1]]
    # a repeated vertex, one out of range, and a column shorter than n
    for columns in ([[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0], [0]]):
        with pytest.raises(ValueError, match="not folded"):
            table_automaton(columns, 2)


def test_identity_letter_warns():
    with pytest.warns(UserWarning):
        materialize(CyclicSpec(2, (1, 0)))


def test_order_bound(monkeypatch):
    # orders known up front are refused before any element is generated
    with pytest.raises(OrderBoundError, match="exceeds the bound"):
        materialize(CyclicSpec(DEFAULT_BOUND + 1, (1,)))
    with pytest.raises(OrderBoundError, match="exceeds the bound"):
        materialize(ExtensionSpec(CyclicSpec(16, (1, 1)), 2, False))  # order 2,097,152
    # other orders are refused by the generation, at the bound read when it runs
    monkeypatch.setattr(constel.groups, "DEFAULT_BOUND", 6)
    assert materialize(PermSpec(3, S3_GENS)).order == 6
    monkeypatch.setattr(constel.groups, "DEFAULT_BOUND", 5)
    with pytest.raises(OrderBoundError, match="element count 6 exceeds the bound 5"):
        materialize(PermSpec(3, S3_GENS))
    with pytest.raises(OrderBoundError):
        materialize(ProductSpec(CyclicSpec(2, (1, 1)), CyclicSpec(3, (1, 1))))


@pytest.mark.parametrize("text", ["1" + "0" * 5000, "1_" + "0" * 5000, "\u0661" * 5001,
                                  " -" + "0_" * 3000 + "7" * 5001 + " "])
def test_parse_int_refuses_every_form_past_the_digit_limit_by_size(text):
    # 5001 significant digits, past Python's int-to-str limit of 4300,
    # whatever the script, underscores and leading zeros
    with pytest.raises(OrderBoundError) as caught:
        parse_int(text, "n")
    assert str(caught.value) == "n >= 2^16609 exceeds the bound %d" % DEFAULT_BOUND


def test_parse_int_reads_leading_zeros_of_any_script_past_the_digit_limit():
    assert parse_int("\u0660" * 5000 + "\u0663", "n") == 3
    assert parse_int("0_" * 5000 + "42", "n") == 42
    assert parse_int("-" + "0" * 5000, "n") == 0
    with pytest.raises(ValueError, match="is not an integer"):
        parse_int("0" * 5000 + "x", "n")


def test_cayley_is_complete_and_based_at_identity():
    for g in (z2(), klein(), s3()):
        assert g.cayley.is_complete()
        assert g.cayley.base == 0
        assert g.cayley.n == g.order


@pytest.mark.parametrize("spec", [
    CyclicSpec(6, (1, 1)), KleinSpec(((1, 0), (0, 1))), PermSpec(3, S3_GENS),
    PermSpec(4, (from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 2)]))),
], ids=["z6", "klein", "s3", "d4"])
def test_the_oracle_numbers_groups_as_materialize_does(spec):
    # every test that compares element indices with perfbench/oracle.py
    # relies on this shared BFS numbering
    assert oracle_table(spec).fwd == cayley_rows(materialize(spec))


def test_evaluate_and_element_order():
    g = s3()
    assert g.evaluate(Word(())) == 0
    assert g.is_identity(w("aa"))
    assert g.is_identity(w("ababab"))  # (01)(12) is a 3-cycle
    assert not g.is_identity(w("ab"))
    assert g.element_order(g.evaluate(w("ab"))) == 3
    assert g.element_order(0) == 1


def test_evaluate_matches_permutation_action():
    g, elems, _ = perm_group(S3_GENS)
    rng = random.Random(31)
    for _ in range(100):
        u = Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                       for _ in range(rng.randrange(8))))
        p = elems[g.evaluate(u)]
        q = from_cycles(3, [])
        for letter, sign in u:
            q = q * (S3_GENS[letter] if sign > 0 else S3_GENS[letter].inverse())
        assert p == q


def check_table_arithmetic(g, identity, images, mul, inv):
    """mul_idx, inv_idx and left_row on all pairs against products of
    the element objects themselves."""
    elems, _ = element_list(g, identity, images, mul)
    for i, x in enumerate(elems):
        assert elems[g.inv_idx(i)] == inv(x)
        row = g.left_row(i)
        for j, y in enumerate(elems):
            assert elems[g.mul_idx(i, j)] == mul(x, y) == elems[row[j]]


def test_table_arithmetic_of_plain_groups():
    # repeated letter images, and identity letters (which warn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cyclic = [(materialize(CyclicSpec(n, images)), images)
                  for n, images in ((6, (1, 2)), (5, (2, 2)), (4, (1, 0, 3)), (1, (0, 0)))]
    for g, images in cyclic:
        n = g.order
        check_table_arithmetic(g, 0, images, lambda x, y: (x + y) % n, lambda x: -x % n)
    check_table_arithmetic(klein(), (0, 0), ((1, 0), (0, 1)),
                           lambda x, y: (x[0] ^ y[0], x[1] ^ y[1]), lambda x: x)
    a4_gens = (from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)]))
    for gens in (S3_GENS, a4_gens):
        g = materialize(PermSpec(gens[0].degree, gens))
        check_table_arithmetic(g, from_cycles(gens[0].degree, []), gens,
                               lambda x, y: x * y, lambda x: x.inverse())


def test_perm_spec_materializes_as_permutation_products():
    # the reference steps on Permutation objects; materialize on image tuples
    cases = ((3, [[(0, 1)], [(1, 2)]], 6),  # S3
             (4, [[(0, 1), (2, 3)], [(1, 2, 3)]], 12),  # A4
             (4, [[(0, 1)], [(0, 1, 2, 3)]], 24),  # S4
             (4, [[(0, 1, 2, 3)], [(0, 2)]], 8))  # D4
    for degree, gens, order in cases:
        images = tuple(from_cycles(degree, c) for c in gens)
        g = materialize(PermSpec(degree, images))
        want = constel.groups._generate(len(images), from_cycles(degree, []),
                                        lambda x, a: x * images[a])
        assert g.order == want.order == order
        assert g.cayley.fwd == want.cayley.fwd
        assert (g._parent, g._letter) == (want._parent, want._letter)


def test_table_arithmetic_of_products():
    left, l_elems, l_index = perm_group(S3_GENS)
    right = materialize(CyclicSpec(4, (1, 3)))
    r_elems, r_index = element_list(right, 0, (1, 3), lambda x, y: (x + y) % 4)

    def mul(x, y):
        return (l_index[l_elems[x[0]] * l_elems[y[0]]],
                r_index[(r_elems[x[1]] + r_elems[y[1]]) % 4])

    def inv(x):
        return l_index[l_elems[x[0]].inverse()], r_index[-r_elems[x[1]] % 4]

    prod = product_A(left, right)
    assert prod.order == 12
    images = [(left.images[a], right.images[a]) for a in range(2)]
    check_table_arithmetic(prod, (0, 0), images, mul, inv)


def test_table_arithmetic_of_layers():
    z2 = materialize(CyclicSpec(2, (1, 1)))
    with pytest.warns(UserWarning):
        z2_id = materialize(CyclicSpec(2, (1, 0)))
    # the first case is level 1 of the S3 tower ~2,~2, 192 elements
    for base, p, tilde in ((s3(), 2, True), (klein(), 2, False), (klein(), 3, True),
                           (z2, 3, False), (z2_id, 2, False), (z2_id, 3, True)):
        layer = GaschuetzLayer(base, p, tilde)
        check_table_arithmetic(layer.materialize(), *layer_generators(layer), layer.mul,
                               layer.inv)


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
    elems, index = element_list(g, 0, (1, 1), lambda x, y: (x + y) % n)
    for i, j in ((77777, 99999), (n - 1, n - 1), (0, 54321), (12345, 0)):
        assert elems[g.mul_idx(i, j)] == (elems[i] + elems[j]) % n
    assert [elems[g.inv_idx(i)] for i in (0, 1, n // 2, n - 1)] == [0, n - 1, n // 2, 1]
    assert g.element_order(index[n // 4]) == 4
    row = g.left_row(index[n - 3])
    assert all(elems[row[j]] == (n - 3 + elems[j]) % n for j in range(0, n, 997))


def test_cayley_automaton_is_one_column_per_letter():
    """A materialized group keeps its letter action as n_letters lists of
    length n in each direction.  Two dicts per element held about 51 MiB
    at n = 100000; the four columns and the generation tree hold about 10."""
    n = 100000
    tracemalloc.start()
    try:
        g = materialize(CyclicSpec(n, (1, 1)))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 25 * 2 ** 20
    fwd, bwd = g.cayley.fwd, g.cayley.bwd
    for columns in (fwd, bwd):
        assert len(columns) == g.n_letters == 2
        assert all(type(col) is list and len(col) == n for col in columns)
    assert all(bwd[a][fwd[a][v]] == v for a in range(2) for v in range(n))


def dihedral_gens(n: int):
    rot = from_cycles(n, [tuple(range(n))])
    ref = from_cycles(n, [(i, n - i) for i in range(1, (n + 1) // 2)])
    return rot, ref


def dihedral(n: int):
    return materialize(PermSpec(n, dihedral_gens(n)))


def permutation_span(index, gens):
    """Subgroup generated by permutation elements, closed by products."""
    elems = {i: x for x, i in index.items()}
    span = {0}
    while True:
        bigger = span | {index[elems[x] * y] for x in span for y in gens}
        if bigger == span:
            return frozenset(span)
        span = bigger


# --- reference for `abelian_relations`: the derived subgroup and its
# normal closure by element products alone, and the relations read off
# the coset graph of [g,g]

def normal_closure(g, gens) -> frozenset[int]:
    """Subgroup generated by the conjugates of gens under the letter
    images (which generate g), closed under products."""
    conjugates, todo = set(gens), list(gens)
    while todo:
        x = todo.pop()
        for img in g.images:
            y = g.mul_idx(g.mul_idx(img, x), g.inv_idx(img))
            if y not in conjugates:
                conjugates.add(y)
                todo.append(y)
    members, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for c in conjugates:
            y = g.mul_idx(x, c)
            if y not in members:
                members.add(y)
                todo.append(y)
    return frozenset(members)


def derived_subgroup(g) -> frozenset[int]:
    """[g,g]: the normal closure of the commutators of letter images."""
    comms = [g.mul_idx(g.mul_idx(g.mul_idx(x, y), g.inv_idx(x)), g.inv_idx(y))
             for x in g.images for y in g.images]
    return normal_closure(g, comms)


def coset_relations(g, derived) -> list[tuple[int, ...]]:
    """One row per edge (c, a) of the coset graph of [g,g]: the letter
    counts of the BFS tree path to c, then a, then the tree path back
    from c.a; zero and repeated rows dropped."""
    _, columns = coset_walk(g, derived)
    n = len(columns[0])
    tree = BfsTree(table_automaton(columns, n), 0, forward_only=True).grow()
    counts = []
    for c in range(n):
        v = [0] * g.n_letters
        for letter, _ in tree_word(tree, c):
            v[letter] += 1
        counts.append(v)
    rows = {}
    for c, row in enumerate(zip(*columns)):
        for a, d in enumerate(row):
            r = tuple(x - y + (i == a) for i, (x, y) in enumerate(zip(counts[c], counts[d])))
            if any(r):
                rows[r] = None
    return list(rows)


def test_closures_and_quotient_against_permutation_products():
    for gens in (S3_GENS, dihedral_gens(12), dihedral_gens(15)):
        g, elems, index = perm_group(gens)
        brute_derived = permutation_span(
            index, {x * y * x.inverse() * y.inverse() for x in elems for y in elems})
        assert derived_subgroup(g) == brute_derived
        ref = g.images[1]
        assert normal_closure(g, [ref]) == permutation_span(
            index, {x * elems[ref] * x.inverse() for x in elems})
        rot = g.images[0]
        assert subgroup_closure(g, [ref, rot, 0]) == frozenset(range(g.order))
        assert subgroup_closure(g, [g.mul_idx(rot, rot), ref]) == permutation_span(
            index, {elems[rot] * elems[rot], elems[ref]})
        coset_of, columns = coset_walk(g, brute_derived)
        n = len(columns[0])
        assert n * len(brute_derived) == g.order
        assert len(set(coset_of)) == n
        quotient = table_automaton(columns, n)
        tree = BfsTree(g.cayley, 0, forward_only=True).grow()
        words = [tree_word(tree, j) for j in range(g.order)]
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                assert coset_of[index[x * y]] == quotient.trace(coset_of[i], words[j])
            k, power = 1, x
            while coset_of[index[power]] != 0:
                power, k = power * x, k + 1
            c, m = coset_of[i], 1
            while c != 0:
                c, m = quotient.trace(c, words[i]), m + 1
            assert m == k
    assert abelianization(dihedral(12)) == [2, 2]
    assert abelianization(dihedral(15)) == [2]


def test_abelianization_of_a_long_cycle():
    start = time.perf_counter()
    z = materialize(CyclicSpec(1000, (1, 1)))
    assert abelianization(z) == [1000]
    assert time.perf_counter() - start < 10
    _, index = element_list(z, 0, (1, 1), lambda x, y: (x + y) % 1000)
    coset_of, columns = coset_walk(z, derived_subgroup(z))
    quotient = table_automaton(columns, len(columns[0]))
    assert quotient.trace(0, w("AAAb")) == coset_of[index[998]]
    assert quotient.trace(0, Word(((1, -1),) * 1000)) == 0


def test_unknown_spec_is_a_type_error():
    with pytest.raises(TypeError, match="^unknown group spec 'x'$"):
        materialize("x")


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
    assert traversal_vector(g.cayley, w("ab")) == {(0, 0): 1, (1, 1): 1}
    assert traversal_vector(g.cayley, w("aA")) == {}
    assert traversal_vector(g.cayley, w("Ab")) == {(1, 0): -1, (1, 1): 1}
    assert traversal_vector(g.cayley, w("aa")) == {(0, 0): 1, (1, 0): 1}


def test_traversal_vector_is_flow():
    # signed counts form a flow from the identity to the endpoint
    g = s3()
    rng = random.Random(32)
    for _ in range(200):
        u = Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                       for _ in range(rng.randrange(10))))
        vec = traversal_vector(g.cayley, u)
        end = g.evaluate(u)
        net = [0] * g.order
        for (src, letter), c in vec.items():
            dst = g.cayley.fwd[letter][src]
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
        vec = traversal_vector(g.cayley, u)
        for a in range(2):
            total = sum(c for (_, letter), c in vec.items() if letter == a)
            assert total == sum(sign for letter, sign in u if letter == a)


def test_subgroup_closure():
    z6 = materialize(CyclicSpec(6, (1, 1)))
    elems, index = element_list(z6, 0, (1, 1), lambda x, y: (x + y) % 6)
    assert sorted(elems[i] for i in subgroup_closure(z6, [index[2]])) == [0, 2, 4]
    assert subgroup_closure(z6, []) == frozenset({0})


def test_normal_closure_of_transposition_is_whole_s3():
    g = s3()
    t = g.evaluate(w("a"))
    assert len(normal_closure(g, [t])) == 6
    rot = g.evaluate(w("ab"))
    assert len(normal_closure(g, [rot])) == 3


def test_commutator_subgroup():
    g = s3()
    derived = derived_subgroup(g)
    assert len(derived) == 3
    assert all(g.element_order(i) in (1, 3) for i in derived)
    assert derived_subgroup(klein()) == frozenset({0})


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
    g = s3()
    coset_of, columns = coset_walk(g, derived_subgroup(g))
    assert columns == [[1, 0], [1, 0]]
    assert coset_of[g.images[0]] == coset_of[g.images[1]] != 0
    quotient = table_automaton(columns, 2)
    assert quotient.trace(0, w("aa")) == quotient.trace(0, w("ab")) == 0
    assert quotient.trace(0, w("a")) == quotient.trace(0, w("AAA")) == 1
    # the non-tree edges (0, b), (1, a) and (1, b) of the coset graph
    assert coset_relations(g, derived_subgroup(g)) == [(-1, 1), (2, 0), (1, 1)]
    # the cycles of Gamma(S3) that close its generation tree 1, a, b, ab,
    # ba, aba: a.a = 1, b.b = 1, ba.b = aba and aba.b = ba
    assert abelian_relations(g) == [(2, 0), (0, 2), (-1, 1), (1, 1)]


def test_cycle_rows_span_the_coset_graph_lattice():
    # lattice equality, not just equal quotients: stacking either row set
    # onto the other keeps the index of the lattice it spans
    for name, g in sample_groups():
        cycle_rows = abelian_relations(g)
        coset_rows = coset_relations(g, derived_subgroup(g))
        both = _smith_diagonal(cycle_rows + coset_rows, g.n_letters)
        for rows in (cycle_rows, coset_rows):
            diag = _smith_diagonal(rows, g.n_letters)
            assert len(diag) == len(both) == g.n_letters, name
            assert prod(diag) == prod(both), name


def factors_from_order_counts(order: int, elem_orders: list[int]) -> list[int]:
    """Invariant factors of a finite abelian group from its element orders.

    For each prime p the counts n_j = #{x : x^(p^j) = 1} = p^(f_j) recover
    the conjugate of the partition of p-exponents via f_j - f_(j-1);
    factors are assembled largest-with-largest across primes.
    """
    if order == 1:
        return []
    primes = [d for d in range(2, order + 1)
              if order % d == 0 and all(d % e for e in range(2, d))]
    partitions: dict[int, list[int]] = {}
    for p in primes:
        conj: list[int] = []
        prev = 0
        j = 1
        while True:
            n_j = sum(1 for o in elem_orders if p ** j % o == 0)
            f_j = 0
            while n_j > 1:
                n_j //= p
                f_j += 1
            if f_j == prev:
                break
            conj.append(f_j - prev)
            prev = f_j
            j += 1
        partitions[p] = [sum(1 for c in conj if c >= i) for i in range(1, conj[0] + 1)]
    width = max(len(parts) for parts in partitions.values())
    factors = []
    for rank in range(width):
        d = 1
        for p, parts in partitions.items():
            if rank < len(parts):
                d *= p ** parts[rank]
        factors.append(d)
    return sorted(factors)


def order_count_abelianization(g) -> list[int]:
    """Invariant factors of g/[g,g] from the order of each coset of
    [g,g], with cosets and powers taken by element products.  Kept beside
    O.abelianization, which reduces relation rows by gcd minors."""
    derived = derived_subgroup(g)
    orders, seen = [], set()
    for x in range(g.order):
        if x in seen:
            continue
        seen.update(g.mul_idx(d, x) for d in derived)
        k, y = 1, x
        while y not in derived:
            y, k = g.mul_idx(y, x), k + 1
        orders.append(k)
    return factors_from_order_counts(len(orders), orders)


def test_abelianization_matches_order_counts():
    groups = sample_groups()
    assert len(groups) >= 80
    for name, g in groups:
        assert abelianization(g) == order_count_abelianization(g), name


def test_smith_diagonal_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 4).flatmap(lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.lists(st.integers(-30, 30), min_size=ncols, max_size=ncols),
                 min_size=1, max_size=6))))
    def check(case):
        ncols, rows = case
        want = normalforms.invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        assert _smith_diagonal(rows, ncols) == [abs(int(d)) for d in want if d]

    check()
