import contextlib
import io
import itertools
import math
import random
import re
import warnings

import pytest

import constel.perms
from constel.automata import InverseAutomaton, transition_group
from constel.groups import materialize
from constel.perms import (Permutation, PermSpec, _minimal_block_size, _prime_cycles,
                           alternating_certificate, from_cycles, is_primitive,
                           is_prime, is_transitive, orbit, parse_cycles)


def prime_power_cycle(p):
    """(q, r) with q prime and least so that p**r is a single q-cycle, or None."""
    return next(_prime_cycles([len(c) for c in p.cycles()]), None)


def rand_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


@pytest.mark.parametrize("call, message", [
    (lambda: Permutation((0, 0)), "not a permutation of 0..n-1: (0, 0)"),
    (lambda: PermSpec(3, (from_cycles(2, []),)), "permutation degree mismatch"),
])
def test_malformed_permutations_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()


def test_parity_examples():
    assert from_cycles(5, []).is_even()
    assert not from_cycles(5, [(0, 1)]).is_even()
    assert from_cycles(5, [(0, 1, 2)]).is_even()


def test_parity_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        p, q = rand_perm(rng, 6), rand_perm(rng, 6)
        assert (p * q).is_even() == (p.is_even() == q.is_even())


def test_sign_inverse():
    rng = random.Random(12)
    for _ in range(50):
        p = rand_perm(rng, 7)
        assert p.is_even() == p.inverse().is_even()
        assert (p * p.inverse()) == from_cycles(7, [])


def test_cycle_notation_round_trip():
    p = parse_cycles("(0 1 2)(3 4)", 6)
    assert p.cycles() == [(0, 1, 2), (3, 4), (5,)]
    assert parse_cycles("()", 4) == from_cycles(4, [])
    with pytest.raises(ValueError):
        parse_cycles("(0 1)(1 2)", 4)  # point repeated
    with pytest.raises(ValueError, match="unbalanced cycle notation"):
        parse_cycles("(0 1", 4)  # the CLI's spec parser refuses this before parse_cycles
    with pytest.raises(ValueError):
        parse_cycles("(0 9)", 4)
    for bad in ("(0 1 1)", "(0 0)", "(1)(1 2)"):
        with pytest.raises(ValueError):
            parse_cycles(bad, 3)  # point repeated within or across cycles


def test_transitivity():
    assert is_transitive(PermSpec(3, (from_cycles(3, [(0, 1, 2)]),)))
    assert not is_transitive(PermSpec(3, (from_cycles(3, [(0, 1)]),)))


def brute_orbit(perms, point: int) -> set[int]:
    orb = {point}
    while True:
        grown = orb | {p.images[v] for p in perms for v in orb}
        if grown == orb:
            return orb
        orb = grown


def test_orbit_against_brute_force():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 12)
        perms = tuple(from_cycles(n, [tuple(rng.sample(range(n), rng.randrange(1, n + 1)))])
                      for _ in range(rng.randrange(1, 3)))
        point = rng.randrange(n)
        assert orbit(PermSpec(n, perms), point) == brute_orbit(perms, point)


def test_primitivity_fixtures():
    # regular Z/4: blocks {0,2}
    z4 = PermSpec(4, (from_cycles(4, [(0, 1, 2, 3)]),))
    assert not is_primitive(z4)
    a4 = PermSpec(4, (from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])))
    assert is_primitive(a4)
    # prime degree transitive is always primitive
    z5 = PermSpec(5, (from_cycles(5, [(0, 1, 2, 3, 4)]),))
    assert is_primitive(z5)
    with pytest.raises(ValueError):
        is_primitive(PermSpec(3, (from_cycles(3, [(0, 1)]),)))


def brute_primitive(gens: PermSpec) -> bool:
    """Oracle: no invariant partition into equal blocks of size 1<s<n."""
    n = gens.degree
    if n <= 2:
        return True
    for size in range(2, n):
        if n % size:
            continue
        for parts in _partitions(list(range(n)), size):
            blocks = [frozenset(b) for b in parts]
            if all(frozenset(p(x) for x in b) in blocks
                   for p in gens.images for b in blocks):
                return False
    return True


def _partitions(points, size):
    if not points:
        yield []
        return
    first = points[0]
    for rest in itertools.combinations(points[1:], size - 1):
        block = (first,) + rest
        remaining = [x for x in points if x not in block]
        for more in _partitions(remaining, size):
            yield [block] + more


def test_primitivity_against_oracle():
    rng = random.Random(13)
    for deg in (4, 5, 6):
        for _ in range(8):
            gens = PermSpec(deg, tuple(rand_perm(rng, deg) for _ in range(2)))
            if not is_transitive(gens):
                continue
            assert is_primitive(gens) == brute_primitive(gens), gens


def atkinson_per_point(gens: PermSpec) -> bool:
    """Second oracle: one full Atkinson union-find pass for every point;
    primitive iff each finest invariant partition joining 0 and beta is
    the single class."""
    n = gens.degree
    for beta in range(1, n):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        parent[beta] = 0
        queue = [(0, beta)]
        while queue:
            u, v = queue.pop()
            for p in gens.images:
                x, y = find(p(u)), find(p(v))
                if x != y:
                    parent[y] = x
                    queue.append((x, y))
        if any(find(v) != find(0) for v in range(n)):
            return False
    return True


def random_generators(rng, n: int, k: int, block: int) -> PermSpec:
    """k random generators of degree n.  When 1 < block < n divides n they
    preserve a partition into blocks of that size (elements of
    Sym(block) wr Sym(n/block), relabeled at random); otherwise they are
    uniform permutations or single cycles on random subsets."""
    perms = []
    if 1 < block < n and n % block == 0:
        relabel = list(range(n))
        rng.shuffle(relabel)
        for _ in range(k):
            outer = rng.sample(range(n // block), n // block)
            images = [0] * n
            for i in range(n // block):
                inner = rng.sample(range(block), block)
                for j in range(block):
                    images[relabel[i * block + j]] = relabel[outer[i] * block + inner[j]]
            perms.append(Permutation(tuple(images)))
    else:
        for _ in range(k):
            if rng.random() < 0.5:
                perms.append(rand_perm(rng, n))
            else:
                perms.append(from_cycles(n, [tuple(rng.sample(range(n), rng.randrange(1, n + 1)))]))
    return PermSpec(n, tuple(perms))


def test_primitivity_against_per_point_atkinson():
    rng = random.Random(15)
    outcomes = set()
    for _ in range(300):
        n = rng.randrange(3, 40)
        gens = random_generators(rng, n, rng.randrange(1, 4), rng.randrange(1, n))
        if not is_transitive(gens):
            continue
        primitive = is_primitive(gens)
        assert primitive == atkinson_per_point(gens), gens
        outcomes.add(primitive)
    assert outcomes == {True, False}


def two_subsets_of_sym10() -> PermSpec:
    """Sym(10) acting on its 45 two-element subsets: primitive, and the
    stabilizer of a subset has three orbits (itself, the 16 subsets that
    meet it once, the 28 disjoint from it)."""
    pairs = list(itertools.combinations(range(10), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    gens = []
    for p in (from_cycles(10, [(0, 1)]), from_cycles(10, [tuple(range(10))])):
        gens.append(Permutation(tuple(index[tuple(sorted((p(x), p(y))))] for x, y in pairs)))
    return PermSpec(45, tuple(gens))


def test_primitivity_fixed_cases(monkeypatch):
    cycle = from_cycles(1009, [tuple(range(1009))])
    assert is_primitive(PermSpec(1009, (cycle, cycle)))  # prime degree
    sym10 = two_subsets_of_sym10()
    assert is_transitive(sym10)
    assert is_primitive(sym10) and atkinson_per_point(sym10)
    # a regular group without the prime-degree answer: every Schreier
    # generator is trivial, and each point needs its own block pass
    monkeypatch.setattr(constel.perms, "is_prime", lambda n: False)
    cycle = from_cycles(211, [tuple(range(211))])
    assert is_primitive(PermSpec(211, (cycle, cycle)))
    assert is_primitive(sym10)
    # Sym(6) on ordered pairs keeps the blocks {(i, j), (j, i)}
    ordered = list(itertools.permutations(range(6), 2))
    index = {pair: i for i, pair in enumerate(ordered)}
    gens = tuple(Permutation(tuple(index[p(x), p(y)] for x, y in ordered))
                 for p in (from_cycles(6, [(0, 1)]), from_cycles(6, [tuple(range(6))])))
    assert not is_primitive(PermSpec(30, gens))


def materialized_order(gens: PermSpec) -> int:
    """Order of the generated group, by materializing it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # identity letters warn
        return materialize(gens).order


def sympy_group(gens: PermSpec):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(p.images)) for p in gens.images])


def test_transitivity_and_primitivity_against_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    outcomes = set()

    @hypothesis.settings(max_examples=100, deadline=10000, derandomize=True, database=None)
    @hypothesis.given(st.integers(2, 12), st.integers(1, 3), st.integers(1, 6),
                      st.integers(0, 2 ** 32))
    def check(n, k, block, seed):
        gens = random_generators(random.Random(seed), n, k, block)
        group = sympy_group(gens)
        transitive = is_transitive(gens)
        assert transitive == group.is_transitive()
        if transitive:
            primitive = is_primitive(gens)
            assert primitive == group.is_primitive(randomized=False)
            outcomes.add(primitive)

    check()
    assert outcomes == {True, False}


def test_generated_order_against_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=10000, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3),
                      st.integers(0, 2 ** 32))
    def check(n, k, block, seed):
        gens = random_generators(random.Random(seed), n, k, block)
        assert materialized_order(gens) == sympy_group(gens).order()

    check()


def test_valid_certificates_generate_the_alternating_group():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    valid = []

    @hypothesis.settings(max_examples=100, deadline=10000, derandomize=True, database=None)
    @hypothesis.given(st.integers(5, 12), st.integers(1, 3), st.integers(0, 2 ** 32))
    @hypothesis.example(7, 2, 0)
    def check(n, k, seed):
        rng = random.Random(seed)
        swap = from_cycles(n, [(0, 1)])
        perms = []
        for _ in range(k):
            p = rand_perm(rng, n)
            perms.append(p if p.is_even() else p * swap)
        gens = PermSpec(n, tuple(perms))
        if alternating_certificate(gens).valid():
            assert sympy_group(gens).order() == math.factorial(n) // 2
            valid.append(n)

    check()
    assert len(set(valid)) > 3


def test_prime_power_cycle_fixtures():
    p = from_cycles(9, [(0, 1, 2, 3, 4), (5, 6), (7, 8)])
    assert prime_power_cycle(p) == (5, 2)
    q = from_cycles(5, [(0, 1, 2, 3, 4)])
    assert prime_power_cycle(q) == (5, 1)
    r = from_cycles(6, [(0, 1, 2, 3), (4, 5)])
    assert prime_power_cycle(r) is None


def test_prime_power_cycle_verified_literally():
    rng = random.Random(14)
    for _ in range(100):
        p = rand_perm(rng, 9)
        got = prime_power_cycle(p)
        if got is None:
            continue
        q, r = got
        power = from_cycles(9, [])
        for _ in range(r):
            power = power * p
        lengths = sorted(len(c) for c in power.cycles())
        assert lengths == [1] * (9 - q) + [q], (p, got)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_certificate_z10_imprimitive():
    z10 = PermSpec(10, (from_cycles(10, [tuple(range(10))]),
                        from_cycles(10, [tuple(range(10))])))
    cert = alternating_certificate(z10)
    assert not cert.primitive and not cert.valid()


def test_certificate_a5_gens_fail_cycle_bound():
    # the group is A_5, but q <= n-3 admits no prime cycle at degree 5
    gens = PermSpec(5, (from_cycles(5, [(0, 1, 2)]),
                        from_cycles(5, [(0, 1, 2, 3, 4)])))
    cert = alternating_certificate(gens)
    assert cert.transitive and cert.primitive and cert.all_even
    assert not cert.valid()


def test_certificate_degree_guard():
    with pytest.raises(ValueError):
        alternating_certificate(PermSpec(4, (from_cycles(4, []),)))


def test_valid_certificate_gives_full_alternating_order():
    # degree 7: 7-cycle (even, transitive, prime degree -> primitive)
    # plus a 3-cycle giving q=3 <= 4
    gens = PermSpec(7, (from_cycles(7, [tuple(range(7))]),
                        from_cycles(7, [(0, 1, 2)])))
    cert = alternating_certificate(gens)
    assert cert.valid()
    assert materialized_order(gens) == 2520  # 7!/2


def test_every_certificate_agrees_with_the_materialized_order():
    # Jordan: a primitive group with a prime cycle of length at most n-3
    # contains Alt(n), so it is Alt(n) when every letter is even and
    # Sym(n) otherwise.  The groups are transition groups of permutation
    # automata: the letters of the CLI's a7.aut and odd.aut, then seeded
    # random pairs on 5-7 points.
    rng = random.Random(34)
    cases = [(from_cycles(7, [tuple(range(7))]), from_cycles(7, [(0, 1, 2)])),
             (from_cycles(5, [(0, 1, 2, 3)]), from_cycles(5, [(3, 4)]))]
    for _ in range(300):
        n = rng.randint(5, 7)
        cases.append((rand_perm(rng, n), rand_perm(rng, n)))
    orders = []
    for perms in cases:
        n = perms[0].degree
        aut = InverseAutomaton(n, len(perms), [(v, a, p(v)) for a, p in enumerate(perms)
                                               for v in range(n)], base=0)
        gens = transition_group(aut)
        cert = alternating_certificate(gens)
        if cert.transitive and cert.primitive and cert.prime_cycle is not None:
            order = materialized_order(gens)  # filters the identity-letter warning
            assert order == math.factorial(n) // (2 if cert.valid() else 1), perms
            orders.append((n, order))
    assert orders[:2] == [(7, 2520), (5, 120)]
    assert {order * 2 == math.factorial(n) for n, order in orders[2:]} == {True, False}


def spy_on_is_primitive(monkeypatch):
    """Record the degree of every call that reaches `is_primitive`, so a
    test can see which certificates a prime cycle settled."""
    calls = []

    def counted(g):
        calls.append(g.degree)
        return is_primitive(g)

    monkeypatch.setattr(constel.perms, "is_primitive", counted)
    return calls


def test_prime_cycle_lemma_agrees_with_block_passes_on_completions(monkeypatch, tmp_path):
    # seeded `constel corpus` automata at k = 0, 3 and 11, then cores of
    # random words completed at a random k and parity-repair seed
    from constel.automata import as_inverse_automaton, core_of_words, read_aut, transition_group
    from constel.cli import main
    from constel.completion import complete_to_alternating, smallest_prime_greater
    from constel.words import Word, reduce

    jobs = []
    for seed in (1, 2):
        corpus = tmp_path / str(seed)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["corpus", "--seed", str(seed), "--count", "8",
                         "--dir", str(corpus)]) == 0
        jobs += [(as_inverse_automaton(read_aut(path.read_text())), k, seed)
                 for path in sorted(corpus.iterdir()) for k in (0, 3, 11)]
    rng = random.Random(23)
    while len(jobs) < 60:
        core = core_of_words([reduce(Word(tuple((rng.randrange(2), rng.choice((1, -1)))
                                                for _ in range(rng.randrange(3, 12)))))], 2)
        if core.n >= 3 and not core.is_complete():
            jobs.append((core, rng.randrange(12), rng.randrange(100)))
    calls = spy_on_is_primitive(monkeypatch)
    degrees = set()
    for core, k, seed in jobs:
        n = core.n + smallest_prime_greater(core.n) + 2 + k
        completed, cert, _ = complete_to_alternating(core, n, seed=seed)
        group = transition_group(completed)
        assert is_transitive(group)
        assert cert.primitive == is_primitive(group), (core, k, seed)
        degrees.add(n % 2)
    # the gadget's b-cycle is prime, so no completion reaches is_primitive,
    # of odd degree or even
    assert calls == [] and degrees == {0, 1}


def test_prime_cycle_lemma_agrees_on_random_groups(monkeypatch):
    # random even generators are mostly primitive; random elements of
    # the wreath product Sym(b) wr Sym(n/b) keep the b-blocks, so their
    # groups are imprimitive.  Either kind is drawn, half the time, with
    # no letter holding a prime cycle, and only then is is_primitive called
    calls = spy_on_is_primitive(monkeypatch)
    rng = random.Random(22)
    outcomes = set()
    for _ in range(200):
        n = rng.randrange(5, 41)
        blocks = [d for d in range(2, n) if n % d == 0]
        wreath = bool(blocks) and rng.random() < 0.5
        b = rng.choice(blocks) if wreath else 1
        without_prime_cycle = rng.random() < 0.5

        def draw():
            if wreath:
                order, inner = rand_perm(rng, n // b), [rand_perm(rng, b) for _ in range(n // b)]
                return Permutation(tuple(order(v // b) * b + inner[v // b](v % b)
                                         for v in range(n)))
            p = rand_perm(rng, n)
            return p if p.is_even() else p * from_cycles(n, [(0, 1)])

        perms = []
        while len(perms) < 2:
            p = draw()
            if not without_prime_cycle or prime_power_cycle(p) is None:
                perms.append(p)
        gens = PermSpec(n, tuple(perms))
        if not is_transitive(gens):
            continue
        has_prime_cycle = any(prime_power_cycle(p) is not None for p in perms)
        before = len(calls)
        primitive = alternating_certificate(gens).primitive
        assert primitive == is_primitive(gens), gens
        assert len(calls) == before + (not has_prime_cycle), gens
        outcomes.add((primitive, has_prime_cycle))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_prime_cycle_inside_a_block_is_settled_by_one_block_pass(monkeypatch):
    # the 3-cycle lies in the block {0, 1, 2}; Z6 has no prime cycle
    calls = spy_on_is_primitive(monkeypatch)
    gens = PermSpec(6, (from_cycles(6, [(0, 1, 2)]),
                        from_cycles(6, [(0, 3), (1, 4), (2, 5)])))
    assert prime_power_cycle(gens.images[0]) == (3, 1)
    assert _minimal_block_size(gens, 0, 1)[0] == 3
    cert = alternating_certificate(gens)
    assert cert.transitive and not cert.primitive and not is_primitive(gens)
    assert calls == []
    z6 = PermSpec(6, (from_cycles(6, [tuple(range(6))]),) * 2)
    assert not alternating_certificate(z6).primitive and calls == [6]


def brute_blocks(gens: PermSpec) -> list[frozenset]:
    """Oracle: every subset B with 1 < |B| < n whose images under the
    group are pairwise equal or disjoint, found by trying them all."""
    n = gens.degree
    blocks = []
    for size in range(2, n):
        for subset in itertools.combinations(range(n), size):
            images = {frozenset(subset)}
            queue = list(images)
            while queue:
                block = queue.pop()
                for p in gens.images:
                    image = frozenset(p(v) for v in block)
                    if image not in images:
                        images.add(image)
                        queue.append(image)
            if sum(map(len, images)) == len(set().union(*images)):
                blocks.append(frozenset(subset))
    return blocks


def wreath_product(b: int, m: int) -> PermSpec:
    """Sym(b) wr Sym(m) on the blocks {ib, ..., ib + b - 1}: a transposition
    and a b-cycle inside the first block, a swap and an m-cycle of blocks."""
    n = b * m
    blocks = [[i * b + j for j in range(b)] for i in range(m)]
    return PermSpec(n, (
        from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(blocks[0])]),
        from_cycles(n, list(zip(blocks[0], blocks[1]))),
        from_cycles(n, [tuple(blocks[i][j] for i in range(m)) for j in range(b)])))


def test_minimal_block_size_against_brute_force():
    rng = random.Random(27)
    cases = [wreath_product(b, m) for b, m in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3))]
    while len(cases) < 40:
        n = rng.randrange(4, 10)
        gens = random_generators(rng, n, rng.randrange(1, 4), rng.randrange(1, n))
        if is_transitive(gens):
            cases.append(gens)
    sizes = set()
    for gens in cases:
        blocks = brute_blocks(gens)
        for x, y in itertools.permutations(range(gens.degree), 2):
            size = _minimal_block_size(gens, x, y)[0]
            assert size == min((len(b) for b in blocks if x in b and y in b),
                               default=gens.degree), (gens, x, y)
            sizes.add(size < gens.degree)
    assert sizes == {True, False}


def test_s3_completion_is_certified_without_block_passes(monkeypatch):
    # is_primitive is refused: the reported prime cycle on letter a, of
    # 193 points at n = 1755 and 7 at the even n = 1758, settles primitivity
    from constel.completion import complete_to_alternating, smallest_prime_greater
    from constel.constellations import assemble_AG

    def refuse(g):
        raise AssertionError("is_primitive ran")

    ag = assemble_AG(materialize(PermSpec(3, (from_cycles(3, [(0, 1)]),
                                              from_cycles(3, [(1, 2)])))))
    monkeypatch.setattr(constel.perms, "is_primitive", refuse)
    for k, prime_cycle in ((0, (193, 12, 0)), (3, (7, 1158, 0))):
        n = ag.n + smallest_prime_greater(ag.n) + 2 + k
        _, cert, plan = complete_to_alternating(ag, n)
        assert (n, plan.q, plan.b) == (1755 + k, 877, 1)
        assert cert.valid() and cert.prime_cycle == prime_cycle


def count_cycle_splits(monkeypatch):
    """The permutations that Permutation.cycles is called on, in order."""
    calls = []
    cycles = Permutation.cycles

    def counted(self):
        calls.append(self)
        return cycles(self)

    monkeypatch.setattr(Permutation, "cycles", counted)
    return calls


def test_certificate_splits_each_letter_into_cycles_once(monkeypatch):
    # all_even and the reported prime cycle against the per-permutation
    # is_even and prime_power_cycle, on transitive and intransitive groups
    # with one to three letters, prime cycles and block passes alike
    rng = random.Random(25)
    cases = [PermSpec(6, (from_cycles(6, [(0, 1, 2)]),
                          from_cycles(6, [(0, 3), (1, 4), (2, 5)])))]
    for _ in range(60):
        n = rng.randrange(5, 16)
        cases.append(PermSpec(n, tuple(rand_perm(rng, n)
                                       for _ in range(rng.randrange(1, 4)))))
    outcomes = set()
    for gens in cases:
        n = gens.degree
        all_even = all(p.is_even() for p in gens.images)
        prime_cycle = next(((*found, letter) for letter, found in
                            enumerate(map(prime_power_cycle, gens.images))
                            if found is not None and found[0] <= n - 3), None)
        calls = count_cycle_splits(monkeypatch)
        cert = alternating_certificate(gens)
        monkeypatch.undo()
        assert calls == list(gens.images), gens
        assert (cert.all_even, cert.prime_cycle) == (all_even, prime_cycle), gens
        assert cert.primitive == (cert.transitive and is_primitive(gens)), gens
        outcomes.add((all_even, prime_cycle is not None, cert.transitive))
    assert len(outcomes) == 8


def test_completion_splits_at_most_seven_letters_into_cycles(monkeypatch, tmp_path):
    # a seeded `constel corpus` automaton on two letters: one parity check
    # per letter while closing it, the evenness self-check per letter, the
    # b-cycle self-check, and one split per letter in the certificate
    from constel.automata import as_inverse_automaton, read_aut
    from constel.cli import main
    from constel.completion import complete_to_alternating, smallest_prime_greater

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus", "--seed", "1", "--count", "1", "--dir", str(tmp_path)]) == 0
    (path,) = tmp_path.iterdir()
    core = as_inverse_automaton(read_aut(path.read_text()))
    assert core.n_letters == 2
    n = core.n + smallest_prime_greater(core.n) + 2
    calls = count_cycle_splits(monkeypatch)
    _, cert, _ = complete_to_alternating(core, n)
    assert cert.valid()
    assert len(calls) <= 7
