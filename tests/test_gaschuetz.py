import random
import sys
import time
import tracemalloc

import pytest

import constel.gaschuetz
from constel.dissolve import dissolve_all, schreier_rank_check
from constel.errors import VerificationError
from constel.gaschuetz import (GaschuetzElement, GaschuetzLayer, TowerSpec,
                               build_tower, center, coprime_structure_checks,
                               layer_abelianization, order_formula)
from constel.groups import (CyclicSpec, KleinSpec, OrderBoundError, PermSpec, abelian_relations,
                            abelianization, canonical_morphism, materialize,
                            subgroup_closure, traversal_vector)
from constel.perms import from_cycles
from constel.words import Word, concat, invert, parse_word
import oracle as O
from group_elements import (S3_GENS, cayley_rows, element_list, klein, layer_generators,
                            oracle_table, s3, sample_groups, str_word, w, z2)


def random_word(rng, max_len=12, n_letters=2):
    return Word(tuple((rng.randrange(n_letters), rng.choice((1, -1)))
                      for _ in range(rng.randrange(max_len + 1))))


def test_dense_alpha_matches_traversal_vector():
    """Entry h*|A|+a of alpha is the signed traversal count of the Cayley
    edge (h, a) mod p; tilde layers subtract the count of (1, a)."""
    rng = random.Random(44)
    for base in (z2(), klein(), s3()):
        n_letters = base.n_letters
        for p, tilde in ((2, False), (3, False), (2, True), (3, True)):
            layer = GaschuetzLayer(base, p, tilde)
            for _ in range(30):
                u = random_word(rng)
                counts = traversal_vector(base.cayley, u)
                want = []
                for h in range(base.order):
                    for a in range(n_letters):
                        c = counts.get((h, a), 0)
                        if tilde:
                            c -= counts.get((0, a), 0)
                        want.append(c % p)
                x = layer.evaluate(u)
                assert x.alpha == tuple(want) and x.g == base.evaluate(u)


class DenseOracle:
    """Layer arithmetic straight from the definition, (alpha, g)(beta, h)
    = (alpha + g.beta, gh), with every base product taken from the
    element objects instead of the base's tables."""

    def __init__(self, layer, base_identity, base_images, base_mul, base_inv):
        self.layer, self.base_mul, self.base_inv = layer, base_mul, base_inv
        self.elems, self.index = element_list(layer.base, base_identity, base_images, base_mul)

    def _base(self, x, y):
        return self.index[self.base_mul(self.elems[x], self.elems[y])]

    def _norm(self, alpha, g):
        k = self.layer.n_letters
        if self.layer.tilde:
            alpha = [c - alpha[i % k] for i, c in enumerate(alpha)]
        return GaschuetzElement(tuple(c % self.layer.p for c in alpha), g)

    def _shift(self, g, alpha):
        k = self.layer.n_letters
        out = [0] * len(alpha)
        for h in range(self.layer.base.order):
            gh = self._base(g, h)
            out[gh * k:gh * k + k] = alpha[h * k:h * k + k]
        return out

    def mul(self, x, y):
        shifted = self._shift(x.g, y.alpha)
        return self._norm([u + v for u, v in zip(x.alpha, shifted)], self._base(x.g, y.g))

    def inv(self, x):
        gi = self.index[self.base_inv(self.elems[x.g])]
        return self._norm([-c for c in self._shift(gi, x.alpha)], gi)


def test_layer_arithmetic_matches_dense_oracle():
    rng = random.Random(45)
    perms = (from_cycles(3, []), S3_GENS, lambda x, y: x * y, lambda x: x.inverse())
    lower = GaschuetzLayer(s3(), 2, True)
    level = lower.materialize()
    cases = [(GaschuetzLayer(s3(), p, tilde), perms, 40)
             for p, tilde in ((2, False), (2, True), (3, True))]
    cases.append((GaschuetzLayer(level, 2, True),
                  (*layer_generators(lower), lower.mul, lower.inv), 8))
    for layer, base, rounds in cases:
        oracle = DenseOracle(layer, *base)
        for _ in range(rounds):
            x = layer.evaluate(random_word(rng))
            y = layer.evaluate(random_word(rng))
            assert layer.mul(x, y) == oracle.mul(x, y)
            assert layer.inv(x) == oracle.inv(x)


def test_layers_over_the_trivial_group():
    with pytest.warns(UserWarning):
        trivial = materialize(CyclicSpec(1, (0,)))
    plain = GaschuetzLayer(trivial, 2).materialize()
    assert plain.order == 2
    assert GaschuetzLayer(trivial, 2, tilde=True).materialize().order == 1
    assert GaschuetzLayer(plain, 2, tilde=True).materialize().order == 2
    assert GaschuetzLayer(plain, 2).materialize().order == 4


def test_materialize_takes_generator_steps_only(monkeypatch):
    # the element product, inverse and normal form serve lazy arithmetic;
    # materializing builds no element object
    layers = [GaschuetzLayer(s3(), 2, True), GaschuetzLayer(klein(), 3, False)]

    def refuse(*args):
        raise AssertionError("materialize used the element arithmetic")

    for name in ("mul", "inv", "_make"):
        monkeypatch.setattr(GaschuetzLayer, name, refuse)
    monkeypatch.setattr(constel.gaschuetz, "GaschuetzElement", refuse)
    assert [layer.materialize().order for layer in layers] == [192, 972]


def test_step_materialization_matches_the_product_closure():
    # element_list closes the identity under the product layer.mul and
    # checks the images, the Cayley table and the generation tree of the
    # step BFS against that closure
    with pytest.warns(UserWarning):
        trivial = materialize(CyclicSpec(1, (0, 0)))
    with pytest.warns(UserWarning):
        z2_id = materialize(CyclicSpec(2, (1, 0)))
    cases = [(materialize(CyclicSpec(12, (1, 1))), 2, True), (klein(), 3, False),
             (materialize(CyclicSpec(6, (1, 2))), 2, True), (trivial, 3, False),
             (trivial, 3, True), (z2_id, 3, False), (z2_id, 2, True), (z2(), 5, False),
             (z2(), 257, True)]  # the last packs digits wider than a byte
    for base, p, tilde in cases:
        layer = GaschuetzLayer(base, p, tilde)
        mat = layer.materialize()
        assert mat.order == layer.order()
        element_list(mat, *layer_generators(layer), layer.mul)


def generation_tree(rows) -> tuple[list[int], list[int]]:
    """(parent, letter) of a table numbered in BFS order: element i is
    first reached from the least j, by its least letter."""
    parent, letter = [0], [-1]
    for j, row in enumerate(rows):
        for a, i in enumerate(row):
            if i == len(parent):
                parent.append(j)
                letter.append(a)
    return parent, letter


def numbered_as_the_oracle(spec, p: int, tilde: bool) -> int:
    """Order of the materialized layer, after checking its Cayley table,
    generation tree and projection against O.Layer.materialize, which
    keys each element by a (g, vector) tuple."""
    base = materialize(spec)
    mat = GaschuetzLayer(base, p, tilde).materialize()
    want, proj = O.Layer(oracle_table(spec), p, tilde).materialize()
    assert cayley_rows(mat) == want.fwd
    assert (mat._parent, mat._letter) == generation_tree(want.fwd)
    assert tuple(proj) == canonical_morphism(mat, base).mapping
    return mat.order


@pytest.mark.parametrize("spec, p, tilde", [
    (PermSpec(3, S3_GENS), 2, True), (KleinSpec(((1, 0), (0, 1))), 3, False),
    (CyclicSpec(6, (1, 1)), 2, True),
], ids=["tilde-s3-2", "klein-3", "tilde-z6-2"])
def test_packed_keys_number_layers_as_the_oracle_does(spec, p, tilde):
    numbered_as_the_oracle(spec, p, tilde)


def test_packed_keys_number_a_wide_digit_layer_as_tuple_keys_do():
    # tilde(cyclic(3;a=1,b=1),257): 198147 elements, 9-bit digits, p > 255
    assert numbered_as_the_oracle(CyclicSpec(3, (1, 1)), 257, True) == 3 * 257 ** 2


def test_materializing_the_z12_tilde_layer_stays_small():
    """Packed int keys hold the 24576 elements of tilde(cyclic(12),2)
    in about 4.2 MiB at peak; 25-int tuple keys took 8.9 MiB."""
    layer = GaschuetzLayer(materialize(CyclicSpec(12, (1, 1))), 2, tilde=True)
    tracemalloc.start()
    try:
        mat = layer.materialize()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mat.order == 24576
    assert peak < 6 * 2 ** 20


def test_building_a_layer_allocates_nothing_per_edge():
    """A layer holds its base, p and tilde; over the 8-letter cyclic(100000)
    base, dense letter images would take about 67 MiB."""
    base = materialize(CyclicSpec(100000, (1,) * 8))
    for tilde in (False, True):
        tracemalloc.start()
        try:
            GaschuetzLayer(base, 3, tilde)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, tilde


@pytest.mark.parametrize("spec", [
    CyclicSpec(2, (1, 1)), KleinSpec(((1, 0), (0, 1))), PermSpec(3, S3_GENS),
    CyclicSpec(6, (1, 2)),
], ids=["z2", "klein", "s3", "z6"])
def test_lazy_words_against_oracle(spec):
    # O.Layer.evaluate counts the word's edges mod p and, for tilde
    # layers, subtracts each letter's entry at (1, a); its vectors index
    # the oracle's numbering, which cayley_rows checks is the base's own
    base, table = materialize(spec), oracle_table(spec)
    assert cayley_rows(base) == table.fwd
    rng = random.Random(43)
    for p in (2, 3):
        for tilde in (True, False):
            layer, want = GaschuetzLayer(base, p, tilde), O.Layer(table, p, tilde)
            for _ in range(100):
                u = random_word(rng)
                x = layer.evaluate(u)
                assert (x.g, x.alpha) == want.evaluate(u), (p, tilde, u)


def test_tilde_evaluate_reduces_its_vector_in_place():
    """A tilde word holds its dense vector and the element's tuple at
    peak, 8 bytes an entry each; a second dense vector of letter
    constants and a reduced copy took it to four."""
    base = materialize(CyclicSpec(20000, (1,) * 8))
    layer, word = GaschuetzLayer(base, 3, tilde=True), parse_word("abAB", 8)
    tracemalloc.start()
    try:
        layer.evaluate(word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * base.order * layer.n_letters


def test_layer_requires_prime():
    with pytest.raises(ValueError):
        GaschuetzLayer(z2(), 4)
    # the largest prime up to DEFAULT_BOUND^2 passes; past it, no trial division runs
    assert GaschuetzLayer(z2(), 999999999989).p == 999999999989
    for p in (1000000000039, 2 ** 61 - 1):
        with pytest.raises(OrderBoundError, match="exceeds the bound"):
            GaschuetzLayer(z2(), p)


def test_order_formula_matches_enumeration():
    expected = {
        ("z2", 2, False): 16, ("z2", 2, True): 4,
        ("z2", 3, False): 54, ("z2", 3, True): 6,
        ("klein", 2, False): 128, ("klein", 2, True): 32,
        ("klein", 3, False): 972, ("klein", 3, True): 108,
    }
    for name, base in (("z2", z2()), ("klein", klein())):
        for p in (2, 3):
            for tilde in (False, True):
                layer = GaschuetzLayer(base, p, tilde)
                want = expected[(name, p, tilde)]
                assert layer.order() == want
                assert order_formula(base.order, 2, p, tilde) == want
                assert layer.materialize().order == want


def test_orders_past_the_digit_limit_stand_as_powers_of_two():
    # p^k >= 2^k: once 2^k has more digits than Python prints, 2^k stands
    # for the order instead of a p^k that takes seconds to build
    k = 4 * sys.get_int_max_str_digits()
    assert order_formula(k + 1, 2, 3, tilde=True) == (k + 1) * 3 ** k
    assert order_formula(k + 2, 2, 3, tilde=True) == 1 << (k + 1)
    layer = GaschuetzLayer(materialize(CyclicSpec(20000, (1, 1))), 999999999989, tilde=True)
    assert layer.order() == 1 << 19999
    assert schreier_rank_check(layer).verified is None
    with pytest.raises(OrderBoundError, match=r"^layer order >= 2\^19999 exceeds the bound 1000000$"):
        layer.materialize()


def test_materialize_respects_bound(monkeypatch):
    layer = GaschuetzLayer(materialize(CyclicSpec(16, (1, 1))), 2, tilde=False)
    assert layer.order() == 2097152
    # refused on the order formula, before any element is generated
    monkeypatch.setattr(constel.gaschuetz, "_generate", None)
    with pytest.raises(OrderBoundError, match="layer order 2097152 exceeds the bound"):
        layer.materialize()


def test_lazy_arithmetic_is_consistent():
    rng = random.Random(41)
    layer = GaschuetzLayer(klein(), 3)
    identity, _ = layer_generators(layer)
    for _ in range(100):
        u, v = random_word(rng), random_word(rng)
        xu, xv = layer.evaluate(u), layer.evaluate(v)
        assert layer.evaluate(concat(u, v)) == layer.mul(xu, xv)
        assert layer.evaluate(invert(u)) == layer.inv(xu)
        assert layer.mul(xu, layer.inv(xu)) == identity


def test_lazy_word_problem_matches_materialized():
    rng = random.Random(42)
    for base in (z2(), klein()):
        for p, tilde in ((2, False), (2, True), (3, True)):
            layer = GaschuetzLayer(base, p, tilde)
            mat = layer.materialize()
            for _ in range(60):
                u = random_word(rng)
                assert layer.is_identity(u) == (mat.evaluate(u) == 0)


def test_kernel_size_is_p_to_rank():
    for base in (z2(), klein()):
        for p, tilde in ((2, False), (2, True), (3, True)):
            layer = GaschuetzLayer(base, p, tilde)
            mat = layer.materialize()
            phi = canonical_morphism(mat, base)
            assert phi is not None
            assert len(phi.kernel()) == p ** layer.kernel_rank()


def test_center_matches_brute_force():
    for base, p in ((z2(), 2), (z2(), 3), (klein(), 2)):
        layer = GaschuetzLayer(base, p, tilde=False)
        info = center(layer)
        assert info.order == p ** 2
        mat = layer.materialize()
        brute = {x for x in range(mat.order)
                 if all(mat.mul_idx(x, img) == mat.mul_idx(img, x)
                        for img in mat.images)}
        _, index = element_list(mat, *layer_generators(layer), layer.mul)
        listed = {index[el] for el in info.elements()}
        assert listed == brute
        for gen, word_ in zip(info.generators, info.witness_words):
            assert layer.evaluate(word_) == gen


def test_center_witnesses_for_z2_p2():
    info = center(GaschuetzLayer(z2(), 2, tilde=False))
    assert [str_word(u) for u in info.witness_words] == ["aa", "bb"]


def test_center_witnesses_cover_fixed_points():
    # b maps to the identity: each element is a fixed point of the b-step,
    # and each contributes its own b-edge to b's witness
    with pytest.warns(UserWarning):
        base = materialize(CyclicSpec(2, (1, 0)))
    info = center(GaschuetzLayer(base, 3, tilde=False))
    assert [str_word(u) for u in info.witness_words] == ["aa", "babA"]


def test_center_rejects_tilde():
    with pytest.raises(ValueError):
        center(GaschuetzLayer(z2(), 2, tilde=True))


def test_tilde_is_plain_modulo_center():
    base = z2()
    plain_layer = GaschuetzLayer(base, 2, False)
    plain = plain_layer.materialize()
    tilde = GaschuetzLayer(base, 2, True).materialize()
    assert plain.order == tilde.order * 4
    phi = canonical_morphism(plain, tilde)
    assert phi is not None
    info = center(plain_layer)
    _, index = element_list(plain, *layer_generators(plain_layer), plain_layer.mul)
    assert {index[el] for el in info.elements()} == set(phi.kernel())


def test_pairwise_commute_against_products():
    rng = random.Random(23)
    seen = set()
    for name, g in sample_groups():
        if g.order > 1000:
            continue
        subgroups = [frozenset(range(g.order))]
        subgroups += [subgroup_closure(g, rng.sample(range(g.order), min(2, g.order)))
                      for _ in range(3)]
        for k in subgroups:
            expected = all(g.mul_idx(x, y) == g.mul_idx(y, x) for x in k for y in k)
            assert constel.gaschuetz._pairwise_commute(g, k) == expected, name
            seen.add(expected)
    assert seen == {True, False}


def test_coprime_structure_checks():
    for base in (z2(), klein()):
        report = coprime_structure_checks(base, 3)
        assert report.all_ok
        assert report.kernel_size == 3 ** (1 + base.order)
        assert report.center_size == 9
    with pytest.raises(ValueError):
        coprime_structure_checks(z2(), 2)  # p divides the base order
    with pytest.raises(ValueError):
        coprime_structure_checks(z2(), 6)


def test_tower_orders_and_laziness():
    spec = TowerSpec(CyclicSpec(2, (1, 1)), ((2, True), (2, True), (2, True)))
    tower = build_tower(spec)
    assert tower.top is not None and len(tower.levels) == 3
    assert [g.order for g in tower.levels] + [tower.top.order()] == [2, 4, 32, 68719476736]
    spec2 = TowerSpec(CyclicSpec(2, (1, 1)), ((3, True), (5, True)))
    tower2 = build_tower(spec2)
    assert [g.order for g in tower2.levels] + [tower2.top.order()] == [2, 6, 18750]
    assert build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ())).top is None


def test_tower_morphisms_compose():
    spec = TowerSpec(CyclicSpec(2, (1, 1)), ((2, True), (2, True), (2, True)))
    tower = build_tower(spec)
    phi = tower.morphism(2, 0)
    assert phi.src is tower.levels[2] and phi.dst is tower.levels[0]
    step = tower.projections[1].compose(tower.projections[0])
    assert phi.mapping == step.mapping
    assert tower.morphism(1, 0).mapping == tower.projections[0].mapping
    with pytest.raises(ValueError):
        tower.morphism(0, 2)
    with pytest.raises(ValueError):
        tower.morphism(3, 0)  # the lazy top is not a materialized level


def test_tower_word_problem_at_top():
    tower = build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ((2, True),)))
    # top is Klein: aa and bb die, ab does not
    assert tower.top.is_identity(w("aa"))
    assert tower.top.is_identity(w("abAB"))
    assert not tower.top.is_identity(w("ab"))
    flat = build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ()))
    assert flat.levels[-1].is_identity(w("aa")) and not flat.levels[-1].is_identity(w("a"))


def test_tower_rejects_composite_modulus():
    with pytest.raises(ValueError):
        build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ((4, True),)))


def test_layer_abelianization_fixtures():
    assert layer_abelianization(GaschuetzLayer(z2(), 2, False)) == [2, 4]
    assert layer_abelianization(GaschuetzLayer(z2(), 2, True)) == [2, 2]
    assert layer_abelianization(GaschuetzLayer(z2(), 3, True)) == [2]
    assert layer_abelianization(GaschuetzLayer(klein(), 3, True)) == [2, 2]


def test_layer_abelianization_matches_materialized():
    checked = 0
    for name, base in sample_groups():
        for p in (2, 3, 5, 7):
            for tilde in (False, True):
                layer = GaschuetzLayer(base, p, tilde)
                if layer.order() <= 1000:
                    want = abelianization(layer.materialize())
                    assert layer_abelianization(layer) == want, (name, p, tilde)
                    checked += 1
    assert checked >= 100


def test_layer_abelianization_matches_the_scaled_lattice():
    # the construction the closed form replaces, as an independent oracle:
    # sympy's invariant factors of p * Lambda, plus |G| e_a per letter on
    # tilde layers, over the sample bases
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    checked = set()
    for name, base in sample_groups():
        n = base.n_letters
        relations = abelian_relations(base)
        for p in (2, 3, 5, 7):
            for tilde in (False, True):
                rows = [[p * x for x in row] for row in relations]
                if tilde:
                    rows += [[base.order if i == a else 0 for i in range(n)] for a in range(n)]
                factors = [abs(int(d)) for d in invariant_factors(Matrix(rows), domain=ZZ)]
                assert 0 not in factors, (name, p, tilde)  # finite index
                want = [d for d in factors if d > 1]
                layer = GaschuetzLayer(base, p, tilde)
                assert layer_abelianization(layer) == want, (name, p, tilde)
                checked.add((tilde, base.order % p == 0))
    # plain and tilde, with p dividing |G| and coprime to it
    assert checked == {(False, False), (False, True), (True, False), (True, True)}


def test_layer_abelianization_of_a_wide_base():
    base = materialize(CyclicSpec(60, (1, 1, 1)))
    start = time.perf_counter()
    assert layer_abelianization(GaschuetzLayer(base, 2, False)) == [2, 2, 120]
    assert time.perf_counter() - start < 2


def test_layer_abelianization_scales_past_materialization():
    # tilde layer over the order-108 group with p coprime to everything:
    # the abelianization is untouched even though the layer has order
    # 108 * 5^107 and cannot be enumerated
    g108 = GaschuetzLayer(klein(), 3, tilde=True).materialize()
    assert g108.order == 108
    assert layer_abelianization(GaschuetzLayer(g108, 5, True)) == [2, 2]


def test_build_tower_checks_its_projections(monkeypatch):
    # every caller of GaschuetzLayer.cover refuses a layer without a projection
    top_materialized = build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ((2, True),)))
    monkeypatch.setattr(constel.gaschuetz, "canonical_morphism", lambda src, dst: None)
    calls = [
        lambda: build_tower(TowerSpec(CyclicSpec(2, (1, 1)), ((2, True), (2, True)))),
        lambda: coprime_structure_checks(z2(), 3),
        lambda: schreier_rank_check(GaschuetzLayer(z2(), 3)),
        lambda: dissolve_all(top_materialized),
        lambda: dissolve_all(top_materialized, weak=True),
    ]
    for call in calls:
        with pytest.raises(VerificationError, match="does not project onto its base"):
            call()


def test_center_checks_its_witnesses(monkeypatch):
    layer = GaschuetzLayer(z2(), 3)
    identity, _ = layer_generators(layer)
    monkeypatch.setattr(layer, "evaluate", lambda word: identity)
    with pytest.raises(VerificationError):
        center(layer)
    monkeypatch.setattr(constel.gaschuetz, "tree_word", lambda tree, v: None)
    with pytest.raises(VerificationError):
        center(GaschuetzLayer(z2(), 3))


def test_layer_abelianization_checks_the_lattice_index(monkeypatch):
    monkeypatch.setattr(constel.gaschuetz, "_smith_diagonal", lambda rows, ncols: [2])
    with pytest.raises(VerificationError):
        layer_abelianization(GaschuetzLayer(klein(), 2, False))
