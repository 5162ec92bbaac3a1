import itertools
import random

import pytest

from constel.perms import (AlternatingCertificate, PermGroupGens, Permutation,
                           alternating_certificate, format_cycles, from_cycles,
                           generated_order, identity, is_primitive, is_prime,
                           is_transitive, orbit, parse_cycles,
                           prime_power_cycle)


def rand_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_parity_examples():
    assert identity(5).is_even()
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
        assert p.sign() == p.inverse().sign()
        assert (p * p.inverse()) == identity(7)


def test_cycle_notation_round_trip():
    p = parse_cycles("(0 1 2)(3 4)", 6)
    assert format_cycles(p) == "(0 1 2)(3 4)"
    assert parse_cycles("()", 4) == identity(4)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)(1 2)", 4)  # point repeated
    with pytest.raises(ValueError):
        parse_cycles("(0 9)", 4)
    for bad in ("(0 1 1)", "(0 0)", "(1)(1 2)"):
        with pytest.raises(ValueError):
            parse_cycles(bad, 3)  # point repeated within or across cycles


def test_transitivity():
    assert is_transitive(PermGroupGens(3, (from_cycles(3, [(0, 1, 2)]),)))
    assert not is_transitive(PermGroupGens(3, (from_cycles(3, [(0, 1)]),)))


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
        assert orbit(PermGroupGens(n, perms), point) == brute_orbit(perms, point)


def test_primitivity_fixtures():
    # regular Z/4: blocks {0,2}
    z4 = PermGroupGens(4, (from_cycles(4, [(0, 1, 2, 3)]),))
    assert not is_primitive(z4)
    a4 = PermGroupGens(4, (from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(1, 2, 3)])))
    assert is_primitive(a4)
    # prime degree transitive is always primitive
    z5 = PermGroupGens(5, (from_cycles(5, [(0, 1, 2, 3, 4)]),))
    assert is_primitive(z5)
    with pytest.raises(ValueError):
        is_primitive(PermGroupGens(3, (from_cycles(3, [(0, 1)]),)))


def brute_primitive(gens: PermGroupGens) -> bool:
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
                   for p in gens.perms for b in blocks):
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
            gens = PermGroupGens(deg, tuple(rand_perm(rng, deg) for _ in range(2)))
            if not is_transitive(gens):
                continue
            assert is_primitive(gens) == brute_primitive(gens), gens


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
        power = p ** r
        lengths = sorted(len(c) for c in power.cycles())
        assert lengths == [q], (p, got)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_certificate_z10_imprimitive():
    z10 = PermGroupGens(10, (from_cycles(10, [tuple(range(10))]),
                             from_cycles(10, [tuple(range(10))])))
    cert = alternating_certificate(z10)
    assert not cert.primitive and not cert.valid()


def test_certificate_a5_gens_fail_cycle_bound():
    # the group is A_5, but q <= n-3 admits no prime cycle at degree 5
    gens = PermGroupGens(5, (from_cycles(5, [(0, 1, 2)]),
                             from_cycles(5, [(0, 1, 2, 3, 4)])))
    cert = alternating_certificate(gens)
    assert cert.transitive and cert.primitive and cert.all_even
    assert not cert.valid()


def test_certificate_degree_guard():
    with pytest.raises(ValueError):
        alternating_certificate(PermGroupGens(4, (identity(4),)))


def test_valid_certificate_gives_full_alternating_order():
    # degree 7: 7-cycle (even, transitive, prime degree -> primitive)
    # plus a 3-cycle giving q=3 <= 4
    gens = PermGroupGens(7, (from_cycles(7, [tuple(range(7))]),
                             from_cycles(7, [(0, 1, 2)])))
    cert = alternating_certificate(gens)
    assert cert.valid()
    assert generated_order(gens) == 2520  # 7!/2


def test_generated_order_guard():
    with pytest.raises(ValueError):
        generated_order(PermGroupGens(9, (identity(9),)))
