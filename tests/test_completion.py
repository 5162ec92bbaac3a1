import random
import time

import pytest

import constel.completion
from constel.automata import (InverseAutomaton, core_of_words, embed_check,
                              transition_group)
from constel.completion import (complete_to_alternating,
                                predissolver_certificate,
                                smallest_prime_greater)
from constel.constellations import amalgams_of, assemble_AG
from constel.errors import VerificationError
from constel.groups import DEFAULT_BOUND, CyclicSpec, KleinSpec, materialize
from constel.perms import PermSpec, from_cycles
from constel.words import Word, reduce
from group_elements import S3_GENS, s3, w, z2


def chain3() -> InverseAutomaton:
    # three vertices: a-path 0 -> 1 -> 2 and a b-loop at 0
    return InverseAutomaton(3, 2, [(0, 0, 1), (1, 0, 2), (0, 1, 0)], 0)


def test_smallest_prime_greater():
    assert [smallest_prime_greater(m) for m in range(1, 9)] == [2, 3, 5, 5, 7, 7, 11, 11]
    with pytest.raises(ValueError):
        smallest_prime_greater(0)


def test_plan_for_three_vertices():
    aut = chain3()
    completed, cert, plan = complete_to_alternating(aut, 10)
    assert (plan.m, plan.q, plan.k, plan.n) == (3, 5, 0, 10)
    assert plan.a == 0 and plan.b == 1
    assert plan.x == (3, 4, 5, 6, 7)
    assert plan.t == ()
    assert completed.n == 10 and completed.is_complete()
    assert cert.valid()
    assert cert.prime_cycle is not None and cert.prime_cycle[0] == 5


def test_minimum_size_enforced():
    with pytest.raises(ValueError):
        complete_to_alternating(chain3(), 9)


def test_size_bound_checked_before_allocating():
    with pytest.raises(ValueError, match="exceeds the bound"):
        complete_to_alternating(chain3(), DEFAULT_BOUND + 1)
    with pytest.raises(ValueError, match="exceeds the bound"):
        complete_to_alternating(chain3(), 10 ** 12)


def test_completion_checks_its_certificate(monkeypatch):
    odd = PermSpec(10, (from_cycles(10, [(0, 1)]),) * 2)
    monkeypatch.setattr(constel.completion, "transition_group", lambda aut: odd)
    with pytest.raises(VerificationError, match="odd"):
        complete_to_alternating(chain3(), 10)
    trivial = PermSpec(10, (from_cycles(10, []),) * 2)
    monkeypatch.setattr(constel.completion, "transition_group", lambda aut: trivial)
    with pytest.raises(VerificationError, match="5-cycle"):
        complete_to_alternating(chain3(), 10)


def test_input_validation():
    with pytest.raises(ValueError):
        complete_to_alternating(InverseAutomaton(2, 2, [(0, 0, 1)], 0), 12)
    with pytest.raises(ValueError):
        complete_to_alternating(
            InverseAutomaton(3, 2, z2().cayley.pos_edges() + [(2, 0, 2), (2, 1, 2)], 0), 12)
    complete4 = materialize(CyclicSpec(4, (1, 2)))
    with pytest.raises(ValueError):
        complete_to_alternating(complete4.cayley, 12)
    one_letter = InverseAutomaton(3, 1, [(0, 0, 1), (1, 0, 2)], 0)
    with pytest.raises(ValueError):
        complete_to_alternating(one_letter, 12)


def test_completion_is_deterministic():
    first = complete_to_alternating(chain3(), 12, seed=9)[0]
    second = complete_to_alternating(chain3(), 12, seed=9)[0]
    assert first == second


def test_completion_extends_input_verbatim():
    aut = chain3()
    completed, _, _ = complete_to_alternating(aut, 11)
    for u, letter, v in aut.pos_edges():
        assert completed.fwd[letter][u] == v
    assert completed.base == aut.base


def random_incomplete_core(rng) -> InverseAutomaton | None:
    gens = []
    for _ in range(rng.randrange(1, 3)):
        pairs = tuple((rng.randrange(2), rng.choice((1, -1)))
                      for _ in range(rng.randrange(2, 7)))
        u = reduce(Word(pairs))
        if len(u):
            gens.append(u)
    if not gens:
        return None
    core = core_of_words(gens, 2)
    if core.n < 3 or core.is_complete():
        return None
    return core


def test_completion_invariants_over_random_cores():
    rng = random.Random(51)
    done = 0
    while done < 12:
        core = random_incomplete_core(rng)
        if core is None:
            continue
        m = core.n
        q = smallest_prime_greater(m)
        n = m + q + 2 + rng.randrange(3)
        completed, cert, plan = complete_to_alternating(core, n, seed=done)
        group = transition_group(completed)
        assert all(p.is_even() for p in group.images)
        assert completed.is_complete()
        assert cert.valid(), (m, n)
        lengths = sorted(len(c) for c in group.images[plan.b].cycles())
        assert lengths.count(plan.q) == 1
        assert all(l < plan.q for l in lengths if l != plan.q)
        done += 1


def test_certified_group_acts_like_the_alternating_group():
    # the degree-7 oracle in test_perms enumerates 7!/2 for the same
    # certificate logic; here spot-check sharp consequences at degree 10
    completed, cert, _ = complete_to_alternating(chain3(), 10)
    assert cert.valid()
    group = transition_group(completed)
    assert all(p.is_even() for p in group.images)
    start = (0, 1, 2)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for triple in frontier:
            for p in group.images:
                image = tuple(p(x) for x in triple)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    assert len(seen) == 10 * 9 * 8  # transitive on ordered triples


def test_predissolver_certificate():
    amalgams = amalgams_of(z2())
    host, _, _ = complete_to_alternating(amalgams[0], 10)
    partial = predissolver_certificate(host, amalgams)
    assert partial.witnesses == (0, None, None, 1, None, None, None)
    assert not partial.all_found
    assert embed_check(amalgams[0], host, 0) is not None
    assert embed_check(amalgams[3], host, 0) is None
    # no vertex of an alternating completion is fixed by both letters
    missing = InverseAutomaton(1, 2, [(0, 0, 0), (0, 1, 0)], 0)
    report = predissolver_certificate(host, amalgams + [missing])
    assert report.witnesses == partial.witnesses + (None,)
    assert predissolver_certificate(host, amalgams[:1]).all_found


def least_embedding_start(a: InverseAutomaton, host: InverseAutomaton) -> int | None:
    return next((s for s in range(host.n) if embed_check(a, host, s) is not None), None)


EMBEDDING_GROUPS = {
    "z2": CyclicSpec(2, (1, 1)),
    "s3": PermSpec(3, S3_GENS),
    "klein": KleinSpec(((1, 0), (0, 1))),
}


@pytest.mark.parametrize("name", sorted(EMBEDDING_GROUPS))
def test_predissolver_witnesses_are_the_least_embedding_starts(name):
    # the AG output is incomplete, so some steps read a missing edge; the
    # Cayley graph admits a morphism of an amalgam at every start but
    # never an injective one
    group = materialize(EMBEDDING_GROUPS[name])
    amalgams = amalgams_of(group)
    ag = assemble_AG(group)
    completion, _, _ = complete_to_alternating(
        ag, ag.n + smallest_prime_greater(ag.n) + 2, seed=1)
    for host in (ag, completion, group.cayley):
        report = predissolver_certificate(host, amalgams)
        assert list(report.witnesses) == [least_embedding_start(a, host) for a in amalgams]
    assert predissolver_certificate(ag, amalgams).all_found
    assert predissolver_certificate(completion, amalgams).all_found
    assert set(predissolver_certificate(group.cayley, amalgams).witnesses) == {None}


def test_embedding_search_over_loops_and_non_injective_morphisms():
    host = chain3()  # incomplete: only vertex 0 has a b-edge, a loop
    loop = InverseAutomaton(1, 2, [(0, 1, 0)], 0)
    assert [embed_check(loop, host, s) for s in range(3)] == [{0: 0}, None, None]
    assert predissolver_certificate(host, [loop]).witnesses == (0,)
    assert embed_check(host, host, 0) == {0: 0, 1: 1, 2: 2}
    # the a-path of length 2 maps onto the a-2-cycle {0, 1} from 0 and
    # from 1, folding its ends together, and embeds in the a-3-cycle
    path = InverseAutomaton(3, 2, [(0, 0, 1), (1, 0, 2)], 0)
    cycles = InverseAutomaton(5, 2, [(0, 0, 1), (1, 0, 0), (2, 0, 3), (3, 0, 4),
                                     (4, 0, 2)], 0)
    assert cycles.trace(0, w("aa")) == 0 and cycles.trace(1, w("aa")) == 1
    assert [embed_check(path, cycles, s) for s in range(3)] == [None, None,
                                                                {0: 2, 1: 3, 2: 4}]
    assert predissolver_certificate(cycles, [path, loop]).witnesses == (2, None)


def test_embedding_searches_refuse_the_same_sources():
    host = chain3()
    baseless = InverseAutomaton(1, 2, [(0, 0, 0)])
    split = InverseAutomaton(2, 2, [(0, 0, 0)], 0)
    for source, message in ((baseless, "based"), (split, "connected")):
        with pytest.raises(ValueError, match=message):
            embed_check(source, host, 0)
        with pytest.raises(ValueError, match=message):
            predissolver_certificate(host, [source])
    for start in (-1, host.n):
        with pytest.raises(ValueError, match="out of range"):
            embed_check(chain3(), host, start)


def test_s3_ag_completion_certifies_within_budget():
    ag = assemble_AG(s3())
    n = ag.n + smallest_prime_greater(ag.n) + 2
    start = time.monotonic()
    _, cert, _ = complete_to_alternating(ag, n)
    assert time.monotonic() - start < 1.5
    assert n == 1755 and cert.valid()
