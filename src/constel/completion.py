"""Completion of a connected incomplete inverse automaton to a
permutation automaton whose transition group is the alternating group.

The gadget adds q + k + 2 fresh vertices (q the smallest prime above the
input size m, k free padding): a b-cycle x_1 .. x_q of prime length, an
a-cycle through y, x_2, x_3, t_1 .. t_k, z, and one a-edge from the input
into x_1.  All letters are then closed to total even permutations; the
certificate (transitive + primitive + prime q-cycle with q <= n-3 + all
generators even) pins the group to Alt(n) by Jordan's criterion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automata import InverseAutomaton, _embed_at, _embedding_steps, transition_group
from .errors import VerificationError
from .groups import check_size
from .perms import AlternatingCertificate, Permutation, alternating_certificate, is_prime


def smallest_prime_greater(m: int) -> int:
    if m < 1:
        raise ValueError("m must be positive")
    q = m + 1
    while not is_prime(q):
        q += 1
    return q


@dataclass(frozen=True)
class CompletionPlan:
    m: int
    q: int
    k: int
    n: int
    a: int  # letter attached to the input
    b: int  # letter carrying the prime cycle
    v: int  # input vertex receiving the a-edge to x_1
    x: tuple[int, ...]
    y: int
    z: int
    t: tuple[int, ...]


@dataclass(frozen=True)
class PredissolverReport:
    witnesses: tuple[int | None, ...]
    all_found: bool


def complete_to_alternating(aut: InverseAutomaton, n: int, seed: int = 0
                            ) -> tuple[InverseAutomaton, AlternatingCertificate, CompletionPlan]:
    check_size(n, "n =")
    m = aut.n
    if m < 3:
        raise ValueError("completion needs at least 3 vertices, got %d" % m)
    if aut.n_letters < 2:
        raise ValueError("completion needs at least two letters")
    if not aut.is_connected():
        raise ValueError("input automaton is not connected")
    if aut.is_complete():
        raise ValueError("input automaton is already complete")
    q = smallest_prime_greater(m)
    if n < m + q + 2:
        raise ValueError("n < m+q+2 = %d" % (m + q + 2))
    k = n - m - q - 2

    a = next(letter for letter, col in enumerate(aut.fwd) if None in col)
    v = aut.fwd[a].index(None)
    b = 0 if a != 0 else 1

    x = tuple(range(m, m + q))
    y, z = m + q, m + q + 1
    t = tuple(range(m + q + 2, n))

    result = InverseAutomaton(n, aut.n_letters, aut.pos_edges(), base=aut.base)
    result.add_edge(v, a, x[0])
    a_cycle = [y, x[1], x[2], *t, z]
    for i, u in enumerate(a_cycle):
        result.add_edge(u, a, a_cycle[(i + 1) % len(a_cycle)])
    for i in range(q):
        result.add_edge(x[i], b, x[(i + 1) % q])

    rng = random.Random(seed)
    for letter, (out, into) in enumerate(zip(result.fwd, result.bwd)):
        singles = [u for u in range(n) if out[u] is None and into[u] is None]
        # close every maximal partial chain into its own cycle
        for start in range(n):
            if into[start] is None and out[start] is not None:  # a chain head
                end = start
                while out[end] is not None:
                    end = out[end]
                result.add_edge(end, letter, start)
        # each free singleton closes as a fixed point; merging two of
        # them into a 2-cycle instead flips the parity
        if not Permutation(tuple(u if w is None else w for u, w in enumerate(out))).is_even():
            if len(singles) < 2:
                raise VerificationError("no singletons left for parity repair")
            u, w = rng.sample(singles, 2)
            result.add_edge(u, letter, w)
            result.add_edge(w, letter, u)
        for u in singles:
            if out[u] is None:
                result.add_edge(u, letter, u)

    if any(result.fwd[letter][u] != w for u, letter, w in aut.pos_edges()):
        raise VerificationError("the completion does not extend the input verbatim")
    group = transition_group(result)
    if not all(p.is_even() for p in group.images):
        raise VerificationError("a completed letter acts as an odd permutation")
    b_lengths = sorted(len(c) for c in group.images[b].cycles())
    if b_lengths.count(q) != 1 or any(l >= q for l in b_lengths if l != q):
        raise VerificationError("letter %d does not carry exactly one %d-cycle "
                                "with all other cycles shorter" % (b, q))
    cert = alternating_certificate(group)
    plan = CompletionPlan(m, q, k, n, a, b, v, x, y, z, t)
    return result, cert, plan


def predissolver_certificate(completion: InverseAutomaton,
                             amalgams: list[InverseAutomaton]) -> PredissolverReport:
    """Find, for each amalgam, the least vertex of the completion at which
    it embeds; all found means the completion's transition group separates
    the word pair of every constellation behind the amalgams.  Each
    amalgam is validated and walked once, and its steps run at each start
    in turn, exactly as `embed_check` runs them at one."""
    witnesses: list[int | None] = []
    for a in amalgams:
        _, steps = _embedding_steps(a, completion)
        witnesses.append(next((start for start in range(completion.n)
                               if _embed_at(steps, a.n, start) is not None), None))
    return PredissolverReport(tuple(witnesses), all(w is not None for w in witnesses))
