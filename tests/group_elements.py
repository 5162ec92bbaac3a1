"""Element lists and sample groups for tests.

A materialized group keeps only its Cayley table.  Its numbering is
documented: breadth-first discovery from the identity under right
multiplication by the letter images, letters ascending.  `element_list`
rebuilds that numbering with the group's own element product and checks
it against the Cayley table and the generation tree before a test relies
on it.  `oracle_table` builds the same table with `perfbench/oracle.py`,
which numbers its groups the same way and imports nothing from constel.
"""

import warnings
from math import gcd

from constel.gaschuetz import GaschuetzLayer
from constel.groups import (CyclicSpec, KleinSpec, PermSpec, ProductSpec,
                            materialize, product_A)
from constel.perms import from_cycles
from constel.words import EMPTY, Word, parse_word
import oracle as O

A2 = 2  # the two-letter alphabet a, b


def w(text: str) -> Word:
    return parse_word(text, A2)


def str_word(u: Word) -> str:
    return "".join(("ab"[a] if s > 0 else "AB"[a]) for a, s in u)


def z2():
    return materialize(CyclicSpec(2, (1, 1)))


def z3():
    return materialize(CyclicSpec(3, (1, 1)))


def klein():
    return materialize(KleinSpec(((1, 0), (0, 1))))


S3_GENS = (from_cycles(3, [(0, 1)]), from_cycles(3, [(1, 2)]))


def s3():
    return materialize(PermSpec(3, S3_GENS))


def element_list(g, identity, images, mul):
    """(elems, index) of g: elems[i] is the element numbered i."""
    elems, index = [identity], {identity: 0}
    parent, letter = [0], [-1]  # the generation tree
    for i, x in enumerate(elems):  # grows while it is walked
        for a, img in enumerate(images):
            y = mul(x, img)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                parent.append(i)
                letter.append(a)
    assert len(elems) == g.order
    assert (parent, letter) == (g._parent, g._letter)
    assert [index[img] for img in images] == list(g.images)
    assert all(index[mul(x, img)] == g.cayley.fwd[a][i]
               for i, x in enumerate(elems) for a, img in enumerate(images))
    return elems, index


def oracle_table(spec) -> O.Cayley:
    """The oracle's Cayley table of a cyclic, Klein or permutation spec."""
    if isinstance(spec, CyclicSpec):
        return O.cyclic_group(spec.n, spec.images)
    if isinstance(spec, KleinSpec):
        return O.klein_group(spec.images)
    return O.perm_group(spec.degree, [p.images for p in spec.images])


def cayley_rows(group) -> list[list[int]]:
    """The Cayley table of a materialized group in the oracle's layout:
    row h lists h times each letter image."""
    return [list(row) for row in zip(*group.cayley.fwd)]


def oracle_automaton(aut) -> O.Automaton:
    """An inverse automaton as the oracle's automaton, with the same
    vertex numbering, letters and base."""
    return O.Automaton(aut.n, aut.n_letters, aut.pos_edges(), aut.base)


def layer_generators(layer):
    """(identity, letter images) of a Gaschuetz layer, as `evaluate`
    gives them for the empty word and the one-letter words."""
    return layer.evaluate(EMPTY), [layer.evaluate(Word(((a, 1),)))
                                   for a in range(layer.n_letters)]


def _perm(degree, *gens):
    return materialize(PermSpec(degree, tuple(from_cycles(degree, c) for c in gens)))


def _dihedral(n):
    return _perm(n, [tuple(range(n))], [(i, n - i) for i in range(1, (n + 1) // 2)])


def sample_groups():
    """(name, group) pairs: cyclic groups on one to three letters, some
    letters mapping to the identity, Klein, S3, A4, S4, dihedral groups,
    A-products and materialized layers."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # identity letters warn
        for n in range(1, 13):
            for images in ((1,), (1, 1), (1, 2), (1, 0), (0, 1, 1), (1, n // 2, 0), (2, 3)):
                if n == 1 or gcd(n, *images) == 1:
                    out.append(("cyclic(%d;%s)" % (n, images), materialize(CyclicSpec(n, images))))
        k4, sym3, c2 = klein(), s3(), z2()
        out += [
            ("klein", k4),
            ("klein3", materialize(KleinSpec(((1, 0), (0, 1), (1, 1))))),
            ("s3", sym3),
            ("s3-rotation", _perm(3, [(0, 1, 2)], [(0, 1)])),
            ("a4", _perm(4, [(0, 1, 2)], [(1, 2, 3)])),
            ("s4", _perm(4, [(0, 1)], [(0, 1, 2, 3)])),
            ("d4", _perm(4, [(0, 1, 2, 3)], [(0, 2)])),
        ]
        out += [("dihedral(%d)" % n, _dihedral(n)) for n in (5, 6, 8, 12)]
        out += [
            ("s3 x z4", product_A(sym3, materialize(CyclicSpec(4, (1, 3))))),
            ("klein x z2", product_A(k4, c2)),
            ("z4 x z6", materialize(ProductSpec(CyclicSpec(4, (1, 1)), CyclicSpec(6, (1, 5))))),
            ("s3 ~2", GaschuetzLayer(sym3, 2, True).materialize()),
            ("klein ~3", GaschuetzLayer(k4, 3, True).materialize()),
            ("z2 3", GaschuetzLayer(c2, 3, False).materialize()),
        ]
    return out
