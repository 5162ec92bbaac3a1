"""Reference counts made anew by the oracle, without the program.

    python3 perfbench/reference.py

Prints, for the towers and groups the workloads use, the number of
maximal constellations and how many the top dissolves, maximal pairs,
amalgams and layer orders.  The workload checks recompute the same
numbers on every run; nothing here is stored.
"""

from __future__ import annotations

import oracle as O

S3 = ((1, 0, 2), (0, 2, 1))


def dissolve_counts(table: O.Cayley, layers) -> tuple[int, int]:
    tower = O.Tower(table, layers)
    total = dissolved = 0
    for xi, theta, far in O.maximal_pairs(table):
        verdicts = O.dissolved_by_pair(tower, xi, theta, far)
        total += len(verdicts)
        dissolved += sum(verdicts.values())
    return total, dissolved


def main() -> None:
    groups = {"cyclic(6;a=1,b=2)": O.cyclic_group(6, (1, 2)),
              "perm(3;a=(0 1),b=(1 2))": O.perm_group(3, S3),
              "klein(a=10,b=01)": O.klein_group(((1, 0), (0, 1))),
              "cyclic(2;a=1,b=1)": O.cyclic_group(2, (1, 1))}
    towers = [("cyclic(6;a=1,b=2)", "~2", [(2, True)]),
              ("perm(3;a=(0 1),b=(1 2))", "~2", [(2, True)]),
              ("klein(a=10,b=01)", "~3", [(3, True)]),
              ("perm(3;a=(0 1),b=(1 2))", "~2,~2", [(2, True)] * 2),
              ("cyclic(2;a=1,b=1)", "~2,~2,~2", [(2, True)] * 3)]
    for name, text, layers in towers:
        total, dissolved = dissolve_counts(groups[name], layers)
        print("dissolve %-26s %-9s %5d constellations, %5d dissolved"
              % (name, text, total, dissolved))
    for name, table in groups.items():
        pairs = sum(1 for _ in O.maximal_pairs(table))
        print("pairs    %-26s %5d ordered maximal pairs, %4d amalgams"
              % (name, pairs, pairs // 2))
    print("pairs    cyclic(16;a=1,b=1)         %5d (14 * C(16, 2))" % (14 * 120))
    for name, p, tilde in (("cyclic(6;a=1,b=2)", 2, True), ("perm(3;a=(0 1),b=(1 2))", 2, True),
                           ("klein(a=10,b=01)", 3, True), ("klein(a=10,b=01)", 3, False)):
        print("order    %s(%s,%d) = %d" % ("tilde" if tilde else "gaschutz", name, p,
                                          O.Layer(groups[name], p, tilde).order()))
    print("order    tilde(cyclic(12;a=1,b=1),2) = %d"
          % O.Layer(O.cyclic_group(12, (1, 1)), 2, True).order())


if __name__ == "__main__":
    main()
