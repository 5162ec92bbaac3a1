"""The four workloads: seeded inputs, timed scenarios and their checks.

Every scenario is one operation: a `constel` CLI invocation made
in-process through `constel.cli.main(argv)` with stdout captured, or a
call of a public function where no subcommand exists.  `run` is timed;
`check` runs afterwards and raises CheckError when the outcome disagrees
with the oracles in `oracle.py`.  A negative decision (exit 1) is a
correct answer when the oracle agrees with it.

Seeds choose automorphic relabelings of the generator images (which
leave the labeled Cayley graph, and so the work, unchanged), random
words, corpus automata and subgroup generators.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import constel.automata
import constel.cli
import constel.completion
import constel.constellations
import constel.dissolve
import constel.gaschuetz
import constel.groups

import oracle as O


class CheckError(Exception):
    pass


def expect(cond: bool, message: str, *args) -> None:
    if not cond:
        raise CheckError(message % args if args else message)


@dataclass
class Scenario:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], None]
    heavy: int = 0  # executions per run; 0 for a light scenario


# HEAVY scenarios, the costliest, run the given number of times per run;
# the others run in every round (workload.timed).  predissolver-s3 is
# heavy because it reads the output of complete-s3: a light scenario may
# depend only on light ones.  dissolve-z6 runs twice because it alone
# makes up 85% of wall_s on dissolve-reach, where one execution per run
# left wall_s with a spread of 0.086 over ten runs.
HEAVY = {"dissolve-z6": 2, "dissolve-s3-2": 1, "linear-z6": 1, "dissolve-z12-weak": 1,
         "structure-klein-3": 1, "key-lemma-s3": 1, "key-lemma-z6": 1,
         "constellations-z16": 1, "complete-s3": 1, "predissolver-s3": 1}


def cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = constel.cli.main(argv)
    if rc == 2:
        raise CheckError("exit 2 from %s: %s" % (" ".join(argv), err.getvalue().strip()))
    return rc, out.getvalue()


def cli_scenario(name: str, argv: list[str], check) -> Scenario:
    return Scenario(name, lambda: cli(argv), check)


def report(outcome) -> tuple[int, dict]:
    rc, text = outcome
    return rc, json.loads(text)


# ------------------------------------------------------------- base groups

@dataclass(frozen=True)
class Base:
    """A seeded generating pair: spec text for the program, the same
    group rebuilt by the oracle."""
    text: str
    kind: str
    params: tuple

    def table(self) -> O.Cayley:
        if self.kind == "cyclic":
            return O.cyclic_group(*self.params)
        if self.kind == "klein":
            return O.klein_group(*self.params)
        return O.perm_group(*self.params)


def cyclic(rng: random.Random, n: int, images) -> Base:
    u = rng.choice([x for x in range(1, n) if math.gcd(x, n) == 1] or [1])
    imgs = tuple(u * r % n for r in images)
    text = "cyclic(%d;%s)" % (n, ",".join("%s=%d" % (O.LETTERS[i], r)
                                          for i, r in enumerate(imgs)))
    return Base(text, "cyclic", (n, imgs))


def s3(rng: random.Random) -> Base:
    """perm(3; a=(0 1), b=(1 2)) with the points relabeled."""
    s = rng.sample(range(3), 3)
    cycles = ((s[0], s[1]), (s[1], s[2]))
    images = []
    for x, y in cycles:
        img = list(range(3))
        img[x], img[y] = y, x
        images.append(tuple(img))
    text = "perm(3;a=(%d %d),b=(%d %d))" % (cycles[0] + cycles[1])
    return Base(text, "perm", (3, tuple(images)))


def klein(rng: random.Random) -> Base:
    """klein(a=10, b=01) under a random automorphism of the Klein group."""
    a, b = rng.sample([(1, 0), (0, 1), (1, 1)], 2)
    text = "klein(a=%d%d,b=%d%d)" % (a + b)
    return Base(text, "klein", ((a, b),))


def random_word(rng: random.Random, length: int, n_letters: int = 2) -> str:
    out = []
    while len(out) < length:
        ch = O.LETTERS[rng.randrange(n_letters)]
        ch = ch if rng.random() < 0.5 else ch.upper()
        if out and out[-1] == ch.swapcase():
            continue
        out.append(ch)
    return "".join(out)


# ----------------------------------------------------------- shared checks

def check_constellation_listing(items: list, table: O.Cayley) -> list:
    """The program's maximal pairs against the edge-subset bond oracle:
    same cuts, every ordered split of each cut exactly once, far sides
    equal.  Returns (xi edges, theta edges, far side) per listed pair."""
    bonds = {cut: far for cut, far in O.bonds(table)}
    full = O.all_edges(table)
    seen = set()
    pairs = []
    for item in items:
        cut = frozenset((v, O.LETTERS.index(x)) for v, x in item["cut"])
        cxi, cth = (frozenset((v, O.LETTERS.index(x)) for v, x in half)
                    for half in item["partition"])
        expect(cut in bonds, "listed cut %s is not a bond", sorted(cut))
        expect(cxi and cth and cxi | cth == cut and not cxi & cth,
               "bad split of cut %s", sorted(cut))
        expect(frozenset(item["far_component"]) == bonds[cut], "wrong far side")
        expect((cut, cxi) not in seen, "split listed twice")
        seen.add((cut, cxi))
        pairs.append((full - cth, full - cxi, sorted(bonds[cut])))
    expected = sum(2 ** len(cut) - 2 for cut in bonds)
    expect(len(items) == expected, "%d pairs listed, bond oracle gives %d",
           len(items), expected)
    return pairs


def base_pairs(base: Base, cache: dict) -> list:
    """Checked maximal pairs of a base group, in the program's order."""
    if base.text not in cache:
        _, data = report(cli(["constellations", "--group", base.text]))
        cache[base.text] = check_constellation_listing(data["constellations"], base.table())
    return cache[base.text]


def oracle_verdicts(base: Base, layers, cache: dict) -> dict[str, bool]:
    """Dissolving verdict per report label from the oracle."""
    key = (base.text, tuple(layers))
    if key not in cache:
        tower = O.Tower(base.table(), layers)
        out = {}
        for i, (xi, theta, far) in enumerate(base_pairs(base, cache)):
            for g, ok in O.dissolved_by_pair(tower, xi, theta, far).items():
                out["max%d:g%d" % (i, g)] = ok
        cache[key] = out
    return cache[key]


def check_witness(table: O.Cayley, top: O.Layer, xi, theta, g: int, witness) -> None:
    """Walk u inside Xi and v inside Theta to g; equal at the top."""
    u, v = O.parse_word(witness["u"]), O.parse_word(witness["v"])
    expect(O.walk_inside(table, xi, u) == g, "witness u leaves Xi or misses g")
    expect(O.walk_inside(table, theta, v) == g, "witness v leaves Theta or misses g")
    expect(top.evaluate(u) == top.evaluate(v), "witness words differ at the top")


def check_dissolve(outcome, base: Base, layers, cache: dict, method: str) -> dict:
    rc, data = report(outcome)
    verdicts = oracle_verdicts(base, layers, cache)
    reps = data["reports"]
    expect(len(reps) == len(verdicts), "%d reports, oracle has %d constellations",
           len(reps), len(verdicts))
    pairs = base_pairs(base, cache)
    table = base.table()
    top = None
    for r in reps:
        expect(r["method"] == method, "report %s decided by %s", r["label"], r["method"])
        expect(r["dissolved"] == verdicts[r["label"]], "verdict of %s disagrees with the oracle",
               r["label"])
        if not r["dissolved"] and method == "reachability":
            expect("witness" in r, "no witness for %s", r["label"])
            i, g = (int(x) for x in r["label"][3:].split(":g"))
            xi, theta, _ = pairs[i]
            top = top or O.Tower(table, layers).top
            check_witness(table, top, xi, theta, g, r["witness"])
    ok = all(r["dissolved"] for r in reps)
    expect(data["dissolver"] == ok and rc == (0 if ok else 1), "summary or exit code wrong")
    return {r["label"]: r["dissolved"] for r in reps}


def tower_spec(base: Base, layers_text: str):
    return constel.gaschuetz.TowerSpec(constel.cli.parse_group_spec(base.text),
                                       constel.cli.parse_layers(layers_text))


def linear_reports(spec) -> list[tuple[str, bool, str]]:
    """dissolves_linear over every maximal constellation of the base,
    with the top layer lazy: (label, dissolved, method) per report."""
    tower = constel.gaschuetz.build_tower(spec)
    phi = tower.morphism(0, 0)
    out = []
    for i, pair in enumerate(constel.constellations.maximal_constellations(tower.levels[0])):
        for g in pair.g_choices:
            label = "max%d:g%d" % (i, g)
            rep = constel.dissolve.dissolves_linear(tower.top, phi, pair.constellation(g), label)
            out.append((label, rep.dissolved, rep.method))
    return out


def linear_scenario(name: str, base: Base, layers_text: str, layers) -> Scenario:
    spec = tower_spec(base, layers_text)

    def check(outcome, ctx):
        verdicts = oracle_verdicts(base, layers, ctx["cache"])
        expect(len(outcome) == len(verdicts), "report count differs from the oracle")
        for label, dissolved, method in outcome:
            expect(method == "linear" and dissolved == verdicts[label],
                   "linear verdict of %s disagrees with the oracle", label)

    return Scenario(name, lambda: linear_reports(spec), check)


# --------------------------------------------------------------- workloads

def dissolve_reach(rng: random.Random, workdir: str) -> list[Scenario]:
    towers = [("z6", cyclic(rng, 6, (1, 2)), "~2", [(2, True)]),
              ("s3", s3(rng), "~2", [(2, True)]),
              ("klein", klein(rng), "~3", [(3, True)])]
    out = []
    for name, base, text, layers in towers:
        def check(outcome, ctx, base=base, text=text, layers=layers):
            mine = check_dissolve(outcome, base, layers, ctx["cache"], "reachability")
            # cross-method: the program's linear decider, report by report
            for label, dissolved, _ in linear_reports(tower_spec(base, text)):
                expect(dissolved == mine[label],
                       "reachability and linear verdicts differ on %s", label)
        out.append(cli_scenario("dissolve-%s" % name,
                                ["dissolve", "--group", base.text, "--layers", text], check))
    return out


def dissolve_linear(rng: random.Random, workdir: str) -> list[Scenario]:
    s3_base = s3(rng)
    z2 = Base("cyclic(2;a=1,b=1)", "cyclic", (2, (1, 1)))
    reach = [("z6", cyclic(rng, 6, (1, 2)), "~2", [(2, True)]),
             ("s3", s3_base, "~2", [(2, True)]),
             ("klein", klein(rng), "~3", [(3, True)])]

    def check_s3(outcome, ctx):
        two = check_dissolve(outcome, s3_base, [(2, True), (2, True)], ctx["cache"], "linear")
        for label, dissolved, _ in ctx["outcomes"]["linear-s3"]:
            expect(two[label] or not dissolved,
                   "%s dissolved at ~2 but not at ~2,~2", label)

    out = [cli_scenario("dissolve-s3-2", ["dissolve", "--group", s3_base.text,
                                          "--layers", "~2,~2"], check_s3),
           cli_scenario("dissolve-z2-3", ["dissolve", "--group", z2.text, "--layers",
                                          "~2,~2,~2"],
                        lambda o, ctx: check_dissolve(o, z2, [(2, True)] * 3,
                                                      ctx["cache"], "linear"))]
    out += [linear_scenario("linear-%s" % name, base, text, layers)
            for name, base, text, layers in reach]
    return out


def subgroup_word(rng: random.Random) -> str:
    """xy or x^-1 y^-1 for the two generators in either order.  All four
    generate the same subgroup (ab and ba are conjugate, and AB, BA are
    their inverses), nontrivial in each base group here: the two
    generators are distinct and not mutually inverse.  So no oracle is
    needed to choose it, and every seed does the same work."""
    word = rng.choice(["ab", "ba"])
    return word if rng.random() < 0.5 else word[::-1].upper()


def layer_arith(rng: random.Random, workdir: str) -> list[Scenario]:
    z12 = cyclic(rng, 12, (1, 1))
    groups = {"s3": (s3(rng), 2), "z6": (cyclic(rng, 6, (1, 2)), 2), "klein": (klein(rng), 3)}
    out = []

    def check_weak(outcome, ctx):
        rc, data = report(outcome)
        table = z12.table()
        tower = O.Tower(table, [(2, True)])
        expect(len(data["reports"]) == 4, "weak family has 4 signed letters")
        for r in data["reports"]:
            letter, sign = O.LETTERS.index(r["label"][6]), (-1 if r["label"].endswith("^-1") else 1)
            xi, g, theta = O.delta(table, letter, sign)
            dissolved = O.dissolved_by_pair(tower, xi, theta, [g])[g]
            expect(r["dissolved"] == dissolved, "verdict of %s disagrees with the oracle",
                   r["label"])
            if not dissolved:
                expect("witness" in r, "no witness for %s", r["label"])
                check_witness(table, tower.top, xi, theta, g, r["witness"])
        ok = all(r["dissolved"] for r in data["reports"])
        expect(data["dissolver"] == ok and rc == (0 if ok else 1), "weak dissolver summary wrong")

    out.append(cli_scenario("dissolve-z12-weak", ["dissolve", "--group", z12.text,
                                                  "--layers", "~2", "--weak"], check_weak))

    for name, (base, p) in groups.items():
        word = subgroup_word(rng)

        def check_key(outcome, ctx, base=base, p=p, word=word):
            rc, data = report(outcome)
            table = base.table()
            k_order = len(O.subgroup(table, [table.trace(O.parse_word(word))]))
            order = O.Layer(table, p, True).order()
            expect(k_order > 1 and data["subgroup_order"] == k_order, "subgroup order wrong")
            expect(data["n_edges"] == order * table.n_letters,
                   "n_edges %d != |G~||A| = %d", data["n_edges"], order * table.n_letters)
            expect(rc == 0 and data["ok"] and not data["failures"], "key lemma failures")

        out.append(cli_scenario("key-lemma-%s" % name, ["key-lemma", "--group", base.text,
                                                        "--p", str(p), "--subgroup", word],
                                check_key))

    kl = groups["klein"][0]
    kl_spec = constel.cli.parse_group_spec(kl.text)

    def structure():
        return constel.gaschuetz.coprime_structure_checks(constel.groups.materialize(kl_spec), 3)

    def check_structure(rep, ctx):
        table = kl.table()
        order = O.Layer(table, 3, False).order()
        expect(rep.order == order and rep.order_ok, "layer order %d != %d", rep.order, order)
        expect(rep.kernel_size == order // table.order and rep.center_size == 3 ** table.n_letters
               and rep.all_ok, "structure report wrong: %r", rep)

    out.append(Scenario("structure-klein-3", structure, check_structure))

    for name, (base, p), tilde in (("s3", groups["s3"], True), ("klein", groups["klein"], False)):
        def check_rank(outcome, ctx, base=base, p=p, tilde=tilde):
            rc, data = report(outcome)
            table = base.table()
            n, k = table.order, table.n_letters
            expect(p ** data["rank"] * n == O.Layer(table, p, tilde).order()
                   and data["cycle_dim"] == n * k - n + 1, "rank or cycle dimension wrong")
            expect(rc == 0 and data["formula_ok"] and data["verified"] is True,
                   "rank check not verified")

        argv = ["rank-check", "--group", base.text, "--p", str(p)] + (["--tilde"] if tilde else [])
        out.append(cli_scenario("rank-check-%s" % name, argv, check_rank))

    # inside the materialization bound (cross-checked by materializing)
    # and far past it (formula only)
    for name, base, p, tilde, fits in (
            ("s3-2", groups["s3"][0], 2, True, True),
            ("klein-3", kl, 3, True, True),
            ("z6-3", groups["z6"][0], 3, False, True),
            ("z12-3", z12, 3, True, False),
            ("s3-7", groups["s3"][0], 7, False, False)):
        text = "%s(%s,%d)" % ("tilde" if tilde else "gaschutz", base.text, p)

        def check_ab(outcome, ctx, base=base, p=p, tilde=tilde, fits=fits):
            rc, data = report(outcome)
            table = base.table()
            expected = O.layer_abelianization(table, p, tilde)
            expect(rc == 0 and data["factors"] == expected, "factors %s, oracle %s",
                   data["factors"], expected)
            if fits:
                mat, _ = O.Layer(table, p, tilde).materialize()
                expect(O.abelianization(mat) == expected,
                       "layer formula differs from the materialized abelianization")

        out.append(cli_scenario("abelianization-%s" % name,
                                ["abelianization", "--group", text], check_ab))

    # lazy word problem at the top of a two-step tower.  An element of a
    # layer over G has order dividing p*exp(G), since the layer's kernel
    # is an F_p-space; so at tilde(tilde(S3,2),2) r^24 is an identity
    # for every word r, and set-up needs no oracle to make one.
    s3b = groups["s3"][0]
    top_text = "tilde(tilde(%s,2),2)" % s3b.text

    def s3_top(cache):
        if "s3-top" not in cache:
            level, _ = O.Layer(s3b.table(), 2, True).materialize()
            top = O.Layer(level, 2, True)
            cache["s3-top"] = top, top.evaluate([])
        return cache["s3-top"]

    for i in range(4):
        r = random_word(rng, 130) * 24 if i % 2 else random_word(rng, 400)

        def check_eval(outcome, ctx, r=r, identity=bool(i % 2)):
            rc, data = report(outcome)
            top, ident = s3_top(ctx["cache"])
            trivial = top.evaluate(O.parse_word(r)) == ident
            expect(trivial or not identity, "a 24th power is not an identity at the top")
            expect(rc == (0 if trivial else 1)
                   and data["result"] == ("identity" if trivial else "non-identity"),
                   "evaluation disagrees with the oracle")

        out.append(cli_scenario("evaluate-%d" % i, ["evaluate", "--group", top_text,
                                                    "--word", r], check_eval))

    for name, base, p in (("s3", s3b, 2), ("klein", kl, 3)):
        gens = [random_word(rng, 6) for _ in range(2)]
        level_text = "tilde(%s,%d)" % (base.text, p)

        def check_closure(outcome, ctx, base=base, p=p, gens=gens):
            rc, data = report(outcome)
            table, _ = O.Layer(base.table(), p, True).materialize()
            words = [O.parse_word(w) for w in gens]
            t_set = O.subgroup(table, [table.trace(w) for w in words])
            aut = O.read_aut(data["automaton"])
            expect(data["image_order"] == len(t_set), "image order wrong")
            expect(aut.n == table.order // len(t_set) == data["n"], "coset count wrong")
            expect(aut.is_complete() and data["rank"] == aut.n_edges - aut.n + 1,
                   "coset graph incomplete or rank wrong")
            expect(O.pointed_iso(aut, O.coset_graph(table, t_set)),
                   "not the coset graph of the image")
            expect(all(aut.accepts(w) for w in words), "a generator is not accepted")

        out.append(cli_scenario("closure-%s" % name, ["closure", "--gens", ",".join(gens),
                                                      "--level", level_text], check_closure))
    return out


def oracle_amalgams(base: Base, cache: dict) -> list[O.Automaton]:
    """Amalgams of the unordered maximal pairs, from the bond oracle."""
    key = ("amalgams", base.text)
    if key not in cache:
        table = base.table()
        found = {}
        for xi, theta, _ in O.maximal_pairs(table):
            found.setdefault(frozenset((xi, theta)), (xi, theta))
        cache[key] = [O.amalgam(table, xi, th) for xi, th in found.values()]
    return cache[key]


def check_completion(outcome, source_aut: str, k: int) -> None:
    """Re-check an alternating certificate from the completed automaton
    alone, and that the completion extends its input verbatim."""
    rc, data = report(outcome)
    src = O.read_aut(source_aut)
    aut = O.read_aut(data["automaton"])
    m = src.n
    q = next(x for x in itertools.count(m + 1) if O.is_prime(x))
    n = m + q + k + 2
    expect((data["m"], data["q"], data["k"], data["n"]) == (m, q, k, n), "plan sizes wrong")
    expect(aut.n == n and aut.is_complete(), "completion is not complete on n vertices")
    expect(all(aut.fwd[u].get(a) == v for u, a, v in src.edges()), "input not extended verbatim")
    perms = O.letter_perms(aut)
    lengths = [O.cycle_lengths(g) for g in perms]
    expect(all((n - len(c)) % 2 == 0 for c in lengths), "a letter acts oddly")
    a = min(x for x in range(src.n_letters) if any(x not in d for d in src.fwd))
    b = 0 if a != 0 else 1
    expect(lengths[b].count(q) == 1 and max((x for x in lengths[b] if x != q), default=0) < q,
           "b-cycle type wrong")
    cert = data["certificate"]
    cq, power, letter = cert["prime_cycle"]
    cyc = lengths[O.LETTERS.index(letter)]
    expect(O.is_prime(cq) and cq <= n - 3 and cyc.count(cq) == 1 and math.gcd(cq, power) == 1
           and all(power % x == 0 for x in cyc if x != cq), "prime cycle evidence wrong")
    expect(O.transitive(perms, n), "not transitive")
    expect(O.primitive(perms, n), "not primitive")
    expect(rc == 0 and cert["valid"] and cert["all_even"] and cert["transitive"]
           and cert["primitive"], "certificate flags wrong")


def assembly(rng: random.Random, workdir: str) -> list[Scenario]:
    seed = rng.randrange(10 ** 6)
    z16 = cyclic(rng, 16, (1, 1))
    out = []

    def check_z16(outcome, ctx):
        rc, data = report(outcome)
        table = z16.table()
        n = table.order
        cycle = [0]  # vertices in the order letter a walks them
        while len(cycle) < n:
            cycle.append(table.fwd[cycle[-1]][0])
        pos = {v: t for t, v in enumerate(cycle)}
        expect(data["count"] == len(data["constellations"]) == 14 * math.comb(n, 2),
               "count %d != 14*C(16,2)", data["count"])
        seen = set()
        for item in data["constellations"]:
            cut = sorted(tuple(e) for e in item["cut"])
            ts = sorted({pos[v] for v, _ in cut})
            expect(len(ts) == 2 and len(cut) == 4 and {x for _, x in cut} == {"a", "b"},
                   "cut %s is not two double edges", cut)
            far = set(cycle[ts[0] + 1:ts[1] + 1])
            expect(set(item["far_component"]) == far, "far side wrong")
            cxi, cth = ({tuple(e) for e in half} for half in item["partition"])
            expect(cxi and cth and cxi | cth == set(cut) and not cxi & cth,
                   "bad split of cut %s", cut)
            seen.add((tuple(cut), tuple(sorted(cxi))))
        expect(len(seen) == len(data["constellations"]), "split listed twice")
        expect(rc == 0, "exit code %d", rc)

    out.append(cli_scenario("constellations-z16", ["constellations", "--group", z16.text],
                            check_z16))

    for name, base in (("s3", s3(rng)), ("z2", Base("cyclic(2;a=1,b=1)", "cyclic", (2, (1, 1))))):
        ag_path = os.path.join(workdir, "ag_%s.aut" % name)
        comp_path = os.path.join(workdir, "complete_%s.aut" % name)
        spec = constel.cli.parse_group_spec(base.text)

        def check_amalgam(outcome, ctx, base=base):
            rc, data = report(outcome)
            mine = oracle_amalgams(base, ctx["cache"])
            expect(data["count"] == len(mine), "%d amalgams, oracle %d", data["count"], len(mine))
            a = O.read_aut(data["automaton"])
            expect(any(O.pointed_iso(a, b) for b in mine), "amalgam 0 is not an amalgam")

        def check_ag(outcome, ctx, name=name, base=base):
            rc, data = report(outcome)
            ag = O.read_aut(data["automaton"])
            parts = ctx["outcomes"]["predissolver-%s" % name][1]
            left = list(oracle_amalgams(base, ctx["cache"]))
            for text in parts:
                a = O.read_aut(text)
                hit = next((i for i, b in enumerate(left) if O.pointed_iso(a, b)), None)
                expect(hit is not None, "amalgam not among the oracle's amalgams")
                left.pop(hit)
            expect(not left, "amalgams missing")
            expect(ag.is_connected() and not ag.is_complete(), "AG not connected or complete")
            offset = 0
            for text in parts:
                a = O.read_aut(text)
                expect(O.embed_map(a, ag, offset + a.base) is not None,
                       "amalgam does not embed at its offset")
                offset += a.n
            expect(ag.n == offset + 1, "AG size wrong")

        def check_complete(outcome, ctx, ag_path=ag_path):
            with open(ag_path) as fh:
                check_completion(outcome, fh.read(), 0)

        def predissolver(spec=spec, comp_path=comp_path):
            with open(comp_path) as fh:
                graph = constel.automata.read_aut(fh.read())
            completion = constel.automata.as_inverse_automaton(graph)
            auts = constel.constellations.amalgams_of(constel.groups.materialize(spec))
            rep = constel.completion.predissolver_certificate(completion, auts)
            return rep, [constel.automata.write_aut(a) for a in auts]

        def check_pre(outcome, ctx, comp_path=comp_path):
            rep, parts = outcome
            with open(comp_path) as fh:
                comp = O.read_aut(fh.read())
            expect(rep.all_found and len(rep.witnesses) == len(parts), "witness missing")
            for text, w in zip(parts, rep.witnesses):
                expect(O.embed_map(O.read_aut(text), comp, w) is not None,
                       "amalgam does not embed at its witness vertex")

        out += [cli_scenario("amalgam-%s" % name, ["amalgam", "--group", base.text,
                                                   "--index", "0"], check_amalgam),
                cli_scenario("ag-%s" % name, ["ag", "--group", base.text, "--aut-out", ag_path],
                             check_ag),
                cli_scenario("complete-%s" % name,
                             ["complete-alternating", "--automaton", ag_path, "--k", "0",
                              "--seed", str(seed), "--aut-out", comp_path], check_complete),
                Scenario("predissolver-%s" % name, predissolver, check_pre)]

    # a seeded corpus of cores, each completed at several sizes
    corpus_dir = os.path.join(workdir, "corpus")
    _, text = cli(["corpus", "--seed", str(seed), "--count", "8", "--dir", corpus_dir])
    cores = json.loads(text)["files"]
    for i in range(4):
        while True:
            gens = [random_word(rng, 18) for _ in range(2)]
            core = O.stallings_core([O.parse_word(w) for w in gens], 2)
            if core.n >= 3 and not core.is_complete():
                break
        path = os.path.join(workdir, "core_%d.aut" % i)

        def check_core(outcome, ctx, core=core):
            rc, data = report(outcome)
            aut = O.read_aut(data["automaton"])
            expect(O.pointed_iso(aut, core), "core differs from the oracle's fold")
            expect(data["rank"] == core.n_edges - core.n + 1, "rank wrong")

        out.append(cli_scenario("core-%d" % i, ["core", "--gens", ",".join(gens),
                                                "--letters", "2", "--aut-out", path], check_core))
        cores.append(path)
    for path in cores:
        for k in (0, 3, 11):
            def check_corpus(outcome, ctx, path=path, k=k):
                with open(path) as fh:
                    check_completion(outcome, fh.read(), k)

            out.append(cli_scenario("complete-%s-k%d" % (os.path.basename(path), k),
                                    ["complete-alternating", "--automaton", path, "--k", str(k),
                                     "--seed", str(seed)], check_corpus))
    return out


WORKLOADS = {
    "dissolve-reach": dissolve_reach,
    "dissolve-linear": dissolve_linear,
    "layer-arith": layer_arith,
    "assembly": assembly,
}


def build(name: str, seed: int, workdir: str) -> list[Scenario]:
    plan = WORKLOADS[name](random.Random("%s:%d" % (name, seed)), workdir)
    for sc in plan:
        sc.heavy = HEAVY.get(sc.name, 0)
    return plan
