"""Command-line front end.

Subcommands cover folding and cores, Cayley graphs, constellations and
amalgams, alternating completions, extension-layer reports, dissolving
and disconnection checks, finite-level closures, and a seeded corpus
generator.  Every report is JSON with a top-level `schema: 1`, written
to standard output or `--out`.  Exit codes: 0 success / property holds,
1 property fails (witness in the report), 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys

from .automata import (InverseAutomaton, as_inverse_automaton, core_of_words, fold,
                       member, rank_from_core, read_aut, to_dot, transition_group,
                       write_aut)
from .closure import closure_at_level, product_membership_at_level, subgroup_image
from .completion import complete_to_alternating, smallest_prime_greater
from .constellations import amalgams_of, assemble_AG, maximal_constellations
from .dissolve import (disconnection_equivalence, dissolve_all, key_lemma_report,
                       schreier_rank_check)
from .errors import VerificationError
from .gaschuetz import (GaschuetzLayer, TowerSpec, build_tower, center,
                        layer_abelianization)
from .groups import (CyclicSpec, ExtensionSpec, KleinSpec, PermSpec, ProductSpec,
                     abelianization, canonical_morphism, check_size, materialize)
from .perms import alternating_certificate, parse_cycles
from .words import ASCII_LETTERS, Alphabet, Word, format_word, parse_word


class InputError(ValueError):
    pass


SPEC_DEPTH = 64  # deepest nesting of gaschutz / tilde / prodA in a group spec


# ---------------------------------------------------------------- parsing

def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InputError("unbalanced parentheses in %r" % text)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise InputError("unbalanced parentheses in %r" % text)
    parts.append("".join(cur))
    return parts


def _letter_args(parts: list[str]) -> list[str]:
    """Values of letter assignments a=..., b=..., contiguous from a."""
    values: dict[int, str] = {}
    for part in parts:
        if "=" not in part:
            raise InputError("expected letter=value, got %r" % part)
        name, value = part.split("=", 1)
        name = name.strip()
        if len(name) != 1 or name not in ASCII_LETTERS:
            raise InputError("letter names must be single characters a-z, got %r" % name)
        idx = ASCII_LETTERS.index(name)
        if idx in values:
            raise InputError("letter %s assigned twice" % name)
        values[idx] = value.strip()
    if sorted(values) != list(range(len(values))) or not values:
        raise InputError("letters must be contiguous starting at a")
    return [values[i] for i in range(len(values))]


def parse_group_spec(text: str, depth: int = 0):
    """Mini-language: cyclic(n; a=1, b=1), klein(a=10, b=01),
    perm(n; a=(0 1 2)), gaschutz(<spec>, p), tilde(<spec>, p),
    prodA(<spec>, <spec>); nested at most SPEC_DEPTH deep."""
    if depth > SPEC_DEPTH:
        raise InputError("group spec nested deeper than %d" % SPEC_DEPTH)
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise InputError("malformed group spec %r" % text)
    name, inner = text.split("(", 1)
    name = name.strip()
    inner = inner[:-1]
    if name == "cyclic":
        head, _, rest = inner.partition(";")
        images = _letter_args([p for p in _split_top(rest, ",") if p.strip()])
        try:
            return CyclicSpec(int(head), tuple(int(v) for v in images))
        except ValueError as exc:
            raise InputError(str(exc))
    if name == "klein":
        images = _letter_args([p for p in _split_top(inner, ",") if p.strip()])
        for v in images:
            if len(v) != 2 or any(ch not in "01" for ch in v):
                raise InputError("klein images are two bits, got %r" % v)
        return KleinSpec(tuple((int(v[0]), int(v[1])) for v in images))
    if name == "perm":
        head, _, rest = inner.partition(";")
        try:
            degree = int(head)
        except ValueError as exc:
            raise InputError(str(exc))
        if degree < 0:
            raise InputError("permutation degree must be nonnegative, got %d" % degree)
        check_size(degree, "permutation degree")
        images = _letter_args([p for p in _split_top(rest, ",") if p.strip()])
        return PermSpec(degree, tuple(parse_cycles(v, degree) for v in images))
    if name in ("gaschutz", "tilde"):
        parts = _split_top(inner, ",")
        if len(parts) != 2:
            raise InputError("%s(<spec>, p) takes two arguments" % name)
        try:
            p = int(parts[1])
        except ValueError as exc:
            raise InputError(str(exc))
        return ExtensionSpec(parse_group_spec(parts[0], depth + 1), p, tilde=name == "tilde")
    if name == "prodA":
        parts = _split_top(inner, ",")
        if len(parts) != 2:
            raise InputError("prodA(<spec>, <spec>) takes two arguments")
        return ProductSpec(parse_group_spec(parts[0], depth + 1),
                           parse_group_spec(parts[1], depth + 1))
    raise InputError("unknown group constructor %r" % name)


def parse_layers(text: str) -> tuple[tuple[int, bool], ...]:
    """Tower syntax "~2,~2,3": ~ marks a tilde layer, the number is p."""
    layers = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        tilde = token.startswith("~")
        try:
            p = int(token[1:] if tilde else token)
        except ValueError:
            raise InputError("malformed layer %r" % token)
        layers.append((p, tilde))
    return tuple(layers)


def _parse_word(text: str, n_letters: int) -> Word:
    try:
        return parse_word(text, Alphabet.of_size(n_letters))
    except ValueError as exc:
        raise InputError(str(exc))


def _parse_wordlist(text: str, n_letters: int | None = None) -> tuple[list[Word], int]:
    """Comma-separated words; alphabet size inferred when not given."""
    texts = [t.strip() for t in text.split(",") if t.strip()]
    words = [_parse_word(t, n_letters if n_letters is not None else 26) for t in texts]
    if n_letters is None:
        n_letters = max(max((w.max_letter() + 1 for w in words), default=1), 1)
    return words, n_letters


def _read_automaton(path: str) -> InverseAutomaton:
    try:
        with open(path) as fh:
            graph = read_aut(fh.read())
        return as_inverse_automaton(graph)
    except OSError as exc:
        raise InputError(str(exc))


# ---------------------------------------------------------------- reports

def _letter_name(letter: int) -> str:
    return ASCII_LETTERS[letter]


def _edge_json(edge: tuple[int, int]) -> list:
    return [edge[0], _letter_name(edge[1])]


def _check_printable(value) -> None:
    """Raise the ValueError that `json.dump` would raise halfway through
    the stream on an integer past Python's int-to-str digit limit."""
    if isinstance(value, int):
        str(value)
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _check_printable(item)


def _emit(args, payload: dict) -> None:
    payload = {"schema": 1, **payload}
    for key, value in payload.items():
        try:
            _check_printable(value)
        except ValueError:
            raise InputError("%s has more than %d digits, too many to print"
                             % (key, sys.get_int_max_str_digits())) from None
    out = getattr(args, "out", None)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_aut_file(args, aut) -> None:
    if getattr(args, "aut_out", None):
        with open(args.aut_out, "w") as fh:
            fh.write(write_aut(aut))


# ------------------------------------------------------------ subcommands

def _cmd_fold(args) -> int:
    with open(args.automaton) as fh:
        graph = read_aut(fh.read())
    aut = fold(graph)
    _write_aut_file(args, aut)
    payload = {"command": "fold", "automaton": write_aut(aut), "n": aut.n}
    if args.dot:
        payload["dot"] = to_dot(aut)
    _emit(args, payload)
    return 0


def _cmd_core(args) -> int:
    gens, n_letters = _parse_wordlist(args.gens, args.letters)
    aut = core_of_words(gens, n_letters)
    _write_aut_file(args, aut)
    payload = {"command": "core", "automaton": write_aut(aut), "n": aut.n}
    if aut.is_connected():
        payload["rank"] = rank_from_core(aut)
    _emit(args, payload)
    return 0


def _cmd_member(args) -> int:
    gens, n_letters = _parse_wordlist(args.gens, args.letters)
    w = _parse_word(args.word, n_letters if args.letters is not None else 26)
    n_letters = max(n_letters, w.max_letter() + 1)
    aut = core_of_words(gens, n_letters)
    ok = member(aut, w)
    _emit(args, {"command": "member", "word": format_word(w), "member": ok})
    return 0 if ok else 1


def _cmd_cayley(args) -> int:
    group = materialize(parse_group_spec(args.group))
    aut = group.cayley
    _write_aut_file(args, aut)
    payload = {"command": "cayley", "automaton": write_aut(aut), "order": group.order}
    if args.dot:
        payload["dot"] = to_dot(aut)
    _emit(args, payload)
    return 0


def _cmd_constellations(args) -> int:
    group = materialize(parse_group_spec(args.group))
    items = []
    for pair in maximal_constellations(group):
        items.append({
            "cut": [_edge_json(e) for e in sorted(pair.cut.cut)],
            "partition": [[_edge_json(e) for e in sorted(pair.c_xi)],
                          [_edge_json(e) for e in sorted(pair.c_theta)]],
            "far_component": sorted(pair.g_choices),
        })
    _emit(args, {"command": "constellations", "count": len(items),
                 "constellations": items})
    return 0


def _cmd_amalgam(args) -> int:
    group = materialize(parse_group_spec(args.group))
    auts = amalgams_of(group)
    if not 0 <= args.index < len(auts):
        raise InputError("index %d out of range (%d amalgams)" % (args.index, len(auts)))
    aut = auts[args.index]
    _write_aut_file(args, aut)
    _emit(args, {"command": "amalgam", "index": args.index, "count": len(auts),
                 "automaton": write_aut(aut), "n": aut.n})
    return 0


def _cmd_ag(args) -> int:
    group = materialize(parse_group_spec(args.group))
    aut = assemble_AG(group)
    _write_aut_file(args, aut)
    _emit(args, {"command": "ag", "automaton": write_aut(aut), "n": aut.n})
    return 0


def _certificate_json(cert) -> dict:
    return {
        "degree": cert.degree,
        "transitive": cert.transitive,
        "primitive": cert.primitive,
        "all_even": cert.all_even,
        "prime_cycle": None if cert.prime_cycle is None else
            [cert.prime_cycle[0], cert.prime_cycle[1], _letter_name(cert.prime_cycle[2])],
        "valid": cert.valid(),
    }


def _cmd_complete_alternating(args) -> int:
    aut = _read_automaton(args.automaton)
    if args.n is None and args.k is None:
        raise InputError("one of --n or --k is required")
    if args.n is not None:
        n = args.n
    else:
        n = aut.n + smallest_prime_greater(aut.n) + args.k + 2
    completed, cert, plan = complete_to_alternating(aut, n, seed=args.seed)
    _write_aut_file(args, completed)
    _emit(args, {
        "command": "complete-alternating",
        "automaton": write_aut(completed),
        "m": plan.m, "q": plan.q, "k": plan.k, "n": plan.n,
        "certificate": _certificate_json(cert),
    })
    return 0 if cert.valid() else 1


def _cmd_certify_an(args) -> int:
    aut = _read_automaton(args.automaton)
    cert = alternating_certificate(transition_group(aut))
    _emit(args, {"command": "certify-an", **_certificate_json(cert)})
    return 0 if cert.valid() else 1


def _layer_from_spec(args) -> GaschuetzLayer:
    spec = parse_group_spec(args.group)
    if not isinstance(spec, ExtensionSpec):
        raise InputError("expected a gaschutz(...) or tilde(...) group spec")
    return GaschuetzLayer(materialize(spec.inner), spec.p, tilde=spec.tilde)


def _cmd_gaschutz_info(args) -> int:
    layer = _layer_from_spec(args)
    base = layer.base
    payload = {
        "command": "gaschutz-info",
        "base_order": base.order,
        "n_letters": base.n_letters,
        "p": layer.p,
        "tilde": layer.tilde,
        "order": layer.order(),
        "kernel_rank": layer.kernel_rank(),
    }
    if not layer.tilde:
        payload["center_order"] = layer.p ** base.n_letters
    _emit(args, payload)
    return 0


def _cmd_center(args) -> int:
    layer = _layer_from_spec(args)
    info = center(layer)
    _emit(args, {
        "command": "center",
        "p": info.p,
        "order": info.order,
        "witness_words": [format_word(w) for w in info.witness_words],
    })
    return 0


def _cmd_evaluate(args) -> int:
    spec = parse_group_spec(args.group)
    if isinstance(spec, ExtensionSpec):
        layer = GaschuetzLayer(materialize(spec.inner), spec.p, tilde=spec.tilde)
        w = _parse_word(args.word, layer.base.n_letters)
        trivial = layer.is_identity(w)
    else:
        group = materialize(spec)
        w = _parse_word(args.word, group.n_letters)
        trivial = group.evaluate(w) == 0
    _emit(args, {"command": "evaluate", "word": format_word(w),
                 "result": "identity" if trivial else "non-identity"})
    return 0 if trivial else 1


def _report_json(report) -> dict:
    item = {"label": report.label, "dissolved": report.dissolved,
            "method": report.method}
    if report.witness is not None:
        item["witness"] = {"u": format_word(report.witness[0]),
                           "v": format_word(report.witness[1])}
    if report.endpoint is not None:
        item["endpoint"] = report.endpoint
    if report.vector is not None:
        item["vector"] = [[h, _letter_name(a), c]
                          for (h, a), c in sorted(report.vector.items())]
    return item


def _cmd_dissolve(args) -> int:
    spec = parse_group_spec(args.group)
    tower = build_tower(TowerSpec(spec, parse_layers(args.layers)))
    reports = dissolve_all(tower, weak=args.weak)
    ok = all(r.dissolved for r in reports)
    _emit(args, {
        "command": "dissolve",
        "weak": args.weak,
        "layers": [("~%d" if tilde else "%d") % p for p, tilde in tower.spec.layers],
        "dissolver": ok,
        "reports": [_report_json(r) for r in reports],
    })
    return 0 if ok else 1


def _cmd_disconnect(args) -> int:
    h_group = materialize(parse_group_spec(args.group))
    g_group = materialize(parse_group_spec(args.base))
    phi = canonical_morphism(h_group, g_group)
    if phi is None:
        raise InputError("no letter-respecting morphism between the given groups")
    if len(args.letter) != 1 or args.letter not in ASCII_LETTERS[:g_group.n_letters]:
        raise InputError("unknown letter %r" % args.letter)
    letter = ASCII_LETTERS.index(args.letter)
    four = disconnection_equivalence(phi, letter, args.sign)
    agree = len(set(four)) == 1
    _emit(args, {
        "command": "disconnect",
        "letter": args.letter,
        "sign": args.sign,
        "disconnected": four[0],
        "separated_identity": four[1],
        "separated_kernel": four[2],
        "dissolves_delta": four[3],
        "equivalent": agree,
    })
    return 0 if agree else 1


def _cmd_key_lemma(args) -> int:
    group = materialize(parse_group_spec(args.group))
    gens, _ = _parse_wordlist(args.subgroup, group.n_letters)
    k_set = subgroup_image(gens, group)
    report = key_lemma_report(group, args.p, k_set)
    _emit(args, {
        "command": "key-lemma",
        "p": args.p,
        "subgroup_order": len(k_set),
        "n_edges": report.n_edges,
        "failures": [_edge_json(e) for e in report.failures],
        "ok": report.all_ok,
    })
    return 0 if report.all_ok else 1


def _cmd_rank_check(args) -> int:
    group = materialize(parse_group_spec(args.group))
    report = schreier_rank_check(GaschuetzLayer(group, args.p, tilde=args.tilde))
    ok = report.formula_ok and report.verified is not False
    _emit(args, {
        "command": "rank-check",
        "p": report.p,
        "tilde": report.tilde,
        "rank": report.rank,
        "cycle_dim": report.cycle_dim,
        "tilde_deficit": report.tilde_deficit,
        "formula_ok": report.formula_ok,
        "verified": report.verified,
    })
    return 0 if ok else 1


def _cmd_abelianization(args) -> int:
    spec = parse_group_spec(args.group)
    if isinstance(spec, ExtensionSpec):
        factors = layer_abelianization(materialize(spec.inner), spec.p,
                                       tilde=spec.tilde)
    else:
        factors = abelianization(materialize(spec))
    _emit(args, {"command": "abelianization", "factors": factors})
    return 0


def _cmd_closure(args) -> int:
    group = materialize(parse_group_spec(args.level))
    gens, _ = _parse_wordlist(args.gens, group.n_letters)
    aut = closure_at_level(gens, group)
    _write_aut_file(args, aut)
    _emit(args, {"command": "closure", "automaton": write_aut(aut),
                 "n": aut.n, "rank": rank_from_core(aut),
                 "image_order": len(subgroup_image(gens, group))})
    return 0


def _cmd_rz_member(args) -> int:
    group = materialize(parse_group_spec(args.level))
    subgroups = []
    for chunk in args.subgroups.split("|"):
        gens, _ = _parse_wordlist(chunk, group.n_letters)
        subgroups.append(gens)
    w = _parse_word(args.word, group.n_letters)
    ok = product_membership_at_level(w, subgroups, group)
    _emit(args, {"command": "rz-member", "word": format_word(w), "member": ok})
    return 0 if ok else 1


def _random_corpus_automaton(rng: random.Random, m: int, n_letters: int = 2
                             ) -> InverseAutomaton:
    """Connected folded incomplete automaton on m vertices; at most
    m - 1 + m // 2 edges keeps it strictly below completeness."""
    has_out = [set() for _ in range(m)]
    has_in = [set() for _ in range(m)]
    edges = []

    def try_add(u: int, letter: int, v: int) -> bool:
        if letter in has_out[u] or letter in has_in[v]:
            return False
        has_out[u].add(letter)
        has_in[v].add(letter)
        edges.append((u, letter, v))
        return True

    for v in range(1, m):
        while True:
            u = rng.randrange(v)
            letter = rng.randrange(n_letters)
            src, dst = (u, v) if rng.random() < 0.5 else (v, u)
            if try_add(src, letter, dst):
                break
    for _ in range(m // 2):
        try_add(rng.randrange(m), rng.randrange(n_letters), rng.randrange(m))
    return InverseAutomaton(m, n_letters, edges, base=0)


def _cmd_corpus(args) -> int:
    if args.m_min < 3:
        raise InputError("m must be at least 3 (completion precondition)")
    if args.m_max < args.m_min:
        raise InputError("empty m range")
    check_size(args.m_max, "corpus automaton size m")
    check_size(args.count, "corpus count")
    rng = random.Random(args.seed)
    os.makedirs(args.dir, exist_ok=True)
    files = []
    for i in range(args.count):
        m = rng.randint(args.m_min, args.m_max)
        aut = _random_corpus_automaton(rng, m)
        if not aut.is_connected() or aut.is_complete():
            raise VerificationError("corpus automaton %d is disconnected or complete" % i)
        name = os.path.join(args.dir, "corpus_%03d.aut" % i)
        with open(name, "w") as fh:
            fh.write(write_aut(aut))
        files.append(name)
    _emit(args, {"command": "corpus", "seed": args.seed, "count": args.count,
                 "files": files})
    return 0


# ---------------------------------------------------------------- driver

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="constel")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write the JSON report to this file")
        return p

    p = cmd("fold", _cmd_fold, help="fold an .aut file")
    p.add_argument("--automaton", required=True)
    p.add_argument("--aut-out", help="also write the result as .aut")
    p.add_argument("--dot", action="store_true")

    p = cmd("core", _cmd_core, help="Stallings automaton of <gens>")
    p.add_argument("--gens", required=True)
    p.add_argument("--letters", type=int)
    p.add_argument("--aut-out")

    p = cmd("member", _cmd_member, help="subgroup membership")
    p.add_argument("--gens", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--letters", type=int)

    p = cmd("cayley", _cmd_cayley, help="Cayley graph of a group spec")
    p.add_argument("--group", required=True)
    p.add_argument("--aut-out")
    p.add_argument("--dot", action="store_true")

    p = cmd("constellations", _cmd_constellations, help="maximal constellations")
    p.add_argument("--group", required=True)

    p = cmd("amalgam", _cmd_amalgam, help="one amalgam of a maximal pair")
    p.add_argument("--group", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--aut-out")

    p = cmd("ag", _cmd_ag, help="chained amalgam assembly")
    p.add_argument("--group", required=True)
    p.add_argument("--aut-out")

    p = cmd("complete-alternating", _cmd_complete_alternating,
            help="complete to an alternating-certified automaton")
    p.add_argument("--automaton", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--aut-out")

    p = cmd("certify-an", _cmd_certify_an, help="alternating certificate")
    p.add_argument("--automaton", required=True)

    p = cmd("gaschutz-info", _cmd_gaschutz_info, help="extension layer report")
    p.add_argument("--group", required=True)

    p = cmd("center", _cmd_center, help="center of a plain extension layer")
    p.add_argument("--group", required=True)

    p = cmd("evaluate", _cmd_evaluate, help="evaluate a word in a group")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)

    p = cmd("dissolve", _cmd_dissolve, help="dissolver decision over a tower")
    p.add_argument("--group", required=True)
    p.add_argument("--layers", default="")
    p.add_argument("--weak", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="accepted for compatibility; output is always JSON")

    p = cmd("disconnect", _cmd_disconnect, help="disconnection equivalence")
    p.add_argument("--group", required=True, help="the covering group H")
    p.add_argument("--base", required=True, help="the base group G")
    p.add_argument("--letter", required=True)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))

    p = cmd("key-lemma", _cmd_key_lemma, help="edge-translate disconnection")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--subgroup", required=True,
                   help="comma-separated generator words for K")

    p = cmd("rank-check", _cmd_rank_check, help="kernel rank vs cycle dimension")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tilde", action="store_true")

    p = cmd("abelianization", _cmd_abelianization, help="invariant factors")
    p.add_argument("--group", required=True)

    p = cmd("closure", _cmd_closure, help="level closure of <gens>")
    p.add_argument("--gens", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--aut-out")

    p = cmd("rz-member", _cmd_rz_member, help="product membership at a level")
    p.add_argument("--word", required=True)
    p.add_argument("--subgroups", required=True, help="groups split by |, gens by ,")
    p.add_argument("--level", required=True)

    p = cmd("corpus", _cmd_corpus, help="seeded incomplete-automaton corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--m-min", type=int, default=3)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--dir", default="corpus")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except VerificationError as exc:
        sys.stderr.write("error: self-check failed: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
