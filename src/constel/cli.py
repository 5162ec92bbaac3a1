"""Command-line front end.

Subcommands cover folding and cores, Cayley graphs, constellations and
amalgams, alternating completions, extension-layer reports, dissolving
and disconnection checks, finite-level closures, and a seeded corpus
generator.  Each subcommand returns its payload and verdict; `main`
adds `schema: 1` and `command`, writes the report's `automaton` to
`--aut-out` and the JSON report to standard output or `--out`, and maps
the verdict to the exit code: 0 success / property holds, 1 property
fails (witness in the report), 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import random
import sys
import warnings
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from .automata import (InverseAutomaton, LabeledGraph, as_inverse_automaton,
                       core_of_words, fold, member, rank_from_core, read_aut, to_dot,
                       transition_group, write_aut)
from .closure import closure_at_level, product_membership_at_level, subgroup_image
from .completion import complete_to_alternating, smallest_prime_greater
from .constellations import amalgams_of, assemble_AG, maximal_constellations
from .dissolve import (disconnection_equivalence, dissolve_all, key_lemma_report,
                       schreier_rank_check)
from .errors import VerificationError
from .gaschuetz import (GaschuetzLayer, TowerSpec, build_tower, center,
                        layer_abelianization)
from .groups import (CyclicSpec, ExtensionSpec, KleinSpec, ProductSpec, OrderBoundError,
                     _materialize, abelianization, canonical_morphism, check_size,
                     materialize, parse_int, warn_identity_letters)
from .perms import PermSpec, alternating_certificate, parse_cycles
from .words import ASCII_LETTERS, Word, check_alphabet, format_word, parse_word


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
                raise ValueError("unbalanced parentheses in %r" % text)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValueError("unbalanced parentheses in %r" % text)
    parts.append("".join(cur))
    return parts


def _letter_args(parts: list[str]) -> list[str]:
    """Values of letter assignments a=..., b=..., contiguous from a."""
    values: dict[int, str] = {}
    for part in parts:
        if "=" not in part:
            raise ValueError("expected letter=value, got %r" % part)
        name, value = part.split("=", 1)
        name = name.strip()
        if len(name) != 1 or name not in ASCII_LETTERS:
            raise ValueError("letter names must be single characters a-z, got %r" % name)
        idx = ASCII_LETTERS.index(name)
        if idx in values:
            raise ValueError("letter %s assigned twice" % name)
        values[idx] = value.strip()
    if sorted(values) != list(range(len(values))) or not values:
        raise ValueError("letters must be contiguous starting at a")
    return [values[i] for i in range(len(values))]


def parse_group_spec(text: str, depth: int = 0):
    """Mini-language: cyclic(n; a=1, b=1), klein(a=10, b=01),
    perm(n; a=(0 1 2)), gaschutz(<spec>, p), tilde(<spec>, p),
    prodA(<spec>, <spec>); nested at most SPEC_DEPTH deep."""
    if depth > SPEC_DEPTH:
        raise ValueError("group spec nested deeper than %d" % SPEC_DEPTH)
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError("malformed group spec %r" % text)
    name, inner = text.split("(", 1)
    name = name.strip()
    inner = inner[:-1]
    if name == "cyclic":
        head, _, rest = inner.partition(";")
        images = _letter_args([p for p in _split_top(rest, ",") if p.strip()])
        return CyclicSpec(parse_int(head, "cyclic group order"),
                          tuple(parse_int(v, "cyclic letter image") for v in images))
    if name == "klein":
        images = _letter_args([p for p in _split_top(inner, ",") if p.strip()])
        for v in images:
            if len(v) != 2 or any(ch not in "01" for ch in v):
                raise ValueError("klein images are two bits, got %r" % v)
        return KleinSpec(tuple((int(v[0]), int(v[1])) for v in images))
    if name == "perm":
        head, _, rest = inner.partition(";")
        degree = parse_int(head, "permutation degree")
        if degree < 0:
            raise ValueError("permutation degree must be nonnegative, got %d" % degree)
        check_size(degree, "permutation degree")
        images = _letter_args([p for p in _split_top(rest, ",") if p.strip()])
        return PermSpec(degree, tuple(parse_cycles(v, degree) for v in images))
    if name in ("gaschutz", "tilde"):
        parts = _split_top(inner, ",")
        if len(parts) != 2:
            raise ValueError("%s(<spec>, p) takes two arguments" % name)
        return ExtensionSpec(parse_group_spec(parts[0], depth + 1),
                             parse_int(parts[1], "modulus"), tilde=name == "tilde")
    if name == "prodA":
        parts = _split_top(inner, ",")
        if len(parts) != 2:
            raise ValueError("prodA(<spec>, <spec>) takes two arguments")
        return ProductSpec(parse_group_spec(parts[0], depth + 1),
                           parse_group_spec(parts[1], depth + 1))
    raise ValueError("unknown group constructor %r" % name)


def parse_layers(text: str) -> tuple[tuple[int, bool], ...]:
    """Tower syntax "~2,~2,3": ~ marks a tilde layer, the number is p."""
    layers = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        tilde = token.startswith("~")
        try:
            p = parse_int(token[1:] if tilde else token, "modulus")
        except OrderBoundError:
            raise
        except ValueError:
            raise ValueError("malformed layer %r" % token)
        layers.append((p, tilde))
    return tuple(layers)


def _parse_wordlist(text: str, n_letters: int | None = None) -> tuple[list[Word], int]:
    """Comma-separated words; alphabet size inferred when not given."""
    if n_letters is not None:
        check_alphabet(n_letters)  # also when the list holds no word to parse it
    texts = [t.strip() for t in text.split(",") if t.strip()]
    words = [parse_word(t, n_letters if n_letters is not None else 26) for t in texts]
    if n_letters is None:
        n_letters = max(max((w.max_letter() + 1 for w in words), default=1), 1)
    return words, n_letters


def _read_graph(path: str) -> LabeledGraph:
    """The .aut file at path; its letter_names name the letters in every
    output made from it."""
    with open(path) as fh:
        return read_aut(fh.read())


# ---------------------------------------------------------------- reports

def _edge_json(edge: tuple[int, int]) -> list:
    return [edge[0], ASCII_LETTERS[edge[1]]]


def _check_printable(value) -> None:
    """Raise the ValueError that `_write_json` would raise halfway through
    the stream on an integer past Python's int-to-str digit limit."""
    if isinstance(value, int):
        str(value)
    elif isinstance(value, (list, tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            _check_printable(item)


def _write_json(fh, value) -> None:
    """Write value to fh as `json.dump(value, fh, indent=2, sort_keys=True)`
    does, byte for byte, for what reports hold: str, int, bool, None,
    arrays (lists, tuples or generators, each item made as it is written)
    and dicts with str keys.  The pieces go out in batches of a few
    hundred, so no text of the whole report is held."""
    parts: list[str] = []

    def put(value, indent: str) -> None:
        if isinstance(value, str):
            parts.append(encode_basestring_ascii(value))
        elif value is None:
            parts.append("null")
        elif value is True:
            parts.append("true")
        elif value is False:
            parts.append("false")
        elif isinstance(value, int):
            parts.append(int.__repr__(value))
        elif isinstance(value, (list, tuple, GeneratorType)):
            inner = indent + "  "
            sep = "[\n" + inner
            for item in value:
                parts.append(sep)
                put(item, inner)
                sep = ",\n" + inner
            parts.append("[]" if sep[0] == "[" else "\n" + indent + "]")
        elif isinstance(value, dict):
            inner = indent + "  "
            sep = "{\n" + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError("keys must be str, not %s" % type(key).__name__)
                parts.append(sep + encode_basestring_ascii(key) + ": ")
                put(value[key], inner)
                sep = ",\n" + inner
            parts.append("{}" if sep[0] == "{" else "\n" + indent + "}")
        else:
            raise TypeError("Object of type %s is not JSON serializable"
                            % type(value).__name__)
        if len(parts) >= 512:
            fh.write("".join(parts))
            parts.clear()

    put(value, "")
    fh.write("".join(parts))


def _emit(args, payload: dict) -> None:
    """Write the report, refused first if one of its integers is too long
    to print, so that a refused report writes nothing.  Generator arrays
    are not checked, since walking one would make its items twice.  The
    two there are, the items of `constellations` and `dissolve`, hold only
    vertex ids (below the `check_size` bound), letters, words and residues
    mod p (below the `check_modulus` bound)."""
    payload = {"schema": 1, **payload}
    for key, value in payload.items():
        try:
            _check_printable(value)
        except ValueError:
            raise ValueError("%s has more than %d digits, too many to print"
                             % (key, sys.get_int_max_str_digits())) from None
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        _write_json(fh, payload)
        fh.write("\n")


# ------------------------------------------------------------ subcommands
# Each returns (payload, ok): the report without `schema` and `command`,
# and the verdict that `main` maps to exit 0 or 1.

def _cmd_fold(args) -> tuple[dict, bool]:
    graph = _read_graph(args.automaton)
    aut, names = fold(graph), graph.letter_names
    payload = {"automaton": write_aut(aut, names), "n": aut.n}
    if args.dot:
        payload["dot"] = to_dot(aut, names)
    return payload, True


def _cmd_core(args) -> tuple[dict, bool]:
    gens, n_letters = _parse_wordlist(args.gens, args.letters)
    aut = core_of_words(gens, n_letters)
    # a core of words is connected: the bouquet is, so are its quotients, and trim cuts leaves
    return {"automaton": write_aut(aut), "n": aut.n, "rank": rank_from_core(aut)}, True


def _cmd_member(args) -> tuple[dict, bool]:
    gens, n_letters = _parse_wordlist(args.gens, args.letters)
    w = parse_word(args.word, n_letters if args.letters is not None else 26)
    n_letters = max(n_letters, w.max_letter() + 1)
    ok = member(core_of_words(gens, n_letters), w)
    return {"word": format_word(w), "member": ok}, ok


def _cmd_cayley(args) -> tuple[dict, bool]:
    group = materialize(parse_group_spec(args.group))
    payload = {"automaton": write_aut(group.cayley), "order": group.order}
    if args.dot:
        payload["dot"] = to_dot(group.cayley)
    return payload, True


def _cmd_constellations(args) -> tuple[dict, bool]:
    pairs = maximal_constellations(materialize(parse_group_spec(args.group)))
    items = ({"cut": [_edge_json(e) for e in sorted(pair.cut.cut)],
              "partition": [[_edge_json(e) for e in sorted(pair.c_xi)],
                            [_edge_json(e) for e in sorted(pair.c_theta)]],
              "far_component": sorted(pair.g_choices)} for pair in pairs)
    return {"count": len(pairs), "constellations": items}, True


def _cmd_amalgam(args) -> tuple[dict, bool]:
    group = materialize(parse_group_spec(args.group))
    auts = amalgams_of(group)
    if not 0 <= args.index < len(auts):
        raise ValueError("index %d out of range (%d amalgams)" % (args.index, len(auts)))
    aut = auts[args.index]
    return {"index": args.index, "count": len(auts), "automaton": write_aut(aut),
            "n": aut.n}, True


def _cmd_ag(args) -> tuple[dict, bool]:
    aut = assemble_AG(materialize(parse_group_spec(args.group)))
    return {"automaton": write_aut(aut), "n": aut.n}, True


def _certificate_json(cert, names: tuple[str, ...]) -> dict:
    return {
        "degree": cert.degree,
        "transitive": cert.transitive,
        "primitive": cert.primitive,
        "all_even": cert.all_even,
        "prime_cycle": None if cert.prime_cycle is None else
            [cert.prime_cycle[0], cert.prime_cycle[1], names[cert.prime_cycle[2]]],
        "valid": cert.valid(),
    }


def _cmd_complete_alternating(args) -> tuple[dict, bool]:
    graph = _read_graph(args.automaton)
    aut, names = as_inverse_automaton(graph), graph.letter_names
    if args.n is None and args.k is None:
        raise ValueError("one of --n or --k is required")
    if args.n is not None:
        n = args.n
    else:
        n = aut.n + smallest_prime_greater(aut.n) + args.k + 2
    completed, cert, plan = complete_to_alternating(aut, n, seed=args.seed)
    return {
        "automaton": write_aut(completed, names),
        "m": plan.m, "q": plan.q, "k": plan.k, "n": plan.n,
        "certificate": _certificate_json(cert, names),
    }, cert.valid()


def _cmd_certify_an(args) -> tuple[dict, bool]:
    graph = _read_graph(args.automaton)
    cert = alternating_certificate(transition_group(as_inverse_automaton(graph)))
    return _certificate_json(cert, graph.letter_names), cert.valid()


def _layer(spec: ExtensionSpec) -> GaschuetzLayer:
    """The layer an extension spec names; like `materialize`, it warns for
    letters that map to its identity, not to its inner group's.  Letter a
    maps to (e_(1,a), phi(a)) in the plain layer, and e_(1,a) != 0; in the
    tilde layer to the class of e_(1,a) modulo label-constant vectors,
    trivial exactly when (1, a) is the only a-edge, that is when |G| = 1.
    So only the tilde layer over the trivial group has identity letters,
    and all its letters are."""
    layer = GaschuetzLayer(_materialize(spec.inner), spec.p, tilde=spec.tilde)
    trivial = layer.tilde and layer.base.order == 1
    warn_identity_letters([trivial] * layer.n_letters, True)
    return layer


def _layer_from_spec(args) -> GaschuetzLayer:
    spec = parse_group_spec(args.group)
    if not isinstance(spec, ExtensionSpec):
        raise ValueError("expected a gaschutz(...) or tilde(...) group spec")
    return _layer(spec)


def _cmd_gaschutz_info(args) -> tuple[dict, bool]:
    layer = _layer_from_spec(args)
    base = layer.base
    payload = {
        "base_order": base.order,
        "n_letters": base.n_letters,
        "p": layer.p,
        "tilde": layer.tilde,
        "order": layer.order(),
        "kernel_rank": layer.kernel_rank(),
    }
    if not layer.tilde:
        payload["center_order"] = layer.p ** base.n_letters
    return payload, True


def _cmd_center(args) -> tuple[dict, bool]:
    info = center(_layer_from_spec(args))
    return {
        "p": info.p,
        "order": info.order,
        "witness_words": [format_word(w) for w in info.witness_words],
    }, True


def _cmd_evaluate(args) -> tuple[dict, bool]:
    spec = parse_group_spec(args.group)
    group = _layer(spec) if isinstance(spec, ExtensionSpec) else materialize(spec)
    w = parse_word(args.word, group.n_letters)
    trivial = group.is_identity(w)
    return {"word": format_word(w),
            "result": "identity" if trivial else "non-identity"}, trivial


def _report_json(report) -> dict:
    item = {"label": report.label, "dissolved": report.dissolved,
            "method": report.method}
    if report.witness is not None:
        item["witness"] = {"u": format_word(report.witness[0]),
                           "v": format_word(report.witness[1])}
    if report.endpoint is not None:
        item["endpoint"] = report.endpoint
    if report.vector is not None:
        item["vector"] = [[h, ASCII_LETTERS[a], c]
                          for (h, a), c in sorted(report.vector.items())]
    return item


def _cmd_dissolve(args) -> tuple[dict, bool]:
    spec = parse_group_spec(args.group)
    tower = build_tower(TowerSpec(spec, parse_layers(args.layers)))
    reports = dissolve_all(tower, weak=args.weak)
    ok = all(r.dissolved for r in reports)
    return {
        "weak": args.weak,
        "layers": [("~%d" if tilde else "%d") % p for p, tilde in tower.spec.layers],
        "dissolver": ok,
        "reports": (_report_json(r) for r in reports),
    }, ok


def _cmd_disconnect(args) -> tuple[dict, bool]:
    h_group = materialize(parse_group_spec(args.group))
    g_group = materialize(parse_group_spec(args.base))
    phi = canonical_morphism(h_group, g_group)
    if phi is None:
        raise ValueError("no letter-respecting morphism between the given groups")
    if len(args.letter) != 1 or args.letter not in ASCII_LETTERS[:g_group.n_letters]:
        raise ValueError("unknown letter %r" % args.letter)
    letter = ASCII_LETTERS.index(args.letter)
    four = disconnection_equivalence(phi, letter, args.sign)
    agree = len(set(four)) == 1
    return {
        "letter": args.letter,
        "sign": args.sign,
        "disconnected": four[0],
        "separated_identity": four[1],
        "separated_kernel": four[2],
        "dissolves_delta": four[3],
        "equivalent": agree,
    }, agree


def _cmd_key_lemma(args) -> tuple[dict, bool]:
    group = materialize(parse_group_spec(args.group))
    gens, _ = _parse_wordlist(args.subgroup, group.n_letters)
    k_set = subgroup_image(gens, group)
    # "failures" and "ok" are fixed by the proof; REPORT_DIGESTS and perfbench still read them
    return {
        "p": args.p,
        "subgroup_order": len(k_set),
        "n_edges": key_lemma_report(group, args.p, k_set),
        "failures": [],
        "ok": True,
    }, True


def _cmd_rank_check(args) -> tuple[dict, bool]:
    group = materialize(parse_group_spec(args.group))
    report = schreier_rank_check(GaschuetzLayer(group, args.p, tilde=args.tilde))
    return dataclasses.asdict(report), report.formula_ok and report.verified is not False


def _cmd_abelianization(args) -> tuple[dict, bool]:
    spec = parse_group_spec(args.group)
    if isinstance(spec, ExtensionSpec):
        factors = layer_abelianization(_layer(spec))
    else:
        factors = abelianization(materialize(spec))
    return {"factors": factors}, True


def _cmd_closure(args) -> tuple[dict, bool]:
    group = materialize(parse_group_spec(args.level))
    gens, _ = _parse_wordlist(args.gens, group.n_letters)
    aut = closure_at_level(gens, group)
    return {"automaton": write_aut(aut), "n": aut.n, "rank": rank_from_core(aut),
            "image_order": group.order // aut.n}, True  # the coset graph has [G : T] vertices


def _cmd_rz_member(args) -> tuple[dict, bool]:
    group = materialize(parse_group_spec(args.level))
    subgroups = []
    for chunk in args.subgroups.split("|"):
        gens, _ = _parse_wordlist(chunk, group.n_letters)
        subgroups.append(gens)
    w = parse_word(args.word, group.n_letters)
    ok = product_membership_at_level(w, subgroups, group)
    return {"word": format_word(w), "member": ok}, ok


def _random_corpus_automaton(rng: random.Random, m: int) -> InverseAutomaton:
    """Connected folded incomplete two-letter automaton on m vertices; at most
    m - 1 + m // 2 edges keeps it strictly below completeness."""
    aut = InverseAutomaton(m, 2, base=0)

    def try_add(u: int, letter: int, v: int) -> bool:
        if aut.fwd[letter][u] is not None or aut.bwd[letter][v] is not None:
            return False
        aut.add_edge(u, letter, v)
        return True

    for v in range(1, m):
        while True:
            u = rng.randrange(v)
            letter = rng.randrange(2)
            src, dst = (u, v) if rng.random() < 0.5 else (v, u)
            if try_add(src, letter, dst):
                break
    for _ in range(m // 2):
        try_add(rng.randrange(m), rng.randrange(2), rng.randrange(m))
    return aut


def _cmd_corpus(args) -> tuple[dict, bool]:
    if args.m_min < 3:
        raise ValueError("m must be at least 3 (completion precondition)")
    if args.m_max < args.m_min:
        raise ValueError("empty m range")
    if args.count < 0:
        raise ValueError("corpus count must not be negative")
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
    return {"seed": args.seed, "count": args.count, "files": files}, True


# ---------------------------------------------------------------- driver

def _int_option(text: str) -> int:
    """argparse type for integer options: `parse_int`, with its message
    kept (argparse would replace a plain ValueError's with its own)."""
    try:
        return parse_int(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Its
    `set_defaults(func=...)` binds each subcommand to the `_cmd_*`
    function defined at that first build."""
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
    p.add_argument("--letters", type=_int_option)
    p.add_argument("--aut-out")

    p = cmd("member", _cmd_member, help="subgroup membership")
    p.add_argument("--gens", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--letters", type=_int_option)

    p = cmd("cayley", _cmd_cayley, help="Cayley graph of a group spec")
    p.add_argument("--group", required=True)
    p.add_argument("--aut-out")
    p.add_argument("--dot", action="store_true")

    p = cmd("constellations", _cmd_constellations, help="maximal constellations")
    p.add_argument("--group", required=True)

    p = cmd("amalgam", _cmd_amalgam, help="one amalgam of a maximal pair")
    p.add_argument("--group", required=True)
    p.add_argument("--index", type=_int_option, default=0)
    p.add_argument("--aut-out")

    p = cmd("ag", _cmd_ag, help="chained amalgam assembly")
    p.add_argument("--group", required=True)
    p.add_argument("--aut-out")

    p = cmd("complete-alternating", _cmd_complete_alternating,
            help="complete to an alternating-certified automaton")
    p.add_argument("--automaton", required=True)
    p.add_argument("--n", type=_int_option)
    p.add_argument("--k", type=_int_option)
    p.add_argument("--seed", type=_int_option, default=0)
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

    p = cmd("disconnect", _cmd_disconnect, help="disconnection equivalence")
    p.add_argument("--group", required=True, help="the covering group H")
    p.add_argument("--base", required=True, help="the base group G")
    p.add_argument("--letter", required=True)
    p.add_argument("--sign", type=_int_option, default=1, choices=(1, -1))

    p = cmd("key-lemma", _cmd_key_lemma, help="edge-translate disconnection")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=_int_option, required=True)
    p.add_argument("--subgroup", required=True,
                   help="comma-separated generator words for K")

    p = cmd("rank-check", _cmd_rank_check, help="kernel rank vs cycle dimension")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=_int_option, required=True)
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
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--count", type=_int_option, default=10)
    p.add_argument("--m-min", type=_int_option, default=3)
    p.add_argument("--m-max", type=_int_option, default=8)
    p.add_argument("--dir", default="corpus")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    with warnings.catch_warnings():  # each warning as one line, wherever it was raised
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: sys.stderr.write("warning: %s\n" % message)
        try:
            payload, ok = args.func(args)
            if getattr(args, "aut_out", None):
                with open(args.aut_out, "w") as fh:
                    fh.write(payload["automaton"])
            _emit(args, {"command": args.command, **payload})
            return 0 if ok else 1
        except (ValueError, OSError) as exc:
            sys.stderr.write("error: %s\n" % exc)
            return 2
        except VerificationError as exc:
            sys.stderr.write("error: self-check failed: %s\n" % exc)
            return 2


if __name__ == "__main__":  # not an entry point: refuse rather than exit 0 silently
    sys.stderr.write("error: run the command line as python -m constel\n")
    sys.exit(2)
