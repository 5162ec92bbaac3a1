import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest

import constel
import constel.cli
import constel.dissolve
import constel.gaschuetz
import constel.groups
from constel.automata import BfsTree, as_inverse_automaton, fold, read_aut
from constel.cli import _build_parser, main, parse_group_spec, parse_layers
from constel.completion import complete_to_alternating
from constel.groups import (DEFAULT_BOUND, CyclicSpec, ExtensionSpec, KleinSpec, PermSpec,
                            ProductSpec)
from constel.perms import from_cycles
from constel.words import Word


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def run_json(args, expect=0):
    code, out, err = run(args)
    assert code == expect, (code, err)
    payload = json.loads(out)
    assert payload["schema"] == 1
    return payload


def test_group_spec_language():
    assert parse_group_spec("cyclic(4; a=1, b=2)") == CyclicSpec(4, (1, 2))
    assert parse_group_spec("klein(a=10, b=01)") == KleinSpec(((1, 0), (0, 1)))
    assert parse_group_spec("perm(3; a=(0 1), b=(1 2))") == PermSpec(
        3, (from_cycles(3, [(0, 1)]), from_cycles(3, [(1, 2)])))
    assert parse_group_spec("tilde(cyclic(2; a=1,b=1), 3)") == ExtensionSpec(
        CyclicSpec(2, (1, 1)), 3, True)
    assert parse_group_spec("gaschutz(tilde(cyclic(2; a=1,b=1),2), 5)") == ExtensionSpec(
        ExtensionSpec(CyclicSpec(2, (1, 1)), 2, True), 5, False)
    assert parse_group_spec("prodA(cyclic(2; a=1,b=1), cyclic(3; a=1,b=1))") == ProductSpec(
        CyclicSpec(2, (1, 1)), CyclicSpec(3, (1, 1)))
    assert parse_group_spec("perm(4;a=(0 1) (2 3),b=(0 2))") == PermSpec(
        4, (from_cycles(4, [(0, 1), (2, 3)]), from_cycles(4, [(0, 2)])))
    for bad in ("cyclic", "cyclic(2)", "wat(3)", "klein(a=3, b=01)"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_layers_language():
    assert parse_layers("~2,3") == ((2, True), (3, False))
    assert parse_layers("~2,~2,~2") == ((2, True), (2, True), (2, True))
    assert parse_layers("") == ()
    with pytest.raises(ValueError):
        parse_layers("~x")


def test_example_evaluate_identity():
    payload = run_json(["evaluate", "--group", "tilde(cyclic(2; a=1,b=1),2)",
                        "--word", "aa"])
    assert payload["result"] == "identity"
    code, out, _ = run(["evaluate", "--group", "tilde(cyclic(2; a=1,b=1),2)",
                        "--word", "ab"])
    assert code == 1 and json.loads(out)["result"] == "non-identity"


def test_example_weak_dissolve_witness():
    code, out, _ = run(["dissolve", "--group", "cyclic(2; a=1,b=1)",
                        "--layers", "~2", "--weak"])
    assert code == 1
    payload = json.loads(out)
    assert payload["dissolver"] is False
    first = payload["reports"][0]
    assert first["label"] == "delta:a"
    assert first["method"] == "reachability"
    assert first["witness"] == {"u": "bab", "v": "a"}


def test_dissolver_exit_zero():
    code, out, _ = run(["dissolve", "--group", "cyclic(2; a=1,b=1)",
                        "--layers", "2", "--weak"])
    assert code == 0
    assert json.loads(out)["dissolver"] is True


def test_tall_tower_uses_linear_method():
    code, out, _ = run(["dissolve", "--group", "cyclic(2; a=1,b=1)",
                        "--layers", "~2,~2,~2", "--weak"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dissolver"] is True
    assert all(r["method"] == "linear" for r in payload["reports"])


def test_example_completion_too_small(tmp_path):
    f = tmp_path / "f.aut"
    f.write_text("edge 0 a 1\nedge 1 a 2\nedge 0 b 0\nbase 0\n")
    code, _, err = run(["complete-alternating", "--automaton", str(f), "--n", "9"])
    assert code == 2
    assert "n < m+q+2 = 10" in err


def test_completion_report(tmp_path):
    f = tmp_path / "f.aut"
    f.write_text("edge 0 a 1\nedge 1 a 2\nedge 0 b 0\nbase 0\n")
    payload = run_json(["complete-alternating", "--automaton", str(f), "--n", "10"])
    assert (payload["m"], payload["q"], payload["k"], payload["n"]) == (3, 5, 0, 10)
    cert = payload["certificate"]
    assert cert["valid"] and cert["prime_cycle"] == [5, 1, "b"]
    completed = as_inverse_automaton(read_aut(payload["automaton"]))
    assert completed.n == 10 and completed.is_complete()


def test_fold_and_aut_out(tmp_path):
    f = tmp_path / "f.aut"
    f.write_text("edge 0 a 1\nedge 1 a 2\nedge 0 b 0\nbase 0\n")
    side = tmp_path / "out.aut"
    payload = run_json(["fold", "--automaton", str(f), "--aut-out", str(side)])
    assert payload["n"] == 3
    assert side.read_text() == payload["automaton"]


RENAMED_AUTS = {  # one file with an alphabet line, one whose edges skip b
    "xy.aut": ("alphabet x y\nedge 0 x 1\nedge 1 x 2\nedge 0 y 0\nbase 0\n", ("x", "y")),
    "ac.aut": ("edge 0 a 1\nedge 1 a 2\nedge 0 c 0\nbase 0\n", ("a", "c")),
}


def reread(text, names):
    """The automaton of an .aut text, after checking it names its letters by names."""
    graph = read_aut(text)
    assert graph.letter_names == names
    return as_inverse_automaton(graph)


@pytest.mark.parametrize("name", sorted(RENAMED_AUTS))
def test_aut_letter_names_survive_fold(tmp_path, name):
    text, names = RENAMED_AUTS[name]
    f = tmp_path / name
    f.write_text(text + "edge 2 %s 3\nedge 2 %s 4\n" % (names[0], names[0]))  # folds 3 and 4
    side = tmp_path / "out.aut"
    payload = run_json(["fold", "--automaton", str(f), "--dot", "--aut-out", str(side)])
    assert payload["automaton"].startswith("alphabet %s\n" % " ".join(names))
    assert side.read_text() == payload["automaton"]
    assert reread(payload["automaton"], names) == fold(read_aut(f.read_text()))
    labels = {line.split('"')[1] for line in payload["dot"].splitlines() if "->" in line}
    assert labels == set(names)


@pytest.mark.parametrize("name", sorted(RENAMED_AUTS))
def test_aut_letter_names_survive_completion_and_certificate(tmp_path, name):
    text, names = RENAMED_AUTS[name]
    f = tmp_path / name
    f.write_text(text)
    side = tmp_path / "out.aut"
    for k in ("0", "3"):
        payload = run_json(["complete-alternating", "--automaton", str(f), "--k", k,
                            "--aut-out", str(side)])
        assert side.read_text() == payload["automaton"]
        completed, cert, _ = complete_to_alternating(reread(text, names), payload["n"])
        assert reread(payload["automaton"], names) == completed
        assert payload["certificate"]["prime_cycle"] == [
            cert.prime_cycle[0], cert.prime_cycle[1], names[cert.prime_cycle[2]]]
        certified = run_json(["certify-an", "--automaton", str(side)])
        assert certified["valid"]
        assert certified["prime_cycle"] == payload["certificate"]["prime_cycle"]


def test_prime_cycle_letter_past_z_is_named(tmp_path):
    # 27 letters: 25 act trivially, l25 is a 7-cycle and l26 a 3-cycle,
    # the one prime cycle the certificate can name
    lines = ["alphabet " + " ".join("l%d" % i for i in range(27)), "base 0"]
    for v in range(7):
        lines += ["edge %d l%d %d" % (v, k, v) for k in range(25)]
        lines += ["edge %d l25 %d" % (v, (v + 1) % 7),
                  "edge %d l26 %d" % (v, {0: 1, 1: 2, 2: 0}.get(v, v))]
    f = tmp_path / "wide.aut"
    f.write_text("\n".join(lines) + "\n")
    payload = run_json(["certify-an", "--automaton", str(f)])
    assert payload["valid"] and payload["prime_cycle"] == [3, 1, "l26"]


def test_core_golden():
    payload = run_json(["core", "--gens", "aa,b"])
    assert payload["automaton"] == "edge 0 a 1\nedge 0 b 0\nedge 1 a 0\nbase 0\n"
    assert payload["n"] == 2 and payload["rank"] == 2


def test_member_exit_codes():
    assert run(["member", "--gens", "aa,b", "--word", "aab"])[0] == 0
    assert run(["member", "--gens", "aa,b", "--word", "a"])[0] == 1
    code, _, err = run(["member", "--gens", "aa,b", "--word", "a!"])
    assert code == 2 and "bad character" in err


def test_cayley_golden():
    payload = run_json(["cayley", "--group", "cyclic(4; a=1,b=2)"])
    assert payload["order"] == 4
    assert payload["automaton"] == ("edge 0 a 1\nedge 0 b 2\nedge 1 a 2\n"
                                    "edge 1 b 3\nedge 2 a 3\nedge 2 b 0\n"
                                    "edge 3 a 0\nedge 3 b 1\nbase 0\n")


def test_constellations_listing():
    payload = run_json(["constellations", "--group", "cyclic(2; a=1,b=1)"])
    entries = payload["constellations"]
    assert len(entries) == 14
    for entry in entries:
        assert entry["far_component"] == [1]
        halves = entry["partition"]
        assert sorted(halves[0] + halves[1]) == sorted(entry["cut"])


def test_amalgam_command():
    payload = run_json(["amalgam", "--group", "cyclic(2; a=1,b=1)", "--index", "1"])
    assert payload["count"] == 7 and payload["n"] == 3
    code, _, err = run(["amalgam", "--group", "cyclic(2; a=1,b=1)", "--index", "99"])
    assert code == 2 and "out of range" in err


def test_ag_command():
    payload = run_json(["ag", "--group", "cyclic(2; a=1,b=1)"])
    assert payload["n"] == 22
    ag = as_inverse_automaton(read_aut(payload["automaton"]))
    assert ag.is_connected() and not ag.is_complete()


def test_certify_an_requires_complete(tmp_path):
    f = tmp_path / "f.aut"
    f.write_text("edge 0 a 1\nedge 1 a 2\nedge 0 b 0\nbase 0\n")
    code, _, err = run(["certify-an", "--automaton", str(f)])
    assert code == 2 and "complete" in err


def test_gaschutz_info_golden():
    payload = run_json(["gaschutz-info", "--group", "gaschutz(klein(a=10, b=01),3)"])
    assert payload["order"] == 972
    assert payload["kernel_rank"] == 5
    assert payload["center_order"] == 9
    assert payload["tilde"] is False


def test_gaschutz_info_rejects_plain_group():
    code, _, err = run(["gaschutz-info", "--group", "cyclic(2; a=1,b=1)"])
    assert code == 2 and "gaschutz" in err


def test_unprintable_order_exits_2_with_nothing_on_stdout(tmp_path):
    # |G| * p^1001 has about 12,000 digits, past Python's int-to-str limit;
    # the order over cyclic(20000) is refused from 2^19999 without being built
    report = tmp_path / "report.json"
    for group in ("gaschutz(cyclic(1000;a=1,b=1),999999999989)",
                  "tilde(cyclic(20000;a=1,b=1),999999999989)"):
        code, out, err = run(["gaschutz-info", "--group", group])
        assert (code, out) == (2, "")
        assert err == ("error: order has more than %d digits, too many to print\n"
                       % sys.get_int_max_str_digits())
        assert run(["gaschutz-info", "--group", group, "--out", str(report)])[0] == 2
        assert not report.exists()


@pytest.mark.parametrize("args, what", [
    (["cayley", "--group", "cyclic(%s;a=1)"], "cyclic group order"),
    (["gaschutz-info", "--group", "gaschutz(cyclic(2;a=1,b=1),%s)"], "modulus"),
    (["dissolve", "--group", "cyclic(2;a=1,b=1)", "--layers", "~%s"], "modulus"),
    (["evaluate", "--group", "cyclic(2;a=1,b=1)", "--word", "a^%s"], "word exponent"),
    (["fold", "--automaton", "big.aut"], "bad .aut line 1: vertex id"),
])
def test_spec_integers_past_the_digit_limit_are_refused_by_size(args, what, tmp_path):
    # 5001 digits, past Python's int-to-str limit of 4300, in each form int() reads
    for number in ("1" + "0" * 5000, "1_" + "0" * 5000, "\u0661" * 5001):
        (tmp_path / "big.aut").write_text("edge 0 a %s\nbase 0\n" % number)
        code, out, err = run([str(tmp_path / arg) if arg.endswith(".aut")
                              else arg.replace("%s", number) for arg in args])
        assert (code, out) == (2, "")
        assert err == "error: %s >= 2^16609 exceeds the bound 1000000\n" % what
        assert "set_int_max_str_digits" not in err


def test_spec_integers_with_leading_zeros_past_the_digit_limit():
    assert parse_group_spec("cyclic(%s3;a=1)" % ("0" * 5000)) == CyclicSpec(3, (1,))
    assert parse_layers("~%s2" % ("0" * 5000)) == ((2, True),)
    assert parse_layers("~%s\u0662" % ("\u0660" * 5000)) == ((2, True),)


@pytest.mark.parametrize("args, what", [
    (["cayley", "--group", "cyclic(x;a=1)"], "cyclic group order 'x'"),
    (["cayley", "--group", "perm(3;a=(0 x))"], "permutation point 'x'"),
    (["gaschutz-info", "--group", "gaschutz(cyclic(2;a=1,b=1),q)"], "modulus 'q'"),
    (["evaluate", "--group", "cyclic(2;a=1,b=1)", "--word", "a^"], "word exponent ''"),
    (["fold", "--automaton", "bad.aut"], "bad .aut line 1: vertex id 'x'"),
])
def test_non_integers_are_named_by_what_was_read(args, what, tmp_path):
    (tmp_path / "bad.aut").write_text("edge 0 a x\nbase 0\n")
    code, out, err = run([str(tmp_path / arg) if arg.endswith(".aut") else arg for arg in args])
    assert (code, out) == (2, "")
    assert err == "error: %s is not an integer\n" % what


@pytest.mark.parametrize("value, message", [
    ("x", "value 'x' is not an integer"),
    ("1" + "0" * 5000, "value >= 2^16609 exceeds the bound 1000000"),
])
def test_integer_options_are_read_by_parse_int(value, message):
    # argparse prints its usage line, then parse_int's message for the option
    code, out, err = run(["rank-check", "--group", "cyclic(2;a=1,b=1)", "--p", value])
    assert (code, out) == (2, "")
    assert err.startswith("usage: constel rank-check")
    assert err.endswith("\nconstel rank-check: error: argument --p: %s\n" % message)


@pytest.mark.parametrize("spec, message", [
    ("cyclic(3;a=1))", "unbalanced parentheses in 'a=1)'"),
    ("cyclic(3;a=1),b=(1)", "unbalanced parentheses in 'a=1),b=(1'"),
    ("cyclic(3;1)", "expected letter=value, got '1'"),
    ("cyclic(3;ab=1)", "letter names must be single characters a-z, got 'ab'"),
    ("gaschutz(cyclic(2;a=1,b=1))", "gaschutz(<spec>, p) takes two arguments"),
    ("prodA(cyclic(2;a=1,b=1))", "prodA(<spec>, <spec>) takes two arguments"),
    ("perm(4;a=0 1)", "expected '(' in cycle notation '0 1'"),
    ("prodA(tilde(cyclic(2;a=1),3),cyclic(2;a=1,b=1))",
     "product components must share the alphabet"),
    ("prodA(prodA(cyclic(2;a=1),cyclic(3;a=1)),cyclic(2;a=1,b=1))",
     "product components must share the alphabet"),
])
def test_malformed_specs_are_refused_with_their_message(spec, message):
    assert run(["cayley", "--group", spec]) == (2, "", "error: %s\n" % message)


def test_parse_int_reads_what_int_reads():
    for text in ("-3", " +7 ", "1_000", "\u0661\u0662", "007"):
        assert constel.groups.parse_int(text, "n") == int(text)


def test_key_lemma_refuses_an_unprintable_layer_order():
    # the tilde layer over a 20000-element group has order past 2^20000,
    # so the lemma holds but its edge count cannot be printed
    code, out, err = run(["key-lemma", "--group", "cyclic(20000;a=1,b=1)", "--p", "2",
                          "--subgroup", "ab"])
    assert (code, out) == (2, "")
    assert err == ("error: n_edges has more than %d digits, too many to print\n"
                   % sys.get_int_max_str_digits())


def test_key_lemma_answers_past_the_materialization_bound():
    # a 524,288-element layer, answered by the proof without enumerating it
    payload = run_json(["key-lemma", "--group", "cyclic(16;a=1,b=1)", "--p", "2",
                        "--subgroup", "aa"])
    assert (payload["n_edges"], payload["failures"], payload["ok"]) == (1048576, [], True)


def test_center_command():
    payload = run_json(["center", "--group", "gaschutz(cyclic(2; a=1,b=1),3)"])
    assert payload["order"] == 9
    assert payload["witness_words"] == ["aa", "bb"]
    code, _, err = run(["center", "--group", "tilde(cyclic(2; a=1,b=1),3)"])
    assert code == 2 and "plain layer" in err


def test_disconnect_command():
    neg = run_json(["disconnect", "--group", "tilde(cyclic(2; a=1,b=1),2)",
                    "--base", "cyclic(2; a=1,b=1)", "--letter", "a"])
    assert neg["equivalent"] is True and neg["disconnected"] is False
    pos = run_json(["disconnect", "--group", "gaschutz(cyclic(2; a=1,b=1),2)",
                    "--base", "cyclic(2; a=1,b=1)", "--letter", "a", "--sign", "-1"])
    assert pos["equivalent"] is True and pos["dissolves_delta"] is True


def test_key_lemma_command():
    payload = run_json(["key-lemma", "--group", "cyclic(2; a=1,b=1)",
                        "--p", "2", "--subgroup", "a"])
    assert payload["ok"] is True and payload["n_edges"] == 8
    assert payload["subgroup_order"] == 2
    code, _, err = run(["key-lemma", "--group", "cyclic(2; a=1,b=1)",
                        "--p", "2", "--subgroup", "aa"])
    assert code == 2 and "nontrivial" in err


def test_rank_check_command():
    payload = run_json(["rank-check", "--group", "klein(a=10, b=01)",
                        "--p", "3", "--tilde"])
    assert payload["rank"] == 3 and payload["cycle_dim"] == 5
    assert payload["formula_ok"] is True and payload["verified"] is True


def test_abelianization_command():
    assert run_json(["abelianization", "--group",
                     "tilde(klein(a=10, b=01),3)"])["factors"] == [2, 2]
    assert run_json(["abelianization", "--group",
                     "tilde(cyclic(2; a=1,b=1),3)"])["factors"] == [2]


def test_abelianization_checks_a_layer_modulus_once(monkeypatch):
    # trial division to sqrt(p) is the command's main cost at a 12-digit prime
    calls = []
    check = constel.gaschuetz.check_modulus
    monkeypatch.setattr(constel.gaschuetz, "check_modulus", lambda p: calls.append(p) or check(p))
    spec = "tilde(cyclic(2;a=1,b=1),999999999989)"
    assert run_json(["abelianization", "--group", spec])["factors"] == [2]
    assert calls == [999999999989]


def test_closure_command():
    payload = run_json(["closure", "--gens", "aa", "--level", "cyclic(4; a=1,b=1)"])
    assert payload["automaton"] == ("edge 0 a 1\nedge 0 b 1\nedge 1 a 0\n"
                                    "edge 1 b 0\nbase 0\n")
    assert payload["rank"] == 3 and payload["image_order"] == 2


def test_rz_member_command():
    level = "perm(3; a=(0 1), b=(1 2))"
    assert run(["rz-member", "--word", "ab", "--subgroups", "a|b",
                "--level", level])[0] == 0
    code, out, _ = run(["rz-member", "--word", "ba", "--subgroups", "a|b",
                        "--level", level])
    assert code == 1 and json.loads(out)["member"] is False


def test_out_flag_writes_report(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(["core", "--gens", "aa,b", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["n"] == 2


def test_corpus_generation(tmp_path):
    d1, d2 = str(tmp_path / "c1"), str(tmp_path / "c2")
    payload = run_json(["corpus", "--seed", "1", "--count", "10", "--dir", d1])
    assert len(payload["files"]) == 10
    run_json(["corpus", "--seed", "1", "--count", "10", "--dir", d2])
    sizes = []
    for i in range(10):
        text1 = open("%s/corpus_%03d.aut" % (d1, i)).read()
        text2 = open("%s/corpus_%03d.aut" % (d2, i)).read()
        assert text1 == text2  # same seed, same bytes
        aut = as_inverse_automaton(read_aut(text1))
        assert aut.is_connected() and not aut.is_complete()
        assert 3 <= aut.n <= 8
        sizes.append(aut.n)
    assert sizes == [4, 6, 4, 7, 7, 4, 7, 8, 7, 3]
    files = b"".join(open("%s/corpus_%03d.aut" % (d1, i), "rb").read() for i in range(10))
    assert hashlib.sha256(files).hexdigest() == "a88fd1bb167bec816464da78d9d24218668d8756401cf020609a75d086721f6f"


def test_dissolve_refuses_the_removed_json_flag():
    code, out, err = run(["dissolve", "--group", "cyclic(2;a=1,b=1)", "--json"])
    assert (code, out) == (2, "") and "unrecognized arguments: --json" in err


def test_ag_without_maximal_constellations_exits_2():
    code, out, err = run(["ag", "--group", "cyclic(1;a=0,b=0)"])
    assert (code, out) == (2, "")
    assert err.endswith("\nerror: no maximal constellations to assemble\n")


def test_corpus_rejects_tiny_m(tmp_path):
    code, _, err = run(["corpus", "--m-min", "2", "--dir", str(tmp_path / "c")])
    assert code == 2 and "at least 3" in err


def test_corpus_rejects_a_negative_count(tmp_path):
    d = tmp_path / "c"
    code, out, err = run(["corpus", "--count", "-3", "--dir", str(d)])
    assert code == 2 and out == "" and "must not be negative" in err
    assert not d.exists()


def test_unknown_command_and_bad_spec():
    assert run(["nonsense"])[0] == 2
    code, _, err = run(["cayley", "--group", "wat(3)"])
    assert code == 2 and "error:" in err


def test_repeated_cycle_point_is_an_input_error():
    code, out, err = run(["cayley", "--group", "perm(3;a=(0 1 1),b=(1 2))"])
    assert code == 2 and not out and "appears twice" in err


def test_negative_permutation_degree_is_an_input_error():
    for spec in ("perm(-1;a=())", "perm(-3;a=(0 1),b=(1 2))"):
        code, out, err = run(["evaluate", "--group", spec, "--word", "a"])
        assert code == 2 and not out and "degree must be nonnegative" in err


def test_deeply_nested_spec_is_an_input_error():
    spec = "tilde(" * 1200 + "cyclic(2;a=1,b=1)" + ",2)" * 1200
    code, out, err = run(["evaluate", "--group", spec, "--word", "a"])
    assert code == 2 and not out and "nested deeper" in err
    shallow = "tilde(" * 3 + "cyclic(2;a=1,b=1)" + ",2)" * 3
    assert run(["evaluate", "--group", shallow, "--word", "aa"])[0] in (0, 1)


def test_failed_self_check_exits_2(monkeypatch):
    import constel.dissolve
    monkeypatch.setattr(constel.dissolve, "_path_stays", lambda sub, word: False)
    code, out, err = run(["dissolve", "--group", "cyclic(2; a=1,b=1)", "--layers", "~2",
                          "--weak"])
    assert code == 2 and not out and "self-check failed" in err


def test_failed_corpus_check_exits_2(monkeypatch, tmp_path):
    import constel.cli
    from constel.automata import InverseAutomaton
    monkeypatch.setattr(constel.cli, "_random_corpus_automaton",
                        lambda rng, m: InverseAutomaton(m, 2, [], base=0))
    code, out, err = run(["corpus", "--count", "1", "--dir", str(tmp_path / "c")])
    assert code == 2 and not out and "self-check failed" in err


def test_huge_completion_size_exits_2_before_allocating(tmp_path):
    f = tmp_path / "f.aut"
    f.write_text("edge 0 a 1\nedge 1 a 2\nedge 0 b 0\nbase 0\n")
    code, out, err = run(["complete-alternating", "--automaton", str(f),
                          "--n", "1000000000000"])
    assert code == 2 and not out and "exceeds the bound" in err
    code, out, err = run(["complete-alternating", "--automaton", str(f),
                          "--k", "1000000000000"])
    assert code == 2 and not out and "exceeds the bound" in err


Z2 = "cyclic(2;a=1,b=1)"


def oversize_argv(kind: str, excess: int, tmp: str) -> list[str]:
    """A command whose one size-bearing argument lies `excess` past the
    bound: DEFAULT_BOUND for orders, degrees and sizes, its square for
    moduli."""
    n, p = DEFAULT_BOUND + excess, DEFAULT_BOUND ** 2 + excess
    return {
        "cyclic": ["cayley", "--group", "cyclic(%d;a=1)" % n],
        "perm": ["evaluate", "--group", "perm(%d;a=(0 1))" % n, "--word", "a"],
        "gaschutz": ["gaschutz-info", "--group", "gaschutz(%s,%d)" % (Z2, p)],
        "tilde": ["evaluate", "--group", "tilde(%s,%d)" % (Z2, p), "--word", "a"],
        "abelianization": ["abelianization", "--group", "tilde(%s,%d)" % (Z2, p)],
        "key-lemma": ["key-lemma", "--group", Z2, "--p", str(p), "--subgroup", "a"],
        "rank-check": ["rank-check", "--group", Z2, "--p", str(p)],
        "layers": ["dissolve", "--group", Z2, "--layers", "~2,~%d" % p],
        "corpus": ["corpus", "--count", "1", "--m-max", str(n),
                   "--dir", os.path.join(tmp, "corpus")],
        "count": ["corpus", "--count", str(n), "--dir", os.path.join(tmp, "corpus")],
    }[kind]


def test_oversize_arguments_exit_2_before_allocating():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    kinds = ("cyclic", "perm", "gaschutz", "tilde", "abelianization", "key-lemma",
             "rank-check", "layers", "corpus", "count")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(kinds), st.integers(1, 1000))
    def check(kind, excess):
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            code, out, err = run(oversize_argv(kind, excess, tmp))
            elapsed = time.perf_counter() - start
            assert code == 2 and not out and "exceeds the bound" in err, (kind, err)
            assert elapsed < 0.5, (kind, elapsed)
            assert os.listdir(tmp) == []  # corpus made no directory

    check()


def test_huge_literals_exit_2_under_a_memory_cap():
    # inputs that would allocate gigabytes if they were built, or trial-divide
    # for minutes, each run once in a child process capped at 1 GiB; A4's 12
    # vertices give 1,105,856 maximal pairs, refused before any is built
    a4 = "perm(4;a=(0 1 2),b=(1 2 3))"
    argvs = [["cayley", "--group", "cyclic(2000000;a=1)"],
             ["evaluate", "--group", "perm(10000000000;a=(0 1))", "--word", "a"],
             ["corpus", "--m-max", "1000000000000", "--dir", "corpus-never-made"],
             ["corpus", "--count", "1000000000", "--dir", "corpus-never-made"],
             ["gaschutz-info", "--group", "gaschutz(%s,%d)" % (Z2, 2 ** 61 - 1)],
             ["evaluate", "--group", "cyclic(3;a=1)", "--word", "a^99999999999999999999"],
             ["evaluate", "--group", "cyclic(3;a=1)", "--word", "a^2000000000"],
             ["constellations", "--group", a4],
             ["amalgam", "--group", a4],
             ["ag", "--group", a4],
             ["dissolve", "--group", a4, "--layers", "~2"],
             ["constellations", "--group", "cyclic(20000;a=1)"],  # 2^19999 bipartitions
             ["core", "--gens", "", "--letters", "30000000"]]  # refused before any column
    child = (
        "import contextlib, io, json, resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from constel.cli import main\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    results.append([code, out.getvalue(), err.getvalue(),\n"
        "                    time.perf_counter() - start])\n"
        "print(json.dumps(results))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(constel.__file__).parent.parent))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", child, json.dumps(argvs)], cwd=tmp,
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert os.listdir(tmp) == []
    for argv, (code, out, err, elapsed) in zip(argvs, json.loads(proc.stdout)):
        refusal = "alphabet size must be" if "--letters" in argv else "exceeds the bound"
        assert code == 2 and not out and refusal in err, (argv, err)
        assert elapsed < 2, (argv, elapsed)


def test_letters_outside_1_to_26_exit_2():
    # checked before the words, so an empty --gens is refused too
    for n in ("0", "-1", "27"):
        for argv in (["core", "--gens", ""], ["core", "--gens", "ab"],
                     ["member", "--gens", "", "--word", "a"]):
            code, out, err = run(argv + ["--letters", n])
            assert (code, out, err) == (
                2, "", "error: alphabet size must be between 1 and 26\n"), argv + [n]


def test_identity_letters_warn_only_for_the_named_group():
    # gaschutz(Z1, 3) is Z3 x Z3, whose letters are not the identity; the
    # letters of the inner Z1 are, and inner levels do not warn
    env = dict(os.environ, PYTHONPATH=str(Path(constel.__file__).parent.parent))
    env.pop("PYTHONWARNINGS", None)

    def stderr(spec):
        proc = subprocess.run([sys.executable, "-m", "constel", "cayley", "--group", spec],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    assert stderr("gaschutz(cyclic(1;a=0,b=0),3)") == ""
    assert stderr("cyclic(1;a=0,b=0)") == ("warning: letter 0 maps to the identity\n"
                                           "warning: letter 1 maps to the identity\n")
    # a tower's base warns the same way, before an error that follows
    code, _, err = run(["dissolve", "--group", "cyclic(2;a=1,b=0)", "--layers", "~2", "--weak"])
    assert (code, err) == (2, "warning: letter 1 maps to the identity\n"
                              "error: letter image is the identity; the edge endpoints coincide\n")


@pytest.mark.parametrize("spec", ["gaschutz(cyclic(1;a=0,b=0),3)", "tilde(cyclic(1;a=0,b=0),3)",
                                  "gaschutz(cyclic(2;a=1,b=0),3)"])
def test_layer_commands_warn_as_cayley_does(spec):
    # a layer warns for its letters that map to its own identity, which
    # only a tilde layer over the trivial group has; its inner group does
    # not warn
    code, _, warned = run(["cayley", "--group", spec])
    tilde = spec.startswith("tilde")
    assert (code, warned) == (0, "warning: letter 0 maps to the identity\n"
                                 "warning: letter 1 maps to the identity\n" if tilde else "")
    for command, *rest in (["gaschutz-info"], ["center"], ["evaluate", "--word", "a"],
                           ["abelianization"]):
        code, _, err = run([command, "--group", spec, *rest])
        if command == "center" and tilde:
            assert (code, err) == (2, warned + "error: the center description applies to "
                                               "the plain layer\n")
        else:
            assert code in (0, 1) and err == warned, command


@pytest.mark.parametrize("inner", ["cyclic(1;a=0,b=0)", "cyclic(2;a=1,b=1)", "cyclic(2;a=1,b=0)",
                                   "perm(3;a=(0 1),b=(1 2))", "klein(a=10,b=01)"])
def test_identity_letter_rule_matches_the_evaluated_images(inner):
    # `_layer` warns by a rule; the letters it names are exactly those
    # whose evaluated image is the layer's identity
    for p in (2, 3):
        for kind in ("gaschutz", "tilde"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                layer = constel.cli._layer(parse_group_spec("%s(%s,%d)" % (kind, inner, p)))
            warned = [str(c.message) for c in caught]
            expected = [a for a in range(layer.n_letters) if layer.is_identity(Word(((a, 1),)))]
            assert warned == ["letter %d maps to the identity" % a for a in expected], (kind, p)
            assert bool(expected) == (kind == "tilde" and inner == "cyclic(1;a=0,b=0)")


S3 = "perm(3;a=(0 1),b=(1 2))"
KLEIN = "klein(a=10,b=01)"
REPORT_DIGESTS = [  # argv, exit code, sha256 of stdout
    (["dissolve", "--group", "cyclic(6;a=1,b=2)", "--layers", "~2"],
     1, "8312621da0eb6667ff6f517136c0c9e103349f730e22379e05dedd114ac5be43"),
    (["dissolve", "--group", "cyclic(12;a=1,b=1)", "--layers", "~2", "--weak"],
     1, "aa6c667ad4ab347dbf8a1eed53cc364687a774c0d5be7dfe2f0824d16b48b47b"),
    (["dissolve", "--group", S3, "--layers", "~2,~2"],
     0, "e6d28a0c1965f430d919c0297500b9eb0fbddd95df764d8427ca56cf5eda1be8"),
    (["dissolve", "--group", "cyclic(2;a=1,b=1)", "--layers", "~2,~2,~2"],
     0, "72a98d7550f3f90742b35f28d53bcfbe920855cd56b593b624aaf88f614abd10"),
    (["dissolve", "--group", KLEIN, "--layers", "~3"],
     1, "c4188bd3724d1eb4db574db916a9f7215a0815ff5261aa0cbcafe52ac3e2f722"),
    (["constellations", "--group", "cyclic(16;a=1,b=1)"],
     0, "9fbf352e1585dd9aa311326049cc10c6c94d0ccce545433719bddcf6409a51f5"),
    (["cayley", "--group", "tilde(cyclic(6;a=1,b=2),2)", "--dot"],
     0, "84e1ef8f247b7b6c4c11f300cbe93a304f3267f4f4b4f40d43fd1e162fe072b2"),
    (["cayley", "--group", "prodA(cyclic(4;a=1,b=3),%s)" % S3],
     0, "85cf58c4c990ea68549d1e77e2d64c3bb05a57bf748320789ed37232f41a6c4a"),
    (["abelianization", "--group", "gaschutz(%s,3)" % KLEIN],
     0, "18020de807cfd9ae4bdec98daa2933b96610dc0f2542b2843159131317719634"),
    (["key-lemma", "--group", "cyclic(6;a=1,b=2)", "--p", "5", "--subgroup", "aa"],
     0, "93a4626b2cf4c696325287561761f89b511e51b7fd6521720e52781f4ee1ba09"),
    (["closure", "--gens", "ab,ba", "--level", "tilde(%s,2)" % S3],
     0, "9bff1ff19b517fe6b0cbf5e930e5b9859cde2f67b4540236fe5f36c68575d3e3"),
    (["rank-check", "--group", KLEIN, "--p", "3", "--tilde"],
     0, "a6ad27e11e8afadbf557fdd592628fdf43738ac014a6ef61aac1d2f816e8c9e8"),
    (["center", "--group", "gaschutz(cyclic(6;a=1,b=2),3)"],
     0, "fd405fc23b975a22bd40b1d1c1ac01c4a5d43a0ce6d31c9f21cf4c0414e5a721"),
    (["disconnect", "--group", "tilde(%s,2)" % S3, "--base", S3, "--letter", "b",
      "--sign", "-1"],
     0, "ee0c0ff35602a79a6cb233a7199b4522e886e53e6334e42b8f79be992aab6829"),
    (["core", "--gens", "aab,bAb,abab"],
     0, "5451bd4128f175be4c3b249b07f0b7a256c055828c7dcb5be78ccc1f8d24addb"),
    (["ag", "--group", "cyclic(4;a=1,b=3)"],
     0, "4d535108d84bb059aa48ed5b24204c60399a2c66112a87e12fbb7f9ec237c66d"),
    (["amalgam", "--group", S3, "--index", "3"],
     0, "29b8c30bf3120321c27bed51f43911829ad4be770f76fdfc9f009ca7c85b8cea"),
    (["complete-alternating", "--automaton", "path.aut", "--k", "0"],
     0, "cd60ca5714d8bb2d5d3cd03d8ac4654b05b9cc5329f344e3cbe7deaf02c8183d"),
    (["complete-alternating", "--automaton", "path.aut", "--k", "3"],  # parity repair
     0, "71c56c68a1f3895cede8ada859c30f6e9e835e35fc92bdd5eb298da0e6209497"),
    (["complete-alternating", "--automaton", "square.aut", "--k", "0"],  # parity repair
     0, "5d9159efee71b49f1514ec9000437dca2db039cd4f1ce8cae9fd5a4a8483c30c"),
    (["fold", "--automaton", "three-parts.aut"],
     0, "85a0d97259ac21f698165e8d7f1395e12851fd46615ae580d3e55bfc0084874a"),
    (["fold", "--automaton", "baseless.aut"],
     0, "21ccda26d6da3d191d0f834a3765a4425c4480a8367f767ab869a9ed37680873"),
    # a 196,830-element top, decided by the linear method: 1,980 failures with p = 3 vectors
    (["dissolve", "--group", "cyclic(10;a=1,b=1)", "--layers", "~3"],
     1, "eb40179ba8f58fa0a90a99e0a60db8aaffeba66b1b7381ffaea4947f431ab3f2"),
    (["fold", "--automaton", "three-parts-reversed.aut"],  # same bytes as three-parts.aut
     0, "85a0d97259ac21f698165e8d7f1395e12851fd46615ae580d3e55bfc0084874a"),
    (["member", "--gens", "aab,bAb,abab", "--word", "ababaab"],
     0, "ac6dc1fc496dc0514cbc3cf31a27f8ab2b0f6de07f6db5bcbea48f5692bdfe3d"),
    (["member", "--gens", "aa,b", "--word", "ab"],
     1, "fb03f108e0cf7e3de145f8359ce2b3b3edadfbd04864853eae3f88838da3524f"),
    (["certify-an", "--automaton", "a7.aut"],
     0, "05d08fa9332a34f6cef365f826f7e1cc328b629a37ad80d042db43e3fcbd31c9"),
    (["certify-an", "--automaton", "odd.aut"],  # S5: transitive, primitive, not all even
     1, "ec5f71607a7f706b28eb10aa3601393b6295149a5d963e8b91c692b8adf5e4d7"),
    (["gaschutz-info", "--group", "gaschutz(%s,5)" % S3],
     0, "3775b7e761b775fe6f55cc900d5c09c0611fa1309e00005d24b0007f26e1035c"),
    (["gaschutz-info", "--group", "tilde(%s,2)" % S3],
     0, "78aa7a7c1d4a3277a22e036e3ceb01d5e4e77e59fa5e0606dd07d3bd230cf0fa"),
    (["evaluate", "--group", "tilde(%s,2)" % S3, "--word", "abab"],
     1, "0cbc81c7ecbad7ff78068fe6b39b663c27503c120b877bfa1fd89dd83aa1492d"),
    (["evaluate", "--group", "cyclic(6;a=1,b=2)", "--word", "a^4 b"],
     0, "bbb86260e5abfbdf1f6ff8134ce28656f3b01de11dd3ed17fa660e45bf4e63f2"),
    (["rz-member", "--word", "ba", "--subgroups", "a|b", "--level", S3],
     1, "dfc205b6b4c4c2d11cde208ba9c6054c7b042d62a24c96462d0f526e9e08cbd4"),
    (["corpus", "--seed", "3", "--count", "4", "--dir", "corpus"],  # lists relative paths
     0, "9870538559ce8a2af36d3cb33b8fdc6b6c358457a9072ecf9fc4af50f447f4f1"),
]
# .aut inputs named in REPORT_DIGESTS, read from the test's working
# directory.  three-parts.aut, its reversal and baseless.aut have
# components off the base or no base, which `canonical` numbers from their
# least input vertex; three-parts.aut with its edge lines reversed folds
# to the same bytes, since `fold` does not depend on edge order.  a7.aut
# is a 7-cycle and a 3-cycle; odd.aut a 4-cycle and a transposition.
AUT_FIXTURES = {
    "path.aut": "edge 0 a 1\nedge 1 a 2\nedge 0 b 0\nbase 0\n",
    "square.aut": "edge 0 a 1\nedge 1 b 2\nedge 2 a 3\nedge 3 b 0\nedge 1 a 4\nbase 0\n",
    "three-parts.aut": "alphabet a b\nedge 15 b 4\nedge 16 b 6\nedge 0 b 8\nedge 16 b 6\n"
                       "edge 9 a 0\nedge 8 b 9\nedge 6 a 3\nedge 3 b 6\nedge 4 a 4\n"
                       "edge 16 b 16\nbase 15\n",
    "three-parts-reversed.aut": "alphabet a b\nedge 16 b 16\nedge 4 a 4\nedge 3 b 6\n"
                                "edge 6 a 3\nedge 8 b 9\nedge 9 a 0\nedge 16 b 6\n"
                                "edge 0 b 8\nedge 16 b 6\nedge 15 b 4\nbase 15\n",
    "baseless.aut": "alphabet a b\nedge 15 b 3\nedge 18 b 9\nedge 4 a 1\nedge 11 b 9\n"
                    "edge 18 b 15\n",
    "a7.aut": "".join("edge %d a %d\nedge %d b %d\n"
                      % (v, (v + 1) % 7, v, {0: 1, 1: 2, 2: 0}.get(v, v))
                      for v in range(7)) + "base 0\n",
    "odd.aut": "edge 0 a 1\nedge 1 a 2\nedge 2 a 3\nedge 3 a 0\nedge 4 a 4\nedge 0 b 0\n"
               "edge 1 b 1\nedge 2 b 2\nedge 3 b 4\nedge 4 b 3\nbase 0\n",
}


def subcommands() -> dict:
    """Subcommand name -> its parser."""
    return next(action.choices for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def report_cases():
    """Each REPORT_DIGESTS entry as printed, then written with --out and,
    where the subcommand takes it, --aut-out."""
    for i, (argv, code, digest) in enumerate(REPORT_DIGESTS):
        name = "%s-%d" % (argv[0], i)
        yield pytest.param(argv, code, digest, False, id=name)
        yield pytest.param(argv, code, digest, True, id=name + "-files")


@pytest.mark.parametrize("argv, code, digest, to_files", report_cases())
def test_reports_are_byte_identical(argv, code, digest, to_files, tmp_path, monkeypatch):
    # a change that alters a report declares it and updates the digest
    # in the same commit.  With --out, stdout stays empty and the file
    # holds the same bytes; --aut-out holds the report's automaton
    monkeypatch.chdir(tmp_path)
    for name, text in AUT_FIXTURES.items():
        (tmp_path / name).write_text(text)
    if not to_files:
        got, out, _ = run(argv)
        report = out.encode()
    else:
        takes_aut = any(a.dest == "aut_out" for a in subcommands()[argv[0]]._actions)
        side = ["--aut-out", "side.aut"] if takes_aut else []
        got, out, _ = run(argv + ["--out", "report.json"] + side)
        assert out == ""
        report = (tmp_path / "report.json").read_bytes()
        if takes_aut:
            assert (tmp_path / "side.aut").read_text() == json.loads(report)["automaton"]
    assert (got, hashlib.sha256(report).hexdigest()) == (code, digest), argv


def test_every_subcommand_has_a_report_digest():
    # the report envelope is checked on every subcommand, one added later too
    assert set(subcommands()) == {argv[0] for argv, _, _ in REPORT_DIGESTS}


class Lazy(list):
    """An array that `live` hands to the writer as a generator."""


def live(value):
    """value with each Lazy array turned into a generator of its items."""
    if isinstance(value, Lazy):
        return (live(item) for item in value)
    if isinstance(value, (list, tuple)):
        return type(value)(live(item) for item in value)
    if isinstance(value, dict):
        return {key: live(item) for key, item in value.items()}
    return value


def test_report_writer_matches_json_dump():
    # the writer against json.dumps(indent=2, sort_keys=True) on what
    # reports hold; json.dumps reads a Lazy array as the list it is
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    limit = 10 ** sys.get_int_max_str_digits() - 1
    text = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f \U0001f600')))
    ints = st.one_of(st.integers(), st.sampled_from((limit, -limit, limit // 7, -1, 0)))
    leaves = st.one_of(st.none(), st.booleans(), ints, text)
    values = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(Lazy), st.dictionaries(text, inner, max_size=4)),
        max_leaves=20)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(values)
    @hypothesis.example({"": [], "a": (), "b": Lazy(), "c": {}, "d": [Lazy(), {}, ()]})
    def check(value):
        out = io.StringIO()
        constel.cli._write_json(out, live(value))
        assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True)

    check()
    for bad in (1.5, [1, {2, 3}], {"a": {1: 2}}, {"a": 0, 1: 2}, (x for x in [0.5])):
        with pytest.raises(TypeError):
            constel.cli._write_json(io.StringIO(), bad)


def test_report_is_written_in_batches():
    # the Z6 dissolve prints 7,440 reports in far fewer writes than one
    # a report, with its bytes unchanged
    class Counted(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    argv = ["dissolve", "--group", "cyclic(6;a=1,b=2)", "--layers", "~2"]
    want = next((code, digest) for args, code, digest in REPORT_DIGESTS if args == argv)
    out = Counted()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == want
    assert len(json.loads(text)["reports"]) == 7440
    assert out.writes < 7440


def test_streamed_report_items_hold_only_bounded_integers(tmp_path, monkeypatch):
    # `_emit` does not check the streamed `reports` and `constellations`
    # arrays for unprintable integers: their items hold vertex ids, letters,
    # words and residues mod p, so no integer there passes DEFAULT_BOUND^2
    def ints(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            return [i for item in value for i in ints(item)]
        return [value] if isinstance(value, int) and not isinstance(value, bool) else []

    monkeypatch.chdir(tmp_path)
    for argv, code, _ in REPORT_DIGESTS:
        if argv[0] in ("dissolve", "constellations"):
            items = run_json(argv, code)["reports" if argv[0] == "dissolve" else "constellations"]
            assert items and all(abs(i) <= DEFAULT_BOUND ** 2 for i in ints(items)), argv


def test_weak_dissolve_grows_witness_trees_only_to_their_witnesses(monkeypatch):
    # the ten witness trees on the 24,576-element top would discover
    # 98,314 vertices grown whole; grown to each witness, far fewer
    grown = []

    class Kept(BfsTree):
        def __init__(self, *args):
            super().__init__(*args)
            grown.append(self)

    monkeypatch.setattr(constel.dissolve, "BfsTree", Kept)
    argv = ["dissolve", "--group", "cyclic(12;a=1,b=1)", "--layers", "~2", "--weak"]
    want = next((code, digest) for args, code, digest in REPORT_DIGESTS if args == argv)
    code, out, _ = run(argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == want
    assert len(grown) == 10 and sum(len(tree.tree) for tree in grown) < 25000


def test_weak_dissolve_contracts_and_reads_fibers_once(monkeypatch):
    # the four letter constellations share one contraction of Gamma(H)
    # along the preimage of Gamma(G) minus the letter edges
    calls = {"contract": 0, "fibers": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(constel.dissolve, "_contract",
                        counted("contract", constel.dissolve._contract))
    monkeypatch.setattr(constel.groups.Morphism, "fibers",
                        counted("fibers", constel.groups.Morphism.fibers))
    argv = ["dissolve", "--group", "cyclic(12;a=1,b=1)", "--layers", "~2", "--weak"]
    want = next((code, digest) for args, code, digest in REPORT_DIGESTS if args == argv)
    code, out, _ = run(argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == want
    assert calls == {"contract": 1, "fibers": 1}


def test_python_m_constel_runs_the_command_line():
    # without the installed `constel` script, `python -m constel` prints
    # the same report and exits with the same code
    argv = ["dissolve", "--group", KLEIN, "--layers", "~3"]
    want = next((code, digest) for args, code, digest in REPORT_DIGESTS if args == argv)
    env = dict(os.environ, PYTHONPATH=str(Path(constel.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "constel", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, hashlib.sha256(done.stdout.encode()).hexdigest()) == want
    refused = subprocess.run([sys.executable, "-m", "constel", "nosuch"], env=env,
                             capture_output=True, text=True, timeout=60)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr.startswith("usage: constel")


def test_reports_do_not_depend_on_the_interpreter(tmp_path):
    # reports are re-checked elsewhere: without asserts (-O) and under
    # another string hash seed, a dissolve, a .aut file that names its
    # letters and the seeded corpus print the same bytes
    for name, text in AUT_FIXTURES.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(constel.__file__).parent.parent),
               PYTHONHASHSEED="12345")
    for argv in (["dissolve", "--group", KLEIN, "--layers", "~3"],
                 ["fold", "--automaton", "three-parts.aut"],
                 ["corpus", "--seed", "3", "--count", "4", "--dir", "corpus"]):
        want = next((code, digest) for args, code, digest in REPORT_DIGESTS if args == argv)
        done = subprocess.run([sys.executable, "-O", "-m", "constel", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, hashlib.sha256(done.stdout.encode()).hexdigest()) == want


def test_python_m_constel_cli_refuses_with_a_pointer():
    # the module is not an entry point: it runs no command and says so
    env = dict(os.environ, PYTHONPATH=str(Path(constel.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "constel.cli", "cayley", "--group", KLEIN],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: run the command line as python -m constel\n"


def test_one_parser_serves_every_call_of_a_process():
    # a refused parse and --help exit through the cached parser without
    # leaving state behind: the next command prints what a fresh process
    # prints
    assert _build_parser() is _build_parser()
    code, out, err = run(["amalgam", "--index", "x"])
    assert code == 2 and not out and err.startswith("usage: constel amalgam")
    code, out, _ = run(["--help"])
    assert code == 0 and out.startswith("usage: constel")
    argv, want_code, digest = next(entry for entry in REPORT_DIGESTS if entry[0][0] == "amalgam")
    code, out, _ = run(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(constel.__file__).parent.parent))
    fresh = subprocess.run([sys.executable, "-m", "constel", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want_code, digest)


@pytest.mark.filterwarnings("ignore:letter .* maps to the identity")
def test_cli_fuzz_exits_0_1_or_2(monkeypatch, tmp_path):
    # small specs from the grammar, their malformed variants, words with
    # exponents up to 10^25 and .aut texts, well-formed or not: every run
    # ends in 0, 1 or 2, and 2 prints nothing.  The bound is lowered so that
    # small inputs reach every size refusal and no run builds tens of
    # thousands of pairs; check_size is the same code at any bound.
    bound = 5000
    monkeypatch.setattr(constel.groups, "DEFAULT_BOUND", bound)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    letters = st.integers(1, 2)

    @st.composite
    def cyclic(draw, n_max=6):
        images = draw(st.lists(st.integers(0, 6), min_size=1, max_size=2))
        return "cyclic(%d;%s)" % (draw(st.integers(1, n_max)),
                                  ",".join("%s=%d" % ("ab"[i], k) for i, k in enumerate(images)))

    @st.composite
    def klein(draw):
        bits = draw(st.lists(st.sampled_from(("00", "01", "10", "11")), min_size=1, max_size=2))
        return "klein(%s)" % ",".join("%s=%s" % ("ab"[i], b) for i, b in enumerate(bits))

    @st.composite
    def perm(draw):
        degree = draw(st.integers(1, 4))
        cycles = [draw(st.permutations(range(degree)))[:draw(st.integers(1, degree))]
                  for _ in range(draw(letters))]
        return "perm(%d;%s)" % (degree, ",".join(
            "%s=(%s)" % ("ab"[i], " ".join(map(str, c))) for i, c in enumerate(cycles)))

    @st.composite
    def extension(draw):  # inner groups of order at most 4, so layers stay below 1000
        inner = draw(st.one_of(cyclic(n_max=4), klein()))
        return "%s(%s,%d)" % (draw(st.sampled_from(("gaschutz", "tilde"))), inner,
                              draw(st.sampled_from((2, 3, 4))))

    base = st.one_of(cyclic(), klein(), perm())
    well_formed = st.one_of(base, extension(),
                            st.tuples(base, base).map(lambda ab: "prodA(%s,%s)" % ab))
    mutations = (lambda s: s[:-1], lambda s: "(" + s, lambda s: s.replace("b=", "a="),
                 lambda s: s.replace("a=", "b="), lambda s: s.replace("1", "x", 1))
    specs = st.one_of(well_formed, st.tuples(well_formed, st.sampled_from(mutations))
                      .map(lambda sm: sm[1](sm[0])))
    exponent = st.one_of(st.integers(-12, 12), st.tuples(
        st.sampled_from((1, -1)), st.integers(bound + 1, 10 ** 25)).map(
            lambda sk: sk[0] * sk[1]))
    verbose = st.lists(st.tuples(st.sampled_from("abc"), exponent), min_size=1, max_size=4)
    words = st.one_of(st.text(alphabet="abcAB1", max_size=8),
                      verbose.map(lambda toks: " ".join("%s^%d" % t for t in toks)))
    layers = st.sampled_from(("", "~2", "3", "~2,~2", "~x"))
    junk = ("alphabet a a", "alphabet a b c", "alphabet b a", "vertex 9", "edge 0 a",
            "edge 0 z 1", "edge -1 a 0", "edge 0 b 10000000000", "base x", "base 1 2",
            "frobnicate", "# comment")

    @st.composite
    def aut_texts(draw):
        # per letter a permutation, a path, a partial injection or any edges, then
        # a base and junk lines; a path on a and an injection on b is folded,
        # connected and incomplete, and two permutations of degree 5-8 can be certified.
        # Letters are a, b, c or drawn names, with or without an alphabet line
        n = draw(st.sampled_from((5, 7, 3, 8, 6, 1, 2, 4)))
        names = draw(st.one_of(st.just("abc"), st.lists(
            st.sampled_from(("a", "b", "c", "x", "y", "z", "ab", "l26")),
            min_size=3, max_size=3, unique=True)))
        lines = draw(st.sampled_from(([], ["alphabet " + " ".join(names)])))
        kinds = draw(st.one_of(
            st.sampled_from((("path", "injection"), ("permutation", "permutation"))),
            st.lists(st.sampled_from(("permutation", "path", "injection", "any")),
                     min_size=1, max_size=3)))
        for name, kind in zip(names, kinds):
            if kind == "permutation":
                pairs = list(enumerate(draw(st.permutations(range(n)))))
            elif kind == "path":
                pairs = [(v, v + 1) for v in range(n - 1)]
            elif kind == "injection":
                sources = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
                pairs = list(zip(sources, draw(st.permutations(range(n)))))
            else:
                pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                      max_size=n))
            lines += ["edge %d %s %d" % (u, name, v) for u, v in pairs]
        if draw(st.booleans()):
            lines.append("base %d" % draw(st.integers(0, n - 1)))
        lines += draw(st.lists(st.sampled_from(junk), max_size=1))
        return "\n".join(draw(st.permutations(lines))) + "\n"

    completion_sizes = st.sampled_from(([], ["--k", "0"], ["--k", "3"], ["--k", "11"],
                                        ["--k", "-4"], ["--n", "9"], ["--n", "20"],
                                        ["--n", "0"], ["--n", str(10 ** 30)]))
    valid_groups = st.sampled_from((Z2, "klein(a=10,b=01)", "perm(3;a=(0 1),b=(1 2))"))
    aut_file = str(tmp_path / "fuzz.aut")

    gen_words = st.one_of(st.text(alphabet="abAB", min_size=1, max_size=4), words)
    word_lists = st.lists(gen_words, min_size=1, max_size=3).map(",".join)
    letter_counts = st.sampled_from(([], ["--letters", "1"], ["--letters", "2"],
                                     ["--letters", "0"], ["--letters", "27"]))
    primes = st.sampled_from((2, 2, 3, 5, 4, 0)).map(str)
    corpus_dir = str(tmp_path / "corpus")

    @st.composite
    def argvs(draw):  # (argv, text of the .aut file it reads or None)
        command = draw(st.sampled_from((
            "evaluate", "abelianization", "cayley", "constellations", "dissolve",
            "key-lemma", "fold", "complete-alternating", "certify-an", "core", "member",
            "closure", "rz-member", "disconnect", "center", "gaschutz-info", "rank-check",
            "corpus")))
        if command in ("fold", "complete-alternating", "certify-an"):
            argv = [command, "--automaton", aut_file]
            if command == "fold":
                argv += draw(st.sampled_from(([], ["--dot"])))
            if command == "complete-alternating":
                argv += draw(completion_sizes) + ["--seed", str(draw(st.integers(0, 3)))]
            return argv, draw(aut_texts())
        if command in ("core", "member"):
            argv = [command, "--gens", draw(word_lists)] + draw(letter_counts)
            return argv + (["--word", draw(words)] if command == "member" else []), None
        if command == "corpus":
            sizes = draw(st.sampled_from(((3, 8), (2, 5), (5, 4), (3, 3), (4, 12))))
            return [command, "--seed", str(draw(st.integers(0, 3))),
                    "--count", str(draw(st.sampled_from((0, 1, 3, bound + 1)))),
                    "--m-min", str(sizes[0]), "--m-max", str(sizes[1]),
                    "--dir", corpus_dir], None
        if command in ("closure", "rz-member"):
            argv = [command, "--level", draw(st.one_of(valid_groups, specs))]
            if command == "closure":
                return argv + ["--gens", draw(word_lists)], None
            return argv + ["--word", draw(words), "--subgroups", "|".join(
                draw(st.lists(word_lists, min_size=1, max_size=2)))], None
        if command == "disconnect":  # a layer over its base, or any two specs
            if draw(st.booleans()):
                base = draw(valid_groups)
                group = "%s(%s,%d)" % (draw(st.sampled_from(("gaschutz", "tilde"))), base,
                                       draw(st.sampled_from((2, 3))))
            else:
                base, group = draw(specs), draw(specs)
            return [command, "--group", group, "--base", base,
                    "--letter", draw(st.sampled_from(("a", "b", "c", "ab", ""))),
                    "--sign", draw(st.sampled_from(("1", "-1")))], None
        argv = [command, "--group", draw(
            st.one_of(valid_groups, specs) if command == "key-lemma" else
            st.one_of(extension(), specs) if command in ("center", "gaschutz-info") else specs)]
        if command == "evaluate":
            argv += ["--word", draw(words)]
        if command == "dissolve":
            argv += ["--layers", draw(layers)] + draw(st.sampled_from(([], ["--weak"])))
        if command == "key-lemma":
            argv += ["--p", draw(primes), "--subgroup", draw(word_lists)]
        if command == "rank-check":
            argv += ["--p", draw(primes)] + draw(st.sampled_from(([], ["--tilde"])))
        return argv, None

    # one success path per command whose random draws seldom reach it;
    # x is a 7-cycle and y a 3-cycle, so the certificate names y
    renamed_a7 = "alphabet x y\n" + "".join(
        "edge %d x %d\nedge %d y %d\n" % (v, (v + 1) % 7, v, {0: 1, 1: 2, 2: 0}.get(v, v))
        for v in range(7))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(argvs())
    @hypothesis.example((["key-lemma", "--group", Z2, "--p", "2", "--subgroup", "a"], None))
    @hypothesis.example((["evaluate", "--group", Z2, "--word", "a"], None))
    @hypothesis.example((["disconnect", "--group", "tilde(%s,2)" % Z2, "--base", Z2,
                          "--letter", "b"], None))
    @hypothesis.example((["certify-an", "--automaton", aut_file], renamed_a7))
    @hypothesis.example((["fold", "--automaton", aut_file, "--dot"], renamed_a7 + "edge 0 y 7\n"))
    @hypothesis.example((["corpus", "--count", "2", "--dir", corpus_dir], None))
    def check(argv_text):
        argv, text = argv_text
        if text is not None:
            with open(aut_file, "w") as fh:
                fh.write(text)
        code, out, _ = run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert code != 2 or not out, argv

    start = time.perf_counter()
    check()
    assert time.perf_counter() - start < 10
