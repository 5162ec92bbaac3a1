import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import constel
import constel.groups
from constel.automata import as_inverse_automaton, read_aut
from constel.cli import main, parse_group_spec, parse_layers
from constel.groups import (DEFAULT_BOUND, CyclicSpec, ExtensionSpec, KleinSpec, PermSpec,
                            ProductSpec)
from constel.perms import from_cycles


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
    # |G| * p^1001 has about 12,000 digits, past Python's int-to-str limit
    group = "gaschutz(cyclic(1000;a=1,b=1),999999999989)"
    code, out, err = run(["gaschutz-info", "--group", group])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "order has more than" in err
    report = tmp_path / "report.json"
    assert run(["gaschutz-info", "--group", group, "--out", str(report)])[0] == 2
    assert not report.exists()


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


def test_corpus_rejects_tiny_m(tmp_path):
    code, _, err = run(["corpus", "--m-min", "2", "--dir", str(tmp_path / "c")])
    assert code == 2 and "at least 3" in err


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
             ["constellations", "--group", "cyclic(20000;a=1)"]]  # 2^19999 bipartitions
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
        assert code == 2 and not out and "exceeds the bound" in err, (argv, err)
        assert elapsed < 2, (argv, elapsed)


@pytest.mark.filterwarnings("ignore:letter .* maps to the identity")
def test_cli_fuzz_exits_0_1_or_2(monkeypatch):
    # small specs from the grammar, their malformed variants and words with
    # exponents up to 10^25: every run ends in 0, 1 or 2, and 2 prints nothing.
    # The bound is lowered so that small inputs reach every size refusal and
    # no run builds tens of thousands of pairs; check_size is the same code at
    # any bound.
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

    @st.composite
    def argvs(draw):
        spec = draw(specs)
        command = draw(st.sampled_from(("evaluate", "abelianization", "cayley",
                                        "constellations", "dissolve")))
        argv = [command, "--group", spec]
        if command == "evaluate":
            argv += ["--word", draw(words)]
        if command == "dissolve":
            argv += ["--layers", draw(layers), "--weak"]
        return argv

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(argvs())
    def check(argv):
        code, out, _ = run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert code != 2 or not out, argv

    start = time.perf_counter()
    check()
    assert time.perf_counter() - start < 10
