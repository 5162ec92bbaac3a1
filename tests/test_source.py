"""Guards on the package source itself."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import constel
from constel.constellations import delta_a
from constel.gaschuetz import GaschuetzLayer
from constel.groups import CyclicSpec, identity_morphism, materialize
import oracle
import tracing  # perfbench/tracing.py; nothing is patched until install()


def package_nodes():
    for path in sorted(Path(constel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_package_parses_at_the_requires_python_floor():
    # pyproject.toml declares requires-python = ">=3.10.7": no module may use
    # syntax newer than Python 3.10
    for path in sorted(Path(constel.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a self-check must raise instead
    found = ["%s:%d" % (name, node.lineno)
             for name, node in package_nodes() if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_size_limit_parameters_in_the_package():
    # sizes are refused by constel.groups.check_size alone, never by a knob
    found = ["%s:%d %s" % (name, arg.lineno, arg.arg)
             for name, node in package_nodes() if isinstance(node, ast.arguments)
             for arg in (*node.posonlyargs, *node.args, *node.kwonlyargs,
                         node.vararg, node.kwarg)
             if arg is not None and (arg.arg == "bound" or arg.arg.endswith("_bound")
                                     or arg.arg.startswith("max_"))]
    assert not found, found


# the functions allowed to call int(text): parse_int reads every integer
# that comes from outside the program, and the Klein bits are each
# checked against "01" first
INT_READERS = {"groups.parse_int", "cli.parse_group_spec"}


def int_calls():
    """module.function, or module:line off any function, of every
    one-argument call of the builtin int in the package, and of every
    `type=int` keyword, which hands argparse's text to int."""
    for path in sorted(Path(constel.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(stmt):
                if ((isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int"
                     and len(node.args) + len(node.keywords) == 1)
                        or (isinstance(node, ast.keyword) and node.arg == "type"
                            and getattr(node.value, "id", None) == "int")):
                    yield ("%s.%s" % (path.stem, stmt.name)
                           if isinstance(stmt, ast.FunctionDef) else
                           "%s:%d" % (path.stem, node.lineno))


def test_outside_integers_are_read_by_parse_int():
    # int() of a 5000-digit string raises Python's digit-limit error;
    # parse_int refuses it by size instead
    found = set(int_calls())
    assert found <= INT_READERS, sorted(found - INT_READERS)


def test_reports_have_one_writer():
    # cli._write_json writes every report in batches, byte for byte as
    # json.dump(indent=2) would; no module calls json.dump or json.dumps,
    # or imports either from json
    found = ["%s:%d" % (name, node.lineno) for name, node in package_nodes()
             if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("dump", "dumps")
                 and getattr(node.func.value, "id", None) == "json")
             or (isinstance(node, ast.ImportFrom) and node.module == "json"
                 and any(alias.name in ("dump", "dumps") for alias in node.names))]
    assert not found, found


# the package's process-global memos, as module.name; each keeps one entry
# or, for the parser, one object
MEMOS = {"cli._build_parser", "constellations._split_subgraphs",
         "constellations._base_component", "dissolve._last_pair_lifts"}
MEMO_NAMES = ("cache", "lru_cache")


def memo_uses(stmt) -> list[int]:
    """Lines where stmt decorates with or calls functools.cache or
    lru_cache, or imports either under another name."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [stmt.lineno for alias in stmt.names
                if alias.asname and alias.name.split(".")[-1] in MEMO_NAMES]
    heads = [head for node in ast.walk(stmt) for head in getattr(node, "decorator_list", ())]
    heads += [node.func for node in ast.walk(stmt) if isinstance(node, ast.Call)]
    lines = []
    for head in heads:
        while isinstance(head, ast.Call):  # lru_cache(maxsize=1)(f)
            head = head.func
        if getattr(head, "id", getattr(head, "attr", None)) in MEMO_NAMES:
            lines.append(head.lineno)
    return lines


def memo_sites():
    """One entry per line that makes a memo: module.name when it is the
    first such line of a top-level def, class or assignment, else
    module:line."""
    for path in sorted(Path(constel.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            lines = sorted(set(memo_uses(stmt)))
            if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                name = stmt.name
            else:
                name = None
            for i, line in enumerate(lines):
                yield "%s.%s" % (path.stem, name) if name and not i else "%s:%d" % (path.stem, line)


def test_process_global_memos_are_the_named_ones():
    # a memo outlives the call that filled it, so each one is named here;
    # a memo inside a class or under another name fails as well
    assert sorted(memo_sites()) == sorted(MEMOS)


# dataclasses with the same field annotations, in order, each pair with
# the reason it stays two types
SAME_FIELDS = {
    ("groups.KleinSpec", "words.Word"): "bit pairs per letter, against signed letters",
}


def dataclasses_of_the_package():
    """(module.class, class node, its @dataclass decorator) for every
    module-level dataclass of the package."""
    for path in sorted(Path(constel.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.ClassDef):
                for head in stmt.decorator_list:
                    if getattr(getattr(head, "func", head), "id", None) == "dataclass":
                        yield "%s.%s" % (path.stem, stmt.name), stmt, head


def dataclass_fields():
    """module.class -> the unparsed annotations of its fields, in order,
    for every module-level dataclass of the package."""
    for name, stmt, _ in dataclasses_of_the_package():
        yield name, tuple(ast.unparse(node.annotation) for node in stmt.body
                          if isinstance(node, ast.AnnAssign))


def test_one_dataclass_per_field_signature():
    # one concept, one type: two dataclasses whose fields read the same
    # types are named in SAME_FIELDS with what tells them apart
    by_fields: dict[tuple, list[str]] = {}
    for name, fields in dataclass_fields():
        by_fields.setdefault(fields, []).append(name)
    same = {tuple(names) for names in by_fields.values() if len(names) > 1}
    assert same == set(SAME_FIELDS), sorted(same ^ set(SAME_FIELDS))


# dataclasses held once per maximal pair or per dissolve report, and the
# witness words those reports hold: under CPython 3.11 an instance
# __dict__ costs each of them 40 to 48 B more
SLOTTED = {"constellations.MaxConstellationPair", "dissolve.DissolveReport", "words.Word"}


def test_per_item_dataclasses_keep_their_slots():
    slotted = {name for name, _, head in dataclasses_of_the_package()
               if any(k.arg == "slots" and getattr(k.value, "value", None) is True
                      for k in getattr(head, "keywords", ()))}
    assert SLOTTED <= slotted, sorted(SLOTTED - slotted)


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_the_shared_oracle_imports_nothing_from_the_package():
    # perfbench/oracle.py is the expected answer of the tests and the
    # benchmark; an import of constel could make a wrong answer its own
    tree = ast.parse(Path(oracle.__file__).read_text())
    found = [name for name in imported_modules(tree) if name.split(".")[0] == "constel"]
    assert not found, found


def test_bench_tracing_targets_resolve_on_the_package():
    # perfbench/tracing.py patches these names
    missing = []
    for module_name, attr, *_ in tracing.TARGETS:
        module = importlib.import_module("constel." + module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append("%s.%s" % (module_name, attr))
    assert not missing, missing


def hook_inputs():
    """(module, function) -> the positional arguments of one small call,
    for every tracing target with a result hook."""
    z2 = materialize(CyclicSpec(2, (1, 1)))
    layer = GaschuetzLayer(z2, 2, tilde=True)
    h_group, cover = layer.cover()
    return {
        ("automata", "embed_check"): (z2.cayley, z2.cayley, 0),
        ("groups", "_generate"): (2, 0, lambda x, a: (x + 1) % 2),
        ("constellations", "minimal_cut_sets"): (z2.cayley,),
        ("dissolve", "reachable_lift"): (delta_a(z2, 0).xi, h_group, cover),
        ("dissolve", "dissolves_linear"): (layer, identity_morphism(z2), delta_a(z2, 0)),
    }


def test_bench_tracing_hooks_read_real_calls():
    # a hook sees (args, result) of the function it wraps, so a changed
    # signature or result would break a traced benchmark run
    inputs = hook_inputs()
    hooked = [(module_name, attr, hook) for module_name, attr, _, _, hook in tracing.TARGETS
              if hook is not None]
    assert {(module_name, attr) for module_name, attr, _ in hooked} == set(inputs)
    for module_name, attr, hook in hooked:
        args = inputs[module_name, attr]
        result = getattr(importlib.import_module("constel." + module_name), attr)(*args)
        tracer = tracing.Tracer()  # a fresh tracer that wraps nothing
        hook(tracer, args, result)
        assert tracer.counts, (module_name, attr)


# called by no module yet; ROADMAP item 9 makes them decide level
# membership past the materialization bound
AWAITING_CALLERS = {"closure_chain", "extendible_at_level"}


def defined_functions(tree):
    """(name, def node, is a method) of every module-level function and
    every public method of a module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt, False
        elif isinstance(stmt, ast.ClassDef):
            for node in stmt.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield node.name, node, True


def names_read(node, attributes_only: bool = False) -> Counter:
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, kinds))


def test_every_package_export_has_a_caller():
    # the package defines and exports what a caller uses: each name
    # constel/__init__.py imports, and each module-level function and
    # public method, must be read outside its own definition, in the code
    # of the other modules, the acceptance tests or the benchmark's
    # scenarios (comments, docstrings and imports do not count), or be a
    # benchmark tracing target, or be named in the README.  A function
    # counts as read through a name or an attribute, a method or property
    # only through an attribute `.name`: a local of the same name is no
    # caller
    package = Path(constel.__file__).parent
    root = Path(__file__).resolve().parent.parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"}
    others = [ast.parse((root / name).read_text()) for name in
              ("tests/test_acceptance.py", "perfbench/scenarios.py", "perfbench/workload.py")]
    trees = [*modules.values(), *others]
    reads = sum(map(names_read, trees), Counter())
    attribute_reads = sum((names_read(tree, True) for tree in trees), Counter())
    traced = {attr.split(".")[-1] for _, attr, *_ in tracing.TARGETS}
    readme = (root / "README.md").read_text()
    exports = {alias.name
               for node in ast.parse((package / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    orphans = {name for name in exports if not reads[name]}
    orphans |= {"%s.%s" % (stem, name)
                for stem, tree in modules.items()
                for name, node, method in defined_functions(tree)
                if (attribute_reads if method else reads)[name] == names_read(node, method)[name]
                and name not in traced}
    orphans = sorted(name for name in orphans
                     if name.split(".")[-1] not in AWAITING_CALLERS
                     and not re.search(r"\b%s\b" % name.split(".")[-1], readme))
    assert not orphans, orphans
