"""Guards on the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import constel


def package_nodes():
    for path in sorted(Path(constel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


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


def test_bench_tracing_targets_resolve_on_the_package():
    # perfbench/tracing.py patches these names; load it without install()
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
