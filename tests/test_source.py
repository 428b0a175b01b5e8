"""Source-level guards on the package itself."""

import ast
import importlib
import importlib.util
import pathlib

import padic_mahler

PACKAGE = pathlib.Path(padic_mahler.__file__).parent


def _statements(kind):
    """module:line of every ``kind`` node in the package's modules."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, kind)]
    return found


def test_no_bare_asserts():
    # runtime checks must raise typed errors: python -O strips asserts
    found = _statements(ast.Assert)
    assert not found, found


def test_no_global_statements():
    # results kept between calls live in memo.py's slots, which one
    # memo.clear() empties; a module variable rebound by a function would
    # escape it
    found = _statements(ast.Global)
    assert not found, found


def test_traced_layers_resolve():
    # bench/tracer.py wraps these (module, attribute) names from outside;
    # a rename or deletion here would crash the traced benchmark run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _, _ in tracer.LAYERS:
        target = importlib.import_module(f"padic_mahler.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing
