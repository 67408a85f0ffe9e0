"""Every library name the benchmark under ``perfbench/`` calls or traces
still resolves, so an API change cannot silently break ``--trace 1``.

The benchmark files are parsed, never imported: the traced names come from
the literal tuples ``TRACED_FUNCTIONS`` and ``TRACED_METHODS`` of
``run.py``, the called names from every ``lib.<module>.<name>`` expression.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    return importlib.import_module(f"lorentzcc.{name}")


def _run_py_literal(name):
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py no longer assigns {name}")


def _library_references():
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)):
                continue
            lib = node.value.value
            if (isinstance(lib, ast.Name) and lib.id == "lib") or (
                isinstance(lib, ast.Attribute) and lib.attr == "lib"
            ):
                refs.add((node.value.attr, node.attr))
    return sorted(refs)


@pytest.mark.parametrize("dotted", _run_py_literal("TRACED_FUNCTIONS"))
def test_traced_function_resolves(dotted):
    module, attr = dotted.split(".")
    assert callable(getattr(_module(module), attr))


@pytest.mark.parametrize("name, module, cls, attr", _run_py_literal("TRACED_METHODS"))
def test_traced_method_resolves(name, module, cls, attr):
    assert name.startswith(f"{module}.{cls}")
    assert callable(getattr(getattr(_module(module), cls), attr))


def test_called_names_resolve():
    refs = _library_references()
    assert ("motion", "number_for") in refs
    missing = [f"{m}.{a}" for m, a in refs if not hasattr(_module(m), a)]
    assert not missing

