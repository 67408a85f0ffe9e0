"""The package exports exactly the union of its modules' ``__all__`` lists,
and every exported name has a user."""

import ast
import inspect
from pathlib import Path

import lorentzcc
from lorentzcc import errors, geodesic, hypernum, motion, oracle, surface, verify

MODULES = (errors, hypernum, surface, geodesic, motion, oracle, verify)


def test_package_all_is_the_union_of_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert lorentzcc.__all__ == union
    assert len(set(union)) == len(union)


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lorentzcc, name) is getattr(module, name)


ROOT = Path(__file__).resolve().parent.parent
SRC, PERFBENCH = ROOT / "src" / "lorentzcc", ROOT / "perfbench"

# Exported names that no other module, the CLI, the battery or the benchmark
# uses, each kept for the documented paper result or return type it stands for.
ALLOWLIST = {
    "PolarForm": "return type of polar: the polar form of a non-null number",
    "Signature": "type of SurfaceSpec.signature: definite or Lorentzian metric",
    "origin_line": "the eps = 0 member of the family: a line through the origin",
    "PlaneMotion": "the rigid motions of the flat Lorentz plane",
    "plane_apply": "the rigid motions of the flat Lorentz plane",
    "TwoPointSolution": "return type of solve_two_point: the normal-form motion",
    "cross_ratio": "the motion-invariant cross ratio of four points",
    "CheckResult": "return type of run_all",
}


def _identifiers(path):
    """Names a file uses: identifiers, attributes and the dotted parts of
    string literals (perfbench traces names such as ``"oracle.christoffel"``);
    comments and docstrings do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(node.value.split("."))
    return names


# Public methods and properties of exported classes that no other module, the
# CLI, the battery or the benchmark uses, each kept for the reason given.
MEMBER_ALLOWLIST = {
    "FlatPlaneField.boundary_distance": "the field interface that integrate_geodesic "
    "reads, as it reads MetricField.boundary_distance",
    "TauField.rho_ref": "the documented reference point where tau = A phi",
}


def _public_members(cls):
    """Public methods and properties a class defines itself."""
    for member, value in vars(cls).items():
        callable_or_property = inspect.isfunction(value) or isinstance(
            value, (property, classmethod, staticmethod)
        )
        if callable_or_property and not member.startswith("_"):
            yield member


def test_every_exported_name_has_a_user():
    """Each exported name, and each public method or property of an exported
    class, appears in another library module or in perfbench.

    The match is by name, so it is coarse: a member counts as used wherever
    another object's attribute shares its name.  A ``Worldline.velocity``
    method, for one, would pass because ``GeodesicState`` has a ``velocity``
    field.
    """
    library = {path.stem: _identifiers(path) for path in SRC.glob("*.py")}
    bench = set().union(*(_identifiers(path) for path in PERFBENCH.glob("*.py")))
    orphans = []
    for module in MODULES:
        home = module.__name__.rpartition(".")[2]
        used = bench.union(*(names for stem, names in library.items() if stem != home))
        for name in module.__all__:
            if name not in used and name not in ALLOWLIST:
                orphans.append(f"{home}.{name}")
            obj = getattr(module, name)
            if isinstance(obj, type):
                orphans += [
                    f"{home}.{name}.{member}" for member in _public_members(obj)
                    if member not in used and f"{name}.{member}" not in MEMBER_ALLOWLIST
                ]
    assert not orphans
    assert set(ALLOWLIST) <= set(lorentzcc.__all__)
    for key in MEMBER_ALLOWLIST:
        cls, _, member = key.partition(".")
        assert member in _public_members(getattr(lorentzcc, cls))
