"""The package exports exactly the union of its modules' ``__all__`` lists."""

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
