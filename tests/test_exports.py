import importlib

import pytest

import netelast

MODULES = ("attacks", "engine", "generators", "graph", "metrics", "routing", "spectral")


def test_all_names_resolve_sorted_and_unique():
    names = netelast.__all__
    assert [n for n in names if not hasattr(netelast, n)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name", MODULES)
def test_each_module_declares_names_it_defines(name):
    module = importlib.import_module(f"netelast.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_package_republishes_each_name_of_one_module():
    lists = [importlib.import_module(f"netelast.{name}").__all__ for name in MODULES]
    union = [n for names in lists for n in names]
    assert len(set(union)) == len(union)
    assert netelast.__all__ == sorted(union)


@pytest.mark.parametrize("name", MODULES)
def test_a_wildcard_import_binds_exactly_the_declared_names(name):
    namespace = {}
    exec(f"from netelast.{name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(importlib.import_module(f"netelast.{name}").__all__)
