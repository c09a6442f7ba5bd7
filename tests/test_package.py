"""The package's public names: eager and lazily loaded modules alike."""

import subprocess
import sys

import pytest

import schreier


def test_star_import_binds_each_public_name_to_its_defining_object():
    namespace = {}
    exec("from schreier import *", namespace)
    assert set(schreier.__all__) <= set(namespace)
    for name in schreier.__all__:
        obj = namespace[name]
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("schreier."), name
        assert getattr(module, name) is obj, name
        assert getattr(schreier, name) is obj, name


def test_dir_covers_all():
    assert set(schreier.__all__) <= set(dir(schreier))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        schreier.nope
    assert not hasattr(schreier, "nope")


def test_lazy_names_and_submodules_load_on_first_use():
    # A fresh interpreter: the test session has imported every module.
    script = """
import sys
import schreier
chain = ("verify", "bijections", "partial_sums", "finite_sets")
assert not any(f"schreier.{m}" in sys.modules for m in chain)
from schreier import verify
assert "schreier.verify" in sys.modules
assert schreier.run_suite is verify.run_suite
assert schreier.FiniteSet is sys.modules["schreier.finite_sets"].FiniteSet
"""
    subprocess.run([sys.executable, "-c", script], timeout=120, check=True)
