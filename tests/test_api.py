"""The public names: everything listed in the __all__ of the package and of its submodules exists."""

import importlib

import pytest

SUBMODULES = ["approx", "harness", "jacobi", "quadrature", "space", "translation"]


@pytest.mark.parametrize("modname", ["smoothness_lab"] + [f"smoothness_lab.{m}" for m in SUBMODULES])
def test_every_name_in_all_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)

