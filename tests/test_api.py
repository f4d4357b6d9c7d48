"""The public names: everything listed in the __all__ of the package and of its submodules exists."""

import importlib
import subprocess
import sys

import pytest

SUBMODULES = ["approx", "harness", "jacobi", "quadrature", "space", "translation"]


@pytest.mark.parametrize("modname", ["smoothness_lab"] + [f"smoothness_lab.{m}" for m in SUBMODULES])
def test_every_name_in_all_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)



def test_the_package_does_not_import_scipy_optimize():
    """Importing scipy.optimize adds 16.7 MB of peak RSS and 0.2 s to a run, past what the benchmark allows.

    A fresh interpreter imports the package and makes one small call each of
    best_approx, k_functional and modulus, in a space where they run a solver.
    """
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from smoothness_lab import SpaceParams, best_approx, k_functional, modulus\n"
        "params = SpaceParams(1.5, 11.0 / 12.0)\n"
        "f = lambda x: np.abs(x)\n"
        "best_approx(f, 4, params, 32)\n"
        "k_functional(f, 0.4, params, 4, 32)\n"
        "modulus(f, 0.4, params, 4, 16, 32)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
