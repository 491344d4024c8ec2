"""Each module of the package imports alone in a fresh interpreter, and
importing the package itself loads none of them: with no fixed import
order in the package, a cycle between two modules would otherwise break
only the entry points that happen to import them in the wrong order."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lcoalg

PACKAGE = Path(lcoalg.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def loaded_after(statement):
    """The package modules that a fresh interpreter holds after ``statement``."""
    code = (f"import sys; {statement}; print(*sorted(name for name in sys.modules"
            " if name.partition('.')[0] == 'lcoalg'))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_the_package_loads_no_module():
    assert loaded_after("import lcoalg") == ["lcoalg"]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    assert f"lcoalg.{module}" in loaded_after(f"import lcoalg.{module}")
