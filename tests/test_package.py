"""Tests for the package layout: every module imports on its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["matcore", "reduction", "mimo", "detect", "flops",
                                    "simharness", "cli"])
def test_module_imports_in_a_fresh_interpreter(module):
    # The package root imports no module, so each one must pull in what it
    # needs; an import cycle between two modules shows up here.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = f"import lrmimo.{module}, lrmimo; assert lrmimo.__version__"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})
