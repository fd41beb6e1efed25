import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["noisestab.exceptions", "noisestab.nn",
                                    "noisestab.stability", "noisestab.config",
                                    "noisestab.loop", "noisestab.cli",
                                    "noisestab"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    # an import cycle (config and loop each reading the other at import, say)
    # fails only for the module imported first, and a test session has
    # imported every module already, so each is imported here in a new
    # process; so does an annotation that names a class defined later in its
    # file, since the modules that hold config dataclasses do not postpone
    # their annotations
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
