"""The package root binds its eight modules and `__version__`, nothing else.

Every public name has one import path, in its module
(`chipmunkring.params.preset`, `chipmunkring.ringsig.ring_sign`). A bare
`import chipmunkring` still loads numpy and all eight modules: the traced
benchmark reports that import's time as `cli.import_ms`.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ["acorn", "codec", "errors", "hots", "params", "polyring", "ringsig", "threshold"]

PROBE = """
import sys
import chipmunkring
print(sorted(name for name in vars(chipmunkring) if not name.startswith("_")))
print(sorted(name[len("chipmunkring."):] for name in sys.modules
             if name.startswith("chipmunkring.")))
print("numpy" in sys.modules)
print(chipmunkring.__version__)
"""


def test_root_binds_only_its_modules():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    # a fresh process: in this one, an import of chipmunkring.cli binds `cli`
    assert out == [str(MODULES), str(MODULES), "True", "0.1.0"]
