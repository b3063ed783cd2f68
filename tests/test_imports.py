"""The package runs on the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import trilinear

SRC = Path(trilinear.__file__).resolve().parent.parent

PROBE = """
import json, sys
before = set(sys.modules)
import trilinear
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"trilinear"})))
"""


def test_import_loads_only_the_standard_library():
    """Taken as a difference of `sys.modules`, since the interpreter's
    start-up may already have loaded third-party modules of its own."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert json.loads(out) == []
