"""The package runs on the standard library alone, and the names the README
cites exist."""

import importlib
import json
import os
import pkgutil
import re
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


def test_readme_names_resolve():
    """Every module-qualified name the README cites in backticks, such as
    `topology.SiteCoord` or `trilinear.cli.main(argv)`, is importable."""
    modules = "|".join(m.name for m in pkgutil.iter_modules(trilinear.__path__))
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    names = re.findall(rf"`(?:trilinear\.)?((?:{modules})(?:\.\w+)+)", text)
    assert len(names) >= 7, names
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"trilinear.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []
