"""Every demo prints the bytes it printed when these digests were recorded.

A refactor that must not change behaviour must not change what the demos
show either. Each digest is the sha256 of one demo's stdout; they do not
depend on PYTHONHASHSEED.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trilinear

SRC = Path(trilinear.__file__).resolve().parent.parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_grid_to_trilinear.py":
        "bf3edbceab4361bfbe0aeb3f4048a7af3a3bcf5280c77ca4850bc70756177b02",
    "02_shuttle_routing_and_defects.py":
        "c74f23f5283d6825ba0f2969439d4fbddecd5277118e9cf95839eba6c936baa0",
    "03_parallel_scheduling_and_mux.py":
        "5c4d9eb726f7f0180eb50a12fe55989d1ae25e1e9205cdd2bd5aa18871084db8",
    "04_half_filled_addressing.py":
        "ca763ecd14d460d9da522d5cc8e5c2119060f42192d4aa32402242d2cfb50816",
    "05_scaling_sweep.py":
        "e5fc8510729a22fdde1e49532af78517c49a79c9d5585ab32c59d9683cb49e0c",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_its_pinned_bytes(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True,
                         check=True, timeout=120).stdout
    assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[name]
