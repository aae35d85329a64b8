"""The demos run standalone: each is a subprocess with PYTHONPATH at the
package source, which must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ahxray

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_geodesics_on_the_disk.py",
                                  "02_scattering_and_gauge_equivalence.py",
                                  "03_pestov_identity_and_commutators.py",
                                  "04_reconstruction_closed_loop.py"])
def test_demo_runs(demo, tmp_path):
    src = str(Path(ahxray.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
