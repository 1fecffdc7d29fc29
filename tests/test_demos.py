"""Smoke test: the narrative demos run to completion.

Demo 05 (toy training with fusion) is left out; acceptance criterion 5
covers that loop at greater length.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_discretization_and_scans.py", "02_shift_blocks.py", "03_module_tour.py",
         "04_gradient_checks.py", "06_scan_benchmark.py"]
# output a demo must print; demo 03 traces the 500-wide temporal core
EXPECTED = {"03_module_tour.py": "imamba: (2, 64, 500) -> (2, 64, 500)"}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert EXPECTED.get(demo, "") in proc.stdout
