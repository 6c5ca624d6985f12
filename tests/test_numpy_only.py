"""The package runs on numpy alone; SciPy serves only as the tests' oracle.

Each check starts a fresh interpreter, since this one has SciPy loaded.
"""

import json
import subprocess
import sys

# With sys.modules["scipy"] = None every scipy import raises ImportError, so a
# lazy import inside a command fails here instead of moving its cost into the
# job.
BLOCKED = """
import sys
sys.modules["scipy"] = None
import numpy as np
from normproj import cli, norms, projections

out = sys.argv[1]
codes = [cli.main(argv + ["--out", f"{out}/{name}"]) for name, argv in (
    ("verify.json", ["verify", "--seed", "0"]),
    ("sweep", ["sweep", "--gen", "6", "--directions", "36", "--scales", "2:5"]),
    ("ce.csv", ["counterexample", "build", "--level", "6"]),
)]
model, w, x = norms.lp(4.0), np.array([1.0, -2.0]), np.array([[0.3, 1.0], [-2.0, 0.5]])
gap = np.max(np.abs(projections.project_hyperplane_direct(model, w, x)
                    - projections.project_hyperplane(model, w, x)))
print(codes, float(gap))
"""


def _python(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_run_with_scipy_blocked(tmp_path):
    codes, gap = _python("-c", BLOCKED, str(tmp_path)).splitlines()[-1].rsplit(" ", 1)
    assert json.loads(codes) == [0, 0, 0]
    assert float(gap) <= 1e-7
    assert json.loads((tmp_path / "verify.json").read_text())["all_passed"] is True


def test_import_loads_no_scipy():
    loaded = _python("-c", "import sys, normproj.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert loaded.strip() == "[]"
