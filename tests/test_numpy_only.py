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
model, w = norms.lp(4.0), norms.HyperplaneNormal([1.0, -2.0])
x = np.array([[0.3, 1.0], [-2.0, 0.5]])
gap = np.max(np.abs(projections.project_hyperplane_direct(model, w, x)
                    - projections.project_hyperplane(model, w, x)))
print(codes, float(gap))
"""


# numpy imports numpy.random on first use; with the entry None that use
# raises ImportError, so every command must run on the stdlib generator.
NO_NUMPY_RANDOM = """
import json, sys
sys.modules["numpy.random"] = None
from normproj import cli

out, commands = sys.argv[1], json.loads(sys.argv[2])
print(json.dumps([cli.main(argv + ["--out", f"{out}/{name}"]) for name, argv in commands]))
"""
COMMANDS = [
    ("verify.json", ["verify", "--seed", "0"]),
    ("sweep", ["sweep", "--gen", "6", "--directions", "36", "--scales", "2:5"]),
    ("sweep_ce", ["sweep", "--norm", "counterexample", "--level", "6",
                  "--gen", "6", "--directions", "36", "--scales", "2:5"]),
    ("ce.csv", ["counterexample", "build", "--level", "6"]),
    ("info.json", ["norm-info"]),
    ("dim", ["dim", "--gen", "6"]),
    ("set.csv", ["set", "--gen", "6"]),
    ("gauss.json", ["gauss", "--angle", "0.7"]),
    ("project.json", ["project", "--w", "0.3", "--x", "1,2"]),
]


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


def test_commands_run_with_numpy_random_blocked(tmp_path):
    codes = _python("-c", NO_NUMPY_RANDOM, str(tmp_path), json.dumps(COMMANDS)).splitlines()[-1]
    assert json.loads(codes) == [0] * len(COMMANDS)
    assert json.loads((tmp_path / "verify.json").read_text())["all_passed"] is True
