"""The benchmark tracer in perfbench/job.py wraps normproj attributes by name.

A deleted or renamed function would otherwise surface only as an
AttributeError in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from normproj import checks

JOB = Path(__file__).resolve().parents[1] / "perfbench" / "job.py"


def _load_job():
    spec = importlib.util.spec_from_file_location("perfbench_job", JOB)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


def test_traced_names_resolve():
    job = _load_job()
    for mname, fnames in job.SPANS.items():
        module = importlib.import_module(f"normproj.{mname}")
        for fname in fnames:
            assert callable(getattr(module, fname, None)), f"normproj.{mname}.{fname}"
    # solvers are counted, never called by the tracer itself, so a name kept
    # only for the tracer may hold a placeholder
    for mname, fnames in job.SOLVERS.items():
        module = importlib.import_module(f"normproj.{mname}")
        for fname in fnames:
            assert hasattr(module, fname), f"normproj.{mname}.{fname}"


def test_check_table_covers_check_names():
    assert set(checks._CHECK_FUNCS) == set(checks.CHECK_NAMES)
