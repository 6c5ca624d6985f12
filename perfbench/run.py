"""Benchmark of the normproj command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it drives the checkout it sits in.  Each job is a
fresh ``python3 perfbench/job.py`` process that imports ``normproj`` from
``src`` and calls its CLI with the arguments the workload generated, so no
in-process cache carries from one job to the next.  Jobs run one at a time
(a closed loop with one client).

``--trace 0`` keeps the tool busy for about ``--seconds`` seconds: it starts
another job while the median job so far would still end within that time,
so a run holds at least one job.  It reports the end-to-end metrics:

* ``job_s``: seconds of one CLI ``main`` call, without interpreter start
  and import: the mean over the run's jobs of each configuration, averaged
  over the workload's configurations.  The box is shared, and other
  tenants' load slows jobs in spells of seconds to minutes; the mean
  averages over every spell inside the run, where the median or the
  fastest job depends on which few jobs caught one.  The detail line keeps
  every job's time and the run's median;
* ``setup_s``: median seconds from spawning a job process until
  ``normproj`` is imported, over several import-only processes and every job;
* ``peak_rss_mb``: median over jobs of the job process's peak resident set;
* ``ok_frac``: jobs that exited 0 and passed their artifact checks, over
  jobs attempted.

``--trace 1`` runs the workload's first job twice, untraced and then traced,
and reports per-layer metrics from the traced one plus the tracing overhead.
The two copies must write byte-identical artifacts.

The last line of standard output is the result object; the line before it
holds the details: environment, every job's arguments and costs, and any
problems found in its artifacts.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from job import POINTS, SOLVERS, SPANS
from workloads import CONFIGS, WORKLOADS, inspect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 2
JOB_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "OMP_PROC_BIND")

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio"}

# Fields reported per span where the default (s, self_s, calls) is more than
# the layer needs: generators and checks are timed whole, main runs once.
_FIELDS = {"fractals": ("s", "calls"), "checks": ("s",), "cli": ("s", "self_s")}


def per_layer_metrics(check_names):
    """Names and units of the per-layer metrics, in report order."""
    names = []
    for module, functions in SPANS.items():
        for fn in functions:
            names += [f"{module}.{fn}.{f}" for f in _FIELDS.get(module, ("s", "self_s", "calls"))]
            if f"{module}.{fn}" in POINTS:
                names.append(f"{module}.{fn}.points")
        names += [f"{module}.{solver}.calls" for solver in SOLVERS.get(module, ())]
    names += [f"checks.{name}.s" for name in check_names]
    names += ["cli.main.s", "cli.main.self_s", "trace.overhead_s"]
    return [(n, "count" if n.endswith((".calls", ".points")) else "s") for n in names]


def environment():
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _job_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(jobdir, flags, cli_args=()):
    """Run job.py once; returns (exit code, report or None, stderr, spawn time, wall s)."""
    jobdir.mkdir(parents=True)
    report_path = jobdir / ".cost.json"
    cmd = [sys.executable, str(HERE / "job.py"), str(report_path), *flags, "--", *cli_args]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=jobdir, env=_job_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        code, stderr = None, f"killed after {JOB_TIMEOUT_S} s"
    wall = time.monotonic() - spawned_at
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    return code, report, stderr, spawned_at, wall


def run_job(job, jobdir, digests, trace=False):
    """Run one job, check its artifacts and return its outcome record."""
    code, report, stderr, spawned_at, wall = spawn(
        jobdir, ("--trace",) if trace else (), job.cli_args(jobdir))
    outcome = {"argv": list(job.argv), "config": job.config, "wall_s": wall, "problems": []}
    if code != 0 or report is None or report.get("exit") != 0:
        exit_code = None if report is None else report.get("exit")
        outcome["problems"].append(
            f"process exit {code}, CLI exit {exit_code}: {stderr.strip()[-500:]}")
    else:
        outcome["problems"] += inspect(job, jobdir, digests)
    if report is not None and "job_s" in report:
        outcome.update(
            job_s=report["job_s"],
            setup_s=report["imported_at"] - spawned_at,
            peak_rss_mb=report["maxrss_kb"] / 1024.0,
            cpu_s=report["cpu_s"],
            layers=report.get("layers"),
        )
    return outcome


def setup_samples(rundir, count):
    out = []
    for i in range(count):
        code, report, stderr, spawned_at, _ = spawn(rundir / f"setup{i}", ("--setup-only",))
        if code != 0 or report is None:
            raise RuntimeError(f"import-only process failed: {stderr.strip()[-500:]}")
        out.append(report["imported_at"] - spawned_at)
    return out


def timed_run(jobs, configs, rundir, seconds, digests):
    """Run jobs one at a time while the next one should end within ``seconds``,
    and at least until every one of ``configs`` has run."""
    outcomes = []
    seen = set()
    start = time.monotonic()
    for index, job in enumerate(jobs):
        if seen >= configs:
            expected = statistics.median(o["wall_s"] for o in outcomes)
            if time.monotonic() - start + expected > seconds:
                break
        seen.add(job.config)
        outcome = run_job(job, rundir / f"job{index}", digests)
        print(f"job {index}: {' '.join(job.argv)}: {outcome.get('job_s', float('nan')):.3f} s"
              f"{' FAILED ' + '; '.join(outcome['problems']) if outcome['problems'] else ''}",
              file=sys.stderr, flush=True)
        outcomes.append(outcome)
    return outcomes


def mean_job_s(outcomes):
    """The mean job of each configuration, averaged over configurations."""
    times = {}
    for o in outcomes:
        if "job_s" in o:
            times.setdefault(o["config"], []).append(o["job_s"])
    return statistics.fmean(map(statistics.fmean, times.values())) if times else None


def end_to_end(outcomes, setups):
    timed = [o for o in outcomes if "job_s" in o]
    ok = sum(1 for o in outcomes if not o["problems"])
    values = {
        "job_s": mean_job_s(outcomes),
        "setup_s": statistics.median(setups + [o["setup_s"] for o in timed]),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in timed) if timed else None,
        "ok_frac": ok / len(outcomes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(plain, traced, check_names):
    stats = traced.get("layers") or {}
    metrics = {}
    for name, unit in per_layer_metrics(check_names):
        if name == "trace.overhead_s":
            value = traced["job_s"] - plain["job_s"] if "job_s" in traced and "job_s" in plain else None
        else:
            key, field = name.rsplit(".", 1)
            value = stats.get(key, {}).get(field)  # None only if the traced job failed
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "normproj" / "cli.py").is_file():
        print(f"error: no normproj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from normproj.checks import CHECK_NAMES

    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    jobs, configs = WORKLOADS[args.workload](args.seed), CONFIGS[args.workload]
    digests = {}
    try:
        if args.trace:
            job = next(jobs)
            plain = run_job(job, rundir / "plain", digests)
            traced = run_job(job, rundir / "traced", digests, trace=True)
            outcomes = [plain, traced]
            metrics = layer_metrics(plain, traced, CHECK_NAMES)
        else:
            setups = setup_samples(rundir, SETUP_SAMPLES)
            outcomes = timed_run(jobs, configs, rundir, args.seconds, digests)
            metrics = end_to_end(outcomes, setups)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = sum(1 for o in outcomes if o["problems"])
    timed = [o["job_s"] for o in outcomes if "job_s" in o]
    for o in outcomes:
        o.pop("layers", None)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "job_s_samples": len(timed),
        "job_s_median": statistics.median(timed) if timed else None,
        "environment": environment(), "jobs": outcomes,
    }
    if not args.trace:
        detail["setup_samples"] = setups
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
