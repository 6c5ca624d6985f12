"""The benchmark's two workloads: the CLI jobs each one runs, in an order
fixed by the workload seed, and the checks each job's artifacts must pass.

Each generator yields an endless, deterministic sequence of ``Job``s;
``run.py`` takes as many as fit in a run.  A check returns a list of problems
(empty when the artifacts are right).  The checks import the program's own
constants from ``normproj.checks``, so ``src`` must be importable.
"""

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

# Few enough directions that a job takes about two seconds, so that a run
# holds several jobs of each set.
DIRECTIONS = 120

# Two 65,536-point clouds; only r = 1/3 carries the criterion-8 bound.
SWEEP_SETS = (
    ("cantor-product", "--ratio", repr(1.0 / 3.0)),
    ("four-corner",),
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its arguments, where it writes and how to check it."""

    argv: tuple                      # CLI arguments, without --out
    config: str                      # jobs with the same config do the same work
    out: str                         # value of --out, relative to the job directory
    artifacts: tuple                 # files the job writes, relative to the job directory
    check: Callable[..., list]       # check(jobdir) -> list of problems

    def cli_args(self, jobdir):
        return [*self.argv, "--out", str(jobdir / self.out)]


def _g12(x):
    """A float as the CLI prints it: rounded to 12 significant digits."""
    return float(f"{x:.12g}")


def _csv_body(path, header):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# normproj "):
        raise ValueError(f"{path.name}: no version header")
    if len(lines) < 2 or lines[1] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[2:]]


def check_sweep(jobdir, is_triadic):
    problems = []
    rows = _csv_body(jobdir / "profile.csv", "angle,slope,r2,flagged")
    if len(rows) != DIRECTIONS:
        return [f"profile: {len(rows)} rows, want {DIRECTIONS}"]
    for index, angle in ((0, 0.0), (DIRECTIONS // 2, _g12(math.pi / 2.0))):
        row = rows[index]
        if float(row[0]) != angle or row[3] != "1":
            problems.append(f"profile row {index} = {row}, want angle {angle!r} flagged")
    summary = json.loads((jobdir / "profile.json").read_text(encoding="utf-8"))
    if summary["directions"] != DIRECTIONS:
        problems.append(f"summary directions = {summary['directions']}")
    if is_triadic and not summary["flagged_measure"] <= 0.10:
        problems.append(f"flagged_measure {summary['flagged_measure']} > 0.10 for r = 1/3")
    return problems


def check_verify(jobdir, seed):
    from normproj.checks import CHECK_NAMES

    report = json.loads((jobdir / "verify.json").read_text(encoding="utf-8"))
    problems = []
    if report["seed"] != seed:
        problems.append(f"report seed {report['seed']}, want {seed}")
    if report["all_passed"] is not True:
        failing = [r["name"] for r in report["reports"] if not r["passed"]]
        problems.append(f"all_passed is {report['all_passed']!r}; failing: {failing}")
    if [r["name"] for r in report["reports"]] != list(CHECK_NAMES):
        problems.append("report does not list the suite's checks in order")
    return problems


def sweep_job(set_args):
    return Job(
        argv=("sweep", "--norm", "euclidean", "--set", *set_args, "--gen", "8",
              "--directions", str(DIRECTIONS), "--scales", "2:7"),
        config=" ".join(set_args),
        out="profile",
        artifacts=("profile.csv", "profile.json"),
        check=partial(check_sweep, is_triadic=set_args == SWEEP_SETS[0]),
    )


def verify_job(seed):
    # --seed goes after the subcommand: the root flag is overwritten by the
    # subparser's default
    return Job(
        argv=("verify", "--seed", str(seed)),
        config="verify",  # the seed moves sample points, not the amount of work
        out="verify.json",
        artifacts=("verify.json",),
        check=partial(check_verify, seed=seed),
    )


def sweep_jobs(seed):
    order = list(SWEEP_SETS)
    random.Random(seed).shuffle(order)
    return (sweep_job(set_args) for set_args in itertools.cycle(order))


def verify_jobs(seed):
    return (verify_job(s) for s in itertools.count(seed))


WORKLOADS = {"sweep": sweep_jobs, "verify": verify_jobs}

# The configurations each workload cycles through; a timed run holds every one.
CONFIGS = {
    "sweep": {sweep_job(set_args).config for set_args in SWEEP_SETS},
    "verify": {"verify"},
}


def inspect(job, jobdir, digests):
    """Problems with a finished job's artifacts.

    ``digests`` maps the arguments of every job already inspected in this
    run to the SHA-256 of its artifacts; a repeated job must reproduce them
    byte for byte.
    """
    try:
        problems = job.check(jobdir)
        digest = hashlib.sha256()
        for name in job.artifacts:
            digest.update((jobdir / name).read_bytes())
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    seen = digests.setdefault(job.argv, digest.hexdigest())
    if seen != digest.hexdigest():
        problems.append("artifacts differ from an earlier job with the same arguments")
    return problems
