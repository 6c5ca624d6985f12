"""Tests of the benchmark's own checks, on small hand-written artifacts.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from normproj.checks import CHECK_NAMES  # noqa: E402

HEADER = "# normproj 0.1.0\n"


def write_sweep(jobdir, flagged=(0, workloads.DIRECTIONS // 2), flagged_measure=0.0333333333333):
    n = workloads.DIRECTIONS
    rows = "".join(f"{math.pi * i / n:.12g},0.98,0.99,{int(i in flagged)}\n" for i in range(n))
    (jobdir / "profile.csv").write_text(HEADER + "angle,slope,r2,flagged\n" + rows, encoding="utf-8")
    summary = {"directions": n, "flagged_measure": flagged_measure, "mean_slope": 0.97}
    (jobdir / "profile.json").write_text(json.dumps(summary), encoding="utf-8")


def write_verify(jobdir, seed, passed=True):
    reports = [{"name": n, "passed": passed or n != CHECK_NAMES[0]} for n in CHECK_NAMES]
    report = {"seed": seed, "all_passed": passed, "reports": reports}
    (jobdir / "verify.json").write_text(json.dumps(report), encoding="utf-8")


@pytest.mark.parametrize("set_args", workloads.SWEEP_SETS)
def test_good_sweep_artifacts_pass(tmp_path, set_args):
    write_sweep(tmp_path)
    assert workloads.inspect(workloads.sweep_job(set_args), tmp_path, {}) == []


def test_corrupted_sweep_fails(tmp_path):
    write_sweep(tmp_path, flagged=(0,))
    assert workloads.inspect(workloads.sweep_job(workloads.SWEEP_SETS[1]), tmp_path, {})


def test_truncated_profile_fails(tmp_path):
    write_sweep(tmp_path)
    path = tmp_path / "profile.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert workloads.inspect(workloads.sweep_job(workloads.SWEEP_SETS[1]), tmp_path, {})


def test_missing_artifact_fails(tmp_path):
    write_sweep(tmp_path)
    (tmp_path / "profile.json").unlink()
    problems = workloads.inspect(workloads.sweep_job(workloads.SWEEP_SETS[1]), tmp_path, {})
    assert problems and "unreadable" in problems[0]


def test_flagged_measure_bound_applies_to_triadic_only(tmp_path):
    write_sweep(tmp_path, flagged_measure=0.3)
    assert workloads.inspect(workloads.sweep_job(workloads.SWEEP_SETS[0]), tmp_path, {})
    assert workloads.inspect(workloads.sweep_job(workloads.SWEEP_SETS[1]), tmp_path, {}) == []


def test_verify_report_checks(tmp_path):
    write_verify(tmp_path, seed=7)
    assert workloads.inspect(workloads.verify_job(7), tmp_path, {}) == []
    assert workloads.inspect(workloads.verify_job(8), tmp_path, {})  # seed did not reach it
    write_verify(tmp_path, seed=7, passed=False)
    assert workloads.inspect(workloads.verify_job(7), tmp_path, {})


def test_repeated_job_must_reproduce_bytes(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    write_sweep(first)
    write_sweep(second, flagged_measure=0.0333333333334)
    job = workloads.sweep_job(workloads.SWEEP_SETS[0])
    digests = {}
    assert workloads.inspect(job, first, digests) == []
    assert workloads.inspect(job, second, digests) == [
        "artifacts differ from an earlier job with the same arguments"]


def test_failed_job_lowers_ok_frac(tmp_path):
    write_sweep(tmp_path, flagged=())
    problems = workloads.inspect(workloads.sweep_job(workloads.SWEEP_SETS[0]), tmp_path, {})
    outcome = {"config": "a", "job_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 80.0}
    outcomes = [dict(outcome, problems=[]), dict(outcome, problems=problems)]
    assert run.end_to_end(outcomes, [0.5])["ok_frac"]["value"] == 0.5


def test_job_s_weighs_configs_equally():
    times = {"a": (3.0, 2.0, 2.5, 2.5), "b": (5.0, 4.0)}
    outcomes = [{"config": c, "job_s": t} for c, ts in times.items() for t in ts]
    assert run.mean_job_s(outcomes) == 3.5


def test_timed_run_holds_every_config(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(run, "run_job", lambda job, *a: ran.append(job) or {"wall_s": 1.0,
                                                                              "problems": []})
    run.timed_run(workloads.sweep_jobs(3), run.CONFIGS["sweep"], tmp_path, 0.0, {})
    assert sorted(job.config for job in ran) == sorted(run.CONFIGS["sweep"])


def test_seed_fixes_job_order():
    n = len(workloads.SWEEP_SETS)
    first = [j.argv for j, _ in zip(workloads.sweep_jobs(4), range(2 * n))]
    assert first == [j.argv for j, _ in zip(workloads.sweep_jobs(4), range(2 * n))]
    assert first[:n] == first[n:] and len(set(first[:n])) == n
    verify = [j.argv for j, _ in zip(workloads.verify_jobs(4), range(2))]
    assert verify == [("verify", "--seed", "4"), ("verify", "--seed", "5")]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics(CHECK_NAMES)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
