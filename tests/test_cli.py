import argparse
import json
import math

import pytest

from normproj import __version__, checks, cli


def run(argv):
    return cli.main(argv)


def read_json(path):
    data = json.loads(path.read_text())
    assert data["version"] == f"normproj {__version__}"
    return data


def test_norm_info(tmp_path):
    out = tmp_path / "info.json"
    assert run(["norm-info", "--norm", "lp", "--p", "3", "--grid", "256", "--out", str(out)]) == 0
    data = read_json(out)
    assert data["kind"] == "lp"
    assert data["gauss"]["monotone"] is True
    assert data["gauss"]["antipodality_defect"] <= 1e-12


def test_gauss_command(tmp_path):
    out = tmp_path / "gauss.json"
    assert run(["gauss", "--norm", "lp", "--p", "3", "--angle", str(math.pi / 4), "--out", str(out)]) == 0
    data = read_json(out)
    assert data["gauss"] == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-9)
    assert data["point"] == pytest.approx([2 ** (-1 / 3)] * 2, abs=1e-9)
    assert data["roundtrip_defect"] <= 1e-9


def test_project_command(tmp_path):
    out = tmp_path / "proj.json"
    code = run(["project", "--norm", "inner-product", "--Q", "1,0;0,4",
                "--w", "0,1", "--x", "2,5", "--method", "lemma", "--out", str(out)])
    assert code == 0
    data = read_json(out)
    assert data["projection"] == pytest.approx([2.0, 0.0], abs=1e-9)
    assert data["defect"] <= 1e-7


def test_set_command_format(tmp_path):
    out = tmp_path / "cloud.csv"
    assert run(["set", "--set", "four-corner", "--gen", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# normproj {__version__}"
    meta = json.loads(lines[1].lstrip("# "))
    assert meta["count"] == 16
    assert lines[2] == "x,y"
    assert len(lines) == 3 + 16


def test_dim_command(tmp_path):
    out = tmp_path / "dim"
    assert run(["dim", "--set", "cantor-product", "--ratio", "0.3333333333",
                "--gen", "8", "--out", str(out)]) == 0
    data = read_json(out.with_suffix(".json"))
    assert data["slope"] == pytest.approx(1.2619, abs=0.05)
    csv_lines = out.with_suffix(".csv").read_text().splitlines()
    assert csv_lines[0] == f"# normproj {__version__}"
    assert csv_lines[1] == "delta,count"


def test_sweep_command(tmp_path):
    out = tmp_path / "sw"
    code = run(["sweep", "--norm", "euclidean", "--set", "cantor-product",
                "--gen", "6", "--directions", "36", "--scales", "2:5", "--out", str(out)])
    assert code == 0
    data = read_json(out.with_suffix(".json"))
    assert 0.0 <= data["flagged_measure"] <= 0.2
    rows = out.with_suffix(".csv").read_text().splitlines()[2:]
    assert len(rows) == 36
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert int(first[3]) == 1  # axis direction is exceptional


def test_counterexample_build(tmp_path):
    out = tmp_path / "ce.csv"
    code = run(["counterexample", "build", "--m", "2", "--r", "0.333333333",
                "--level", "8", "--table-size", "2048", "--out", str(out)])
    assert code == 0
    side = read_json(out.with_suffix(".json"))
    assert side["F1"] == pytest.approx(0.125, abs=1e-6)
    assert side["theta1"] == pytest.approx(0.2783, abs=1e-4)
    assert side["p2_lower_bound"] > 0.0
    header = out.read_text().splitlines()
    assert header[0] == f"# normproj {__version__}"
    assert header[1] == "phi,h,dh"
    assert len(header) == 2 + 2048


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--out", str(out)]) == 0
    data = read_json(out)
    assert data["all_passed"] is True
    assert len(data["reports"]) == 12
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 12


def test_seed_before_or_after_verify(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(checks, "run_all", lambda seed: seen.append(seed) or [])
    for argv in (["--seed", "5", "verify"], ["verify", "--seed", "5"]):
        out = tmp_path / "report.json"
        assert run([*argv, "--out", str(out)]) == 0
        assert read_json(out)["seed"] == 5
    assert seen == [5, 5]


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("set=four-corner\ngen=2\n")
    out = tmp_path / "cloud.csv"
    assert run(["set", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads(out.read_text().splitlines()[1].lstrip("# "))
    assert meta["kind"] == "four-corner"
    assert meta["generation"] == 2


def test_explicit_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("set=four-corner\ngen=2\n")
    out = tmp_path / "cloud.csv"
    assert run(["set", "--config", str(cfg), "--gen", "3", "--out", str(out)]) == 0
    meta = json.loads(out.read_text().splitlines()[1].lstrip("# "))
    assert meta["generation"] == 3


def test_validation_errors_exit_2(tmp_path):
    out = tmp_path / "x.json"
    assert run(["project", "--norm", "lp", "--p", "1.0", "--w", "0,1", "--x", "1,1",
                "--out", str(out)]) == 2
    assert run(["gauss", "--norm", "lp", "--p", "3", "--out", str(out)]) == 2
    assert run(["set", "--set", "cantor-product", "--ratio", "0.7", "--gen", "2",
                "--out", str(out)]) == 2
    assert run(["no-such-command"]) == 2
    # malformed or non-contracting Cantor parameters, for both staircase entry points
    for r in ("abc", "1/2", "0.6", "1/0"):
        assert run(["counterexample", "build", "--r", r, "--out", str(out)]) == 2
        assert run(["sweep", "--norm", "counterexample", "--r", r, "--out", str(out)]) == 2
    assert run(["counterexample", "build", "--m", "3", "--r", "1/3", "--out", str(out)]) == 2
    # generations above a set's cap
    assert run(["set", "--set", "four-corner", "--gen", "11", "--out", str(out)]) == 2
    assert run(["dim", "--set", "cantor-product", "--gen", "13", "--out", str(out)]) == 2
    assert run(["sweep", "--set", "four-corner", "--gen", "11", "--out", str(out)]) == 2
    assert run(["set", "--set", "square", "--gen", "13", "--out", str(out)]) == 2
    assert run(["--threads", "2", "verify", "--out", str(out)]) == 2
    # negative generations, a direction grid too coarse for measure, odd tables
    assert run(["set", "--set", "four-corner", "--gen", "-1", "--out", str(out)]) == 2
    assert run(["dim", "--set", "triadic", "--gen", "-2", "--out", str(out)]) == 2
    assert run(["sweep", "--directions", "10", "--out", str(out)]) == 2
    assert run(["counterexample", "build", "--table-size", "4095", "--out", str(out)]) == 2
    assert run(["counterexample", "build", "--table-size", "0", "--out", str(out)]) == 2
    # one past the deepest staircase level, for both staircase entry points
    over = str(cli.MAX_LEVEL + 1)
    assert run(["counterexample", "build", "--level", over, "--out", str(out)]) == 2
    assert run(["sweep", "--norm", "counterexample", "--level", over, "--out", str(out)]) == 2
    # levels whose grid has more or shorter intervals than the default set's deepest
    for m, r, level in (("3", "1/5", "11"), ("2", "1/4", "14"), ("3", "3/10", "10")):
        assert run(["counterexample", "build", "--m", m, "--r", r, "--level", level,
                    "--out", str(out)]) == 2
        assert run(["sweep", "--norm", "counterexample", "--m", m, "--r", r, "--level", level,
                    "--out", str(out)]) == 2
    # malformed or degenerate hyperplanes, points and grids
    assert run(["project", "--w", "abc", "--x", "1,1", "--out", str(out)]) == 2
    assert run(["project", "--w", "0,0", "--x", "1,1", "--out", str(out)]) == 2
    assert run(["project", "--w", "0,1", "--x", "1,2,3", "--out", str(out)]) == 2
    assert run(["gauss", "--x", "0,0", "--out", str(out)]) == 2
    assert run(["norm-info", "--grid", "8", "--out", str(out)]) == 2
    # an indefinite and a three-dimensional Q for the planar tool
    for q in ("1,0;0,-1", "1,0,0;0,1,0;0,0,1"):
        assert run(["norm-info", "--norm", "inner-product", "--Q", q, "--out", str(out)]) == 2
        assert run(["project", "--norm", "inner-product", "--Q", q, "--w", "0,0,1",
                    "--x", "1,2,3", "--out", str(out)]) == 2


def test_inputs_foreign_to_the_output_exit_2(tmp_path):
    # each would write an artifact that does not belong to its input: a 3-D
    # "sphere point" of a planar norm, or NaN, which is not valid JSON
    out = tmp_path / "x"
    cases = (
        ["gauss", "--norm", "lp", "--p", "3", "--x", "1,2,3"],
        ["project", "--w", "0,1", "--x", "1,nan"],
        ["project", "--w", "nan", "--x", "1,1"],
        ["gauss", "--angle", "nan"],
        ["sweep", "--gen", "4", "--directions", "36", "--scales", "2:3", "--threshold", "nan"],
        ["norm-info", "--norm", "inner-product", "--Q", "1,0;0,inf"],
    )
    for argv in cases:
        assert run([*argv, "--out", str(out)]) == 2, argv
        assert not list(tmp_path.iterdir()), argv


def test_every_level_of_the_default_set_accepted(monkeypatch):
    # validation only: the build itself is stubbed out
    monkeypatch.setattr(cli.cantor, "curve_samples", lambda K, level: (K.m, K.r, level))
    for level in range(1, cli.MAX_LEVEL + 1):
        args = argparse.Namespace(m=2, r="1/3", level=level)
        assert cli._staircase_curve(args)[2] == level


def test_computation_errors_exit_1(tmp_path):
    out = tmp_path / "dim"
    # scales far below the cloud resolution trip the guard
    code = run(["dim", "--set", "triadic", "--gen", "3", "--scales", "5:9", "--out", str(out)])
    assert code == 1


def test_unwritable_output_exit_1(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "cloud.csv"
    assert run(["set", "--set", "four-corner", "--gen", "2", "--out", str(missing)]) == 1


def test_set_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["set", "--set", "cantor-product", "--gen", "4", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
