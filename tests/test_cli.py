import argparse
import json
import math
import subprocess
import sys

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


def test_norm_info_huge_p_holds_no_nan(tmp_path):
    # at p = 3000 every |x_i|^p of the unit circle's points underflows to 0
    out = tmp_path / "info.json"
    assert run(["norm-info", "--norm", "lp", "--p", "3000", "--out", str(out)]) == 0
    data = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in {out.name}"))
    assert data["gauss"]["antipodality_defect"] <= 1e-12
    assert 0.0 < data["gauss"]["min_inner"] <= 1.0
    # neighbouring normals on the flat sides round to the same pair: zero
    # steps of a sweep that still turns once
    assert data["gauss"]["monotone"] is True


def test_project_huge_p_lp_both_methods(tmp_path):
    # the direct route's slope once raised |y|^(p-1) to 0 / 0 at unit scale
    out = tmp_path / "proj.json"
    for p in ("500", "1000", "3000"):
        for method in ("lemma", "direct"):
            assert run(["project", "--norm", "lp", "--p", p, "--w", "0.3", "--x", "1,2",
                        "--method", method, "--out", str(out)]) == 0, (p, method)
            assert read_json(out)["defect"] <= 1e-12, (p, method)


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


@pytest.mark.parametrize("norm", [["--norm", "euclidean"], ["--norm", "lp", "--p", "3"],
                                  ["--norm", "inner-product", "--Q", "1,0;0,4"],
                                  ["--norm", "inner-product", "--Q", "2,1;1,3"],
                                  ["--norm", "counterexample"]],
                         ids=["euclidean", "lp3", "inner-product", "inner-product-skew", "counterexample"])
def test_huge_and_tiny_vectors_write_the_unit_scale_bytes(tmp_path, norm):
    # only the ray of --x (gauss) and --w (project) matters, so s*v writes
    # the bytes of v even where the size of s*v over- or underflows, or
    # its power sum is subnormal (1e-160, 1e-162)
    out = tmp_path / "out.json"

    def artifact(cmd, flag, v):
        extra = ["--x", "1,2"] if cmd == "project" else []
        argv = [cmd, *norm, flag, ",".join(repr(c) for c in v), *extra, "--out", str(out)]
        assert run(argv) == 0
        return out.read_bytes()

    for cmd, flag in (("gauss", "--x"), ("project", "--w")):
        for v in ((1.0, 1.0), (1.0, 0.0)):
            want = artifact(cmd, flag, v)
            for s in (1e200, 1e-200, 1e-160, 1e-162):
                assert artifact(cmd, flag, [s * c for c in v]) == want, (cmd, s, v)


@pytest.mark.parametrize("norm", [["--norm", "euclidean"], ["--norm", "lp", "--p", "3"],
                                  ["--norm", "inner-product", "--Q", "1,0;0,4"],
                                  ["--norm", "counterexample"]],
                         ids=["euclidean", "lp3", "inner-product", "counterexample"])
def test_huge_and_tiny_points_project_to_the_scaled_projection(tmp_path, norm):
    # P(s x) = s P(x), also where the length or the norm of s x over- or
    # underflows
    out = tmp_path / "proj.json"

    def projection(s, method):
        argv = ["project", *norm, "--w", "1,2", "--x", f"{s!r},{s!r}",
                "--method", method, "--out", str(out)]
        assert run(argv) == 0, (s, method)
        return read_json(out)["projection"]

    for method in ("lemma", "direct"):
        want = projection(1.0, method)
        for s in (1e300, 1e-200):
            got = projection(s, method)
            assert got == pytest.approx([s * c for c in want], rel=1e-12, abs=0.0), (s, method)


def test_negative_vector_flags_take_the_equals_form(tmp_path):
    # argparse reads a value that starts with '-' and holds a comma as a flag
    out = str(tmp_path / "out.json")
    assert run(["project", "--w", "1,2", "--x=-1.5,0.25", "--out", out]) == 0
    assert run(["gauss", "--x=-1,2", "--out", out]) == 0
    assert run(["project", "--w", "1,2", "--x", "-1.5,0.25", "--out", out]) == 2


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
                "--level", "8", "--out", str(out)])
    assert code == 0
    side = read_json(out.with_suffix(".json"))
    assert side["F1"] == pytest.approx(0.125, abs=1e-6)
    assert side["theta1"] == pytest.approx(0.2783, abs=1e-4)
    assert side["p2_lower_bound"] > 0.0
    header = out.read_text().splitlines()
    assert header[0] == f"# normproj {__version__}"
    assert header[1] == "phi,h,dh"
    # one row per grid point and interior glue node, and the antipodes
    assert side["table_size"] == 2 * ((2 * 2**8 + 2**8 - 1) + 4094)
    assert len(header) == 2 + side["table_size"]


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
    assert run(["dim", "--set", "triadic", "--gen", "25", "--out", str(out)]) == 2
    assert run(["--threads", "2", "verify", "--out", str(out)]) == 2
    # negative generations and a direction grid too coarse for measure
    assert run(["set", "--set", "four-corner", "--gen", "-1", "--out", str(out)]) == 2
    assert run(["dim", "--set", "triadic", "--gen", "-2", "--out", str(out)]) == 2
    assert run(["sweep", "--directions", "10", "--out", str(out)]) == 2
    # a set on the line has no shadows to sweep; numpy refuses a negative seed
    assert run(["sweep", "--set", "triadic", "--gen", "6", "--out", str(out)]) == 2
    assert run(["verify", "--seed", "-5", "--out", str(out)]) == 2
    assert run(["--seed", "-1", "verify", "--out", str(out)]) == 2
    # --scales ranges holding fewer than four scales, or none
    for scales in ("2:3", "5:2"):
        assert run(["sweep", "--gen", "4", "--directions", "36", "--scales", scales,
                    "--out", str(out)]) == 2
        assert run(["dim", "--gen", "4", "--scales", scales, "--out", str(out)]) == 2
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
    # malformed --table files: not antipodally symmetric, rows of two fields,
    # missing, and holding nan; none may leave an artifact
    tables = tmp_path / "tables"
    tables.mkdir()
    phi = [2.0 * math.pi * k / 64 for k in range(64)]
    bodies = {
        "asymmetric": [f"{a!r},{1.0 + 0.01 * math.cos(a)!r},{-0.01 * math.sin(a)!r}" for a in phi],
        "two_fields": [f"{a!r},1.0" for a in phi],
        "nan": [f"{a!r},{'nan' if k == 7 else '1.0'},0.0" for k, a in enumerate(phi)],
    }
    for name, rows in bodies.items():
        (tables / f"{name}.csv").write_text("phi,h,dh\n" + "\n".join(rows) + "\n")
    table_out = tmp_path / "table_out"
    table_out.mkdir()
    for name in (*bodies, "missing"):
        assert run(["norm-info", "--norm", "support-table", "--table", str(tables / f"{name}.csv"),
                    "--out", str(table_out / "info.json")]) == 2, name
        assert not list(table_out.iterdir()), name


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


def test_artifacts_identical_under_python_O(tmp_path):
    # -O strips assert statements; every invariant the tool enforces must
    # hold without them, so the artifacts do not change
    commands = (
        (["verify", "--seed", "0", "--out", "@verify.json"], ["verify.json"]),
        (["counterexample", "build", "--level", "8", "--out", "@ce.csv"],
         ["ce.csv", "ce.json"]),
    )
    for args, outputs in commands:
        blobs = []
        for flags in ([], ["-O"]):
            run_dir = tmp_path / ("optimized" if flags else "plain")
            run_dir.mkdir(exist_ok=True)
            argv = [sys.executable, *flags, "-m", "normproj"] + [
                a.replace("@", str(run_dir) + "/") for a in args
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            blobs.append([(run_dir / out).read_bytes() for out in outputs])
        assert blobs[0] == blobs[1], args
