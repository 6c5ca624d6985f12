import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from normproj import __version__, checks, cli, norms, sweep
from normproj.errors import NotStrictlyConvex


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


@pytest.mark.parametrize("norm_flags, expect", [
    # the support point of Q = c I has length c^(-1/2), once read as a
    # kernel in the target plane beyond c = 1e28
    (["--norm", "inner-product", "--Q", "1e29,0;0,1e29"], [2.0, -1.0]),
    # every power w_i^(1/(p-1)) of the unit normal once underflowed to 0;
    # p = 1.001 gives the same projection
    (["--norm", "lp", "--p", "1.0001"], [3.0, -1.5]),
], ids=["inner-product-1e29", "lp-1.0001"])
def test_project_extreme_norms_both_methods(tmp_path, norm_flags, expect):
    out = tmp_path / "proj.json"
    for method in ("lemma", "direct"):
        assert run(["project", *norm_flags, "--w", "1,2", "--x", "3,1",
                    "--method", method, "--out", str(out)]) == 0, method
        assert read_json(out)["projection"] == pytest.approx(expect, rel=0.0, abs=1e-12), method


def test_project_under_tiny_and_huge_q_projects_as_at_scale_one(tmp_path):
    # an absolute 1e-12 floor on Q's smallest eigenvalue refused c I, exit 2,
    # for c <= 1e-12, although the norm projects as the euclidean one
    out = tmp_path / "proj.json"
    for scale in ("e-300", "e300", ""):
        for q, expect in (("1{0},0;0,1{0}", [2.0, -1.0]), ("1{0},0;0,4{0}", [0.5, -0.25])):
            for method in ("lemma", "direct"):
                assert run(["project", "--norm", "inner-product", "--Q", q.format(scale),
                            "--w", "1,2", "--x", "3,1", "--method", method, "--out", str(out)]) == 0
                got = read_json(out)["projection"]
                assert got == pytest.approx(expect, rel=0.0, abs=1e-12), (q.format(scale), method)


def test_norm_info_inner_product_near_float_max(tmp_path):
    # (Q + Q.T) / 2 overflowed to inf, and every sphere point became zero
    out = tmp_path / "info.json"
    assert run(["norm-info", "--norm", "inner-product", "--Q", "1e308,0;0,1e308",
                "--out", str(out)]) == 0
    data = read_json(out)
    assert data["gauss"]["monotone"] is True
    assert data["gauss"]["antipodality_defect"] == 0.0


def test_gauss_command(tmp_path):
    out = tmp_path / "gauss.json"
    assert run(["gauss", "--norm", "lp", "--p", "3", "--angle", str(math.pi / 4), "--out", str(out)]) == 0
    data = read_json(out)
    assert data["gauss"] == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-9)
    assert data["point"] == pytest.approx([2 ** (-1 / 3)] * 2, abs=1e-9)
    assert data["roundtrip_defect"] <= 1e-9


def test_gauss_roundtrip_defect_is_relative_to_the_point(tmp_path):
    # the sphere point has length 1e150; a correct round trip reads ~1e-16
    out = tmp_path / "gauss.json"
    assert run(["gauss", "--norm", "inner-product", "--Q", "1e-300,0;0,1e-300",
                "--x", "3,1", "--out", str(out)]) == 0
    data = read_json(out)
    assert math.hypot(*data["point"]) == pytest.approx(1e150, rel=1e-12)
    assert data["roundtrip_defect"] <= 1e-15


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


# SHA-256 of verify's JSON report and of its printed lines.  Rearranging
# verify's root solves must not move a bit of either; the defects of seeds
# 4 and 13 moved under earlier solver changes.
VERIFY_DIGESTS = {
    0: ("21765bf5eb885e86598f7776d662afecd5cdf4a6199e3cc73faac74825cab605",
        "054458d6897bcb53b32949d05cb503facd61acb5b8b5662485a8c87385827fcf"),
    4: ("59d3ace51d6d779674caff1d2cd3904c5db8c926fc2f35ae480d35ffc77db1b2",
        "f0d9510be4c4e9ffe982ed75c7018e7f652041932179eb9cb46a8784c696dfbb"),
    13: ("627ef3934cc8a263e2682e6d6bdf974d76a54f54a4946740f15d9aa7f6fcd62d",
         "d2d459384ca6948c8ef721397162d84e476acce6563a2a764b9a61da98144f5d"),
    20: ("c29f0f0814dca58fa4b7ac4b2491f91d7c3879a5971a494cac520922ee6a9f96",
         "5eaf6fe513f6ba5ce29af6b54ac31294994238122b41f059a8780f81bb5ce299"),
}


@pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
def test_verify_artifacts_locked(seed, tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    digests = (hashlib.sha256(out.read_bytes()).hexdigest(),
               hashlib.sha256(printed.encode()).hexdigest())
    assert digests == VERIFY_DIGESTS[seed]


def test_verify_report_with_a_raised_check_is_strict_json(tmp_path, capsys, monkeypatch):
    # a check that raised wrote "worst_defect": Infinity, which JSON has not
    def raising(seed):
        raise NotStrictlyConvex("sabotaged")

    monkeypatch.setitem(checks._CHECK_FUNCS, "gauss_fixed_points", raising)
    out = tmp_path / "verify.json"
    assert run(["verify", "--out", str(out)]) == 1

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    data = json.loads(out.read_text(), parse_constant=refuse)
    failed = [r for r in data["reports"] if not r["passed"]]
    assert [(r["name"], r["worst_defect"]) for r in failed] == [("gauss_fixed_points", None)]
    assert "gauss_fixed_points: FAIL (defect inf, tol 0)" in capsys.readouterr().out.splitlines()


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


def test_config_equals_form_before_or_after_the_subcommand(tmp_path):
    # --config=PATH before the subcommand was stored in a root flag nothing
    # read (a generation-8 cloud, exit 0), and after it was refused
    cfg = tmp_path / "run.cfg"
    cfg.write_text("set=four-corner\ngen=3\n")
    out = tmp_path / "cloud.csv"
    for argv in ([f"--config={cfg}", "set"], ["set", f"--config={cfg}"],
                 ["--seed=1", f"--config={cfg}", "set"]):
        assert run([*argv, "--out", str(out)]) == 0, argv
        meta = json.loads(out.read_text().splitlines()[1].lstrip("# "))
        assert (meta["kind"], meta["generation"]) == ("four-corner", 3), argv


def test_config_value_may_start_with_minus(tmp_path):
    # a config value was injected as a separate token, which argparse read
    # as a flag: "argument --x: expected one argument", exit 2
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("x=-1,2\nw=0,1\n")
    by_config, by_flags = tmp_path / "config.json", tmp_path / "flags.json"
    assert run(["project", "--config", str(cfg), "--out", str(by_config)]) == 0
    assert run(["project", "--x=-1,2", "--w=0,1", "--out", str(by_flags)]) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()


def test_module_and_console_script_entry_points(tmp_path, monkeypatch):
    # python -m normproj runs __main__.py; the console script calls
    # cli.entrypoint, which exits with main's code
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    by_module, by_script = tmp_path / "module.csv", tmp_path / "script.csv"
    proc = subprocess.run([sys.executable, "-m", "normproj", "set", "--set", "triadic", "--gen", "2",
                           "--out", str(by_module)], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for argv, code in ((["--gen", "2"], 0), (["--gen", "-1"], 2)):
        monkeypatch.setattr(sys, "argv", ["normproj", "set", "--set", "triadic", *argv, "--out", str(by_script)])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == code, argv
    assert by_script.read_bytes() == by_module.read_bytes()


def test_undecodable_config_exits_2(tmp_path, capsys):
    # a config file that is not UTF-8 ended in a UnicodeDecodeError traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"gen=3\n\xff\xfe\n")
    out = tmp_path / "report.json"
    for flag in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert run([*flag, "verify", "--out", str(out)]) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config") and len(err.splitlines()) == 1, err
    assert not out.exists()


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
    for m, r, level in (("3", "1/5", "9"), ("2", "1/4", "12"), ("3", "3/10", "10")):
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


def test_scales_bounded_before_allocating(tmp_path):
    # a sweep scale finer than twice the cloud resolution is a bad --scales,
    # refused before a scale per exponent is built
    out = tmp_path / "sw"
    tracemalloc.start()
    try:
        code = run(["sweep", "--scales", "2:1000000", "--gen", "5", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20, peak
    assert not list(tmp_path.iterdir())
    # so is a scale that overflows a float
    assert run(["dim", "--scales=-2000000000:5", "--out", str(out)]) == 2
    assert run(["sweep", "--scales=-700:5", "--gen", "5", "--out", str(out)]) == 2
    # dim drops the scales below that floor: a range reaching far past it
    # reads as the cloud's admissible ladder
    for name, extra in (("far", ["--scales", "1:1000000"]), ("default", [])):
        assert run(["dim", "--gen", "8", *extra, "--out", str(tmp_path / name)]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / ("far" + suffix)).read_bytes() == (tmp_path / ("default" + suffix)).read_bytes()


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


@pytest.mark.parametrize("m, r, deepest", [(2, "1/4", 11), (3, "1/5", 8)])
def test_deepest_admitted_level_builds(m, r, deepest):
    # the other two reference sets at the deepest level the caps admit build
    # a convex table (the default set's level 14 is built in test_cantor),
    # and one level deeper is refused before any computation
    model = cli.cantor.build_norm(cli._staircase_curve(argparse.Namespace(m=m, r=r, level=deepest)))
    assert model.support.convexity_slack() > 0.003
    with pytest.raises(cli.ValidationError, match="too deep"):
        cli._staircase_curve(argparse.Namespace(m=m, r=r, level=deepest + 1))


def test_table_refused_by_its_spline_or_its_start_exits_2(tmp_path, wide_segment_table):
    # a table whose spline is not convex, and an ellipse table starting below
    # angle 0: both exit 2 and leave no artifact
    wide_segment_table.to_csv(tmp_path / "wide.csv")
    rows = []
    for k in range(64):
        a = 2.0 * math.pi * k / 64 - 0.01
        h = math.hypot(math.cos(a), 0.5 * math.sin(a))
        rows.append(f"{a!r},{h!r},{-0.75 * math.cos(a) * math.sin(a) / h!r}")
    (tmp_path / "below_zero.csv").write_text("phi,h,dh\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    for name in ("wide", "below_zero"):
        assert run(["norm-info", "--norm", "support-table", "--table", str(tmp_path / f"{name}.csv"),
                    "--out", str(out / "info.json")]) == 2, name
        assert not list(out.iterdir()), name


def test_level_12_table_loads_back(tmp_path):
    # at 12 significant digits the spline read back was not convex from
    # level 11 on, so --table refused the tool's own output
    table = tmp_path / "ce.csv"
    assert run(["counterexample", "build", "--level", "12", "--out", str(table)]) == 0
    assert run(["norm-info", "--norm", "support-table", "--table", str(table), "--grid", "16",
                "--out", str(tmp_path / "info.json")]) == 0
    curve = cli._staircase_curve(argparse.Namespace(m=2, r="1/3", level=12))
    built = cli.cantor.build_norm(curve).support
    loaded = norms.SupportTable.from_csv(table)
    for name in ("phi", "h", "dh"):  # equal values: a -0.0 is written as 0.0
        assert np.array_equal(getattr(loaded, name), getattr(built, name)), name


def test_readme_names_each_closed_range():
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    ranges = set()
    for _, sub, flags in _numeric_flags(cli.build_parser()):
        for flag in flags:
            low, high = sub._option_string_actions[flag].type.bounds
            if isinstance(low, int) and isinstance(high, int):
                ranges.add(f"[{low}, {high}]")
    assert ranges == {"[1, 14]", "[16, 131072]", "[36, 65536]"}
    for text in (*ranges, "(0, 0.5)"):
        assert text in readme, text


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


def test_directions_bounded_before_allocating(tmp_path, monkeypatch):
    out = tmp_path / "sw"
    for directions in (cli.MAX_DIRECTIONS + 1, 10**15):
        tracemalloc.start()
        try:
            code = run(["sweep", "--directions", str(directions), "--gen", "5", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, directions
        assert peak < 1 << 20, (directions, peak)
    assert not list(tmp_path.iterdir())
    # the ceiling itself is accepted: the stub stands in for the sweep
    counts = []

    def stub(norm, cloud, grid, scales, threshold=None):
        counts.append(grid.count)
        raise ValueError("stub sweep")

    monkeypatch.setattr(sweep, "dim_profile", stub)
    assert run(["sweep", "--directions", str(cli.MAX_DIRECTIONS), "--gen", "5", "--out", str(out)]) == 1
    assert counts == [cli.MAX_DIRECTIONS]


def test_grid_bounded_before_allocating(tmp_path, monkeypatch):
    # --grid 10^11 exited 1 with a numpy _ArrayMemoryError traceback
    out = tmp_path / "ni.json"
    for grid in (cli.MAX_GRID + 1, 10**11):
        tracemalloc.start()
        try:
            code = run(["norm-info", "--grid", str(grid), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, grid
        assert peak < 1 << 20, (grid, peak)
    assert not out.exists()
    # the ceiling itself is accepted: the stub stands in for the check
    grids = []

    def stub(model, grid_size=1024):
        grids.append(grid_size)
        raise ValueError("stub check")

    monkeypatch.setattr(norms, "check_gauss_properties", stub)
    assert run(["norm-info", "--grid", str(cli.MAX_GRID), "--out", str(out)]) == 1
    assert grids == [cli.MAX_GRID]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="sets a child's CPU affinity")
def test_sweep_artifacts_equal_on_one_cpu(tmp_path):
    # a sweep counts its directions on one thread per CPU the process may
    # use; a child held to one CPU must write the same bytes
    cpu = min(os.sched_getaffinity(0))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    probe = ("import os, sys; from normproj import cli; "
             "print(len(os.sched_getaffinity(0))); sys.exit(cli.main(sys.argv[1:]))")
    cpus, blobs = [], []
    for name, pin in (("all", None), ("one", lambda: os.sched_setaffinity(0, {cpu}))):
        stem = tmp_path / name
        proc = subprocess.run([sys.executable, "-c", probe, "sweep", "--norm", "lp", "--p", "1.5",
                               "--set", "four-corner", "--gen", "6", "--directions", "72",
                               "--out", str(stem)],
                              env=env, capture_output=True, text=True, timeout=600, preexec_fn=pin)
        assert proc.returncode == 0, proc.stderr
        cpus.append(int(proc.stdout))
        blobs.append([stem.with_suffix(s).read_bytes() for s in (".csv", ".json")])
    assert cpus[1] == 1
    assert blobs[0] == blobs[1]


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


# Tiny --ratio values: r^gen underflowed, the cloud resolution read 0 and
# the scale ladder 1e-300, 0.0, 0.0, ...
_TINY_RATIO_CASES = (
    ["dim", "--ratio", "1e-50", "--gen", "7"],
    ["sweep", "--ratio", "1e-50", "--gen", "7"],
    ["dim", "--ratio", "1e-160", "--gen", "8"],
    ["sweep", "--ratio", "1e-160", "--gen", "8"],
    ["sweep", "--ratio", "1e-300", "--gen", "8", "--directions", "36", "--threshold", "0.5"],
)


def test_tiny_ratio_exits_2_without_artifacts(tmp_path, capsys):
    # they ended in a ZeroDivisionError or OverflowError traceback, or wrote
    # NaN slopes to the CSV and "mean_slope": NaN to the JSON
    out = tmp_path / "out"
    for argv in _TINY_RATIO_CASES:
        assert run([argv[0], "--set", "cantor-product", *argv[1:], "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "smallest normal" in err, (argv, err)
        assert not list(tmp_path.iterdir()), argv


def _numeric_flags(parser):
    # (subcommand path, subparser, numeric option strings), walking nested subcommands
    flags = [a.option_strings[-1] for a in parser._actions if hasattr(a.type, "bounds")]
    yield (), parser, flags
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                for path, inner, inner_flags in _numeric_flags(sub):
                    yield (name, *path), inner, inner_flags


# cheap values for the other flags of each subcommand, and what a flag needs
# to be read at all
_FLAG_BASE = {
    (): ["verify"],
    ("norm-info",): ["--grid", "16"],
    ("gauss",): ["--angle", "0.3"],
    ("project",): ["--w", "0.3", "--x", "1,2"],
    ("counterexample", "build"): ["--level", "4"],
    ("set",): ["--gen", "4"],
    ("dim",): ["--gen", "5"],
    ("sweep",): ["--gen", "5", "--directions", "36"],
    ("verify",): [],
}
_FLAG_CONTEXT = {
    "--p": ["--norm", "lp"],
    "--m": ["--norm", "counterexample", "--level", "4"],
    "--level": ["--norm", "counterexample"],
    "--r": ["--norm", "counterexample", "--level", "4"],
    "--Q": ["--norm", "inner-product"],
}
# the string flags that hold numbers, with the places a probe value takes
_STRING_FLAG_FORMS = {
    "--r": ("{}",),
    "--w": ("{}", "{},1"),
    "--x": ("{},1", "1,{}"),
    "--Q": ("{},0;0,1", "1,0;0,{}"),
    "--scales": ("{}:7", "2:{}"),
}


def _flag_argv(path, sub, flag, value):
    # flag=value on the subcommand at path, with cheap values for the rest
    if path == ():
        return [f"{flag}={value}", *_FLAG_BASE[path]]
    context = _FLAG_CONTEXT.get(flag, []) if "--norm" in sub._option_string_actions else []
    return [*path, *_FLAG_BASE[path], *context, f"{flag}={value}"]


def _step_out(bound, sign):
    # the nearest value beyond a bound: the next integer or the next float
    return bound + sign if isinstance(bound, int) else math.nextafter(bound, sign * math.inf)


def _traced_run(argv):
    # exit code and peak traced allocation of one run
    tracemalloc.start()
    try:
        code = run(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_every_numeric_flag_exits_cleanly(tmp_path, capsys):
    # each numeric flag of each subcommand takes 0, -1, a huge and a tiny
    # value and a non-number, and each string flag that holds numbers takes
    # nan, inf, a subnormal, -0 and nothing: exit 0 or 2, or 1 with a
    # one-line typed error.  One step beyond each finite bound exits 2.
    out = str(tmp_path / "out")
    cases = [[*argv, "--set", "cantor-product"] for argv in _TINY_RATIO_CASES]
    beyond, strings = [], []
    walked = 0
    for path, sub, flags in _numeric_flags(cli.build_parser()):
        for flag in flags:
            for value in ("0", "-1", "1" + "0" * 30, "1e-300", "abc"):
                cases.append(_flag_argv(path, sub, flag, value))
            action = sub._option_string_actions[flag]
            for bound, sign in zip(action.type.bounds, (-1, 1)):
                if math.isfinite(bound):
                    # the bound itself is only parsed: --directions 65536 is a 15 s sweep
                    argv = [*_flag_argv(path, sub, flag, repr(bound)), "--out", out]
                    assert getattr(cli.build_parser().parse_args(argv), action.dest) == bound, argv
                    step = repr(_step_out(bound, sign))
                    beyond.append([*_flag_argv(path, sub, flag, step), "--out", out])
            walked += 1
        for flag, forms in _STRING_FLAG_FORMS.items():
            if flag in sub._option_string_actions:
                strings += [_flag_argv(path, sub, flag, form.format(value))
                            for form in forms for value in ("nan", "inf", "1e-320", "-0", "")]
    assert walked == 26
    assert (len(beyond), len(strings)) == (25, 115)
    for argv in beyond:
        # refused before what it refuses is allocated
        code, peak = _traced_run(argv)
        assert code == 2 and peak < 1 << 20, (argv, code, peak)
    capsys.readouterr()
    # the string flags' refusals are not traced: under tracemalloc a run takes ~10 ms
    for argv, traced in [*((a, True) for a in cases), *((a, False) for a in strings)]:
        argv = [*argv, "--out", out]
        code = run(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
            assert err.split(":")[1].strip().isidentifier(), (argv, err)
            continue
        assert code in (0, 2), (argv, code, err)
        if code == 2 and traced:
            # a refusal comes before what it refuses is allocated
            peak = _traced_run(argv)[1]
            capsys.readouterr()
            assert peak < 1 << 20, (argv, peak)
