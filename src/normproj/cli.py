"""Command-line interface with reproducible, file-based inputs and outputs.

Every artifact starts with the version header ``# normproj <semver>`` (CSV)
or carries it as a ``version`` field (JSON, where a comment line would break
parsers).  All floating output is printed with 12 significant digits, so a
fixed configuration and seed reproduce byte-identical files.

Exit codes: 0 success, 2 parameter/validation error, 1 computation error.
"""

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import VERSION_HEADER, __version__, boxdim, cantor, checks, fractals, norms, projections, sweep
from .errors import NormProjError, NotStrictlyConvex, TooLarge

_FLOAT_FMT = "{:.12g}"

# Deepest staircase grid: level 15 writes a 204,794-row table in ~1 s at
# 84 MB peak; at level 16 the float divided differences of F no longer
# resolve its convexity for the default ratio-1/3 set, so the build fails
# its curve invariants.
MAX_LEVEL = 15
# Every set is held to what the default set handles at MAX_LEVEL: the grid
# grows with the interval count m^level, and convexity is lost with the
# interval length r^level.
MAX_INTERVALS = 2**MAX_LEVEL
MIN_INTERVAL_LENGTH = Fraction(1, 3) ** MAX_LEVEL


def _g(value):
    """Floats rounded to 12 significant digits for stable artifacts."""
    if isinstance(value, float):
        return float(_FLOAT_FMT.format(value + 0.0))
    if isinstance(value, dict):
        return {k: _g(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_g(v) for v in value]
    return value


def _write_json(path, payload):
    payload = {"version": f"normproj {__version__}", **payload}
    Path(path).write_text(json.dumps(_g(payload), sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_csv(path, header, rows, meta=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(VERSION_HEADER + "\n")
        if meta is not None:
            fh.write("# " + json.dumps(_g(meta), sort_keys=True) + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    _FLOAT_FMT.format(v + 0.0) if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )


class ValidationError(Exception):
    """Bad parameter values: reported on stderr, exit code 2."""


def _finite_float(text):
    """argparse type of the float flags: NaN or infinity would reach the artifacts."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text):
    """argparse type of the --seed flags: numpy refuses a negative seed."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_vector(text, flag, dim, nonzero=False):
    """The ``dim`` finite comma-separated coordinates given to ``flag``."""
    try:
        v = np.array([float(c) for c in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"cannot parse {flag} {text!r}") from exc
    if len(v) != dim or not np.all(np.isfinite(v)):
        raise ValidationError(f"{flag} must hold {dim} finite number(s), got {text!r}")
    if nonzero and not np.any(v):
        raise ValidationError(f"{flag} must be nonzero")
    return v


def _parse_matrix(text):
    """Matrix given as semicolon-separated rows of comma-separated entries."""
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
        matrix = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"cannot parse matrix {text!r}") from exc
    if not np.all(np.isfinite(matrix)):
        raise ValidationError(f"matrix entries must be finite, got {text!r}")
    return matrix


def _build_norm(args):
    kind = args.norm
    if kind == "euclidean":
        return norms.euclidean()
    if kind == "lp":
        if args.p is None:
            raise ValidationError("lp norm needs --p")
        try:
            return norms.lp(args.p)
        except NotStrictlyConvex as exc:
            raise ValidationError(f"bad --p: {exc}") from exc
    if kind == "inner-product":
        if args.Q is None:
            raise ValidationError("inner-product norm needs --Q")
        Q = _parse_matrix(args.Q)
        if Q.shape != (2, 2):
            raise ValidationError(f"--Q must be a 2x2 matrix, got shape {Q.shape}")
        try:
            return norms.inner_product(Q)
        except NotStrictlyConvex as exc:
            raise ValidationError(f"bad --Q: {exc}") from exc
    if kind == "support-table":
        if args.table is None:
            raise ValidationError("support-table norm needs --table")
        try:
            return norms.from_support_table(norms.SupportTable.from_csv(args.table))
        except (OSError, ValueError, NotStrictlyConvex) as exc:
            raise ValidationError(f"bad --table {args.table}: {exc}") from exc
    if kind == "counterexample":
        return cantor.build_norm(_staircase_curve(args))
    raise ValidationError(f"unknown norm kind {kind!r}")


def _staircase_curve(args):
    """Staircase curve of the ``--m``/``--r`` Cantor set at ``--level``."""
    if not 1 <= args.level <= MAX_LEVEL:
        raise ValidationError(f"--level must lie in [1, {MAX_LEVEL}]")
    try:
        K = cantor.CantorSet(m=args.m, r=Fraction(args.r))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad Cantor set --m {args.m} --r {args.r}: {exc}") from exc
    if K.m**args.level > MAX_INTERVALS:
        raise ValidationError(
            f"--level {args.level} too deep for --m {K.m}: more than {MAX_INTERVALS} intervals")
    if K.r**args.level < MIN_INTERVAL_LENGTH:
        raise ValidationError(
            f"--level {args.level} too deep for --r {args.r}: intervals shorter than 3^-{MAX_LEVEL}")
    return cantor.curve_samples(K, args.level)


def _build_cloud(args):
    kind = args.set
    if args.gen < 0:
        raise ValidationError("--gen must be non-negative")
    if kind == "cantor-product":
        if not 0.0 < args.ratio < 0.5:
            raise ValidationError("--ratio must lie in (0, 0.5)")
        return fractals.cantor_product(args.ratio, args.gen)
    if kind == "four-corner":
        return fractals.four_corner(args.gen)
    if kind == "square":
        return fractals.square_cloud(args.gen)
    if kind == "triadic":
        return fractals.triadic_cloud(args.gen)
    raise ValidationError(f"unknown set kind {kind!r}")


def _scales_from(args):
    """The cloud of ``args`` and its box sizes.

    ``--scales LO:HI`` gives base^-k for k = LO..HI; a range of fewer than
    ``boxdim.MIN_SCALES`` scales is refused before the cloud is built.
    Without it the cloud's admissible scales are used.
    """
    exponents = None
    if args.scales:
        try:
            lo, hi = (int(v) for v in args.scales.split(":"))
        except ValueError as exc:
            raise ValidationError("--scales expects LO:HI exponents") from exc
        if hi - lo + 1 < boxdim.MIN_SCALES:
            raise ValidationError(f"--scales must hold at least {boxdim.MIN_SCALES} scales")
        exponents = range(lo, hi + 1)
    cloud = _build_cloud(args)
    if exponents is None:
        return cloud, boxdim.admissible_scales(cloud)
    return cloud, [float(cloud.base) ** (-k) for k in exponents]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_norm_info(args):
    if args.grid < norms.MIN_GAUSS_GRID:
        raise ValidationError(f"--grid must be at least {norms.MIN_GAUSS_GRID}")
    model = _build_norm(args)
    report = norms.check_gauss_properties(model, args.grid)
    payload = {
        "kind": model.kind,
        "ambient_dim": 2,
        "p": model.p,
        "gauss": dataclasses.asdict(report),
    }
    _write_json(args.out, payload)
    return 0


def _cmd_gauss(args):
    model = _build_norm(args)
    if args.x is None and args.angle is None:
        raise ValidationError("gauss needs --angle or --x")
    if args.x is not None:
        point = norms.sphere_point(model, _parse_vector(args.x, "--x", 2, nonzero=True))
    else:
        point = norms.sphere_point(model, norms.unit_vector(args.angle))
    normal = norms.gauss_map(model, point)
    back = norms.inverse_gauss(model, normal)
    payload = {
        "point": list(point),
        "gauss": list(normal),
        "inner": float(np.dot(point, normal)),
        "roundtrip_defect": float(np.linalg.norm(back - point)),
    }
    _write_json(args.out, payload)
    return 0


def _cmd_project(args):
    model = _build_norm(args)
    if "," in args.w:
        w = norms.HyperplaneNormal(_parse_vector(args.w, "--w", 2, nonzero=True))
    else:
        w = norms.HyperplaneNormal.from_angle(_parse_vector(args.w, "--w", 1)[0])
    x = _parse_vector(args.x, "--x", 2)
    lemma = projections.project_hyperplane(model, w, x)
    direct = projections.project_hyperplane_direct(model, w, x)
    chosen = lemma if args.method == "lemma" else direct
    kernel = norms.inverse_gauss(model, w.w)
    payload = {
        "projection": list(chosen),
        "kernel_dir": list(kernel / np.linalg.norm(kernel)),
        "defect": float(np.max(np.abs(lemma - direct))),
        "method": args.method,
    }
    _write_json(args.out, payload)
    return 0


def _cmd_counterexample_build(args):
    curve = _staircase_curve(args)
    K = curve.K
    model = cantor.build_norm(curve)
    out = Path(args.out)
    model.support.to_csv(out, version_line=VERSION_HEADER)
    lower, upper = cantor.image_measure_bounds(curve, args.level)
    sidecar = {
        "m": K.m,
        "r": float(K.r),
        "s": K.dimension,
        "level": args.level,
        "F1": curve.F1,
        "theta1": curve.theta1,
        "p2_lower_bound": lower,
        "p2_upper_bound": upper,
        "table_size": len(model.support.phi),
        "convexity_slack": model.support.convexity_slack(),
    }
    _write_json(out.with_suffix(".json"), sidecar)
    return 0


def _cmd_set(args):
    cloud = _build_cloud(args)
    meta = {
        "kind": args.set,
        "generation": cloud.generation,
        "resolution": cloud.resolution,
        "count": len(cloud.points),
        "base": cloud.base,
        "label": cloud.label,
    }
    rows = [tuple(float(v) for v in p) for p in cloud.points]
    header = "x" if cloud.dim == 1 else "x,y"
    _write_csv(args.out, header, rows, meta=meta)
    return 0


def _cmd_dim(args):
    cloud, scales = _scales_from(args)
    est = boxdim.estimate_dim(cloud, scales)
    out = Path(args.out)
    _write_csv(out.with_suffix(".csv"), "delta,count",
               [(float(s), int(c)) for s, c in zip(est.scales, est.counts)])
    _write_json(out.with_suffix(".json"), {
        "label": cloud.label,
        "scales": list(est.scales),
        "counts": [int(c) for c in est.counts],
        "slope": est.slope,
        "r2": est.r2,
        "caveat": est.caveat,
    })
    return 0


def _cmd_sweep(args):
    if args.directions < sweep.MIN_DIRECTIONS:
        raise ValidationError(f"--directions must be at least {sweep.MIN_DIRECTIONS}")
    if args.set == "triadic":
        raise ValidationError("sweep needs a planar --set; triadic is a set on the line")
    model = _build_norm(args)
    cloud, scales = _scales_from(args)
    grid = sweep.DirectionGrid(args.directions)
    profile = sweep.dim_profile(model, cloud, grid, scales,
                                threshold=args.threshold)
    out = Path(args.out)
    rows = [
        (float(a), float(e.slope), float(e.r2), int(flag))
        for a, e, flag in zip(grid.angles, profile.estimates, profile.flagged)
    ]
    _write_csv(out.with_suffix(".csv"), "angle,slope,r2,flagged", rows)
    _write_json(out.with_suffix(".json"), {
        "mean_slope": float(np.mean(profile.slopes)),
        "flagged_measure": profile.flagged_measure,
        "thresholds": {"exceptional": profile.threshold},
        "directions": grid.count,
        "caveat": boxdim.DIMENSION_CAVEAT,
    })
    return 0


def _cmd_verify(args):
    reports = checks.run_all(seed=args.seed)
    payload = {
        "seed": args.seed,
        "all_passed": all(r.passed for r in reports),
        "reports": [dataclasses.asdict(r) for r in reports],
    }
    _write_json(args.out, payload)
    for r in reports:
        print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} "
              f"(defect {_FLOAT_FMT.format(r.worst_defect)}, tol {_FLOAT_FMT.format(r.tolerance)})")
    return 0 if payload["all_passed"] else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_norm_flags(parser):
    parser.add_argument("--norm", default="euclidean",
                        choices=["euclidean", "lp", "inner-product", "support-table", "counterexample"])
    parser.add_argument("--p", type=_finite_float, default=None, help="exponent for --norm lp")
    parser.add_argument("--Q", default=None, help="matrix rows 'a,b;c,d' for --norm inner-product")
    parser.add_argument("--table", default=None, help="support table CSV for --norm support-table")
    parser.add_argument("--m", type=int, default=2, help="branch count for --norm counterexample")
    parser.add_argument("--r", default="1/3", help="ratio (fraction or decimal) for --norm counterexample")
    parser.add_argument("--level", type=int, default=10, help="grid level for --norm counterexample")


def _add_set_flags(parser):
    parser.add_argument("--set", default="cantor-product",
                        choices=["cantor-product", "four-corner", "square", "triadic"])
    parser.add_argument("--ratio", type=_finite_float, default=1.0 / 3.0)
    parser.add_argument("--gen", type=int, default=8)


def build_parser():
    parser = argparse.ArgumentParser(prog="normproj",
                                     description="Projections, Gauss maps and box dimensions in normed planes")
    parser.add_argument("--config", default=None, help="key=value defaults file; flags override")
    parser.add_argument("--seed", type=_seed, default=0, help="sampling seed of verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm-info", help="norm parameters plus Gauss-map diagnostics")
    _add_norm_flags(p)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_norm_info)

    p = sub.add_parser("gauss", help="evaluate the Gauss map at a sphere point")
    _add_norm_flags(p)
    p.add_argument("--angle", type=_finite_float, default=None, help="polar angle of the sphere point")
    p.add_argument("--x", default=None,
                   help="point coordinates 'a,b' (rescaled to the sphere); "
                        "write --x=-1,2 if the first one is negative")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gauss)

    p = sub.add_parser("project", help="closest-point projection onto a hyperplane")
    _add_norm_flags(p)
    p.add_argument("--w", required=True,
                   help="hyperplane normal: angle or 'a,b'; write --w=-1,2 if the first one is negative")
    p.add_argument("--x", required=True,
                   help="point to project, 'a,b'; write --x=-1,2 if the first one is negative")
    p.add_argument("--method", default="lemma", choices=["lemma", "direct"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("counterexample", help="staircase-norm construction")
    ce_sub = p.add_subparsers(dest="ce_command", required=True)
    b = ce_sub.add_parser("build", help="build the support table and sidecar")
    b.add_argument("--m", type=int, default=2)
    b.add_argument("--r", default="1/3")
    b.add_argument("--level", type=int, default=12)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_counterexample_build)

    p = sub.add_parser("set", help="emit a self-similar point cloud as CSV")
    _add_set_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_set)

    p = sub.add_parser("dim", help="box-counting dimension of a cloud")
    _add_set_flags(p)
    p.add_argument("--scales", default=None, help="exponent range LO:HI of base^-k scales")
    p.add_argument("--out", required=True, help="output path stem (.csv and .json)")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("sweep", help="projected-dimension profile over directions")
    _add_norm_flags(p)
    _add_set_flags(p)
    p.add_argument("--directions", type=int, default=180)
    p.add_argument("--scales", default=None)
    p.add_argument("--threshold", type=_finite_float, default=None)
    p.add_argument("--out", required=True, help="output path stem (.csv and .json)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-cutting check suite")
    # the root --seed, also accepted after the subcommand; no default here,
    # so a seed given before the subcommand is not overwritten
    p.add_argument("--seed", type=_seed, default=argparse.SUPPRESS)
    p.add_argument("--out", default="verify_report.json")
    p.set_defaults(func=_cmd_verify)

    return parser


_ROOT_VALUE_FLAGS = {"--config", "--seed"}


def _apply_config(argv):
    """Expand --config key=value defaults into flags the subcommand sees.

    Injected flags go immediately after the (sub)command token, so explicit
    flags given on the command line come later and win.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path = argv[idx + 1]
    injected = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        injected.extend([f"--{key.strip()}", value.strip()])
    rest = argv[:idx] + argv[idx + 2 :]
    i = 0
    while i < len(rest) and rest[i] in _ROOT_VALUE_FLAGS:
        i += 2
    insert_at = min(i + 1, len(rest))
    if i < len(rest) and rest[i] == "counterexample":
        insert_at = min(i + 2, len(rest))
    return rest[:insert_at] + injected + rest[insert_at:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, TooLarge) as exc:  # TooLarge: --gen above a set's cap
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NormProjError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
