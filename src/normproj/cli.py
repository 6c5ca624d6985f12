"""Command-line interface with reproducible, file-based inputs and outputs.

Every artifact starts with the version header ``# normproj <semver>`` (CSV)
or carries it as a ``version`` field (JSON, where a comment line would break
parsers).  All floating output is printed with 12 significant digits, except
a support table's CSV rows, which carry round-trip digits so that
``--table`` reads back the table built; a fixed configuration and seed
reproduce byte-identical files.

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

# Deepest staircase grid: level 14 writes a 106,490-row table in ~0.5 s at
# 56 MB peak RSS.  At level 15 the rounded node values of the default
# ratio-1/3 set no longer keep the table's spline convex (its h + h'' dips
# to -0.75), so the build fails its convexity check.
MAX_LEVEL = 14
# Every set is held to what the default set handles at MAX_LEVEL: the grid
# grows with the interval count m^level, and convexity is lost with the
# interval length r^level.
MAX_INTERVALS = 2**MAX_LEVEL
MIN_INTERVAL_LENGTH = Fraction(1, 3) ** MAX_LEVEL
# Finest sweep grid: on the default generation-8 cloud a direction holds
# its functional and six counts (64 bytes) until the fit, so 2^16
# directions take ~15-17 s at ~60 MB peak RSS on a shared 2-CPU machine.
MAX_DIRECTIONS = 2**16
# Finest norm-info grid: check_gauss_properties holds ~330 bytes a point
# under the staircase norm, whose 2^17-point check takes 0.4-0.6 s at 76 MB
# peak RSS at level 10 and 0.6-0.7 s at 91 MB at level 14, on a shared
# 2-CPU machine.
MAX_GRID = 2**17


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
    text = json.dumps(_g(payload), sort_keys=True, indent=1, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


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


def _number(convert, low=-math.inf, high=math.inf):
    """argparse type of a numeric flag: a finite ``convert(text)`` in [low, high],
    else exit 2 before any handler runs.  ``bounds`` holds (low, high)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        # NaN fails both comparisons; math.isinf would overflow on a huge int
        if not low <= value <= high or abs(value) == math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a finite {convert.__name__} in [{low}, {high}], got {text!r}")
        return value

    parse.bounds = (low, high)
    return parse


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
    if kind == "cantor-product":
        return fractals.cantor_product(args.ratio, args.gen)
    if kind == "four-corner":
        return fractals.four_corner(args.gen)
    if kind == "square":
        return fractals.square_cloud(args.gen)
    if kind == "triadic":
        return fractals.triadic_cloud(args.gen)
    raise ValidationError(f"unknown set kind {kind!r}")


def _scales_from(args, refuse_fine=False):
    """The cloud of ``args`` and its box sizes.

    ``--scales LO:HI`` gives the cloud's ``boxdim.admissible_scales`` for
    k = LO..HI; a range of fewer than ``boxdim.MIN_SCALES`` scales is
    refused before the cloud is built.  That ladder stops above twice the
    cloud's resolution: a range cut there is refused where ``refuse_fine``,
    and used otherwise, as ``boxdim.estimate_dim`` would drop those scales.
    Without ``--scales`` the cloud's default ladder is used.
    """
    lo, hi = 1, boxdim.MAX_SCALES
    if args.scales:
        try:
            lo, hi = (int(v) for v in args.scales.split(":"))
        except ValueError as exc:
            raise ValidationError("--scales expects LO:HI exponents") from exc
        if hi - lo + 1 < boxdim.MIN_SCALES:
            raise ValidationError(f"--scales must hold at least {boxdim.MIN_SCALES} scales")
    cloud = _build_cloud(args)
    try:
        scales = boxdim.admissible_scales(cloud, lo, hi)
    except OverflowError as exc:
        raise ValidationError(f"--scales: {cloud.base}^{-lo} overflows") from exc
    if refuse_fine and args.scales and len(scales) < hi - lo + 1:
        raise ValidationError(
            f"--scales: {cloud.base}^-{hi} is below twice the cloud resolution "
            f"{cloud.resolution:g}")
    return cloud, scales


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_norm_info(args):
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
        # relative to the point's length, which spans the float range
        "roundtrip_defect": float(np.linalg.norm((back - point) / math.hypot(*point))),
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
    model.support.to_csv(out)
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
    if args.set == "triadic":
        raise ValidationError("sweep needs a planar --set; triadic is a set on the line")
    model = _build_norm(args)
    cloud, scales = _scales_from(args, refuse_fine=True)
    grid = sweep.DirectionGrid(args.directions)
    profile = sweep.dim_profile(model, cloud, grid, scales,
                                threshold=args.threshold)
    out = Path(args.out)
    rows = [
        (float(a), float(slope), float(r2), int(flag))
        for a, slope, r2, flag in zip(grid.angles, profile.slopes, profile.r2, profile.flagged)
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
    rows = [dataclasses.asdict(r) for r in reports]
    for row in rows:   # a check that raised reads an infinite defect; JSON writes it as null
        if not math.isfinite(row["worst_defect"]):
            row["worst_defect"] = None
    payload = {"seed": args.seed, "all_passed": all(r.passed for r in reports), "reports": rows}
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
    parser.add_argument("--p", type=_number(float), default=None, help="exponent for --norm lp")
    parser.add_argument("--Q", default=None, help="matrix rows 'a,b;c,d' for --norm inner-product")
    parser.add_argument("--table", default=None, help="support table CSV for --norm support-table")
    parser.add_argument("--m", type=_number(int), default=2, help="branch count for --norm counterexample")
    parser.add_argument("--r", default="1/3", help="ratio (fraction or decimal) for --norm counterexample")
    parser.add_argument("--level", type=_number(int, 1, MAX_LEVEL), default=10,
                        help="grid level for --norm counterexample")


def _add_set_flags(parser):
    parser.add_argument("--set", default="cantor-product",
                        choices=["cantor-product", "four-corner", "square", "triadic"])
    parser.add_argument("--ratio", default=1.0 / 3.0,  # in the open interval (0, 0.5)
                        type=_number(float, math.nextafter(0.0, 1.0), math.nextafter(0.5, 0.0)))
    parser.add_argument("--gen", type=_number(int, 0), default=8)


def build_parser():
    parser = argparse.ArgumentParser(prog="normproj",
                                     description="Projections, Gauss maps and box dimensions in normed planes")
    parser.add_argument("--config", default=None, help="key=value defaults file; flags override")
    parser.add_argument("--seed", type=_number(int, 0), default=0, help="sampling seed of verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm-info", help="norm parameters plus Gauss-map diagnostics")
    _add_norm_flags(p)
    p.add_argument("--grid", type=_number(int, norms.MIN_GAUSS_GRID, MAX_GRID), default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_norm_info)

    p = sub.add_parser("gauss", help="evaluate the Gauss map at a sphere point")
    _add_norm_flags(p)
    p.add_argument("--angle", type=_number(float), default=None, help="polar angle of the sphere point")
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
    b.add_argument("--m", type=_number(int), default=2)
    b.add_argument("--r", default="1/3")
    b.add_argument("--level", type=_number(int, 1, MAX_LEVEL), default=12)
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
    p.add_argument("--directions", type=_number(int, sweep.MIN_DIRECTIONS, MAX_DIRECTIONS), default=180)
    p.add_argument("--scales", default=None)
    p.add_argument("--threshold", type=_number(float), default=None)
    p.add_argument("--out", required=True, help="output path stem (.csv and .json)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-cutting check suite")
    # the root --seed, also accepted after the subcommand; no default here,
    # so a seed given before the subcommand is not overwritten
    p.add_argument("--seed", type=_number(int, 0), default=argparse.SUPPRESS)
    p.add_argument("--out", default="verify_report.json")
    p.set_defaults(func=_cmd_verify)

    return parser


_ROOT_VALUE_FLAGS = {"--config", "--seed"}


def _apply_config(argv):
    """Expand --config key=value defaults into flags the subcommand sees.

    Injected flags go immediately after the (sub)command token, so explicit
    flags given on the command line come later and win.  ``--config PATH``
    and ``--config=PATH`` may go before the subcommand or after it.
    """
    idx = next((i for i, a in enumerate(argv) if a.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    _, sep, path = argv[idx].partition("=")
    end = idx + 1
    if not sep:
        if end >= len(argv):
            return argv
        path, end = argv[end], end + 1
    injected = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        injected.append(f"--{key.strip()}={value.strip()}")   # one token: a value may start with -
    rest = argv[:idx] + argv[end:]
    i = 0
    while i < len(rest) and rest[i].partition("=")[0] in _ROOT_VALUE_FLAGS:
        i += 1 if "=" in rest[i] else 2
    insert_at = min(i + 1, len(rest))
    if i < len(rest) and rest[i] == "counterexample":
        insert_at = min(i + 2, len(rest))
    return rest[:insert_at] + injected + rest[insert_at:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except (OSError, UnicodeDecodeError) as exc:
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
