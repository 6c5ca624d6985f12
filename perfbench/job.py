"""Run one normproj CLI job in a fresh interpreter and report what it cost.

    python3 job.py REPORT [--trace | --setup-only] -- CLI_ARGS...

The job process imports ``normproj`` (the import counts as set-up, not as
the job), then calls ``normproj.cli.main(CLI_ARGS)`` exactly as the console
script would.  It writes one JSON object to REPORT:

* ``imported_at``: ``time.monotonic()`` once ``normproj`` is imported.  The
  clock is system-wide, so the parent subtracts its own spawn time.
* ``exit``, ``job_s``, ``cpu_s`` and ``maxrss_kb`` of the ``main`` call.
* with ``--trace``, ``layers``: per-function inclusive seconds, self seconds,
  calls and work sizes, from wrappers installed on module attributes.

Nothing in the program is edited: every call between the wrapped modules
resolves through module globals, so replacing an attribute intercepts it
and nested wrapped calls nest as spans.
"""

import importlib
import json
import math
import resource
import sys
import time

import numpy as np

# Functions timed as spans, per normproj module.
SPANS = {
    "cantor": ("curve_samples", "build_norm", "image_measure_bounds", "f_eval"),
    "norms": ("eval_norm", "gauss_map", "inverse_gauss", "norm_gradient",
              "check_gauss_properties", "find_gauss_fixed_points", "from_support_table"),
    "projections": ("project_hyperplane", "project_hyperplane_direct", "project_line_lp"),
    "fractals": ("cantor_product", "four_corner"),
    "boxdim": ("projected_counts", "projector_counts", "box_count", "fit_loglog", "estimate_dim"),
    "sweep": ("dim_profile", "gauss_pushforward_measure"),
}

# Solver entry points, imported into each module's namespace: calls only.
SOLVERS = {
    "cantor": ("brentq",),
    "norms": ("brentq", "golden_section_max"),
    "projections": ("brentq", "quadratic_polish"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work size of one call, for the functions whose cost scales with it.
POINTS = {
    "cantor.curve_samples": lambda a, k, result: len(result.t),
    "norms.eval_norm": lambda a, k, result: math.prod(np.shape(_arg(a, k, 1, "x"))[:-1]),
    "boxdim.projected_counts": lambda a, k, result: len(_arg(a, k, 1, "cloud").points),
}


class Tracer:
    """Span and call-count bookkeeping for wrapped functions.

    ``stats[name]`` maps ``s`` (inclusive seconds), ``self_s``, ``calls`` and
    ``points`` to their totals.  Self time is a span's duration minus the
    durations of the wrapped spans directly inside it.
    """

    def __init__(self):
        self.stats = {}
        self._child_time = [0.0]

    def _entry(self, name):
        return self.stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "points": 0})

    def span(self, name, fn):
        entry = self._entry(name)
        points = POINTS.get(name)

        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._child_time.pop()
                self._child_time[-1] += elapsed
                entry["s"] += elapsed
                entry["self_s"] += elapsed - children
                entry["calls"] += 1
            if points is not None:
                entry["points"] += points(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        entry = self._entry(name)

        def wrapper(*args, **kwargs):
            entry["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for table, wrap in ((SPANS, self.span), (SOLVERS, self.counter)):
            for mname, fnames in table.items():
                module = importlib.import_module(f"normproj.{mname}")
                for fname in fnames:
                    setattr(module, fname, wrap(f"{mname}.{fname}", getattr(module, fname)))
        checks = importlib.import_module("normproj.checks")
        # the suite has no public per-check entry point; run_all reads this table
        for cname, fn in list(checks._CHECK_FUNCS.items()):
            checks._CHECK_FUNCS[cname] = self.span(f"checks.{cname}", fn)
        cli = importlib.import_module("normproj.cli")
        cli.main = self.span("cli.main", cli.main)


def main(argv):
    report_path = argv[0]
    sep = argv.index("--")
    flags, cli_args = argv[1:sep], argv[sep + 1:]
    t_start = time.monotonic()
    from normproj import cli  # importing the package is the set-up being timed
    imported_at = time.monotonic()
    report = {"imported_at": imported_at, "import_s": imported_at - t_start}
    if "--setup-only" not in flags:
        tracer = Tracer() if "--trace" in flags else None
        if tracer is not None:
            tracer.install()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        code = cli.main(cli_args)
        report["job_s"] = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        report["exit"] = code
        report["cpu_s"] = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
        report["maxrss_kb"] = usage1.ru_maxrss
        if tracer is not None:
            report["layers"] = tracer.stats
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
