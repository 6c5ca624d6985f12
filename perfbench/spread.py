"""Run the benchmark once per seed and summarise each metric across runs.

    python3 perfbench/spread.py --workload verify --seeds 1-10 [--trace 1] [--out FILE]
    python3 perfbench/spread.py --workload sweep --seeds 1,1 --trace 1   # .calls must repeat

For every metric it prints the median of the runs and the spread: the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median.  ``--out`` keeps every run's detail
and result line together with the summary, as in ``baseline/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    """Seeds from a list such as "1-10" or "1,1" (a seed may repeat)."""
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        runs.append({"seed": seed, "detail": detail["detail"], "result": result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = summarise([r["result"] for r in runs])
    for name, s in summary.items():
        print(f"{name:48s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "trace": args.trace, "summary": summary, "runs": runs},
                                       indent=1) + "\n")


if __name__ == "__main__":
    main()
