"""Steadiness mode: run one workload on consecutive seeds and summarise.

    python3 benchmarks/steady.py --workload layered --runs 10 --first-seed 1 --sets 2

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median of the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
next to the metric's bound in ``BENCHMARK.json``.  With ``--sets 2`` a
second set runs on the following seeds, and the script also prints how
far the second median moved from the first in the metric's worse
direction.  Every run lasts ``run_seconds`` from ``BENCHMARK.json``.
Exits 1 if a run fails, a spread exceeds its bound, or a median moves
by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} exit {proc.returncode}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(runs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        values = [r[metric["name"]] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = (median, q1, q3, (q3 - q1) / median)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    spec = bench["end_to_end"]
    ok = True
    summaries = []
    for s in range(args.sets):
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + s * args.runs + k
            runs.append(one_run(args.workload, seed, seconds))
            print(f"set {s + 1} seed {seed}: " + "  ".join(f"{n}={v:.6g}" for n, v in runs[-1].items()), flush=True)
        summary = summarise(runs, spec)
        summaries.append(summary)
        print(f"set {s + 1}: {args.workload}, {args.runs} runs of {seconds:g} s")
        for metric in spec:
            median, q1, q3, spread = summary[metric["name"]]
            flag = ""
            if spread > metric["bound"]:
                flag, ok = "  SPREAD OVER BOUND", False
            print(f"  {metric['name']:<12} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.3f}  bound {metric['bound']:.3f}  (bound/3 {metric['bound'] / 3:.3f}){flag}")
    if args.sets == 2:
        print("second set against first (positive = worse)")
        for metric in spec:
            first, second = summaries[0][metric["name"]][0], summaries[1][metric["name"]][0]
            worse = (second - first) / first * (1 if metric["better"] == "lower" else -1)
            flag = ""
            if worse > metric["bound"]:
                flag, ok = "  SHIFT OVER BOUND", False
            print(f"  {metric['name']:<12} {worse:+.4f}  bound {metric['bound']:.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
