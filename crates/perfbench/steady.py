#!/usr/bin/env python3
"""Steadiness report: runs workloads back to back and compares each
end-to-end metric's run-to-run spread with its bound in BENCHMARK.json.

    python3 crates/perfbench/steady.py [--workload NAME ...] [--runs 10]
        [--sets 1] [--first-seed 1] [--seconds S]

Each run uses its own seed (first-seed, first-seed + 1, ...; every set
reuses the same seeds). For every workload and metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median and the bound. A spread above the bound fails; one
above a third of the bound is flagged `wide`. With --sets 2 it also
prints how far the second set's median moved from the first's, in the
metric's worse direction. Exits non-zero if a run failed, a check
failed, or a spread or median shift exceeded its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            results = [run_once(workload, args.first_seed + i, args.seconds)
                       for i in range(args.runs)]
            for seed, r in enumerate(results, args.first_seed):
                if not r["correct"] or r["failed"]:
                    print(f"{workload} seed {seed}: {r['failed']} of "
                          f"{r['attempted']} checks failed")
                    ok = False
            sets.append(results)
        print(f"\n{workload}: {args.runs} runs x {args.sets} sets, "
              f"{args.seconds} s each")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  shift")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                verdict = ""
                if name != "setup_s" and spread > bound:
                    verdict, ok = "FAIL", False
                elif spread > bound / 3:
                    verdict = "wide"
                print(f"  {name:26} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {bound:6.3f}  {verdict}")
                if verdict:
                    print("      runs: " + " ".join(f"{v:.4g}" for v in values))
            for first, later in zip(medians, medians[1:]):
                worse = (later - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                flag = "FAIL" if worse > bound else ""
                ok = ok and not flag
                print(f"  {'':26} median moved {worse:+.3f} worse {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
