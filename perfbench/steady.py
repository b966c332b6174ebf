#!/usr/bin/env python3
"""Steadiness command: run each workload several times, print per metric
the median, the quartiles and the spread (quartile distance over median).

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --same-seed --seed-base 2
    python3 perfbench/steady.py --runs 5 --workloads serve-demt --seed-base 100

By default each run gets its own seed (seed-base, seed-base + 1, ...),
so the spreads hold seed-to-seed differences of the inputs as well as
run-to-run noise; with --same-seed every run uses seed-base, and the
spreads are run-to-run noise alone. The command, the run length, the
workloads and the bounds come from BENCHMARK.json at the repository
root, and the runs start there.
A metric is marked `ok` when its spread is below a third of its bound
(`setup_s` is reported but exempt, its bound covers slow set-up drift).
Exits 1 if a run fails, reports `correct: false`, or is not steady.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--same-seed", action="store_true",
                    help="every run uses seed-base")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    steady = True
    for workload in workloads:
        values, failed, attempted = {}, [], []
        for i in range(args.runs):
            seed = args.seed_base + (0 if args.same_seed else i)
            result = run_once(bench["command"], workload, seed, seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false")
                steady = False
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
            failed.append(result["failed"])
            attempted.append(result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        shares = sorted({f / a for f, a in zip(failed, attempted)})
        seeds = (f"seed {args.seed_base}" if args.same_seed else
                 f"seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
        print(f"\n## {workload}: {args.runs} runs, {seeds}, {seconds} s each, "
              f"failed share {shares}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady &= ok
                verdict = "ok" if ok else "WIDE"
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
        if len(shares) > 1:
            steady = False
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
