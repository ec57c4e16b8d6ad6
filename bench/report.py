"""Run the workloads over several seeds and print every metric.

    python3 bench/report.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 bench/report.py --seeds 1 --trace 1
    python3 bench/report.py --seeds 1 2 3 --workloads cli-oneshot

The workloads default to those in BENCHMARK.json and the run length to
its ``run_seconds``.  For each workload it prints the ops attempted and failed, and for each
metric its unit, median, quartiles and spread (quartile distance over
the median) next to the bound in BENCHMARK.json.  Runs go one at a
time.  This regenerates the reference figures in README.md; every other
expected value the benchmark uses is computed by the oracles at run
time, so there is no stored output to regenerate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]  # the default set
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=names)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {}
    for w in args.workloads:
        runs[w] = []
        for seed in args.seeds:
            start = time.monotonic()
            res = _run(w, seed, args.seconds, args.trace)
            runs[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} ({time.monotonic() - start:.1f} s)", flush=True)

    print()
    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for w, results in runs.items():
        for name, first in results[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name, "")
            print(f"| {w} | {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {bound} |")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"| {w} | failed share | | {sorted(shares)} | | | | |")
    out = ROOT / ".bench_out" / f"report-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
