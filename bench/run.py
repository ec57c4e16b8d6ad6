"""Benchmark entry point.

    python3 bench/run.py --workload dist-batch --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source tree that has ``src/heintze``.  It
makes the workload's inputs from the seed, measures them in a fresh
worker process (see worker.py), checks every output against the oracles
in oracles.py, writes a run record under ``.bench_out/``, and prints as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics from spans, and
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import CHECKS
from spans import OVERHEAD_METRICS, layer_metrics
from workloads import GENERATORS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0
BLAS_THREADS = "1"

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}


def _worker(workdir, workload, seconds, mode, env, deadline):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workdir", str(workdir), "--workload", workload,
           "--seconds", str(seconds), "--mode", mode]
    remaining = deadline - time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(remaining, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")


def _write_inputs(workdir, workload, seed):
    meta, arrays = GENERATORS[workload](seed)
    np.savez(workdir / f"inputs-{workload}.npz", meta=np.array(json.dumps(meta)), **arrays)
    return meta, arrays


def _sub(outputs, workload):
    prefix = workload + "/"
    return {k[len(prefix):]: v for k, v in outputs.items() if k.startswith(prefix)}


def _end_to_end(result, setups):
    # Each op's time is its fastest round, and set-up is the fastest of its
    # processes: on the shared 2-core machine the speed of a core drifts by
    # about 20% over seconds with other load, and the fastest of several
    # tries is the steady figure for the program.
    return {
        "setup_s": min(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "round_s": sum(min(op) for op in result["times"]),
    }


def _overhead(result):
    # fastest rounds, as for the end-to-end times; round 0 is untraced and
    # pays for warming caches, so it is left out
    plain = min(result["round_times"]["untraced"][1:])
    traced = min(result["round_times"]["traced"])
    return {"trace.overhead_ms": (traced - plain) * 1e3,
            "trace.overhead_pct": (traced - plain) / plain * 100.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "heintze" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {ROOT / 'src' / 'heintze'} is missing\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    traced = bool(args.trace)
    involved = list(WORKLOADS) if traced else [args.workload]
    inputs = {w: _write_inputs(workdir, w, args.seed) for w in involved}

    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    setups = []
    try:
        if not traced:
            for _ in range(SETUP_REPEATS - 1):
                _worker(workdir, args.workload, args.seconds, "setup", env, deadline)
                setups.append(json.loads((workdir / "setup.json").read_text())["setup_s"])
        _worker(workdir, args.workload, args.seconds, "trace" if traced else "run", env,
                deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    result = json.loads((workdir / "result.json").read_text())
    with np.load(workdir / "outputs.npz", allow_pickle=False) as z:
        outputs = {k: z[k] for k in z.files}

    problems = []
    verdict = None
    for w in involved:
        v = CHECKS[w](*inputs[w], _sub(outputs, w))
        stats = result if w == args.workload else result["others"][w]
        problems += [f"{w}: {msg}" for msg in v.problems]
        problems += [f"{w}: outputs of {key} changed between rounds" for key in stats["changed"]]
        if w == args.workload:
            verdict = v
    rounds = result["rounds"]

    if traced:
        metrics = layer_metrics(result["spans"])
        for name, value in _overhead(result).items():
            metrics[name] = {"value": value, "unit": OVERHEAD_METRICS[name]}
        (workdir / "spans.json").write_text(json.dumps(result["spans"]))
    else:
        setups.append(result["setup_s"])
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in _end_to_end(result, setups).items()}

    # Ops are counted for one round: every later round repeats the same ops
    # and must give the same outputs, so the counts do not depend on how
    # many rounds fit into --seconds.
    summary = {"correct": not problems, "attempted": verdict.ops,
               "failed": verdict.failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds,
        "items_per_round": result["items"] // rounds, "versions": result["versions"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_samples_s": setups, "problems": problems, **summary,
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    for msg in problems[:20]:
        print(f"PROBLEM {msg}")
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of "
          f"{summary['attempted']} ops, {summary['failed']} failed in each")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
