"""One measured process: import the program from ``<root>/src``, set up,
run whole rounds of one workload, and write the outputs for the checks.

Started by run.py, never by hand:

    python3 bench/worker.py --root R --workdir D --workload W \
        --seconds S --mode setup|run|trace

``setup`` only times the import plus the workload's set-up.  ``run``
also times rounds until S seconds have passed (at least MIN_ROUNDS).
``trace`` alternates untraced and traced rounds of W, then sets up and
runs one traced round of every other workload (two of cli-oneshot), so
that every layer metric has spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_ROUNDS = 3
MIN_ROUNDS_TRACED = 5  # a warm-up round, then two untraced and two traced
# Rounds of each other workload in a traced run.  cli-oneshot gets two, so
# that its outputs are compared between identical invocations: it is run
# nowhere else.
OTHER_ROUNDS = {"cli-oneshot": 2}

# numpy is imported inside the functions: the timed `import heintze` in
# main() must be what loads it, so that setup_s includes it.


def _same(a, b):
    import numpy as np

    if a.keys() != b.keys():
        return False
    return all(np.array_equal(a[k], b[k], equal_nan=a[k].dtype.kind == "f") for k in a)


def _run_op(op, tr):
    try:
        return op.fn(tr)
    except Exception:  # a failing operation is recorded and checked, not fatal
        import numpy as np

        return {"error": np.array(traceback.format_exc())}, 0


def _rounds(runner, seconds, min_rounds, tracer_for):
    """Whole rounds until ``seconds`` have passed; per-op times, the first
    round's outputs, and the ops whose outputs changed in a later round."""
    ops = runner.ops()
    times = [[] for _ in ops]
    items = 0
    round_times = {"untraced": [], "traced": []}
    first, changed = {}, set()
    start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - start < seconds:
        tr = tracer_for(r)
        total = 0.0
        with tr.span("bench.round"):
            for i, op in enumerate(ops):
                t0 = time.perf_counter()
                with tr.span("bench.op", tag=op.key):
                    out, n = _run_op(op, tr)
                dt = time.perf_counter() - t0
                times[i].append(dt)
                total += dt
                items += n
                if r == 0:
                    first[op.key] = out
                elif not _same(first[op.key], out):
                    changed.add(op.key)
        round_times["traced" if tr.enabled else "untraced"].append(total)
        r += 1
    return {
        "rounds": r, "ops": [op.key for op in ops], "times": times,
        "items": items, "round_times": round_times, "changed": sorted(changed),
    }, first


def _flatten(prefix, outputs, into):
    for key, fields in outputs.items():
        for field, value in fields.items():
            into[f"{prefix}/{key}/{field}"] = value


def _load(workdir, workload):
    import numpy as np

    with np.load(workdir / f"inputs-{workload}.npz", allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files if k != "meta"}
        meta = json.loads(str(z["meta"]))
    return meta, arrays


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = p.parse_args(argv)

    src = (args.root / "src").resolve()
    t_start = time.perf_counter()
    sys.path.insert(0, str(src))
    import heintze

    t_import = time.perf_counter() - t_start
    if not Path(heintze.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"heintze imported from {heintze.__file__}, not {src}\n")
        return 2

    import numpy as np
    import scipy

    from ops import RUNNERS
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    traced = args.mode == "trace"
    tracer = Tracer() if traced else None
    ctx = {"workdir": args.workdir, "cli_env": {**os.environ, "PYTHONPATH": str(src)}}

    def build(workload, tr):
        meta, arrays = _load(args.workdir, workload)
        runner = RUNNERS[workload](heintze, meta, arrays, ctx)
        t0 = time.perf_counter()
        runner.setup(tr)
        return runner, time.perf_counter() - t0

    runner, t_setup = build(args.workload, tracer or NullTracer())
    result = {"setup_s": t_import + t_setup}
    if args.mode == "setup":
        (args.workdir / "setup.json").write_text(json.dumps(result))
        return 0

    if traced:
        null = NullTracer()
        stats, first = _rounds(runner, args.seconds, MIN_ROUNDS_TRACED,
                               lambda r: tracer if r % 2 else null)
    else:
        stats, first = _rounds(runner, args.seconds, MIN_ROUNDS, lambda r: NullTracer())
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    outputs = {}
    _flatten(args.workload, first, outputs)
    _flatten(args.workload, {"checks": runner.check_calls()}, outputs)
    result.update(stats)
    result["peak_rss_kb"] = max(self_kb, child_kb)

    if traced:
        runner.probes(tracer)
        for other in WORKLOADS:
            if other == args.workload:
                continue
            with tracer.span("bench.pass", tag=other):
                o_runner, _ = build(other, tracer)
                o_stats, o_first = _rounds(o_runner, 0.0, OTHER_ROUNDS.get(other, 1),
                                            lambda r: tracer)
                o_runner.probes(tracer)
            _flatten(other, o_first, outputs)
            _flatten(other, {"checks": o_runner.check_calls()}, outputs)
            result.setdefault("others", {})[other] = o_stats
        result["spans"] = tracer.spans

    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__, "heintze": heintze.__version__}
    np.savez(args.workdir / "outputs.npz", **outputs)
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
