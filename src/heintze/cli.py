"""Command-line front end with reproducible, file-based reports.

Exit codes: 0 success/equivalent, 1 usage or IO error, 2 hypothesis
violation, 3 classification-negative, 4 solver/capacity failure.
Every written report is accompanied by a run-manifest JSON; identical
flags and seeds reproduce byte-identical report bodies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    CapExceededError,
    ConditioningError,
    HypothesisViolationError,
    MatrixFormatError,
    RangeError,
    SolverError,
)
from .linalg import load_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_NOT_EQUIVALENT = 3
EXIT_SOLVER = 4

MAX_CELLS_ENV = "HEINTZE_MAX_CELLS"
_MAX_GRID = 10_000  # points in a 'start:stop:step' grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


class _UsageError(ValueError):
    pass


def _sig12(x: float) -> str:
    return f"{x:.12g}"


def _format_distance(v: float) -> str:
    if v != 0.0 and (abs(v) >= 1e16 or abs(v) < 1e-4):
        return f"{v:.12e}"
    return f"{v:.12f}"


def _sha256(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(report_path, command, flags, seed, inputs) -> None:
    from datetime import datetime, timezone

    manifest = {
        "command": command,
        "flags": flags,
        "seed": seed,
        "version": __version__,
        "input_digests": {name: _sha256(p) for name, p in inputs.items()},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = str(report_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise _UsageError(f"bad coordinate list {text!r}") from exc


def _parse_box(text: str) -> np.ndarray:
    lows, highs = [], []
    for axis in text.split(";"):
        parts = axis.split(",")
        if len(parts) != 2:
            raise _UsageError(f"bad box axis {axis!r} (want 'lo,hi')")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise _UsageError(f"bad box axis {axis!r}") from exc
        lows.append(lo)
        highs.append(hi)
    return np.array([lows, highs])


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"bad grid {text!r} (want 'start:stop:step')")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"bad grid {text!r}") from exc
    if not np.isfinite([start, stop, step]).all():
        raise _UsageError(f"grid {text!r} must be finite")
    if step <= 0:
        raise _UsageError("grid step must be positive")
    count = (stop - start) / step + 1
    if count > _MAX_GRID:
        raise _UsageError(f"grid {text!r} has {count:.6g} points, more than "
                          f"{_MAX_GRID}")
    grid = []
    t = start
    while t <= stop + 1e-12:
        grid.append(round(t, 12))
        if t + step == t:  # past 2^53 |step| may fall below half an ulp of t
            raise _UsageError(f"grid {text!r} stops at {t!r}: its step "
                              "is below the float spacing there")
        t += step
    return grid


def _parse_floats(text: str):
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad number list {text!r}") from exc


def _max_cells_default() -> int:
    from .variation import DEFAULT_MAX_CELLS

    env = os.environ.get(MAX_CELLS_ENV)
    if env is None:
        return DEFAULT_MAX_CELLS
    try:
        return int(env)
    except ValueError as exc:
        raise _UsageError(f"bad {MAX_CELLS_ENV} value {env!r}") from exc


# ---------------------------------------------------------------------------
# subcommands: each imports only its own layer


def _cmd_rpjf(args) -> int:
    from .spectral import real_part_jordan_form

    a = load_matrix(args.matrix)
    form = real_part_jordan_form(a, args.tol)
    for lam, size in form.blocks:
        print(f"{_sig12(lam)} x {size}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .spectral import classify

    a = load_matrix(args.matrix_a)
    b = load_matrix(args.matrix_b)
    result = classify(a, b, args.tol)
    print(json.dumps(result.to_json_dict()))
    return EXIT_OK if result.equivalent else EXIT_NOT_EQUIVALENT


def _cmd_dist(args) -> int:
    from .metric import BoundarySpace, dist

    a = load_matrix(args.matrix)
    space = BoundarySpace(a)
    x = _parse_vector(args.x)
    y = _parse_vector(args.y)
    if x.size != space.n or y.size != space.n:
        raise _UsageError(
            f"points must have dimension {space.n} to match the matrix"
        )
    print(_format_distance(dist(space, x, y)))
    return EXIT_OK


def _cmd_qvar(args) -> int:
    from .variation import TestFunction, fit_exponents

    a = load_matrix(args.matrix)
    n = a.shape[0]
    if (args.u is None) == (args.ell is None):
        raise _UsageError("exactly one of --u / --ell is required")
    if args.u is not None:
        u = TestFunction.coordinate(n, args.u)
    else:
        u = TestFunction.from_vector(_parse_floats(args.ell))
    box = _parse_box(args.box)
    if box.shape[1] != n:
        raise _UsageError(f"box must have {n} axes")
    t_grid = _parse_grid(args.t)
    q_list = _parse_floats(args.q)
    report = fit_exponents(a, u, box, t_grid, q_list,
                           max_cells=_max_cells_default())

    out = args.out
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,Q,cells,V,log V\n")
        for row in report.rows:
            fh.write(
                f"{_sig12(row.t)},{_sig12(row.q)},{row.cells},"
                f"{_sig12(row.value)},{_sig12(np.log(row.value))}\n"
            )
    root, ext = os.path.splitext(out)
    fits_path = f"{root}-fits{ext or '.csv'}"
    with open(fits_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("Q,slope,predicted,residual,classification\n")
        for fit in report.fits:
            fh.write(
                f"{_sig12(fit.q)},{_sig12(fit.slope)},{_sig12(fit.predicted)},"
                f"{_sig12(fit.residual)},{fit.classification}\n"
            )
    flags = {
        "matrix": args.matrix, "u": args.u, "ell": args.ell,
        "box": args.box, "t": args.t, "q": args.q, "out": args.out,
        "max_cells": _max_cells_default(),
    }
    _write_manifest(out, "qvar", flags, 0, {"matrix": args.matrix})
    print(f"seed = 0 (deterministic); wrote {out} and {fits_path}")
    return EXIT_OK


def _cmd_qsmap_verify(args) -> int:
    from .maps import empirical_bilip, load_map
    from .metric import BoundarySpace

    a = load_matrix(args.matrix)
    spec = load_map(args.map)
    space = BoundarySpace(a)
    mn, mx = empirical_bilip(
        spec, space, samples=args.samples, seed=args.seed,
        box_radius=args.box_radius,
    )
    bound = spec.bound()
    within = None
    if bound is not None:
        within = bool(1.0 / bound <= mn and mx <= bound)
    report = {
        "min_ratio": mn,
        "max_ratio": mx,
        "bound": bound,
        "within_bound": within,
        "samples": args.samples,
        "seed": args.seed,
        "box_radius": args.box_radius,
    }
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    flags = {
        "map": args.map, "matrix": args.matrix, "samples": args.samples,
        "seed": args.seed, "box_radius": args.box_radius, "out": args.out,
    }
    _write_manifest(args.out, "qsmap-verify", flags, args.seed,
                    {"map": args.map, "matrix": args.matrix})
    print(
        f"seed = {args.seed}; ratios in [{_sig12(mn)}, {_sig12(mx)}]"
        + (f"; bound {_sig12(bound)} ({'OK' if within else 'VIOLATED'})"
           if bound is not None else "")
    )
    return EXIT_OK


def _cmd_conformal_probe(args) -> int:
    from .maps import conformal_probe, load_map

    spec = load_map(args.map)
    t_values = _parse_floats(args.t)
    ratios = conformal_probe(spec, spec.n, t_values)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,ratio\n")
            for t, r in zip(t_values, ratios):
                fh.write(f"{_sig12(t)},{_sig12(r)}\n")
        _write_manifest(args.out, "conformal-probe",
                        {"map": args.map, "t": args.t, "out": args.out},
                        0, {"map": args.map})
    for t, r in zip(t_values, ratios):
        print(f"t = {_sig12(t)}: ratio = {_sig12(r)}")
    print(f"final ratio = {_sig12(ratios[-1])}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="heintze", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    tol_help = ("eigenvalues closer than tol*(1 + |lambda|), or than their"
                " group's splitting radius, share a cluster; real parts must"
                " exceed tol (default %(default)s)")
    p = sub.add_parser("rpjf", help="print the real-part Jordan form")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--tol", type=float, default=1e-6, help=tol_help)
    p.set_defaults(func=_cmd_rpjf)

    p = sub.add_parser("classify", help="decide boundary equivalence")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--tol", type=float, default=1e-6, help=tol_help
                   + "; matched eigenvalues must agree to tol, relatively")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("dist", help="evaluate the boundary quasimetric")
    p.add_argument("--matrix", required=True)
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--y", required=True, help="comma-separated coordinates")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("qvar", help="Q-variation scaling experiment")
    p.add_argument("--matrix", required=True)
    p.add_argument("--u", type=int, help="coordinate index of the functional")
    p.add_argument("--ell", help="comma-separated functional coefficients")
    p.add_argument("--box", required=True, help="'lo1,hi1;lo2,hi2;...'")
    p.add_argument("--t", required=True, help="'start:stop:step'")
    p.add_argument("--q", required=True, help="comma-separated Q values")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=_cmd_qvar)

    p = sub.add_parser("qsmap-verify",
                       help="empirical distortion vs theoretical bound")
    p.add_argument("--map", required=True, help="map JSON file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box-radius", type=float, default=5.0)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_qsmap_verify)

    p = sub.add_parser("conformal-probe",
                       help="horospherical distortion along the special family")
    p.add_argument("--map", required=True, help="map JSON file")
    p.add_argument("--t", required=True, help="comma-separated t values")
    p.add_argument("--out", help="optional CSV path")
    p.set_defaults(func=_cmd_conformal_probe)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, MatrixFormatError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except HypothesisViolationError as exc:
        sys.stderr.write(f"hypothesis violation: {exc}\n")
        return EXIT_HYPOTHESIS
    except (SolverError, CapExceededError, ConditioningError, RangeError) as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
