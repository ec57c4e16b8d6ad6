"""Compare the program's outputs with the oracles, per workload.

Each check returns a Verdict: how many operations one round attempts,
how many of them gave a wrong result, and a list of problems.  A wrong
result on a narrow-dip row of dist-batch is the known general-path
fault and is counted as failed only; any other wrong result or failed
global check is a problem, which makes the run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from oracles import (
    chain_log_norm,
    conformal_ratio,
    floor_product,
    j2_dip_root,
    jordan_map_bound,
    jordan_map_eval,
    log_dist,
    oscillation,
    packing_sandwich,
    parallelogram_cells,
    shear_bound,
)

LOG_D_TOL = 1e-8       # |log D - oracle|, so 1e-8 relative in D
INVARIANCE_TOL = 1e-8  # relative, as in the acceptance suite
MAP_TOL = 1e-9         # relative, for closed-form map values


@dataclass
class Verdict:
    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, ok: bool, problem: str, expected_fault: bool = False):
        self.ops += 1
        if not ok:
            self.failed += 1
            if not expected_fault:
                self.problems.append(problem)

    def ops_many(self, ok: np.ndarray, describe):
        """One op per entry of ``ok``; the first few failures are described."""
        bad = np.flatnonzero(~ok)
        self.ops += len(ok)
        self.failed += len(bad)
        self.problems += [describe(i) for i in bad[:5]]


def _errored(out, prefix):
    err = out.get(prefix + "/error")
    return None if err is None else str(err).strip().splitlines()[-1]


def _rel_close(got, want, tol):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(np.abs(want), 1e-300)))


# ---------------------------------------------------------------------------


def _pair_ok(desc, v, t_prog, t_or):
    ok = np.abs(t_prog - t_or) <= LOG_D_TOL * np.maximum(1.0, np.abs(t_or))
    if desc["kind"] == "chains":
        # the oracle scan has spacing 1e-4 near zero; a genuine earlier
        # root the program found inside a narrower dip is still right
        vc = v @ np.asarray(desc["rotation"]) if desc["rotation"] is not None else v
        safe = np.where(np.isfinite(t_prog), t_prog, 0.0)
        residual = np.abs(chain_log_norm(desc["chains"], vc, safe))
        ok |= (t_prog < t_or) & (residual <= 1e-9)
    return ok


def check_dist_batch(meta, arrays, out):
    v = Verdict()
    inv = meta["invariance"]
    k = inv["count"]
    for b in meta["batches"]:
        key, name = b["key"], b["matrix"]
        desc = meta["matrices"][name]["desc"]
        x, y = arrays[key + ".x"], arrays[key + ".y"]
        err = _errored(out, key)
        d = out.get(key + "/d")
        if err is not None or d is None:
            for _ in range(len(x)):
                v.op(False, f"{name}: {err}", expected_fault=b["role"] == "dip")
            continue
        with np.errstate(divide="ignore"):
            t_prog = np.log(d)
        if b["role"] == "dip":
            for i, (bb, eps) in enumerate(zip(b["b"], b["depths"])):
                want = j2_dip_root(b["lam"], bb)
                v.op(abs(t_prog[i] - want) <= LOG_D_TOL * max(1.0, abs(want)),
                     f"{name} dip {eps:g}", expected_fault=True)
            continue
        t_or = log_dist(desc, y - x)
        v.ops_many(_pair_ok(desc, y - x, t_prog, t_or),
                   lambda i: f"{name}: pair {i} log D = {t_prog[i]!r}, oracle {t_or[i]!r}")

        # invariances on the first k pairs
        base = d[:k]
        scale = np.exp(np.asarray(inv["scale"]))
        for label, got, want in (("translation", "trans", base),
                                 ("dilation", "dil", scale * base),
                                 ("symmetry", "sym", base)):
            got = out[f"checks/{key}.{got}"]
            if not _rel_close(got, want, INVARIANCE_TOL):
                v.problems.append(f"{name}: {label} invariance fails")
        if np.any(out[f"checks/{key}.zero"] != 0.0):
            v.problems.append(f"{name}: D(x, x) is not 0")
    return v


# ---------------------------------------------------------------------------


def _diag(chains):
    return [lam for lam, _ in chains]


def _field(out, call, i, name):
    return out[f"{call['sweep']}/p{i}.{name}"]


def _packing_problem(meta, out, i, call):
    """None if call i of the packing workload matches its oracles."""
    chains, box = call["chains"], np.asarray(call["box"])
    n = sum(size for _, size in chains)
    u = np.eye(n)[call["u"]] if "u" in call else None
    if call["call"] == "fit_exponents":
        for t, q, cells, value in _field(out, call, i, "rows"):
            want = floor_product(_diag(chains), t, box)
            if cells != want:
                return f"t={t}: {cells} cells, floor product {want}"
            if not _rel_close(value, cells * oscillation(chains, t, u) ** q, 1e-12):
                return f"t={t}, Q={q}: V = {value!r}"
        for q, slope, predicted in _field(out, call, i, "fits"):
            want = q * max(_diag(chains)) - sum(_diag(chains))
            if abs(predicted - want) > 1e-12 or abs(slope - want) > max(0.1 * abs(want), 0.1):
                return f"Q={q}: slope {slope!r}, predicted {predicted!r}, rate {want!r}"
        return None
    if call["call"] == "count_cells":
        cells = int(_field(out, call, i, "cells"))
        if n == len(chains):
            want = floor_product(_diag(chains), call["t"], box)
            return None if cells == want else f"{cells} cells, floor product {want}"
        if n == 2:
            want = parallelogram_cells(chains, call["t"], box)
            return None if cells == want else f"{cells} cells, row sweep {want}"
        lo, hi = packing_sandwich(chains, call["t"], box)
        return None if lo <= cells <= hi else f"{cells} cells outside [{lo:.6g}, {hi:.6g}]"
    value = float(_field(out, call, i, "value"))
    cells = next(int(_field(out, c, j, "cells")) for j, c in enumerate(meta["calls"])
                 if c["call"] == "count_cells" and c["chains"] == chains
                 and c["t"] == call["t"] and c["box"] == call["box"])
    want = cells * oscillation(chains, call["t"], u) ** call["q"]
    vol = float(np.prod(box[1] - box[0]))
    if not (_rel_close(value, want, 1e-12) and vol / 4 <= value <= 4 * vol):
        return f"V = {value!r}, cells * osc^Q = {want!r}, Vol(box) = {vol}"
    return None


def check_packing(meta, arrays, out):
    v = Verdict()
    sweeps = {}
    for i, call in enumerate(meta["calls"]):
        sweeps.setdefault(call["sweep"], []).append((i, call))
    for name, calls in sweeps.items():
        err = _errored(out, name)
        if err is not None:
            v.op(False, f"sweep {name}: {err}")
            continue
        probs = []
        for i, call in calls:
            problem = _packing_problem(meta, out, i, call)
            if problem is not None:
                probs.append(f"{call['call']} t={call.get('t')}: {problem}")
        v.op(not probs, f"sweep {name}: " + "; ".join(probs))
    return v


# ---------------------------------------------------------------------------


def _map_problems(m, params, out):
    key = m["key"]
    bound = float(out[key + "/bound"])
    lo, hi = (1.0 - MAP_TOL) / bound, (1.0 + MAP_TOL) * bound
    probs = []
    if not _rel_close(bound, jordan_map_bound(m["f"]), MAP_TOL):
        probs.append(f"bound {bound!r}, from its equations {jordan_map_bound(m['f'])!r}")
    mn, mx = out[key + "/bilip"]
    if not (lo <= mn <= mx <= hi):
        probs.append(f"empirical distortion [{mn:.6g}, {mx:.6g}] outside the bound {bound:.6g}")
    rin, rout, env = out[key + "/qs_in"], out[key + "/qs_out"], out[key + "/qs_env"]
    if not (np.all(rout <= hi * hi * rin) and np.all(rout >= lo * lo * rin)):
        probs.append("quasisymmetry ratios outside [rin/K^2, K^2 rin]")
    if not (np.all(np.diff(env) >= 0) and np.all(env >= rout)):
        probs.append("quasisymmetry envelope not a monotone upper envelope")
    prof = out[key + "/profile"]
    radius, sup_out, inf_out, sup_ratio, inf_ratio = prof.T
    if not (np.array_equal(radius, params["radii"]) and np.all(sup_ratio <= hi)
            and np.all(inf_ratio >= lo) and np.all(sup_out >= inf_out)):
        probs.append("distortion profile outside [1/K, K]")
    return probs


def check_maps_verify(meta, arrays, out):
    v = Verdict()
    params = meta["params"]
    for m in meta["maps"]:
        key = m["key"]
        err = _errored(out, key)
        if err is not None:
            v.op(False, f"{key}: {err}")
            continue
        probs = _map_problems(m, params, out)
        comp = json.loads(str(out[key + "/compose"]))
        pts = arrays[key + ".points"]
        fg = jordan_map_eval(m["f"], jordan_map_eval(m["g"], pts))
        if not np.allclose(out[key + "/eval_f"], jordan_map_eval(m["f"], pts),
                           rtol=MAP_TOL, atol=MAP_TOL):
            probs.append("eval_map_batch(f) differs from F(x)")
        if not (np.allclose(jordan_map_eval(comp, pts), fg, rtol=MAP_TOL, atol=MAP_TOL)
                and np.allclose(out[key + "/eval_c"], fg, rtol=MAP_TOL, atol=MAP_TOL)):
            probs.append("compose_jordan(f, g) differs from f(g(x))")
        want = conformal_ratio(m["f"], m["n"], params["t"], m["x"])
        if not _rel_close(out[key + "/conf_f"], want, MAP_TOL):
            probs.append("conformal_probe(f) differs from the direct formula")
        if not _rel_close(out[key + "/conf_s"], math.sqrt(1.0 + m["slope"] ** 2), MAP_TOL):
            probs.append("conformal_probe of an affine shear is not sqrt(1 + c^2)")
        v.op(not probs, f"{key} (n={m['n']}): " + "; ".join(probs))
    return v


# ---------------------------------------------------------------------------


def _cli_problems(cmd, code, stdout, reports):
    exp = cmd["expect"]
    name = cmd["name"]
    if name == "classify":
        want_code = 0 if exp["equivalent"] else 3
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        doc = json.loads(stdout)
        if doc["equivalent"] is not exp["equivalent"]:
            return f"verdict {doc['equivalent']}"
        if exp["equivalent"] and not _rel_close(doc["scale"], exp["scale"], 1e-6):
            return f"scale {doc['scale']!r}, expected {exp['scale']!r}"
        return None
    if code != 0:
        return f"exit code {code}"
    if name.startswith("dist"):
        desc = exp["desc"]
        diff = (np.asarray(exp["y"]) - np.asarray(exp["x"]))[None, :]
        want = math.exp(float(log_dist(desc, diff)[0]))
        got = float(stdout.strip())
        return None if _rel_close(got, want, 1e-9) else f"D = {got!r}, oracle {want!r}"
    if name == "rpjf":
        blocks = [line.split(" x ") for line in stdout.strip().splitlines()]
        got = [(float(lam), int(size)) for lam, size in blocks]
        want = exp["blocks"]
        if [s for _, s in got] != [s for _, s in want] or not _rel_close(
                [lam for lam, _ in got], [lam for lam, _ in want], 1e-6):
            return f"form {got}, expected {want}"
        return None
    if name == "qvar":
        box = np.asarray(exp["box"])
        chains = [[lam, 1] for lam in exp["diag"]]
        u = np.eye(len(chains))[1]
        lines = reports["qvar.csv"].strip().splitlines()[1:]
        rows = [[float(c) for c in line.split(",")] for line in lines]
        if len(rows) != len(exp["t"]) * len(exp["q"]):
            return f"{len(rows)} report rows"
        for t, q, cells, value, _ in rows:
            if cells != floor_product(exp["diag"], t, box):
                return f"t={t}: {cells} cells"
            if not _rel_close(value, cells * oscillation(chains, t, u) ** q, 1e-10):
                return f"t={t}, Q={q}: V = {value!r}"
        for line in reports["qvar-fits.csv"].strip().splitlines()[1:]:
            q, slope, predicted = (float(c) for c in line.split(",")[:3])
            want = q * max(exp["diag"]) - sum(exp["diag"])
            if abs(predicted - want) > 1e-9 or abs(slope - want) > max(0.1 * abs(want), 0.1):
                return f"Q={q}: slope {slope!r}, predicted {want!r}"
        return None
    if name == "qsmap_verify":
        doc = json.loads(reports["qsmap.json"])
        bound = doc["bound"]
        ok = _rel_close(bound, shear_bound(2, exp["lipschitz"]), MAP_TOL) and \
            doc["within_bound"] is True and (1.0 - MAP_TOL) / bound <= doc["min_ratio"] \
            <= doc["max_ratio"] <= (1.0 + MAP_TOL) * bound
        return None if ok else f"ratios [{doc['min_ratio']}, {doc['max_ratio']}], bound {bound}"
    if name == "conformal_probe":
        lines = stdout.strip().splitlines()
        ratios = [float(line.rsplit("=", 1)[1]) for line in lines]
        if len(ratios) != exp["count"] + 1 or not _rel_close(ratios, exp["ratio"], 1e-9):
            return f"ratios {ratios}, expected {exp['ratio']!r}"
        return None
    return f"no check for {name}"


def check_cli_oneshot(meta, arrays, out):
    v = Verdict()
    for i, cmd in enumerate(meta["commands"]):
        key = f"c{i}"
        err = _errored(out, key)
        if err is not None:
            v.op(False, f"{cmd['name']}: {err}")
            continue
        reports = {rep: str(out[f"{key}/report:{rep}"]) for rep in cmd.get("reports", [])}
        try:
            problem = _cli_problems(cmd, int(out[key + "/code"]), str(out[key + "/stdout"]),
                                    reports)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            problem = f"unparsable output ({exc!r})"
        v.op(problem is None, f"cli {cmd['name']}: {problem}")
    return v


CHECKS = {
    "dist-batch": check_dist_batch,
    "packing": check_packing,
    "maps-verify": check_maps_verify,
    "cli-oneshot": check_cli_oneshot,
}
