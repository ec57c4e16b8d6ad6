"""What each workload asks of the program, through its public API only.

A runner has ``setup`` (build the objects a user builds and make the
first calls that fill lazy state), ``ops`` (one round: the same
operations every round), ``check_calls`` (extra calls whose
results the invariance checks need, made once after the timed rounds) and
``probes`` (single public calls into a layer, made only in the traced
run so that every layer gets a span).  Every call into the program
goes through ``tr.call`` so the traced run records it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracles import chain_matrix, dilation

CLI_TIMEOUT_S = 60


@dataclass
class Op:
    """One operation: ``fn(tr)`` returns (outputs, items)."""

    key: str
    fn: Callable


class DistBatch:
    def __init__(self, heintze, meta, arrays, ctx):
        self.h, self.meta, self.arrays = heintze, meta, arrays

    def setup(self, tr):
        h = self.h
        self.spaces = {}
        for name, m in self.meta["matrices"].items():
            a = np.asarray(m["a"])
            space = tr.call("metric.BoundarySpace", h.BoundarySpace, a)
            n = a.shape[0]
            # the first call fills lazy state (the general path's constant)
            tr.call("metric.dist_pairs", h.dist_pairs, space, np.zeros((1, n)),
                    np.ones((1, n)), tag=f"first:{m['path']}", items=1)
            self.spaces[name] = space

    def ops(self):
        out = []
        for b in self.meta["batches"]:
            x, y = self.arrays[b["key"] + ".x"], self.arrays[b["key"] + ".y"]
            space = self.spaces[b["matrix"]]
            tag = "dip" if b["role"] == "dip" else b["path"]

            def fn(tr, space=space, x=x, y=y, tag=tag):
                d = tr.call("metric.dist_pairs", self.h.dist_pairs, space, x, y,
                            tag=tag, items=len(x))
                return {"d": d}, len(x)

            out.append(Op(b["key"], fn))
        return out

    def check_calls(self):
        """Translated, dilated, swapped and coincident pairs."""
        inv = self.meta["invariance"]
        k = inv["count"]
        res = {}
        for b in self.meta["batches"]:
            if b["role"] == "dip":
                continue
            desc = self.meta["matrices"][b["matrix"]]["desc"]
            space = self.spaces[b["matrix"]]
            x = self.arrays[b["key"] + ".x"][:k]
            y = self.arrays[b["key"] + ".y"][:k]
            z = np.asarray(inv["shift"])[:, None] * np.ones_like(x)
            mats = [dilation(desc, s) for s in inv["scale"]]
            xs = np.einsum("kij,kj->ki", mats, x)
            ys = np.einsum("kij,kj->ki", mats, y)
            dp = self.h.dist_pairs
            res[b["key"] + ".trans"] = dp(space, x + z, y + z)
            res[b["key"] + ".dil"] = dp(space, xs, ys)
            res[b["key"] + ".sym"] = dp(space, y, x)
            res[b["key"] + ".zero"] = dp(space, x, x)
        return res

    def probes(self, tr):
        h = self.h
        for m in self.meta["matrices"].values():
            a = np.asarray(m["a"])
            tr.call("spectral.real_part_jordan_form", h.real_part_jordan_form, a)
            for t in (-1.0, 0.5, 2.0):
                tr.call("linalg.mat_exp", h.mat_exp, a, t)


class Packing:
    def __init__(self, heintze, meta, arrays, ctx):
        self.h, self.meta = heintze, meta

    def setup(self, tr):
        h = self.h
        self.specs = []
        for call in self.meta["calls"]:
            a = chain_matrix(call["chains"])
            box = np.asarray(call["box"])
            spec = None
            if call["call"] != "fit_exponents":
                spec = h.PackingSpec(a, call["t"], box, self.meta["max_cells"])
            u = h.TestFunction.coordinate(a.shape[0], call["u"]) if "u" in call else None
            self.specs.append((a, box, spec, u))
        # a first call on a small packing of each matrix fills lazy state
        warm = {}
        for call, (a, box, _, _) in zip(self.meta["calls"], self.specs):
            warm.setdefault(call["sweep"], (a, box))
        for a, box in warm.values():
            small = h.PackingSpec(a, -1.5, box, self.meta["max_cells"])
            tr.call("variation.count_cells", h.count_cells, small, tag="first", items=int)

    def _call(self, call, a, box, spec, u):
        h = self.h
        if call["call"] == "fit_exponents":
            def fn(tr):
                rep = tr.call("variation.fit_exponents", h.fit_exponents, a, u, box,
                              call["t"], call["q"], max_cells=self.meta["max_cells"])
                rows = np.array([[r.t, r.q, r.cells, r.value] for r in rep.rows])
                fits = np.array([[f.q, f.slope, f.predicted] for f in rep.fits])
                return {"rows": rows, "fits": fits}, 0
        elif call["call"] == "count_cells":
            tag = "diagonal" if all(s == 1 for _, s in call["chains"]) else "jordan"

            def fn(tr):
                cells = tr.call("variation.count_cells", h.count_cells, spec,
                                tag=tag, items=int)
                # diagonal counts are a closed-form product: not enumerated
                return {"cells": np.array(cells)}, cells if tag == "jordan" else 0
        else:
            def fn(tr):
                v = tr.call("variation.variation_sum", h.variation_sum, spec, u, call["q"])
                return {"value": np.array(v)}, 0
        return fn

    def ops(self):
        sweeps = {}
        for i, (call, spec) in enumerate(zip(self.meta["calls"], self.specs)):
            sweeps.setdefault(call["sweep"], []).append((f"p{i}", self._call(call, *spec)))
        out = []
        for name, calls in sweeps.items():
            def fn(tr, calls=calls):
                res, items = {}, 0
                for key, call in calls:
                    fields, n = call(tr)
                    res.update({f"{key}.{k}": v for k, v in fields.items()})
                    items += n
                return res, items

            out.append(Op(name, fn))
        return out

    def check_calls(self):
        return {}

    def probes(self, tr):
        pass


class MapsVerify:
    def __init__(self, heintze, meta, arrays, ctx):
        self.h, self.meta, self.arrays = heintze, meta, arrays

    def setup(self, tr):
        h = self.h
        self.spaces = {}
        for n in sorted({m["n"] for m in self.meta["maps"]}):
            a = chain_matrix([[1.0, n]])
            self.spaces[n] = tr.call("metric.BoundarySpace", h.BoundarySpace, a)
        self.specs = []
        for m in self.meta["maps"]:
            f, g, shear = (h.map_from_json_dict(m[k]) for k in ("f", "g", "shear"))
            self.specs.append((f, g, shear))
        # first calls on tiny inputs fill lazy state (scipy's expm, ...)
        f, _, _ = self.specs[0]
        space = self.spaces[f.n]
        tr.call("maps.empirical_bilip", h.empirical_bilip, f, space, samples=8, tag="first")
        tr.call("maps.qs_profile", h.qs_profile, f, space, triples=8, tag="first")
        tr.call("maps.distortion_profile", h.distortion_profile, f, space, np.zeros(f.n),
                [1.0], samples_per_radius=2, tag="first")

    def ops(self):
        h = self.h
        p = self.meta["params"]
        out = []
        for m, (f, g, shear) in zip(self.meta["maps"], self.specs):
            space = self.spaces[m["n"]]
            pts = self.arrays[m["key"] + ".points"]

            def fn(tr, m=m, f=f, g=g, shear=shear, space=space, pts=pts):
                n, seed, x = m["n"], m["seed"], np.asarray(m["x"])
                bound = tr.call("maps.jordan_family_bound", h.jordan_family_bound, f)
                mn, mx = tr.call("maps.empirical_bilip", h.empirical_bilip, f, space,
                                 samples=p["samples"], seed=seed)
                qs = tr.call("maps.qs_profile", h.qs_profile, f, space,
                             triples=p["triples"], seed=seed)
                dp = tr.call("maps.distortion_profile", h.distortion_profile, f, space, x,
                             p["radii"], samples_per_radius=p["samples_per_radius"], seed=seed)
                comp = tr.call("maps.compose_jordan", h.compose_jordan, f, g)
                ev_f = tr.call("maps.eval_map_batch", h.eval_map_batch, f, pts, items=len(pts))
                ev_c = tr.call("maps.eval_map_batch", h.eval_map_batch, comp, pts, items=len(pts))
                conf_f = tr.call("maps.conformal_probe", h.conformal_probe, f, n, p["t"], base=x)
                conf_s = tr.call("maps.conformal_probe", h.conformal_probe, shear, n, p["t"])
                rows = np.array([[r.radius, r.sup_out, r.inf_out, r.sup_ratio, r.inf_ratio]
                                 for r in dp.rows])
                return {
                    "bound": np.array(bound), "bilip": np.array([mn, mx]),
                    "qs_in": qs.ratios_in, "qs_out": qs.ratios_out, "qs_env": qs.envelope_out,
                    "profile": rows, "compose": np.array(json.dumps(h.map_to_json_dict(comp))),
                    "eval_f": ev_f, "eval_c": ev_c, "conf_f": conf_f, "conf_s": conf_s,
                }, 1

            out.append(Op(m["key"], fn))
        return out

    def check_calls(self):
        return {}

    def probes(self, tr):
        for n in sorted(self.spaces):
            for t in self.meta["params"]["t"]:
                tr.call("linalg.nilpotent_exp", self.h.nilpotent_exp, n, t)


class CliOneshot:
    def __init__(self, heintze, meta, arrays, ctx):
        self.h, self.meta = heintze, meta
        self.work = ctx["workdir"] / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = ctx["cli_env"]
        self.files = {}
        for name, rows in meta["files"].items():
            self.files[name] = self.work / f"{name}.json"
            self.files[name].write_text(json.dumps({"rows": rows}) + "\n")
        for name, doc in meta["maps"].items():
            self.files[name] = self.work / f"{name}.json"
            self.files[name].write_text(json.dumps(doc) + "\n")

    def _argv(self, argv):
        out = []
        for a in argv:
            if a.startswith("@@"):
                out.append(str(self.work / a[2:]))
            elif a.startswith("@"):
                out.append(str(self.files[a[1:]]))
            else:
                out.append(a)
        return out

    def _run(self, argv):
        return subprocess.run([sys.executable, *argv], env=self.env, cwd=self.work,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

    def setup(self, tr):
        pass  # each command starts cold; the import is the set-up

    def ops(self):
        out = []
        for i, cmd in enumerate(self.meta["commands"]):
            argv = ["-m", "heintze.cli", *self._argv(cmd["argv"])]

            def fn(tr, cmd=cmd, argv=argv):
                for rep in cmd.get("reports", []):
                    (self.work / rep).unlink(missing_ok=True)
                proc = tr.call(f"cli.{cmd['name']}", self._run, argv)
                res = {"stdout": np.array(proc.stdout), "stderr": np.array(proc.stderr),
                       "code": np.array(proc.returncode)}
                for rep in cmd.get("reports", []):
                    path = self.work / rep
                    res["report:" + rep] = np.array(path.read_text() if path.exists() else "")
                return res, 1

            out.append(Op(f"c{i}", fn))
        return out

    def check_calls(self):
        return {}

    def probes(self, tr):
        for _ in range(3):
            tr.call("cli.import", self._run, ["-c", "import heintze"])
        a = np.asarray(self.meta["files"]["cls_a"])
        for other in ("cls_b", "cls_c"):
            tr.call("spectral.classify", self.h.classify, a,
                    np.asarray(self.meta["files"][other]))


RUNNERS = {
    "dist-batch": DistBatch,
    "packing": Packing,
    "maps-verify": MapsVerify,
    "cli-oneshot": CliOneshot,
}
