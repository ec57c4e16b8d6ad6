"""Seeded inputs of the four workloads (numpy only).

Each generator returns ``(meta, arrays)``: ``meta`` is a JSON document
describing the operations, ``arrays`` holds the point batches.  The
worker process gives the program nothing else; the checks read the same
two objects to compute the expected outputs.
"""

from __future__ import annotations

import math

import numpy as np

from oracles import chain_log_norm, chain_matrix, j2_dip_depth

WORKLOADS = ("dist-batch", "packing", "maps-verify", "cli-oneshot")

# Fixed rotation for the conjugated rows.  The narrow-dip rows must not
# depend on the seed, and sharing R lets them reuse the random rows' spaces.
_ANGLE = 0.7
ROTATION = np.array([[math.cos(_ANGLE), -math.sin(_ANGLE)],
                     [math.sin(_ANGLE), math.cos(_ANGLE)]])

DIP_LAMBDAS = (0.3, 0.35, 0.45)
DIP_DEPTHS = (1e-7, 1e-9)
# Random rows of a rotated J2(lam) whose local minimum of g lies in
# [-DIP_BAND, 0] have a dip narrower than about 0.1, which the general
# solver's fixed 1e-2 scan can step over on some seeds and not others.
# They are resampled; the fixed dip rows above keep that fault measured.
DIP_BAND = 1e-3

BOX = 5.0
M_FAST = 4000      # pairs per batch on the diagonal and single paths
M_GENERAL = 2000   # pairs per batch on the rotated general rows
M_MULTI = 128      # screened multi-root vectors per structure


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _chains(*chains):
    return {"kind": "chains", "chains": [list(c) for c in chains], "rotation": None}


def _rotated(lam):
    return {"kind": "chains", "chains": [[lam, 2]], "rotation": ROTATION.tolist()}


def matrix_of(desc) -> np.ndarray:
    """The dense matrix the program is given for a description."""
    if desc["kind"] == "spiral":
        return np.array([[1.0, -3.0], [3.0, 1.0]])
    if desc["kind"] == "scalar":
        return desc["lam"] * np.eye(desc["n"])
    a = chain_matrix(desc["chains"])
    if desc["rotation"] is not None:
        r = np.asarray(desc["rotation"])
        a = r @ a @ r.T
    return a


# name -> (description, solver path the program takes, pairs per batch,
# role).  Roles: "random" uniform pairs, "multi" screened multi-root
# difference vectors (the criterion-8 kind).
DIST_MATRICES = {
    "diag(1,2)": (_chains((1.0, 1), (2.0, 1)), "diagonal", M_FAST, "random"),
    "diag(1..6)": (_chains(*[(float(k), 1) for k in range(1, 7)]), "diagonal", M_FAST, "random"),
    "2*I3": ({"kind": "scalar", "lam": 2.0, "n": 3}, "diagonal", M_FAST, "random"),
    "J2": (_chains((1.0, 2)), "single", M_FAST, "random"),
    "J3": (_chains((1.0, 3)), "single", M_FAST, "random"),
    "J4": (_chains((1.0, 4)), "single", M_FAST, "random"),
    "J2+J2": (_chains((1.0, 2), (1.0, 2)), "single", M_FAST, "random"),
    "J2(0.3)": (_chains((0.3, 2)), "single", M_MULTI, "multi"),
    "J3(0.35)": (_chains((0.35, 3)), "single", M_MULTI, "multi"),
    "J4(0.3)": (_chains((0.3, 4)), "single", M_MULTI, "multi"),
    "J3(0.45)+J1(0.45)": (_chains((0.45, 3), (0.45, 1)), "single", M_MULTI, "multi"),
    "R.J2(0.3).RT": (_rotated(0.3), "general", M_GENERAL, "random"),
    "R.J2(0.35).RT": (_rotated(0.35), "general", M_GENERAL, "random"),
    "R.J2(0.45).RT": (_rotated(0.45), "general", M_GENERAL, "random"),
    "spiral": ({"kind": "spiral"}, "general", M_FAST, "random"),
    "diag(2)+J2(1)": (_chains((2.0, 1), (1.0, 2)), "general", M_FAST, "random"),
}


def _multi_root_vectors(rng, chains, count):
    """Difference vectors in [-3,3]^n whose g has at least three sign
    changes on a grid over [-25, 45], spaced at least 0.1 apart."""
    n = sum(size for _, size in chains)
    grid = np.arange(-25.0, 45.0, 5e-2)
    found = []
    while len(found) < count:
        v = rng.uniform(-3.0, 3.0, (512, n))
        v = v[np.linalg.norm(v, axis=1) >= 0.2]
        vals = chain_log_norm(chains, v, np.broadcast_to(grid, (len(v), len(grid))))
        flips = np.diff(np.sign(vals), axis=1) != 0
        for i in np.flatnonzero(flips.sum(axis=1) >= 3):
            roots = grid[np.flatnonzero(flips[i])]
            if np.diff(roots).min() >= 0.1:
                found.append(v[i])
    return np.array(found[:count])


def _outside_dip_band(desc, x, y):
    lam = desc["chains"][0][0]
    v = (y - x) @ np.asarray(desc["rotation"])
    depth = j2_dip_depth(lam, v)
    return ~((depth >= -DIP_BAND) & (depth <= 0.0))


def _random_pairs(rng, desc, n, m):
    if desc.get("rotation") is None:
        return rng.uniform(-BOX, BOX, (m, n)), rng.uniform(-BOX, BOX, (m, n))
    xs, ys, have = [], [], 0
    while have < m:
        x = rng.uniform(-BOX, BOX, (m, n)) @ ROTATION.T
        y = rng.uniform(-BOX, BOX, (m, n)) @ ROTATION.T
        keep = _outside_dip_band(desc, x, y)
        xs.append(x[keep])
        ys.append(y[keep])
        have += int(keep.sum())
    return np.vstack(xs)[:m], np.vstack(ys)[:m]


def dist_batch(seed: int):
    rng = rng_for(seed, "dist-batch")
    meta = {"matrices": {}, "batches": []}
    arrays = {}
    for name, (desc, path, m, role) in DIST_MATRICES.items():
        a = matrix_of(desc)
        n = a.shape[0]
        meta["matrices"][name] = {"desc": desc, "a": a.tolist(), "path": path}
        if role == "multi":
            v = _multi_root_vectors(rng, desc["chains"], m)
            x = rng.uniform(-BOX, BOX, v.shape)
            y = x + v
        else:
            x, y = _random_pairs(rng, desc, n, m)
        key = f"b{len(meta['batches'])}"
        arrays[key + ".x"], arrays[key + ".y"] = x, y
        meta["batches"].append({"key": key, "matrix": name, "path": path, "role": role})
    # Narrow dips: v = R (0, b) with g's local minimum at depth -eps, so
    # the smallest root sits inside a dip about sqrt(eps) wide.
    for lam in DIP_LAMBDAS:
        s1 = (1.0 - math.sqrt(1.0 - 4.0 * lam * lam)) / (2.0 * lam)
        bs = [math.exp(-eps + lam * s1 - 0.5 * math.log1p(s1 * s1)) for eps in DIP_DEPTHS]
        key = f"b{len(meta['batches'])}"
        arrays[key + ".x"] = np.zeros((len(bs), 2))
        arrays[key + ".y"] = np.array([[0.0, b] for b in bs]) @ ROTATION.T
        meta["batches"].append({
            "key": key, "matrix": f"R.J2({lam}).RT", "path": "general",
            "role": "dip", "lam": lam, "b": bs, "depths": list(DIP_DEPTHS),
        })
    # invariance subsample: a few pairs of every random/multi batch
    inv = {"count": 32, "shift": rng.uniform(-BOX, BOX, 32).tolist(),
           "scale": rng.uniform(-2.0, 2.0, 32).tolist()}
    meta["invariance"] = inv
    return meta, arrays


def packing(seed: int):
    """Three sweeps, one per matrix; an op is one whole sweep."""
    rng = rng_for(seed, "packing")
    corner = rng.uniform(0.0, 1.0, 3)
    box2 = np.stack([corner[:2], corner[:2] + 1.0]).tolist()
    box3 = np.stack([corner, corner + 1.0]).tolist()
    d12 = [[1.0, 1], [2.0, 1]]
    j2 = [[1.0, 2]]
    j3 = [[1.0, 3]]
    calls = [{"sweep": "diag", "call": "fit_exponents", "chains": d12, "box": box2, "u": 1,
              "t": [-6.0, -5.0, -4.0], "q": [1.0, 1.5, 2.0]}]
    calls += [{"sweep": "diag", "call": "count_cells", "chains": d12, "box": box2, "t": t}
              for t in (-6.0, -5.0, -4.0)]
    calls += [{"sweep": "J2", "call": "count_cells", "chains": j2, "box": box2, "t": t}
              for t in (-4.0, -5.0, -6.0, -7.0)]
    calls += [{"sweep": "J2", "call": "variation_sum", "chains": j2, "box": box2, "t": t,
               "u": 1, "q": 2.0} for t in (-4.0, -5.0, -6.0)]
    calls += [{"sweep": "J3", "call": "count_cells", "chains": j3, "box": box3, "t": t}
              for t in (-2.0, -3.0, -4.0)]
    return {"calls": calls, "max_cells": 10**8}, {}


def _random_pwl(rng, max_slope=2.0):
    k = int(rng.integers(1, 6))
    ys = np.unique(rng.uniform(-4.0, 4.0, k))
    v0 = float(rng.uniform(-2.0, 2.0))
    if len(ys) < 2:
        return {"knots": [[0.0, v0]]}
    slopes = rng.uniform(-max_slope, max_slope, len(ys) - 1)
    vals = np.concatenate([[v0], v0 + np.cumsum(slopes * np.diff(ys))])
    return {"knots": [[float(a), float(b)] for a, b in zip(ys, vals)]}


def _jordan_map(rng, n):
    a0 = float(rng.uniform(0.4, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    return {"kind": "jordan_family", "n": n,
            "a": [a0] + rng.uniform(-1.5, 1.5, n - 2).tolist(),
            "v": rng.uniform(-3.0, 3.0, n).tolist(), "C": _random_pwl(rng)}


def maps_verify(seed: int):
    rng = rng_for(seed, "maps-verify")
    maps = []
    arrays = {}
    for n in (2, 3, 4):
        pair = [_jordan_map(rng, n), _jordan_map(rng, n)]
        for k in range(2):
            slope = float(rng.uniform(-2.0, 2.0))
            key = f"m{len(maps)}"
            arrays[key + ".points"] = rng.uniform(-BOX, BOX, (512, n))
            maps.append({
                "key": key, "n": n, "f": pair[k], "g": pair[1 - k],
                "shear": {"kind": "shear", "n": n,
                          "C": {"knots": [[0.0, 0.0], [1.0, slope]]}},
                "slope": slope,
                "x": rng.uniform(-2.0, 2.0, n).tolist(),
                "seed": int(rng.integers(0, 2**31)),
            })
    params = {"samples": 2000, "triples": 2000, "radii": [1.0, 0.3, 0.1],
              "samples_per_radius": 50, "t": [-1.0, -3.0, -6.0]}
    return {"maps": maps, "params": params}, arrays


def _conjugator(rng, n):
    """Q1 diag(s) Q2 with Q1, Q2 orthogonal: condition number <= 2."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(1.0, 2.0, n)) @ q2


def _conjugate(p, a):
    return p @ a @ np.linalg.inv(p)


def cli_oneshot(seed: int):
    """Eight commands.  In an argv, "@name" is the input file written from
    ``files`` or ``maps``, "@@name" an output file in the commands'
    working directory."""
    rng = rng_for(seed, "cli-oneshot")
    j3 = _chains((1.0, 3))
    rot = _rotated(0.35)
    x_g, y_g = _random_pairs(rng, rot, 2, 1)
    base = chain_matrix([[1.0, 2], [2.0, 1]])
    scale = float(rng.uniform(0.5, 2.0))
    shear_slope = float(rng.uniform(-1.5, 1.5))
    probe_slope = float(rng.uniform(-2.0, 2.0))
    files = {
        "j3": matrix_of(j3).tolist(),
        "rot": matrix_of(rot).tolist(),
        "j2": chain_matrix([[1.0, 2]]).tolist(),
        "d12": chain_matrix([[1.0, 1], [2.0, 1]]).tolist(),
        "rpjf": _conjugate(_conjugator(rng, 3), chain_matrix([[0.5, 2], [1.5, 1]])).tolist(),
        "cls_a": base.tolist(),
        "cls_b": _conjugate(_conjugator(rng, 3), scale * base).tolist(),
        "cls_c": _conjugate(_conjugator(rng, 3), chain_matrix([[1.0, 1], [1.0, 1], [2.0, 1]])).tolist(),
    }
    maps = {
        "shear": {"kind": "shear", "n": 2, "C": {"knots": [[-1.0, 0.0], [0.0, 0.5], [2.0, 0.5 + 2.0 * shear_slope]]}},
        "probe": {"kind": "shear", "n": 3, "C": {"knots": [[0.0, 0.0], [1.0, probe_slope]]}},
    }
    corner = [float(c) for c in rng.uniform(0.0, 1.0, 2)]
    box = f"{corner[0]!r},{corner[0] + 1.0!r};{corner[1]!r},{corner[1] + 1.0!r}"
    x_c = rng.uniform(-3.0, 3.0, 3)
    y_c = rng.uniform(-3.0, 3.0, 3)

    def pts(v):
        return ",".join(repr(float(c)) for c in v)

    commands = [
        {"name": "dist", "argv": ["dist", "--matrix", "@j3", f"--x={pts(x_c)}", f"--y={pts(y_c)}"],
         "expect": {"desc": j3, "x": x_c.tolist(), "y": y_c.tolist()}},
        {"name": "dist_general", "argv": ["dist", "--matrix", "@rot", f"--x={pts(x_g[0])}", f"--y={pts(y_g[0])}"],
         "expect": {"desc": rot, "x": x_g[0].tolist(), "y": y_g[0].tolist()}},
        {"name": "rpjf", "argv": ["rpjf", "@rpjf"], "expect": {"blocks": [[0.5, 2], [1.5, 1]]}},
        {"name": "classify", "argv": ["classify", "@cls_a", "@cls_b"],
         "expect": {"equivalent": True, "scale": 1.0 / scale}},
        {"name": "classify", "argv": ["classify", "@cls_a", "@cls_c"],
         "expect": {"equivalent": False}},
        {"name": "qvar", "argv": ["qvar", "--matrix", "@d12", "--u", "1", f"--box={box}",
                                  "--t=-5:-3:1", "--q", "1,1.5,2", "--out", "@@qvar.csv"],
         "expect": {"diag": [1.0, 2.0], "box": [[corner[0], corner[1]], [corner[0] + 1.0, corner[1] + 1.0]],
                    "t": [-5.0, -4.0, -3.0], "q": [1.0, 1.5, 2.0]},
         "reports": ["qvar.csv", "qvar-fits.csv"]},
        {"name": "qsmap_verify", "argv": ["qsmap-verify", "--map", "@shear", "--matrix", "@j2",
                                          "--samples", "500", "--seed", str(int(rng.integers(0, 2**31))),
                                          "--out", "@@qsmap.json"],
         "expect": {"lipschitz": max(0.5, abs(shear_slope))}, "reports": ["qsmap.json"]},
        {"name": "conformal_probe", "argv": ["conformal-probe", "--map", "@probe", "--t=-1,-4,-8"],
         "expect": {"ratio": math.sqrt(1.0 + probe_slope**2), "count": 3}},
    ]
    return {"files": files, "maps": maps, "commands": commands}, {}


GENERATORS = {
    "dist-batch": dist_batch,
    "packing": packing,
    "maps-verify": maps_verify,
    "cli-oneshot": cli_oneshot,
}
