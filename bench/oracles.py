"""Independent reference computations for the benchmark's checks.

Nothing here imports `heintze`: every expected value is computed from a
closed form (numpy and math only), so a check compares the program with
arithmetic it does not share.

A canonical matrix is described by its chains, a list of
``(lam, size)`` pairs in matrix order; each chain is the block
``lam*I + N`` with ones on the superdiagonal.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def chain_offsets(chains):
    """[(lam, size, offset), ...] for chains given as (lam, size)."""
    out, off = [], 0
    for lam, size in chains:
        out.append((float(lam), int(size), off))
        off += int(size)
    return out


def chain_matrix(chains) -> np.ndarray:
    """The canonical block-diagonal matrix with the given chains."""
    full = chain_offsets(chains)
    n = sum(size for _, size, _ in full)
    a = np.zeros((n, n))
    for lam, size, off in full:
        a[off:off + size, off:off + size] = lam * np.eye(size) + np.eye(size, k=1)
    return a


def chain_exp(chains, t: float) -> np.ndarray:
    """e^{tA} for a canonical matrix: e^{t lam} times t^k/k! on the
    k-th superdiagonal of each block."""
    full = chain_offsets(chains)
    n = sum(size for _, size, _ in full)
    out = np.zeros((n, n))
    for lam, size, off in full:
        block = np.zeros((size, size))
        for k in range(size):
            block += np.eye(size, k=k) * (t**k / math.factorial(k))
        out[off:off + size, off:off + size] = math.exp(t * lam) * block
    return out


def chain_log_norm(chains, v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log |e^{-tA} v| for rows v (m, n) at per-row times t of shape
    (m,) or (m, G), from the closed form of e^{-tN} on each chain."""
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    expand = (slice(None),) + (None,) * (t.ndim - 1)
    parts = []
    for lam, size, off in chain_offsets(chains):
        sq = np.zeros(t.shape)
        for i in range(size):
            acc = np.zeros(t.shape)
            power = np.ones(t.shape)
            for q in range(size - i):
                acc += v[:, off + i + q][expand] * power
                power = power * (-t) / (q + 1)
            sq += acc * acc
        with np.errstate(divide="ignore"):
            parts.append(np.log(sq) - 2.0 * lam * t)
    return 0.5 * np.logaddexp.reduce(parts, axis=0)


def _certified_left(chains, v):
    """Per-row t_L with g(t) = log|e^{-tA}v| > 0 for every t <= t_L.

    For t = -u <= 0, |e^{-tA}v| >= e^{lam_min u} |v| / S(u) with
    S(u) = sum_{k<m} u^k/k! >= ||e^{uN}|| (m = longest chain).  Since
    u S'(u) <= (m-1) S(u), the bound increases for u >= (m-1)/lam_min,
    so one positive value there certifies every smaller t.
    """
    lam_min = min(lam for lam, _ in chains)
    mblk = max(size for _, size in chains)
    norms = np.linalg.norm(v, axis=1)
    u = np.full(len(v), max((mblk - 1) / lam_min, 1.0))
    for _ in range(200):
        s = sum(u**k / math.factorial(k) for k in range(mblk))
        bad = lam_min * u + np.log(norms) - np.log(s) <= 0
        if not bad.any():
            return -u
        u = np.where(bad, 2.0 * u, u)
    raise ArithmeticError("no certified left endpoint")


def smallest_root(chains, v: np.ndarray, floor: float = 1e-4) -> np.ndarray:
    """Smallest t with |e^{-tA} v| = 1 per row, by a dense scan plus
    bisection on the closed form.

    The scan starts at a certified left endpoint and steps by
    max(g/||A||, floor): |g'| <= ||A||, so a step of g/||A|| cannot pass
    a root, and the floor makes the scan dense (spacing ``floor``) where
    g is close to zero.  Bisection then refines the first bracket.
    """
    v = np.asarray(v, dtype=float)
    lip = float(np.linalg.norm(chain_matrix(chains), 2))
    t = _certified_left(chains, v)
    g = chain_log_norm(chains, v, t)
    lo = t.copy()
    hi = np.full(len(v), np.nan)
    active = np.ones(len(v), bool)
    for _ in range(2_000_000):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        t_new = t[idx] + np.maximum(g[idx] / lip, floor)
        g_new = chain_log_norm(chains, v[idx], t_new)
        hit = g_new <= 0
        lo[idx[hit]] = t[idx[hit]]
        hi[idx[hit]] = t_new[hit]
        active[idx[hit]] = False
        t[idx] = t_new
        g[idx] = g_new
    else:
        raise ArithmeticError("scan did not reach a root")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        pos = chain_log_norm(chains, v, mid) > 0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


def j2_dip_depth(lam: float, v_canon: np.ndarray) -> np.ndarray:
    """Value of g at its local minimum for J2(lam), lam < 1/2.

    With v = (a, b), g(t) = -lam t + log|b| + 0.5 log(1 + s^2) for
    s = t - a/b, whose local minimum sits at
    s1 = (1 - sqrt(1 - 4 lam^2)) / (2 lam).  Rows with b = 0 have no
    minimum and get +inf.
    """
    a, b = v_canon[:, 0], v_canon[:, 1]
    s1 = (1.0 - math.sqrt(1.0 - 4.0 * lam * lam)) / (2.0 * lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = -lam * (s1 + a / b) + np.log(np.abs(b)) + 0.5 * math.log1p(s1 * s1)
    return np.where(b != 0, depth, np.inf)


def j2_dip_root(lam: float, b: float) -> float:
    """Smallest root for J2(lam) and v = (0, b) whose local minimum is
    below zero: g is decreasing left of s1, so bisect on (-inf, s1]."""
    s1 = (1.0 - math.sqrt(1.0 - 4.0 * lam * lam)) / (2.0 * lam)

    def g(s):
        return -lam * s + math.log(abs(b)) + 0.5 * math.log1p(s * s)

    if g(s1) > 0:
        raise ValueError("the dip does not reach below zero")
    lo, hi = s1 - 1.0, s1
    while g(lo) <= 0:
        lo -= 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_dist(desc, v: np.ndarray) -> np.ndarray:
    """log D_A for difference vectors v (rows) under a matrix description.

    ``desc["kind"]`` is "chains" (a canonical matrix, possibly conjugated
    by the orthogonal ``desc["rotation"]``, using D_{RAR^T}(Rx, Ry) =
    D_A(x, y)), "spiral" (A = I + 3J, where D = |v|) or "scalar"
    (A = lam I, where D = |v|^(1/lam)).
    """
    v = np.asarray(v, dtype=float)
    kind = desc["kind"]
    if kind == "spiral":
        return np.log(np.linalg.norm(v, axis=1))
    if kind == "scalar":
        return np.log(np.linalg.norm(v, axis=1)) / desc["lam"]
    if desc.get("rotation") is not None:
        v = v @ np.asarray(desc["rotation"])
    return smallest_root(desc["chains"], v)


def dilation(desc, s: float) -> np.ndarray:
    """e^{sA} in closed form for a matrix description."""
    if desc["kind"] == "spiral":
        c, d = math.cos(3.0 * s), math.sin(3.0 * s)
        return math.exp(s) * np.array([[c, -d], [d, c]])
    if desc["kind"] == "scalar":
        return math.exp(s * desc["lam"]) * np.eye(desc["n"])
    e = chain_exp(desc["chains"], s)
    if desc.get("rotation") is not None:
        r = np.asarray(desc["rotation"])
        e = r @ e @ r.T
    return e


# ---------------------------------------------------------------------------
# packings


def floor_product(diag, t: float, box: np.ndarray) -> int:
    """Exact number of half-open unit cells meeting e^{-tA}box for a
    diagonal A: per axis, floor(hi) - floor(lo) + 1."""
    total = 1
    for i, lam in enumerate(diag):
        scale = math.exp(-t * lam)
        lo, hi = scale * box[0, i], scale * box[1, i]
        total *= math.floor(hi) - math.floor(lo) + 1
    return total


def zonotope_volume(gens: np.ndarray) -> float:
    """Volume of the zonotope sum_j [0, 1] g_j (columns of gens): the sum
    of |det| over all n-subsets of the generators."""
    n = gens.shape[0]
    return float(sum(
        abs(np.linalg.det(gens[:, list(cols)]))
        for cols in itertools.combinations(range(gens.shape[1]), n)
    ))


def packing_sandwich(chains, t: float, box: np.ndarray):
    """(Vol(P), Vol(P + [-1,1]^n)) for P = e^{-tA}box: the half-open
    cells meeting P cover P and lie inside P + [-1,1]^n."""
    widths = box[1] - box[0]
    gens = chain_exp(chains, -t) * widths[None, :]
    n = gens.shape[0]
    inner = abs(float(np.linalg.det(gens)))
    outer = zonotope_volume(np.hstack([gens, 2.0 * np.eye(n)]))
    return inner, outer


def parallelogram_cells(chains, t: float, box: np.ndarray) -> int:
    """Exact number of half-open unit cells meeting P = e^{-tA}box for a
    single 2x2 chain, by a sweep over the rows z2 of cells.

    With P = {base + s1 g1 + s2 g2 : s in [0,1]^2}, g1 = (a, 0) and
    g2 = (b, c), the slice of P over the row y in [z2, z2 + 1) is an
    interval in x whose ends follow s2 linearly; a row holds
    floor(xmax) - floor(xmin) + 1 cells (corners in general position).
    """
    m = chain_exp(chains, -t)
    base = m @ box[0]
    (a, b), (_, c) = m * (box[1] - box[0])[None, :]
    total = 0
    for z2 in range(math.floor(base[1]), math.floor(base[1] + c) + 1):
        s_lo = (max(z2, base[1]) - base[1]) / c
        s_hi = (min(z2 + 1, base[1] + c) - base[1]) / c
        x_min = base[0] + min(b * s_lo, b * s_hi)
        x_max = base[0] + a + max(b * s_lo, b * s_hi)
        total += math.floor(x_max) - math.floor(x_min) + 1
    return total


def _q_exp(n, u):
    """Q(e^{uN}) = sum_k (n-k) (u^k/k!)^2."""
    return sum((n - k) * (u**k / math.factorial(k)) ** 2 for k in range(n))


def _largest_root(n, const):
    """Largest u with u = const + 0.5 log Q(e^{uN}), or 0 if it is negative.

    f(u) = u - const - 0.5 log Q increases for u > n - 1 and tends to
    -inf as u -> -inf: step down from a positive value to the first
    sign change, then bisect.
    """
    def f(u):
        return u - const - 0.5 * math.log(_q_exp(n, u))

    hi = float(n)
    while f(hi) <= 0:
        hi *= 2.0
    lo = hi
    while f(lo) > 0:
        lo -= 1e-2
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) <= 0 else (lo, mid)
    return max(0.5 * (lo + hi), 0.0)


def shear_bound(n: int, lip: float) -> float:
    """Distortion bound of x + (C(x_n), 0, ..., 0) with Lip(C) = lip:
    e^u for the largest u with e^u = (1 + lip) sqrt(Q(e^{uN}))."""
    return math.exp(_largest_root(n, math.log1p(lip)))


def jordan_map_bound(doc) -> float:
    """Distortion bound of a Jordan-family map from its defining
    equations: the shear factor with Lip(C)/|a_0|, times e^u for the
    largest u with e^u = sqrt(Q(e^{uN}) Q(B)), taken over B = sum a_k N^k
    and B^{-1} (inverted as a matrix here), Q(B) = sum_k (n-k) b_k^2."""
    n = doc["n"]
    knots = np.asarray(doc["C"]["knots"], dtype=float)
    slopes = np.diff(knots[:, 1]) / np.diff(knots[:, 0]) if len(knots) > 1 else [0.0]
    lip = float(np.max(np.abs(slopes))) / abs(doc["a"][0])
    coeffs = list(doc["a"]) + [0.0]
    b = sum(ck * np.eye(n, k=k) for k, ck in enumerate(coeffs))
    poly = max(
        _largest_root(n, 0.5 * math.log(sum((n - k) * c * c for k, c in enumerate(cs))))
        for cs in (coeffs, np.linalg.inv(b)[0])
    )
    return shear_bound(n, lip) * math.exp(poly)


def oscillation(chains, t: float, u: np.ndarray) -> float:
    """sum_i |(u e^{tA})_i|: the oscillation of x -> u.x over a cell."""
    return float(np.sum(np.abs(np.asarray(u) @ chain_exp(chains, t))))


# ---------------------------------------------------------------------------
# Jordan-family maps, as JSON documents {"kind": "jordan_family", ...}


def pwl_eval(knots, y: np.ndarray) -> np.ndarray:
    """Piecewise-linear function through the knots, continued beyond
    the end knots with the end segments' slopes."""
    ys = np.array([k[0] for k in knots], dtype=float)
    vs = np.array([k[1] for k in knots], dtype=float)
    y = np.asarray(y, dtype=float)
    if len(ys) == 1:
        return np.full(y.shape, vs[0])
    out = np.interp(y, ys, vs)
    left = (vs[1] - vs[0]) / (ys[1] - ys[0])
    right = (vs[-1] - vs[-2]) / (ys[-1] - ys[-2])
    out = np.where(y < ys[0], vs[0] + left * (y - ys[0]), out)
    return np.where(y > ys[-1], vs[-1] + right * (y - ys[-1]), out)


def jordan_map_eval(doc, x: np.ndarray) -> np.ndarray:
    """F(x) = (a_0 I + a_1 N + ...) x + v + (C(x_n), 0, ..., 0)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    out = np.asarray(doc["v"], dtype=float) + np.zeros_like(x)
    for k, ak in enumerate(doc["a"]):
        out[:, : n - k] += ak * x[:, k:]
    out[:, 0] += pwl_eval(doc["C"]["knots"], x[:, -1])
    return out


def shear_eval(doc, x: np.ndarray) -> np.ndarray:
    """x + (C(x_n), 0, ..., 0)."""
    out = np.array(x, dtype=float)
    out[:, 0] += pwl_eval(doc["C"]["knots"], out[:, -1])
    return out


def map_eval(doc, x):
    return jordan_map_eval(doc, x) if doc["kind"] == "jordan_family" else shear_eval(doc, x)


def conformal_ratio(doc, n: int, t_values, base) -> np.ndarray:
    """|e^{-tN}(F(x_t) - F(base))| / e^t along x_t = base + e^t e^{tN} e_n."""
    base = np.asarray(base, dtype=float)
    ratios = []
    for t in t_values:
        nil = chain_exp([(0.0, n)], t)
        xt = base + math.exp(t) * nil[:, -1]
        diff = map_eval(doc, np.stack([xt, base]))
        step = diff[0] - diff[1]
        ratios.append(np.linalg.norm(chain_exp([(0.0, n)], -t) @ step) / math.exp(t))
    return np.array(ratios)
