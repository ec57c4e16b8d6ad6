"""The parabolic visual quasimetric D_A on the boundary R^n.

D_A(x, y) = e^{t*} where t* is the smallest real number with
|e^{-tA}(x - y)| = 1.  The solver locates the smallest zero of
g(t) = log |e^{-tA}(y - x)|, evaluated in closed form by one
g(t, rows, slope) on the decoupled real Schur form A = Q S D S^-1 Q^T
(``linalg.schur_clusters``, built once per space): each cluster of
eigenvalues evolves by its own closed form e^{-mu t} E(t) and keeps its
own log scale, and the clusters are recombined through S inside one
scaled sum.  A canonical A (block diagonal lam*I + N chains) is its own
form, Q = S = I: a cluster per run of chains with one lam, E(t) = e^{-tN}
by Horner's rule in t (lam*I gives log|v|/lam).

g' = -<Aw, w>/|w|^2 with w = e^{-tA}v, and the real part of A's
numerical range is [min eig H, max eig H], H = (A + A^T)/2 (Horn &
Johnson 1991, 1.5).  Where H is positive definite (one eigvalsh per
space), g strictly decreases: Newton's method finds its one zero from a
closed-form start, inside the bracket of the signs it has seen
(``_newton``).  Every other space marches from a closed-form left
endpoint (g > 0 left of it): each step goes to the zero of the lower
bound g + g'h - Kh^2/2 (g'' >= -K, K from the norms of A's symmetric and
skew parts, once per space), so it passes no zero, floored at t_tol
(``_march``).  The march hands each bracket, and g, g' at the end with
the shorter Newton step, to the same Newton solve.

t_tol is 1e-12.  All evaluators are pure and vectorized over batches of
difference vectors, column-major: a batch is the (n, m) array of its
vectors, and its Schur coordinates and log scales are (rows, m) arrays,
reduced over axis 0 along contiguous rows, each sum in row order
(``_sum_rows``, ``_mul``).  Every operation acts on each column
alone, so a vector's distance does not depend on the rest of its batch,
bit for bit, and independent batches may share one call.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import RangeError, SolverError
from .linalg import (_canonical_chains, _mul, _sum_rows,
                     check_hypothesis, check_matrix, check_vector,
                     schur_clusters)

_T_TOL = 1e-12
_MAX_STEPS = 100_000
_NEWTON_STEPS = 200  # the Newton solve's step cap
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


class BoundarySpace:
    """A boundary (R^n, D_A): the matrix plus cached solver data.

    Value-immutable after construction (internal caches are populated
    lazily but never change results); all evaluators are pure, so
    concurrent batch evaluation is safe and per-batch deterministic.
    Boundary points are plain finite float vectors.  Eigenvalues of A
    with real part <= 1e-6 raise HypothesisViolationError.
    """

    def __init__(self, a):
        self.a = check_matrix(a)
        self.n = self.a.shape[0]
        self.chains = _canonical_chains(self.a)
        eigs = (np.array([lam for lam, _, _ in self.chains])
                if self.chains is not None else np.linalg.eigvals(self.a))
        check_hypothesis(eigs)
        self._re_span = eigs.real.min(), eigs.real.max()  # Newton's start

    # -- structure helpers -------------------------------------------------

    def projection_indices(self):
        """Coordinates of pi_A (single-eigenvalue canonical form only):
        every size-1 chain plus the last coordinate of each longer chain."""
        self._require_single()
        return np.array(sorted(off + size - 1 for _, size, off in self.chains),
                        dtype=int)

    def interior_indices(self):
        """Fiber coordinates: all but the last coordinate of each chain."""
        self._require_single()
        return np.array([i for _, size, off in self.chains
                         for i in range(off, off + size - 1)], dtype=int)

    def _require_single(self) -> float:
        """The one eigenvalue of a canonical single-eigenvalue matrix."""
        if self.chains is None or len({c[0] for c in self.chains}) != 1:
            raise ValueError(
                "operation requires a canonical single-eigenvalue matrix"
            )
        return self.chains[0][0]

    def _canonical_sub_space(self, chains):
        """The canonical space of the (lam, size, offset) ``chains`` and the
        coordinates of this space in its block order: its matrix is A's
        principal submatrix there (each a chain's head)."""
        chains = sorted(chains, key=lambda c: (c[0], -c[1]))
        idx = np.concatenate([np.arange(o, o + s) for _, s, o in chains])
        return BoundarySpace(self.a[np.ix_(idx, idx)]), idx

    # -- solver data, built on first use --------------------------------

    @cached_property
    def _sym_eigenvalues(self):  # of H = (A + A^T)/2, ascending
        return np.linalg.eigvalsh(0.5 * self.a + 0.5 * self.a.T)

    @cached_property
    def _decreasing(self) -> bool:  # min eig H clears eigvalsh's rounding
        sym = self._sym_eigenvalues
        return bool(sym[0] > 4.0 * _EPS * sym[-1])

    @cached_property
    def _curvature_bound(self) -> float:  # K with g'' >= -K
        return _curvature(self.a, self._sym_eigenvalues)

    @cached_property
    def _clusters(self):  # the decoupled real Schur form, A's own if canonical
        return schur_clusters(self.a, self.chains)


def _curvature(a: np.ndarray, sym=None) -> float:
    # K with g'' >= -K for every v: with S, Z the symmetric and skew parts
    # of A and w a unit e^{-tA}v, g'' = 2(<Aw, Sw> - <Sw, w>^2) = 2(|p|^2 +
    # <Zw, p>), where p = Sw - <Sw, w>w, as <Zw, w> = 0.  |p| <= rho, half
    # the spread of S's eigenvalues, so g''/2 >= min over s in [0, rho] of
    # s^2 - ||Z||s, and g'' >= -K with K = ||Z||^2/2 (2 rho >= ||Z||) or
    # 2 rho(||Z|| - rho).  K = 0 leaves g convex with slope <= -min eig S
    # < 0, or -tr A/n when S = cI.  Rounding in K moves the bound less
    # than it moves g.  ``sym``: S's eigenvalues, ascending, if known
    sym = np.linalg.eigvalsh(0.5 * a + 0.5 * a.T) if sym is None else sym
    rho = 0.5 * float(sym[-1] - sym[0])
    skew = float(np.linalg.norm(0.5 * a - 0.5 * a.T, 2))
    curvature = (0.5 * skew * skew if 2.0 * rho >= skew
                 else 2.0 * rho * (skew - rho))
    if not 0.0 <= curvature < math.inf:
        raise RangeError(
            f"the curvature bound K = {curvature:.6g} leaves the float range "
            f"(||A|| = {np.linalg.norm(a, 2):.6g}, ||Z|| = {skew:.6g})"
        )
    return curvature


# ---------------------------------------------------------------------------
# root finding


@np.errstate(over="ignore", invalid="ignore")
def _solve_marching(space: BoundarySpace, g, t):
    """Each row's first zero of ``g``, g > 0 on (-inf, t] up to rounding: t
    steps left by 1, 2, 4, ... on the rows where g(t) <= 0, ``_march``
    brackets the zero (g > 0 on [lo, hi), g(hi) <= 0) and ``_newton``
    narrows it.  ``g(t, rows, slope=True)`` gives g and g' on ``rows``."""
    t = t.copy()
    gt, slope = g(t, np.arange(t.size), slope=True)
    step = 1.0
    for _ in range(200):
        bad = np.flatnonzero(gt <= 0)
        if bad.size == 0:
            x, gx, slope, lo, hi = _march(space, g, t, gt, slope)
            return _newton(g, x, gx, slope, (lo, hi))
        t[bad] -= step
        gt[bad], slope[bad] = g(t[bad], bad, slope=True)
        step *= 2.0
    raise SolverError("march: failed to bracket from the left")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(g, x, gx, slope, bracket=None):
    """Each row's zero of ``g`` from x (g, g' there ``gx``, ``slope``) by
    Newton's method inside the bracket of the signs seen so far (rtsafe;
    Press et al., Numerical Recipes).  g strictly decreases, or is > 0 on
    [lo, hi) and not at hi, a march's ``bracket`` about x.  ``g(t, rows,
    slope=True)`` gives g and g' on the rows ``rows``, once a step.  lo is
    the last point with 0 < g < inf (inf is an overflow), hi the last with
    g <= 0 or NaN.  The step moves |g/g'| (at least half a stop width)
    toward the root; where that leaves (lo, hi), or in a march's bracket
    exceeds half a stop width and half the step before the last (rtsafe's
    rule: a flat g cannot make it creep), it bisects, or doubles its reach
    from the one known end.  A row stops at x where g(x) is 0 and g'(x) is
    not (a plateau of zeros bisects on toward its first), or at the
    midpoint once hi - lo <= min(t_tol, 4e-16 max(1, |x|)) or no float
    lies between."""
    out, rows, reach = np.empty(x.size), np.arange(x.size), np.ones(x.size)
    marched = bracket is not None
    lo, hi = bracket if marched else (np.full(x.size, -math.inf),
                                      np.full(x.size, math.inf))
    # the last two step lengths (inf at first), in a march's bracket only
    last = older = np.full(x.size if marched else 0, math.inf)
    for _ in range(_NEWTON_STEPS):
        pos = gx > 0
        lo, hi = np.where(pos & (gx < math.inf), x, lo), np.where(pos, hi, x)
        stop = np.clip(4e-16 * np.abs(x), 4e-16, _T_TOL)  # 4e-16 max(1, |x|)
        # |g/g'| toward the root; a NaN or a zero g' fails the bracket test
        newton = np.abs(gx / slope)
        step = x + np.copysign(np.maximum(newton, 0.5 * stop), gx)
        inside = (lo < step) & (step < hi)
        if marched:  # rtsafe's rule: decreasing roots would move by ulps
            inside &= newton <= 0.5 * np.maximum(older, stop)
        if not inside.all():
            step = np.where(inside, step, np.where(
                hi == math.inf, lo + reach,
                np.where(lo == -math.inf, hi - reach, 0.5 * (lo + hi))))
            reach = np.where(inside, reach, 2.0 * reach)
        if marched:
            last, older = np.abs(step - x), last
        zero = (gx == 0) & (slope != 0)
        done = zero | (hi - lo <= stop) | (np.nextafter(lo, hi) >= hi)
        if done.any():
            # open rows are overwritten
            out[rows] = np.where(zero, x, 0.5 * (lo + hi))
            keep = np.flatnonzero(~done)
            if keep.size == 0:
                return out
            rows, step, lo, hi, reach, last, older = (
                a.take(keep) if a.size else a
                for a in (rows, step, lo, hi, reach, last, older))
        x = step
        gx, slope = g(x, rows, slope=True)
    raise SolverError(
        f"{rows.size} root(s) still open after {_NEWTON_STEPS} Newton steps "
        f"({'march' if marched else 'decreasing'} branch)"
    )


def _step_length(g, slope, big_k):
    """Per row, the root h > 0 of g + g'h - Kh^2/2 <= g(t + h) (g'' >= -K):
    g(t) > 0 leaves g > 0 on [t, t + h).  NaN where K = 0 and g' >= 0."""
    root = np.sqrt(slope * slope + 2.0 * big_k * g)
    h = 2.0 * g / (root - slope)
    rise = slope >= 0
    if rise.any():  # the same root without cancellation; none if K = 0
        h[rise] = ((slope[rise] + root[rise]) / big_k if big_k > 0
                   else math.nan)
    return h


@np.errstate(over="ignore", invalid="ignore")
def _march(space: BoundarySpace, g, t, gt, slope):
    """x, g(x), g'(x), lo, hi with g > 0 on [lo, hi) >= g(hi), bracketing
    each row's first zero of g, marching right from ``t`` (g > 0 on (-inf,
    t]; g, g' there are ``gt``, ``slope``).  x is the end with the shorter
    Newton step |g/g'|.  Each step is fmax(h, floor), h the
    ``_step_length`` for the space's curvature bound K (g > 0 on [t, t +
    h) in exact arithmetic) and the floor t_tol or an ulp of t, so a NaN
    h, where K = 0 and g' >= 0 (only rounding gives that), takes it."""
    big_k = space._curvature_bound
    out, idx = np.empty((5, t.size)), np.arange(t.size)
    for _ in range(_MAX_STEPS):
        if not math.isfinite(gt.sum() + slope.sum()):
            raise _march_failure(space, "non-finite g or slope",
                                 ~np.isfinite(gt + slope), t, gt)
        h = _step_length(gt, slope, big_k)
        t_next = t + np.fmax(h, np.maximum(_T_TOL, _EPS * np.abs(t)))
        g_next, s_next = g(t_next, idx, slope=True)
        cross = g_next <= 0
        # x is lo where g / -g' there is below |g/g'| at hi
        ends = np.stack([t, gt, slope, t_next, g_next, s_next])[:, cross]
        near = ends[1] * np.abs(ends[5]) < -ends[2] * np.abs(ends[4])
        out[:, idx[cross]] = [*np.where(near, ends[:3], ends[3:]), *ends[::3]]
        keep = ~cross
        idx, t, gt, slope = idx[keep], t_next[keep], g_next[keep], s_next[keep]
        if idx.size == 0:
            return out
    raise _march_failure(space, "no sign change within the step cap",
                         np.ones(idx.size, bool), t, gt)


def _march_failure(space, what, bad, t, g):
    i = int(np.argmax(bad))  # the first row where bad
    return SolverError(
        f"march: {what} for {int(bad.sum())} vector(s); last t = "
        f"{t[i]:.17g}, g = {g[i]:.6g}; matrix = {space.a.tolist()}"
    )


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _roots(space: BoundarySpace, v: np.ndarray,
           norm: np.ndarray) -> np.ndarray:
    # v is (n, m), column-major, norm its |v|; v is scaled in place if Q = I.
    # With A = Q S D S^-1 Q^T, p the power of 2 with |v|/p in [1/2, 1) and u
    # = S^-1 Q^T v/p, e^{-tA}v = p Q S x, x_c = e^{-mu_c t} E_c(t) u_c on
    # each cluster c: g = log p + log|S x|.  Of several clusters each keeps
    # its log scale l_c - mu_c t, l_c = log max|u_c|, in g = log p + top +
    # log|S x'|, x'_c = e^{l_c - mu_c t - top} E_c(t) u_c / max|u_c|, top the
    # largest: no stiff cluster overflows.  A Q or S that is I is skipped
    sc, log_norm = space._clusters, np.log(norm)
    one = sc.clusters[0] if len(sc.clusters) == 1 else None
    shift = one.mu if one else 0.0  # g' = -shift - <w, (T - shift I)w>/|w|^2
    # at w = S x', summed over the rows i and entries k of T - shift I
    tri = [(i, np.flatnonzero(row), row) for i, row in
           enumerate(sc.tri - shift * np.eye(space.n)) if row.any()]
    if one and not tri:
        return log_norm / shift  # lam I: g = log|v| - lam t
    p = np.ldexp(1.0, np.frexp(norm)[1])
    z = np.divide(v, p, out=v) if sc.q is None else _mul(sc.q.T, v / p)
    u = z if sc.s is None else _mul(sc.s_inv, z)
    if one:
        parts = [one.prepare(u)]
    else:
        tops = [np.abs(u[c.lo:c.hi]).max(axis=0) for c in sc.clusters]
        parts = [c.prepare(u[c.lo:c.hi] / np.where(top > 0, top, 1.0))
                 for c, top in zip(sc.clusters, tops)]
        scales = np.log(tops)  # -inf where u_c = 0
        mus = np.array([[c.mu] for c in sc.clusters])
    log_p = np.log(p)

    def g(t, rows, slope=False):
        if one:
            top, x = -shift * t, one.apply(t, parts[0].take(rows, axis=-1))
        else:
            e = scales.take(rows, axis=1) - mus * t
            top, x = e.max(axis=0), np.empty((space.n, rows.size))
            for c, y, ec in zip(sc.clusters, parts, e):
                x[c.lo:c.hi] = np.exp(ec - top) * c.apply(
                    t, y.take(rows, axis=-1))
        w = x if sc.s is None else _mul(sc.s, x)
        sq = _sum_rows([row * row for row in w])
        gt = log_p.take(rows) + 0.5 * np.log(sq) + top
        if not slope:
            return gt
        dot = _sum_rows([w[i] * _sum_rows([row[k] * w[k] for k in ks])
                         for i, ks, row in tri])
        return gt, -(shift + dot / sq)

    if not space._decreasing:  # g > 0 on (-inf, start]
        return _solve_marching(space, g, _start(sc, z, log_p))
    # one zero: Newton starts at min(log|v|/re_max, log|v|/re_min), g >= 0
    # there if A is normal, else its doubling reaches the root
    re_min, re_max = space._re_span
    x = np.minimum(log_norm / re_max, log_norm / re_min)
    return _newton(g, x, *g(x, np.arange(x.size), slope=True))


def _start(sc, z: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Per column of the Schur coordinates z of v/p (p > 0), a t with
    |e^{-tA}v| > 1 on (-inf, t]: the largest point below over the diagonal
    blocks b of T that evolve alone, z_b nonzero and z zero on all that b's
    row of T reaches (on a chain, z's last nonzero entry; in a full T, the
    last nonzero block).  |e^{-tA}v| >= |z_b| e^{-mu t} / c, c = 1 on a 1 x
    1 block, 1 + ||B||_F/nu on a complex pair (e^{tB} = cos(nu t) I + sin(nu
    t)/nu B, nu^2 = det B).  Where b and the block above are 1 x 1 (l, l',
    coupling c') and z is zero on all else the one above reaches, that
    entry is e^{-l't}z' + c' f z_b, |f| >= |t| e^{-t min(l, l')} for t < 0,
    above 1 left of -(1 + r|z'|)/(|c'||z_b|), r = 1 if l' = l and e else,
    while (l' - l)|t| <= 1: a second point where the first covers the rest
    (a tiny z_b puts the first far left)."""
    tri, edges = sc.tri, np.array(sc.edges)
    lo, hi = edges[:-1], edges[1:] - 1  # each block's first and last row
    mu = 0.5 * (tri[lo, lo] + tri[hi, hi])  # B = [[p, c], [d, -p]] below
    p, c, d = tri[lo, lo] - mu, tri[lo, hi], tri[hi, lo]
    cost = np.where(hi > lo, 1.0 + np.hypot(np.hypot(p, p), np.hypot(c, d))
                    / np.sqrt(np.maximum(-p * p - c * d, _TINY)), 1.0)
    # still[b]: z is 0 on b and all that b reaches; alone[b]: on all that b
    # reaches; beside[b]: on all that b reaches but b + 1
    links = np.add.reduceat(np.add.reduceat(tri != 0, lo, 0), lo, 1) > 0
    still = np.logical_and.reduceat(z == 0, lo, axis=0)
    alone, beside = np.ones_like(still), np.ones_like(still)
    for b in range(len(lo) - 2, -1, -1):
        beside[b] = still[np.flatnonzero(links[b, b + 2:]) + b + 2].all(axis=0)
        alone[b] = beside[b] & (still[b + 1] | ~links[b, b + 1])
        still[b] &= alone[b]
    z_b = np.hypot(z[lo], np.where((hi > lo)[:, None], z[hi], 0.0))
    start = (log_p + np.log(z_b) - np.log(cost)[:, None]) / mu[:, None]
    up, i = lo[1:] - 1, lo[1:]
    near = -(np.exp(-log_p) + np.where(tri[up, up] == tri[i, i], 1.0,
                                       math.e)[:, None] * np.abs(z[up])) / (
        np.abs(tri[up, i])[:, None] * z_b[1:])
    gap = np.maximum(0.0, tri[up, up] - tri[i, i])[:, None]
    ok = (((hi == lo)[1:] & (hi == lo)[:-1])[:, None] & beside[:-1]
          & (gap * near >= -1.0) & (gap * start[1:] >= -1.0))
    start[1:] = np.where(ok, np.maximum(start[1:], near), start[1:])
    return np.where(alone & ~still, start, -math.inf).max(axis=0)


def _dist_from_diffs(space: BoundarySpace, diffs: np.ndarray) -> np.ndarray:
    diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
    if diffs.shape[1] != space.n:
        raise ValueError(f"expected vectors of dimension {space.n}")
    out = np.zeros(diffs.shape[0])
    cols = np.ascontiguousarray(diffs.T)  # (n, m): one row per coordinate
    del diffs  # the solve reads cols only, and overwrites them
    nz = np.any(cols != 0.0, axis=0)
    # every path squares |v|; outside this range that rounds to 0 or inf
    with np.errstate(over="ignore"):
        sq = _sum_rows(np.square(cols))
    bad = nz & ~((sq >= _TINY) & (sq < np.inf))
    if bad.any():
        raise RangeError(
            f"{int(bad.sum())} nonzero difference vector(s) out of range: "
            f"|y - x| must lie in [{math.sqrt(_TINY):.3g}, "
            f"{math.sqrt(np.finfo(float).max):.3g}]"
        )
    if not nz.any():
        return out
    if not nz.all():  # copy only where a column is zero
        cols, sq = cols[:, nz], sq[nz]
    roots = _roots(space, cols, np.sqrt(sq))
    with np.errstate(over="ignore"):
        d = np.exp(roots)
    bad = ~((d > 0.0) & (d < np.inf))
    if bad.any():
        raise RangeError(
            f"{int(bad.sum())} distance(s) out of range: log D = "
            f"{roots[np.argmax(bad)]:.6g} leaves [-745.1, 709.8], where "
            f"e^t is a positive finite float"
        )
    out[nz] = d
    return out


# ---------------------------------------------------------------------------
# public operations


def dist(space: BoundarySpace, x, y) -> float:
    """D_A(x, y); exactly 0 when x == y."""
    x = check_vector(x, space.n)
    y = check_vector(y, space.n)
    return float(_dist_from_diffs(space, (y - x)[None, :])[0])


def dist_pairs(space: BoundarySpace, x, y) -> np.ndarray:
    """Vectorized D_A over aligned batches of points."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("point batches must have identical shapes")
    return _dist_from_diffs(space, y - x)


def _uniform_box(rng, box_radius, shape):
    """Points of rng uniform in [-box_radius, box_radius]^n, n = shape[-1]."""
    if not 0.0 < box_radius < math.inf:
        raise ValueError(f"box_radius must be finite and positive, not "
                         f"{box_radius!r}")
    return rng.uniform(-box_radius, box_radius, shape)


def quasimetric_constant(space: BoundarySpace, samples: int = 10_000,
                         seed: int = 0, box_radius: float = 5.0) -> float:
    """Empirical lower bound for the quasimetric constant M.

    Sup over sampled triples of D(x,z) / (D(x,y) + D(y,z)); this never
    overestimates the true constant.  A fraction of the triples repeats
    a point (y = z), which realizes ratio 1 exactly, so with a few
    samples the bound is at least 1 as the true constant always is.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    x, y, z = _uniform_box(rng, box_radius, (3, samples, space.n))
    repeat = rng.random(samples) < 0.125
    y[repeat] = z[repeat]
    dxz, dxy, dyz = np.split(
        dist_pairs(space, np.concatenate([x, x, y]), np.concatenate([z, y, z])),
        3)
    den = dxy + dyz
    ok = den > 0
    return float(np.max(dxz[ok] / den[ok], initial=0.0))


def fiber_restriction_check(space: BoundarySpace, p, p2):
    """(D_A(p, p'), D_{A(1)}(x, x')) for two points in a common pi_A fiber.

    The two values are computed by independent solver runs; the fiber
    restriction identity says they agree.
    """
    space._require_single()
    p = check_vector(p, space.n)
    p2 = check_vector(p2, space.n)
    pi_idx = space.projection_indices()
    if not np.array_equal(p[pi_idx], p2[pi_idx]):
        raise ValueError("points are not in a common fiber of pi_A")
    inner = space.interior_indices()
    if inner.size == 0:
        return 0.0, 0.0
    reduced, idx = space._canonical_sub_space(
        [(lam, size - 1, off) for lam, size, off in space.chains if size >= 2]
    )
    return dist(space, p, p2), dist(reduced, p[idx], p2[idx])


def fiber_hausdorff(space: BoundarySpace, y, y2) -> float:
    """Closed-form Hausdorff distance |y - y'|^(1/lam) between pi_A fibers."""
    lam = space._require_single()
    k = space.projection_indices().size
    y = check_vector(y, k)
    y2 = check_vector(y2, k)
    gap = float(np.linalg.norm(y2 - y))
    return gap ** (1.0 / lam)


def _shrinking_search(space: BoundarySpace, p, free_idx, fixed_idx,
                      fixed_vals, width: float, samples: int,
                      seed: int) -> float:
    """Sampled min of D_A(p, q) over q with q[fixed_idx] = fixed_vals.

    Five rounds of uniform samples in a box around the incumbent free
    coordinates (starting at p's), the box shrinking by 0.3 each round.
    """
    rng = np.random.default_rng(seed)
    rounds = 5
    per_round = max(2, samples // rounds)
    center = p[free_idx].astype(float)
    best = math.inf
    for _ in range(rounds):
        free = center + rng.uniform(-width, width, (per_round, free_idx.size))
        free[0] = center  # always evaluate the incumbent
        q = np.tile(p, (per_round, 1))
        q[:, free_idx] = free
        q[:, fixed_idx] = fixed_vals
        d = dist_pairs(space, np.tile(p, (per_round, 1)), q)
        j = int(np.argmin(d))
        if d[j] < best:
            best = float(d[j])
            center = free[j]
        width *= 0.3
    return best


def point_to_fiber(space: BoundarySpace, p, y2, samples: int = 10_000,
                   seed: int = 0) -> float:
    """Sampled distance from p to the fiber pi_A^{-1}(y').

    One-sided: every sample is a genuine distance to a fiber point, so
    the estimate approaches the true value from above.
    """
    lam = space._require_single()
    p = check_vector(p, space.n)
    pi_idx = space.projection_indices()
    y2 = check_vector(y2, pi_idx.size)
    inner = space.interior_indices()
    gap = float(np.linalg.norm(y2 - p[pi_idx]))
    if inner.size == 0 or gap == 0.0:
        q = p.copy()
        q[pi_idx] = y2
        return dist(space, p, q)
    t0 = math.log(gap) / lam
    width = 4.0 * (1.0 + gap) * (1.0 + abs(t0)) ** (
        max(size for _, size, _ in space.chains) - 1)
    return _shrinking_search(space, p, inner, pi_idx, y2, width, samples, seed)


def block_distance_check(space: BoundarySpace, x, y_top,
                         samples: int = 10_000, seed: int = 0):
    """(sampled distance from x to the slab V_1 x .. x V_{k-1} x {y_k},
    D_{A_k}(x_k, y_k)) for a multi-eigenvalue canonical matrix.

    The sampled estimate is one-sided (>= the closed form).
    """
    if space.chains is None:
        raise ValueError("operation requires a canonical block-diagonal matrix")
    lams = sorted({c[0] for c in space.chains})
    if len(lams) < 2:
        raise ValueError("operation requires at least two distinct eigenvalues")
    x = check_vector(x, space.n)
    top = [c for c in space.chains if c[0] == lams[-1]]
    top_idx = np.concatenate(
        [np.arange(off, off + size) for _, size, off in top]
    )
    free_idx = np.setdiff1d(np.arange(space.n), top_idx)
    y = x.copy()
    y[top_idx] = check_vector(y_top, top_idx.size)
    sub, idx = space._canonical_sub_space(top)
    closed = dist(sub, x[idx], y[idx])
    width = 4.0 * (1.0 + closed)
    best = _shrinking_search(space, x, free_idx, top_idx, y[top_idx],
                             width, samples, seed)
    return best, closed
