"""The parabolic visual quasimetric D_A on the boundary R^n.

D_A(x, y) = e^{t*} where t* is the smallest real number with
|e^{-tA}(x - y)| = 1.  The solver locates the smallest zero of
g(t) = log |e^{-tA}(y - x)|, evaluated in closed form by one
g(t, rows, slope) per pipeline:

* canonical A (block diagonal lam*I + N chains): g is (1/2) logsumexp
  over the eigenvalues of log P_lam(t) - 2 lam t, with P_lam(t) =
  |e^{-tN} v_lam|^2 an explicit polynomial (constant on a diagonal,
  lam*I gives log|v|/lam) whose slope comes from the same Horner pass.
  The numerical range of A is the hull of its chains' discs, lam about
  radius cos(pi/(s+1)), so g' <= -min over chains of (lam -
  cos(pi/(s+1))).  Where that is negative, g has exactly one zero:
  Newton's method finds it from min(log|v|/lam_max, log|v|/lam_min),
  inside the bracket of the signs it has seen (``_newton``);
* general A: the decoupled real Schur form A = Q S D S^-1 Q^T
  (``linalg.schur_clusters``, built once per space), where each cluster
  of eigenvalues evolves by its own closed form e^{-mu t} E(t) and keeps
  its own log scale; the clusters are recombined through S inside one
  scaled sum.

Every other space marches: from a closed-form left endpoint (g > 0
left of it), each step goes to the zero of the lower bound g + g'h -
Kh^2/2 (g'' >= -K, K from the norms of A's symmetric and skew parts,
once per space), so it passes no zero, floored at t_tol
(``_march``).  The march hands each bracket, and g, g' at the end with
the shorter Newton step, to the same Newton solve.

t_tol is 1e-12.  All evaluators are pure and vectorized over batches of
difference vectors, column-major: a batch is the (n, m) array of its
vectors, its polynomials, log-sum-exp terms and Schur coordinates (rows,
m) arrays, reduced over axis 0 along contiguous rows, each sum in row
order (``_sum_rows``, ``_mul``).  Every operation acts on each column
alone, so a vector's distance does not depend on the rest of its batch,
bit for bit, and independent batches may share one call.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import RangeError, SolverError
from .linalg import (_canonical_chains, _taylor_terms, check_hypothesis,
                     check_matrix, check_vector, schur_clusters)

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
        check_hypothesis(
            np.array([lam for lam, _, _ in self.chains])
            if self.chains is not None else np.linalg.eigvals(self.a))
        # g' = -<Aw, w>/|w|^2 with w = e^{-tA}v.  The numerical range of a
        # direct sum is the hull of its blocks' ranges, and that of lam*I +
        # N_s is the disc of radius cos(pi/(s+1)) about lam (Haagerup & de
        # la Harpe 1992): where every chain's disc lies right of 0, g
        # strictly decreases
        self._decreasing = self.chains is not None and all(
            lam - math.cos(math.pi / (s + 1)) > 4.0 * _EPS * lam
            for lam, s, _ in self.chains
        )

    # -- structure helpers -------------------------------------------------

    def projection_indices(self):
        """Coordinates of pi_A (single-eigenvalue canonical form only):
        every size-1 chain plus the last coordinate of each longer chain."""
        self._require_single()
        idx = []
        for _, size, off in self.chains:
            idx.append(off + size - 1)
        return np.array(sorted(idx), dtype=int)

    def interior_indices(self):
        """Fiber coordinates: all but the last coordinate of each chain."""
        self._require_single()
        idx = []
        for _, size, off in self.chains:
            idx.extend(range(off, off + size - 1))
        return np.array(idx, dtype=int)

    def _require_single(self):
        if self.chains is None or len({c[0] for c in self.chains}) != 1:
            raise ValueError(
                "operation requires a canonical single-eigenvalue matrix"
            )

    def _canonical_sub_space(self, chains):
        """The canonical space of the (lam, size, offset) ``chains`` and the
        coordinates of this space in its block order: its matrix is A's
        principal submatrix there (each a chain's head)."""
        chains = sorted(chains, key=lambda c: (c[0], -c[1]))
        idx = np.concatenate([np.arange(o, o + s) for _, s, o in chains])
        return BoundarySpace(self.a[np.ix_(idx, idx)]), idx

    # -- solver data, built on first use --------------------------------

    @cached_property
    def _curvature_bound(self) -> float:  # K with g'' >= -K
        return _curvature(self.a)

    @cached_property
    def _clusters(self):  # the decoupled real Schur form of a general A
        return schur_clusters(self.a)


def _curvature(a: np.ndarray) -> float:
    # K with g'' >= -K for every v: with S, Z the symmetric and skew parts
    # of A and w a unit e^{-tA}v, g'' = 2(<Aw, Sw> - <Sw, w>^2) = 2(|p|^2 +
    # <Zw, p>), where p = Sw - <Sw, w>w, as <Zw, w> = 0.  |p| <= rho, half
    # the spread of S's eigenvalues, so g''/2 >= min over s in [0, rho] of
    # s^2 - ||Z||s, and g'' >= -K with K = ||Z||^2/2 (2 rho >= ||Z||) or
    # 2 rho(||Z|| - rho).  K = 0 leaves g convex with slope <= -min eig S
    # < 0, or -tr A/n when S = cI.  Rounding in K moves the bound less
    # than it moves g.
    sym = np.linalg.eigvalsh(0.5 * a + 0.5 * a.T)
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
def _expand(g, t, path):
    """(t, g(t), g'(t)) on every row, t stepped left by 1, 2, 4, ... on
    the rows where g(t) <= 0.  ``g(t, rows, slope=True)`` gives g and g' on
    the rows indexed by ``rows``."""
    t = t.copy()
    gt, slope = g(t, np.arange(t.size), slope=True)
    step = 1.0
    for _ in range(200):
        bad = np.flatnonzero(gt <= 0)
        if bad.size == 0:
            return t, gt, slope
        t[bad] -= step
        gt[bad], slope[bad] = g(t[bad], bad, slope=True)
        step *= 2.0
    raise SolverError(f"failed to bracket from the left ({path} path)")


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The sum over axis 0, row by row from the first.  numpy's sum does
    so too, but sums one column pairwise from 8 rows on: a lone vector
    would round unlike the same vector in a batch."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def _poly_coeffs(chains, v: np.ndarray) -> np.ndarray:
    """Coefficients of |e^{-tN} v|^2 on ``chains``, column-major: ``v`` is
    (n, m), one contiguous row per coordinate, and the result (powers, m),
    one contiguous row per power of t, ascending."""
    max_size = max(size for _, size, _ in chains)
    signed = _taylor_terms(-1.0, max_size)[:, None]  # (-1)^q / q!
    p = np.zeros((2 * max_size - 1, v.shape[1]))
    for _, size, off in chains:
        for i in range(size):
            c = v[off + i:off + size] * signed[:size - i]
            for q in range(size - i):  # p[m] sums c_q c_{m-q}, q rising
                p[q:q + size - i] += c[q] * c
    return p


def _poly_eval(coeffs: np.ndarray, t: np.ndarray, slope=False):
    """Horner evaluation at per-column t of the column-major (powers, m)
    ascending ``coeffs``: each step reads one contiguous row.  With slope,
    also the derivative, from the same pass."""
    acc, der = coeffs[-1].copy(), np.zeros(t.shape)
    for c in coeffs[-2::-1]:
        if slope:
            der = der * t + acc
        acc = acc * t + c
    return (acc, der) if slope else acc


def _roots_canonical(space: BoundarySpace, v: np.ndarray,
                     log_norm: np.ndarray) -> np.ndarray:
    # v is (n, m), column-major, and log_norm its log|v| per column.  g =
    # logsumexp over lam of (log P_lam(t) - 2 lam t) / 2, with P_lam =
    # |e^{-tN} v_lam|^2 on lam's chains: -lam t + log P / 2 for one lam.  A
    # constant P_lam (chains of size 1) has its log taken once; a zero one
    # (v has no part at lam) is -inf
    lams = list(dict.fromkeys(lam for lam, _, _ in space.chains))
    polys = [_poly_coeffs([c for c in space.chains if c[0] == lam], v)
             for lam in lams]
    lam_min, lam_max = min(lams), max(lams)
    if len(lams) == 1 and polys[0].shape[0] == 1:  # lam I: g = log|v| - lam t
        return log_norm / lam_min
    with np.errstate(divide="ignore"):
        logs = np.log(np.stack([p[0] for p in polys]))
    curved = [(j, p) for j, p in enumerate(polys) if p.shape[0] > 1]
    two_lam = 2.0 * np.array(lams)[:, None]

    def g(t, rows, slope=False):
        # with slope, also g' = sum softmax_lam(e) (P_lam'/P_lam - 2 lam) / 2
        e = logs.take(rows, axis=1)
        rate = np.zeros(e.shape) if slope else None  # P_lam'/P_lam
        with np.errstate(divide="ignore"):
            for j, p in curved:
                val = _poly_eval(p.take(rows, axis=1), t, slope)
                if slope:
                    val, der = val
                    np.divide(der, val, out=rate[j], where=val != 0)
                e[j] = np.log(val)
        e -= t * two_lam
        if e.shape[0] == 1:  # the log-sum-exp of one row, bit for bit
            gt, weights, total = 0.5 * e[0], 1.0, 1.0
        else:
            mx = e.max(axis=0)
            weights = np.exp(e - mx)
            total = _sum_rows(weights)
            gt = 0.5 * (mx + np.log(total))
        return ((gt, 0.5 * _sum_rows(weights * (rate - two_lam)) / total)
                if slope else gt)

    if space._decreasing:
        # one zero.  On a diagonal |e^{-tA}v| lies between |v| e^{-t lam_max}
        # and |v| e^{-t lam_min} (ordered by the sign of t), so g >= 0 at
        # the smaller of log|v|/lam_max and log|v|/lam_min: Newton's start
        x = np.minimum(log_norm / lam_max, log_norm / lam_min)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _newton(g, x, *g(x, np.arange(x.size), slope=True),
                           "canonical")
    # the last nonzero entry c = v_l of v on a chain is an entry of
    # e^{-tN}v for every t, so |e^{-tA}v| >= |c| e^{-lam t}: g > 0 left of
    # log|c|/lam.  Where l >= 1, entry l - 1 is v_{l-1} - tc, so g >= -lam
    # t > 0 left of -(1 + |v_{l-1}|)/|c|.  The march starts at the largest
    # of these points (further left if rounding says g <= 0 there)
    start = np.full(v.shape[1], -math.inf)
    with np.errstate(divide="ignore"):
        for lam, size, off in space.chains:
            block = v[off:off + size]
            last = size - 1 - np.argmax(block[::-1] != 0, axis=0)
            entry, prev = np.abs(np.take_along_axis(
                block, np.stack([last, np.maximum(last - 1, 0)]), 0))
            near = np.where(last >= 1, -(1.0 + prev) / entry, -math.inf)
            start = np.maximum(start, np.maximum(np.log(entry) / lam, near))
    return _solve_marching(space, g, start, "canonical")


def _solve_marching(space: BoundarySpace, g, start, path):
    """Each row's first zero of ``g``, g > 0 on (-inf, start]: ``_expand``
    left, ``_march`` to a bracket with g > 0 on [lo, hi) and g(hi) <= 0,
    then ``_newton`` inside it."""
    x, gx, slope, lo, hi = _march(space, path, g, *_expand(g, start, path))
    return _newton(g, x, gx, slope, path, (lo, hi))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _newton(g, x, gx, slope, path, bracket=None):
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
        f"({path} path)"
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
def _march(space: BoundarySpace, path, g, t, gt, slope):
    """x, g(x), g'(x), lo, hi with g > 0 on [lo, hi) >= g(hi), bracketing
    each row's first zero of g, marching right from ``t`` (g > 0 on (-inf,
    t]; g, g' there are ``gt``, ``slope``; g'' >= -K, the space's curvature
    bound).  x is the end with the shorter Newton step |g/g'|.

    ``g(t, rows, slope=True)`` gives g and g' on the rows ``rows``.  Each
    step is fmax(h, floor), h the ``_step_length`` (g > 0 on [t, t + h)
    in exact arithmetic) and the floor t_tol or an ulp of t, so a NaN h,
    where K = 0 and g' >= 0 (only rounding gives that), takes the floor.
    """
    big_k = space._curvature_bound
    out, idx = np.empty((5, t.size)), np.arange(t.size)
    for _ in range(_MAX_STEPS):
        if not math.isfinite(gt.sum() + slope.sum()):
            raise _march_failure(path, space, "non-finite g or slope",
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
    raise _march_failure(path, space, "no sign change within the step cap",
                         np.ones(idx.size, bool), t, gt)


def _march_failure(path, space, what, bad, t, g):
    i = int(np.argmax(bad))  # the first row where bad
    return SolverError(
        f"{path} path: {what} for {int(bad.sum())} vector(s); last t = "
        f"{t[i]:.17g}, g = {g[i]:.6g}; matrix = {space.a.tolist()}"
    )


def _nonzero_cols(m: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.any(m != 0, axis=0))


def _mul(m: np.ndarray, x: np.ndarray, cols=None) -> np.ndarray:
    """m @ x for column-major x, summed over m's nonzero columns (``cols``,
    found here if not given) in order: unlike BLAS, each column of the
    result is independent of the batch."""
    out = np.zeros((m.shape[0], x.shape[1]), np.result_type(m, x))
    for k in _nonzero_cols(m) if cols is None else cols:
        out += m[:, k, None] * x[k]
    return out


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _roots_general(space: BoundarySpace, v: np.ndarray) -> np.ndarray:
    # v is (n, m), column-major.  With A = Q S D S^-1 Q^T and u = S^-1 Q^T v,
    # e^{-tA}v = Q S x, x_c = e^{-mu_c t} E_c(t) u_c on each cluster c.  x_c
    # keeps its own log scale l_c - mu_c t, l_c = log max|u_c|: g = log
    # max|v| + top + log|S x'|, x'_c = e^{l_c - mu_c t - top} E_c(t) u_c /
    # max|u_c|, top the largest scale, so no stiff cluster overflows
    sc = space._clusters
    peak = np.abs(v).max(axis=0)
    z = _mul(sc.q.T, v / peak)  # Schur coordinates
    u = _mul(sc.s_inv, z)
    scales, parts = [], []
    for c in sc.clusters:
        top = np.abs(u[c.lo:c.hi]).max(axis=0)
        scales.append(np.log(top))  # -inf where u_c = 0
        unit = u[c.lo:c.hi] / np.where(top > 0, top, 1.0)
        parts.append(np.stack([_mul(b, unit) for b in c.basis]))
    scales, log_peak = np.array(scales), np.log(peak)
    mus = np.array([[c.mu] for c in sc.clusters])
    s_cols, tri_cols = _nonzero_cols(sc.s), _nonzero_cols(sc.tri)

    def g(t, rows, slope=False):
        # with slope, also g' = -<w, Tw>/|w|^2 at w = S x'
        e = scales.take(rows, axis=1) - mus * t
        top = e.max(axis=0)
        x = np.empty((space.n, rows.size))
        for c, y, ec in zip(sc.clusters, parts, e):
            acc = _sum_rows(c.coefficients(t)[:, None] * y.take(rows, axis=2))
            x[c.lo:c.hi] = np.exp(ec - top) * acc.real
        w = _mul(sc.s, x, s_cols)
        sq = _sum_rows(w * w)
        gt = log_peak.take(rows) + top + 0.5 * np.log(sq)
        if not slope:
            return gt
        return gt, -_sum_rows(w * _mul(sc.tri, w, tri_cols)) / sq

    return _solve_marching(space, g, _general_start(sc, z, log_peak),
                           "general")


def _general_start(sc, z: np.ndarray, log_peak: np.ndarray) -> np.ndarray:
    """Per column of the Schur coordinates z of v/max|v|, a t with
    |e^{-tA}v| > 1 on (-inf, t].  The last diagonal block b of T where z
    is nonzero evolves alone: |e^{-tA}v| >= |z_b| e^{-mu t} / c, c = 1 on a
    1 x 1 block and 1 + ||B||_F/nu on a complex pair (e^{tB} = cos(nu t) I
    + sin(nu t)/nu B, nu^2 = det B).  Where b and the block above are 1 x 1
    (eigenvalues l, l', coupling c'), that entry is e^{-l't}z' + c' f z_b,
    |f| >= |t| e^{-t min(l, l')} for t < 0: it exceeds 1 left of -(1 +
    e|z'|)/(|c'||z_b|) while (l' - l)|t| <= 1, a second point kept where
    the first covers the rest (a tiny z_b puts the first far left)."""
    edges, tri, cols = np.array(sc.edges), sc.tri, np.arange(z.shape[1])
    mu, cost = np.empty(len(edges) - 1), np.ones(len(edges) - 1)
    for b, (i, j) in enumerate(zip(edges, edges[1:])):
        mu[b] = np.trace(tri[i:j, i:j]) / (j - i)
        if j - i == 2:  # B = [[p, c], [d, -p]], ||B|| <= ||B||_F
            p, c, d = tri[i, i] - mu[b], tri[i, j - 1], tri[i + 1, i]
            cost[b] += math.hypot(p, p, c, d) / math.sqrt(
                max(-p * p - c * d, _TINY))
    nonzero = np.stack([np.any(z[i:j] != 0, axis=0)
                        for i, j in zip(edges, edges[1:])])
    last = len(mu) - 1 - np.argmax(nonzero[::-1], axis=0)
    i, two = edges[last], np.diff(edges)[last] == 2
    z_b = np.hypot(z[i, cols], np.where(two, z[np.minimum(i + 1, len(tri) - 1),
                                                  cols], 0.0))
    start = (log_peak + np.log(z_b) - np.log(cost[last])) / mu[last]
    up = np.maximum(i - 1, 0)
    near = -(np.exp(-log_peak) + math.e * np.abs(z[up, cols])) / (
        np.abs(tri[up, i]) * z_b)
    gap = np.maximum(0.0, tri[up, up] - tri[i, i])
    ok = (~two & (last >= 1) & (np.diff(edges)[last - 1] == 1)
          & (gap * near >= -1.0) & (gap * start >= -1.0))
    return np.where(ok, np.maximum(start, near), start)


def _dist_from_diffs(space: BoundarySpace, diffs: np.ndarray) -> np.ndarray:
    diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
    if diffs.shape[1] != space.n:
        raise ValueError(f"expected vectors of dimension {space.n}")
    out = np.zeros(diffs.shape[0])
    cols = np.ascontiguousarray(diffs.T)  # (n, m): one row per coordinate
    del diffs  # the solve reads cols only
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
    roots = (_roots_general(space, cols) if space.chains is None
             else _roots_canonical(space, cols, np.log(np.sqrt(sq))))
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
    pts = rng.uniform(-box_radius, box_radius, (3, samples, space.n))
    x, y, z = pts
    repeat = rng.random(samples) < 0.125
    y[repeat] = z[repeat]
    dxz, dxy, dyz = np.split(
        dist_pairs(space, np.concatenate([x, x, y]), np.concatenate([z, y, z])),
        3)
    den = dxy + dyz
    ok = den > 0
    if not ok.any():
        return 0.0
    return float(np.max(dxz[ok] / den[ok]))


def _single_lambda(space: BoundarySpace) -> float:
    space._require_single()
    return space.chains[0][0]


def fiber_restriction_check(space: BoundarySpace, p, p2):
    """(D_A(p, p'), D_{A(1)}(x, x')) for two points in a common pi_A fiber.

    The two values are computed by independent solver runs; the fiber
    restriction identity says they agree.
    """
    _single_lambda(space)
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
    lam = _single_lambda(space)
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
    lam = _single_lambda(space)
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
