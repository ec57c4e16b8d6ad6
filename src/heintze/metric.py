"""The parabolic visual quasimetric D_A on the boundary R^n.

D_A(x, y) = e^{t*} where t* is the smallest real number with
|e^{-tA}(x - y)| = 1.  The solver locates the smallest zero of
g(t) = log |e^{-tA}(y - x)|:

* canonical A (block diagonal lam*I + N chains): g is the closed form
  (1/2) logsumexp over the eigenvalues of log P_lam(t) - 2 lam t, with
  P_lam(t) = |e^{-tN} v_lam|^2 an explicit polynomial (constant on a
  diagonal, lam*I gives log|v|/lam).  The numerical range of A is the
  hull of its chains' discs, lam about radius cos(pi/(s+1)), so g' <=
  -min over chains of (lam - cos(pi/(s+1))).  Where that is negative, g
  has exactly one zero, and log|v|/lam_max, log|v|/lam_min start its
  bracket; elsewhere a march on the same g, from a closed-form left
  endpoint and with the step rule of the general march below, finds the
  bracket [t, t + s] of the first crossing.  Chandrupatla's method
  (inverse quadratic interpolation, bisection where it is unsafe) then
  shrinks each bracket g(lo) > 0 >= g(hi) to hi - lo <= min(t_tol,
  4e-16 max(1, |lo|)) and returns its midpoint;
* general A: a left endpoint t_lo with g > 0 on (-inf, t_lo], certified
  by g(t_lo) and Van Loan's Schur-form bound on ||e^{-uA}||, then a march
  whose steps never pass a zero because g'' >= -K, with K from the norms
  of A's symmetric and skew parts.  In real Schur coordinates A = Q T
  Q^T (``linalg.real_schur``), a step of h <= 1/(2||A||) goes exactly to
  the zero of the quadratic lower bound (a Taylor sum of e^{-hT}); a
  longer one applies the largest rung <= h of a cached dyadic ladder of
  e^{-2^k T}, Taylor sums squared with their diagonal and first
  superdiagonal reset to closed forms (``linalg.schur_exp``).  A
  certified step that ends at g <= 0 ends at the zero up to rounding; an
  uncertified step of the bottom rung (<= t_tol) that crosses gives its
  midpoint.

t_tol is 1e-12.  All evaluators are pure and vectorized over batches of
difference vectors.  On a canonical A every operation acts row by row,
so a row's distance does not depend on the rest of its batch, bit for
bit, and independent batches may share one call.  The general march
multiplies rows through BLAS, whose rounding depends on the batch: there
a row's root may move by that rounding, within t_tol.  Results for a
given batch are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolationError, RangeError, SolverError
from .linalg import (_canonical_chains, _taylor_terms, check_matrix,
                     check_vector, complex_schur, real_schur, schur_exp,
                     taylor_sum, taylor_table)
from .spectral import DEFAULT_CLUSTER_TOL

_T_TOL = 1e-12
_CERT_MARGIN = 0.05
# log of the largest norm ||e^{sA}|| a ladder rung may reach
_SAFE_LOG = 600.0
_MAX_STEPS = 100_000
# steps of the bracket refiner: the cap, and the steps before a bracket
# must shrink at least half as fast as under bisection
_REFINE_STEPS = 200
_SLACK = 8
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
        low = eigs[eigs.real <= DEFAULT_CLUSTER_TOL]
        if low.size:
            raise HypothesisViolationError(
                f"eigenvalue {low[0]:.6g} has real part <= 1e-06; the "
                "positive-real-part hypothesis fails")
        # g' = -<Aw, w>/|w|^2 with w = e^{-tA}v.  The numerical range of a
        # direct sum is the hull of its blocks' ranges, and that of lam*I +
        # N_s is the disc of radius cos(pi/(s+1)) about lam (Haagerup & de
        # la Harpe 1992): where every chain's disc lies right of 0, g
        # strictly decreases
        self._decreasing = self.chains is not None and all(
            lam - math.cos(math.pi / (s + 1)) > 4.0 * _EPS * lam
            for lam, s, _ in self.chains
        )
        self._ladder = None

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

    # -- march machinery -----------------------------------------------------

    def _march_ladder(self) -> "_Ladder":
        if self._ladder is None:
            self._ladder = _build_ladder(self.a)
        return self._ladder


@dataclass(frozen=True)
class _Ladder:
    """Matrices of the general march, built once per space.

    The march works in real Schur coordinates A = Q T Q^T (``q``, ``tri``),
    where |e^{-tA}v| = |e^{-tT} Q^T v|: there a rung scales each invariant
    subspace by its own eigenvalues, so the rounding error of a stiff
    component does not land in a slow one.  ``down[k]`` is
    e^{-2^(k_lo+k) T}, the marching steps; the bottom rung is the largest
    power of two <= t_tol.  ``up[j]`` is e^{2^(j_lo+j) T}, the candidate
    left endpoints t = -2^(j_lo+j).  ``g(t) > cert`` certifies g > 0 on
    (-inf, t].  ``curvature`` is K with g'' >= -K.  A step of length h <=
    ``window`` = 1 / (2||T||) is applied exactly, as sum_k (h/window)^k
    ``taylor[k]`` with ``taylor[k]`` = (-window T)^k / k!, k <= 16; the
    rungs are the same sums, squared (``linalg.schur_exp``).
    """

    q: np.ndarray
    tri: np.ndarray
    k_lo: int
    j_lo: int
    down: np.ndarray
    up: np.ndarray
    cert: float
    curvature: float
    window: float
    taylor: np.ndarray


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


def _build_ladder(a: np.ndarray) -> _Ladder:
    # Van Loan: with the Schur form A = Q(D + N)Q*, lam = min Re(eig) and
    # u >= 0, ||e^{-uA}|| <= e^{-u lam} S(u), S(u) = sum_{k<n} (u||N||)^k/k!.
    # As e^{-(t-u)A}v = e^{uA} e^{-tA}v, g(t - u) >= g(t) + lam u - log S(u).
    # Bounding S(u) by n times its largest term and minimising each
    # lam u - k log(u||N||) + log k! over u (at u = k/lam) gives
    # lam u - log S(u) >= c for every u, so g(t) > margin - c certifies
    # g > 0 on (-inf, t].
    n = a.shape[0]
    curvature = _curvature(a)
    tri, q = real_schur(a)
    schur = complex_schur(tri)
    re = np.diag(schur).real
    lam = re.min()
    nil = np.linalg.norm(np.triu(schur, 1), 2)
    c = -math.log(n) + min([0.0] + [
        k - k * math.log(k * nil / lam) + math.lgamma(k + 1)
        for k in range(1, n) if nil > 0
    ])

    k_lo = math.frexp(_T_TOL)[1] - 1
    ks = np.arange(k_lo, 64)
    s = np.ldexp(1.0, ks)
    # log S(s), a log-sum-exp over k of k log(s||N||) - log k!
    log_s = 0.0 if nil == 0 else np.logaddexp.reduce(np.arange(n) * np.log(
        s * nil)[:, None] - [math.lgamma(k + 1) for k in range(n)], axis=1)
    # the largest rung keeps ||e^{sA}|| <= e^{s max Re(eig)} S(s) finite
    k_hi = int(ks[s * re.max() + log_s <= _SAFE_LOG].max())
    down = np.ldexp(1.0, np.arange(k_lo, k_hi + 1))
    # the first left endpoint keeps 2^j_lo max Re(eig) <= 2: further
    # left, a stiff component grows so large that its rounding error
    # swamps the slow ones (on R.diag(1, 350).R^T, T's off-diagonal of
    # 3e-14 put 1e136 into the slow coordinate at t = -1)
    j_lo = min(0, math.floor(1.0 - math.log2(re.max())))
    up = np.ldexp(1.0, np.arange(j_lo, k_hi + 1))
    window = 0.5 / np.linalg.norm(a, 2)
    taylor = taylor_table(tri, window)
    mats = schur_exp(tri, np.concatenate([-down, up]), window, taylor)
    return _Ladder(
        q=q,
        tri=tri,
        k_lo=k_lo,
        j_lo=j_lo,
        down=mats[: down.size],
        up=mats[down.size :],
        cert=_CERT_MARGIN - c,
        curvature=curvature,
        window=window,
        taylor=taylor,
    )


# ---------------------------------------------------------------------------
# root finding


def _expand(g, t, sign, path):
    """g(t) on every row, then t stepped by sign * 1, 2, 4, ... on the rows
    where g(t) lies on the root's side: g <= 0 going left (sign < 0), g > 0
    going right.  ``g(t, rows)`` evaluates the rows indexed by ``rows``.
    Returns the final t and g(t)."""
    t = t.copy()
    gt = g(t, np.arange(t.size))
    step = 1.0
    for _ in range(200):
        bad = np.flatnonzero((gt <= 0) if sign < 0 else (gt > 0))
        if bad.size == 0:
            return t, gt
        t[bad] += sign * step
        gt[bad] = g(t[bad], bad)
        step *= 2.0
    side = "left" if sign < 0 else "right"
    raise SolverError(f"failed to bracket from the {side} ({path} path)")


def _refine(g, lo, hi, g_lo, g_hi, t_tol, path):
    """Shrink brackets with g(lo) > 0 >= g(hi), g monotone on each, until
    hi - lo <= min(t_tol, 4e-16 max(1, |lo|)) (machine precision when that
    is finer than t_tol, which stays the guaranteed bound) or no float lies
    between lo and hi.  Returns the final (lo, hi).

    Chandrupatla's method (1997): each step evaluates g at one point inside
    the bracket (``_interpolation_point``), and that point replaces the
    bracket end of its sign.  After _SLACK steps a bracket must shrink at
    least half as fast as under bisection, or the step bisects it, so no
    row takes more than _SLACK + 2 steps beyond twice those of bisection.
    ``g(t, rows)`` evaluates the rows indexed by ``rows``; rows leave the
    loop as their brackets close.
    """
    out_lo, out_hi = lo.copy(), hi.copy()
    rows = np.arange(lo.size)
    # new_lo: the newest point is lo; x3: the end it replaced.  x3 = lo at
    # the start makes the first step a bisection
    new_lo, x3, f3, width0 = np.zeros(lo.size, bool), lo, g_lo, hi - lo
    for step in range(_REFINE_STEPS):
        width, mid = hi - lo, 0.5 * (lo + hi)
        stop = np.minimum(t_tol, 4e-16 * np.maximum(1.0, np.abs(lo)))
        # a midpoint that rounds to an end leaves no float between them
        done = (width <= stop) | (mid <= lo) | (mid >= hi)
        if done.any():
            out_lo[rows[done]], out_hi[rows[done]] = lo[done], hi[done]
            keep = ~done
            (rows, lo, hi, g_lo, g_hi, new_lo, x3, f3, width0, width, mid,
             stop) = (a[keep] for a in (rows, lo, hi, g_lo, g_hi, new_lo, x3,
                                        f3, width0, width, mid, stop))
            if rows.size == 0:
                return out_lo, out_hi
        slow = width > width0 * 2.0 ** ((_SLACK - step) / 2)
        x = np.where(slow, mid,
                     _interpolation_point(lo, hi, g_lo, g_hi, new_lo, x3, f3,
                                          stop))
        x = np.where((lo < x) & (x < hi), x, mid)
        gx = g(x, rows)
        new_lo = gx > 0
        x3, f3 = np.where(new_lo, lo, hi), np.where(new_lo, g_lo, g_hi)
        lo, g_lo = np.where(new_lo, x, lo), np.where(new_lo, gx, g_lo)
        hi, g_hi = np.where(new_lo, hi, x), np.where(new_lo, g_hi, gx)
    raise SolverError(
        f"{rows.size} root bracket(s) still open after {_REFINE_STEPS} "
        f"steps ({path} path)"
    )


def _interpolation_point(lo, hi, g_lo, g_hi, new_lo, x3, f3, stop):
    """The next point of Chandrupatla's method in each bracket [lo, hi]:
    the inverse quadratic interpolant through the newest point x1 (lo where
    ``new_lo``), the other end x2 and the end x1 replaced, x3, where that
    interpolant is monotone across the bracket, else the midpoint.  It
    stays half a stop width, and an ulp of x1 (eps |x1|), inside both
    ends."""
    x1, f1 = np.where(new_lo, lo, hi), np.where(new_lo, g_lo, g_hi)
    x2, f2 = np.where(new_lo, hi, lo), np.where(new_lo, g_hi, g_lo)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        t = np.where(iqi, f1 / (f2 - f1) * f3 / (f2 - f3)
                     + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1)
                     * f2 / (f3 - f2), 0.5)
        # an exact zero of g at hi puts every interpolant there: while g
        # stays 0 there, double the step left from hi instead
        zero = ~new_lo & (f1 == 0) & (f3 == 0)
        t = np.where(zero, 2.0 * (x3 - x1) / (x1 - x2), t)
    # fmax/fmin, unlike clip, also send a NaN t to an end
    edge = np.maximum(0.5 * stop, _EPS * np.abs(x1)) / (hi - lo)
    t = np.fmin(np.fmax(t, edge), 1.0 - edge)
    return x1 + t * (x2 - x1)


def _poly_coeffs(chains, v: np.ndarray) -> np.ndarray:
    """Coefficients (ascending) of |e^{-tN} v|^2 on ``chains``, per row."""
    max_size = max(size for _, size, _ in chains)
    signed = _taylor_terms(-1.0, max_size)[:, None]  # (-1)^q / q!
    vt = np.ascontiguousarray(v.T)  # one contiguous row per coordinate
    p = np.zeros((2 * max_size - 1, v.shape[0]))  # and per power of t
    for _, size, off in chains:
        for i in range(size):
            c = vt[off + i:off + size] * signed[:size - i]
            for q in range(size - i):  # p[m] sums c_q c_{m-q}, q rising
                p[q:q + size - i] += c[q] * c
    return np.ascontiguousarray(p.T)


def _poly_eval(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Horner evaluation of per-row ascending coefficients at per-row t."""
    acc = np.zeros(t.shape)
    for k in range(coeffs.shape[1] - 1, -1, -1):
        acc = acc * t + coeffs[:, k]
    return acc


def _roots_canonical(space: BoundarySpace, v: np.ndarray) -> np.ndarray:
    # g = logsumexp over lam of (log P_lam(t) - 2 lam t) / 2, with P_lam =
    # |e^{-tN} v_lam|^2 on lam's chains: -lam t + log P / 2 for one lam.  A
    # constant P_lam (chains of size 1) has its log taken once; a zero one
    # (v has no part at lam) is -inf
    lams = list(dict.fromkeys(lam for lam, _, _ in space.chains))
    polys = [_poly_coeffs([c for c in space.chains if c[0] == lam], v)
             for lam in lams]
    lam_min, lam_max = min(lams), max(lams)
    log_norm = np.log(np.linalg.norm(v, axis=1))
    if len(lams) == 1 and polys[0].shape[1] == 1:  # lam I: g = log|v| - lam t
        return log_norm / lam_min
    with np.errstate(divide="ignore"):
        logs = np.log(np.stack([p[:, 0] for p in polys], axis=1))
    curved = [(j, p, p[:, 1:] * np.arange(1, p.shape[1]))
              for j, p in enumerate(polys) if p.shape[1] > 1]
    two_lam = 2.0 * np.array(lams)

    def g(t, rows, slope=False):
        # with slope, also g' = sum softmax_lam(e) (P_lam'/P_lam - 2 lam) / 2
        e = logs.take(rows, axis=0)
        rate = np.zeros(e.shape) if slope else None  # P_lam'/P_lam
        with np.errstate(divide="ignore"):
            for j, p, dp in curved:
                val = _poly_eval(p.take(rows, axis=0), t)
                e[:, j] = np.log(val)
                if slope:
                    np.divide(_poly_eval(dp.take(rows, axis=0), t), val,
                              out=rate[:, j], where=val != 0)
        e -= t[:, None] * two_lam
        if e.shape[1] == 1:  # the log-sum-exp of one column, bit for bit
            gt, weights, total = 0.5 * e[:, 0], 1.0, 1.0
        else:
            mx = e.max(axis=1)
            weights = np.exp(e - mx[:, None])
            total = weights.sum(axis=1)
            gt = 0.5 * (mx + np.log(total))
        return ((gt, 0.5 * (weights * (rate - two_lam)).sum(axis=1) / total)
                if slope else gt)

    if space._decreasing:
        # one zero.  On a diagonal |e^{-tA}v| lies between |v| e^{-t lam_max}
        # and |v| e^{-t lam_min} (ordered by the sign of t), so g >= 0 at
        # the smaller of log|v|/lam_max and log|v|/lam_min and g <= 0 at
        # the larger.  With one eigenvalue the two coincide, and the
        # bracket starts one unit wide; on longer chains, or where rounding
        # puts g on the wrong side, the ends expand
        a, b = log_norm / lam_max, log_norm / lam_min
        return _solve_decreasing(g, np.minimum(a, b),
                                 np.maximum(a, b) + (lam_min == lam_max),
                                 "canonical")
    # the last nonzero entry c = v_l of v on a chain is an entry of
    # e^{-tN}v for every t, so |e^{-tA}v| >= |c| e^{-lam t}: g > 0 left of
    # log|c|/lam.  Where l >= 1, entry l - 1 is v_{l-1} - tc, so g >= -lam
    # t > 0 left of -(1 + |v_{l-1}|)/|c|.  The march starts at the largest
    # of these points (further left if rounding says g <= 0 there)
    start = np.full(v.shape[0], -math.inf)
    with np.errstate(divide="ignore"):
        for lam, size, off in space.chains:
            block = v[:, off:off + size]
            last = size - 1 - np.argmax(block[:, ::-1] != 0, axis=1)
            entry, prev = np.abs(np.take_along_axis(
                block, np.stack([last, np.maximum(last - 1, 0)], 1), 1)).T
            near = np.where(last >= 1, -(1.0 + prev) / entry, -math.inf)
            start = np.maximum(start, np.maximum(np.log(entry) / lam, near))
    lo = _expand(g, start, -1.0, "canonical")[0]
    lo, hi, g_lo, g_hi = _march(space, g, lo)
    lo, hi = _refine(g, lo, hi, g_lo, g_hi, _T_TOL, "canonical")
    return 0.5 * (lo + hi)


def _solve_decreasing(g, left, right, path):
    """Each row's one zero of ``g``: ``_expand`` widens [left, right] to
    g(lo) > 0 >= g(hi), ``_refine`` shrinks it; its midpoint."""
    lo, g_lo = _expand(g, left, -1.0, path)
    hi, g_hi = _expand(g, right, 1.0, path)
    lo, hi = _refine(g, lo, hi, g_lo, g_hi, _T_TOL, path)
    return 0.5 * (lo + hi)


def _step_length(g, slope, big_k):
    """Per row, the root h > 0 of g + g'h - Kh^2/2 <= g(t + h) (g'' >= -K):
    g(t) > 0 leaves g > 0 on [t, t + h).  inf where K = 0 and g' >= 0."""
    root = np.sqrt(slope * slope + 2.0 * big_k * g)
    h = 2.0 * g / (root - slope)
    rise = slope > 0
    if rise.any():  # the same root without cancellation; none if K = 0
        h[rise] = ((slope[rise] + root[rise]) / big_k if big_k > 0
                   else math.inf)
    return h


@np.errstate(over="ignore", invalid="ignore")
def _march(space: BoundarySpace, g, lo):
    """lo, hi, g(lo) > 0, g(hi) <= 0 bracketing each row's first zero of
    ``g``, marching right from ``lo`` (g > 0 on (-inf, lo]) by
    ``_step_length`` floored at t_tol (or an ulp of t, where coarser)."""
    out, idx, t = np.empty((4, lo.size)), np.arange(lo.size), lo
    gt, slope = g(t, idx, slope=True)
    big_k = _curvature(space.a)
    for _ in range(_MAX_STEPS):
        if not math.isfinite(gt.sum() + slope.sum()):
            raise _march_failure("canonical", space, "non-finite g or slope",
                                 ~np.isfinite(gt + slope), t, gt)
        h = _step_length(gt, slope, big_k)
        t_next = t + np.fmax(h, np.maximum(_T_TOL, _EPS * np.abs(t)))
        g_next, slope = g(t_next, idx, slope=True)
        cross = g_next <= 0
        out[:, idx[cross]] = np.stack([t, t_next, gt, g_next])[:, cross]
        keep = ~cross
        idx, t, gt, slope = idx[keep], t_next[keep], g_next[keep], slope[keep]
        if idx.size == 0:
            return tuple(out)
    raise _march_failure("canonical", space,
                         "no sign change within the step cap",
                         np.ones(idx.size, bool), t, gt)


def _exact_step(lad, h, w):
    """Row i of the result is e^{-h[i] T} w[i], for h[i] <= lad.window."""
    mats = taylor_sum(lad.taylor, h / lad.window)
    return np.einsum("rij,rj->ri", mats, w)


def _log_norm(w):
    """log |w| per row.  The norm squares |w|, so a row whose square leaves
    the float range (|w| above 1.34e154) is scaled by its largest entry
    first.  Callers ignore overflow and divide-by-zero warnings."""
    g = np.log(np.linalg.norm(w, axis=1))
    if not math.isfinite(g.sum()):  # logs sum far below overflow
        odd = np.flatnonzero(~np.isfinite(g))
        s = np.abs(w[odd]).max(axis=1)
        keep = np.isfinite(s) & (s > 0)
        odd, s = odd[keep], s[keep]
        g[odd] = np.log(s) + np.log(
            np.linalg.norm(w[odd] / s[:, None], axis=1))
    return g


def _march_failure(path, space, what, bad, t, g):
    i = int(np.argmax(bad))  # the first row where bad
    return SolverError(
        f"{path} path: {what} for {int(bad.sum())} vector(s); last t = "
        f"{t[i]:.17g}, g = {g[i]:.6g}; matrix = {space.a.tolist()}"
    )


@np.errstate(over="ignore", divide="ignore")
def _roots_general(space: BoundarySpace, v: np.ndarray) -> np.ndarray:
    """Each row's root by the march in Schur coordinates."""
    lad = space._march_ladder()
    m = v.shape[0]

    v = v @ lad.q  # rows Q^T v: Schur coordinates
    # certified left endpoint: the first of t = 0, -1, -2, -4, ... with
    # g(t) > cert; starting near the root keeps rounding errors in w from
    # being amplified by the non-normal part of e^{-tA}
    t = np.zeros(m)
    w = v.copy()
    g = _log_norm(w)
    for j, rung in enumerate(lad.up):
        low = np.flatnonzero(~(g > lad.cert))
        if low.size == 0:
            break
        t[low] = -np.ldexp(1.0, lad.j_lo + j)
        w[low] = v[low] @ rung.T
        g[low] = _log_norm(w[low])
    bad = ~((g > lad.cert) & np.isfinite(g))
    if bad.any():
        raise _march_failure("general", space, "no certified left endpoint",
                             bad, t, g)

    # march: g(t + h) >= g + g' h - K h^2 / 2 > 0 for h below its root, so
    # a step s no longer than that root skips no zero: in exact arithmetic
    # g > 0 on [t, t + s).  Within the exact window s is that root itself;
    # longer steps take the largest rung <= h.  A computed g(t + s) <= 0
    # after such a step is rounding, and the zero lies at t + s.  Where h
    # is below the bottom rung (t_tol or finer), the step is that rung and
    # may cross anywhere in [t, t + s]: the root is its midpoint.
    roots = np.empty(m)
    idx = np.arange(m)
    top = lad.down.shape[0] - 1
    bottom = math.ldexp(1.0, lad.k_lo)
    for _ in range(_MAX_STEPS):
        u = w
        if g.max() > _SAFE_LOG / 2:  # w.w may overflow: use unit rows
            u = w * np.exp(-g)[:, None]
        slope = (-np.einsum("ij,ij->i", u, u @ lad.tri.T)
                 / np.einsum("ij,ij->i", u, u))
        if not math.isfinite(slope.sum()):
            raise _march_failure("general", space, "non-finite slope",
                                 ~np.isfinite(slope), t, g)
        h = _step_length(g, slope, lad.curvature)
        k = np.clip(np.frexp(h)[1] - 1 - lad.k_lo, 0, top)
        if not 0.0 < h.min() <= h.max() < math.inf:  # NaN fails too
            k[~((h > 0) & (h < math.inf))] = 0  # no certified step: bottom rung
        exact = (h >= bottom) & (h <= lad.window)
        step = np.where(exact, h, np.ldexp(1.0, lad.k_lo + k))
        w_next = np.empty_like(w)
        w_next[exact] = _exact_step(lad, h[exact], w[exact])
        w_next[~exact] = np.einsum("rij,rj->ri", lad.down[k[~exact]],
                                   w[~exact])
        g_next = _log_norm(w_next)
        t_next = t + step
        cross = g_next <= 0
        # NaN h fails the certificate too
        roots[idx[cross]] = np.where(h >= step, t_next,
                                     t_next - 0.5 * bottom)[cross]
        keep = ~cross
        idx, t, w, g = idx[keep], t_next[keep], w_next[keep], g_next[keep]
        if idx.size == 0:
            return roots
    raise _march_failure("general", space,
                         "no sign change within the step cap",
                         np.ones(idx.size, bool), t, g)


def _dist_from_diffs(space: BoundarySpace, diffs: np.ndarray) -> np.ndarray:
    diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
    if diffs.shape[1] != space.n:
        raise ValueError(f"expected vectors of dimension {space.n}")
    out = np.zeros(diffs.shape[0])
    nz = np.any(diffs != 0.0, axis=1)
    # every path squares |v|; outside this range that rounds to 0 or inf
    sq = np.einsum("ij,ij->i", diffs, diffs)
    bad = nz & ~((sq >= _TINY) & (sq < np.inf))
    if bad.any():
        raise RangeError(
            f"{int(bad.sum())} nonzero difference vector(s) out of range: "
            f"|y - x| must lie in [{math.sqrt(_TINY):.3g}, "
            f"{math.sqrt(np.finfo(float).max):.3g}]"
        )
    if not nz.any():
        return out
    v = diffs[nz]
    roots = (_roots_general(space, v) if space.chains is None
             else _roots_canonical(space, v))
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
