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
  bracket; elsewhere the march below, on the closed-form ladder, finds
  the bracket [t, t + s] of the first crossing.  Chandrupatla's method
  (inverse quadratic interpolation, bisection where it is unsafe) then
  shrinks each bracket g(lo) > 0 >= g(hi) to hi - lo <= min(t_tol,
  4e-16 max(1, |lo|)) and returns its midpoint;
* general A: a left endpoint t_lo with g > 0 on (-inf, t_lo], certified
  by g(t_lo) and Van Loan's Schur-form bound on ||e^{-uA}||, then a march
  whose steps never pass a zero because g'' >= -K, with K from the norms
  of A's symmetric and skew parts.  In Schur coordinates A = Q T Q^T, a
  step of h <= 1/(2||A||) goes exactly to the zero of the quadratic lower
  bound (a Taylor sum of e^{-hT}); a longer one applies the largest rung
  <= h of a cached dyadic ladder of e^{-2^k T}.  A certified step that
  ends at g <= 0 ends at the zero up to rounding; an uncertified step of
  the bottom rung (<= t_tol) that crosses gives its midpoint.

All evaluators are pure and vectorized over batches of difference
vectors.  Where g decreases, every operation acts row by row, so a row's
distance does not depend on the rest of its batch, bit for bit, and
independent batches may share one call.  The march multiplies rows
through BLAS, whose rounding depends on the batch: there a row's root
may move by that rounding, within t_tol.  Results for a given batch are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, SolverError
from .linalg import _canonical_chains, check_matrix, check_vector, exponential
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    RealPartJordanForm,
    canonical_matrix,
    real_part_jordan_form,
)

_CERT_MARGIN = 0.05
# log of the largest norm ||e^{sA}|| a ladder rung may reach
_SAFE_LOG = 600.0
_MAX_STEPS = 100_000
# degree of the Taylor sum of an exact march step (h ||T|| <= 1/2): the
# remainder is below 2^-17/17! < 3e-20 of |w|
_TAYLOR_DEGREE = 16
# steps of the bracket refiner: the cap, and the steps before a bracket
# must shrink at least half as fast as under bisection
_REFINE_STEPS = 200
_SLACK = 8
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the smallest-root search."""

    t_tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.t_tol < 1.0:
            raise ValueError("t_tol must lie in (0, 1)")


class BoundarySpace:
    """A boundary (R^n, D_A): the matrix plus cached spectral data.

    Value-immutable after construction (internal caches are populated
    lazily but never change results); all evaluators are pure, so
    concurrent batch evaluation is safe and per-batch deterministic.
    Boundary points are plain finite float vectors.
    """

    def __init__(self, a, solver: SolverConfig | None = None,
                 tol: float = DEFAULT_CLUSTER_TOL):
        self.a = check_matrix(a)
        self.n = self.a.shape[0]
        self.solver = solver if solver is not None else SolverConfig()
        self.form: RealPartJordanForm = real_part_jordan_form(self.a, tol)
        self.lambda_min = self.form.lambda_min
        self.lambda_max = self.form.lambda_max
        self.max_block = self.form.max_block
        self.chains = _canonical_chains(self.a)
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
        self._sub_spaces = {}

    # -- structure helpers -------------------------------------------------

    @property
    def eigenvalue_count(self) -> int:
        """Number of distinct eigenvalues (chains grouped by lambda)."""
        if self.chains is None:
            return len({lam for lam, _ in self.form.blocks})
        return len({c[0] for c in self.chains})

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
        if self.chains is None or self.eigenvalue_count != 1:
            raise ValueError(
                "operation requires a canonical single-eigenvalue matrix"
            )

    def _canonical_sub_space(self, chains):
        """The canonical space of the (lam, size, offset) ``chains``,
        cached, and the coordinates of this space in its block order."""
        chains = sorted(chains, key=lambda c: (c[0], -c[1]))
        blocks = tuple((lam, size) for lam, size, _ in chains)
        if blocks not in self._sub_spaces:
            form = RealPartJordanForm(blocks, sum(s for _, s in blocks))
            self._sub_spaces[blocks] = BoundarySpace(canonical_matrix(form),
                                                     self.solver)
        idx = np.concatenate(
            [np.arange(off, off + size) for _, size, off in chains]
        )
        return self._sub_spaces[blocks], idx

    # -- march machinery -----------------------------------------------------

    def _march_ladder(self) -> "_Ladder":
        if self._ladder is None:
            self._ladder = _build_ladder(self.a, self.solver.t_tol,
                                         self.chains)
        return self._ladder


@dataclass(frozen=True)
class _Ladder:
    """Matrices of the march, built once per space.

    The march works in real Schur coordinates A = Q T Q^T (``q``, ``tri``),
    where |e^{-tA}v| = |e^{-tT} Q^T v|: there a rung scales each invariant
    subspace by its own eigenvalues, so the rounding error of a stiff
    component does not land in a slow one.  A canonical A is its own
    Schur form (Q = I, T = A), and its rungs are closed forms.
    ``down[k]`` is e^{-2^(k_lo+k) T}, the marching steps; the bottom rung
    is the largest power of two <= t_tol.  ``up[j]`` is e^{2^(j_lo+j) T},
    the candidate left endpoints t = -2^(j_lo+j).  ``g(t) > cert``
    certifies g > 0 on (-inf, t].  ``curvature`` is K with g'' >= -K.  A
    step of length h <= ``window`` = 1 / (2||T||) is applied exactly, as
    sum_k (h/window)^k ``taylor[k]`` with ``taylor[k]`` = (-window T)^k /
    k!, k <= 16.
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


def _build_ladder(a: np.ndarray, t_tol: float, chains=None) -> _Ladder:
    # Van Loan: with the Schur form A = Q(D + N)Q*, lam = min Re(eig) and
    # u >= 0, ||e^{-uA}|| <= e^{-u lam} S(u), S(u) = sum_{k<n} (u||N||)^k/k!.
    # As e^{-(t-u)A}v = e^{uA} e^{-tA}v, g(t - u) >= g(t) + lam u - log S(u).
    # Bounding S(u) by n times its largest term and minimising each
    # lam u - k log(u||N||) + log k! over u (at u = k/lam) gives
    # lam u - log S(u) >= c for every u, so g(t) > margin - c certifies
    # g > 0 on (-inf, t].
    n = a.shape[0]
    norm = np.linalg.norm(a, 2)
    # curvature: with S, Z the symmetric and skew parts of A and w a unit
    # e^{-tA}v, g'' = 2(<Aw, Sw> - <Sw, w>^2) = 2(|p|^2 + <Zw, p>), where
    # p = Sw - <Sw, w>w, as <Zw, w> = 0.  |p| <= rho, half the spread of
    # S's eigenvalues, so g''/2 >= min over s in [0, rho] of s^2 - ||Z||s,
    # and g'' >= -K with K = ||Z||^2/2 (2 rho >= ||Z||) or 2 rho(||Z|| -
    # rho).  K = 0 leaves g convex with slope <= -min eig S < 0, or -tr A/n
    # when S = cI.  Rounding in K moves the bound less than it moves g.
    sym = np.linalg.eigvalsh(0.5 * a + 0.5 * a.T)
    rho = 0.5 * float(sym[-1] - sym[0])
    skew = float(np.linalg.norm(0.5 * a - 0.5 * a.T, 2))
    curvature = (0.5 * skew * skew if 2.0 * rho >= skew
                 else 2.0 * rho * (skew - rho))
    if not 0.0 <= curvature < math.inf:
        raise RangeError(
            f"general path: the curvature bound K = {curvature:.6g} leaves "
            f"the float range (||A|| = {norm:.6g}, ||Z|| = {skew:.6g})"
        )
    if chains is None:
        import scipy.linalg  # the one path with no closed-form exponential

        schur, _ = scipy.linalg.schur(a, output="complex")
        tri, q = scipy.linalg.schur(a, output="real")
    else:
        schur, tri, q = a, a, np.eye(n)
    re = np.diag(schur).real
    lam = re.min()
    nil = np.linalg.norm(np.triu(schur, 1), 2)
    c = -math.log(n) + min([0.0] + [
        k - k * math.log(k * nil / lam) + math.lgamma(k + 1)
        for k in range(1, n) if nil > 0
    ])

    k_lo = math.frexp(t_tol)[1] - 1
    ks = np.arange(k_lo, 64)
    s = np.ldexp(1.0, ks)
    with np.errstate(over="ignore"):
        log_s = np.log(sum((s * nil) ** k / math.factorial(k) for k in range(n)))
    # the largest rung keeps ||e^{sA}|| <= e^{s max Re(eig)} S(s) finite
    k_hi = int(ks[s * re.max() + log_s <= _SAFE_LOG].max())
    down = np.ldexp(1.0, np.arange(k_lo, k_hi + 1))
    # the first left endpoint keeps 2^j_lo max Re(eig) <= 2: further
    # left, a stiff component grows so large that its rounding error
    # swamps the slow ones (on R.diag(1, 350).R^T, T's off-diagonal of
    # 3e-14 put 1e136 into the slow coordinate at t = -1)
    j_lo = min(0, math.floor(1.0 - math.log2(re.max())))
    up = np.ldexp(1.0, np.arange(j_lo, k_hi + 1))
    window = 0.5 / norm
    taylor = [np.eye(n)]
    for k in range(1, _TAYLOR_DEGREE + 1):
        taylor.append(taylor[-1] @ (-window / k * tri))
    rungs = np.concatenate([-down, up])
    mats = (exponential(a, rungs, chains) if chains is not None
            else scipy.linalg.expm(rungs[:, None, None] * tri))
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
        taylor=np.stack(taylor),
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
    m = v.shape[0]
    max_size = max(size for _, size, _ in chains)
    p = np.zeros((m, 2 * max_size - 1))
    for _, size, off in chains:
        for i in range(size):
            span = size - i
            c = np.empty((m, span))
            for q in range(span):
                c[:, q] = v[:, off + i + q] * ((-1.0) ** q / math.factorial(q))
            for q1 in range(span):
                for q2 in range(span):
                    p[:, q1 + q2] += c[:, q1] * c[:, q2]
    return p


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
    curved = [(j, p) for j, p in enumerate(polys) if p.shape[1] > 1]
    two_lam = 2.0 * np.array(lams)

    def g(t, rows):
        e = logs.take(rows, axis=0)
        with np.errstate(divide="ignore"):
            for j, p in curved:
                e[:, j] = np.log(_poly_eval(p.take(rows, axis=0), t))
        e -= t[:, None] * two_lam
        if e.shape[1] == 1:  # the log-sum-exp of one column, bit for bit
            return 0.5 * e[:, 0]
        mx = e.max(axis=1)
        return 0.5 * (mx + np.log(np.exp(e - mx[:, None]).sum(axis=1)))

    if space._decreasing:
        # one zero.  On a diagonal |e^{-tA}v| lies between |v| e^{-t lam_max}
        # and |v| e^{-t lam_min} (ordered by the sign of t), so g >= 0 at
        # the smaller of log|v|/lam_max and log|v|/lam_min and g <= 0 at
        # the larger.  With one eigenvalue the two coincide, and the
        # bracket starts one unit wide; on longer chains, or where rounding
        # puts g on the wrong side, the ends expand
        a, b = log_norm / lam_max, log_norm / lam_min
        lo, g_lo = _expand(g, np.minimum(a, b), -1.0, "canonical")
        hi, g_hi = _expand(g, np.maximum(a, b) + (lam_min == lam_max), 1.0,
                           "canonical")
    else:
        lo, hi, _ = _march(space, v)
        every = np.arange(v.shape[0])
        g_lo, g_hi = g(lo, every), g(hi, every)
        # the march certified g > 0 at lo and found g <= 0 at hi: an end
        # where this g has the other sign is the root up to rounding, and
        # the bracket closes on it
        hi = np.where(g_lo > 0, hi, lo)
        lo = np.where((g_lo > 0) & (g_hi > 0), hi, lo)
    lo, hi = _refine(g, lo, hi, g_lo, g_hi, space.solver.t_tol, "canonical")
    return 0.5 * (lo + hi)


def _apply(rungs, k, w):
    """Row i of the result is rungs[k[i]] @ w[i]."""
    return np.einsum("rij,rj->ri", rungs[k], w)


def _exact_step(lad, h, w):
    """Row i of the result is e^{-h[i] T} w[i], for h[i] <= lad.window."""
    x = (h / lad.window)[:, None] ** np.arange(_TAYLOR_DEGREE + 1)
    n = w.shape[1]
    mats = (x @ lad.taylor.reshape(_TAYLOR_DEGREE + 1, n * n)).reshape(-1, n, n)
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


def _march_failure(space, what, rows, t, g):
    path = "general" if space.chains is None else "canonical"
    return SolverError(
        f"{path} path: {what} for {rows} vector(s); last t = {t:.17g}, "
        f"g = {g:.6g}; matrix = {space.a.tolist()}"
    )


def _roots_general(space: BoundarySpace, v: np.ndarray) -> np.ndarray:
    lo, hi, certified = _march(space, v)
    # an uncertified crossing is a bottom-rung step: its midpoint
    bottom = math.ldexp(1.0, space._march_ladder().k_lo)
    return np.where(certified, hi, hi - 0.5 * bottom)


@np.errstate(over="ignore", divide="ignore")
def _march(space: BoundarySpace, v: np.ndarray):
    """The bracket [lo, hi] = [t, t + s] of each row's first crossing, from
    a certified left endpoint and the march, and whether its step was
    certified (else it is the bottom rung)."""
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
        i = int(np.argmax(bad))
        raise _march_failure(space, "no certified left endpoint",
                               int(bad.sum()), t[i], g[i])

    # march: g(t + h) >= g + g' h - K h^2 / 2 > 0 for h below its root, so
    # a step s no longer than that root skips no zero: in exact arithmetic
    # g > 0 on [t, t + s).  Within the exact window s is that root itself;
    # longer steps take the largest rung <= h.  A computed g(t + s) <= 0
    # after such a step is rounding, and the zero lies at t + s.  Where h
    # is below the bottom rung (t_tol or finer), the step is that rung and
    # may cross anywhere in [t, t + s].
    lo, hi, certified = np.empty(m), np.empty(m), np.empty(m, dtype=bool)
    idx = np.arange(m)
    big_k = lad.curvature
    top = lad.down.shape[0] - 1
    bottom = math.ldexp(1.0, lad.k_lo)
    for _ in range(_MAX_STEPS):
        u = w
        if g.max() > _SAFE_LOG / 2:  # w.w may overflow: use unit rows
            u = w * np.exp(-g)[:, None]
        slope = (-np.einsum("ij,ij->i", u, u @ lad.tri.T)
                 / np.einsum("ij,ij->i", u, u))
        if not math.isfinite(slope.sum()):
            nan = ~np.isfinite(slope)
            i = int(np.argmax(nan))
            raise _march_failure(space, "non-finite slope", int(nan.sum()),
                                   t[i], g[i])
        root = np.sqrt(slope * slope + 2.0 * big_k * g)
        h = 2.0 * g / (root - slope)
        rise = slope > 0
        if rise.any():  # the same root without cancellation; none if K = 0
            h[rise] = ((slope[rise] + root[rise]) / big_k if big_k > 0
                       else math.inf)
        k = np.clip(np.frexp(h)[1] - 1 - lad.k_lo, 0, top)
        if not 0.0 < h.min() <= h.max() < math.inf:  # NaN fails too
            k[~((h > 0) & (h < math.inf))] = 0  # no certified step: bottom rung
        exact = (h >= bottom) & (h <= lad.window)
        step = np.where(exact, h, np.ldexp(1.0, lad.k_lo + k))
        w_next = np.empty_like(w)
        w_next[exact] = _exact_step(lad, h[exact], w[exact])
        w_next[~exact] = _apply(lad.down, k[~exact], w[~exact])
        g_next = _log_norm(w_next)
        t_next = t + step
        cross = g_next <= 0
        done = idx[cross]
        lo[done], hi[done] = t[cross], t_next[cross]
        certified[done] = (h >= step)[cross]  # NaN h fails too
        keep = ~cross
        idx, t, w, g = idx[keep], t_next[keep], w_next[keep], g_next[keep]
        if idx.size == 0:
            return lo, hi, certified
    raise _march_failure(space, "no sign change within the step cap",
                           idx.size, t[0], g[0])


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
    width = 4.0 * (1.0 + gap) * (1.0 + abs(t0)) ** (space.max_block - 1)
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
