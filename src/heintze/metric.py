"""The parabolic visual quasimetric D_A on the boundary R^n.

D_A(x, y) = e^{t*} where t* is the smallest real number with
|e^{-tA}(x - y)| = 1.  The solver locates the smallest zero of
g(t) = log |e^{-tA}(y - x)|:

* diagonal A: g is strictly decreasing, and log|v|/lam_max and
  log|v|/lam_min bracket its zero in closed form (lam*I gives log|v|/lam);
* canonical single-eigenvalue A (block diagonal lam*I + N chains):
  |e^{-tN}v|^2 is an explicit polynomial, so the zeros of g are isolated
  exactly between the real critical points of e^{-2*lam*t} * P(t).  As
  g' <= -(lam - cos(pi/(s_max+1))), with s_max the longest chain, g has
  exactly one zero when lam > cos(pi/(s_max+1)); such a space skips the
  critical points and starts from the bracket of a row without one.
  Both paths shrink each monotone bracket g(lo) > 0 >= g(hi) by
  Chandrupatla's method (inverse quadratic interpolation, bisection where
  it is unsafe) to hi - lo <= min(t_tol, 4e-16 max(1, |lo|)) and return
  its midpoint;
* general A: a left endpoint t_lo with g > 0 on (-inf, t_lo], certified
  by g(t_lo) and Van Loan's Schur-form bound on ||e^{-uA}||, then a march
  whose steps never pass a zero because |g''| <= K = 4||A||^2, then
  bisection to t_tol; every step applies a rung of a cached dyadic
  ladder of e^{-2^k T}, with A = Q T Q^T its real Schur form.

All evaluators are pure and vectorized over batches of difference
vectors; results for a given batch are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, SolverError
from .linalg import _canonical_chains, check_matrix, check_vector
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    RealPartJordanForm,
    canonical_matrix,
    real_part_jordan_form,
)

_CRIT_IMAG_TOL = 1e-9
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
        if self.chains is not None and all(s == 1 for _, s, _ in self.chains):
            self._mode = "diagonal"
        elif self.chains is not None and len({c[0] for c in self.chains}) == 1:
            self._mode = "single"
        else:
            self._mode = "general"
        # g' = -<Aw, w>/|w|^2 <= -(lam - cos(pi/(s+1))) with w = e^{-tA}v,
        # cos(pi/(s+1)) the numerical radius of the longest chain's shift
        # N (Haagerup & de la Harpe 1992): above it g strictly decreases
        self._decreasing = False
        if self._mode == "single":
            lam, size = self.chains[0][0], max(c[1] for c in self.chains)
            self._decreasing = (lam - math.cos(math.pi / (size + 1))
                                > 4.0 * _EPS * lam)
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
        if self._mode not in ("single",) and not (
            self._mode == "diagonal" and self.eigenvalue_count == 1
        ):
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

    # -- general-path machinery ---------------------------------------------

    def _general_ladder(self) -> "_Ladder":
        if self._ladder is None:
            self._ladder = _build_ladder(self.a, self.solver.t_tol)
        return self._ladder


@dataclass(frozen=True)
class _Ladder:
    """Matrices of the general path, built once per space.

    The path works in real Schur coordinates A = Q T Q^T (``q``, ``tri``),
    where |e^{-tA}v| = |e^{-tT} Q^T v|: there a rung scales each invariant
    subspace by its own eigenvalues, so the rounding error of a stiff
    component does not land in a slow one.  ``down[k]`` is
    e^{-2^(k_lo+k) T}, the marching steps; the bottom rung is the largest
    power of two <= t_tol.  ``up[j]`` is e^{2^(j_lo+j) T}, the candidate
    left endpoints t = -2^(j_lo+j).  ``g(t) > cert`` certifies g > 0 on
    (-inf, t].
    """

    q: np.ndarray
    tri: np.ndarray
    k_lo: int
    j_lo: int
    down: np.ndarray
    up: np.ndarray
    cert: float
    curvature: float


def _build_ladder(a: np.ndarray, t_tol: float) -> _Ladder:
    # Van Loan: with the Schur form A = Q(D + N)Q*, lam = min Re(eig) and
    # u >= 0, ||e^{-uA}|| <= e^{-u lam} S(u), S(u) = sum_{k<n} (u||N||)^k/k!.
    # As e^{-(t-u)A}v = e^{uA} e^{-tA}v, g(t - u) >= g(t) + lam u - log S(u).
    # Bounding S(u) by n times its largest term and minimising each
    # lam u - k log(u||N||) + log k! over u (at u = k/lam) gives
    # lam u - log S(u) >= c for every u, so g(t) > margin - c certifies
    # g > 0 on (-inf, t].
    import scipy.linalg  # the one path with no closed-form exponential

    n = a.shape[0]
    norm = np.linalg.norm(a, 2)
    curvature = 4.0 * norm**2
    if not 0.0 < curvature < math.inf:
        raise RangeError(
            f"general path: the curvature bound 4||A||^2 = {curvature:.6g} "
            f"leaves the float range (||A|| = {norm:.6g})"
        )
    schur, _ = scipy.linalg.schur(a, output="complex")
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
    tri, q = scipy.linalg.schur(a, output="real")
    mats = scipy.linalg.expm(np.concatenate([-down, up])[:, None, None] * tri)
    return _Ladder(
        q=q,
        tri=tri,
        k_lo=k_lo,
        j_lo=j_lo,
        down=mats[: down.size],
        up=mats[down.size :],
        cert=_CERT_MARGIN - c,
        curvature=curvature,
    )


# ---------------------------------------------------------------------------
# root finding


def _roots_diagonal(space: BoundarySpace, v: np.ndarray) -> np.ndarray:
    lams = np.diag(space.a)
    lam_min, lam_max = lams.min(), lams.max()
    log_norm = np.log(np.linalg.norm(v, axis=1))
    if lam_min == lam_max:  # lam I: g(t) = log|v| - lam t
        return log_norm / lam_min
    v2 = v * v
    logs = np.where(v2 > 0, np.log(np.where(v2 > 0, v2, 1.0)), -np.inf)
    two_lam = 2.0 * lams

    def g(t, rows):
        e = logs[rows] - np.outer(t, two_lam)
        mx = np.max(e, axis=1)
        return 0.5 * (mx + np.log(np.sum(np.exp(e - mx[:, None]), axis=1)))

    # |e^{-tA}v| lies between |v| e^{-t lam_max} and |v| e^{-t lam_min}
    # (ordered by the sign of t), so g >= 0 at the smaller of
    # log|v| / lam_max and log|v| / lam_min and g <= 0 at the larger;
    # rounding may put g on the wrong side, and those rows expand
    a, b = log_norm / lam_max, log_norm / lam_min
    lo, g_lo = _expand(g, np.minimum(a, b), -1.0, "diagonal")
    hi, g_hi = _expand(g, np.maximum(a, b), 1.0, "diagonal")
    lo, hi = _refine(g, lo, hi, g_lo, g_hi, space.solver.t_tol, "diagonal")
    return 0.5 * (lo + hi)


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


def _single_poly_coeffs(space: BoundarySpace, v: np.ndarray) -> np.ndarray:
    """Coefficients (ascending) of P(t) = |e^{-tN_blocks} v|^2 per row."""
    m = v.shape[0]
    max_size = max(size for _, size, _ in space.chains)
    p = np.zeros((m, 2 * max_size - 1))
    for _, size, off in space.chains:
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


def _real_critical_points(r_coeffs: np.ndarray):
    """Real roots of each row's polynomial via companion eigenvalues.

    Returns a (m, deg) array padded with +inf, sorted ascending per row.
    """
    m, width = r_coeffs.shape
    deg = width - 1
    out = np.full((m, max(deg, 1)), np.inf)
    if deg == 0:
        return out
    monic = r_coeffs / r_coeffs[:, -1][:, None]
    comp = np.zeros((m, deg, deg))
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, :, -1] = -monic[:, :-1]
    roots = np.linalg.eigvals(comp)
    real = np.abs(roots.imag) <= _CRIT_IMAG_TOL * (1.0 + np.abs(roots.real))
    vals = np.where(real, roots.real, np.inf)
    vals.sort(axis=1)
    out[:, :deg] = vals
    return out


def _single_brackets(crit, first, guess):
    """Initial brackets of the single path, one per row.

    With a critical value g <= 0 at crit[first], the first zero lies
    between the previous critical point (or one unit left of crit[first],
    to be expanded) and crit[first].  Otherwise it lies right of the last
    finite critical point (or of ``guess`` when there is none).  Returns
    (lo, hi); every end not at a critical point may need expanding.
    """
    k, width = crit.shape
    rows = np.arange(k)
    finite = np.isfinite(crit)
    f = np.minimum(first, width - 1)
    here = (first < width) & finite[rows, f]
    prev = np.maximum(f - 1, 0)
    has_prev = here & (first > 0) & finite[rows, prev]
    any_finite = finite.any(axis=1)
    last = width - 1 - np.argmax(finite[:, ::-1], axis=1)
    anchor = np.where(any_finite, crit[rows, last], guess)
    lo = np.where(
        here, np.where(has_prev, crit[rows, prev], crit[rows, f] - 1.0), anchor
    )
    hi = np.where(here, crit[rows, f], anchor + 1.0)
    return lo, hi


def _roots_single(space: BoundarySpace, v: np.ndarray) -> np.ndarray:
    lam = space.chains[0][0]
    p = _single_poly_coeffs(space, v)
    m = p.shape[0]
    t_tol = space.solver.t_tol
    result = np.empty(m)

    # group rows by true polynomial degree (top coefficients are exact
    # products of the input coordinates, so an exact zero test is sound)
    degree = np.zeros(m, dtype=int)
    for k in range(p.shape[1] - 1, 0, -1):
        mask = (degree == 0) & (p[:, k] != 0.0)
        degree[mask] = k

    const = degree == 0
    if const.any():
        result[const] = np.log(p[const, 0]) / (2.0 * lam)

    for d in np.unique(degree[~const]):
        rows = np.where(degree == d)[0]
        pc = p[rows, : d + 1]

        def g(t, sub, pc=pc):
            return -lam * t + 0.5 * np.log(_poly_eval(pc[sub], t))

        guess = 0.5 * np.log(pc[:, 0].clip(min=np.finfo(float).tiny)) / lam
        if space._decreasing:
            # g has no critical point: the bracket of a row without one
            lo, hi = guess, guess + 1.0
        else:
            # critical points: real roots of P'(t) - 2 lam P(t)
            rc = np.empty((len(rows), d + 1))
            rc[:, :] = -2.0 * lam * pc
            rc[:, :-1] += pc[:, 1:] * np.arange(1, d + 1)
            crit = _real_critical_points(rc)

            crit_safe = np.where(np.isfinite(crit), crit, 0.0)
            every = np.arange(len(rows))
            gc_raw = np.stack(
                [g(crit_safe[:, j], every) for j in range(crit.shape[1])],
                axis=1,
            )
            gc = np.where(np.isfinite(crit), gc_raw, np.inf)
            neg = gc <= 0
            first = np.where(neg.any(axis=1), neg.argmax(axis=1),
                             crit.shape[1])
            lo, hi = _single_brackets(crit, first, guess)

        lo, g_lo = _expand(g, lo, -1.0, "single")
        hi, g_hi = _expand(g, hi, 1.0, "single")
        lo, hi = _refine(g, lo, hi, g_lo, g_hi, t_tol, "single")
        result[rows] = 0.5 * (lo + hi)
    return result


def _apply(rungs, k, w):
    """Row i of the result is rungs[k[i]] @ w[i]."""
    return np.einsum("rij,rj->ri", rungs[k], w)


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


def _general_failure(space, what, rows, t, g):
    return SolverError(
        f"general path: {what} for {rows} vector(s); last t = {t:.17g}, "
        f"g = {g:.6g}; matrix = {space.a.tolist()}"
    )


@np.errstate(over="ignore", divide="ignore")
def _roots_general(space: BoundarySpace, v: np.ndarray) -> np.ndarray:
    lad = space._general_ladder()
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
        raise _general_failure(space, "no certified left endpoint",
                               int(bad.sum()), t[i], g[i])

    # march: g(t + h) >= g + g' h - K h^2 / 2 > 0 for h below its root, so
    # the largest rung <= that root skips no zero.  A rung below t_tol may
    # cross; if it does not, marching resumes in certified steps.
    lo_t = np.empty(m)
    lo_w = np.empty_like(v)
    width = np.empty(m, dtype=int)
    idx = np.arange(m)
    big_k = lad.curvature
    top = lad.down.shape[0] - 1
    for _ in range(_MAX_STEPS):
        u = w
        if g.max() > _SAFE_LOG / 2:  # w.w may overflow: use unit rows
            u = w * np.exp(-g)[:, None]
        slope = (-np.einsum("ij,ij->i", u, u @ lad.tri.T)
                 / np.einsum("ij,ij->i", u, u))
        if not math.isfinite(slope.sum()):
            nan = ~np.isfinite(slope)
            i = int(np.argmax(nan))
            raise _general_failure(space, "non-finite slope", int(nan.sum()),
                                   t[i], g[i])
        root = np.sqrt(slope * slope + 2.0 * big_k * g)
        h = np.where(slope > 0, (slope + root) / big_k,
                     2.0 * g / (root - slope))
        k = np.clip(np.frexp(h)[1] - 1 - lad.k_lo, 0, top)
        if not 0.0 < h.min() <= h.max() < math.inf:  # NaN fails too
            k[~((h > 0) & (h < math.inf))] = 0  # no certified step: bottom rung
        w_next = _apply(lad.down, k, w)
        g_next = _log_norm(w_next)
        cross = g_next <= 0
        hit = idx[cross]
        lo_t[hit], lo_w[hit], width[hit] = t[cross], w[cross], k[cross]
        keep = ~cross
        idx, w, g = idx[keep], w_next[keep], g_next[keep]
        t = (t + np.ldexp(1.0, lad.k_lo + k))[keep]
        if idx.size == 0:
            break
    if idx.size:
        raise _general_failure(space, "no sign change within the step cap",
                               idx.size, t[0], g[0])

    # polish: bisect each bracket [lo_t, lo_t + 2^(k_lo+width)] on the ladder
    while np.any(width > 0):
        rows = np.flatnonzero(width > 0)
        width[rows] -= 1
        trial = _apply(lad.down, width[rows], lo_w[rows])
        adv = _log_norm(trial) > 0
        lo_w[rows[adv]] = trial[adv]
        lo_t[rows[adv]] += np.ldexp(1.0, lad.k_lo + width[rows[adv]])
    return lo_t + np.ldexp(1.0, lad.k_lo - 1)


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
    if space._mode == "diagonal":
        roots = _roots_diagonal(space, v)
    elif space._mode == "single":
        roots = _roots_single(space, v)
    else:
        roots = _roots_general(space, v)
    out[nz] = np.exp(roots)
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
    dxz = dist_pairs(space, x, z)
    den = dist_pairs(space, x, y) + dist_pairs(space, y, z)
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
