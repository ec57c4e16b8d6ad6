"""The root solvers of canonical (lam I + N chain) spaces.

``metric._refine`` shrinks the sign-certified brackets g(lo) > 0 >= g(hi)
of marching spaces by Chandrupatla's method, and
``metric._solve_decreasing`` solves a strictly decreasing g by Newton's
method inside the bracket of the signs it has seen.  These tests check
their invariants on synthetic monotone functions (including ones that
defeat interpolation), their step caps, the number of g evaluations a
batch costs, and the accuracy of the roots against 50-digit roots
computed by mpmath.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from heintze import metric
from heintze.errors import SolverError
from heintze.linalg import jordan_block
from heintze.metric import BoundarySpace, dist_pairs

T_TOL = 1e-12


def _stop(lo):
    return np.minimum(T_TOL, 4e-16 * np.maximum(1.0, np.abs(lo)))


def _space(chains):
    return BoundarySpace(
        scipy.linalg.block_diag(*[jordan_block(lam, s) for lam, s in chains])
    )


# monotone g with g > 0 left of the root r; the last three defeat
# interpolation: a flat quintic, a step of width 1e-6 and a function that
# is exactly 0 on the whole right of r
SYNTHETIC = {
    "linear": lambda t, r: r - t,
    "exp": lambda t, r: 1.0 - np.exp(np.minimum(50.0 * (t - r), 700.0)),
    "cbrt": lambda t, r: np.cbrt(r - t),
    "quintic": lambda t, r: (r - t) ** 5,
    "tanh": lambda t, r: np.tanh(1e6 * (r - t)),
    "zero_right": lambda t, r: np.maximum(r - t, 0.0),
}


@pytest.mark.parametrize("name", SYNTHETIC)
def test_refine_closes_certified_brackets(name):
    rng = np.random.default_rng(5)
    m = 1000
    r = rng.uniform(-3.0, 3.0, m)
    lo0 = r - 10.0 ** rng.uniform(-3, 1.5, m)
    hi0 = r + 10.0 ** rng.uniform(-3, 1.5, m)
    calls = []

    def g(t, rows):
        calls.append(rows.size)
        return SYNTHETIC[name](t, r[rows])

    every = np.arange(m)
    lo, hi = metric._refine(g, lo0, hi0, g(lo0, every), g(hi0, every),
                            T_TOL, "test")
    steps = len(calls) - 2
    assert np.all(g(lo, every) > 0) and np.all(g(hi, every) <= 0)
    assert np.all(hi - lo <= _stop(lo))
    assert np.all((lo0 <= lo) & (hi <= hi0))
    # the documented guarantee: at most _SLACK + 2 steps beyond twice
    # those of plain bisection
    halvings = np.log2((hi0 - lo0) / _stop(lo)).max()
    assert steps <= metric._SLACK + 2 + 2 * math.ceil(halvings)
    print(f"{name}: {steps} steps")


# ---------------------------------------------------------------------------
# the reference: the bracket-end refiner that metric._refine replaced, kept
# verbatim.  It holds lo, hi, g(lo), g(hi) and which end is newest; the
# program holds the newest, other and replaced points.  Both must give the
# same brackets bit for bit.

_REFINE_STEPS, _SLACK, _EPS = metric._REFINE_STEPS, metric._SLACK, metric._EPS


def _reference_refine(g, lo, hi, g_lo, g_hi, t_tol, path):
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


@pytest.mark.parametrize("name", SYNTHETIC)
def test_refine_matches_the_reference_on_synthetic_functions(name):
    # zero_right runs the exact-zero branch: g is 0 at every right end
    rng = np.random.default_rng(11)
    m = 1000
    r = rng.uniform(-3.0, 3.0, m)
    lo0 = r - 10.0 ** rng.uniform(-3, 1.5, m)
    hi0 = r + 10.0 ** rng.uniform(-3, 1.5, m)

    def g(t, rows):
        return SYNTHETIC[name](t, r[rows])

    every = np.arange(m)
    args = (lo0, hi0, g(lo0, every), g(hi0, every), T_TOL, "test")
    got, want = metric._refine(g, *args), _reference_refine(g, *args)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


_TURN = np.array([[math.cos(0.7), -math.sin(0.7)],
                  [math.sin(0.7), math.cos(0.7)]])
REFERENCE_BATCHES = {  # matrix, half-width of the box of difference vectors
    "J2(0.3)": (jordan_block(0.3, 2), 3.0),
    "J4(0.3)": (jordan_block(0.3, 4), 3.0),
    "J3(0.35)": (jordan_block(0.35, 3), 3.0),
    "R.J2(0.3).RT": (_TURN @ jordan_block(0.3, 2) @ _TURN.T, 3.0),
}


@pytest.mark.parametrize("name", REFERENCE_BATCHES)
def test_refine_matches_the_reference_on_solver_batches(monkeypatch, name):
    a, box = REFERENCE_BATCHES[name]
    real, pairs = metric._refine, []

    def both(g, *args):
        pairs.append((real(g, *args), _reference_refine(g, *args)))
        return pairs[-1][0]

    monkeypatch.setattr(metric, "_refine", both)
    v = np.random.default_rng(13).uniform(-box, box, (3000, a.shape[0]))
    dist_pairs(BoundarySpace(a), np.zeros_like(v), v)
    assert len(pairs) == 1
    (lo, hi), (ref_lo, ref_hi) = pairs[0]
    assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)


@pytest.mark.parametrize(
    "a", [jordan_block(1.0, 3), np.diag(np.arange(1.0, 7.0))],
    ids=["J3", "diag(1..6)"])
def test_decreasing_batches_never_refine(monkeypatch, a):
    def refine(*args):
        raise AssertionError("a decreasing space reached the refiner")

    monkeypatch.setattr(metric, "_refine", refine)
    v = np.random.default_rng(13).uniform(-5.0, 5.0, (3000, a.shape[0]))
    assert np.all(dist_pairs(BoundarySpace(a), np.zeros_like(v), v) > 0)


def test_refine_reaching_the_cap_raises():
    # 2e300 wide brackets need about 1000 halvings, and a step function
    # leaves only bisection
    lo, hi = np.full(3, -1e300), np.full(3, 1e300)

    def g(t, rows):
        return np.sign(0.3 - t)

    with pytest.raises(SolverError,
                       match=r"3 root bracket\(s\) still open after 200 steps "
                             r"\(canonical path\)"):
        metric._refine(g, lo, hi, g(lo, None), g(hi, None), T_TOL, "canonical")


# ---------------------------------------------------------------------------
# the Newton solve of a strictly decreasing g: each synthetic g(s, slope)
# has its one zero at s = t - r = 0, and the start is r + offset


def _logsumexp_g(s):
    # (1/2) log((e^{-2s} + e^{-4s}) / 2), a diagonal space's g in miniature
    return (0.5 * np.logaddexp(-2.0 * s, -4.0 * s) - 0.5 * math.log(2.0),
            -1.0 - 1.0 / (1.0 + np.exp(2.0 * s)))


DECREASING = {  # g and g' of s, the offsets of the start, the roots r
    "linear": (lambda s: (-s, -np.ones_like(s)), (-30.0, 30.0), (-3.0, 3.0)),
    "cubic": (lambda s: (-s ** 3 - s, -3.0 * s * s - 1.0), (-30.0, 30.0),
              (-3.0, 3.0)),
    "logsumexp_near_700": (_logsumexp_g, (-5.0, 5.0), (699.0, 701.0)),
    "logsumexp_near_-700": (_logsumexp_g, (-5.0, 5.0), (-701.0, -699.0)),
    # past |t| = 4503 the float spacing (1.8e-12 here) exceeds t_tol, and
    # the root, 7e-13 right of r, lies between two floats
    "logsumexp_near_1e4": (lambda s: _logsumexp_g(s - 7e-13), (-5.0, 5.0),
                           (9999.0, 10001.0)),
    # tanh(20) is 1 and its slope 0: far from r every Newton step leaves the
    # bracket, and the reach doubles from the one known end
    "tanh_far_left": (lambda s: (-np.tanh(s), np.tanh(s) ** 2 - 1.0),
                      (-600.0, -400.0), (-3.0, 3.0)),
    "tanh_far_right": (lambda s: (-np.tanh(s), np.tanh(s) ** 2 - 1.0),
                       (400.0, 600.0), (-3.0, 3.0)),
    # a flat start sends Newton's first step past s = 100, where this g
    # overflows to inf: an infinite g is no sign, so the reach doubles
    "atan_overflow": (lambda s: (np.where(s > 100.0, np.inf, -np.arctan(s)),
                                 -1.0 / (1.0 + s * s)),
                      (-30.0, -10.0), (-3.0, 3.0)),
    # a NaN g, as from a computed P < 0, counts as g <= 0: a bisection
    # point in the NaN band closes the bracket there
    "atan_nan_band": (lambda s: (np.where((s > 1.0) & (s < 200.0), np.nan,
                                          -np.arctan(s)),
                                 -1.0 / (1.0 + s * s)),
                      (-30.0, -10.0), (-3.0, 3.0)),
}


def _decreasing_case(name, m=1000, seed=17):
    """Roots, starts and g(t, rows, slope) of a ``DECREASING`` case."""
    fn, (a, b), (r_lo, r_hi) = DECREASING[name]
    rng = np.random.default_rng(seed)
    r = rng.uniform(r_lo, r_hi, m)
    start = r + rng.uniform(a, b, m)

    def g(t, rows, slope=False):
        gt, dg = fn(t - r[rows])
        return (gt, dg) if slope else gt

    return r, start, g


def _assert_certified(g, got, r, zero_ok=False):
    """Each result is an exact zero of the float g (where ``zero_ok``), or
    lies within the stop width (or the float spacing, where coarser) of the
    root r with g > 0 that width left of it and g <= 0 that width right."""
    every = np.arange(got.size)
    stop = np.maximum(_stop(got), np.spacing(np.abs(got)))
    zero = (g(got, every) == 0) if zero_ok else np.zeros(got.size, bool)
    assert np.all(zero | (np.abs(got - r) <= stop))
    assert np.all(zero | ((g(got - stop, every) > 0)
                          & (g(got + stop, every) <= 0)))


@pytest.mark.parametrize("name", DECREASING)
def test_newton_solves_decreasing_functions(name):
    r, start, g = _decreasing_case(name)
    calls = []

    def g_counted(t, rows, slope=False):
        calls.append(rows.size)
        return g(t, rows, slope)

    got = metric._solve_decreasing(g_counted, start, "test")
    # a linear g's Newton step lands on the root, where g is exactly 0
    _assert_certified(g, got, r, zero_ok=name == "linear")
    print(f"{name}: {len(calls)} evaluations of g")


def test_newton_takes_a_nan_slope_as_a_step_out_of_the_bracket():
    r, start, g = _decreasing_case("cubic")

    def g_nan(t, rows, slope=False):
        # no slope at the start: the first step doubles from the known end
        gt, dg = g(t, rows, slope=True)
        return (gt, np.where(t == start[rows], math.nan, dg)) if slope else gt

    _assert_certified(g, metric._solve_decreasing(g_nan, start, "test"), r)


def test_newton_stops_on_an_exact_zero_plateau():
    # the float g is exactly 0 on the 9 floats nearest each root, and
    # linear elsewhere; Newton lands on the root or nearby
    r, start, g_linear = _decreasing_case("linear")

    def g(t, rows, slope=False):
        gt, dg = g_linear(t, rows, slope=True)
        gt = np.where(np.abs(t - r[rows]) <= 4.0 * np.spacing(r[rows]), 0.0,
                      gt)
        return (gt, dg) if slope else gt

    got = metric._solve_decreasing(g, start + 1e-9, "test")
    _assert_certified(g, got, r, zero_ok=True)


def test_bound_slope_matches_50_digit_derivatives(monkeypatch):
    mp = pytest.importorskip("mpmath")
    from heintze import maps

    seen, real = [], maps._solve_decreasing

    def keep_g(g, *args):
        seen.append(g)
        return real(g, *args)

    monkeypatch.setattr(maps, "_solve_decreasing", keep_g)
    rng = np.random.default_rng(19)
    for n in range(2, 6):
        consts = rng.uniform(-3.0, 10.0, 20)
        maps._bound_exponents(n, consts)
        u = rng.uniform(-20.0, 20.0, 20)
        _, slope = seen[-1](u, np.arange(20), slope=True)
        with mp.workdps(50):
            for ui, si in zip(u, slope):
                def q_half_log(x):
                    return mp.log(sum((n - k) * (x ** k / mp.factorial(k)) ** 2
                                      for k in range(n))) / 2 - x
                want = mp.diff(q_half_log, mp.mpf(float(ui)))
                assert abs(si / float(want) - 1.0) <= 1e-14, (n, ui)


@pytest.mark.parametrize("a", [np.diag(np.arange(1.0, 7.0)),
                               jordan_block(1.0, 4), jordan_block(1.0, 2)],
                         ids=["diag(1..6)", "J4", "J2"])
def test_stacked_decreasing_batches_equal_their_parts(a):
    # batches of different scales stop after different numbers of Newton
    # steps; each row's distance is the same alone and stacked, bit for bit
    rng = np.random.default_rng(23)
    n = a.shape[0]
    parts = [rng.uniform(-s, s, (k, n))
             for s, k in ((1e-3, 300), (5.0, 700), (1e3, 200))]
    sp = BoundarySpace(a)
    alone = [dist_pairs(sp, np.zeros_like(v), v) for v in parts]
    stacked = np.concatenate(parts)
    together = dist_pairs(sp, np.zeros_like(stacked), stacked)
    assert np.array_equal(together, np.concatenate(alone))
    assert np.array_equal(together[:1], dist_pairs(sp, np.zeros((1, n)),
                                                   stacked[:1]))


def test_stacked_bound_exponents_equal_their_parts():
    from heintze.maps import _bound_exponents

    consts = np.random.default_rng(29).uniform(-3.0, 300.0, 50)
    for n in range(2, 6):
        together = _bound_exponents(n, consts)
        alone = np.concatenate([_bound_exponents(n, consts[i:i + 1])
                                for i in range(consts.size)])
        assert np.array_equal(together, alone)


def _count_calls(monkeypatch):
    """Count the evaluations of g that the Newton solve makes: all of them
    on a space whose g strictly decreases."""
    calls = []
    real = metric._solve_decreasing

    def counted(g, *args):
        def g_counted(t, rows, slope=False):
            calls.append(rows.size)
            return g(t, rows, slope)
        return real(g_counted, *args)

    monkeypatch.setattr(metric, "_solve_decreasing", counted)
    return calls


@pytest.mark.parametrize("case, most", [("diag(1..6)", 10), ("J4", 12)])
def test_evaluation_counts(monkeypatch, case, most):
    a = {"diag(1..6)": np.diag(np.arange(1.0, 7.0)),
         "J4": jordan_block(1.0, 4)}[case]
    sp = BoundarySpace(a)
    calls = _count_calls(monkeypatch)
    x, y = np.random.default_rng(7).uniform(-5, 5, (2, 4000, sp.n))
    dist_pairs(sp, x, y)
    print(f"{case}: {len(calls)} evaluations of g, {sum(calls)} rows")
    assert 0 < len(calls) <= most


def test_diagonal_roots_on_the_eigen_axes():
    # on an eigen-axis Newton's closed-form start is the root itself, so
    # rounding decides the sign of g there
    sp = BoundarySpace(np.diag([1.0, 2.0, 3.0]))
    c = np.random.default_rng(9).uniform(-5, 5, 200)
    c[:3] = (1.0, -1.0, 0.5)
    for axis, lam in enumerate((1.0, 2.0, 3.0)):
        v = np.zeros((c.size, 3))
        v[:, axis] = c
        got = dist_pairs(sp, np.zeros_like(v), v)
        np.testing.assert_allclose(got, np.abs(c) ** (1.0 / lam), rtol=2e-15)


# ---------------------------------------------------------------------------
# accuracy against 50-digit roots

CASES = {
    "diag(1..6)": [(float(k), 1) for k in range(1, 7)],
    "2I3": [(2.0, 1)] * 3,
    "J3": [(1.0, 3)],
    "J2+J2": [(1.0, 2), (1.0, 2)],
    "J3(0.35)": [(0.35, 3)],
    "J4(0.3)": [(0.3, 4)],
    "J2(0.3)": [(0.3, 2)],
}
# the cases whose g may rise: they march to their brackets, and the
# others start from log|v|/lam
MARCHING = {"J3(0.35)", "J4(0.3)", "J2(0.3)"}


class _Exact:
    """g(t) = log|e^{-tA}v| for canonical chains at 50 digits, from the
    closed form of e^{-tN} on each chain."""

    def __init__(self, mp, chains, v):
        self.mp = mp
        self.terms = []  # (lam, ascending coefficients of the chain's |.|^2)
        off = 0
        for lam, size in chains:
            p = [mp.mpf(0)] * (2 * size - 1)
            for i in range(size):
                c = [mp.mpf(float(v[off + i + q])) * (-1) ** q
                     / mp.factorial(q) for q in range(size - i)]
                for q1, c1 in enumerate(c):
                    for q2, c2 in enumerate(c):
                        p[q1 + q2] += c1 * c2
            self.terms.append((mp.mpf(lam), p))
            off += size

    def __call__(self, t):
        mp = self.mp
        t = mp.mpf(t)
        return mp.log(sum(mp.exp(-2 * lam * t) * mp.polyval(p[::-1], t)
                          for lam, p in self.terms)) / 2

    def critical_points(self):
        """Real zeros of g' when every chain has one eigenvalue: zeros of
        P' - 2 lam P for the summed polynomial P."""
        mp = self.mp
        lams = {lam for lam, _ in self.terms}
        if len(lams) > 1:
            return []  # several eigenvalues occur only diagonally: g' < 0
        lam = lams.pop()
        width = max(len(p) for _, p in self.terms)
        p = [sum(q[k] for _, q in self.terms if k < len(q))
             for k in range(width)]
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        d = [(k + 1) * p[k + 1] - 2 * lam * p[k] for k in range(len(p) - 1)]
        d.append(-2 * lam * p[-1])
        if len(d) < 2:
            return []
        roots = mp.polyroots(d[::-1], maxsteps=200, extraprec=200)
        return sorted(mp.re(z) for z in roots if abs(mp.im(z)) < 1e-30)

    def sign_changes(self):
        signs = [True] + [self(c) > 0 for c in self.critical_points()]
        signs.append(False)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def smallest_root(self):
        """g is monotone between critical points, positive far left and
        negative far right: the first piece whose right end has g <= 0
        holds the smallest root."""
        mp = self.mp
        lo = hi = None
        for c in self.critical_points():
            if self(c) <= 0:
                hi = c
                break
            lo = c
        if lo is None:
            lo = (hi if hi is not None else mp.mpf(0)) - 1
            while self(lo) <= 0:
                lo -= 1
        if hi is None:
            hi = lo + 1
            while self(hi) > 0:
                hi += 1
        root = mp.findroot(self, (lo, hi), solver="anderson")
        eps = mp.mpf(10) ** -40
        assert self(root - eps) > 0 >= self(root + eps)
        return root


def _rows(mp, name, chains, rng, count=50):
    n = sum(s for _, s in chains)
    rows = []
    while len(rows) < count:
        if name in MARCHING:
            # multi-root rows, as in the benchmark: v in [-3, 3]^n with
            # at least three sign changes of g
            v = rng.uniform(-3, 3, n)
            if _Exact(mp, chains, v).sign_changes() < 3:
                continue
        else:
            v = rng.uniform(-5, 5, n)
        rows.append(v)
    return np.array(rows)


def _program_gs(monkeypatch, space, rows):
    """The float g the program solves for the batch ``rows``, taken from
    the Newton solve on decreasing spaces and from the refiner on the
    others: g(t, idx) evaluates the rows indexed by idx."""
    seen = []
    name = "_solve_decreasing" if space._decreasing else "_refine"
    real = getattr(metric, name)

    def keep_g(g, *args):
        seen.append(g)
        return real(g, *args)

    monkeypatch.setattr(metric, name, keep_g)
    dist_pairs(space, np.zeros_like(rows), rows)
    monkeypatch.setattr(metric, name, real)
    return seen[0]


def _program_g(monkeypatch, space, v, t):
    """The float g the program refines for the row v, at the points t."""
    return _program_gs(monkeypatch, space, v[None, :])(
        t, np.zeros(t.size, dtype=int))


def test_one_eigenvalue_g_is_its_column(monkeypatch):
    # the log-sum-exp of one column (log P - 2 lam t) is that column, and
    # halving it rounds as -lam t + log P / 2: scaling by 2 commutes with
    # rounding
    sp = _space([(1.0, 3)])
    rng = np.random.default_rng(43)
    v = rng.uniform(-5, 5, (4000, 3))
    t = rng.uniform(-4, 4, 4000)
    g = _program_gs(monkeypatch, sp, v)
    p = metric._poly_eval(metric._poly_coeffs(sp.chains, v.T), t)
    assert np.array_equal(g(t, np.arange(4000)), -1.0 * t + 0.5 * np.log(p))


@pytest.mark.parametrize("k", [2, 3, 7, 9])
def test_multi_eigenvalue_g_sums_in_eigenvalue_order(monkeypatch, k):
    # the log-sum-exp adds its eigenvalues' terms left to right at every k,
    # also past the 8 terms from which numpy sums a short axis pairwise
    sp = _space([(float(lam), 1) for lam in range(1, k + 1)])
    rng = np.random.default_rng(47)
    v = rng.uniform(-5, 5, (4000, k))
    t = rng.uniform(-4, 4, 4000)
    g = _program_gs(monkeypatch, sp, v)
    e = np.log(v * v) - t[:, None] * (2.0 * np.arange(1.0, k + 1))
    mx = e.max(axis=1)
    w = np.exp(e - mx[:, None])
    total = w[:, 0]
    for j in range(1, k):
        total = total + w[:, j]
    assert np.array_equal(g(t, np.arange(4000)), 0.5 * (mx + np.log(total)))


@pytest.mark.parametrize("name", CASES)
def test_roots_match_50_digit_roots(monkeypatch, name):
    mp = pytest.importorskip("mpmath")
    chains = CASES[name]
    sp = _space(chains)
    assert sp._decreasing == (name not in MARCHING)
    with mp.workdps(50):
        rows = _rows(mp, name, chains, np.random.default_rng(5))
        t = np.log(dist_pairs(sp, np.zeros_like(rows), rows))
        worst = plain = 0.0
        for ti, v in zip(t, rows):
            g = _Exact(mp, chains, v)
            exact = g.smallest_root()
            err = float(abs(mp.mpf(ti) - exact))
            allowed = 8e-16 * max(1.0, abs(ti))
            plain = max(plain, err / allowed)
            if name in MARCHING:
                # near a double root g is flat, and the float g the program
                # brackets differs from the exact one by its rounding: the
                # root may move by that rounding over |g'|
                near = ti + 1e-16 * max(1.0, abs(ti)) * np.arange(-4, 5)
                floats = _program_g(monkeypatch, sp, v, near)
                noise = max(abs(float(g(x)) - gf)
                            for x, gf in zip(near, floats))
                allowed += 2.0 * noise / abs(float(mp.diff(g, exact)))
            worst = max(worst, err / allowed)
            assert err <= allowed, (v, ti, float(exact))
    print(f"{name}: largest error {worst:.2f} of the allowed bound, "
          f"{plain:.2f} of 8e-16 max(1, |t|)")


def test_golden_ratios_lie_within_rounding_of_the_exact_ratio():
    """The qsmap-verify goldens of test_cli pin max_ratio to the last bit;
    the ratio's two distances must each be right to the accuracy above."""
    mp = pytest.importorskip("mpmath")
    from heintze.maps import eval_map_batch, map_from_json_dict

    maps = {
        "shear": {"kind": "shear", "n": 2,
                  "C": {"knots": [[-1.0, 0.0], [0.5, 0.25], [1.0, 1.0]]}},
        "jordan_family": {"kind": "jordan_family", "n": 2, "a": [1.5],
                          "v": [0.1, -0.2],
                          "C": {"knots": [[0.0, 0.0], [1.0, 0.5]]}},
    }
    sp = BoundarySpace(jordan_block(1.0, 2))
    for kind, doc in maps.items():
        spec = map_from_json_dict(doc)
        rng = np.random.default_rng(4)
        x = rng.uniform(-5.0, 5.0, (300, 2))
        y = rng.uniform(-5.0, 5.0, (300, 2))
        fx, fy = eval_map_batch(spec, x), eval_map_batch(spec, y)
        d1, d2 = dist_pairs(sp, x, y), dist_pairs(sp, fx, fy)
        i = int(np.argmax(d2 / d1))
        with mp.workdps(50):
            t1 = _Exact(mp, [(1.0, 2)], y[i] - x[i]).smallest_root()
            t2 = _Exact(mp, [(1.0, 2)], fy[i] - fx[i]).smallest_root()
            exact = mp.exp(t2 - t1)
        got = d2[i] / d1[i]
        tol = 8e-16 * (max(1.0, abs(float(t1))) + max(1.0, abs(float(t2))))
        assert abs(got / float(exact) - 1.0) <= tol + 4 * np.finfo(float).eps
