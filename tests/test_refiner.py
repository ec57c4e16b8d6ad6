"""The bracket refiner of canonical (lam I + N chain) spaces.

``metric._refine`` shrinks sign-certified brackets g(lo) > 0 >= g(hi) by
Chandrupatla's method.  These tests check its invariants on synthetic
monotone functions (including ones that defeat interpolation), its step
cap, the number of g evaluations a batch costs, and the accuracy of the
roots against 50-digit roots computed by mpmath.
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


def _count_calls(monkeypatch):
    """Count the evaluations of g that bracket expansion and refinement
    make, by function: all of them on a space whose g strictly
    decreases."""
    calls = {"_expand": 0, "_refine": 0}

    def counted(name, fn):
        def wrapper(g, *args):
            def g_counted(t, rows):
                calls[name] += 1
                return g(t, rows)
            return fn(g_counted, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(metric, name, counted(name, getattr(metric, name)))
    return calls


@pytest.mark.parametrize("case, most", [("diag(1..6)", 16), ("J4", 24)])
def test_evaluation_counts(monkeypatch, case, most):
    a = {"diag(1..6)": np.diag(np.arange(1.0, 7.0)),
         "J4": jordan_block(1.0, 4)}[case]
    sp = BoundarySpace(a)
    calls = _count_calls(monkeypatch)
    x, y = np.random.default_rng(7).uniform(-5, 5, (2, 4000, sp.n))
    dist_pairs(sp, x, y)
    print(f"{case}: {calls} evaluations of g")
    assert 0 < sum(calls.values()) <= most
    if case == "diag(1..6)":
        # the closed-form bracket: one check per side, no expansion
        assert calls["_expand"] == 2


def test_diagonal_roots_on_the_eigen_axes():
    # on an eigen-axis the closed-form bracket end is the root itself, so
    # rounding decides its sign and the bracket may have to expand
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
    """The float g the program refines for the batch ``rows``: g(t, idx)
    evaluates the rows indexed by idx."""
    seen = []
    real = metric._refine

    def keep_g(g, *args):
        seen.append(g)
        return real(g, *args)

    monkeypatch.setattr(metric, "_refine", keep_g)
    dist_pairs(space, np.zeros_like(rows), rows)
    monkeypatch.setattr(metric, "_refine", real)
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
    p = metric._poly_eval(metric._poly_coeffs(sp.chains, v), t)
    assert np.array_equal(g(t, np.arange(4000)), -1.0 * t + 0.5 * np.log(p))


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
