"""The general solver path (non-canonical A) against closed forms.

The narrow-dip family puts the smallest root of g(t) = log|e^{-tA}v|
inside a dip of g far narrower than any fixed scan step; the rotated
corpus checks D_{RAR^T}(Rx, Ry) = D_A(x, y) against the exact
single-eigenvalue path.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import _adversarial_corpus
from test_refiner import _Exact

from heintze import metric
from heintze.errors import RangeError, SolverError
from heintze.linalg import jordan_block
from heintze.metric import BoundarySpace, dist, dist_pairs

ANGLE = 0.7
ROTATION = np.array([[math.cos(ANGLE), -math.sin(ANGLE)],
                     [math.sin(ANGLE), math.cos(ANGLE)]])


def _rotated_j2(lam):
    return ROTATION @ np.array([[lam, 1.0], [0.0, lam]]) @ ROTATION.T


# a rotation of R^3 that mixes every coordinate: no block structure of
# diag(2) + J2(1) survives it, so the rotated matrix takes the general path
ROTATION3 = (np.array([[math.cos(ANGLE), -math.sin(ANGLE), 0.0],
                       [math.sin(ANGLE), math.cos(ANGLE), 0.0],
                       [0.0, 0.0, 1.0]])
             @ np.array([[1.0, 0.0, 0.0],
                         [0.0, math.cos(ANGLE), -math.sin(ANGLE)],
                         [0.0, math.sin(ANGLE), math.cos(ANGLE)]]))
DIAG2_J2 = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])


def _dip(lam, depth):
    """b with g's local minimum at -depth for J2(lam) and v = (0, b), plus
    g(s) = -lam s + log b + log(1 + s^2)/2 and its critical points."""
    root = math.sqrt(1.0 - 4.0 * lam * lam)
    s1, s2 = (1.0 - root) / (2.0 * lam), (1.0 + root) / (2.0 * lam)
    b = math.exp(-depth + lam * s1 - 0.5 * math.log1p(s1 * s1))

    def g(s):
        return -lam * s + math.log(b) + 0.5 * math.log1p(s * s)

    return b, g, s1, s2


def _bisect(g, lo, hi):
    """Zero of g on [lo, hi] with g(lo) > 0 >= g(hi)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("lam", [0.3, 0.35, 0.45])
@pytest.mark.parametrize("depth", [1e-7, 1e-9, 1e-13])
def test_narrow_dip_root(lam, depth):
    b, g, s1, _ = _dip(lam, depth)
    lo = s1 - 1.0
    while g(lo) <= 0:
        lo -= 1.0
    want = _bisect(g, lo, s1)
    got = math.log(dist(BoundarySpace(_rotated_j2(lam)), [0.0, 0.0],
                        ROTATION @ [0.0, b]))
    # the root sits where g has slope sqrt(2 depth g''(s1)), so an error
    # of 1e-13 in g moves it by 1e-13 / slope; a skipped dip moves it by
    # more than 1 (6.37 in place of 0.333 for lam = 0.3, depth 1e-7)
    g2 = (1.0 - s1 * s1) / (1.0 + s1 * s1) ** 2
    assert abs(got - want) <= 1e-10 + 1e-13 / math.sqrt(2.0 * depth * g2)


@pytest.mark.parametrize("lam", [0.3, 0.35, 0.45])
def test_near_tangent_dip_returns_later_root(lam):
    # the dip stops 1e-13 above zero, so the first root lies past the
    # local maximum at s2
    b, g, _, s2 = _dip(lam, -1e-13)
    hi = s2 + 1.0
    while g(hi) > 0:
        hi += 1.0
    want = _bisect(g, s2, hi)
    got = math.log(dist(BoundarySpace(_rotated_j2(lam)), [0.0, 0.0],
                        ROTATION @ [0.0, b]))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.fixture(scope="module")
def corpus():
    return _adversarial_corpus(50)


# J3 and J4, whose eigenvalue rounding splits once rotated, and two
# canonical sums whose numerical Jordan form raises ConditioningError
BUILD_CASES = [
    jordan_block(1.0, 3),
    jordan_block(1.0, 4),
    scipy.linalg.block_diag(jordan_block(0.25, 5), jordan_block(0.5, 5),
                            jordan_block(2.0, 2)),
    scipy.linalg.block_diag([[0.1]], jordan_block(0.1, 3),
                            jordan_block(0.2, 5)),
]


def test_orthogonal_conjugation_on_rotated_corpus(corpus):
    rng = np.random.default_rng(31)
    extra = np.random.default_rng(37)
    cases = corpus + [(a, extra.uniform(-3.0, 3.0, a.shape[0]))
                      for a in BUILD_CASES]
    for a, v in cases:
        n = a.shape[0]
        r, _ = np.linalg.qr(rng.normal(size=(n, n)))
        # spaces read only the matrix: no Jordan form, so no cluster
        # tolerance to resolve the rotated spectrum with
        rotated = BoundarySpace(r @ a @ r.T)
        assert rotated.chains is None
        x = rng.uniform(-3.0, 3.0, n)
        want = math.log(dist(BoundarySpace(a), x, x + v))
        got = math.log(dist(rotated, r @ x, r @ (x + v)))
        assert abs(got - want) <= 1e-8


@pytest.mark.parametrize("lam", [30.0, 100.0, 300.0, 350.0, 400.0, 500.0,
                                 550.0, 1000.0])
def test_orthogonal_conjugation_on_stiff_diagonal(lam):
    # in the original coordinates the left endpoint t = -1 scales the stiff
    # component by e^lam and its rounding error lands in the slow direction
    # (v = (0.1, 0) on lam = 100 gave log D = 59.9 against -0.0274); on
    # lam = 350 the Schur form's 3e-14 off-diagonal did the same, and from
    # about 350 up |e^{T} v|^2 overflows
    v = np.random.default_rng(8).uniform(-5.0, 5.0, (300, 2))
    v[0] = (0.1, 0.0)
    zeros = np.zeros_like(v)
    a = ROTATION @ np.diag([1.0, lam]) @ ROTATION.T
    got = dist_pairs(BoundarySpace(a), zeros, v)
    want = dist_pairs(BoundarySpace(np.diag([1.0, lam])), zeros, v @ ROTATION)
    np.testing.assert_allclose(np.log(got), np.log(want), rtol=0, atol=1e-10)


def test_huge_vectors_on_a_humped_matrix():
    # on A = [[1, b], [0, d]], |e^{-tA} v| rises about b/4-fold before it
    # falls, so with |v| near 1e154 it passes 1.34e154, where |w|^2
    # overflows: the norm and the marching slope must be scaled
    b, d = 100.0, 1.5
    rng = np.random.default_rng(0)
    v = rng.uniform(-1.0, 1.0, (40, 2))
    v *= 10.0 ** rng.uniform(152, 154, (40, 1))
    got = np.log(dist_pairs(BoundarySpace(np.array([[1.0, b], [0.0, d]])),
                            np.zeros_like(v), v))

    def g(t, v1, v2):
        e1, e2 = math.exp(-t), math.exp(-d * t)
        return math.log(math.hypot(e1 * v1 + b * (e1 - e2) / (1.0 - d) * v2,
                                   e2 * v2))

    for (v1, v2), t in zip(v, got):
        lo, hi = t - 0.5, t + 0.5
        assert all(g(s, v1, v2) > 0 for s in np.linspace(-1.0, lo, 200))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if g(mid, v1, v2) > 0 else (lo, mid)
        assert abs(t - lo) <= 1e-10


def test_general_space_of_dimension_172():
    # 172 eigenvalues 1/171 apart, each a cluster of its own: an
    # eigenvector of length 3 is at distance 3
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(172, 172)))
    a = q @ np.diag(np.linspace(1.0, 2.0, 172)) @ q.T
    got = dist(BoundarySpace(a), np.zeros(172), 3.0 * q[:, 0])
    assert abs(got - 3.0) <= 4e-15, got


def test_stiff_vector_solves():
    # e^{-tA}(0.01, 0) = (0.01 e^{-t}, 0): log D = log 0.01, where e^{-1000 t}
    # is about e^4605.  Each cluster keeps its own log scale, so nothing
    # caps ||e^{-tA}||
    space = BoundarySpace(np.array([[1.0, 1.0], [0.0, 1000.0]]))
    got = math.log(dist_pairs(space, np.zeros((1, 2)), [[0.01, 0.0]])[0])
    assert abs(got - math.log(0.01)) <= metric._T_TOL
    assert dist_pairs(space, np.zeros((1, 2)), [[0.01, 1.0]])[0] > 0


@pytest.mark.parametrize("b", [1e160, 1e200])
def test_overflowing_curvature_never_gives_the_later_crossing(b):
    # g(t) = log|e^{-tA}e_2| touches 0 at t = 0 (D = 1) and crosses later;
    # K = ||Z||^2/2 = b^2/8 overflows, so no march step could be certified
    space = BoundarySpace(np.array([[1.0, b], [0.0, 1.5]]))
    try:
        d = dist(space, [0.0, 0.0], [0.0, 1.0])
    except RangeError as exc:
        assert f"||A|| = {b:.6g}" in str(exc)
    else:
        assert d == pytest.approx(1.0, abs=1e-10)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_infinite_curvature_reaches_the_step_cap(monkeypatch):
    # with K = inf every step length h is 0 or NaN: the march may only
    # creep by the floor step t_tol, so it cannot reach the root within
    # the cap.  The error names the row count and the matrix
    monkeypatch.setattr(metric, "_MAX_STEPS", 1000)
    monkeypatch.setattr(metric, "_curvature", lambda a: math.inf)
    space = BoundarySpace(np.array([[1.0, -3.0], [3.0, 1.0]]))
    with pytest.raises(SolverError,
                       match=r"step cap for 2 vector.*matrix = \[\["):
        dist_pairs(space, np.zeros((2, 2)), [[1.0, 0.0], [3.0, 3.0]])


def test_general_space_builds_its_clusters_once(monkeypatch):
    # the decoupled Schur form and K are built by the first batch that
    # needs them, once per space
    rng = np.random.default_rng(5)
    calls = []

    def counted(name):
        real = getattr(metric, name)

        def wrapper(a):
            calls.append(name)
            return real(a)
        return wrapper

    for name in ("schur_clusters", "_curvature"):
        monkeypatch.setattr(metric, name, counted(name))
    space = BoundarySpace(np.array([[1.0, -3.0], [3.0, 1.0]]))
    for _ in range(2):
        x, y = rng.uniform(-5.0, 5.0, (2, 500, 2))
        # e^{-tA} is e^{-t} times a rotation, so D is the Euclidean distance
        np.testing.assert_allclose(dist_pairs(space, x, y),
                                   np.linalg.norm(y - x, axis=1), rtol=1e-11)
    assert sorted(calls) == ["_curvature", "schur_clusters"]


def test_underflowing_distance_raises():
    # the root of (0, 1e-150) lies at log D = -1128.75, where e^t
    # underflows: a RangeError names it, though the march reaches it
    space = BoundarySpace(_rotated_j2(0.3))
    with pytest.raises(RangeError, match=r"^1 distance\(s\) out of range: "
                                         r"log D = -1128\.75 "):
        dist_pairs(space, np.zeros((2, 2)), [[1.0, 2.0], [0.0, 1e-150]])


# ---------------------------------------------------------------------------
# the march: curvature bound, step counts and accuracy


def _g2(a, w):
    """g'' at unit rows w of e^{-tA}v: 2(<Aw, Sw> - <Sw, w>^2)."""
    sw = w @ (0.5 * (a + a.T)).T
    return 2.0 * (np.einsum("ij,ij->i", w @ a.T, sw)
                  - np.einsum("ij,ij->i", sw, w) ** 2)


@given(st.integers(min_value=2, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_curvature_bound_holds_on_random_matrices(n, data):
    entries = data.draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                                 min_size=n * n, max_size=n * n))
    a = np.array(entries).reshape(n, n)
    # K depends on A only through A - (tr A/n) I: shift the spectrum right
    a += (1.0 - min(0.0, np.linalg.eigvals(a).real.min())) * np.eye(n)
    big_k = metric._curvature(a)
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    w = np.random.default_rng(seed).normal(size=(2000, n))
    w /= np.linalg.norm(w, axis=1)[:, None]
    # the bound is sharp (J2(lam) attains it), so allow the rounding of g''
    assert _g2(a, w).min() >= -big_k - 1e-12 * (1.0 + np.abs(a).sum() ** 2)
    sym = np.linalg.eigvalsh(0.5 * (a + a.T))
    skew = np.linalg.norm(0.5 * (a - a.T), 2)
    assert big_k <= skew * (sym[-1] - sym[0]) * (1.0 + 1e-12)


@pytest.mark.parametrize("lam", [0.3, 0.45])
def test_curvature_bound_is_attained_on_j2(lam):
    # on J2(lam) with v = (0, 1), g(s) = -lam s + log(1 + s^2)/2, whose
    # least g'' is -1/8 at s^2 = 3; K is ||Z||^2/2 = 1/8
    assert metric._curvature(_rotated_j2(lam)) == \
        pytest.approx(0.125, rel=1e-14)
    for a in (np.diag([1.0, 3.0]), np.array([[1.0, -3.0], [3.0, 1.0]])):
        assert metric._curvature(a) == 0.0


@pytest.mark.parametrize("a", [_rotated_j2(0.3),
                               np.array([[1.0, -3.0], [3.0, 1.0]]),
                               np.array([[2.0, 0.5, -1.0], [0.0, 1.0, 1.0],
                                         [0.3, 0.0, 1.5]])],
                         ids=["R.J2(0.3).RT", "spiral", "3x3"])
def test_curvature_formula_matches_finite_differences(a):
    v = np.random.default_rng(2).normal(size=a.shape[0])

    def g(t):
        return math.log(np.linalg.norm(scipy.linalg.expm(-t * a) @ v))

    step = 1e-4
    for t in (-0.7, 0.0, 0.4, 1.9):
        w = scipy.linalg.expm(-t * a) @ v
        closed = _g2(a, (w / np.linalg.norm(w))[None, :])[0]
        diff = (g(t + step) - 2.0 * g(t) + g(t - step)) / step**2
        assert closed == pytest.approx(diff, rel=1e-5, abs=1e-6)


def _count_steps(monkeypatch):
    """March steps over all rows: both marches take the length of each
    row's step from ``_step_length``, once per step."""
    count = [0]
    real = metric._step_length

    def counted(g, slope, big_k):
        count[0] += g.shape[0]
        return real(g, slope, big_k)

    monkeypatch.setattr(metric, "_step_length", counted)
    return count


GENERAL_CASES = {
    "R.J2(0.3).RT": _rotated_j2(0.3),
    "spiral": np.array([[1.0, -3.0], [3.0, 1.0]]),
    "diag(2)+J2(1)": DIAG2_J2,
    "R.(diag(2)+J2(1)).RT": ROTATION3 @ DIAG2_J2 @ ROTATION3.T,
}


@pytest.mark.parametrize("name, most", [("R.J2(0.3).RT", 12), ("spiral", 5),
                                        ("diag(2)+J2(1)", 8),
                                        ("R.(diag(2)+J2(1)).RT", 8)])
def test_march_step_counts(monkeypatch, name, most):
    # exact steps converge quadratically near a simple root
    space = BoundarySpace(GENERAL_CASES[name])
    # the canonical diag(2)+J2(1) has a decreasing g and takes no march by
    # itself: forced, it counts the steps of the march on the closed-form
    # g, which canonical spaces whose g may rise take; its rotation counts
    # those on the general path's cluster g of the same function
    space._decreasing = False
    count = _count_steps(monkeypatch)
    x, y = np.random.default_rng(7).uniform(-5.0, 5.0, (2, 2000, space.n))
    dist_pairs(space, x, y)
    per_row = count[0] / x.shape[0]
    assert per_row > 0
    print(f"{name}: {per_row:.2f} steps per row")
    assert per_row <= most


class _Exact2:
    """g(t) = log|e^{-tA}v| at working precision for a 2 x 2 float A, from
    e^{-tA} = e^{-mu t}(C(t) I - S(t) B) with B = A - mu I, B^2 = delta I,
    C = cosh(t sqrt(delta)), S = sinh(t sqrt(delta))/sqrt(delta)."""

    smallest_root = _Exact.smallest_root

    def __init__(self, mp, a, v):
        self.mp = mp
        a = mp.matrix([[mp.mpf(float(x)) for x in row] for row in a])
        self.a = a
        self.mu = (a[0, 0] + a[1, 1]) / 2
        b = a - self.mu * mp.eye(2)
        self.delta = b[0, 0] ** 2 + b[0, 1] * b[1, 0]
        self.v = mp.matrix([mp.mpf(float(x)) for x in v])
        self.u = b * self.v

    def w(self, t):
        mp, d, t = self.mp, self.delta, self.mp.mpf(t)
        if d > 0:
            r = mp.sqrt(d)
            c, s = mp.cosh(t * r), mp.sinh(t * r) / r
        elif d < 0:
            r = mp.sqrt(-d)
            c, s = mp.cos(t * r), mp.sin(t * r) / r
        else:
            c, s = mp.mpf(1), t
        return mp.exp(-self.mu * t) * (c * self.v - s * self.u)

    def __call__(self, t):
        w = self.w(t)
        return self.mp.log(w[0] ** 2 + w[1] ** 2) / 2

    def slope(self, t):
        w = self.w(t)
        aw = self.a * w
        return -(aw[0] * w[0] + aw[1] * w[1]) / (w[0] ** 2 + w[1] ** 2)

    def critical_points(self):
        """Zeros of g': those of f' - 2 mu f for f = |v - tu|^2 (the
        delta = 0 case; |delta| is a rounding error here), polished."""
        mp, mu = self.mp, self.mu
        vv, uu = (self.v.T * self.v)[0], (self.u.T * self.u)[0]
        vu = (self.v.T * self.u)[0]
        out = []
        for z in mp.polyroots([-2 * mu * uu, 2 * uu + 4 * mu * vu,
                               -2 * vu - 2 * mu * vv], extraprec=100):
            if abs(mp.im(z)) < 1e-30:
                near = (mp.re(z) - 1e-6, mp.re(z) + 1e-6)
                out.append(mp.findroot(self.slope, near, solver="anderson"))
        return sorted(out)


def test_general_roots_match_50_digit_roots():
    mp = pytest.importorskip("mpmath")
    t_tol = metric._T_TOL
    rng = np.random.default_rng(3)
    with mp.workdps(50):
        for name, a in GENERAL_CASES.items():
            v = rng.uniform(-5.0, 5.0, (50, a.shape[0]))
            got = np.log(dist_pairs(BoundarySpace(a), np.zeros_like(v), v))
            for t, row in zip(got, v):
                if name == "spiral":  # e^{-tA} is e^{-t} times a rotation
                    exact = mp.log(mp.norm(mp.matrix(row.tolist())))
                elif name == "diag(2)+J2(1)":
                    # S has eigenvalues 2, 3/2, 1/2: g is decreasing
                    exact = _Exact(mp, [(2.0, 1), (1.0, 2)], row).smallest_root()
                elif name == "R.(diag(2)+J2(1)).RT":
                    # |e^{-t RAR^T} v| = |e^{-tA} R^T v|; rounding R A R^T
                    # and R^T v moves the root by about eps
                    exact = _Exact(mp, [(2.0, 1), (1.0, 2)],
                                   ROTATION3.T @ row).smallest_root()
                else:
                    exact = _Exact2(mp, a, row).smallest_root()
                err = float(abs(mp.mpf(t) - exact))
                assert err <= t_tol * max(1.0, abs(float(exact))), (name, row)
        # the dips: the root sits where |g'| is about sqrt(2 depth g''), so
        # the rounding of g over the march (budget 4e-15, about an ulp per
        # step) moves it by 4e-15/|g'|, up to 1.6e-10; a skipped dip moves
        # it by more than 1
        for lam in (0.3, 0.35, 0.45):
            for depth in (1e-7, 1e-9):
                b = _dip(lam, depth)[0]
                a, row = _rotated_j2(lam), ROTATION @ [0.0, b]
                t = math.log(dist(BoundarySpace(a), [0.0, 0.0], row))
                g = _Exact2(mp, a, row)
                exact = g.smallest_root()
                err = float(abs(mp.mpf(t) - exact))
                assert err <= t_tol + 4e-15 / abs(float(g.slope(exact)))


def test_rotated_j2_matches_the_canonical_path():
    # D_{RAR^T}(x, y) = D_A(R^T x, R^T y): the general path on R.J2(0.3).R^T
    # against the canonical closed-form g at R^T(y - x).  Its Schur form
    # has eigenvalues 0.3 +- 7.45e-9: the divided difference (e^{s lam2} -
    # e^{s lam1}) / (lam2 - lam1) would cancel over that split and move
    # roots by 2e-10, where the sinch form keeps every bit
    x, y = np.random.default_rng(0).uniform(-5.0, 5.0, (2, 2000, 2))
    got = np.log(dist_pairs(BoundarySpace(_rotated_j2(0.3)), x, y))
    want = np.log(dist_pairs(BoundarySpace(jordan_block(0.3, 2)),
                             np.zeros_like(x), (y - x) @ ROTATION))
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("a, kinds", [
    (_rotated_j2(0.3), ["pair"]), (_rotated_j2(0.35), ["pair"]),
    (_rotated_j2(0.45), ["pair"]),
    (np.array([[1.0, -3.0], [3.0, 1.0]]), ["rot"]),
    (ROTATION3 @ DIAG2_J2 @ ROTATION3.T, ["one", "pair"])],
    ids=["R.J2(0.3).RT", "R.J2(0.35).RT", "R.J2(0.45).RT", "spiral",
         "R.(diag(2)+J2(1)).RT"])
def test_clusters_rebuild_the_matrix(a, kinds):
    # the decoupled Schur form: A = Q S D S^-1 Q^T to rounding, D the direct
    # sum of the cluster blocks.  A split double eigenvalue stays one
    # cluster, a "pair"; the spiral's complex pair is a "rot" block; diag(2)
    # is decoupled from J2(1)
    sc = BoundarySpace(a)._clusters
    assert [c.kind for c in sc.clusters] == kinds
    d = np.zeros_like(a)
    for c in sc.clusters:
        d[c.lo:c.hi, c.lo:c.hi] = sc.tri[c.lo:c.hi, c.lo:c.hi]
    back = sc.q @ sc.s @ d @ sc.s_inv @ sc.q.T
    assert np.abs(back - a).max() <= 1e-14 * np.abs(a).max()
    assert np.abs(sc.s @ sc.s_inv - np.eye(len(a))).max() <= 1e-15


@pytest.mark.parametrize("a", [_rotated_j2(0.3), _rotated_j2(0.35),
                               np.array([[1.0, -3.0], [3.0, 1.0]]),
                               ROTATION3 @ jordan_block(1.0, 3) @ ROTATION3.T],
                         ids=["R.J2(0.3).RT", "R.J2(0.35).RT", "spiral",
                              "R.J3.RT"])
def test_cluster_exponentials_match_50_digit_expm(a):
    # each cluster's closed form e^{-tT_c} = e^{-mu t} sum_p c_p(t) basis[p]
    # against mpmath's expm of the same float block, at t = +-2^k: the sinch
    # pair, the rotation and (R.J3.RT, split into a real eigenvalue and a
    # complex pair) Newton's form
    mp = pytest.importorskip("mpmath")
    ts = np.concatenate([-np.ldexp(1.0, np.arange(-3, 5)),
                         np.ldexp(1.0, np.arange(-3, 5))])
    sc = BoundarySpace(a)._clusters
    with mp.workdps(50):
        for c in sc.clusters:
            block = mp.matrix(sc.tri[c.lo:c.hi, c.lo:c.hi].tolist())
            got = np.exp(-c.mu * ts)[:, None, None] * np.einsum(
                "pt,pij->tij", c.coefficients(ts), c.basis).real
            for t, m in zip(ts, got):
                want = mp.expm(-mp.mpf(float(t)) * block)
                scale = max(abs(x) for x in want)
                err = max(abs(mp.mpf(float(g)) - w)
                          for g, w in zip(m.ravel().tolist(), want))
                assert float(err / scale) <= 1e-15, t


@pytest.mark.parametrize("lam", [10.0, 100.0, 1e3, 1e4])
def test_rotated_stiff_sums_match_50_digit_roots(lam):
    # R.(diag(lam) + J2(1)).R^T: a stiff cluster decoupled from a slow
    # pair, each on its own log scale.  The vectors are uniform in the
    # unrotated coordinates, so each has a stiff part and the rounding of
    # R A R^T and of R^T v moves a root by far less than t_tol
    mp = pytest.importorskip("mpmath")
    a = ROTATION3 @ scipy.linalg.block_diag([[lam]], jordan_block(1.0, 2)) \
        @ ROTATION3.T
    space = BoundarySpace(a)
    assert space.chains is None
    v = np.random.default_rng(41).uniform(-5.0, 5.0, (20, 3)) @ ROTATION3.T
    got = np.log(dist_pairs(space, np.zeros_like(v), v))
    with mp.workdps(50):
        for t, row in zip(got, v):
            exact = _Exact(mp, [(lam, 1), (1.0, 2)],
                           ROTATION3.T @ row).smallest_root()
            err = float(abs(mp.mpf(t) - exact))
            assert err <= metric._T_TOL * max(1.0, abs(float(exact))), row
