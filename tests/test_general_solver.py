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

from test_acceptance import _adversarial_corpus

from heintze.errors import SolverError
from heintze.metric import BoundarySpace, dist, dist_pairs

ANGLE = 0.7
ROTATION = np.array([[math.cos(ANGLE), -math.sin(ANGLE)],
                     [math.sin(ANGLE), math.cos(ANGLE)]])


def _rotated_j2(lam):
    return ROTATION @ np.array([[lam, 1.0], [0.0, lam]]) @ ROTATION.T


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


def test_orthogonal_conjugation_on_rotated_corpus(corpus):
    rng = np.random.default_rng(31)
    for a, v in corpus:
        n = a.shape[0]
        r, _ = np.linalg.qr(rng.normal(size=(n, n)))
        # at the default cluster tolerance (1e-6) classifying a rotated
        # J3 + J1 raises ConditioningError on two of these matrices; the
        # general solver itself does not use the classification
        rotated = BoundarySpace(r @ a @ r.T, tol=1e-4)
        assert rotated._mode == "general"
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


def test_stiff_vector_past_the_last_up_rung_raises():
    # e^{-tA}(0.01, 0) = (0.01 e^{-t}, 0) needs t < -5.4 to certify, but the
    # up rungs stop at t = -1/2, where e^{lam/2} reaches the ladder's limit
    space = BoundarySpace(np.array([[1.0, 1.0], [0.0, 1000.0]]))
    with pytest.raises(SolverError, match="no certified left endpoint"):
        dist_pairs(space, np.zeros((1, 2)), [[0.01, 0.0]])
    assert dist_pairs(space, np.zeros((1, 2)), [[0.01, 1.0]])[0] > 0


def test_general_space_builds_its_ladder_once(monkeypatch):
    rng = np.random.default_rng(5)
    calls = []
    expm = scipy.linalg.expm

    def counted(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    space = BoundarySpace(np.array([[1.0, -3.0], [3.0, 1.0]]))
    for _ in range(2):
        x, y = rng.uniform(-5.0, 5.0, (2, 500, 2))
        # e^{-tA} is e^{-t} times a rotation, so D is the Euclidean distance
        np.testing.assert_allclose(dist_pairs(space, x, y),
                                   np.linalg.norm(y - x, axis=1), rtol=1e-11)
    assert len(calls) == 1


def test_uncertifiable_vector_raises_with_diagnostics():
    space = BoundarySpace(_rotated_j2(0.3))
    with pytest.raises(SolverError, match=r"1 vector.*matrix = \[\["):
        dist_pairs(space, np.zeros((2, 2)), [[1.0, 2.0], [0.0, 1e-150]])
