"""Which spaces march, on both pipelines, and what marching changes.

g(t) = log|e^{-tA}v| has g' = -<Aw, w>/|w|^2 (w = e^{-tA}v), and the
real part of A's numerical range is [min eig H, max eig H], H = (A +
A^T)/2.  So where H is positive definite g strictly decreases, and
Newton's method finds its one zero from min(log|v|/re_max,
log|v|/re_min) over the real parts of A's eigenvalues.  One test,
eigvalsh of H, decides it on canonical and general spaces alike; on a
canonical sum of chains it is the least chain margin lam - cos(pi/(s+1))
(Haagerup & de la Harpe 1992).  Every other space marches to the bracket
of its first crossing before the same Newton solve.  These tests pin
which spaces march, canonical and rotated (R A R^T, general pipeline),
that forcing the march on a decreasing space moves log D by rounding
only, and the roots of rotated J3 and J4 against 50-digit roots.
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import Marched, no_march

from heintze import metric
from heintze.linalg import jordan_block
from heintze.metric import BoundarySpace, dist_pairs

# (lam, size) chains; every chain has lam > cos(pi/(s + 1))
DECREASING = {
    "J2": [(1.0, 2)],
    "J3": [(1.0, 3)],
    "J4": [(1.0, 4)],
    "J2+J2": [(1.0, 2), (1.0, 2)],
    "J3+J1(0.8)": [(0.8, 3), (0.8, 1)],
    "J4(0.95)": [(0.95, 4)],
    "diag(1..6)": [(float(k), 1) for k in range(1, 7)],
    "diag(2)+J2(1)": [(2.0, 1), (1.0, 2)],
    "J2(0.6)+J1(0.1)": [(0.6, 2), (0.1, 1)],
}
# J2(0.5) sits at cos(pi/3) exactly; J2+J4(0.6) clears cos(pi/3) but not
# cos(pi/5), the radius of its longest chain; J2(0.4) misses cos(pi/3)
# whatever the other chains
NOT_DECREASING = {
    "J2(0.3)": [(0.3, 2)],
    "J2(0.5)": [(0.5, 2)],
    "J2+J4(0.6)": [(0.6, 2), (0.6, 4)],
    "J2(0.4)+J1(2)": [(0.4, 2), (2.0, 1)],
}


def _space(chains):
    return BoundarySpace(
        scipy.linalg.block_diag(*[jordan_block(lam, s) for lam, s in chains])
    )


# the spiral I + 3J: H = I, so g = log|v| - t decreases
SPIRAL = np.array([[1.0, -3.0], [3.0, 1.0]])


def _rotated(chains):
    """R A R^T for the canonical A of ``chains`` and an orthogonal R that
    mixes every coordinate, so the general pipeline solves it."""
    a = _space(chains).a
    r, _ = np.linalg.qr(np.random.default_rng(len(a)).normal(size=a.shape))
    sp = BoundarySpace(r @ a @ r.T)
    assert sp.chains is None
    return sp


@pytest.mark.parametrize("name", DECREASING)
def test_decreasing_spaces_never_march(name, monkeypatch):
    monkeypatch.setattr(metric, "_march", no_march)
    sp = _space(DECREASING[name])
    x, y = np.random.default_rng(3).uniform(-5, 5, (2, 200, sp.n))
    d = dist_pairs(sp, x, y)
    assert np.all(np.isfinite(d) & (d > 0))


@pytest.mark.parametrize("name", NOT_DECREASING)
def test_other_spaces_march(name, monkeypatch):
    monkeypatch.setattr(metric, "_march", no_march)
    sp = _space(NOT_DECREASING[name])
    x, y = np.random.default_rng(3).uniform(-5, 5, (2, 200, sp.n))
    with pytest.raises(Marched):
        dist_pairs(sp, x, y)


@pytest.mark.parametrize("name", [*DECREASING, "spiral"])
def test_decreasing_rotations_never_march(name, monkeypatch):
    monkeypatch.setattr(metric, "_march", no_march)
    if name == "spiral":
        sp = BoundarySpace(SPIRAL)
    else:
        sp = _rotated(DECREASING[name])
        assert _space(DECREASING[name])._decreasing
    assert sp.chains is None and sp._decreasing
    x, y = np.random.default_rng(3).uniform(-5, 5, (2, 200, sp.n))
    d = dist_pairs(sp, x, y)
    assert np.all(np.isfinite(d) & (d > 0))


@pytest.mark.parametrize("name", NOT_DECREASING)
def test_other_rotations_march(name, monkeypatch):
    monkeypatch.setattr(metric, "_march", no_march)
    sp = _rotated(NOT_DECREASING[name])
    assert not sp._decreasing and not _space(NOT_DECREASING[name])._decreasing
    x, y = np.random.default_rng(3).uniform(-5, 5, (2, 200, sp.n))
    with pytest.raises(Marched):
        dist_pairs(sp, x, y)


@pytest.mark.parametrize("size", [3, 4])
def test_rotated_jordan_roots_match_50_digit_roots(size):
    # R J_n(1) R^T rounds to a matrix whose eigenvalues split by about
    # eps^(1/n) into one Newton cluster; its H stays positive definite
    # (1 - cos(pi/(n+1)) >= 0.19), so Newton solves it from the closed-form
    # start.  The exact g of the same float matrix: e^{-tA}v by mpmath's
    # expm at the program's root t, and e^{-(t+s)A}v = sum (-sA)^k/k!
    # e^{-tA}v for |s| <= 2 t_tol max(1, |t|), where 12 terms leave a
    # remainder far below 50 digits.  g strictly decreases, so g(t - d) >
    # 0 >= g(t + d) puts the root within d of t
    mp = pytest.importorskip("mpmath")
    sp = _rotated([(1.0, size)])
    assert sp._clusters.clusters[0].kind == "newton"
    rng = np.random.default_rng(11)
    rows = rng.uniform(-5.0, 5.0, (12, size))
    rows[:4] *= 10.0 ** rng.uniform(-6, 3, (4, 1))
    got = np.log(dist_pairs(sp, np.zeros_like(rows), rows))
    worst = 0.0
    with mp.workdps(50):
        minus_a = -mp.matrix(sp.a.tolist())
        for t, v in zip(got, rows):
            terms = [mp.expm(mp.mpf(float(t)) * minus_a)
                     * mp.matrix(v.tolist())]
            for k in range(1, 12):
                terms.append(minus_a * terms[-1] / k)

            def g(s):
                w = sum((terms[k] * s ** k for k in range(12)),
                        mp.matrix(size, 1))
                return mp.log(mp.norm(w))

            d = metric._T_TOL * max(1.0, abs(t))
            lo, hi = mp.mpf(-2 * d), mp.mpf(2 * d)
            assert g(-d) > 0 >= g(d), (t, v)
            for _ in range(80):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
            worst = max(worst, float(abs(lo)) / max(1.0, abs(t)))
    print(f"R.J{size}(1).RT: worst error {worst:.2g} max(1, |log D|)")


@pytest.mark.parametrize("name", DECREASING)
def test_forced_march_matches_the_bracket_path(name):
    # both ways end in the same Newton solve on the same g, so the results
    # differ only where the two brackets close on different sides of the
    # last float steps
    sp = _space(DECREASING[name])
    rng = np.random.default_rng(17)
    x, y = rng.uniform(-5, 5, (2, 5000, sp.n))
    # 1000 rows with |y - x| log-uniform in [1e-8, 1e3]
    u = rng.normal(size=(1000, sp.n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    y[4000:] = x[4000:] + u * 10.0 ** rng.uniform(-8, 3, (1000, 1))
    got = np.log(dist_pairs(sp, x, y))
    forced = _space(DECREASING[name])
    forced._decreasing = False
    want = np.log(dist_pairs(forced, x, y))
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    print(f"{name}: {np.count_nonzero(got != want)} of {len(x)} rows differ, "
          f"by at most {err.max():.2g} max(1, |log D|)")
    assert err.max() <= 1e-14
