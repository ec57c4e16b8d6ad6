"""The single-eigenvalue path's shortcut for a strictly decreasing g.

g(t) = log|e^{-tA}v| has g' <= -(lam - cos(pi/(s+1))) for the longest
chain size s, so a space with lam above that numerical radius skips the
companion solve.  These tests pin which spaces skip it and that skipping
changes no output bit.  The companion path itself is checked against
the independent scan in test_metric.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import scan_oracle

from heintze import metric
from heintze.linalg import jordan_block
from heintze.metric import BoundarySpace, dist_pairs

# (lam, size) chains; all of these have lam > cos(pi/(s_max + 1))
DECREASING = {
    "J2": [(1.0, 2)],
    "J3": [(1.0, 3)],
    "J4": [(1.0, 4)],
    "J2+J2": [(1.0, 2), (1.0, 2)],
    "J3+J1(0.8)": [(0.8, 3), (0.8, 1)],
    "J4(0.95)": [(0.95, 4)],
}
# J2(0.5) sits at cos(pi/3) exactly; J2+J4(0.6) clears cos(pi/3) but not
# cos(pi/5), the radius of its longest chain
NOT_DECREASING = {
    "J2(0.3)": [(0.3, 2)],
    "J2(0.5)": [(0.5, 2)],
    "J2+J4(0.6)": [(0.6, 2), (0.6, 4)],
}


def _space(chains):
    return BoundarySpace(
        scipy.linalg.block_diag(*[jordan_block(lam, s) for lam, s in chains])
    )


class _CompanionRan(Exception):
    pass


def _no_companion(*args):
    raise _CompanionRan


@pytest.mark.parametrize("name", DECREASING)
def test_decreasing_spaces_skip_the_companion_solve(name, monkeypatch):
    monkeypatch.setattr(metric, "_real_critical_points", _no_companion)
    sp = _space(DECREASING[name])
    x, y = np.random.default_rng(3).uniform(-5, 5, (2, 200, sp.n))
    d = dist_pairs(sp, x, y)
    assert np.all(np.isfinite(d) & (d > 0))


@pytest.mark.parametrize("name", NOT_DECREASING)
def test_other_spaces_run_the_companion_solve(name, monkeypatch):
    monkeypatch.setattr(metric, "_real_critical_points", _no_companion)
    sp = _space(NOT_DECREASING[name])
    x, y = np.random.default_rng(3).uniform(-5, 5, (2, 200, sp.n))
    with pytest.raises(_CompanionRan):
        dist_pairs(sp, x, y)


def _has_critical_point(space, v):
    """Whether the companion solve reports a real critical point of g."""
    p = metric._single_poly_coeffs(space, v[None, :])
    d = int(np.flatnonzero(p[0])[-1])
    if d == 0:
        return False
    lam = space.chains[0][0]
    pc = p[:, : d + 1]
    rc = -2.0 * lam * pc
    rc[:, :-1] += pc[:, 1:] * np.arange(1, d + 1)
    return bool(np.isfinite(metric._real_critical_points(rc)).any())


@pytest.mark.parametrize("name", DECREASING)
def test_skipping_matches_the_companion_path_bit_for_bit(name):
    sp = _space(DECREASING[name])
    rng = np.random.default_rng(17)
    x, y = rng.uniform(-5, 5, (2, 5000, sp.n))
    # 1000 rows with |y - x| log-uniform in [1e-8, 1e3]
    u = rng.normal(size=(1000, sp.n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    y[4000:] = x[4000:] + u * 10.0 ** rng.uniform(-8, 3, (1000, 1))
    got = dist_pairs(sp, x, y)
    forced = _space(DECREASING[name])
    forced._decreasing = False
    want = dist_pairs(forced, x, y)
    rows = np.flatnonzero(got != want)
    print(f"{name}: {rows.size} of {len(x)} rows differ from the companion path")
    assert rows.size <= 5
    for i in rows:
        # only where the companion solve found a critical point that
        # g' < 0 rules out; the independent scan decides
        v = y[i] - x[i]
        assert _has_critical_point(forced, v)
        assert got[i] == pytest.approx(math.exp(scan_oracle(sp.a, v)), rel=1e-9)
