"""Which canonical spaces march, and what marching changes.

g(t) = log|e^{-tA}v| has g' <= -min over chains of (lam - cos(pi/(s+1))),
so a canonical space whose chains all clear that numerical radius has a
strictly decreasing g: its one zero is bracketed from log|v|/lam.  Every
other canonical space marches to the bracket of its first crossing, as
the general path does, before the same refiner.  These tests pin which
spaces march, and that forcing the march on a decreasing space moves
log D by rounding only.

Two test names are older than the march and keep their IDs: "skip the
companion solve" reads "never march", and "run the companion solve"
reads "march".  The companion-matrix solve of g's critical points that
they name is gone.
"""

import numpy as np
import pytest
import scipy.linalg

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


class _Marched(Exception):
    pass


def _no_march(*args):
    raise _Marched


@pytest.mark.parametrize("name", DECREASING)
def test_decreasing_spaces_skip_the_companion_solve(name, monkeypatch):
    monkeypatch.setattr(metric, "_march", _no_march)
    sp = _space(DECREASING[name])
    x, y = np.random.default_rng(3).uniform(-5, 5, (2, 200, sp.n))
    d = dist_pairs(sp, x, y)
    assert np.all(np.isfinite(d) & (d > 0))


@pytest.mark.parametrize("name", NOT_DECREASING)
def test_other_spaces_run_the_companion_solve(name, monkeypatch):
    monkeypatch.setattr(metric, "_march", _no_march)
    sp = _space(NOT_DECREASING[name])
    x, y = np.random.default_rng(3).uniform(-5, 5, (2, 200, sp.n))
    with pytest.raises(_Marched):
        dist_pairs(sp, x, y)


@pytest.mark.parametrize("name", DECREASING)
def test_forced_march_matches_the_bracket_path(name):
    # both ways end in the same refiner on the same g, so the results
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
