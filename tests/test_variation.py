import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from heintze import variation
from heintze.errors import CapExceededError
from heintze.linalg import jordan_block
from heintze.variation import _Cells, _preimage, _sat_axes, _unique_rows
from heintze.variation import (
    PackingSpec,
    TestFunction,
    count_cells,
    enumerate_packing,
    fit_exponents,
    oscillation,
    variation_sum,
    volume_estimate,
)

UNIT_BOX = np.array([[0.0, 0.0], [1.0, 1.0]])


def lp_cell_touches_closed(m, box, z):
    """Closed-cube LP oracle: exists b in box with M b - z in [0, 1]^n."""
    n = m.shape[0]
    a_ub = np.vstack([m, -m])
    b_ub = np.concatenate([z + 1.0, -np.asarray(z, dtype=float)])
    res = linprog(
        np.zeros(n), A_ub=a_ub, b_ub=b_ub,
        bounds=list(zip(box[0], box[1])), method="highs",
    )
    return res.status == 0


def reference_packing(spec):
    """Every candidate of the bounding box that passes every cell test, in
    lexicographic order: the brute-force check of the row sweep."""
    cells = _Cells(spec)
    grids = [np.arange(lo, hi + 1) for lo, hi in cells.ranges]
    z = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")],
                 axis=1)
    return z[cells.tests(z.astype(float)).all(axis=0)]


def assert_matches_reference(spec):
    np.testing.assert_array_equal(enumerate_packing(spec),
                                  reference_packing(spec), strict=True)


def test_identity_unit_cubes():
    spec = PackingSpec(np.eye(2), 0.0, np.array([[0.0, 0.0], [2.0, 2.0]]))
    cells = enumerate_packing(spec)
    assert len(cells) == 9
    assert count_cells(spec) == 9
    assert cells.tolist() == sorted(
        [list(p) for p in itertools.product(range(3), repeat=2)]
    )


def test_doubling_scale_counts():
    spec = PackingSpec(np.eye(2), -math.log(2.0), UNIT_BOX)
    assert 4 <= count_cells(spec) <= 9


def test_enumeration_vs_lp_oracle(rng):
    # generic boxes; enumerator must be sound (all kept cells touch the
    # closed preimage) and complete up to the half-open convention
    a = jordan_block(1.0, 2)
    t = -1.3
    box = np.array([[0.11, -0.37], [1.53, 0.94]])
    spec = PackingSpec(a, t, box)
    cells = enumerate_packing(spec)
    m = scipy.linalg.expm(-t * a)
    for z in cells:
        assert lp_cell_touches_closed(m, box, z)
    # completeness: all interior-touching cells are kept.  Rasterize.
    samples = rng.uniform(box[0], box[1], (40_000, 2)) @ m.T
    hit = {tuple(z) for z in np.floor(samples).astype(int)}
    kept = {tuple(z) for z in cells.tolist()}
    assert hit <= kept


def test_count_matches_enumeration_for_diagonal():
    for t in (-0.7, -2.0):
        spec = PackingSpec(np.diag([1.0, 2.0]), t,
                           np.array([[0.05, -0.4], [1.2, 0.73]]))
        assert count_cells(spec) == len(enumerate_packing(spec))


def test_count_growth_rate():
    # count tracks e^{-t tr A} within factor 4 at moderate |t|
    spec = PackingSpec(np.diag([1.0, 2.0]), -3.0, UNIT_BOX)
    est = volume_estimate(spec)
    assert est == pytest.approx(math.exp(9.0), rel=1e-12)
    cells = count_cells(spec)
    assert est / 4 <= cells <= est * 4


def test_cap_error_names_estimate():
    spec = PackingSpec(np.diag([1.0, 2.0]), -5.0, UNIT_BOX, max_cells=1000)
    with pytest.raises(CapExceededError, match="3.2"):
        enumerate_packing(spec)
    with pytest.raises(CapExceededError):
        variation_sum(spec, TestFunction.coordinate(2, 1), 1.0)


def test_cap_reports_an_estimate_past_the_float_range():
    # e^{-t tr A} = e^{1600} overflows: the cap, not math.exp, reports it
    spec = PackingSpec(jordan_block(1.0, 2), -800.0, UNIT_BOX)
    assert volume_estimate(spec) == math.inf
    with pytest.raises(CapExceededError, match="estimated cell count inf"):
        count_cells(spec)


def test_oscillation_examples():
    u1 = TestFunction.coordinate(3, 0)
    assert oscillation(np.eye(3), 0.0, u1) == pytest.approx(1.0)
    u_top = TestFunction.coordinate(2, 1)
    for t in (-1.0, -2.5):
        assert oscillation(np.diag([1.0, 2.0]), t, u_top) == pytest.approx(
            math.exp(2 * t), rel=1e-12
        )
    u_first = TestFunction.coordinate(2, 0)
    for t in (-1.0, -3.0):
        assert oscillation(jordan_block(1.0, 2), t, u_first) == pytest.approx(
            math.exp(t) * (1 + abs(t)), rel=1e-12
        )


def test_oscillation_matches_corner_sampling(rng):
    # linear functionals attain extremes at parallelotope corners
    for n in (2, 3):
        a = jordan_block(1.0, n) if n == 3 else np.diag([1.0, 2.0])
        t = float(rng.uniform(-3, -1))
        ell = rng.normal(size=n)
        u = TestFunction.from_vector(ell)
        img = scipy.linalg.expm(t * a)
        z = rng.integers(-3, 3, n).astype(float)
        corners = np.array(
            [z + np.array(c) for c in itertools.product((0.0, 1.0), repeat=n)]
        )
        pts = corners @ img.T
        fill = (z + rng.uniform(0, 1, (10_000, n))) @ img.T
        vals = np.concatenate([pts @ ell, fill @ ell])
        sampled = vals.max() - vals.min()
        assert oscillation(a, t, u) == pytest.approx(sampled, abs=1e-12)


def test_variation_sum_single_cell():
    spec = PackingSpec(np.eye(2), 0.0,
                       np.array([[0.2, 0.2], [0.8, 0.8]]))
    assert count_cells(spec) == 1
    u = TestFunction.coordinate(2, 0)
    for q in (1.0, 1.7, 3.0):
        assert variation_sum(spec, u, q) == pytest.approx(
            oscillation(np.eye(2), 0.0, u) ** q
        )


def test_variation_sum_diag_critical_flatness():
    a = np.diag([1.0, 2.0])
    u = TestFunction.coordinate(2, 1)
    vals = []
    for t in (-3.0, -4.0):
        spec = PackingSpec(a, t, UNIT_BOX)
        vals.append(variation_sum(spec, u, 1.5))
    for v in vals:
        assert 0.25 <= v <= 4.0  # ~ Vol(box) = 1 within factor 4
    assert abs(math.log(vals[0] / vals[1])) < 0.2


def test_variation_sum_j2_flat_in_t():
    a = jordan_block(1.0, 2)
    u = TestFunction.coordinate(2, 1)  # the pi_A coordinate
    for t in (-4.0, -5.0):
        spec = PackingSpec(a, t, UNIT_BOX)
        v = variation_sum(spec, u, 2.0)
        assert 0.25 <= v <= 4.0


def test_fit_exponents_diag12():
    rep = fit_exponents(
        np.diag([1.0, 2.0]), TestFunction.coordinate(2, 1), UNIT_BOX,
        [-6.0, -5.0, -4.0], [1.0, 1.5, 2.0], max_cells=10**8,
    )
    by_q = {f.q: f for f in rep.fits}
    assert by_q[1.0].slope == pytest.approx(-1.0, abs=0.1)
    assert by_q[1.0].predicted == -1.0
    assert by_q[1.0].classification == "diverging"
    assert by_q[1.5].slope == pytest.approx(0.0, abs=0.1)
    assert by_q[1.5].classification == "critical"
    assert by_q[2.0].slope == pytest.approx(1.0, abs=0.1)
    assert by_q[2.0].classification == "vanishing"
    assert len(rep.rows) == 9
    assert all(r.cells > 0 for r in rep.rows)


def test_fit_predicts_the_rate_of_the_chains_u_touches():
    # u = e_0 on diag(1, 2) sees only e^{t}: the rate is Q*1 - 3, not Q*2
    # - 3 (lam_max), and the fitted slopes follow it
    rep = fit_exponents(
        np.diag([1.0, 2.0]), TestFunction.coordinate(2, 0), UNIT_BOX,
        [-6.0, -5.0, -4.0], [1.0, 2.0], max_cells=10**8,
    )
    by_q = {f.q: f for f in rep.fits}
    assert (by_q[1.0].predicted, by_q[2.0].predicted) == (-2.0, -1.0)
    for fit in rep.fits:
        assert fit.slope == pytest.approx(fit.predicted, abs=0.1)


def test_fit_critical_exponent_sign_flip():
    # Q* = (lam1 + lam2)/lam2 = 1.5 for diag(1,2)
    rep = fit_exponents(
        np.diag([1.0, 2.0]), TestFunction.coordinate(2, 1), UNIT_BOX,
        [-6.0, -5.0, -4.0], [1.4, 1.6], max_cells=10**8,
    )
    by_q = {f.q: f for f in rep.fits}
    assert by_q[1.4].slope < 0 < by_q[1.6].slope


def test_fit_grid_validation():
    u = TestFunction.coordinate(2, 1)
    with pytest.raises(ValueError, match="3 grid"):
        fit_exponents(np.diag([1.0, 2.0]), u, UNIT_BOX, [-5.0, -4.0], [1.0])
    with pytest.raises(ValueError, match="increasing"):
        fit_exponents(np.diag([1.0, 2.0]), u, UNIT_BOX,
                      [-4.0, -5.0, -6.0], [1.0])
    with pytest.raises(ValueError, match="< -1"):
        fit_exponents(np.diag([1.0, 2.0]), u, UNIT_BOX,
                      [-2.0, -1.0, 0.0], [1.0])


@pytest.mark.parametrize("qs", [[0.5], [math.nan], [math.inf], [1.0, 1.0],
                                [1.5, 2.0, 1.5]])
def test_bad_q_values_raise(qs):
    # below 1, not finite, or repeated (a repeated Q would fit two logs
    # per t); the check comes before any packing is counted
    a, u = jordan_block(1.0, 2), TestFunction.coordinate(2, 1)
    with pytest.raises(ValueError, match="finite, at least 1 and distinct"):
        fit_exponents(a, u, UNIT_BOX, [-4.0, -3.0, -2.0], qs)
    if len(qs) == 1:
        with pytest.raises(ValueError, match="finite, at least 1 and"):
            variation_sum(PackingSpec(a, -4.0, UNIT_BOX), u, qs[0])


def test_monotone_in_q_when_oscillations_small():
    a = np.diag([1.0, 2.0])
    u = TestFunction.coordinate(2, 1)
    spec = PackingSpec(a, -3.0, UNIT_BOX)
    assert oscillation(a, -3.0, u) <= 1.0
    values = [variation_sum(spec, u, q) for q in (1.0, 1.5, 2.0, 3.0)]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_subset_monotonicity():
    a = jordan_block(1.0, 2)
    u = TestFunction.coordinate(2, 1)
    inner = np.array([[0.2, 0.1], [0.7, 0.8]])
    outer = np.array([[0.0, 0.0], [1.0, 1.0]])
    for t in (-2.0, -3.5):
        v_in = variation_sum(PackingSpec(a, t, inner), u, 1.5)
        v_out = variation_sum(PackingSpec(a, t, outer), u, 1.5)
        assert v_in <= v_out


def test_enumeration_box_elongated_in_second_axis():
    # exercises intermediate-direction runs: the box stretched along the
    # second coordinate while the preimage skews the first
    a = jordan_block(1.0, 2)
    box = np.array([[0.0, 0.0], [0.4, 30.0]])
    spec = PackingSpec(a, -1.0, box)
    cells = enumerate_packing(spec)
    assert len(cells) == count_cells(spec)
    est = volume_estimate(spec)
    assert est / 4 <= len(cells) <= est * 4
    m = scipy.linalg.expm(1.0 * a)
    for z in cells[:: max(1, len(cells) // 50)]:
        assert lp_cell_touches_closed(m, box, z)


def _count_corpus(family, seed, size=40):
    """Seeded packings of one matrix family: random boxes and boxes with
    integer corners (at integer t these put cell corners exactly on the
    preimage's faces), from t = 0 down to where enumeration stays cheap:
    about `budget` cells expected, and a bounding box that the nilpotent
    part of A stretches by powers of |t| no deeper than `floor`."""
    rng = np.random.default_rng(seed)
    specs = []
    for k in range(size):
        lam, mu = rng.uniform(0.2, 2.0, 2)
        j2 = jordan_block(lam, 2)
        a, budget, floor = {
            "J2": (j2, 1e5, -7.0),
            "J3": (jordan_block(lam, 3), 3e3, -3.0),
            "J2+J1": (scipy.linalg.block_diag(j2, [[mu]]), 1e4, -4.0),
            "J1+J2": (scipy.linalg.block_diag([[mu]], j2), 1e4, -4.0),
            "diag+J2": (scipy.linalg.block_diag(np.diag([mu, lam]),
                                                jordan_block(mu, 2)), 3e3, -3.0),
        }[family]
        n = a.shape[0]
        if k % 2:
            lo = rng.integers(-3, 3, n).astype(float)
            hi = lo + rng.integers(1, 3, n)
        else:
            lo = rng.uniform(-2.0, 2.0, n)
            hi = lo + rng.uniform(0.05, 2.5, n)
        t_min = max(floor, -math.log(budget / np.prod(hi - lo)) / np.trace(a))
        if k % 2:
            t = float(rng.integers(math.ceil(t_min), 1))
        else:
            t = rng.uniform(t_min, 0.0)
        specs.append(PackingSpec(a, t, np.stack([lo, hi])))
    return specs


@pytest.mark.parametrize("family,seed", [
    ("J2", 11), ("J3", 12), ("J2+J1", 13), ("J1+J2", 14), ("diag+J2", 15),
])
def test_count_matches_enumeration_corpus(family, seed):
    for spec in _count_corpus(family, seed):
        assert count_cells(spec) == len(enumerate_packing(spec)), (
            spec.a.tolist(), spec.t, spec.box.tolist())
        assert_matches_reference(spec)


# _unique_rows stands in for np.unique(rows, axis=0).  Rows equal but for
# the sign of a zero entry are one row to both, and either may keep the
# other's sign.  No cell test can see the difference: a zero entry adds a
# zero to each of the test's sums, and no comparison sees a zero's sign
def assert_unique_rows_match(rows):
    np.testing.assert_array_equal(_unique_rows(rows),
                                  np.unique(rows, axis=0))


@pytest.mark.parametrize("family,seed", [
    ("J2", 11), ("J3", 12), ("J2+J1", 13), ("J1+J2", 14), ("diag+J2", 15),
])
def test_axis_dedup_matches_np_unique_on_the_corpus(family, seed,
                                                    monkeypatch):
    seen = []

    def spy(rows):
        seen.append(rows)
        return _unique_rows(rows)

    monkeypatch.setattr(variation, "_unique_rows", spy)
    for spec in _count_corpus(family, seed):
        _sat_axes(_preimage(spec)[1])
    assert len(seen) == 40
    for rows in seen:
        assert_unique_rows_match(rows)


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-12, -1e-12,
                            0.707106781187, -0.707106781187, 0.333333333333])


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=30)),
    st.data())
@settings(max_examples=200, deadline=None)
def test_axis_dedup_matches_np_unique_on_drawn_rows(rows, data):
    # few distinct entries make repeated rows and rows tied in leading
    # columns common; repeat some drawn rows outright as well
    rows = np.round(np.array(rows), 12)
    extra = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))
    assert_unique_rows_match(np.concatenate([rows, rows[extra]]))


def test_count_matches_enumeration_on_ties_and_elongated_box():
    # integer t and integer corners put cell corners exactly on oblique
    # faces of the preimage (J2(lam) at t = -3 with box [0,1]x[2,3] has its
    # base on the line through 0 along a generator)
    lam = 1.2851280294340095
    j2 = jordan_block(1.0, 2)
    specs = [
        PackingSpec(jordan_block(lam, 2), -3.0,
                    np.array([[0.0, 2.0], [1.0, 3.0]])),
        PackingSpec(j2, -1.0, np.array([[0.0, 0.0], [0.4, 30.0]])),
        PackingSpec(j2, -1.0, np.array([[0.0, 0.0], [30.0, 0.4]])),
        PackingSpec(jordan_block(1.0, 3), -2.0,
                    np.array([[-1.0, 0.0, 1.0], [1.0, 2.0, 2.0]])),
    ]
    for spec in specs:
        assert count_cells(spec) == len(enumerate_packing(spec))
        assert_matches_reference(spec)


@pytest.mark.parametrize("a,t,box,count", [
    # n = 1: one row of cells, and no other axis to sweep over
    ([[0.7]], 0.0, [[0.2], [3.1]], 4),
    ([[0.7]], -1.3, [[0.2], [3.1]], 8),
    ([[0.7]], -2.0, [[0.2], [3.1]], 13),
    ([[1.0]], -1.0, [[0.0], [1.0]], 3),
])
def test_one_dimensional_packings(a, t, box, count):
    spec = PackingSpec(np.array(a), t, np.array(box))
    assert count_cells(spec) == len(enumerate_packing(spec)) == count
    assert_matches_reference(spec)


def test_cell_tests_do_not_depend_on_the_batch():
    # the sweep settles a run's ends by testing subsets of its rows, and
    # the reference tests whole bounding boxes: a cell's verdict must be
    # the same in every batch
    spec = PackingSpec(jordan_block(1.0, 3), -2.5, np.array([[0.1, 0.2, 0.3],
                                                             [1.1, 1.2, 1.3]]))
    # (a BLAS product z @ axes.T rounds rows of this batch differently
    # from the same rows in smaller ones)
    cells = _Cells(spec)
    z = np.random.default_rng(3).integers(-40, 40, (5000, 3)).astype(float)
    proj, whole = cells.project(z), cells.tests(z)
    for m in (1, 2, 3, 5, 7, 16, 33):
        for i in range(0, 4000, 397):
            part = slice(i, i + m)
            np.testing.assert_array_equal(cells.project(z[part]), proj[:, part])
            np.testing.assert_array_equal(cells.tests(z[part]), whole[:, part])


@pytest.mark.parametrize("a,t,box,cap,stage", [
    # the pre-flight estimate e^{-t tr A} Vol(box) is over the cap
    (np.diag([1.0, 2.0]), -5.0, UNIT_BOX, 1000, "estimated"),
    # estimate e^12 = 162,755 passes; the 10.7M-cell bounding box does not
    (jordan_block(1.0, 3), -4.0, np.array([[0.0] * 3, [1.0] * 3]), 200_000,
     "bounding box"),
    # estimate 1,202,604 and a 9.6M-cell box pass; 1,212,182 cells do not
    (jordan_block(1.0, 2), -7.0, UNIT_BOX, 1_205_000, "more than max_cells"),
    # closed-form diagonal count: estimate e^9 = 8103, 21 * 404 = 8484 cells
    (np.diag([1.0, 2.0]), -3.0, UNIT_BOX, 8200, "more than max_cells"),
])
def test_count_cap_matches_enumeration(a, t, box, cap, stage):
    spec = PackingSpec(a, t, box, max_cells=cap)
    for fn in (count_cells, enumerate_packing):
        with pytest.raises(CapExceededError, match=stage):
            fn(spec)


def test_count_at_the_cap_passes():
    spec = PackingSpec(np.diag([1.0, 2.0]), -3.0, UNIT_BOX, max_cells=8484)
    assert count_cells(spec) == len(enumerate_packing(spec)) == 8484
    assert_matches_reference(spec)


def test_packing_spec_validation():
    spec = PackingSpec(np.diag([1.0, 2.0, 2.0]) + np.eye(3, k=1) * [0, 0, 1],
                       -1.0, np.array([[0.0] * 3, [1.0] * 3]))
    assert spec.chains == ((1.0, 1, 0), (2.0, 2, 1))
    with pytest.raises(ValueError, match="canonical"):
        PackingSpec(np.array([[1.0, 0.5], [0.0, 2.0]]), -2.0, UNIT_BOX)
    with pytest.raises(ValueError, match="non-degenerate"):
        PackingSpec(np.eye(2), -2.0, np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        TestFunction.from_vector([0.0, 0.0])
