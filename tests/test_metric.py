import math
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import _Exact

from heintze.errors import RangeError, SolverError
from heintze.linalg import jordan_block
from heintze.metric import (
    BoundarySpace,
    _newton,
    _solve_marching,
    block_distance_check,
    dist,
    dist_pairs,
    fiber_hausdorff,
    fiber_restriction_check,
    point_to_fiber,
    quasimetric_constant,
)

ROTATION_PLUS = np.array([[1.0, -1.0], [1.0, 1.0]])


@pytest.fixture(scope="module")
def spaces():
    return {
        "I2": BoundarySpace(np.eye(2)),
        "I4": BoundarySpace(np.eye(4)),
        "2I3": BoundarySpace(2.0 * np.eye(3)),
        "J2": BoundarySpace(jordan_block(1.0, 2)),
        "J3": BoundarySpace(jordan_block(1.0, 3)),
        "diag12": BoundarySpace(np.diag([1.0, 2.0])),
        "rot": BoundarySpace(ROTATION_PLUS),
        # g may rise (0.35 < cos(pi/4)): every row marches
        "J3(0.35)": BoundarySpace(jordan_block(0.35, 3)),
    }


def test_dist_coincident_is_zero(spaces):
    assert dist(spaces["J3"], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_dist_identity_euclidean(spaces, rng):
    for _ in range(50):
        x, y = rng.uniform(-10, 10, (2, 2))
        assert dist(spaces["I2"], x, y) == pytest.approx(
            np.linalg.norm(x - y), rel=1e-11
        )


def test_dist_scaled_identity_power(spaces, rng):
    for _ in range(50):
        x, y = rng.uniform(-10, 10, (2, 3))
        expected = np.linalg.norm(x - y) ** 0.5
        assert dist(spaces["2I3"], x, y) == pytest.approx(expected, rel=1e-11)


def test_dist_j2_vertical_scalar_equation(spaces):
    # x = 0, y = (0, c): the defining equation reduces to
    # e^t = |c| sqrt(1 + t^2); locate its smallest root independently
    for c in (1.0, 2.0, 0.3):
        grid = np.arange(-20.0, 20.0, 1e-5)
        vals = np.log(abs(c) * np.sqrt(1 + grid**2)) - grid
        j = int(np.argmax(vals <= 0))
        lo, hi = grid[j - 1], grid[j]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if np.log(abs(c) * math.sqrt(1 + mid**2)) - mid > 0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        got = dist(spaces["J2"], [0.0, 0.0], [0.0, c])
        assert got == pytest.approx(math.exp(t_star), rel=1e-9)
        if c == 1.0:
            assert got == pytest.approx(1.0, rel=1e-11)  # t* = 0


def test_dist_rotation_is_euclidean(spaces, rng):
    # [[1,-1],[1,1]] = I + rotation generator: e^{-tA} is e^{-t} times a
    # rotation, so the quasimetric equals the Euclidean distance
    for _ in range(20):
        x, y = rng.uniform(-5, 5, (2, 2))
        assert dist(spaces["rot"], x, y) == pytest.approx(
            np.linalg.norm(x - y), rel=1e-9
        )


def test_symmetry_exact(spaces, rng):
    for key in ("J2", "J3", "diag12", "rot"):
        sp = spaces[key]
        x, y = rng.uniform(-5, 5, (2, sp.n))
        assert dist(sp, x, y) == dist(sp, y, x)


def test_translation_invariance(spaces, rng):
    for key in ("J2", "J3", "diag12", "rot", "J3(0.35)", "2I3"):
        sp = spaces[key]
        for _ in range(20):
            x, y, z = rng.uniform(-5, 5, (3, sp.n))
            a = dist(sp, x + z, y + z)
            b = dist(sp, x, y)
            assert a == pytest.approx(b, rel=1e-9)


def test_dilation_similarity(spaces, rng):
    for key in ("J2", "J3", "diag12", "rot", "J3(0.35)", "2I3"):
        sp = spaces[key]
        for _ in range(15):
            x, y = rng.uniform(-5, 5, (2, sp.n))
            s = float(rng.uniform(-3, 3))
            e = scipy.linalg.expm(s * sp.a)
            lhs = dist(sp, e @ x, e @ y)
            rhs = math.exp(s) * dist(sp, x, y)
            assert lhs == pytest.approx(rhs, rel=1e-8)


def _exact_root(a, v):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        return float(_Exact.of(mp, a, v).smallest_root())


def test_diagonal_matches_independent_scan(spaces, rng):
    sp = spaces["diag12"]
    for _ in range(10):
        x, y = rng.uniform(-4, 4, (2, 2))
        t_star = _exact_root(sp.a, y - x)
        assert dist(sp, x, y) == pytest.approx(math.exp(t_star), rel=1e-9)


def test_single_block_matches_independent_scan(spaces, rng):
    for key in ("J2", "J3"):
        sp = spaces[key]
        for _ in range(8):
            x, y = rng.uniform(-4, 4, (2, sp.n))
            t_star = _exact_root(sp.a, y - x)
            assert dist(sp, x, y) == pytest.approx(
                math.exp(t_star), rel=1e-9
            )
    # below the radius cos(pi/(s+1)) g may rise and the march brackets
    # its first zero: run it at multi-root lam, and on both sides of the
    # radius
    local = np.random.default_rng(29)
    for lam, s in [(0.35, 3), (0.3, 4)] + [
        (math.cos(math.pi / (s + 1)) + d, s) for s in (2, 3, 4)
        for d in (-1e-3, 1e-3)
    ]:
        sp = BoundarySpace(jordan_block(lam, s))
        assert sp._decreasing == (lam > math.cos(math.pi / (s + 1)))
        for _ in range(4):
            x, y = local.uniform(-4, 4, (2, s))
            t_star = _exact_root(sp.a, y - x)
            assert dist(sp, x, y) == pytest.approx(
                math.exp(t_star), rel=1e-9
            )


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=30).map(
                              lambda k: k / 10),
                          st.integers(min_value=1, max_value=5)),
                min_size=1, max_size=3),
       st.data())
@settings(max_examples=200, deadline=None)
def test_decreasing_certificate_on_block_sums(chains, data):
    # the numerical range of a direct sum is the hull of its blocks'
    # ranges, and that of lam I + N_s is the disc of radius cos(pi/(s+1))
    # about lam, so -g' = <Aw, w> >= min over chains of lam - cos(pi/(s+1))
    a = scipy.linalg.block_diag(*[jordan_block(lam, s) for lam, s in chains])
    w = np.array(data.draw(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                                    min_size=a.shape[0],
                                    max_size=a.shape[0])))
    assume(np.linalg.norm(w) > 1e-3)
    w /= np.linalg.norm(w)
    margin = [lam - math.cos(math.pi / (s + 1)) for lam, s in chains]
    assert w @ a @ w >= min(margin) - 1e-12
    space = BoundarySpace(a)
    eps = np.finfo(float).eps
    assert space._decreasing == all(
        m > 4.0 * eps * lam for m, (lam, _) in zip(margin, chains))


def test_general_path_matches_canonical_path(rng):
    # force the general path on a canonical matrix by
    # perturbing the superdiagonal away from the exact 0/1 pattern
    a = jordan_block(1.0, 2)
    a[0, 1] = 1.0 + 1e-13
    sp_general = BoundarySpace(a)
    assert sp_general.chains is None
    sp_single = BoundarySpace(jordan_block(1.0, 2))
    for _ in range(10):
        x, y = rng.uniform(-4, 4, (2, 2))
        assert dist(sp_general, x, y) == pytest.approx(
            dist(sp_single, x, y), rel=1e-8
        )


def test_smallest_root_multi_root_case():
    # lam = 0.3 chain: the polynomial factor makes a dip below 1, giving
    # three roots; the solver must return the first one
    a = np.array([[0.3, 1.0], [0.0, 0.3]])
    v = np.array([0.1, 1.0])
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        roots = _Exact.of(mp, a, v).roots(-30.0, 40.0)
    assert len(roots) == 3
    sp = BoundarySpace(a)
    got = dist(sp, np.zeros(2), v)
    assert got == pytest.approx(math.exp(roots[0]), rel=1e-8)


def test_stiff_canonical_sum_decouples_its_chains():
    # diag(1000) + J2(1): two eigenvalues on one canonical matrix.  The
    # chains never mix, so a vector in the J2 chain gets its J2 distance;
    # a march on one ladder for both could not certify a left endpoint
    # past t = -1/2, where e^{1000 t} leaves the ladder's range
    sp = BoundarySpace(scipy.linalg.block_diag([[1000.0]],
                                               jordan_block(1.0, 2)))
    zero = np.zeros(3)
    # e^{-tA}(0, 0.01, 0) = 0.01 e^{-t} (0, 1, 0): D = 0.01, up to the
    # rounding of log D (about 4.6) to a few ulps
    got = dist(sp, zero, [0.0, 0.01, 0.0])
    assert math.log(got) == pytest.approx(math.log(0.01), rel=1e-15, abs=0)

    # e^{-tA}(0, 0, c) = c e^{-t} (0, -t, 1): g(t) = -t + log c +
    # log(1 + t^2)/2, with g' <= -1/2
    def g(t):
        return -t + math.log(1e-3) + 0.5 * math.log1p(t * t)

    lo, hi = -20.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    got = dist(sp, zero, [0.0, 0.0, 1e-3])
    assert math.log(got) == pytest.approx(lo, rel=1e-15, abs=0)

    # J2(0.3) + J1(1000) marches, as g may rise: e^{-tA}(0.01, 0, 0) =
    # 0.01 e^{-0.3 t} (1, 0, 0), so log D = log(0.01)/0.3, about -15.4,
    # where e^{-1000 t} is far outside the float range
    sp = BoundarySpace(scipy.linalg.block_diag(jordan_block(0.3, 2),
                                               [[1000.0]]))
    assert not sp._decreasing
    got = dist(sp, zero, [0.01, 0.0, 0.0])
    assert math.log(got) == pytest.approx(math.log(0.01) / 0.3, rel=1e-15,
                                          abs=0)


def test_march_starts_at_the_closer_certified_point():
    # J3(1e-5) marches.  For v = (0, 0, 1e-3), log|1e-3|/lam = -690776 is
    # a certified start, but so is -1000: entry 1 of e^{-tN}v is -1e-3 t,
    # at least 1 in size left of it.  Both rows' roots lie near the second
    # point, and a march from the first took seconds
    sp = BoundarySpace(jordan_block(1e-5, 3))
    zero = np.zeros(3)

    # e^{-tA}v = 1e-3 e^{-lam t} (t^2/2, -t, 1): the root left of 0, where
    # g decreases
    def g(t):
        return -1e-5 * t + math.log(1e-3) + 0.5 * math.log1p(t * t + t**4 / 4)

    lo, hi = -1000.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    start = time.perf_counter()
    got = dist(sp, zero, [0.0, 0.0, 1e-3])
    # (0, 1e-3, 0) has its root at log D = -990.1, below the float range
    with pytest.raises(RangeError, match=r"log D = -990\.1"):
        dist(sp, zero, [0.0, 1e-3, 0.0])
    assert time.perf_counter() - start < 1.0
    assert math.log(got) == pytest.approx(lo, rel=1e-15, abs=0)


def _jordan_g(mp, v, t):
    """g(t) = log|e^{-tJ}v| - t on J = I + N of size len(v), at mpmath's
    precision: each entry of e^{-tN}v summed term by term."""
    t, v = mp.mpf(t), [mp.mpf(float(x)) for x in v]
    total = mp.mpf(0)
    for i in range(len(v)):
        entry, term = mp.mpf(0), mp.mpf(1)  # term = (-t)^k / k!
        for k, x in enumerate(v[i:]):
            entry += term * x
            term *= -t / (k + 1)
        total += entry * entry
    return mp.log(total) / 2 - t


@pytest.mark.parametrize("n", [6, 32, 96, 128, 172])
def test_canonical_chains_of_any_size_get_their_roots(n):
    # e^{-tN}v needs (-t)^q / q! past the float range from q = 171; g
    # decreases on J_n, so a sign change of the 80-digit g across each
    # root's t_tol + 1e-14 |t| neighbourhood puts its one zero there
    mp = pytest.importorskip("mpmath")
    space = BoundarySpace(jordan_block(1.0, n))
    assert space._decreasing
    rows = np.vstack([np.random.default_rng(n).uniform(-5.0, 5.0, (2, n)),
                      np.ones(n), (-1.0) ** np.arange(n), 1e-3 * np.ones(n)])
    if n == 172:  # with their roots from mpmath at 50 digits
        rows = np.vstack([rows, np.r_[np.zeros(n - 1), 3.0],
                          np.linspace(-1.0, 1.0, n)])
    got = np.log(dist_pairs(space, np.zeros_like(rows), rows))
    if n == 172:
        want = np.array([6.5746779067315101312, 1.0436968135002135199])
        assert np.all(np.abs(got[-2:] - want) <= 1e-13), got[-2:] - want
    with mp.workdps(80):
        for t, v in zip(got, rows):
            tol = 1e-12 + 1e-14 * abs(t)
            assert _jordan_g(mp, v, t - tol) > 0 >= _jordan_g(mp, v, t + tol), t


def test_bracket_expansion_failures_name_the_path():
    # each names the branch that ran: g <= 0 everywhere never clears on the
    # left of a march's start; g = e^{-t} > 0 never changes sign, so the
    # Newton solve of a decreasing g reaches its cap
    with pytest.raises(SolverError,
                       match=r"^march: failed to bracket from the left$"):
        _solve_marching(None, lambda t, rows, slope: (np.zeros_like(t),
                                                      -np.ones_like(t)),
                        np.zeros(2))

    def g(t, rows, slope=False):
        return (np.exp(-t), -np.exp(-t)) if slope else np.exp(-t)

    with pytest.raises(SolverError, match=r"2 root\(s\) still open after "
                                          r"200 Newton steps \(decreasing "
                                          r"branch\)"):
        _newton(g, np.zeros(2), *g(np.zeros(2), None, slope=True))


def test_quasimetric_constant_examples(spaces):
    assert quasimetric_constant(spaces["I2"], 2000, 0) <= 1 + 1e-6
    m0 = quasimetric_constant(spaces["diag12"], 10_000, 0)
    m1 = quasimetric_constant(spaces["diag12"], 10_000, 1)
    assert m0 >= 1.0 and m1 >= 1.0
    assert abs(m0 - m1) <= 0.1 * max(m0, m1)
    assert quasimetric_constant(spaces["J2"], 10_000, 0) >= 1.0


def test_fiber_restriction_j2(spaces):
    d_full, d_reduced = fiber_restriction_check(
        spaces["J2"], [0.0, 0.0], [3.0, 0.0]
    )
    assert d_full == pytest.approx(3.0, rel=1e-10)
    assert d_reduced == pytest.approx(3.0, rel=1e-10)


def test_fiber_restriction_j3(spaces, rng):
    sp = spaces["J3"]
    for _ in range(10):
        y = float(rng.uniform(-3, 3))
        p = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), y])
        q = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), y])
        d_full, d_reduced = fiber_restriction_check(sp, p, q)
        assert d_full == pytest.approx(d_reduced, abs=1e-8, rel=1e-8)


def test_fiber_restriction_mixed_chain_structure(rng):
    # [lam I_1, lam I_2 + N] layout: z block plus one 2-chain
    a = scipy.linalg.block_diag([[0.8]], jordan_block(0.8, 2))
    sp = BoundarySpace(a)
    p = np.array([0.5, 1.0, -2.0])
    q = np.array([0.5, 4.0, -2.0])
    d_full, d_reduced = fiber_restriction_check(sp, p, q)
    assert d_full == pytest.approx(d_reduced, rel=1e-8)


def test_fiber_restriction_trivial_and_errors(spaces):
    assert fiber_restriction_check(
        spaces["J2"], [1.0, 2.0], [1.0, 2.0]
    ) == (0.0, 0.0)
    with pytest.raises(ValueError, match="fiber"):
        fiber_restriction_check(spaces["J2"], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="single-eigenvalue"):
        fiber_restriction_check(spaces["diag12"], [0.0, 0.0], [1.0, 0.0])


def test_fiber_hausdorff_closed_form(spaces):
    sp1 = BoundarySpace(np.eye(2))
    assert fiber_hausdorff(sp1, [0.0, 0.0], [0.0, 4.0]) == pytest.approx(4.0)
    assert fiber_hausdorff(spaces["2I3"], [0.0, 0.0, 0.0], [0.0, 0.0, 4.0]) \
        == pytest.approx(2.0)


def test_point_to_fiber_one_sided(spaces, rng):
    sp = spaces["J2"]
    for _ in range(4):
        p = rng.uniform(-2, 2, 2)
        y2 = np.array([float(rng.uniform(-3, 3))])
        closed = fiber_hausdorff(sp, p[1:], y2)
        got = point_to_fiber(sp, p, y2, samples=10_000, seed=7)
        assert got >= closed - 1e-9
        assert got <= 1.05 * closed + 1e-12


def test_block_distance_check_diag(spaces, rng):
    sp = spaces["diag12"]
    for _ in range(5):
        x = rng.uniform(-3, 3, 2)
        y2 = np.array([float(rng.uniform(-3, 3))])
        sampled, closed = block_distance_check(sp, x, y2, samples=10_000,
                                               seed=3)
        assert closed == pytest.approx(
            abs(x[1] - y2[0]) ** 0.5, rel=1e-10
        )
        assert sampled >= closed - 1e-9
        if closed > 1e-6:
            assert sampled <= 1.05 * closed


def test_block_distance_check_jordan_top(rng):
    a = scipy.linalg.block_diag([[1.0]], jordan_block(2.0, 2))
    sp = BoundarySpace(a)
    sub = BoundarySpace(jordan_block(2.0, 2))
    for _ in range(4):
        x = rng.uniform(-2, 2, 3)
        y2 = rng.uniform(-2, 2, 2)
        sampled, closed = block_distance_check(sp, x, y2, samples=10_000,
                                               seed=5)
        assert closed == pytest.approx(dist(sub, x[1:], y2), rel=1e-10)
        assert sampled >= closed - 1e-9
        if closed > 1e-6:
            assert sampled <= 1.05 * closed


def test_block_distance_trivial_equal_top(spaces):
    x = np.array([1.5, 2.5])
    sampled, closed = block_distance_check(spaces["diag12"], x,
                                           np.array([2.5]), samples=100,
                                           seed=0)
    assert closed == 0.0
    assert sampled == 0.0


def test_block_distance_requires_two_eigenvalues(spaces):
    with pytest.raises(ValueError, match="two distinct"):
        block_distance_check(spaces["J2"], [0.0, 0.0], [1.0])


def test_out_of_float_range_differences_raise(spaces):
    # |v|^2 underflows or overflows here; unchecked, these rows gave D = 0
    # for distinct points (1e-300), 9.99997e-81 in place of 1e-80 (1e-160
    # on diag(1, 2)), and inf or an untyped LinAlgError (1e160)
    rot = ROTATION_PLUS / math.sqrt(2.0)
    general = BoundarySpace(rot @ np.diag([1.0, 2.0]) @ rot.T)
    for space in (spaces["diag12"], spaces["J2"], general):
        for b in (1e-300, 1e-160, 1e160):
            with pytest.raises(RangeError, match=r"^1 nonzero .*1\.49e-154"):
                dist(space, [0.0, 0.0], [0.0, b])
        with pytest.raises(RangeError, match=r"^2 nonzero"):
            dist_pairs(space, np.zeros((3, 2)),
                       [[0.0, 1e-300], [0.0, 0.0], [1e160, 1.0]])
        for b in (1e-100, 1e100):
            d = dist(space, [0.0, 0.0], [0.0, b])
            assert 0.0 < d < math.inf
        assert dist(space, [1e-300, 0.0], [1e-300, 0.0]) == 0.0


def test_out_of_float_range_distances_raise():
    # |y - x| is in range, but the root log|v|/lam is not: exp gave D = 0
    # for distinct points and D = inf
    space = BoundarySpace(np.diag([0.01, 0.02]))
    for b, root in ((1e-10, "-2302.59"), (1e10, "2302.59")):
        with pytest.raises(RangeError,
                           match=rf"^1 distance\(s\) out of range: log D = "
                                 rf"{root} "):
            dist(space, [0.0, 0.0], [b, 0.0])
    with pytest.raises(RangeError, match=r"^2 distance"):
        dist_pairs(space, np.zeros((3, 2)),
                   [[1e-10, 0.0], [1.0, 0.0], [1e10, 0.0]])
    assert 0.0 < dist(space, [0.0, 0.0], [1e-3, 0.0]) < 1e-290


def test_dist_pairs_shape_mismatch(spaces):
    with pytest.raises(ValueError):
        dist_pairs(spaces["I2"], np.zeros((3, 2)), np.zeros((4, 2)))


def test_hypothesis_violation_on_construction():
    from heintze.errors import HypothesisViolationError

    with pytest.raises(HypothesisViolationError):
        BoundarySpace(np.diag([-1.0, 1.0]))


_TURN = np.array([[math.cos(0.7), -math.sin(0.7)],
                  [math.sin(0.7), math.cos(0.7)]])
# name -> (matrix, whether it takes the general path).  On every space,
# marching (J3(0.35)) or not, the arithmetic is elementwise per vector,
# and its sums run in a fixed order (coordinates, eigenvalues, clusters),
# never through BLAS, whose rounding depends on the size of the batch and
# on a row's place in it
STACKED = {
    "J3": (jordan_block(1.0, 3), False),
    "diag(2)+J2(1)": (scipy.linalg.block_diag([[2.0]], jordan_block(1.0, 2)),
                      False),
    "J3(0.35)": (jordan_block(0.35, 3), False),
    "diag(1..6)": (np.diag(np.arange(1.0, 7.0)), False),
    # past the 8 columns from which numpy sums a short axis pairwise
    "diag(1..9)": (np.diag(np.arange(1.0, 10.0)), False),
    # g may rise: the march's slope sums over two eigenvalues
    "J2(0.3)+J1(0.6)": (scipy.linalg.block_diag(jordan_block(0.3, 2),
                                                [[0.6]]), False),
    "R.J2(0.3).RT": (_TURN @ jordan_block(0.3, 2) @ _TURN.T, True),
    "spiral": (np.array([[1.0, -3.0], [3.0, 1.0]]), True),
}


@pytest.mark.parametrize("name", STACKED)
def test_stacked_batch_equals_its_parts(name):
    a, marches = STACKED[name]
    sp = BoundarySpace(a)
    assert (sp.chains is None) == marches
    if name == "J2(0.3)+J1(0.6)":
        assert not sp._decreasing
    x, y = np.random.default_rng(29).uniform(-5, 5, (2, 1000, sp.n))
    whole = dist_pairs(sp, x, y)
    parts = np.concatenate([dist_pairs(sp, x[:37], y[:37]),
                            dist_pairs(sp, x[37:], y[37:])]
                           + [dist_pairs(sp, x[i:i + 1], y[i:i + 1])
                              for i in range(20)])
    whole = np.concatenate([whole, whole[:20]])
    differ = np.count_nonzero(whole != parts)
    print(f"{name}: {differ} of {len(parts)} rows differ")
    assert differ == 0
