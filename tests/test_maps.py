import math
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from heintze import maps, metric
from heintze.errors import RangeError
from heintze.linalg import jordan_block
from heintze.maps import (
    Composition,
    JordanFamilyMap,
    LinearMap,
    PiecewiseLinear,
    PolyNilpotent,
    Shear,
    Translation,
    compose_jordan,
    conformal_probe,
    distortion_profile,
    empirical_bilip,
    eval_map,
    eval_map_batch,
    jordan_family_bound,
    map_from_json_dict,
    map_to_json_dict,
    poly_bilip_bound,
    q_exp_nilpotent,
    qs_profile,
    save_map,
    shear_bilip_bound,
    transfer_check,
)
from heintze.metric import (
    BoundarySpace,
    dist,
    dist_pairs,
    quasimetric_constant,
)


def random_pwl(rng, max_slope=2.0, knots=4):
    ys = np.sort(rng.uniform(-4, 4, knots))
    ys = np.unique(ys)
    if len(ys) < 2:
        ys = np.array([-1.0, 1.0])
    slopes = rng.uniform(-max_slope, max_slope, len(ys) - 1)
    v0 = float(rng.uniform(-2, 2))
    vals = np.concatenate([[v0], v0 + np.cumsum(slopes * np.diff(ys))])
    return PiecewiseLinear(tuple(zip(ys.tolist(), vals.tolist())))


def random_jordan_map(rng, n, max_slope=2.0):
    a0 = float(rng.uniform(0.4, 2.0)) * (1 if rng.random() < 0.5 else -1)
    a = (a0,) + tuple(rng.uniform(-1.5, 1.5, n - 2))
    v = tuple(rng.uniform(-3, 3, n))
    return JordanFamilyMap(n, a, v, random_pwl(rng, max_slope))


def test_pwl_eval_and_lipschitz():
    c = PiecewiseLinear(((-1.0, 0.0), (1.0, 1.0)))
    assert c.lipschitz() == 0.5
    np.testing.assert_allclose(
        c(np.array([-3.0, -1.0, 0.0, 1.0, 5.0])),
        [-1.0, 0.0, 0.5, 1.0, 3.0],
    )
    const = PiecewiseLinear.constant(2.0)
    assert const.lipschitz() == 0.0
    assert const(np.array([-10.0, 10.0])).tolist() == [2.0, 2.0]


def test_pwl_algebra_exact(rng):
    f = random_pwl(rng)
    g = random_pwl(rng)
    ys = rng.uniform(-10, 10, 200)
    np.testing.assert_allclose(f.add(g)(ys), f(ys) + g(ys), atol=1e-12)
    np.testing.assert_allclose(f.scaled(-2.5)(ys), -2.5 * f(ys), atol=1e-12)
    np.testing.assert_allclose(
        f.compose_affine(-1.7, 0.4)(ys), f(-1.7 * ys + 0.4), atol=1e-12
    )


def test_eval_examples():
    ident = JordanFamilyMap(3, (1.0, 0.0), (0.0, 0.0, 0.0),
                            PiecewiseLinear.constant(0.0))
    x = np.array([0.3, -2.0, 5.0])
    np.testing.assert_array_equal(eval_map(ident, x), x)

    sh = Shear(2, PiecewiseLinear.linear(1.0))
    np.testing.assert_allclose(eval_map(sh, [1.0, 2.0]), [3.0, 2.0])

    tr = Translation((1.0, -1.0))
    space = BoundarySpace(jordan_block(1.0, 2))
    y = np.array([4.0, 0.5])
    assert dist(space, eval_map(tr, x[:2]), eval_map(tr, y)) == pytest.approx(
        dist(space, x[:2], y), rel=1e-12
    )


def test_composition_applies_right_to_left():
    sh = Shear(2, PiecewiseLinear.linear(1.0))
    tr = Translation((0.0, 1.0))
    comp = Composition((sh, tr))  # shear after translation
    np.testing.assert_allclose(
        eval_map(comp, [0.0, 0.0]),
        eval_map(sh, eval_map(tr, [0.0, 0.0])),
    )


def test_jordan_composition_closure(rng):
    for n in (2, 3, 4):
        f = random_jordan_map(rng, n)
        g = random_jordan_map(rng, n)
        comp = compose_jordan(f, g)
        x = rng.uniform(-6, 6, (100, n))
        direct = eval_map_batch(f, eval_map_batch(g, x))
        np.testing.assert_allclose(eval_map_batch(comp, x), direct,
                                   atol=1e-12 * np.max(np.abs(direct) + 1))


def test_shear_bound_oracle():
    # independent root solve of e^u = (1+L) sqrt(Q(e^{uN}))
    for n, lip in ((2, 0.0), (2, 1.0), (3, 0.5), (4, 2.0)):
        rhs = lambda u: (1 + lip) * math.sqrt(float(q_exp_nilpotent(n, u)))
        a = brentq(lambda u: u - math.log(rhs(u)), 0, 50, xtol=1e-13)
        assert shear_bilip_bound(n, lip) == pytest.approx(
            math.exp(a), rel=1e-9
        )
    assert shear_bilip_bound(2, 0.0) == pytest.approx(1.4648291, rel=1e-6)
    assert shear_bilip_bound(1, 3.0) == 1.0


def test_poly_bound_examples():
    # B_2 = I: bound driven by Q(B_2) = n alone
    for n in (2, 3):
        coeffs = (1.0,) + (0.0,) * (n - 1)
        rhs = lambda u: math.sqrt(float(q_exp_nilpotent(n, u)) * n)
        a = brentq(lambda u: u - math.log(rhs(u)), 0, 50, xtol=1e-13)
        assert poly_bilip_bound(n, coeffs) == pytest.approx(
            math.exp(a), rel=1e-9
        )
    # B_2 = 2I on n = 2: Q(B_2) = 8
    rhs = lambda u: math.sqrt((2 + u * u) * 8.0)
    a = brentq(lambda u: u - math.log(rhs(u)), 0, 50, xtol=1e-13)
    assert poly_bilip_bound(2, (2.0, 0.0)) == pytest.approx(
        math.exp(a), rel=1e-9
    )
    with pytest.raises(ValueError):
        poly_bilip_bound(2, (0.0, 1.0))


def _exact_exponent(mp, n, c):
    """The u with u = c + log Q(e^{uN}) / 2, at the working precision:
    widen a bracket from c + log(n) / 2, where u - c - log Q / 2 <= 0."""
    def f(u):
        q = mp.fsum((n - k) * (u**k / mp.factorial(k)) ** 2 for k in range(n))
        return u - c - mp.log(q) / 2

    lo = c + mp.log(n) / 2
    if f(lo) == 0:
        return lo
    step = mp.mpf(1)
    while f(lo + step) <= 0:
        lo, step = lo + step, 2 * step
    return mp.findroot(f, (lo, lo + step), solver="anderson")


def test_bounds_match_50_digit_roots():
    mp = pytest.importorskip("mpmath")

    def q_b(cs):
        return mp.fsum((len(cs) - k) * c * c for k, c in enumerate(cs))

    def inverse(cs):  # B_2^{-1} = a_0^{-1} sum_j beta^j, beta = -(B_2 - a_0)/a_0
        n = len(cs)
        beta = [mp.mpf(0)] + [-c / cs[0] for c in cs[1:]]
        acc, term = [mp.mpf(1)] + [mp.mpf(0)] * (n - 1), [mp.mpf(1)] + [0] * (n - 1)
        for _ in range(1, n):
            term = [mp.fsum(term[i] * beta[k - i] for i in range(k + 1))
                    for k in range(n)]
            acc = [x + y for x, y in zip(acc, term)]
        return [x / cs[0] for x in acc]

    def poly_exponent(coeffs):
        cs = [mp.mpf(c) for c in coeffs]
        return max([_exact_exponent(mp, len(cs), mp.log(q_b(b)) / 2)
                    for b in (cs, inverse(cs))] + [mp.mpf(0)])

    def check(bound, exact):
        got = mp.log(mp.mpf(bound))
        assert abs(float(got - exact)) <= 2e-15 * max(1.0, abs(float(exact))), (
            bound, float(exact))

    with mp.workdps(50):
        for n in range(1, 9):
            for lip in (0.0, 1e-3, 0.5, 1.0, 3.0, 10.0, 1e3, 1e8):
                exact = (_exact_exponent(mp, n, mp.log(1 + mp.mpf(lip)))
                         if n > 1 else mp.mpf(0))  # no shear on n = 1
                check(shear_bilip_bound(n, lip), exact)
        for coeffs in ((3.0,), (1e-3, 0.0, 0.0), (-1.7, 0.3, 1.1, -0.4),
                       (1.0, 0.0), (2.0, 0.0), (0.5, -2.0, 0.25)):
            check(poly_bilip_bound(len(coeffs), coeffs), poly_exponent(coeffs))
        # the two maps of test_cli's PROBE_GOLDEN: the shear has L = 1.5,
        # the Jordan-family map a shear of L = 0.5/1.5 (the float the
        # program passes) and B_2 = 1.5 I
        shear = Shear(2, PiecewiseLinear(((-1.0, 0.0), (0.5, 0.25), (1.0, 1.0))))
        family = JordanFamilyMap(2, (1.5,), (0.1, -0.2),
                                 PiecewiseLinear(((0.0, 0.0), (1.0, 0.5))))
        exact_shear = _exact_exponent(mp, 2, mp.log(mp.mpf(5) / 2))
        exact_family = (_exact_exponent(mp, 2, mp.log(1 + mp.mpf(0.5 / 1.5)))
                        + poly_exponent((1.5, 0.0)))
        assert mp.nstr(mp.exp(exact_shear), 18) == "5.55750423741357357"
        assert mp.nstr(mp.exp(exact_family), 18) == "9.2414320941499599"
        check(shear.bound(), exact_shear)
        check(jordan_family_bound(family), exact_family)


def test_bounds_past_171_factorial_and_out_of_range_q():
    # Q(e^{uN}) sums (u^k / k!)^2 past 170! from n = 172; Q(B) = 2e-400
    # underflows and Q(B^{-1}) = 2e400 overflows, and the bound is finite
    mp = pytest.importorskip("mpmath")

    def check(bound, exact):
        err = abs(float(mp.log(mp.mpf(bound)) - exact))
        assert err <= 2e-15 * abs(float(exact)), (bound, err)

    with mp.workdps(50):
        exact = _exact_exponent(mp, 172, mp.log(2))
        assert mp.nstr(mp.exp(exact), 17) == "1.4026241195499337e+70"
        check(shear_bilip_bound(172, 1.0), exact)
        small, big = (poly_bilip_bound(2, (c, 0.0)) for c in (1e-200, 1e200))
        assert small == big  # B and B^{-1} swap
        for c in (1 / mp.mpf(1e-200), mp.mpf(1e200)):  # Q(B) = 2 c^2
            exact = _exact_exponent(mp, 2, mp.log(2 * c * c) / 2)
            assert mp.nstr(exact, 17) == "467.00994733209578"
            check(small, exact)


def test_slopes_of_overflowing_differences():
    # 1e308 - (-1e308) overflows; the slope is taken from the halved knots
    pwl = PiecewiseLinear(((-1e308, -1e308), (1e308, 1e308)))
    assert pwl.slopes().tolist() == [1.0]
    assert Shear(2, pwl).bound() == shear_bilip_bound(2, 1.0)
    # a finite difference keeps its bits, subnormal spacing included
    tiny = PiecewiseLinear(((0.0, 0.0), (5e-324, 1e-323), (1.0, 3.0)))
    assert tiny.slopes().tolist() == [2.0, 3.0]


def test_bounds_reject_nan_and_overflow():
    # NaN is no Lipschitz constant; an infinite L or Q(B) leaves no bound
    with pytest.raises(ValueError, match="nonnegative number"):
        shear_bilip_bound(2, math.nan)
    with pytest.raises(RangeError):
        shear_bilip_bound(2, math.inf)
    with pytest.raises(RangeError):
        poly_bilip_bound(2, (1e-300, 1e300))
    # the slope (1e308 + 1e308) / 1e-300 is inf, without a warning
    with pytest.raises(RangeError):
        Shear(2, PiecewiseLinear(((0.0, -1e308), (1e-300, 1e308)))).bound()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jordan_family_bound_is_the_product_of_its_factors(monkeypatch, n):
    # one batch solves the shear's and both polynomial exponents; each is
    # the root its factor's bound solves alone, bit for bit
    if n == 1:  # no Jordan-family map, and no shear, on R^1
        with pytest.raises(ValueError, match="dimension >= 2"):
            JordanFamilyMap(1, (), (0.0,), PiecewiseLinear.constant(0.0))
        assert shear_bilip_bound(1, 3.0) == 1.0
        return
    rng = np.random.default_rng(20 + n)
    specs = [random_jordan_map(rng, n) for _ in range(10)]
    # Q(B) = n 1e400 overflows and Q(B^{-1}) underflows: both are scaled by
    # powers of two
    specs.append(JordanFamilyMap(n, (1e200,) + (0.5,) * (n - 2), (0.0,) * n,
                                 random_pwl(rng)))
    solves = []
    real = maps._newton

    def counted(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(maps, "_newton", counted)
    for spec in specs:
        solves.clear()
        got = jordan_family_bound(spec)
        assert len(solves) == 1
        shear = shear_bilip_bound(n, spec.c.lipschitz() / abs(spec.a[0]))
        assert got == shear * poly_bilip_bound(n, spec.a + (0.0,)), spec


def test_jordan_family_bound_errors_keep_their_types_and_messages():
    unit = PiecewiseLinear.linear(1.0)
    nan_message = "bound constants must not be NaN"
    range_message = ("the bound's constant, log(1 + L) or log Q(B) / 2, "
                     "leaves the float range")
    # a NaN a_0 gives a NaN Lipschitz constant L / |a_0|
    with pytest.raises(ValueError, match=f"^{nan_message}$"):
        jordan_family_bound(JordanFamilyMap(2, (math.nan,), (0.0, 0.0), unit))
    # L / |a_0| = 1e300 / 1e-10 is infinite, and Q(B) is finite
    steep = PiecewiseLinear.linear(1e300)
    with pytest.raises(RangeError, match=f"^{re.escape(range_message)}$"):
        jordan_family_bound(JordanFamilyMap(2, (1e-10,), (0.0, 0.0), steep))
    with pytest.raises(ValueError,
                       match="^Lipschitz constant must be a nonnegative number$"):
        shear_bilip_bound(2, math.nan)
    with pytest.raises(RangeError, match=f"^{re.escape(range_message)}$"):
        shear_bilip_bound(2, math.inf)


def test_bounds_at_least_one(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        assert shear_bilip_bound(n, float(rng.uniform(0, 3))) >= 1.0
        coeffs = tuple(rng.uniform(-2, 2, n))
        if coeffs[0] == 0.0:
            continue
        assert poly_bilip_bound(n, coeffs) >= 1.0


def test_empirical_bilip_identity_and_translation():
    space = BoundarySpace(jordan_block(1.0, 2))
    ident = JordanFamilyMap(2, (1.0,), (0.0, 0.0),
                            PiecewiseLinear.constant(0.0))
    mn, mx = empirical_bilip(ident, space, samples=500, seed=0)
    assert mn == pytest.approx(1.0, abs=1e-9)
    assert mx == pytest.approx(1.0, abs=1e-9)
    tr = Translation((2.0, -3.0))
    mn, mx = empirical_bilip(tr, space, samples=500, seed=0)
    assert mn == pytest.approx(1.0, abs=1e-9)
    assert mx == pytest.approx(1.0, abs=1e-9)


def test_empirical_shear_within_bound():
    space = BoundarySpace(jordan_block(1.0, 2))
    sh = Shear(2, PiecewiseLinear.linear(1.0))
    bound = shear_bilip_bound(2, 1.0)
    for seed in (0, 1):
        mn, mx = empirical_bilip(sh, space, samples=10_000, seed=seed)
        assert mx <= bound + 1e-6
        assert mn >= 1.0 / bound - 1e-6


def test_bound_dominance_random_maps(rng):
    spaces = {n: BoundarySpace(jordan_block(1.0, n)) for n in (2, 3, 4)}
    for _ in range(12):
        n = int(rng.integers(2, 5))
        spec = random_jordan_map(rng, n)
        bound = jordan_family_bound(spec)
        mn, mx = empirical_bilip(spec, spaces[n], samples=2000,
                                 seed=int(rng.integers(0, 2**31)))
        assert mx <= bound * (1 + 1e-9)
        assert mn >= (1 - 1e-9) / bound


def test_transfer_check_identity_and_snowflake():
    mn, mx = transfer_check(np.diag([1.0, 2.0]), np.diag([1.0, 2.0]),
                            np.eye(2), 1.0, samples=500, seed=0)
    assert mn == pytest.approx(1.0, abs=1e-9)
    assert mx == pytest.approx(1.0, abs=1e-9)
    # D_{2A} = D_A^{1/2} exactly for commuting diagonal pairs
    mn, mx = transfer_check(np.diag([1.0, 2.0]), np.diag([2.0, 4.0]),
                            np.eye(2), 0.5, samples=2000, seed=0)
    assert mx - mn < 1e-6
    assert mn == pytest.approx(1.0, abs=1e-8)


def test_transfer_check_conjugated_jordan(rng):
    p = np.array([[1.3, 0.4], [-0.2, 0.9]])
    a = jordan_block(1.0, 2)
    b = p @ a @ np.linalg.inv(p)
    lo0, hi0 = transfer_check(a, b, p, 1.0, samples=3000, seed=0)
    lo1, hi1 = transfer_check(a, b, p, 1.0, samples=3000, seed=1)
    assert hi0 < math.inf and lo0 > 0
    assert abs(hi0 - hi1) <= 0.1 * max(hi0, hi1)
    assert abs(lo0 - lo1) <= 0.1 * max(lo0, lo1)
    with pytest.raises(ValueError, match="singular"):
        transfer_check(a, b, np.zeros((2, 2)), 1.0, samples=10, seed=0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
def test_sampling_boxes_must_be_finite_and_positive(radius):
    # inf used to raise OverflowError, 0 and -1 numpy's own messages
    a = jordan_block(1.0, 2)
    space, shear = BoundarySpace(a), Shear(2, PiecewiseLinear.constant(1.0))
    for sample in (lambda: empirical_bilip(shear, space, 10, 0, radius),
                   lambda: transfer_check(a, a, np.eye(2), 1.0, 10, 0, radius),
                   lambda: qs_profile(shear, space, 10, 0, radius),
                   lambda: quasimetric_constant(space, 10, 0, radius)):
        with pytest.raises(ValueError, match=f"box_radius .* not {radius!r}"):
            sample()


def test_distortion_profile_identity_and_similarity():
    space = BoundarySpace(jordan_block(1.0, 2))
    ident = Translation((0.0, 0.0))
    radii = [1.0, 0.5, 0.25]
    rep = distortion_profile(ident, space, np.zeros(2), radii,
                             samples_per_radius=100, seed=0)
    for row in rep.rows:
        assert row.sup_ratio == pytest.approx(1.0, abs=0.02)
        assert row.inf_ratio == pytest.approx(1.0, abs=0.02)
        assert row.sup_out >= row.inf_out
        assert row.failures == 0
    s = 0.8
    sim = LinearMap(scipy.linalg.expm(s * space.a))
    rep = distortion_profile(sim, space, np.zeros(2), radii,
                             samples_per_radius=100, seed=0)
    for row in rep.rows:
        assert row.sup_ratio == pytest.approx(math.exp(s), rel=0.02)
        assert row.inf_ratio == pytest.approx(math.exp(s), rel=0.02)


def test_qs_profile_identity_and_similarity(rng):
    space = BoundarySpace(jordan_block(1.0, 2))
    ident = Translation((0.0, 0.0))
    prof = qs_profile(ident, space, triples=2000, seed=0)
    np.testing.assert_allclose(prof.ratios_out, prof.ratios_in, rtol=1e-9)
    assert np.all(np.diff(prof.envelope_out) >= 0)

    sim = LinearMap(scipy.linalg.expm(0.5 * space.a))
    prof = qs_profile(sim, space, triples=2000, seed=0)
    np.testing.assert_allclose(prof.ratios_out, prof.ratios_in, rtol=1e-8)


def test_qs_profile_bounded_by_squared_bilip(rng):
    space = BoundarySpace(jordan_block(1.0, 2))
    spec = random_jordan_map(rng, 2, max_slope=1.0)
    bound = jordan_family_bound(spec)
    prof = qs_profile(spec, space, triples=4000, seed=2)
    for t in (0.1, 0.5, 1.0, 3.0, 10.0):
        env = float(prof.envelope(t))
        assert env <= bound**2 * t + 1e-9


def test_conformal_probe_values():
    sh = Shear(2, PiecewiseLinear.linear(1.0))
    r = conformal_probe(sh, 2, [-4.0, -8.0])
    assert r[-1] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    const = Shear(2, PiecewiseLinear.constant(5.0))
    r = conformal_probe(const, 2, [-8.0])
    assert r[0] == pytest.approx(1.0, abs=1e-12)

    # non-affine C: slope 0.7 near the origin wins as t -> -inf
    c = PiecewiseLinear(((-0.5, -0.35), (0.5, 0.35), (2.0, 3.0)))
    sh2 = Shear(2, c)
    r = conformal_probe(sh2, 2, [-2.0, -8.0])
    assert r[-1] == pytest.approx(math.sqrt(1 + 0.49), rel=1e-6)

    sh3 = Shear(3, PiecewiseLinear.linear(0.5))
    r = conformal_probe(sh3, 3, [-8.0])
    assert r[0] == pytest.approx(math.sqrt(1.25), rel=1e-9)


@pytest.mark.parametrize("t, base", [
    (-744.0, None),  # e^t is subnormal: the ratio read 0
    (-746.0, None),  # e^t is 0: NaN
    (709.0, None),  # e^t is finite, e^t e^{tN} is not: NaN
    (710.0, None),  # math.exp overflows
])
def test_conformal_probe_rejects_t_outside_the_float_range(t, base):
    sh = Shear(2, PiecewiseLinear.linear(1.0))
    with pytest.raises(RangeError, match=f"t = {t!r}"):
        conformal_probe(sh, 2, [-4.0, t], base=base)


@pytest.mark.parametrize("t, base", [
    (700.0, None),  # the squared norm overflowed: RangeError
    (-700.0, (0.0, 0.0)),  # the squared norm underflowed: RangeError
])
def test_conformal_probe_scales_its_norm_near_the_float_range(t, base):
    sh = Shear(2, PiecewiseLinear.linear(1.0))
    r = conformal_probe(sh, 2, [-4.0, t], base=base)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-13)
    # the subnormal squares below t = -354 read 1.41604 at -370 and
    # 1.60498 at -372, and raised from -372.5 on
    ts = np.linspace(-708.0, 700.0, 353)
    assert conformal_probe(sh, 2, ts) == pytest.approx(math.sqrt(2.0),
                                                        rel=1e-13)


def test_conformal_probe_near_the_float_range_is_unchanged():
    sh = Shear(2, PiecewiseLinear.linear(1.0))
    r = conformal_probe(sh, 2, [-350.0, -300.0, 300.0])
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda space: empirical_bilip(Translation((1.0, 0.0)), space, samples=0),
    lambda space: transfer_check(space.a, space.a, np.eye(2), 1.0, samples=0),
    lambda space: distortion_profile(Translation((1.0, 0.0)), space,
                                     np.zeros(2), [1.0],
                                     samples_per_radius=0),
], ids=["empirical_bilip", "transfer_check", "distortion_profile"])
def test_estimators_reject_zero_samples(call):
    space = BoundarySpace(jordan_block(1.0, 2))
    with pytest.raises(ValueError, match="samples.* must be at least 1"):
        call(space)


def test_map_json_roundtrip(rng):
    specs = [
        Translation((1.0, 2.0)),
        LinearMap(np.array([[1.0, 0.5], [0.0, 2.0]])),
        Shear(2, PiecewiseLinear(((-1.0, 0.0), (1.0, 1.0)))),
        PolyNilpotent((2.0, -0.5, 0.1)),
        JordanFamilyMap(2, (1.0,), (0.0, 0.0),
                        PiecewiseLinear(((-1.0, 0.0), (1.0, 1.0)))),
        Composition((Translation((1.0, 0.0)),
                     Shear(2, PiecewiseLinear.constant(0.0)))),
    ]
    for spec in specs:
        doc = map_to_json_dict(spec)
        back = map_from_json_dict(doc)
        x = rng.uniform(-3, 3, (5, spec.n))
        np.testing.assert_array_equal(
            eval_map_batch(spec, x), eval_map_batch(back, x)
        )


WIRE_GOLDEN = [
    (Translation((1.0, -2.5)),
     '{"kind": "translation", "v": [1.0, -2.5]}\n'),
    (LinearMap(np.array([[1.0, 0.5], [0.0, 2.0]])),
     '{"kind": "linear", "M": [[1.0, 0.5], [0.0, 2.0]]}\n'),
    (Shear(2, PiecewiseLinear(((-1.0, 0.0), (0.5, 0.25), (1.0, 1.0)))),
     '{"kind": "shear", "n": 2, "C": {"knots": [[-1.0, 0.0], [0.5, 0.25], '
     '[1.0, 1.0]]}}\n'),
    (PolyNilpotent((2.0, -0.5, 0.1)),
     '{"kind": "poly_nilpotent", "n": 3, "coeffs": [2.0, -0.5, 0.1]}\n'),
    (JordanFamilyMap(3, (1.5, 0.25), (0.1, -0.2, 0.3),
                     PiecewiseLinear(((0.0, 0.0), (1.0, 0.5)))),
     '{"kind": "jordan_family", "n": 3, "a": [1.5, 0.25], '
     '"v": [0.1, -0.2, 0.3], "C": {"knots": [[0.0, 0.0], [1.0, 0.5]]}}\n'),
    (Composition((Translation((1.0, 0.0)),
                  Shear(2, PiecewiseLinear.linear(0.3)))),
     '{"kind": "composition", "maps": [{"kind": "translation", '
     '"v": [1.0, 0.0]}, {"kind": "shear", "n": 2, "C": {"knots": '
     '[[0.0, 0.0], [1.0, 0.3]]}}]}\n'),
    (Composition((Translation((1.0, 0.0)), Composition((
        Shear(2, PiecewiseLinear.constant(0.5)),
        LinearMap(2.0 * np.eye(2)))))),
     '{"kind": "composition", "maps": [{"kind": "translation", '
     '"v": [1.0, 0.0]}, {"kind": "composition", "maps": [{"kind": "shear", '
     '"n": 2, "C": {"knots": [[0.0, 0.5]]}}, {"kind": "linear", '
     '"M": [[2.0, 0.0], [0.0, 2.0]]}]}]}\n'),
]


@pytest.mark.parametrize("spec, text", WIRE_GOLDEN, ids=[
    "translation", "linear", "shear", "poly_nilpotent", "jordan_family",
    "composition", "nested_composition",
])
def test_map_wire_format_golden(spec, text, tmp_path):
    path = tmp_path / "map.json"
    save_map(path, spec)
    assert path.read_bytes() == text.encode()
    doc = spec.to_json()
    assert map_to_json_dict(spec) == doc
    back = map_from_json_dict(doc)
    assert type(back) is type(spec) and back.to_json() == doc


def test_map_validation():
    with pytest.raises(ValueError):
        JordanFamilyMap(2, (0.0,), (0.0, 0.0), PiecewiseLinear.constant(0.0))
    with pytest.raises(ValueError):
        PolyNilpotent((0.0, 1.0))
    with pytest.raises(ValueError):
        PiecewiseLinear(((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ValueError):
        Composition((Translation((1.0,)), Translation((1.0, 2.0))))
    with pytest.raises(ValueError, match="unknown map kind 'rotation'"):
        map_from_json_dict({"kind": "rotation"})
    with pytest.raises(ValueError, match="unknown map kind"):
        map_from_json_dict({"kind": ["shear"]})
    with pytest.raises(ValueError,
                       match="^jordan_family map: missing field 'a'$"):
        map_from_json_dict({"kind": "jordan_family", "n": 2})


def test_one_solver_batch_per_estimator_stage(monkeypatch):
    # stages whose points do not depend on a distance share one batch: a
    # row's distance does not depend on the rest of its batch
    calls = []

    def counted(real):
        def dist_pairs(*args):
            calls.append(args)
            return real(*args)
        return dist_pairs

    monkeypatch.setattr(maps, "dist_pairs", counted(maps.dist_pairs))
    monkeypatch.setattr(metric, "dist_pairs", counted(metric.dist_pairs))
    space = BoundarySpace(jordan_block(1.0, 3))
    spec = JordanFamilyMap(3, (1.2, -0.4), (0.5, -1.0, 2.0),
                           PiecewiseLinear(((0.0, 0.0), (1.0, 0.8))))

    def count(fn, *args, **kwargs):
        calls.clear()
        fn(*args, **kwargs)
        return len(calls)

    assert count(qs_profile, spec, space, triples=300) == 1
    # the annulus points are placed from the base distances: two batches
    for radii in ([1.0], [1.0, 0.3, 0.1], [2.0, 1.0, 0.5, 0.25, 0.1]):
        assert count(distortion_profile, spec, space, np.zeros(3), radii,
                     samples_per_radius=20) == 2
    assert count(quasimetric_constant, space, 300) == 1
    assert count(empirical_bilip, spec, space, 300) == 1
