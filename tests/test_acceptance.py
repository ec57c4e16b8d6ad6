"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything is seeded and deterministic.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from conftest import _Exact

from heintze.linalg import jordan_block, save_matrix
from heintze.maps import (
    JordanFamilyMap,
    PiecewiseLinear,
    Shear,
    conformal_probe,
    empirical_bilip,
    jordan_family_bound,
)
from heintze.metric import (
    BoundarySpace,
    dist,
    dist_pairs,
    fiber_hausdorff,
    fiber_restriction_check,
    point_to_fiber,
)
from heintze.spectral import classify
from heintze.variation import PackingSpec, TestFunction, fit_exponents, variation_sum

ROTATION_PLUS = np.array([[1.0, -1.0], [1.0, 1.0]])


def _report(k, name):
    print(f"\nACCEPTANCE {k} ({name}): PASS", flush=True)


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_metric_oracles():
    rng = np.random.default_rng(101)
    for n in (2, 4):
        space = BoundarySpace(np.eye(n))
        x = rng.uniform(-8, 8, (1000, n))
        y = rng.uniform(-8, 8, (1000, n))
        got = dist_pairs(space, x, y)
        want = np.linalg.norm(x - y, axis=1)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(want, 1e-300))
    lam = 2.0
    space = BoundarySpace(lam * np.eye(3))
    x = rng.uniform(-8, 8, (1000, 3))
    y = rng.uniform(-8, 8, (1000, 3))
    got = dist_pairs(space, x, y)
    want = np.linalg.norm(x - y, axis=1) ** (1.0 / lam)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(want, 1e-300))
    _report(1, "metric closed forms")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_invariance_suite():
    rng = np.random.default_rng(202)
    mats = [
        jordan_block(1.0, 2),
        jordan_block(1.0, 3),
        np.diag([1.0, 2.0]),
        ROTATION_PLUS,
    ]
    for a in mats:
        space = BoundarySpace(a)
        n = space.n
        x = rng.uniform(-5, 5, (1000, n))
        y = rng.uniform(-5, 5, (1000, n))
        z = rng.uniform(-5, 5, (1000, n))
        base = dist_pairs(space, x, y)
        shifted = dist_pairs(space, x + z, y + z)
        assert np.all(np.abs(shifted - base) <= 1e-8 * base)
        s = rng.uniform(-3, 3, 1000)
        for sv in np.unique(np.round(s, 1)):
            rows = np.abs(s - sv) < 0.05
            if not rows.any():
                continue
            e = scipy.linalg.expm(sv * a)
            lhs = dist_pairs(space, x[rows] @ e.T, y[rows] @ e.T)
            rhs = math.exp(sv) * base[rows]
            assert np.all(np.abs(lhs - rhs) <= 1e-8 * rhs)
    _report(2, "translation invariance and dilation similarity")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_fiber_formulas():
    rng = np.random.default_rng(303)
    spaces = [
        BoundarySpace(jordan_block(1.0, 2)),
        BoundarySpace(jordan_block(1.0, 3)),
        BoundarySpace(scipy.linalg.block_diag([[0.8]], jordan_block(0.8, 2))),
    ]
    for space in spaces:
        pi_idx = space.projection_indices()
        inner = space.interior_indices()
        for _ in range(40):
            p = rng.uniform(-4, 4, space.n)
            q = p.copy()
            q[inner] = rng.uniform(-4, 4, inner.size)
            d_full, d_red = fiber_restriction_check(space, p, q)
            assert abs(d_full - d_red) <= 1e-8 * max(d_full, 1.0)
    space = BoundarySpace(jordan_block(1.0, 2))
    for _ in range(5):
        p = rng.uniform(-3, 3, 2)
        y2 = rng.uniform(-3, 3, 1)
        closed = fiber_hausdorff(space, p[1:], y2)
        est = point_to_fiber(space, p, y2, samples=10_000, seed=11)
        assert est >= closed - 1e-9
        assert est <= 1.05 * closed + 1e-12
    assert fiber_hausdorff(
        BoundarySpace(2 * np.eye(2)), [0.0, 0.0], [0.0, 4.0]
    ) == pytest.approx(2.0)
    _report(3, "fiber restriction and Hausdorff closed forms")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_classification():
    # the six hand-built pairs
    p = np.array([[1.1, 0.6], [-0.3, 0.9]])
    b_conj = p @ jordan_block(1.0, 2) @ np.linalg.inv(p)
    cases = [
        (np.diag([1.0, 2.0]), np.diag([2.0, 4.0]), True, 0.5),
        (np.diag([1.0, 2.0]), np.diag([1.0, 3.0]), False, None),
        (jordan_block(1.0, 2), b_conj, True, 1.0),
        (np.diag([1.0, 2.0]), np.diag([2.0, 4.0]), True, 0.5),
        (np.diag([1.0, 2.0]), np.diag([1.0, 3.0]), False, None),
        (jordan_block(1.0, 2), np.diag([1.0, 1.0]), False, None),
    ]
    for a, b, want_eq, want_scale in cases:
        res = classify(a, b)
        assert res.equivalent == want_eq
        if want_scale is not None:
            assert res.scale == pytest.approx(want_scale, abs=1e-6)

    rng = np.random.default_rng(404)
    from test_spectral import random_canonical, random_conjugator

    done = 0
    while done < 50:
        a, _ = random_canonical(rng)
        p = random_conjugator(rng, a.shape[0], cond_max=1e3)
        b = p @ a @ np.linalg.inv(p)
        res = classify(a, b)
        assert res.equivalent, (a, np.linalg.cond(p))
        assert abs(res.scale - 1.0) <= 1e-6
        done += 1
    _report(4, "classification verdicts and conjugation pairs")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_qvariation_scaling():
    box = np.array([[0.0, 0.0], [1.0, 1.0]])
    rep = fit_exponents(
        np.diag([1.0, 2.0]), TestFunction.coordinate(2, 1), box,
        [-6.0, -5.0, -4.0], [1.0, 1.5, 2.0], max_cells=10**8,
    )
    predicted = {1.0: -1.0, 1.5: 0.0, 2.0: 1.0}
    for fit in rep.fits:
        want = predicted[fit.q]
        # within 10% of the predicted rate (absolute 0.1 at the zero rate)
        assert abs(fit.slope - want) <= max(0.1 * abs(want), 0.1)

    a = jordan_block(1.0, 2)
    u = TestFunction.coordinate(2, 1)  # the pi_A coordinate
    vol = 1.0
    for t in (-6.0, -5.0, -4.0):
        v = variation_sum(PackingSpec(a, t, box, max_cells=10**8), u, 2.0)
        assert vol / 4 <= v <= vol * 4
    _report(5, "Q-variation scaling rates")


# -- 6 ----------------------------------------------------------------------


def _random_pwl(rng, max_slope):
    k = int(rng.integers(1, 6))
    if k == 1:
        return PiecewiseLinear.constant(float(rng.uniform(-2, 2)))
    ys = np.unique(np.sort(rng.uniform(-4, 4, k)))
    if len(ys) < 2:
        return PiecewiseLinear.constant(float(rng.uniform(-2, 2)))
    slopes = rng.uniform(-max_slope, max_slope, len(ys) - 1)
    v0 = float(rng.uniform(-2, 2))
    vals = np.concatenate([[v0], v0 + np.cumsum(slopes * np.diff(ys))])
    return PiecewiseLinear(tuple(zip(ys.tolist(), vals.tolist())))


def test_criterion_6_map_bounds():
    rng = np.random.default_rng(606)
    spaces = {n: BoundarySpace(jordan_block(1.0, n)) for n in (2, 3, 4)}
    violations = 0
    for i in range(100):
        n = (2, 3, 4)[i % 3]
        a0 = float(rng.uniform(0.4, 2.0)) * (1 if rng.random() < 0.5 else -1)
        a = (a0,) + tuple(rng.uniform(-1.5, 1.5, n - 2))
        spec = JordanFamilyMap(
            n, a, tuple(rng.uniform(-3, 3, n)), _random_pwl(rng, 2.0)
        )
        assert spec.c.lipschitz() <= 2.0
        bound = jordan_family_bound(spec)
        mn, mx = empirical_bilip(spec, spaces[n], samples=10_000,
                                 seed=int(rng.integers(0, 2**31)))
        if mx > bound or mn < 1.0 / bound:
            violations += 1
    assert violations == 0
    _report(6, "jordan-family distortion bounds, 100 maps, zero violations")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_conformality_probe():
    sh = Shear(2, PiecewiseLinear.linear(1.0))
    ratio = conformal_probe(sh, 2, [-8.0])[0]
    assert abs(ratio - math.sqrt(2.0)) <= 0.05 * math.sqrt(2.0)
    const = Shear(2, PiecewiseLinear.constant(2.5))
    ratio = conformal_probe(const, 2, [-8.0])[0]
    assert abs(ratio - 1.0) <= 0.02
    _report(7, "conformality probe values")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_smallest_root_corpus(adversarial_corpus):
    mp = pytest.importorskip("mpmath")
    multi = 0
    for a, v in adversarial_corpus:
        with mp.workdps(50):
            roots = _Exact.of(mp, a, v).roots(-25.0, 45.0)
        assert roots, "oracle found no root"
        if len(roots) >= 3:
            multi += 1
        got = math.log(dist(BoundarySpace(a), np.zeros(a.shape[0]), v))
        assert abs(got - float(roots[0])) <= 1e-4
    assert multi >= 45  # corpus is genuinely adversarial
    _report(8, "smallest-root correctness on the adversarial corpus")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    d12 = tmp_path / "d12.json"
    save_matrix(d12, np.diag([1.0, 2.0]))
    j2 = tmp_path / "j2.json"
    save_matrix(j2, jordan_block(1.0, 2))
    shear = tmp_path / "shear.json"
    shear.write_text(json.dumps(
        {"kind": "shear", "n": 2, "C": {"knots": [[0.0, 0.0], [1.0, 1.0]]}}
    ))

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "heintze.cli", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    bodies = []
    for tag in ("one", "two"):
        out = tmp_path / f"r_{tag}.csv"
        run("qvar", "--matrix", str(d12), "--u", "1", "--box=0,1;0,1",
            "--t=-5:-3:1", "--q", "1,1.5,2", "--out", str(out))
        verify = tmp_path / f"v_{tag}.json"
        run("qsmap-verify", "--map", str(shear), "--matrix", str(j2),
            "--samples", "500", "--seed", "0", "--out", str(verify))
        bodies.append((
            out.read_bytes(),
            (tmp_path / f"r_{tag}-fits.csv").read_bytes(),
            verify.read_bytes(),
        ))
    assert bodies[0] == bodies[1]
    _report(9, "byte-identical report bodies across reruns")
