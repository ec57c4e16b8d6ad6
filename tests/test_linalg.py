import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from heintze.errors import ConditioningError, MatrixFormatError, RangeError
from heintze.linalg import (
    _dd_table,
    _exp_divided_differences,
    check_matrix,
    exponential,
    jordan_block,
    load_matrix,
    mat_exp,
    nilpotent_exp,
    nilpotent_shift,
    operator_norm,
    real_schur,
    save_matrix,
)


def test_mat_exp_zero_time_is_identity():
    a = np.array([[3.0, -1.0], [0.5, 2.0]])
    np.testing.assert_allclose(mat_exp(a, 0.0), np.eye(2), atol=1e-15)


def test_mat_exp_diagonal():
    got = mat_exp(np.diag([1.0, 2.0]), 1.0)
    np.testing.assert_allclose(
        got, np.diag([math.e, math.e**2]), rtol=1e-13
    )


def test_mat_exp_matches_displayed_nilpotent_matrix():
    got = mat_exp(nilpotent_shift(3), 1.0)
    np.testing.assert_allclose(
        got, [[1, 1, 0.5], [0, 1, 1], [0, 0, 1]], rtol=0, atol=1e-14
    )


def test_mat_exp_overflow_guard():
    with pytest.raises(RangeError):
        mat_exp(np.diag([30.0, 1.0]), 2.0)
    # configurable guard
    out = mat_exp(np.diag([30.0, 1.0]), 2.0, guard=100.0)
    assert np.isfinite(out).all()


def test_mat_exp_rejects_non_finite():
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        mat_exp(np.eye(2), math.inf)


def test_nilpotent_shift_is_exactly_nilpotent():
    for n in range(1, 7):
        assert np.count_nonzero(
            np.linalg.matrix_power(nilpotent_shift(n), n)
        ) == 0


def test_nilpotent_exp_small_cases():
    t = 0.37
    np.testing.assert_array_equal(
        nilpotent_exp(2, t), np.array([[1.0, t], [0.0, 1.0]])
    )
    np.testing.assert_array_equal(nilpotent_exp(1, 5.0), np.array([[1.0]]))
    m = nilpotent_exp(4, -1.0)
    assert m[0, 3] == -1.0 / 6.0
    assert m[0, 2] == 0.5


def test_nilpotent_exp_overflow_is_a_range_error():
    # t^k / k! past the float range raises the typed error, like mat_exp's
    # guard: (1.2e62)^5 / 5! is about 2.1e308
    for n, t in [(3, 1e300), (3, -1e300), (6, 1.2e62), (6, -1.2e62)]:
        with pytest.raises(RangeError, match="leaves the float range"):
            nilpotent_exp(n, t)
    # just inside the range the closed form is finite
    assert np.isfinite(nilpotent_exp(6, 4.4e61)).all()
    # (4.5e61)^5 overflows, (4.5e61)^5 / 5! does not: the exact quotient
    for t in (4.5e61, -4.5e61):
        m = nilpotent_exp(6, t)
        assert np.isfinite(m).all()
        for k in range(6):
            exact = Fraction(t) ** k / math.factorial(k)
            assert abs(m[0, k] - exact) <= 4 * np.finfo(float).eps * abs(exact)


@pytest.mark.parametrize("n", [172, 200])
def test_nilpotent_exp_past_171_factorial(n):
    # 171! is past the float range; the entries t^k/k! are not
    for t in (0.5, -2.0, 3.0, -7.5):
        m = nilpotent_exp(n, t)
        for k in range(n):
            tk = t**k
            exact = Fraction(t) ** k / math.factorial(k)
            assert np.all(np.diagonal(m, k) == m[0, k])
            if k <= 170:  # as before, float(k!) and one division
                assert m[0, k] == tk / math.factorial(k)
            elif tk == Fraction(t) ** k:  # t^k exact: correctly rounded
                assert m[0, k] == float(exact)
            else:
                assert abs(m[0, k] - exact) <= 4 * np.finfo(float).eps * abs(exact)
    assert nilpotent_exp(n, 7.5)[0, n - 1] > 0.0
    assert nilpotent_exp(n, 1e-3)[0, n - 1] == 0.0  # underflows


def test_closed_form_exponential_past_171_factorial():
    # a chain of size 172 has entries e^t t^k / k! with k = 171, past the
    # float range of k!; the entries with k <= 170 keep their bits
    assert np.isfinite(mat_exp(jordan_block(1.0, 172), 0.1)).all()
    for t in (0.1, -3.0, 20.0):
        m171 = mat_exp(jordan_block(1.0, 171), t)
        m172 = mat_exp(jordan_block(1.0, 172), t)
        assert np.array_equal(m172[:171, :171], m171)
        assert np.array_equal(m172[1:, 1:], m171)
        exact = Fraction(math.exp(t)) * Fraction(t) ** 171 / math.factorial(171)
        assert abs(m172[0, 171] - exact) <= 4 * np.finfo(float).eps * abs(exact)
    assert mat_exp(jordan_block(1.0, 172), 20.0)[0, 171] > 0.0


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=30, deadline=None)
def test_frob_dominates_operator_norm(n, data):
    entries = data.draw(
        st.lists(
            st.floats(min_value=-10, max_value=10),
            min_size=n * n,
            max_size=n * n,
        )
    )
    m = np.array(entries).reshape(n, n)
    assert operator_norm(m) <= np.linalg.norm(m) + 1e-12


def test_semigroup_property():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        a *= min(1.0, 5.0 / operator_norm(a))
        s, t = rng.uniform(-5, 5, 2)
        lhs = mat_exp(a, s + t)
        rhs = mat_exp(a, s) @ mat_exp(a, t)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * np.linalg.norm(lhs, 2)


def test_mat_exp_agrees_with_nilpotent_closed_form(rng):
    for n in range(1, 7):
        t = float(rng.uniform(-3, 3))
        got = mat_exp(nilpotent_shift(n), t)
        np.testing.assert_allclose(got, nilpotent_exp(n, t), atol=1e-13)


_CANONICAL = {
    "J2": jordan_block(1.0, 2),
    "J3": jordan_block(1.0, 3),
    "J4(0.3)": jordan_block(0.3, 4),
    "J2+J1": scipy.linalg.block_diag(jordan_block(1.0, 2), [[1.0]]),
    "J1+J2": scipy.linalg.block_diag([[1.0]], jordan_block(1.0, 2)),
    "diag(1,2)+J2": scipy.linalg.block_diag(np.diag([1.0, 2.0]),
                                            jordan_block(1.0, 2)),
    "2I3": 2.0 * np.eye(3),
}
_TS = np.linspace(-7.0, 2.0, 37)


@pytest.mark.parametrize("name", sorted(_CANONICAL))
def test_exponential_matches_scipy_expm(name):
    # Pade's own entrywise error reaches about 8e-13 on these matrices for
    # t in [-7, 2]; the closed form is checked to 1e-15 below
    a = _CANONICAL[name]
    ref = scipy.linalg.expm(_TS[:, None, None] * a)
    got = exponential(a, _TS)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    for t, m in zip(_TS, got):
        np.testing.assert_array_equal(exponential(a, float(t)), m)
        np.testing.assert_array_equal(mat_exp(a, float(t)), m)


@pytest.mark.parametrize("name", sorted(_CANONICAL))
def test_exponential_is_the_closed_form_to_the_last_bits(name):
    # e^{t lam} t^k / k! on the k-th superdiagonal of each chain, in 40 digits
    a = _CANONICAL[name]
    got = exponential(a, _TS)
    with localcontext() as ctx:
        ctx.prec = 40
        for t, m in zip(_TS, got):
            want = np.zeros_like(a)
            for i in range(a.shape[0]):
                entry = (Decimal(float(t)) * Decimal(a[i, i])).exp()
                for j in range(i, a.shape[0]):
                    if j > i and a[j - 1, j] != 1.0:
                        break
                    want[i, j] = float(entry)
                    entry = entry * Decimal(float(t)) / (j - i + 1)
            np.testing.assert_allclose(m, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("name", sorted(_CANONICAL))
def test_exponential_is_python_float_arithmetic_bit_for_bit(name):
    # each chain's entry is math.exp(t lam) * (t**k / k!) in Python floats:
    # no numpy SIMD loop (power, exp) decides a last bit
    a = _CANONICAL[name]
    n = a.shape[0]
    for t, m in zip(_TS.tolist(), exponential(a, _TS)):
        want = np.zeros_like(a)
        for i in range(n):
            for j in range(i, n):
                if j > i and a[j - 1, j] != 1.0:
                    break
                k = j - i
                want[i, j] = math.exp(t * a[i, i]) * (t**k / math.factorial(k))
        assert m.tobytes() == want.tobytes(), (name, t)


_GENERAL = {
    "J3": jordan_block(1.0, 3),
    "J4(0.5)": jordan_block(0.5, 4),
    "J5(0.25)+J5(0.5)+J2(2)": scipy.linalg.block_diag(
        jordan_block(0.25, 5), jordan_block(0.5, 5), jordan_block(2.0, 2)),
    "spiral+J2(0.3)": scipy.linalg.block_diag([[1.0, -3.0], [3.0, 1.0]],
                                              jordan_block(0.3, 2)),
}
# double eigenvalues beside simple ones at n = 3: eig may report the
# split pair as complex, and its plane may be deflated first
_SWEPT = {
    "2+J2(0.3)": scipy.linalg.block_diag([[2.0]], jordan_block(0.3, 2)),
    "2+J2(1)": scipy.linalg.block_diag([[2.0]], jordan_block(1.0, 2)),
    "2+J2(2.5)": scipy.linalg.block_diag([[2.0]], jordan_block(2.5, 2)),
    "J2(0.3)+J1(1)": scipy.linalg.block_diag(jordan_block(0.3, 2), [[1.0]]),
    # n = 26, two eigenvalues of eleven chains: eig splits each into
    # real values and pairs, some of whose carried eigenvectors drift
    "derogatory": scipy.linalg.block_diag(*[jordan_block(lam, size) for
        lam, size in [(2.0, 4), (0.3, 3), (0.3, 3), (0.3, 1), (2.0, 3),
                      (2.0, 1), (0.3, 3), (0.3, 3), (0.3, 1), (0.3, 2),
                      (2.0, 2)]]),
}


def _assert_real_schur(a):
    tri, q = real_schur(a)
    n = a.shape[0]
    assert np.linalg.norm(q.T @ q - np.eye(n), 2) <= 1e-14
    assert np.linalg.norm(q @ tri @ q.T - a, 2) <= 1e-14 * np.linalg.norm(a, 2)
    # exact zeros below 1 x 1 and 2 x 2 diagonal blocks: never two
    # subdiagonal entries in a row
    sub = np.diag(tri, -1) != 0
    assert not np.tril(tri, -2).any() and not (sub[:-1] & sub[1:]).any()
    return tri


@pytest.mark.parametrize("name", sorted(_GENERAL) + ["random"])
def test_real_schur_is_a_backward_stable_quasi_triangular_form(name):
    if name == "random":
        a = np.random.default_rng(1).normal(size=(6, 6))
    else:  # rotated: no block structure survives, and clusters split
        r = np.linalg.qr(np.random.default_rng(3).normal(
            size=(len(_GENERAL[name]),) * 2))[0]
        a = r @ _GENERAL[name] @ r.T
    _assert_real_schur(a)
    # e^{tA} = Q e^{tT} Q^T against Pade
    ref = scipy.linalg.expm(0.7 * a)
    got = exponential(a, 0.7)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("name", sorted(_SWEPT))
def test_real_schur_is_backward_stable_on_rotated_multiple_eigenvalues(name):
    n = len(_SWEPT[name])
    for seed in range(30):
        r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
        _assert_real_schur(r @ _SWEPT[name] @ r.T)


def test_real_schur_splits_a_rotated_double_eigenvalue_into_1x1_blocks():
    # eig reports some of these as a pair lam +- 1e-8 i; its plane would
    # be a 2 x 2 block whose nu^2 = -(p^2 + bc), about 1e-16, is rounding,
    # so the pair deflates as the real vector Re x instead (a cluster of
    # two 1 x 1 blocks, with the sinch form)
    for lam in (0.3, 0.35, 0.45, 1.0, 2.5):
        for angle in np.linspace(0.1, 3.0, 7):
            c, s = math.cos(angle), math.sin(angle)
            r = np.array([[c, -s], [s, c]])
            tri = _assert_real_schur(r @ jordan_block(lam, 2) @ r.T)
            assert tri[1, 0] == 0.0, (lam, angle)


def _diagonal_eigenvalues(tri):
    """Eigenvalues of the 1 x 1 and 2 x 2 diagonal blocks of T."""
    vals, i = [], 0
    while i < len(tri):
        k = 1 + (i + 1 < len(tri) and tri[i + 1, i] != 0)
        vals.extend(np.linalg.eigvals(tri[i:i + k, i:i + k]))
        i += k
    return np.array(vals, dtype=complex)


def _lead_radius(a, m):
    """The radius at which a cluster of m eigenvalues of A merges."""
    norm = np.linalg.norm(a, 2)
    return 10.0 * (np.finfo(float).eps * norm) ** (1.0 / m) * max(1.0, norm)


# (matrix, [(mu, size of mu's cluster with its conjugate)])
_LEAD = {
    "J4(.25)+J4(.5)+J2(2)": (scipy.linalg.block_diag(
        jordan_block(0.25, 4), jordan_block(0.5, 4), jordan_block(2.0, 2)),
        [(0.25, 4), (0.5, 4), (2.0, 2)]),
    "spiral+J2(0.3)": (_GENERAL["spiral+J2(0.3)"], [(1 + 3j, 2), (0.3, 2)]),
    "2+J2(1)": (_SWEPT["2+J2(1)"], [(1.0, 2), (2.0, 1)]),
}


@pytest.mark.parametrize("name", sorted(_LEAD))
def test_real_schur_lead_block_holds_exactly_the_lead_cluster(name):
    # the diagonal blocks of T hold each cluster's m eigenvalues, and no
    # other, within the radius at which the cluster merges
    base, clusters = _LEAD[name]
    n = len(base)
    for seed in range(5):
        r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
        a = r @ base @ r.T
        vals = _diagonal_eigenvalues(_assert_real_schur(a))
        for mu, m in clusters:
            near = (abs(vals.real + 1j * abs(vals.imag) - mu)
                    <= _lead_radius(a, m))
            assert near.sum() == m, (name, seed, mu)


def test_real_schur_lead_deflates_rotated_jordan_sums():
    # every deflation of a defective cluster stays at the rounding level
    a0, _ = _LEAD["J4(.25)+J4(.5)+J2(2)"]
    for seed in range(10):
        r = np.linalg.qr(np.random.default_rng(100 + seed).normal(
            size=a0.shape))[0]
        _assert_real_schur(r @ a0 @ r.T)


def test_real_schur_refuses_a_deflation_past_rounding(monkeypatch):
    # eigenvectors tilted by 1e-9 leave ~1e-9 ||A|| below a deflated block
    eig = np.linalg.eig

    def tilted(m):
        vals, vecs = eig(m)
        return vals, vecs + 1e-9 * np.random.default_rng(7).normal(
            size=vecs.shape)

    monkeypatch.setattr(np.linalg, "eig", tilted)
    with pytest.raises(ConditioningError, match="real Schur form"):
        real_schur(np.random.default_rng(0).normal(size=(6, 6)))


@pytest.mark.parametrize("scale", [0.3, 3.0, 30.0])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_exp_divided_differences_match_50_digit_tables(scale, kind):
    # the Taylor table inside the unit disc, Opitz squarings outside it:
    # tau^p e[x_0..x_p] against the recursive table of e^x at 60 digits
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1)
    d = rng.uniform(-1.0, 1.0, 4)
    if kind == "complex":
        d = d + 1j * rng.uniform(-1.0, 1.0, 4)
    tau = rng.uniform(-scale, scale, 5)
    got = _exp_divided_differences(tau, _dd_table(d))
    with mp.workdps(60):
        for col, t in enumerate(tau):
            pts = [mp.mpf(float(t)) * mp.mpmathify(complex(p)) for p in d]
            table = [mp.exp(p) for p in pts]
            for p in range(len(pts)):
                want = mp.mpf(float(t)) ** p * table[0]
                assert abs(mp.mpmathify(complex(got[p, col])) - want) \
                    <= 2e-14 * abs(want), (col, p)
                table = [(b - a) / (pts[i + p + 1] - pts[i])
                         for i, (a, b) in enumerate(zip(table, table[1:]))]


@pytest.mark.parametrize("a", [jordan_block(1.0, 3),
                               np.array([[1.0, -3.0], [3.0, 1.0]])])
def test_mat_exp_guard_is_at_the_same_scale(a):
    t = 50.0 / operator_norm(a)
    assert np.isfinite(mat_exp(a, t * (1 - 1e-9))).all()
    for s in (t * (1 + 1e-9), -t * (1 + 1e-9)):
        with pytest.raises(RangeError, match="exceeds the overflow guard 50"):
            mat_exp(a, s)


# normwise, relative to max |e^{tA}|: about ten times the largest error
# of these cases
EXP_TOL = 3e-14


def test_det_exp_trace(rng):
    # e^{tA} entrywise against the 50-digit expm of the same float matrix,
    # then det e^{tA} = e^{t tr A} within what that accuracy allows: det
    # moves by det * sum_ij |(E^-1)_ji| |dE_ij| to first order, dE the
    # allowed error of E plus the backward error gamma_n |L||U| of the LU
    # factors np.linalg.det multiplies, and t tr A rounds by n eps |t|
    # sum |a_ii|, e^x by eps
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for _ in range(30):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        a *= min(1.0, 5.0 / operator_norm(a))
        t = float(rng.uniform(-4, 4))
        e = mat_exp(a, t)
        with mp.workdps(50):
            exact = mp.expm(mp.matrix(a.tolist()) * mp.mpf(t))
            err = np.array([[float(abs(exact[i, j] - mp.mpf(e[i, j])))
                             for j in range(n)] for i in range(n)])
        assert err.max() <= EXP_TOL * np.abs(e).max(), (a, t)
        _, lower, upper = scipy.linalg.lu(e)
        backward = n * eps / (1.0 - n * eps) * (np.abs(lower) @ np.abs(upper))
        dets = np.abs(np.linalg.inv(e)).T * (EXP_TOL * np.abs(e).max()
                                              + backward)
        trace = t * np.trace(a)
        rounding = eps * (1.0 + n * abs(t) * np.abs(np.diag(a)).sum())
        bound = 2.0 * (dets.sum() + rounding)
        assert abs(np.linalg.det(e) / math.exp(trace) - 1.0) <= bound, (a, t)


def test_check_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        check_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        check_matrix(np.zeros(3))


def test_matrix_file_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    a = np.array([[1.0, 2.5], [-0.5, 4.0]])
    save_matrix(path, a)
    np.testing.assert_array_equal(load_matrix(path), a)


def test_matrix_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": [[1, 2], [3]]}')
    with pytest.raises(MatrixFormatError, match="row 2"):
        load_matrix(path)
    path.write_text('{"rows": [[1, "x"], [3, 4]]}')
    with pytest.raises(MatrixFormatError, match="row 1, column 2"):
        load_matrix(path)
    path.write_text('{"rows": [[1, 2, 3], [4, 5, 6]]}')
    with pytest.raises(MatrixFormatError, match="square"):
        load_matrix(path)
    path.write_text("not json")
    with pytest.raises(MatrixFormatError, match="JSON"):
        load_matrix(path)
