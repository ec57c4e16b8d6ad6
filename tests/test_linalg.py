import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from heintze.errors import MatrixFormatError, RangeError
from heintze.linalg import (
    check_matrix,
    exponential,
    frob_sq,
    jordan_block,
    load_matrix,
    mat_exp,
    nilpotent_exp,
    nilpotent_shift,
    numerical_rank,
    operator_norm,
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
    # |t|^k past the float range raises the typed error, like mat_exp's guard
    for n, t in [(3, 1e300), (3, -1e300), (6, 4.5e61), (6, -4.5e61)]:
        with pytest.raises(RangeError, match="leaves the float range"):
            nilpotent_exp(n, t)
    # just inside the range the closed form is finite
    assert np.isfinite(nilpotent_exp(6, 4.4e61)).all()


def test_frob_sq_values():
    assert frob_sq(np.eye(5)) == 5.0
    assert frob_sq(jordan_block(1.0, 2)) == 3.0
    u = 0.8
    assert frob_sq(nilpotent_exp(2, u)) == pytest.approx(2 + u**2, rel=1e-15)


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
    assert operator_norm(m) <= math.sqrt(frob_sq(m)) + 1e-12


def test_numerical_rank():
    assert numerical_rank(np.eye(3), 1e-9) == 3
    assert numerical_rank(np.zeros((2, 2)), 1e-9) == 0
    assert numerical_rank(jordan_block(1.0, 2) - np.eye(2), 1e-9) == 1


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


@pytest.mark.parametrize("a", [jordan_block(1.0, 3),
                               np.array([[1.0, -3.0], [3.0, 1.0]])])
def test_mat_exp_guard_is_at_the_same_scale(a):
    t = 50.0 / operator_norm(a)
    assert np.isfinite(mat_exp(a, t * (1 - 1e-9))).all()
    for s in (t * (1 + 1e-9), -t * (1 + 1e-9)):
        with pytest.raises(RangeError, match="exceeds the overflow guard 50"):
            mat_exp(a, s)


def test_det_exp_trace(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        a *= min(1.0, 5.0 / operator_norm(a))
        t = float(rng.uniform(-4, 4))
        det = np.linalg.det(mat_exp(a, t))
        expected = math.exp(t * np.trace(a))
        assert det == pytest.approx(expected, rel=1e-9)


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
