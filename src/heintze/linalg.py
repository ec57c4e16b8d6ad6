"""Dense real linear algebra used by every other module.

A "matrix" throughout the package is a square, finite, real float64
ndarray; ``check_matrix`` is the single validation gate.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import (ConditioningError, HypothesisViolationError,
                     MatrixFormatError, RangeError)

DEFAULT_EXP_GUARD = 50.0
DEFAULT_RANK_TOL = 1e-9
# degree of the Taylor sums of e^{sT} with |s| ||T|| <= 1/2
_TAYLOR_DEGREE = 16


def check_matrix(a) -> np.ndarray:
    """Validate a square real matrix and return it as a float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        bad = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"non-finite entry at row {bad[0] + 1}, column {bad[1] + 1}")
    return m


def check_vector(x, n=None) -> np.ndarray:
    """Validate a finite real vector, optionally of prescribed length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"expected dimension {n}, got {v.shape[0]}")
    return v


def check_hypothesis(eigs, tol: float = 1e-6) -> None:
    """Raise HypothesisViolationError unless every eigenvalue in ``eigs``
    has real part above ``tol`` (the paper's positive-real-part rule)."""
    low = np.asarray(eigs)[np.real(eigs) <= tol]
    if low.size:
        raise HypothesisViolationError(
            f"eigenvalue {low[0]:.6g} has real part <= {tol:.3g}; the "
            "positive-real-part hypothesis fails")


def operator_norm(a) -> float:
    """Spectral norm ||A|| = sup |Ax| / |x|."""
    return float(np.linalg.norm(check_matrix(a), 2))


def nilpotent_shift(n: int) -> np.ndarray:
    """The n x n matrix N with ones on the superdiagonal (N^n = 0)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return np.eye(n, k=1)


def jordan_block(lam: float, n: int) -> np.ndarray:
    """lam * I_n + N."""
    return lam * np.eye(n) + nilpotent_shift(n)


def nilpotent_exp(n: int, t: float) -> np.ndarray:
    """Closed-form e^{tN}: entry (i, j) is t^(j-i) / (j-i)! for j >= i, else 0.

    Bitwise deterministic and exact past 170! (``_taylor_terms``); a
    RangeError is raised only where an entry t^k / k! leaves the float range.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return _upper_toeplitz(_taylor_terms(t, n))


def _taylor_terms(t, n: int) -> np.ndarray:
    """t^k / k! for k < n on a new last axis of t: t**k / k! in Python floats
    (C's pow, not numpy's SIMD power) where both are floats, else the exact
    p^k / (q^k k!) of t = p / q, correctly rounded; RangeError past floats."""
    def term(x, k, fact):
        try:
            return x**k / float(fact)
        except OverflowError:  # t**k or k! is past the float range
            num, den = x.as_integer_ratio()
            return num**k / (den**k * fact)

    ts = np.asarray(t, dtype=float)
    out = np.ones(ts.shape + (n,))  # t**0 / 0! = 1 and t**1 / 1! = t
    rows, xs = out.reshape(-1, n), ts.reshape(-1).tolist()
    rows[:, 1:2] = ts.reshape(-1, 1)
    for k in range(2, n):
        fact = math.factorial(k)
        try:
            rows[:, k] = [term(x, k, fact) for x in xs]
        except OverflowError:  # the quotient t^k / k! itself
            raise RangeError(f"t^{k}/{k}! leaves the float range") from None
    return out


def _upper_toeplitz(c) -> np.ndarray:
    """sum_k c[..., k] N^k, of size n = c.shape[-1] (-0.0 gives 0.0)."""
    n = c.shape[-1]
    out = np.zeros(c.shape + (n,))
    flat = out.reshape(c.shape[:-1] + (n * n,))
    for k in range(n):  # the k-th superdiagonal, a strided slice
        flat[..., k:n * (n - k):n + 1] = c[..., k:k + 1] + 0.0
    return out


def _canonical_chains(a):
    """Chains [(lam, size, offset), ...] if A is block-diagonal with
    lam*I + N blocks, lam > 0 (exact structural test), else None."""
    rows = a.tolist()
    n = len(rows)
    chains = []
    for i, row in enumerate(rows):
        link = row[i + 1] if i + 1 < n else 0.0
        if any(row[:i]) or any(row[i + 2 :]) or link not in (0.0, 1.0):
            return None
        if row[i] <= 0.0:
            return None
        if i == 0 or rows[i - 1][i] == 0.0:
            chains.append([row[i], 1, i])
        elif row[i] == chains[-1][0]:
            chains[-1][1] += 1
        else:
            return None
    return [tuple(c) for c in chains]


def exponential(a, t, chains=None) -> np.ndarray:
    """e^{tA} for a scalar t, or the stack of e^{t_i A} for a 1-D array t.

    On a canonical A (``chains`` as from ``_canonical_chains``, found when
    not given) each chain's block is the closed form e^{t lam} * sum_k t^k
    N^k / k!, from math.exp and ``_taylor_terms``; otherwise Q e^{tT} Q^T
    from the real Schur form A = Q T Q^T (``real_schur``, ``schur_exp``).
    """
    ts = np.asarray(t, dtype=float)
    if chains is None:
        chains = _canonical_chains(a)
    if chains is None:
        tri, q = real_schur(a)
        window = 0.5 / (float(np.linalg.norm(a, 2)) or 1.0)  # any, if A = 0
        out = q @ schur_exp(tri, ts.reshape(-1), window,
                            taylor_table(tri, window)) @ q.T
        return out.reshape(ts.shape + a.shape)
    flat, xs = ts.reshape(-1), ts.reshape(-1).tolist()
    terms = _taylor_terms(flat, max(size for _, size, _ in chains))
    out = np.zeros((flat.size,) + a.shape)
    for lam, size, off in chains:
        try:  # math.exp, like t**k, keeps the bits off numpy's SIMD loops
            scale = np.array([math.exp(x * lam) for x in xs])
        except OverflowError:
            raise RangeError("e^(t lam) leaves the float range") from None
        out[:, off:off + size, off:off + size] = _upper_toeplitz(
            scale[:, None] * terms[:, :size])
    return out.reshape(ts.shape + a.shape)


def real_schur(a):
    """(T, Q) with A = Q T Q^T, Q orthogonal and T quasi-upper-triangular:
    a 1 x 1 diagonal block per real eigenvalue, a 2 x 2 one per complex
    pair, and exact zeros below them.

    Deflation: an eigenvector x of the trailing block (for a complex pair,
    the real plane [Re x, Im x]) is completed to an orthonormal basis H,
    the trailing rows and columns of T and Q are transformed by H, and the
    part E of T below x's block is set to 0.  A pair whose residual as a
    real vector, |Im lam| |Im x|, is at the rounding level (a double
    eigenvalue split by rounding) deflates as Re x alone, a 1 x 1 block.
    The eigenvectors of the other eigenvalues are carried through each H.
    eig is recomputed where the next one's trailing part has norm below
    1/2 (a defective cluster, whose eigenvectors are nearly parallel), and
    where a carried x would leave ||E|| past 16 eps ||A||_F; past that
    bound with a fresh x, a ConditioningError is raised.
    """
    tri = np.array(a, dtype=float)
    n = tri.shape[0]
    q = np.eye(n)
    tol = 16.0 * np.finfo(float).eps * np.linalg.norm(tri)
    i, vecs = 0, None
    while i < n - 1:
        fresh = vecs is None or np.linalg.norm(vecs[:, 0]) < 0.5
        if fresh:
            vals, vecs = np.linalg.eig(tri[i:, i:])
        x = vecs[:, 0]  # for a pair, vals[1] = conj vals[0]
        pair = vals[0].imag != 0
        k = 1 + (pair and abs(vals[0].imag) * np.linalg.norm(x.imag) > tol / 4)
        h = np.linalg.qr(np.stack([x.real, x.imag][:k], axis=1),
                         mode="complete")[0]
        block = h.T @ tri[i:, i:] @ h  # tri[i:, :i] is 0 already
        below = np.linalg.norm(block[k:, :k])
        if below > tol and not fresh:  # a carried x drifted: ask eig again
            vecs = None
            continue
        if below > tol:
            raise ConditioningError(
                f"real Schur form: {below:.3g} left below a deflated block,"
                f" past {tol:.3g}")
        block[k:, :k] = 0.0
        tri[i:, i:] = block
        tri[:i, i:] = tri[:i, i:] @ h
        q[:, i:] = q[:, i:] @ h
        vals, vecs = vals[k:], (h.T @ vecs[:, k:])[k:]
        if pair and k == 1:  # the conjugate of x is no eigenvector now
            vecs = None
        i += k
    return tri, q


def taylor_table(tri, window: float) -> np.ndarray:
    """(-window T)^k / k! for k <= 16: ``taylor_sum(table, x)`` is
    e^{-x window T}.  With window ||T|| <= 1/2 and |x| <= 1 the remainder
    is below 2^-17/17! < 3e-20 of the sum."""
    table = [np.eye(tri.shape[0])]
    for k in range(1, _TAYLOR_DEGREE + 1):
        table.append(table[-1] @ (-window / k * tri))
    return np.stack(table)


def taylor_sum(table, x) -> np.ndarray:
    """sum_k x[i]^k table[k] for each x[i] of the 1-D ``x``."""
    size, n = table.shape[:2]
    powers = x[:, None] ** np.arange(size)
    return (powers @ table.reshape(size, n * n)).reshape(-1, n, n)


def schur_exp(tri, ts, window: float, table) -> np.ndarray:
    """e^{tT} for each t of the 1-D ``ts``, T quasi-upper-triangular (as
    from ``real_schur``) with window ||T|| <= 1/2 and ``table`` its
    ``taylor_table``.

    The Taylor sum at s = t 2^-j, the least j >= 0 with |s| < window, is
    squared j times; powers of two of one sign above the window share one
    chain of squares.  After each square the diagonal entries of the 1 x 1
    blocks, and the superdiagonal entries between two of them, are reset
    to their closed forms e^{s lam} and s t12 e^{s lam1/2} e^{s lam2/2}
    sinch(s(lam2 - lam1)/2) (Al-Mohy & Higham 2009, Code Fragment 2.1),
    and each 2 x 2 block B of a complex pair mu +- i nu to e^{s mu}(cos(s
    nu) I + sin(s nu)/nu (B - mu I)), as (B - mu I)^2 = -nu^2 I: the
    squarings leave no error there, where close eigenvalues or a rotation
    would put it.  For s a power of two each exponent is exact; e^{s(lam1
    + lam2)/2} would carry the rounding of lam1 + lam2, |s lam| eps
    relative.
    """
    n = tri.shape[0]
    j = np.maximum(0, np.frexp(ts / window)[1])
    base, inv = np.unique(np.ldexp(ts, -j), return_inverse=True)
    top = np.zeros(base.size, int)
    np.maximum.at(top, inv, j)
    mats = taylor_sum(table, -base / window)
    sub = np.diag(tri, -1) != 0
    one = ~(np.append(sub, False) | np.insert(sub, 0, False))
    d, e = np.flatnonzero(one), np.flatnonzero(one[:-1] & one[1:])
    lam = np.diag(tri)
    half = 0.5 * (lam[e + 1] - lam[e])
    # the 2 x 2 blocks [[a, b], [c, d]] at rows i, i + 1 whose computed
    # nu^2 = -(p^2 + bc) is positive: B - mu I is [[p, b], [c, -p]] with
    # p = (a - d)/2
    i = np.flatnonzero(sub)
    p = 0.5 * (lam[i] - lam[i + 1])
    nu2 = -(p * p + tri[i, i + 1] * tri[i + 1, i])
    i, p, nu = i[nu2 > 0], p[nu2 > 0], np.sqrt(nu2[nu2 > 0])
    rows, cols = i[:, None, None] + [[0], [1]], i[:, None, None] + [0, 1]
    shift = tri[rows, cols]
    shift[:, 0, 0], shift[:, 1, 1] = p, -p
    out = np.empty((ts.size, n, n))
    for level in range(int(j.max(initial=0)) + 1):
        live = np.flatnonzero(top >= level)
        m, s = mats[live], np.ldexp(base[live], level)[:, None]
        if level:
            m = m @ m
        m[:, d, d] = np.exp(s * lam[d])
        y = s * half
        sinch = np.divide(np.sinh(y), y, out=np.ones_like(y), where=y != 0)
        m[:, e, e + 1] = (s * tri[e, e + 1] * np.exp(0.5 * s * lam[e])
                          * np.exp(0.5 * s * lam[e + 1]) * sinch)
        if i.size:
            y = (s * nu)[..., None, None]
            m[:, rows, cols] = (np.exp(0.5 * s * lam[i]) * np.exp(
                0.5 * s * lam[i + 1]))[..., None, None] * (
                    np.cos(y) * np.eye(2) + np.sin(y) / nu[:, None, None]
                    * shift)
        mats[live] = m
        now = j == level
        out[now] = mats[inv[now]]
    return out


def mat_exp(a, t: float, guard: float = DEFAULT_EXP_GUARD) -> np.ndarray:
    """e^{tA}: exact closed form on a canonical A, the real Schur form with
    Taylor scaling-and-squaring otherwise (see ``exponential``).

    Relative accuracy is ~1e-12 in the operator norm while
    |t| * ||A|| <= guard (default 50); beyond the guard a RangeError is
    raised instead of risking silent overflow.
    """
    a = check_matrix(a)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    scale = abs(t) * operator_norm(a)
    if scale > guard:
        raise RangeError(
            f"|t|*||A|| = {scale:.6g} exceeds the overflow guard {guard:.6g}"
        )
    return exponential(a, t)


def frob_sq(a) -> float:
    """Sum of squared entries; dominates the squared operator norm."""
    m = check_matrix(a)
    return float(np.sum(m * m))


def numerical_rank(a, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above tol * (largest singular value)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(a)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a UTF-8 JSON document {"rows": [[...], ...]}.

    Rows must be equal-length lists of finite numbers; errors report the
    offending row/column (1-based).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "rows" not in doc:
        raise MatrixFormatError(f"{path}: expected an object with a 'rows' key")
    rows = doc["rows"]
    if not isinstance(rows, list) or not rows:
        raise MatrixFormatError(f"{path}: 'rows' must be a non-empty list")
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise MatrixFormatError(f"{path}: row {i + 1} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixFormatError(
                f"{path}: row {i + 1} has {len(row)} entries, expected {width}"
            )
        for j, val in enumerate(row):
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise MatrixFormatError(
                    f"{path}: row {i + 1}, column {j + 1} is not a number"
                )
            if not math.isfinite(val):
                raise MatrixFormatError(
                    f"{path}: row {i + 1}, column {j + 1} is not finite"
                )
    if len(rows) != width:
        raise MatrixFormatError(
            f"{path}: matrix is {len(rows)}x{width}, expected square"
        )
    return check_matrix(np.array(rows, dtype=float))


def save_matrix(path, a) -> None:
    """Write a matrix in the JSON file format consumed by the CLI."""
    m = check_matrix(a)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": m.tolist()}, fh)
        fh.write("\n")
