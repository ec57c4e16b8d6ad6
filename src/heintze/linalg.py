"""Dense real linear algebra used by every other module.

A "matrix" throughout the package is a square, finite, real float64
ndarray; ``check_matrix`` is the single validation gate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (ConditioningError, HypothesisViolationError,
                     MatrixFormatError, RangeError)

DEFAULT_EXP_GUARD = 50.0
DEFAULT_RANK_TOL = 1e-9


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
    N^k / k!, from math.exp and ``_taylor_terms``; otherwise Q S e^{tD}
    S^-1 Q^T from the decoupled real Schur form (``schur_clusters``), one
    closed form per cluster.
    """
    ts = np.asarray(t, dtype=float)
    if chains is None:
        chains = _canonical_chains(a)
    if chains is None:
        return schur_clusters(a).exp(ts.ravel()).reshape(ts.shape + a.shape)
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
    Each eigenvalue after the first is the one nearest the last, so close
    eigenvalues fill adjacent blocks.  The other eigenvectors are carried
    through each H; eig is recomputed where the next one's trailing part
    has norm below 1/2 (a defective cluster) or leaves ||E|| past 16 eps
    ||T_i||_F, T_i the trailing block, which keeps the slow blocks of a
    stiff A accurate to their own scale.  Of fresh ones, the next nearest
    is tried past 16 eps ||A||_F, and a ConditioningError is raised where
    all are.
    """
    tri = np.array(a, dtype=float)
    n = tri.shape[0]
    q = np.eye(n)
    unit = 16.0 * np.finfo(float).eps
    tol = unit * np.linalg.norm(tri)
    i, vecs, last = 0, None, None
    while i < n - 1:
        fresh = vecs is None
        if fresh:
            vals, vecs = np.linalg.eig(tri[i:, i:])
        up = np.flatnonzero(vals.imag >= 0)  # a pair's conjugate is next
        if last is not None:  # nearest the last deflated first
            up = up[np.argsort(np.abs(vals[up] - complex(
                last.real, abs(last.imag))), kind="stable")]
        for j in up[:None if fresh else 1]:
            x, pair = vecs[:, j], vals[j].imag != 0
            k = 1 + (pair and abs(vals[j].imag) * np.linalg.norm(x.imag)
                     > tol / 4)
            h = np.linalg.qr(np.stack([x.real, x.imag][:k], axis=1),
                             mode="complete")[0]
            block = h.T @ tri[i:, i:] @ h  # tri[i:, :i] is 0 already
            below = np.linalg.norm(block[k:, :k])
            if below <= tol:
                break
        if not fresh and (np.linalg.norm(x) < 0.5 or below > unit
                          * np.linalg.norm(tri[i:, i:])):
            vecs = None  # a carried x drifted: ask eig again
            continue
        if below > tol:
            raise ConditioningError(
                f"real Schur form: {below:.3g} left below a deflated block,"
                f" past {tol:.3g}")
        block[k:, :k] = 0.0
        tri[i:, i:] = block
        tri[:i, i:] = tri[:i, i:] @ h
        q[:, i:] = q[:, i:] @ h
        rest = [m for m in range(len(vals)) if not j <= m < j + k]
        last, vals, vecs = vals[j], vals[rest], (h.T @ vecs[:, rest])[k:]
        if pair and k == 1:  # the conjugate of x is no eigenvector now
            vecs = None
        i += k
    return tri, q


# a cluster splits from the blocks after it where the Sylvester solution
# that decouples them has norm at most this; else it takes the next block
_DECOUPLE = 100.0
# Taylor terms of a divided difference of exp at points in the unit disc
_DD_TERMS = 20


class _Cluster(NamedTuple):
    """Rows ``lo:hi`` of T = S D S^-1, with e^{-tT_c} = e^{-mu t} sum_p
    c_p(t) ``basis[p]`` on its block T_c (mu: the mean real part of its
    eigenvalues) and the c_p closed forms by ``kind``: "one" (1 x 1): 1;
    "pair" ([[mu - h, b], [0, mu + h]], ``data`` [h]): e^{th}, e^{-th} and
    the sinch form -t sinh(th)/(th) on b; "rot" (mu +- i nu, ``data``
    [nu]): cos(nu t) on I, -sin(nu t)/nu on T_c - mu I; "newton" (``data``
    the ``_dd_table`` of d = l - mu, l the eigenvalues): Newton's form
    sum_p f[l_0..l_p] prod_{q<p} (T_c - l_q I) of f(l) = e^{-t(l - mu)},
    c_p = (-t)^p e[x_0..x_p] at x = -t d (``_exp_divided_differences``)."""

    lo: int
    hi: int
    kind: str
    mu: float
    data: np.ndarray
    basis: np.ndarray

    def coefficients(self, t) -> np.ndarray:
        """The (p, m) c_p(t) for the 1-D t."""
        if self.kind == "one":
            return np.ones((1, t.size))
        if self.kind == "newton":
            return _exp_divided_differences(-t, self.data)
        x = t * self.data[0]
        if self.kind == "pair":
            sinch = np.divide(np.sinh(x), x, out=np.ones_like(x),
                              where=x != 0)
            return np.stack([np.exp(x), np.exp(-x), -t * sinch])
        return np.stack([np.cos(x), -np.sin(x) / self.data[0]])


def _cluster(block, lo) -> _Cluster:
    """The ``_Cluster`` of the quasi-triangular ``block`` at row ``lo``."""
    k = len(block)
    mu = 0.5 * (block[0, 0] + block[-1, -1])
    shift = block - mu * np.eye(k)
    nu2 = -(shift[0, 0] ** 2 + block[0, 1] * block[1, 0]) if k == 2 else 0
    if k == 1:
        return _Cluster(lo, lo + 1, "one", mu, None, np.ones((1, 1, 1)))
    if k == 2 and block[1, 0] == 0:
        return _Cluster(lo, lo + 2, "pair", mu, shift[1, 1:], np.stack([
            np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), block * np.eye(2, k=1)]))
    if nu2 > 0:
        return _Cluster(lo, lo + 2, "rot", mu, np.array([math.sqrt(nu2)]),
                        np.stack([np.eye(2), shift]))
    lam = np.linalg.eigvals(block)  # its diagonal blocks', in their order
    lam = lam if lam.imag.any() else lam.real
    basis = [np.eye(k)]
    for x in lam[:-1]:
        basis.append(basis[-1] @ (block - x * np.eye(k)))
    mu = float(np.mean(lam.real))
    return _Cluster(lo, lo + k, "newton", mu, _dd_table(lam - mu),
                    np.stack(basis))


def _dd_table(d) -> np.ndarray:
    """c[i, j, k + j - i] = h_k(d_i..d_j) / (k + j - i)! for i <= j and
    k < 20, h_k the complete homogeneous symmetric sums, so that y^{j - i}
    e[y d_i..y d_j] = sum_k c[i, j, k] y^k where |y d| < 1: each term is at
    most 1/(k! (j - i)!) and the sum at least 1/(e (j - i)!) in size."""
    m = len(d)
    inv = _taylor_terms(1.0, _DD_TERMS + m)  # 1/k!
    table = np.zeros((m, m, _DD_TERMS + m), d.dtype)
    for i in range(m):
        h = np.zeros(_DD_TERMS, d.dtype)
        h[0] = 1.0
        for j in range(i, m):
            for k in range(1, _DD_TERMS):
                h[k] += d[j] * h[k - 1]
            table[i, j, j - i:j - i + _DD_TERMS] = h * inv[
                j - i:j - i + _DD_TERMS]
    return table


def _exp_divided_differences(tau, table) -> np.ndarray:
    """The (m, r) tau^p e[x_0..x_p] for each p at x = tau d, per entry of
    the 1-D tau, from ``table`` = ``_dd_table(d)`` (McCurdy, Ng & Parlett
    1984): the first row of e^Z for the Opitz matrix Z = tau (diag(d) + N).
    With s the least such that |x| < 2^s and y = tau 2^-s, e^{Z 2^-s} has
    entries y^{j - i} e[y d_i..y d_j], by Horner's rule on the table; s
    squarings give e^Z."""
    s = np.maximum(0, np.frexp(np.abs(tau) * np.abs(np.diagonal(
        table[:, :, 1])).max())[1])  # table[i, i, 1] = d_i
    y = tau * np.ldexp(1.0, -s)
    table = table if s.any() else table[:1]  # no squaring: row 0 suffices
    e = table[:, :, -1, None] * y
    for k in range(table.shape[2] - 2, 0, -1):
        e = (e + table[:, :, k, None]) * y
    e = np.moveaxis(e + table[:, :, 0, None], -1, 0)
    for level in range(s.max(initial=0)):
        on = s > level
        e[on] = e[on] @ e[on]
    return e[:, 0].T


def _sylvester(t11, t22, c, edges) -> np.ndarray:
    """Y with t11 Y - Y t22 = c, t22 quasi-triangular with blocks at
    ``edges``: Bartels & Stewart's sweep, one Kronecker solve per block."""
    p, y = len(t11), np.zeros_like(c)
    for lo, hi in zip(edges, edges[1:]):
        k = hi - lo  # op = kron(I_k, t11) - kron(t22_bb^T, I_p)
        rhs = c[:, lo:hi] + y[:, :lo] @ t22[:lo, lo:hi]
        op = (np.eye(k)[:, None, :, None] * t11[:, None]
              - t22[lo:hi, lo:hi].T[:, None, :, None] * np.eye(p)[:, None])
        y[:, lo:hi] = np.linalg.solve(op.reshape(k * p, k * p),
                                      rhs.T.ravel()).reshape(k, p).T
    return y


class SchurClusters(NamedTuple):
    """A = Q T Q^T (``real_schur``, ``edges`` bounding T's diagonal
    blocks) and T = S D S^-1: D the direct sum of the ``clusters``' blocks,
    S = prod [[I, Y], [0, I]], Y solving T_ii Y - Y T_jj = -T_ij to decouple
    a cluster, the fewest leading blocks with ||Y|| <= 100, from the blocks
    after it (Bavely & Stewart 1979; Davies & Higham 2003)."""

    q: np.ndarray
    tri: np.ndarray
    s: np.ndarray
    s_inv: np.ndarray
    edges: list
    clusters: tuple

    def exp(self, ts) -> np.ndarray:
        """e^{tA} for each t of the 1-D ``ts``: Q (S e^{tD} S^-1) Q^T."""
        mid = np.zeros((ts.size,) + self.tri.shape)
        for c in self.clusters:
            block = np.einsum("pt,pij->tij", c.coefficients(-ts), c.basis)
            mid[:, c.lo:c.hi, c.lo:c.hi] = (np.exp(c.mu * ts)[:, None, None]
                                            * block.real)
        return self.q @ (self.s @ mid @ self.s_inv) @ self.q.T


def schur_clusters(a) -> SchurClusters:
    """The decoupled real Schur form of A (see ``SchurClusters``)."""
    tri, q = real_schur(a)
    n = len(tri)
    # a block edge at every i but the middle of a 2 x 2 block
    edges = [i for i in range(n + 1) if i in (0, n) or tri[i, i - 1] == 0]
    s, s_inv, clusters, i = np.eye(n), np.eye(n), [], 0
    while i < len(edges) - 1:
        for j in range(i + 1, len(edges)):
            lo, hi = edges[i], edges[j]
            if hi == n:
                break
            try:
                with np.errstate(all="ignore"):
                    y = _sylvester(tri[lo:hi, lo:hi], tri[hi:, hi:],
                                   -tri[lo:hi, hi:],
                                   [e - hi for e in edges[j:]])
            except np.linalg.LinAlgError:  # an eigenvalue shared
                continue
            if np.linalg.norm(y) <= _DECOUPLE:  # False if not finite
                s[:, hi:] += s[:, lo:hi] @ y
                s_inv[lo:hi] -= y @ s_inv[hi:]
                break
        clusters.append(_cluster(tri[lo:hi, lo:hi], lo))
        i = j
    return SchurClusters(q, tri, s, s_inv, edges, tuple(clusters))


def mat_exp(a, t: float, guard: float = DEFAULT_EXP_GUARD) -> np.ndarray:
    """e^{tA}: exact closed form on a canonical A, the decoupled real Schur
    form's cluster closed forms otherwise (see ``exponential``).

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


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a UTF-8 JSON document {"rows": [[...], ...]}.

    Rows must be equal-length lists of finite numbers; errors report the
    offending row/column (1-based).
    """
    import json  # here, so that only a program reading files loads it

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
    import json

    m = check_matrix(a)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": m.tolist()}, fh)
        fh.write("\n")
