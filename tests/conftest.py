"""Shared fixtures and independent oracles.

The scan oracle here deliberately avoids the production solver's
machinery: it evaluates |e^{-tA}v| directly from the per-block
closed-form entries of e^{-tN} on a dense grid, brackets the first sign
change, and bisects on that same direct evaluation.
"""

import math

import numpy as np
import pytest

from heintze.linalg import _canonical_chains


def canonical_norm_sq(a, v, t):
    """|e^{-tA} v|^2 for canonical block-diagonal A, evaluated directly
    from the factorial formula; t may be an array."""
    chains = _canonical_chains(np.asarray(a, dtype=float))
    assert chains is not None, "oracle needs a canonical matrix"
    t = np.asarray(t, dtype=float)
    total = np.zeros(t.shape)
    for lam, size, off in chains:
        block = np.zeros((size,) + t.shape)
        for i in range(size):
            acc = np.zeros(t.shape)
            for q in range(size - i):
                acc += v[off + i + q] * (-t) ** q / math.factorial(q)
            block[i] = acc
        total += np.exp(-2.0 * lam * t) * np.sum(block**2, axis=0)
    return total


def scan_oracle(a, v, step=1e-5, t_lo=None, t_hi=None, chunk=400_000):
    """Smallest t with |e^{-tA}v| = 1 by dense scanning plus bisection."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    assert norm > 0
    if t_lo is None or t_hi is None:
        lams = [lam for lam, _, _ in _canonical_chains(np.asarray(a, float))]
        lo_guess = math.log(norm) / max(lams) - 5.0
        hi_guess = math.log(norm) / min(lams) + 5.0
        while canonical_norm_sq(a, v, np.array([lo_guess]))[0] <= 1.0:
            lo_guess -= 5.0
        while canonical_norm_sq(a, v, np.array([hi_guess]))[0] > 1.0:
            hi_guess += 5.0
        t_lo = t_lo if t_lo is not None else lo_guess
        t_hi = t_hi if t_hi is not None else hi_guess
    start = t_lo
    bracket = None
    while start < t_hi and bracket is None:
        stop = min(start + chunk * step, t_hi)
        grid = np.arange(start, stop + step, step)
        vals = canonical_norm_sq(a, v, grid)
        below = vals <= 1.0
        if below.any():
            j = int(np.argmax(below))
            assert j > 0 or start == t_lo
            if j == 0:
                return grid[0]
            bracket = (grid[j - 1], grid[j])
        start = stop
    assert bracket is not None, "oracle found no sign change"
    lo, hi = bracket
    for _ in range(100):
        if hi - lo <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        if canonical_norm_sq(a, v, np.array([mid]))[0] > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_roots(a, v, step=1e-5, t_lo=-30.0, t_hi=40.0):
    """All sign changes of |e^{-tA}v| - 1 on a dense grid (for corpus
    construction): list of refined roots, ascending."""
    grid = np.arange(t_lo, t_hi, step)
    vals = canonical_norm_sq(a, v, grid) - 1.0
    sign = np.sign(vals)
    idx = np.where(np.diff(sign) != 0)[0]
    roots = []
    for j in idx:
        lo, hi = grid[j], grid[j + 1]
        flo = vals[j]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = canonical_norm_sq(a, v, np.array([mid]))[0] - 1.0
            if (fm > 0) == (flo > 0):
                lo = mid
                flo = fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
