"""Shared fixtures and the exact root oracle.

``_Exact`` is the one oracle the root tests compare canonical spaces
against.  It evaluates g(t) = log|e^{-tA}v| at mpmath's working precision
(the tests use 50 digits) from the closed form of e^{-tN} on each chain,
so it shares none of the solver's machinery.  Its roots are certified: g
is monotone between its critical points, the real zeros of P' - 2 lam P
(P = |e^{-tN}v|^2 summed over chains of one eigenvalue lam), and where
the chains have several eigenvalues every chain clears the radius
cos(pi/(s+1)) of its numerical range, so g' < 0 everywhere.  So each
monotone piece holds at most one root, and a piece whose ends differ in
sign holds exactly one.  A grid scan could step over a dip narrower than
its step and prove nothing about earlier roots.
"""

import numpy as np
import pytest
import scipy.linalg

from heintze.linalg import _canonical_chains, jordan_block


def _crossing(g, lo, hi):
    """The zero of g on [lo, hi], where g is monotone and changes sign."""
    mp = g.mp
    root = mp.findroot(g, (lo, hi), solver="anderson")
    eps = mp.mpf(10) ** -40
    assert (g(root - eps) > 0) != (g(root + eps) > 0)
    return root


class _Exact:
    """g(t) = log|e^{-tA}v| for canonical chains [(lam, size), ...] at the
    working precision of ``mp``, from the closed form of e^{-tN} on each
    chain."""

    def __init__(self, mp, chains, v):
        self.mp = mp
        self.chains = chains
        self.terms = []  # (lam, ascending coefficients of the chain's |.|^2)
        off = 0
        for lam, size in chains:
            p = [mp.mpf(0)] * (2 * size - 1)
            for i in range(size):
                c = [mp.mpf(float(v[off + i + q])) * (-1) ** q
                     / mp.factorial(q) for q in range(size - i)]
                for q1, c1 in enumerate(c):
                    for q2, c2 in enumerate(c):
                        p[q1 + q2] += c1 * c2
            self.terms.append((mp.mpf(lam), p))
            off += size

    @classmethod
    def of(cls, mp, a, v):
        """The oracle of a canonical matrix, read by ``_canonical_chains``."""
        chains = _canonical_chains(np.asarray(a, dtype=float))
        assert chains is not None, "the oracle needs a canonical matrix"
        return cls(mp, [(lam, size) for lam, size, _ in chains], v)

    def __call__(self, t):
        mp = self.mp
        t = mp.mpf(t)
        return mp.log(sum(mp.exp(-2 * lam * t) * mp.polyval(p[::-1], t)
                          for lam, p in self.terms)) / 2

    def critical_points(self):
        """Real zeros of g' when every chain has one eigenvalue: zeros of
        P' - 2 lam P for the summed polynomial P."""
        mp = self.mp
        lams = {lam for lam, _ in self.terms}
        if len(lams) > 1:
            # g' = -<Aw, w>/|w|^2, and the numerical range of lam I + N_s
            # is the disc of radius cos(pi/(s+1)) about lam
            assert all(lam > mp.cos(mp.pi / (s + 1))
                       for lam, s in self.chains), "g' < 0 is not certified"
            return []
        lam = lams.pop()
        width = max(len(p) for _, p in self.terms)
        p = [sum(q[k] for _, q in self.terms if k < len(q))
             for k in range(width)]
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        d = [(k + 1) * p[k + 1] - 2 * lam * p[k] for k in range(len(p) - 1)]
        d.append(-2 * lam * p[-1])
        if len(d) < 2:
            return []
        top = max(abs(c) for c in d)  # Durand-Kerner from numpy's roots
        start = np.roots([float(c / top) for c in d[::-1]])
        roots = mp.polyroots(d[::-1], maxsteps=200, extraprec=200,
                             roots_init=[complex(z) for z in start])
        return sorted(mp.re(z) for z in roots if abs(mp.im(z)) < 1e-30)

    def sign_changes(self):
        signs = [True, *(self(c) > 0 for c in self.critical_points()), False]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def roots(self, t_lo, t_hi):
        """The zeros of g on [t_lo, t_hi], ascending: one per monotone
        piece between critical points whose ends differ in sign (g > 0
        against g <= 0)."""
        lo, hi = self.mp.mpf(t_lo), self.mp.mpf(t_hi)
        ends = [lo, *(c for c in self.critical_points() if lo < c < hi), hi]
        return [_crossing(self, lo, hi) for lo, hi in zip(ends, ends[1:])
                if (self(lo) > 0) != (self(hi) > 0)]

    def smallest_root(self):
        """g is monotone between critical points, positive far left and
        negative far right: the first piece whose right end has g <= 0
        holds the smallest root."""
        crit = self.critical_points()
        lo = (crit[0] if crit else self.mp.mpf(0)) - 1
        while self(lo) <= 0:
            lo -= 1
        for hi in crit:
            if self(hi) <= 0:
                return _crossing(self, lo, hi)
            lo = hi
        hi = lo + 1
        while self(hi) > 0:
            hi += 1
        return _crossing(self, lo, hi)


@pytest.fixture(scope="session")
def adversarial_corpus():
    """50 canonical (A, v), each with at least 3 roots of g in [-25, 45]
    that lie at least 0.05 apart (criterion 8's corpus)."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(808)
    cases = [(np.array([[0.3, 1.0], [0.0, 0.3]]), np.array([0.1, 1.0]))]
    structures = [
        (0.30, (2,)), (0.35, (3,)), (0.25, (2, 2)), (0.40, (2, 1)),
        (0.30, (4,)), (0.45, (3, 1)), (0.35, (2, 1, 1)), (0.28, (4,)),
    ]
    attempts = 0
    with mp.workdps(50):
        while len(cases) < 50 and attempts < 4000:
            attempts += 1
            lam_base, sizes = structures[int(rng.integers(len(structures)))]
            lam = float(lam_base * rng.uniform(0.8, 1.2))
            a = scipy.linalg.block_diag(*[jordan_block(lam, s) for s in sizes])
            v = rng.uniform(-3, 3, a.shape[0])
            if np.linalg.norm(v) < 0.2:
                continue
            # multi-root screen
            g = _Exact.of(mp, a, v)
            if g.sign_changes() < 3:
                continue
            roots = g.roots(-25.0, 45.0)
            if len(roots) < 3 or min(np.diff(roots)) < 0.05:
                continue
            cases.append((a, v))
    assert len(cases) == 50, "corpus construction fell short"
    return cases


class Marched(Exception):
    pass


def no_march(*args):
    """A stand-in for ``metric._march`` that fails the batch that calls it."""
    raise Marched


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
