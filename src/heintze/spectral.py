"""Eigenstructure, real-part Jordan forms and the quasiisometry verdict.

Jordan structure is discontinuous in the matrix entries, so everything
here is computed at a declared resolution: eigenvalues are merged into
clusters no finer than a relative tolerance, and block sizes are read
off the staircase of numerical ranks of A - mu I at each cluster's mu.
The reported form is the structure visible at that resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConditioningError
from .linalg import (DEFAULT_RANK_TOL, check_hypothesis, check_matrix,
                     jordan_block)

DEFAULT_CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class EigenCluster:
    """A merged group of numerically indistinguishable eigenvalues."""

    value: complex
    multiplicity: int
    members: tuple


@dataclass(frozen=True)
class RealPartJordanForm:
    """Canonical list of (real-part eigenvalue, block size) pairs.

    Blocks are sorted ascending by eigenvalue, then descending by size,
    so structural equality of two forms is plain tuple equality.
    """

    blocks: tuple  # of (lambda, size)
    n: int

    def __post_init__(self):
        if self.n != sum(s for _, s in self.blocks):
            raise ValueError("block sizes must sum to the dimension")
        for lam, size in self.blocks:
            if lam <= 0 or size < 1:
                raise ValueError("blocks must have positive lambda and size")

    @property
    def lambda_min(self) -> float:
        return self.blocks[0][0]

    def as_lists(self):
        return [[lam, size] for lam, size in self.blocks]


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of the boundary quasiisometry-equivalence decision."""

    equivalent: bool
    scale: Optional[float]
    form_a: RealPartJordanForm
    form_b: RealPartJordanForm
    min_gap: Optional[float]

    def to_json_dict(self):
        return {
            "equivalent": self.equivalent,
            "scale": self.scale,
            "form_a": self.form_a.as_lists(),
            "form_b": self.form_b.as_lists(),
            "min_gap": self.min_gap,
        }


def _components(near):
    """Index arrays of the connected components of the graph ``near``."""
    free, comps = np.ones(len(near), bool), []
    for i in range(len(near)):
        if free[i]:
            free[i], comp, k = False, [i], 0
            while k < len(comp):  # breadth-first, O(n) per vertex
                new = np.flatnonzero(near[comp[k]] & free)
                free[new] = False
                comp.extend(new)
                k += 1
            comps.append(np.sort(comp))
    return comps


def _block_sizes(a, mu, m, rank_tol):
    """Block sizes of the m eigenvalues of A at mu (a non-real mu: complex
    arithmetic), read off the staircase of M = A - mu I, or None where it
    does not account for all m (Kagstrom & Ruhe 1980).

    Each step counts the singular values of M at most tau = rank_tol
    ||A - mu I|| (at least the rounding floor 16 eps ||A||_F) and
    compresses M onto the complement of their right singular vectors; the
    counts are the numbers of blocks of size >= 1, 2, ... (Golub &
    Wilkinson 1976).  One linear threshold per step is a backward error
    on A: thresholds on the powers M^k would pass an eigenvalue as far as
    tau^(1/k) from mu.
    """
    mu = mu if mu.imag else mu.real
    base = a - mu * np.eye(len(a))
    tau = 16.0 * np.finfo(float).eps * np.linalg.norm(a)
    null, counts = 0, [m]  # counts[k]: blocks of size >= k
    while null < m:
        _, sigma, vt = np.linalg.svd(base)
        if len(counts) == 1:  # sigma[0] = ||A - mu I||
            tau = max(rank_tol * sigma[0], tau)
        keep = int(np.count_nonzero(sigma > tau))
        counts.append(len(sigma) - keep)
        null += counts[-1]
        if not 0 < counts[-1] <= counts[-2] or null > m:
            return None
        base = vt[:keep] @ base @ vt[:keep].conj().T
    return [sum(c > i for c in counts[1:]) for i in range(counts[1])]


def _resolve(a, tol, rank_tol, hypothesis=False):
    """[(mu, members, sizes)] for each real eigenvalue cluster of A and
    each one above the real axis (its conjugate mirrors it).

    Rounding splits a size-m block's eigenvalue by about (eps ||A||)^(1/m)
    (Lidskii; Moro, Burke & Overton 1997), so a group of m is merged as a
    connected component of the eigenvalues closer than r_m = 10 (eps
    ||A||)^(1/m) max(1, ||A||) or than tol (1 + |lambda|), and kept where
    the staircase of A - mu I at its mean mu accounts for all m
    (``_block_sizes``); otherwise it is split again at r_(m-1).  With
    ``hypothesis``, every real part must exceed ``tol`` first.  A ValueError
    is raised unless tol > 0 and 0 < rank_tol < 1 (NaN is neither).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, not {tol!r}")
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank_tol must lie in (0, 1), not {rank_tol!r}")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"eigensolver failed to converge on {a.tolist()}") from exc
    if hypothesis:
        check_hypothesis(vals, tol)
    norm = float(np.linalg.norm(a, 2))
    gaps = np.abs(vals[:, None] - vals)
    relative = tol * (1.0 + 0.5 * (np.abs(vals[:, None]) + np.abs(vals)))

    def radius(m):  # r_m, Lidskii's splitting radius
        eps = np.finfo(float).eps
        return 10.0 * (eps * norm) ** (1.0 / m) * max(1.0, norm)

    out, todo = [], [(np.arange(len(vals)), len(vals))]
    while todo:
        idx, m = todo.pop()
        tested = len(idx) > m  # idx failed the ranks at a larger radius
        sub = np.ix_(idx, idx)
        for comp in _components(gaps[sub] <= np.maximum(relative[sub],
                                                        radius(m))):
            members = vals[idx[comp]]
            mu = complex(np.mean(members))
            if np.any(members == np.conj(members[0])):
                mu = complex(mu.real, 0.0)  # a self-conjugate component
            elif mu.imag < 0:
                continue
            if len(comp) == 1:
                out.append((mu, tuple(members), [1]))
            elif len(comp) < m:
                todo.append((idx[comp], len(comp)))
            elif (len(comp) < len(idx) or not tested) and (
                    sizes := _block_sizes(a, mu, len(comp), rank_tol)):
                out.append((mu, tuple(members), sizes))
            elif m > 1:
                todo.append((idx[comp], m - 1))
            else:
                raise ConditioningError(
                    f"the ranks of A - ({mu:.6g}) I do not resolve the "
                    f"{len(comp)} eigenvalues near it; try a larger rank_tol")
    return out


def eigen_clusters(a, cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """Eigenvalues of A merged into clusters, sorted by (real, imag): the
    groups whose Jordan structure resolves (see ``real_part_jordan_form``).
    Non-real clusters come in conjugate pairs of equal multiplicity.

    Each group of two or more eigenvalues costs one SVD of A - mu I per
    step of its staircase; a ConditioningError is raised where the ranks
    do not resolve the group.
    """
    clusters = []
    for mu, members, _ in _resolve(check_matrix(a), cluster_tol,
                                   DEFAULT_RANK_TOL):
        clusters.append(EigenCluster(mu, len(members), members))
        if mu.imag:
            clusters.append(EigenCluster(mu.conjugate(), len(members),
                                         tuple(np.conj(members))))
    return sorted(clusters, key=lambda c: (c.value.real, c.value.imag))


def real_part_jordan_form(
    a,
    tol: float = DEFAULT_CLUSTER_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> RealPartJordanForm:
    """The classification invariant of A.

    Eigenvalues are merged into clusters no finer than the relative
    ``tol``; each cluster's block sizes come from the staircase ranks, at
    ``rank_tol``, of A - mu I (see ``_resolve``); conjugate pairs are
    folded into two copies of each block at the shared real part.  All
    real parts must exceed ``tol``.
    """
    a = check_matrix(a)
    blocks = [(mu.real, size)
              for mu, _, sizes in _resolve(a, tol, rank_tol, hypothesis=True)
              for size in sizes for _ in range(2 if mu.imag else 1)]
    blocks.sort(key=lambda b: (b[0], -b[1]))
    return RealPartJordanForm(tuple(blocks), a.shape[0])


def canonical_matrix(form: RealPartJordanForm) -> np.ndarray:
    """Block-diagonal matrix realizing the form (lam I + N per block)."""
    mats = [jordan_block(lam, size) for lam, size in form.blocks]
    out = np.zeros((form.n, form.n))
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos : pos + k, pos : pos + k] = m
        pos += k
    return out


def _min_relative_gap(forms):
    gaps = []
    for form in forms:
        lams = sorted(set(lam for lam, _ in form.blocks))
        for x, y in zip(lams, lams[1:]):
            gaps.append(abs(y - x) / (abs(x) + abs(y)))
    return min(gaps) if gaps else None


def classify(
    a,
    b,
    tol: float = DEFAULT_CLUSTER_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> ClassificationResult:
    """Decide whether (R^n, D_A) and (R^n, D_B) are quasisymmetric.

    The verdict is positive iff A and s*B have the same real-part Jordan
    form for the candidate scale s = lambda_min(A) / lambda_min(B):
    block sizes must match in canonical order and every eigenvalue pair
    must satisfy |lam_i - s*mu_i| <= tol * (lam_i + s*mu_i).  Symmetric
    in (A, B); the scale inverts.
    """
    a = check_matrix(a)
    b = check_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    form_a = real_part_jordan_form(a, tol, rank_tol)
    form_b = real_part_jordan_form(b, tol, rank_tol)
    s = form_a.lambda_min / form_b.lambda_min
    equivalent = len(form_a.blocks) == len(form_b.blocks)
    if equivalent:
        for (la, sa), (lb, sb) in zip(form_a.blocks, form_b.blocks):
            if sa != sb or abs(la - s * lb) > tol * (la + s * lb):
                equivalent = False
                break
    return ClassificationResult(
        equivalent=equivalent,
        scale=s if equivalent else None,
        form_a=form_a,
        form_b=form_b,
        min_gap=_min_relative_gap([form_a, form_b]),
    )
