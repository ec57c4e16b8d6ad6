"""Eigenstructure, real-part Jordan forms and the quasiisometry verdict.

Jordan structure is discontinuous in the matrix entries, so everything
here is computed at a declared resolution: eigenvalues are merged into
clusters at a relative tolerance and block sizes are read off a
numerical rank sequence.  The reported form is the structure visible at
that resolution, not a symbolic decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConditioningError, HypothesisViolationError
from .linalg import DEFAULT_RANK_TOL, check_matrix, jordan_block

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


def _merge_transitive(values, tol):
    """Union-find merge of eigenvalues closer than tol*(1 + mean scale)."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            radius = tol * (1.0 + 0.5 * (abs(values[i]) + abs(values[j])))
            if abs(values[i] - values[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(values[i])
    return list(groups.values())


def eigen_clusters(a, cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """Backward-stable eigenvalues of A merged into clusters.

    Non-real clusters come in conjugate pairs of equal multiplicity
    (guaranteed by the real eigensolver plus a symmetry check).
    """
    a = check_matrix(a)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    try:
        raw = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"eigensolver failed to converge on {a.tolist()}"
        ) from exc
    groups = _merge_transitive(list(raw), cluster_tol)
    clusters = []
    for members in groups:
        mean = complex(np.mean(members))
        if abs(mean.imag) <= cluster_tol * (1.0 + abs(mean)):
            mean = complex(mean.real, 0.0)
        clusters.append(EigenCluster(mean, len(members), tuple(members)))
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    for c in clusters:
        if c.value.imag != 0.0:
            conj = [
                d
                for d in clusters
                if abs(d.value - c.value.conjugate())
                <= cluster_tol * (1.0 + abs(c.value))
            ]
            if not conj or conj[0].multiplicity != c.multiplicity:
                raise ConditioningError(
                    "complex clusters are not conjugate-symmetric; "
                    "increase cluster_tol"
                )
    return clusters


def _block_sizes(a, cluster: EigenCluster, rank_tol: float):
    """Block sizes of one cluster from the rank sequence of (A - lam I)^k.

    The rank threshold for the k-th power is anchored to
    ||A - lam I||^k: a fully nilpotent power is rounding noise whose own
    largest singular value would make a same-matrix-relative threshold
    meaningless.
    """
    n = a.shape[0]
    lam = cluster.value
    base = a.astype(complex) - lam * np.eye(n)
    scale = float(np.linalg.norm(base, 2))
    counts = []  # counts[k-1] = number of blocks of size >= k
    power = np.eye(n, dtype=complex)
    prev_nullity = 0
    for k in range(1, cluster.multiplicity + 1):
        power = power @ base
        sigma = np.linalg.svd(power, compute_uv=False)
        rank = int(np.count_nonzero(sigma > rank_tol * scale**k))
        nullity = n - rank
        c = nullity - prev_nullity
        if c < 0 or (counts and c > counts[-1]):
            raise ConditioningError(
                "non-monotone rank sequence while resolving Jordan structure; "
                "try a larger tolerance"
            )
        if c == 0:
            break
        counts.append(c)
        prev_nullity = nullity
    if sum(counts) != cluster.multiplicity:
        raise ConditioningError(
            f"rank sequence accounts for {sum(counts)} of "
            f"{cluster.multiplicity} eigenvalues near {lam}; "
            "try a larger tolerance"
        )
    counts.append(0)
    sizes = []
    for k in range(1, len(counts)):
        sizes.extend([k] * (counts[k - 1] - counts[k]))
    return sizes


def real_part_jordan_form(
    a,
    tol: float = DEFAULT_CLUSTER_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> RealPartJordanForm:
    """The classification invariant of A.

    Eigenvalues are clustered at relative tolerance ``tol``; each
    cluster's block sizes come from the numerical ranks of
    (A - lam I)^k; conjugate pairs are folded into two copies of each
    block at the shared real part.  All real parts must exceed ``tol``.
    """
    a = check_matrix(a)
    clusters = eigen_clusters(a, tol)
    for c in clusters:
        if c.value.real <= tol:
            raise HypothesisViolationError(
                f"eigenvalue {c.value:.6g} has real part <= {tol:.3g}; "
                "the positive-real-part hypothesis fails"
            )
    blocks = []
    for c in clusters:
        if c.value.imag < 0.0:
            continue  # handled together with the conjugate cluster
        sizes = _block_sizes(a, c, rank_tol)
        copies = 2 if c.value.imag > 0.0 else 1
        for size in sizes:
            for _ in range(copies):
                blocks.append((float(c.value.real), size))
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
