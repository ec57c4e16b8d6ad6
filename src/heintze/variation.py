"""Q-variation packing experiments.

A packing of a box E by the images of integral unit cubes under e^{tA}
is found in the preimage: lattice cells [z, z+1)^n (half-open, so the
packing is genuinely disjoint) that meet the closed parallelotope
e^{-tA}(E).  They form one run per row of cells, found by one sweep:
``count_cells`` sums the runs' lengths, ``enumerate_packing`` lists them.
Oscillations of linear functionals over the image cells are exact
closed forms, so V_Q = (cell count) * osc^Q needs no sampling.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError
from .linalg import _canonical_chains, check_matrix, check_vector, exponential

DEFAULT_MAX_CELLS = 10_000_000


@dataclass(frozen=True, eq=False)
class PackingSpec:
    """One packing instance: canonical matrix, scale t, target box, cap.

    ``chains`` is derived: the (lam, size, offset) Jordan chains of a."""

    a: np.ndarray
    t: float
    box: np.ndarray  # shape (2, n): rows are the lower/upper corners
    max_cells: int = DEFAULT_MAX_CELLS
    chains: tuple = field(init=False, repr=False)

    def __post_init__(self):
        a = check_matrix(self.a)
        chains = _canonical_chains(a)
        if chains is None:
            raise ValueError(
                "packing matrix must be in canonical real-part Jordan form"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "chains", tuple(chains))
        box = np.asarray(self.box, dtype=float)
        if box.shape != (2, a.shape[0]):
            raise ValueError(f"box must have shape (2, {a.shape[0]})")
        if not np.all(np.isfinite(box)) or not np.all(box[1] > box[0]):
            raise ValueError("box must be non-degenerate (upper > lower)")
        object.__setattr__(self, "box", box)
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if self.max_cells < 1:
            raise ValueError("max_cells must be positive")

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class TestFunction:
    """A linear functional on R^n (the only oscillation-exact choice)."""

    __test__ = False  # not a pytest class, despite the name

    vector: tuple

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)) or not np.any(v != 0):
            raise ValueError("functional must be a finite nonzero vector")
        object.__setattr__(self, "vector", tuple(float(x) for x in v))

    @classmethod
    def coordinate(cls, n: int, index: int) -> "TestFunction":
        if not 0 <= index < n:
            raise ValueError(f"coordinate index {index} out of range for n={n}")
        v = np.zeros(n)
        v[index] = 1.0
        return cls(tuple(v))

    @classmethod
    def from_vector(cls, ell) -> "TestFunction":
        return cls(tuple(np.asarray(ell, dtype=float)))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vector)


@dataclass(frozen=True)
class VariationRow:
    t: float
    q: float
    cells: int
    value: float


@dataclass(frozen=True)
class ExponentFit:
    q: float
    slope: float
    predicted: float
    residual: float
    classification: str


@dataclass(frozen=True)
class VariationReport:
    rows: tuple
    fits: tuple
    correction_note: str


def volume_estimate(spec: PackingSpec) -> float:
    """Expected cell count e^{-t tr(A)} * Vol(box) (volume scaling of e^{tA});
    inf where it leaves the float range, so that the cap still reports."""
    vol = float(np.prod(spec.box[1] - spec.box[0]))
    try:
        return math.exp(-spec.t * float(np.trace(spec.a))) * vol
    except OverflowError:
        return math.inf


def _ensure_cap(spec: PackingSpec) -> None:
    est = volume_estimate(spec)
    if est > spec.max_cells:
        raise CapExceededError(
            f"estimated cell count {est:.6g} exceeds max_cells "
            f"{spec.max_cells}; raise the cap or shrink |t|/box"
        )


def _preimage(spec: PackingSpec):
    """Base point and generator matrix of e^{-tA}(box)."""
    m = exponential(spec.a, -spec.t, spec.chains)
    base = m @ spec.box[0]
    gens = m * (spec.box[1] - spec.box[0])[None, :]
    return base, gens


def _axis_range(lo: float, hi: float):
    """Integer z with [z, z+1) meeting the closed interval [lo, hi]."""
    return math.floor(lo), math.floor(hi)


def _sat_axes(gens: np.ndarray) -> np.ndarray:
    """Facet normals of the Minkowski sum of the unit cube and the
    preimage parallelotope: null vectors of (n-1)-subsets of the 2n
    generators.  Complete separating-axis set for two parallelotopes."""
    n = gens.shape[0]
    all_gens = np.hstack([np.eye(n), gens])
    axes = []
    for subset in itertools.combinations(range(2 * n), n - 1):
        sub = all_gens[:, subset].T
        if n == 1:
            axes.append(np.array([1.0]))
            continue
        _, s, vt = np.linalg.svd(sub, full_matrices=True)
        if s.size == 0 or s[-1] <= 1e-12 * s[0]:
            continue  # subset does not span an (n-1)-dim subspace
        normal = vt[-1]
        nz = np.flatnonzero(np.abs(normal) > 1e-13)
        if nz.size == 0:
            continue
        normal = normal / np.linalg.norm(normal)
        if normal[nz[0]] < 0:
            normal = -normal
        axes.append(normal)
    if not axes:
        return np.eye(n)
    return _unique_rows(np.round(np.array(axes), 12))


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """``np.unique(rows, axis=0)``, which would load ``numpy.ma`` (about
    15 ms of a packing process's start-up): the rows in lexicographic
    order, each kept where it differs from the one before."""
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


def _check_count(spec: PackingSpec, count: int) -> None:
    if count > spec.max_cells:
        raise CapExceededError(
            f"packing holds more than max_cells {spec.max_cells} cells "
            f"(estimate {volume_estimate(spec):.6g})"
        )


class _Cells:
    """The candidate cells of a packing and the tests a cell must pass.

    Candidates are the cells [z, z+1)^n in the bounding box of the closed
    preimage e^{-tA}(box).  A candidate is in the packing when it passes
    every test: one per side of each separating axis (ties count as
    meeting) and one per half-open coordinate face.  Each test compares a
    fixed left-to-right sum that is linear in z, so a cell's result does
    not depend on the batch it is tested in (a BLAS product's rounding
    does), and along a line of cells each test flips at most once.
    """

    def __init__(self, spec: PackingSpec):
        _ensure_cap(spec)
        self.base, self.gens = _preimage(spec)
        self.lo = self.base + np.minimum(self.gens, 0.0).sum(axis=1)
        self.hi = self.base + np.maximum(self.gens, 0.0).sum(axis=1)
        self.ranges = [_axis_range(lo, hi) for lo, hi in zip(self.lo, self.hi)]
        counts = [zmax - zmin + 1 for zmin, zmax in self.ranges]
        self.total = math.prod(counts)
        if self.total > 40 * spec.max_cells:
            raise CapExceededError(
                f"candidate bounding box holds {self.total} cells "
                f"(estimate {volume_estimate(spec):.6g}); cap {spec.max_cells}"
            )
        # rows run along the longest axis, so there are fewest of them
        self.lead = counts.index(max(counts))

    @functools.cached_property
    def _sat(self):
        axes = _sat_axes(self.gens)
        # preimage projection interval per axis
        proj_base = axes @ self.base
        proj_g = axes @ self.gens
        p_lo = proj_base + np.minimum(proj_g, 0.0).sum(axis=1)
        p_hi = proj_base + np.maximum(proj_g, 0.0).sum(axis=1)
        # cube projection offsets relative to a . z
        c_lo = np.minimum(axes, 0.0).sum(axis=1)
        c_hi = np.maximum(axes, 0.0).sum(axis=1)
        return axes, p_lo, p_hi, c_lo, c_hi

    def project(self, z: np.ndarray) -> np.ndarray:
        """a . z for every separating axis a (rows) and cell z (columns)."""
        axes = self._sat[0]
        proj = axes[:, :1] * z[:, 0]
        for j in range(1, z.shape[1]):
            proj = proj + axes[:, j : j + 1] * z[:, j]
        return proj

    def tests(self, z: np.ndarray) -> np.ndarray:
        """Pass/fail of every test (rows) for the cells z (columns)."""
        _, p_lo, p_hi, c_lo, c_hi = (v[:, None] for v in self._sat)
        proj = self.project(z)
        return np.concatenate([
            proj + c_lo <= p_hi,
            proj + c_hi >= p_lo,
            z.T + 1.0 > self.lo[:, None],  # half-open upper faces
            z.T <= self.hi[:, None],
        ])

    def runs(self):
        """The candidates that pass every test, as runs along the lead axis.

        In each row (the non-lead coordinates fixed) the cells that pass
        form one run of lead coordinates: its ends are first estimated by
        dividing each test through its lead coefficient, then settled with
        the tests themselves.  A test whose lead coefficient is zero keeps
        or drops a whole row.  Returns, for the rows that hold a run, the
        row's cell with lead coordinate 0, the run's first lead coordinate
        and its length, all as integers.
        """
        lead, n = self.lead, len(self.ranges)
        alpha = self._sat[0][:, lead]
        e_lead = np.eye(n)[lead]
        # per test: +1 passes from some lead coordinate up, -1 up to some
        # lead coordinate, 0 in all of a row or none of it
        rising = np.concatenate(
            [-np.sign(alpha), np.sign(alpha), e_lead, -e_lead])
        # one cell per row, lead coordinate 0
        grids = [np.arange(lo, hi + 1) for lo, hi in self.ranges]
        grids[lead] = np.zeros(1)
        z = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")],
                     axis=1)
        z = z[self.tests(z)[rising == 0].all(axis=0)]

        _, p_lo, p_hi, c_lo, c_hi = (v[:, None] for v in self._sat)
        proj = self.project(z)  # lead coordinate 0
        with np.errstate(divide="ignore", invalid="ignore"):
            cut_hi = (p_hi - c_lo - proj) / alpha[:, None]
            cut_lo = (p_lo - c_hi - proj) / alpha[:, None]
        up, down = alpha > 0, alpha < 0
        zmin, zmax = self.ranges[lead]
        first = np.max(np.vstack([cut_lo[up], cut_hi[down]]),
                       axis=0, initial=zmin)
        last = np.min(np.vstack([cut_hi[up], cut_lo[down]]),
                      axis=0, initial=zmax)
        first = np.minimum(np.ceil(first), zmax + 1)
        last = np.maximum(np.floor(last), zmin - 1)
        first = self._settle(z, first, rising > 0, -1)
        last = self._settle(z, last, rising < 0, 1)
        length = (last - first + 1).astype(int)
        keep = length > 0
        return z[keep].astype(int), first[keep].astype(int), length[keep]

    def _settle(self, z, x, mask, out):
        """Settle each row's estimated end x (lead coordinate) of its run
        of passing cells on the side out = -1 (first) or +1 (last).  The
        tests in mask bound the run on that side, so each passes on a
        half-line running from the true end in direction -out.  x moves
        out while the next cell passes them, then in while x fails them,
        and stays within the lead range (one step past it if no cell
        passes)."""
        lead = self.lead
        outer, inner = self.ranges[lead][::-out]

        def passes(rows, at):
            cells = z[rows]
            cells[:, lead] = at
            return self.tests(cells)[mask].all(axis=0)

        rows = np.flatnonzero(out * x < out * outer)
        while rows.size:
            rows = rows[passes(rows, x[rows] + out)]
            x[rows] += out
            rows = rows[out * x[rows] < out * outer]
        rows = np.flatnonzero(out * x >= out * inner)
        while rows.size:
            rows = rows[~passes(rows, x[rows])]
            x[rows] -= out
            rows = rows[out * x[rows] >= out * inner]
        return x


def enumerate_packing(spec: PackingSpec) -> np.ndarray:
    """Lattice base points z of the half-open cells [z, z+1)^n meeting
    e^{-tA}(box), in lexicographic order (touching an oblique face counts
    as meeting): the runs of ``_Cells.runs``, listed once their count is
    within the cap."""
    cells = _Cells(spec)
    rows, first, length = cells.runs()
    _check_count(spec, int(length.sum()))
    out = np.repeat(rows, length, axis=0)
    # a run's k-th cell sits k past its first lead coordinate
    start = np.cumsum(length) - length
    out[:, cells.lead] = (np.repeat(first - start, length)
                          + np.arange(len(out)))
    return out[np.lexsort(out.T[::-1])]


def count_cells(spec: PackingSpec) -> int:
    """Exact cell count, ``len(enumerate_packing(spec))``.

    Diagonal matrices: the product of the bounding box's axis ranges.
    Otherwise the run lengths of ``_Cells.runs`` summed: the work grows
    with the number of rows, not of cells.  Raises ``CapExceededError``
    exactly where ``enumerate_packing`` does: the pre-flight estimate,
    the bounding-box size or the count is over ``spec.max_cells``.
    """
    cells = _Cells(spec)
    if all(size == 1 for _, size, _ in spec.chains):
        count = cells.total
    else:
        count = int(cells.runs()[2].sum())
    _check_count(spec, count)
    return count


def oscillation(a, t: float, u: TestFunction) -> float:
    """Oscillation of the linear functional u over any image cell
    e^{tA}(z + [0,1]^n): sum_i |(u e^{tA})_i|, independent of z."""
    a = check_matrix(a)
    row = u.as_array() @ exponential(a, t)
    return float(np.sum(np.abs(row)))


def _check_qs(qs) -> list:
    """The Q values as floats: each finite and at least 1, no two equal."""
    qs = [float(q) for q in qs]
    if not all(1 <= q < math.inf for q in qs) or len(set(qs)) < len(qs):
        raise ValueError(f"Q values must be finite, at least 1 and "
                         f"distinct: {qs}")
    return qs


def variation_sum(spec: PackingSpec, u: TestFunction, q: float) -> float:
    """V_Q over the packing: (cell count) * oscillation^Q."""
    (q,) = _check_qs([q])
    cells = count_cells(spec)
    osc = oscillation(spec.a, spec.t, u)
    return cells * osc**q


def fit_exponents(a, u: TestFunction, box, t_grid, q_list,
                  max_cells: int = DEFAULT_MAX_CELLS) -> VariationReport:
    """Least-squares slopes of log V_Q against t, per Q.

    The predicted exponential rate is Q*lam_u - tr(A), as u e^{tA} grows
    as e^{t lam_u} for t -> -inf: lam_u is the least eigenvalue of the
    chains that u touches.  The slope fit deliberately ignores the
    polynomial-in-|t| correction factor (noted in the report) since it is
    subdominant on desk-scale grids.
    """
    a = check_matrix(a)
    t_grid = [float(t) for t in t_grid]
    if len(t_grid) < 3:
        raise ValueError("need at least 3 grid points")
    if any(y <= x for x, y in zip(t_grid, t_grid[1:])):
        raise ValueError("t grid must be strictly increasing")
    if any(t >= -1 for t in t_grid):
        raise ValueError("all grid t must be < -1")
    q_list = _check_qs(q_list)
    trace = float(np.trace(a))

    rows = []
    logs = {q: [] for q in q_list}
    for t in t_grid:
        spec = PackingSpec(a, t, np.asarray(box, dtype=float), max_cells)
        cells = count_cells(spec)
        if cells <= 0:
            raise ValueError(f"packing at t={t} is empty")
        osc = oscillation(a, t, u)
        for q in q_list:
            value = cells * osc**q
            rows.append(VariationRow(t, q, cells, value))
            logs[q].append(math.log(value))

    lam_u = min(lam for lam, size, off in spec.chains
                if any(u.vector[off:off + size]))
    fits = []
    ts = np.asarray(t_grid)
    for q in q_list:
        ys = np.asarray(logs[q])
        slope, intercept = np.polyfit(ts, ys, 1)
        resid = float(np.sqrt(np.mean((ys - (slope * ts + intercept)) ** 2)))
        if slope < -0.1:
            label = "diverging"
        elif slope > 0.1:
            label = "vanishing"
        else:
            label = "critical"
        fits.append(
            ExponentFit(q, float(slope), q * lam_u - trace, resid, label)
        )
    note = (
        "slope fit captures the exponential rate only; the polynomial "
        "factor |t|^((1-n)Q) is ignored and absorbed by tolerances"
    )
    return VariationReport(tuple(rows), tuple(fits), note)
