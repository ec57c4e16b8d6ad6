"""Boundary self-maps: construction, theoretical biLipschitz bounds and
empirical distortion measurements.

The Jordan-block family F(x) = (a_0 I + a_1 N + ... + a_{n-2} N^{n-2}) x
+ v + (C(x_n), 0, ..., 0)^T with Lipschitz C exhausts the quasisymmetric
self-maps of (R^n, D_{J_n}); C is represented as a piecewise-linear
function so its Lipschitz constant is exact and the family is closed
under composition by symbolic recombination.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_taylor_terms, _upper_toeplitz, check_matrix,
                     check_vector, exponential, nilpotent_exp)
from .errors import RangeError
from .metric import BoundarySpace, _newton, dist_pairs


# ---------------------------------------------------------------------------
# piecewise-linear functions


@dataclass(frozen=True)
class PiecewiseLinear:
    """PWL function given by knots [(y, value), ...]; beyond the end
    knots it continues with the terminal segment slopes (constant for a
    single knot)."""

    knots: tuple

    def __post_init__(self):
        ks = tuple((float(y), float(v)) for y, v in self.knots)
        if not ks:
            raise ValueError("need at least one knot")
        ys = [y for y, _ in ks]
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValueError("knot positions must be strictly increasing")
        if not all(math.isfinite(y) and math.isfinite(v) for y, v in ks):
            raise ValueError("knots must be finite")
        object.__setattr__(self, "knots", ks)

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls(((0.0, value),))

    @classmethod
    def linear(cls, slope: float, intercept: float = 0.0) -> "PiecewiseLinear":
        if slope == 0.0:
            return cls.constant(intercept)
        return cls(((0.0, intercept), (1.0, intercept + slope)))

    def _arrays(self):
        ys = np.array([y for y, _ in self.knots])
        vs = np.array([v for _, v in self.knots])
        return ys, vs

    def slopes(self) -> np.ndarray:
        ys, vs = self._arrays()
        if len(ys) == 1:
            return np.zeros(1)
        with np.errstate(over="ignore", divide="ignore"):
            dv, dy = np.diff(vs), np.diff(ys)
            big = ~(np.isfinite(dv) & np.isfinite(dy))
            if big.any():  # a difference past the float range: halve the knots
                dv[big], dy[big] = np.diff(vs / 2)[big], np.diff(ys / 2)[big]
            return dv / dy

    def lipschitz(self) -> float:
        return float(np.max(np.abs(self.slopes())))

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        ys, vs = self._arrays()
        if len(ys) == 1:
            return np.full(y.shape, vs[0])
        out = np.interp(y, ys, vs)
        sl = self.slopes()
        out = np.where(y < ys[0], vs[0] + sl[0] * (y - ys[0]), out)
        out = np.where(y > ys[-1], vs[-1] + sl[-1] * (y - ys[-1]), out)
        return out

    def scaled(self, k: float) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple((y, k * v) for y, v in self.knots))

    def compose_affine(self, a: float, b: float) -> "PiecewiseLinear":
        """The function y -> self(a*y + b), a != 0 (exact reparametrization)."""
        if a == 0.0:
            raise ValueError("affine coefficient must be nonzero")
        ks = [((y - b) / a, v) for y, v in self.knots]
        ks.sort(key=lambda kv: kv[0])
        return PiecewiseLinear(tuple(ks))

    def add(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        """Exact sum; sentinel knots past both ends preserve the
        extension slopes."""
        ys = sorted(
            {y for y, _ in self.knots} | {y for y, _ in other.knots}
        )
        ys = [ys[0] - 1.0] + ys + [ys[-1] + 1.0]
        grid = np.array(ys)
        vals = self(grid) + other(grid)
        return PiecewiseLinear(tuple(zip(grid.tolist(), vals.tolist())))

    def to_json(self):
        return {"knots": [[y, v] for y, v in self.knots]}

    @classmethod
    def from_json(cls, doc) -> "PiecewiseLinear":
        return cls(tuple((y, v) for y, v in doc["knots"]))


# ---------------------------------------------------------------------------
# map specs: each carries ``kind`` (its JSON tag), ``apply`` (the batch
# map; ``eval_map_batch`` checks the dimension), ``to_json``, ``from_json``
# and ``bound`` (its biLipschitz bound on (R^n, D_{J_n}), or None where
# none is known)


@dataclass(frozen=True)
class Translation:
    kind = "translation"
    v: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "v", tuple(float(x) for x in check_vector(self.v))
        )

    @property
    def n(self):
        return len(self.v)

    def apply(self, x):
        return x + np.asarray(self.v)

    def to_json(self):
        return {"kind": self.kind, "v": list(self.v)}

    @classmethod
    def from_json(cls, doc):
        return cls(tuple(doc["v"]))

    def bound(self):
        return 1.0


@dataclass(frozen=True, eq=False)
class LinearMap:
    kind = "linear"
    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", check_matrix(self.m))

    @property
    def n(self):
        return self.m.shape[0]

    def apply(self, x):
        return x @ self.m.T

    def to_json(self):
        return {"kind": self.kind, "M": self.m.tolist()}

    @classmethod
    def from_json(cls, doc):
        return cls(np.asarray(doc["M"], dtype=float))

    def bound(self):
        return None


@dataclass(frozen=True)
class Shear:
    """x -> x + (C(x_n), 0, ..., 0)^T."""

    kind = "shear"
    n: int
    c: PiecewiseLinear

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("shear needs dimension >= 2")

    def apply(self, x):
        out = x.copy()
        out[:, 0] += self.c(x[:, -1])
        return out

    def to_json(self):
        return {"kind": self.kind, "n": self.n, "C": self.c.to_json()}

    @classmethod
    def from_json(cls, doc):
        return cls(int(doc["n"]), PiecewiseLinear.from_json(doc["C"]))

    def bound(self):
        return shear_bilip_bound(self.n, self.c.lipschitz())


@dataclass(frozen=True)
class PolyNilpotent:
    """x -> (a_0 I + a_1 N + ... + a_{n-1} N^{n-1}) x, a_0 != 0."""

    kind = "poly_nilpotent"
    coeffs: tuple

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if not cs or cs[0] == 0.0:
            raise ValueError("leading coefficient a_0 must be nonzero")
        object.__setattr__(self, "coeffs", cs)

    @property
    def n(self):
        return len(self.coeffs)

    def apply(self, x):
        return x @ poly_in_nilpotent(self.n, self.coeffs).T

    def to_json(self):
        return {"kind": self.kind, "n": self.n, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, doc):
        return cls(tuple(doc["coeffs"]))

    def bound(self):
        return poly_bilip_bound(self.n, self.coeffs)


@dataclass(frozen=True)
class JordanFamilyMap:
    """The full quasisymmetric family on (R^n, D_{J_n})."""

    kind = "jordan_family"
    n: int
    a: tuple  # a_0 .. a_{n-2}
    v: tuple
    c: PiecewiseLinear

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("jordan_family needs dimension >= 2")
        a = tuple(float(x) for x in self.a)
        if len(a) != self.n - 1 or a[0] == 0.0:
            raise ValueError("need a_0 .. a_{n-2} with a_0 != 0")
        v = tuple(float(x) for x in check_vector(self.v, self.n))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)

    def apply(self, x):
        out = x @ poly_in_nilpotent(self.n, self.a).T + np.asarray(self.v)
        out[:, 0] += self.c(x[:, -1])
        return out

    def to_json(self):
        return {"kind": self.kind, "n": self.n, "a": list(self.a),
                "v": list(self.v), "C": self.c.to_json()}

    @classmethod
    def from_json(cls, doc):
        return cls(int(doc["n"]), tuple(doc["a"]), tuple(doc["v"]),
                   PiecewiseLinear.from_json(doc["C"]))

    def bound(self):
        return jordan_family_bound(self)


@dataclass(frozen=True)
class Composition:
    """maps[0] o maps[1] o ... (the last map applies first)."""

    kind = "composition"
    maps: tuple

    def __post_init__(self):
        if not self.maps:
            raise ValueError("composition needs at least one map")
        ns = {m.n for m in self.maps}
        if len(ns) != 1:
            raise ValueError("composed maps must share a dimension")
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def n(self):
        return self.maps[0].n

    def apply(self, x):
        for inner in reversed(self.maps):
            x = inner.apply(x)
        return x

    def to_json(self):
        return {"kind": self.kind, "maps": [m.to_json() for m in self.maps]}

    @classmethod
    def from_json(cls, doc):
        return cls(tuple(map_from_json_dict(m) for m in doc["maps"]))

    def bound(self):
        """Product of the factors' bounds; None if a factor has none."""
        total = 1.0
        for inner in self.maps:
            b = inner.bound()
            if b is None:
                return None
            total *= b
        return total


_KINDS = {cls.kind: cls for cls in (Translation, LinearMap, Shear,
                                    PolyNilpotent, JordanFamilyMap,
                                    Composition)}


def poly_in_nilpotent(n: int, coeffs) -> np.ndarray:
    """sum_k coeffs[k] N^k as an n x n matrix (N^k = 0 from k = n)."""
    c = np.zeros(n)
    c[:len(coeffs)] = coeffs[:n]
    return _upper_toeplitz(c)


def eval_map_batch(spec, x) -> np.ndarray:
    """Apply a map spec to a batch of points (rows)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != spec.n:
        raise ValueError(f"expected points of dimension {spec.n}")
    return spec.apply(x)


def eval_map(spec, x) -> np.ndarray:
    return eval_map_batch(spec, np.asarray(x, dtype=float)[None, :])[0]


def compose_jordan(f: JordanFamilyMap, g: JordanFamilyMap) -> JordanFamilyMap:
    """Symbolic recombination of f o g, again of jordan_family form.

    Products of polynomials in N are truncated at N^{n-1}; the surviving
    N^{n-1} x term equals x_n e_1 and is folded into the C part.
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    n = f.n
    full = _nilpotent_coeff_mul(f.a, g.a, n)
    coeffs = tuple(full[: n - 1])
    pf = poly_in_nilpotent(n, f.a)
    v_new = tuple((pf @ np.asarray(g.v) + np.asarray(f.v)).tolist())
    c_new = g.c.scaled(f.a[0]).add(f.c.compose_affine(g.a[0], g.v[-1]))
    if full[n - 1] != 0.0:
        c_new = c_new.add(PiecewiseLinear.linear(full[n - 1]))
    return JordanFamilyMap(n, coeffs, v_new, c_new)


# ---------------------------------------------------------------------------
# JSON wire format


def map_to_json_dict(spec):
    return spec.to_json()


def map_from_json_dict(doc):
    kind = doc.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown map kind {kind!r}")
    return cls.from_json(doc)


def load_map(path):
    with open(path, encoding="utf-8") as fh:
        return map_from_json_dict(json.load(fh))


def save_map(path, spec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(map_to_json_dict(spec), fh)
        fh.write("\n")


# ---------------------------------------------------------------------------
# theoretical biLipschitz bounds


def _q(c) -> np.ndarray:
    """Q(sum_k c[..., k] N^k) = sum_k (n - k) c_k^2, n = c.shape[-1]."""
    return (np.arange(c.shape[-1], 0, -1) * c * c).sum(axis=-1)


def q_exp_nilpotent(n: int, u) -> np.ndarray:
    """Q(e^{uN}) = sum_{k=0}^{n-1} (n-k) (u^k / k!)^2 (even in u)."""
    return _q(_taylor_terms(u, n))


def _bound_exponents(n: int, consts) -> np.ndarray:
    """Per constant c, the one u with u = c + log Q(e^{uN}) / 2: with a_k
    = u^k / k!, Q'/2 = sum_k (n - k) a_k a_{k-1} is below Q for u > 0
    (AM-GM) and negative for u < 0, so g = c + log Q / 2 - u, with g' =
    Q'/2Q - 1, decreases.  As Q >= n, g >= 0 at Newton's start c + log(n)
    / 2."""
    consts = np.asarray(consts, dtype=float)
    if np.isnan(consts).any():
        raise ValueError("bound constants must not be NaN")
    if np.isinf(consts).any():
        raise RangeError("the bound's constant, log(1 + L) or log Q(B) / 2, "
                         "leaves the float range")
    weights = np.arange(n - 1, 0, -1)  # n - k for k = 1 .. n - 1

    def g(u, rows, slope=False):
        a = _taylor_terms(u, n)
        q = _q(a)
        gu = consts[rows] + 0.5 * np.log(q) - u
        return ((gu, (weights * a[:, 1:] * a[:, :-1]).sum(axis=-1) / q - 1.0)
                if slope else gu)

    u = consts + 0.5 * math.log(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _newton(g, u, *g(u, np.arange(u.size), slope=True), "bound")


def shear_bilip_bound(n: int, lipschitz: float) -> float:
    """e^a with a the u solving e^u = (1+L) sqrt(Q(e^{uN})).

    Any shear x + (C(x_n), 0, .., 0) with L-Lipschitz C distorts
    D_{J_n} by at most this factor in either direction.
    """
    if not lipschitz >= 0:
        raise ValueError("Lipschitz constant must be a nonnegative number")
    if n == 1:
        return 1.0
    a = float(_bound_exponents(n, [math.log1p(lipschitz)])[0])
    return math.exp(max(a, 0.0))


def _nilpotent_coeff_mul(p, q, n):
    out = [0.0] * n
    for i, pi in enumerate(p):
        if pi == 0.0:
            continue
        for j, qj in enumerate(q):
            if i + j < n:
                out[i + j] += pi * qj
    return out


def nilpotent_poly_inverse(coeffs) -> tuple:
    """Coefficients of B_2^{-1} via the finite Neumann series
    a_0^{-1} (I + beta + ... + beta^{n-1}), beta = -(a_1 N + ...)/a_0."""
    n = len(coeffs)
    if coeffs[0] == 0.0:
        raise ValueError("leading coefficient a_0 must be nonzero")
    beta = [0.0] + [-c / coeffs[0] for c in coeffs[1:]]
    acc = term = [1.0] + [0.0] * (n - 1)
    for _ in range(1, n):
        term = _nilpotent_coeff_mul(term, beta, n)
        acc = [x + y for x, y in zip(acc, term)]
    return tuple(c / coeffs[0] for c in acc)


def _poly_constants(n: int, coeffs) -> list:
    """log Q(B) / 2 for B = B_2 and B = B_2^{-1}, as log(4^e Q(2^-e B))
    where Q(B) is 0 or inf."""
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) != n:
        raise ValueError(f"need exactly {n} coefficients")
    if coeffs[0] == 0.0:
        raise ValueError("leading coefficient a_0 must be nonzero")
    consts = []
    with np.errstate(over="ignore", under="ignore"):
        for c in map(np.array, (coeffs, nilpotent_poly_inverse(coeffs))):
            e = 0 if 0.0 < _q(c) < math.inf else math.frexp(np.abs(c).max())[1]
            consts.append(0.5 * math.log(_q(np.ldexp(c, -e))) + e * math.log(2))
    return consts


def poly_bilip_bound(n: int, coeffs) -> float:
    """e^{max(a, a', 0)} with a, a' the u solving
    e^u = sqrt(Q(e^{uN}) Q(B)) for B = B_2 and B = B_2^{-1}."""
    roots = _bound_exponents(n, _poly_constants(n, coeffs))
    return math.exp(max(float(roots.max()), 0.0))


def jordan_family_bound(spec: JordanFamilyMap) -> float:
    """Distortion bound for the full family map via its decomposition
    into translation * shear * nilpotent-polynomial: ``shear_bilip_bound``
    times ``poly_bilip_bound``, their three exponents solved in one batch.

    The shear factor in the decomposition carries C(y / a_0), so its
    Lipschitz constant is L(C) / |a_0|.
    """
    shear_l = spec.c.lipschitz() / abs(spec.a[0])
    roots = _bound_exponents(spec.n, _poly_constants(spec.n, spec.a + (0.0,))
                             + [math.log1p(shear_l)])
    poly = math.exp(max(float(roots[:2].max()), 0.0))
    return math.exp(max(float(roots[2]), 0.0)) * poly


# ---------------------------------------------------------------------------
# empirical estimators


def empirical_bilip(spec, space: BoundarySpace, samples: int = 10_000,
                    seed: int = 0, box_radius: float = 5.0):
    """(min, max) of dist(Fx, Fy) / dist(x, y) over sampled pairs."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box_radius, box_radius, (samples, space.n))
    y = rng.uniform(-box_radius, box_radius, (samples, space.n))
    # no point depends on a distance: one batch holds x, y and F(x), F(y)
    d1, d2 = np.split(dist_pairs(
        space, np.concatenate([x, eval_map_batch(spec, x)]),
        np.concatenate([y, eval_map_batch(spec, y)])), 2)
    ok = d1 > 0
    ratios = d2[ok] / d1[ok]
    return float(np.min(ratios)), float(np.max(ratios))


def transfer_check(a, b, m, s: float, samples: int = 10_000, seed: int = 0,
                   box_radius: float = 5.0):
    """(min, max) of D_B(Mx, My) / D_A(x, y)^s over sampled pairs.

    Report only: finite stable ratios exhibit the snowflake-biLipschitz
    relation between the two boundaries.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    m = check_matrix(m)
    if 1.0 / np.linalg.cond(m) < 1e-12:
        raise ValueError("transfer matrix M is singular")
    space_a = BoundarySpace(a)
    space_b = BoundarySpace(b)
    if space_a.n != space_b.n or m.shape[0] != space_a.n:
        raise ValueError("dimension mismatch")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-box_radius, box_radius, (samples, space_a.n))
    y = rng.uniform(-box_radius, box_radius, (samples, space_a.n))
    da = dist_pairs(space_a, x, y)
    ok = da > 0
    db = dist_pairs(space_b, x[ok] @ m.T, y[ok] @ m.T)
    ratios = db / da[ok] ** s
    return float(np.min(ratios)), float(np.max(ratios))


@dataclass(frozen=True)
class DistortionRadius:
    radius: float
    sup_out: float
    inf_out: float
    sup_ratio: float
    inf_ratio: float
    samples: int
    failures: int


@dataclass(frozen=True)
class DistortionReport:
    rows: tuple


def distortion_profile(spec, space: BoundarySpace, x, radii,
                       samples_per_radius: int = 200,
                       seed: int = 0) -> DistortionReport:
    """Annulus estimates of the pointwise distortion of F at x.

    Per radius r: sup of dist(Fx, Fx') over x' with dist(x, x') in
    [0.9r, r] and inf over [r, 1.1r].  Sample points are placed exactly
    on target spheres using the dilation similarity (e^{sA} scales D_A
    by e^s), so annulus misses only arise from degenerate directions.
    One shared direction is placed at distance exactly r in both annuli,
    which keeps sup >= inf structurally.
    """
    x = check_vector(x, space.n)
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii) or any(
        b >= a for a, b in zip(radii, radii[1:])
    ):
        raise ValueError("radii must be positive and strictly decreasing")
    if samples_per_radius < 1:
        raise ValueError("samples_per_radius must be at least 1")
    # no draw depends on a distance: every radius draws first, and the
    # solver sees two batches, the base distances and the annulus rows
    rng = np.random.default_rng(seed)
    draws = []
    for r in radii:
        dirs = rng.normal(size=(samples_per_radius, space.n))
        norms = np.linalg.norm(dirs, axis=1)
        good = norms > 0
        dirs = dirs[good] / norms[good][:, None]
        # sup targets in [0.9r, r], then inf targets in [r, 1.1r]
        targets = r * np.concatenate([rng.uniform(0.9, 1.0, len(dirs)),
                                      rng.uniform(1.0, 1.1, len(dirs))])
        targets[[0, len(dirs)]] = r
        draws.append((dirs, targets, int(np.sum(~good))))
    counts = [len(dirs) for dirs, _, _ in draws]
    every = np.concatenate([dirs for dirs, _, _ in draws])
    base = np.split(dist_pairs(space, np.tile(x, (len(every), 1)), x + every),
                    np.cumsum(counts)[:-1])
    fpts = []
    for (dirs, targets, _), base_d in zip(draws, base):
        # math.log per element: np.log's vector loop can differ in the last
        # bit, and these step lengths are kept reproducible across releases
        s = np.array([math.log(q) for q in targets / np.tile(base_d, 2)])
        steps = exponential(space.a, s, space.chains)
        pts = x + (steps @ np.tile(dirs, (2, 1))[:, :, None])[:, :, 0]
        fpts.append(eval_map_batch(spec, pts))
    fpts = np.concatenate(fpts)
    fx = np.tile(eval_map_batch(spec, x[None, :]), (len(fpts), 1))
    # per radius, its sup rows then its inf rows
    vals = np.split(dist_pairs(space, fx, fpts),
                    np.cumsum(np.repeat(counts, 2))[:-1])
    rows = []
    for r, k, (_, _, failures), sup_vals, inf_vals in zip(
            radii, counts, draws, vals[::2], vals[1::2]):
        sup_out, inf_out = float(np.max(sup_vals)), float(np.min(inf_vals))
        rows.append(DistortionRadius(r, sup_out, inf_out, sup_out / r,
                                     inf_out / r, k, failures))
    return DistortionReport(tuple(rows))


@dataclass(frozen=True, eq=False)
class QSProfile:
    """Scatter of (input ratio, output ratio) with its monotone upper
    envelope (a candidate eta gauge)."""

    ratios_in: np.ndarray
    ratios_out: np.ndarray
    envelope_out: np.ndarray
    skipped: int

    def envelope(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.ratios_in, t, side="right") - 1
        vals = np.where(idx >= 0, self.envelope_out[np.maximum(idx, 0)], 0.0)
        return vals


def qs_profile(spec, space: BoundarySpace, triples: int = 10_000,
               seed: int = 0, box_radius: float = 5.0) -> QSProfile:
    """Sampled quasisymmetry profile of F over random triples."""
    if triples < 1:
        raise ValueError("need at least one triple")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box_radius, box_radius, (3, triples, space.n))
    x, y, z = pts
    fx, fy, fz = (eval_map_batch(spec, p) for p in pts)
    # no point depends on a distance: the four blocks share one batch
    dxy, dxz, oxy, oxz = np.split(dist_pairs(
        space, np.concatenate([x, x, fx, fx]), np.concatenate([y, z, fy, fz])),
        4)
    ok = (dxy > 0) & (dxz > 0) & (oxz > 0)
    skipped = int(np.sum(~ok))
    rin, rout = dxy[ok] / dxz[ok], oxy[ok] / oxz[ok]
    order = np.argsort(rin, kind="stable")
    rin = rin[order]
    rout = rout[order]
    return QSProfile(rin, rout, np.maximum.accumulate(rout), skipped)


def conformal_probe(spec, n: int, t_values, base=None) -> np.ndarray:
    """Horospherical distortion along the special point family of the
    conformality test on (R^n, D_{J_n}).

    The family is x_t = base + e^{tN}(0, .., 0, e^t)^T; the probe
    returns |e^{-tN}(F(x_t) - F(base))| / e^t per t.  For a shear with C
    differentiable at the base height this converges (t -> -inf) to
    sqrt(1 + C'(0)^2): equal to 1 iff the map is conformal at the point,
    and reached exactly at every t when C is globally affine.

    Where the squared norm leaves the normal range, the vector is scaled
    by its largest component first, so the ratio stays exact from t = -708
    to t = 700.  A RangeError names the first t where e^t is not a normal
    float or the ratio is not finite and positive.
    """
    base = check_vector(np.zeros(n) if base is None else base, n)
    t_values = np.asarray(t_values, dtype=float)
    ratios = np.empty(t_values.shape)
    f_base = eval_map(spec, base)
    for i, t in enumerate(t_values):
        try:
            et = math.exp(t)
        except OverflowError:
            et = math.inf
        if not np.finfo(float).tiny <= et < math.inf:
            raise RangeError(f"t = {float(t)!r}: e^t is not a normal float")
        with np.errstate(all="ignore"):  # an overflow is reported below
            xt = base + et * nilpotent_exp(n, t)[:, -1]
            diff = nilpotent_exp(n, -t) @ (eval_map(spec, xt) - f_base)
            sq, top = diff @ diff, np.abs(diff).max()  # np.linalg.norm's sq
            norm = math.sqrt(sq)
            if not np.finfo(float).tiny <= sq < math.inf and 0 < top:
                norm = top * np.linalg.norm(diff / top)
            ratios[i] = norm / et
        if not 0.0 < ratios[i] < math.inf:
            raise RangeError(f"t = {float(t)!r}: the ratio {ratios[i]} is not "
                             "finite and positive")
    return ratios
