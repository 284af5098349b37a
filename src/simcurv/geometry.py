"""Embedded complexes, normalized solid angles, angle forms, Sommerville, hulls.

Angles are normalized so the full unit sphere has measure 1 in every
dimension.  The angle of a top simplex along one of its faces is computed
intrinsically in the affine hull of the simplex:

* codimension 0 -> exactly 1;
* codimension 1 -> exactly 1/2;
* codimension 2 -> planar wedge angle / 2 pi via atan2 of the cross and
  dot products of the two edge directions (noise-free, exact for thin
  wedges too, reported as exact);
* codimension >= 3 -> Monte Carlo: project the opposite vertices onto the
  orthogonal complement of the face, then count isotropic Gaussian
  directions falling inside the resulting simplicial cone.

Monte Carlo streams are counter-based: each (seed, face index, top index,
block index) tuple keys an independent Philox stream, so results are
reproducible bit-for-bit regardless of thread count or evaluation order.
The membership count is the single numpy kernel in ``simcurv._kernels``.

Linear combinations of angles are held as ``_AngleForm``s (an exact rational
constant plus rational coefficients on (face, top-simplex) pairs) and
evaluated against an ``AngleCache``.  Sommerville's identity is built from
two such forms here; the curvatures and theorem checks in
``simcurv.curvature`` build theirs from the same class.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from simcurv._kernels import count_cone_hits
from simcurv.complexes import Simplex, SimplicialComplex, as_simplex

DEGENERACY_TOL = 1e-9
_RANK_TOL = 1e-10
_CLOSED_FORM_MAX_CODIM = 2  # solid_angle is exact up to this codimension


class GeometryError(ValueError):
    """Geometric inconsistency: degenerate simplex, bad face pair, etc."""


class DegeneratePositionError(GeometryError):
    """Input points are too close to a degenerate position; perturb them."""


def default_thread_count() -> int:
    env = os.environ.get("ASC_CURV_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ValueError(f"ASC_CURV_THREADS must be a positive integer, got {env!r}")
        return threads
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass(frozen=True)
class AngleConfig:
    """Monte Carlo settings for solid-angle estimation."""

    samples: int = 1_000_000
    seed: int = 0
    threads: int | None = None
    block_size: int = 1 << 18

    def __post_init__(self):
        if self.samples < 1000:
            raise ValueError("samples must be at least 1000")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")

    def resolved_threads(self) -> int:
        return self.threads if self.threads is not None else default_thread_count()


@dataclass(frozen=True)
class AngleValue:
    """A normalized angle in [0, 1] with its provenance.

    ``rational`` is set when the value is exactly a known fraction
    (codimension 0 and 1); dihedral angles are exact-method but float-valued.
    """

    value: float
    std_error: float
    method: str  # "exact" | "monte_carlo"
    samples: int = 0
    rational: Fraction | None = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"angle {self.value} outside [0, 1]")
        if (self.std_error == 0.0) != (self.method == "exact"):
            raise ValueError("std_error must be zero exactly for exact angles")


class EmbeddedComplex:
    """A simplicial complex together with vertex coordinates in R^d."""

    def __init__(
        self,
        complex: SimplicialComplex,
        coordinates: Mapping[int, Sequence[float]],
        ambient_dim: int | None = None,
    ):
        self.complex = complex
        coords = {int(v): np.asarray(p, dtype=float) for v, p in coordinates.items()}
        dims = {p.shape for p in coords.values()}
        if len(dims) > 1:
            raise GeometryError(f"inconsistent coordinate lengths: {dims}")
        d = next(iter(dims))[0] if dims else 0
        self.ambient_dim = ambient_dim if ambient_dim is not None else d
        if dims and self.ambient_dim != d:
            raise GeometryError(
                f"ambient_dim {self.ambient_dim} does not match coordinates of length {d}"
            )
        missing = [v for v in complex.vertices() if v not in coords]
        if missing:
            raise GeometryError(f"missing coordinates for vertices {missing}")
        if self.ambient_dim < complex.dim:
            raise GeometryError(
                f"ambient dimension {self.ambient_dim} below complex dimension {complex.dim}"
            )
        self.coordinates = coords
        for m in complex.maximal:
            if _affine_rank(self.points(m)) != len(m) - 1:
                raise GeometryError(f"simplex {m} is affinely degenerate")

    def points(self, simplex: Iterable[int]) -> np.ndarray:
        return np.array([self.coordinates[v] for v in simplex], dtype=float)

    def barycenter(self, simplex: Iterable[int]) -> np.ndarray:
        return self.points(simplex).mean(axis=0)

    def __repr__(self) -> str:
        return f"EmbeddedComplex(dim={self.complex.dim}, ambient={self.ambient_dim})"


def _affine_rank(points: np.ndarray) -> int:
    if len(points) <= 1:
        return 0
    s = np.linalg.svd(points[1:] - points[0], compute_uv=False)
    # relative to the largest singular value, so a shape's rank does not
    # depend on its size
    return int((s > _RANK_TOL * s[0]).sum())


def _orthonormal_rows(vectors: np.ndarray, expect_rank: int) -> np.ndarray:
    """Orthonormal basis (rows) of the row space; errors if rank is short."""
    if vectors.size == 0 or expect_rank == 0:
        return np.zeros((0, vectors.shape[1] if vectors.ndim == 2 else 0))
    u, s, vt = np.linalg.svd(vectors, full_matrices=False)
    rank = int((s > _RANK_TOL * s[0]).sum())
    if rank != expect_rank:
        raise GeometryError(
            f"degenerate configuration: affine rank {rank}, expected {expect_rank}"
        )
    return vt[:expect_rank]


def _pair_stream(cfg: AngleConfig, eta_index: int, sigma_index: int, block: int):
    seq = np.random.SeedSequence(
        entropy=cfg.seed & (1 << 64) - 1,  # SeedSequence wants non-negative entropy
        spawn_key=(eta_index, sigma_index, block),
    )
    return np.random.Generator(np.random.Philox(seq))


def _estimate_cone_fraction(
    solve_t: np.ndarray, cfg: AngleConfig, eta_index: int, sigma_index: int
) -> tuple[float, float]:
    c = solve_t.shape[0]
    hits = 0
    done = 0
    block = 0
    while done < cfg.samples:
        size = min(cfg.block_size, cfg.samples - done)
        rng = _pair_stream(cfg, eta_index, sigma_index, block)
        z = rng.standard_normal((size, c))
        hits += count_cone_hits(z, solve_t)
        done += size
        block += 1
    p = hits / cfg.samples
    std_error = max(math.sqrt(p * (1.0 - p) / cfg.samples), 1.0 / cfg.samples)
    return p, std_error


def projected_cone_generators(
    eta: Simplex, sigma: Simplex, embedded: EmbeddedComplex
) -> np.ndarray:
    """Generators of the cone of sigma along eta, expressed in an orthonormal
    basis of the orthogonal complement of aff(eta) inside aff(sigma).

    Returns a (c, c) matrix whose rows are the generators, c = codimension.
    """
    eta = as_simplex(eta)
    sigma = as_simplex(sigma)
    if not set(eta) <= set(sigma):
        raise GeometryError(f"{eta} is not a face of {sigma}")
    if sigma not in embedded.complex:
        raise KeyError(f"simplex {sigma} is not in the complex")
    c = len(sigma) - len(eta)
    x = embedded.barycenter(eta)
    if c == 0:
        return np.zeros((0, 0))
    directions = embedded.points([v for v in sigma if v not in eta]) - x
    i = len(eta) - 1
    if i > 0:
        face_basis = _orthonormal_rows(embedded.points(eta) - x, i)
        directions = directions - (directions @ face_basis.T) @ face_basis
    basis = _orthonormal_rows(directions, c)
    return directions @ basis.T


def solid_angle(
    eta: Simplex,
    sigma: Simplex,
    embedded: EmbeddedComplex,
    cfg: AngleConfig | None = None,
) -> AngleValue:
    """Normalized solid angle of ``sigma`` along its face ``eta``.

    The value only depends on the intrinsic geometry of sigma, never on the
    ambient embedding dimension.
    """
    cfg = cfg or AngleConfig()
    eta = as_simplex(eta)
    sigma = as_simplex(sigma)
    c = len(sigma) - len(eta)
    if c == 0:
        generators = projected_cone_generators(eta, sigma, embedded)  # validates
        return AngleValue(1.0, 0.0, "exact", rational=Fraction(1))
    generators = projected_cone_generators(eta, sigma, embedded)
    if c == 1:
        return AngleValue(0.5, 0.0, "exact", rational=Fraction(1, 2))
    if c == 2:
        (u0, u1), (v0, v1) = generators
        # atan2 keeps full relative precision for thin wedges, where acos of
        # the cosine rounds to 0
        theta = math.atan2(abs(u0 * v1 - u1 * v0), u0 * v0 + u1 * v1)
        return AngleValue(theta / (2.0 * math.pi), 0.0, "exact")
    try:
        solve_t = np.linalg.inv(generators.T).T
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"singular cone generators for ({eta}, {sigma})") from exc
    value, std_error = _estimate_cone_fraction(
        solve_t,
        cfg,
        embedded.complex.index_of(eta),
        embedded.complex.index_of(sigma),
    )
    return AngleValue(value, std_error, "monte_carlo", samples=cfg.samples)


class AngleCache:
    """Memoized solid angles for one embedded complex and one configuration.

    Every curvature formula and theorem check shares the same estimate for a
    given (face, top-simplex) pair, so statistical errors are propagated
    consistently through linear combinations.
    """

    def __init__(self, embedded: EmbeddedComplex, cfg: AngleConfig | None = None):
        self.embedded = embedded
        self.cfg = cfg or AngleConfig()
        self._values: dict[tuple[Simplex, Simplex], AngleValue] = {}

    def angle(self, eta: Simplex, sigma: Simplex) -> AngleValue:
        key = (as_simplex(eta), as_simplex(sigma))
        if key not in self._values:
            self._values[key] = solid_angle(key[0], key[1], self.embedded, self.cfg)
        return self._values[key]

    def fill(self, pairs: Iterable[tuple[Simplex, Simplex]]) -> None:
        """Compute a batch of pairs; Monte Carlo pairs in parallel when
        configured, closed-form pairs (codimension <= 2) inline.

        Results are identical to sequential evaluation: each pair draws from
        its own counter-based stream.
        """
        todo = []
        for pair in sorted({(as_simplex(e), as_simplex(s)) for e, s in pairs}):
            if pair in self._values:
                continue
            if len(pair[1]) - len(pair[0]) <= _CLOSED_FORM_MAX_CODIM:
                self._values[pair] = solid_angle(*pair, self.embedded, self.cfg)
            else:
                todo.append(pair)
        workers = min(self.cfg.resolved_threads(), len(todo))
        if workers <= 1:
            for eta, sigma in todo:
                self.angle(eta, sigma)
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                lambda pair: solid_angle(pair[0], pair[1], self.embedded, self.cfg),
                todo,
            )
            for pair, value in zip(todo, results):
                self._values[pair] = value


@dataclass(frozen=True)
class CurvatureValue:
    value: float
    std_error: float
    exact: bool

    def __post_init__(self):
        if self.exact and self.std_error != 0.0:
            raise ValueError("exact values carry no standard error")


@dataclass
class _AngleForm:
    """const + sum(coeffs[pair] * angle(pair)) with exact rational weights."""

    const: Fraction = Fraction(0)
    coeffs: dict[tuple[Simplex, Simplex], Fraction] = field(default_factory=dict)

    def add(self, other: "_AngleForm", scale: Fraction = Fraction(1)) -> None:
        if scale == 0:
            return
        self.const += scale * other.const
        for pair, c in other.coeffs.items():
            new = self.coeffs.get(pair, Fraction(0)) + scale * c
            if new == 0:
                self.coeffs.pop(pair, None)
            else:
                self.coeffs[pair] = new

    def evaluate(self, cache: AngleCache) -> CurvatureValue:
        rational = self.const
        float_part = 0.0
        variance = 0.0
        exact = True
        for pair, coeff in self.coeffs.items():
            angle = cache.angle(*pair)
            if angle.rational is not None:
                rational += coeff * angle.rational
                continue
            float_part += float(coeff) * angle.value
            variance += (float(coeff) * angle.std_error) ** 2
            if angle.method != "exact":
                exact = False
        return CurvatureValue(
            float(rational) + float_part, math.sqrt(variance), exact and variance == 0.0
        )


def top_angle_pairs(complex: SimplicialComplex) -> list[tuple[Simplex, Simplex]]:
    """All (face, top-simplex) incidences, in canonical order."""
    pairs = []
    for sigma in complex.simplices(complex.dim):
        pairs.append((sigma, sigma))
        for k in range(1, len(sigma)):
            pairs.extend((f, sigma) for f in combinations(sigma, k))
    return sorted(pairs)


# -- Sommerville's alternating angle-sum identity ---------------------------


def _sommerville_forms(sigma: Simplex, tau: Simplex) -> tuple[_AngleForm, _AngleForm]:
    """The alternating and defect residuals of Sommerville's identity for the
    odd n-simplex sigma and its even face tau (dim p <= n - 2), as forms."""
    n = len(sigma) - 1
    p = len(tau) - 1
    if n % 2 == 0 or n < 3:
        raise ValueError(f"simplex dimension must be odd and >= 3, got {n}")
    if p % 2 == 1 or p > n - 2:
        raise ValueError(f"face dimension must be even and <= {n - 2}, got {p}")
    if not set(tau) <= set(sigma):
        raise GeometryError(f"{tau} is not a face of {sigma}")
    extra = [v for v in sigma if v not in tau]
    alternating = _AngleForm(coeffs={(tau, sigma): Fraction(-2)})
    defect = _AngleForm(
        const=Fraction(n - p, 4) - Fraction(1, 2), coeffs={(tau, sigma): Fraction(1)}
    )
    for i in range(p + 1, n + 1):
        sign = (-1) ** (i - p + 1)
        for rest in combinations(extra, i - p):
            eta = as_simplex(tau + rest)
            alternating.coeffs[(eta, sigma)] = Fraction(sign)
            if i <= n - 2:
                defect.coeffs[(eta, sigma)] = Fraction((-1) ** i, 2)
    return alternating, defect


def sommerville_residuals(
    sigma: Simplex,
    tau: Simplex,
    embedded: EmbeddedComplex,
    cfg: AngleConfig | None = None,
    cache: AngleCache | None = None,
) -> dict:
    """Residuals of Sommerville's cone identity for an odd simplex dimension.

    For an n-simplex sigma (n odd >= 3) and an even-dimensional face tau of
    dimension p <= n - 2, both equivalent forms are evaluated:

    * alternating form:  sum_{i=p+1}^{n} (-1)^(i-p+1) sum_eta alpha(eta, sigma)
      minus 2 alpha(tau, sigma);
    * defect form:       alpha(tau, sigma)
      - 1/2 sum_{i=p+1}^{n-2} (-1)^(i+1) sum_eta alpha(eta, sigma)
      minus (1/2 - (n-p)/4).

    Angles are looked up lazily in the cache, one pair at a time.  Returns a
    dict with both residuals and their propagated standard errors.
    """
    sigma = as_simplex(sigma)
    tau = as_simplex(tau)
    alternating, defect = _sommerville_forms(sigma, tau)
    book = cache or AngleCache(embedded, cfg)
    alt = alternating.evaluate(book)
    dev = defect.evaluate(book)
    rhs_defect = -defect.const
    return {
        "sigma": sigma,
        "tau": tau,
        "alternating_residual": alt.value,
        "alternating_std_error": alt.std_error,
        "defect_lhs": dev.value + float(rhs_defect),
        "defect_rhs": rhs_defect,
        "defect_residual": dev.value,
        "defect_std_error": dev.std_error,
    }


# -- brute-force convex hull boundary ---------------------------------------


def convex_hull_boundary(points: Sequence[Sequence[float]]) -> EmbeddedComplex:
    """Boundary complex of the convex hull of a small point set in R^d.

    Every d-subset spanning a hyperplane with all remaining points strictly
    on one side becomes a facet.  Tolerances are relative to the spread of
    the points (the longest side of their bounding box), so the result does
    not change under uniform scaling: a point within 1e-9 x spread of a
    would-be supporting hyperplane raises DegeneratePositionError (perturb
    the input).  Brute force: intended for at most ~15 points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise GeometryError("points must be a 2-D array-like")
    m, d = pts.shape
    if m < d + 1:
        raise GeometryError(f"need at least {d + 1} points in R^{d}")
    spread = float(np.ptp(pts, axis=0).max())
    tol = DEGENERACY_TOL * spread
    facets: set[Simplex] = set()
    for subset in combinations(range(m), d):
        base = pts[subset[0]]
        span = pts[list(subset[1:])] - base
        u, s, vt = np.linalg.svd(span)
        if s.min() <= _RANK_TOL * max(spread, s.max()):
            continue  # subset does not span a hyperplane
        normal = vt[-1]
        rest = [j for j in range(m) if j not in subset]
        offsets = (pts[rest] - base) @ normal
        on_plane = np.abs(offsets) <= tol
        positive = offsets > tol
        negative = offsets < -tol
        if not positive.any() or not negative.any():
            if on_plane.any():
                culprit = [rest[j] for j in np.flatnonzero(on_plane)]
                raise DegeneratePositionError(
                    f"points {culprit} lie on the supporting hyperplane of "
                    f"{subset}; perturb the input into general position"
                )
            facets.add(as_simplex(subset))
    if not facets:
        raise GeometryError("no facets found; input is not full-dimensional")
    complex = SimplicialComplex(facets)
    coords = {i: pts[i] for i in range(m)}
    return EmbeddedComplex(complex, coords, ambient_dim=d)
