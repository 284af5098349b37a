"""Embedded complexes, normalized solid angles, angle forms, Sommerville, hulls.

Angles are normalized so the full unit sphere has measure 1 in every
dimension.  The angle of a top simplex along one of its faces is computed
intrinsically in the affine hull of the simplex:

* codimension 0 -> exactly 1;
* codimension 1 -> exactly 1/2;
* codimension 2 -> planar wedge angle / 2 pi via atan2 of the cross and
  dot products of the two edge directions (noise-free, exact for thin
  wedges too, reported as exact);
* codimension 4 and 5 -> quadrature: the angle is the orthant probability
  P(m >= 0) for m ~ N(0, R), R the correlation matrix of the cone's
  dual basis.  Plackett's reduction (Biometrika 41:351, 1954) along
  R(t) = I + t (R - I) makes it 2^-c plus a one-dimensional integral of
  arcsine closed forms, which nested tanh-sinh levels evaluate for a whole
  stack of pairs at once.  Such an angle has method ``quadrature``, no
  standard error, and an ``abs_error`` bound of at most 1e-12 (quadrature
  and rounding); a pair whose bound is larger, a nearly degenerate cone,
  is estimated by Monte Carlo instead;
* codimension 3 and codimension >= 6 -> Monte Carlo: project the opposite
  vertices onto the orthogonal complement of the face, then count isotropic
  Gaussian directions falling inside the resulting simplicial cone C.  Each
  drawn direction z is tested 2c times, as P^s z in C and in -C for the c
  cyclic coordinate shifts P^s (each image of z is isotropic Gaussian, so
  every test has probability p, the angle), so N cone tests cost N / 2c
  Gaussian vectors.  The standard error of the estimate hits / N comes from
  the sample variance of the per-vector count X in {0, ..., 2c}: it is
  sqrt(p (1 - 2cp) / N) while the 2c images are disjoint and larger where
  they overlap, with a floor of 1 / N.

Every pair is set up in a stack.  ``AngleCache.fill`` groups the pairs it
is given by codimension and face size; each group gets its barycenters,
face bases and cone bases from one stacked SVD and matmul, its cone solvers
from one stacked inverse, and its quadrature from one (pairs x nodes) array
per level, with the same checks and the same bits as one pair at a time,
and ``solid_angle`` runs a stack of one.  Only the sampling and counting of
Monte Carlo pairs go to the thread pool, each pair with its solver.

The thread pool is process-wide: one ``ThreadPoolExecutor`` per thread
count, started on first use and kept, so a fill of a few Monte Carlo pairs
pays no thread start-up; an executor starts a thread only when none is idle,
so a fill of k pairs starts at most k.  A fork hook forgets the pools in the
child, which has none of its parent's threads.  Every caller fills before it
evaluates; ``sommerville_residuals`` fills every pair of its simplex, so a
sweep over one simplex's faces runs its Monte Carlo angles as one parallel
fill.

Monte Carlo streams are counter-based: each (seed, face index, top index)
keys one SFC64 stream through a ``SeedSequence``, drawn in blocks of
``STREAM_BLOCK_VECTORS`` vectors, so results are reproducible bit-for-bit
regardless of thread count, evaluation order or block size.  The membership
count is the single numpy kernel in ``simcurv._kernels``.

Linear combinations of angles are held as ``_AngleForm``s: an integer
constant and integer coefficients on (face, top-simplex) pairs, all over one
common denominator, evaluated against an ``AngleCache`` filled with their
pairs.  Each angle is weighted by ``c / den``, which Python rounds
correctly, so the terms are the floats ``Fraction`` weights give, and
``math.fsum`` rounds their exact sum once.  Forms hold no pair of
codimension 0 or 1: ``_AngleForm.add_angles``, the one place that writes
this fold, adds those angles, the constants 1 and 1/2, to the form's
integer constant, so a fill computes no cone generators for them.
Sommerville's identity is one such form, halved for its defect form; the
curvatures and the other theorem checks in ``simcurv.curvature`` build
theirs from the same class.
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
from simcurv.complexes import Simplex, SimplicialComplex, _integer, as_simplex

DEGENERACY_TOL = 1e-9
_RANK_TOL = 1e-10
# Gaussian vectors drawn per stream block of a Monte Carlo angle
STREAM_BLOCK_VECTORS = 1 << 18


class GeometryError(ValueError):
    """Geometric inconsistency: degenerate simplex, bad face pair, etc."""


class DegeneratePositionError(GeometryError):
    """Input points are too close to a degenerate position; perturb them."""


def default_thread_count() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass(frozen=True)
class AngleConfig:
    """Monte Carlo settings for solid-angle estimation.

    ``samples`` counts cone tests per angle.  Each Gaussian vector gives 2c
    at codimension c (its c cyclic shifts, each against the cone and its
    mirror image), so an angle draws ceil(samples / 2c) vectors and reports
    ``AngleValue.samples`` = 2c ceil(samples / 2c): 400,002 for 400,000 at
    c = 3.
    """

    samples: int = 1_000_000
    seed: int = 0
    threads: int | None = None

    def __post_init__(self):
        # numpy integers are stored as ints: a numpy seed overflows the stream key
        for name in ("samples", "seed") if self.threads is None else ("samples", "seed", "threads"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.samples < 1000:
            raise ValueError("samples must be at least 1000")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")

    def resolved_threads(self) -> int:
        return self.threads if self.threads is not None else default_thread_count()


@dataclass(frozen=True)
class AngleValue:
    """A normalized angle in [0, 1] with its provenance.

    Exact angles (method ``exact``, no standard error) are the constants 1
    and 1/2 at codimension 0 and 1 and the wedge angles at codimension 2;
    forms never hold the constants, which they fold into their constant.
    Quadrature angles (codimension 4 and 5) have no standard error either;
    ``abs_error``, at most 1e-12, bounds their quadrature and rounding error.
    """

    value: float
    std_error: float
    method: str  # "exact" | "quadrature" | "monte_carlo"
    samples: int = 0
    abs_error: float = 0.0  # a bound on |value - angle| of a quadrature angle

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"angle {self.value} outside [0, 1]")
        if (self.std_error == 0.0) == (self.method == "monte_carlo"):
            raise ValueError("std_error must be zero exactly for exact and quadrature angles")


class EmbeddedComplex:
    """A simplicial complex together with vertex coordinates in R^d."""

    def __init__(
        self,
        complex: SimplicialComplex,
        coordinates: Mapping[int, Sequence[float]],
        ambient_dim: int | None = None,
    ):
        self.complex = complex
        coords = {_integer(v, "vertex id"): np.asarray(p, float) for v, p in coordinates.items()}
        for v, p in coords.items():
            if p.ndim != 1:
                raise GeometryError(f"coordinates of vertex {v} are not a vector: shape {p.shape}")
        dims = {p.shape for p in coords.values()}
        if len(dims) > 1:
            raise GeometryError(f"inconsistent coordinate lengths: {dims}")
        finite = np.isfinite(np.array(list(coords.values()))).all(axis=-1)
        if not finite.all():
            raise GeometryError(f"vertex {list(coords)[finite.argmin()]} has a non-finite coordinate")
        d = next(iter(dims))[0] if dims else 0
        self.ambient_dim = _integer(ambient_dim, "ambient_dim") if ambient_dim is not None else d
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
        # one stacked SVD per maximal-simplex size; the first degenerate
        # simplex in ``complex.maximal`` order is the one reported
        maximal = list(complex.maximal)
        sizes: dict[int, list[int]] = {}
        for index, m in enumerate(maximal):
            sizes.setdefault(len(m), []).append(index)
        degenerate = []
        for size, indices in sizes.items():
            if size < 2:
                continue
            points = np.array([[coords[v] for v in maximal[i]] for i in indices])
            s = np.linalg.svd(points[:, 1:] - points[:, :1], compute_uv=False)
            # relative to each simplex's largest singular value, so a shape's
            # rank does not depend on its size
            rank = (s > _RANK_TOL * s[:, :1]).sum(axis=1)
            degenerate += [indices[j] for j in np.flatnonzero(rank != size - 1)]
        if degenerate:
            raise GeometryError(f"simplex {maximal[min(degenerate)]} is affinely degenerate")

    def points(self, simplex: Iterable[int]) -> np.ndarray:
        return np.array([self.coordinates[v] for v in simplex], dtype=float)

    def barycenter(self, simplex: Iterable[int]) -> np.ndarray:
        return self.points(simplex).mean(axis=0)

    def barycenters(self, simplices: Sequence[Sequence[int]]) -> np.ndarray:
        """The barycenters of ``simplices`` as the rows of one array, in order,
        with one stacked mean per simplex size (the same bits as
        ``barycenter``)."""
        rows: dict[int, list[int]] = {}
        for i, simplex in enumerate(simplices):
            rows.setdefault(len(simplex), []).append(i)
        coords = self.coordinates
        centers = np.empty((len(simplices), self.ambient_dim))
        for indices in rows.values():
            points = np.array([[coords[v] for v in simplices[i]] for i in indices])
            centers[indices] = points.mean(axis=1)
        return centers

    def __repr__(self) -> str:
        return f"EmbeddedComplex(dim={self.complex.dim}, ambient={self.ambient_dim})"


def _orthonormal_rows(vectors: np.ndarray, expect_rank: int) -> np.ndarray:
    """Orthonormal bases (rows) of the row spaces of a (k, m, d) stack of
    matrices, as a (k, expect_rank, d) stack; errors if a rank is short."""
    _, s, vt = np.linalg.svd(vectors, full_matrices=False)
    # relative to each matrix's largest singular value, as in EmbeddedComplex
    rank = (s > _RANK_TOL * s[:, :1]).sum(axis=1)
    short = np.flatnonzero(rank != expect_rank)
    if short.size:
        raise GeometryError(
            f"degenerate configuration: affine rank {rank[short[0]]}, expected {expect_rank}"
        )
    return vt[:, :expect_rank]


def _pair_stream(cfg: AngleConfig, eta_index: int, sigma_index: int):
    seq = np.random.SeedSequence(
        entropy=cfg.seed & (1 << 64) - 1,  # SeedSequence wants non-negative entropy
        spawn_key=(eta_index, sigma_index, 0),
    )
    return np.random.Generator(np.random.SFC64(seq))


def _estimate_cone_fraction(
    solve_t: np.ndarray, cfg: AngleConfig, eta_index: int, sigma_index: int
) -> tuple[float, float, int]:
    """Estimate of the cone's Gaussian measure p from 2c images per vector.

    Returns (p, std_error, n), where n = 2c ceil(cfg.samples / 2c) cone tests
    were made on n / 2c Gaussian vectors (at least 2).
    """
    c = solve_t.shape[0]
    images = 2 * c
    vectors = max(-(-cfg.samples // images), 2)
    rng = _pair_stream(cfg, eta_index, sigma_index)
    hits = square_sum = 0
    done = 0
    while done < vectors:
        size = min(STREAM_BLOCK_VECTORS, vectors - done)
        block_hits, block_squares = count_cone_hits(rng.standard_normal((size, c)), solve_t)
        hits += block_hits
        square_sum += block_squares
        done += size
    n = images * vectors
    p = hits / n
    # p is the mean of the per-vector count X over 2c; the sample variance of
    # X, from exact integer sums, holds whether or not the images overlap
    variance = (vectors * square_sum - hits * hits) / (vectors * (vectors - 1))
    std_error = max(math.sqrt(variance / vectors) / images, 1.0 / n)
    return p, std_error, n


def _cone_generators(
    pairs: Sequence[tuple[Simplex, Simplex]], embedded: EmbeddedComplex
) -> np.ndarray:
    """Cone generators of canonical (face, simplex) pairs that share one face
    size and one codimension c, stacked as a (k, c, c) array: entry n holds
    the generators of pair n as rows (see ``projected_cone_generators``).

    The barycenters, face bases and cone bases of the whole stack come from
    one stacked SVD and matmul each, which gives the same bits as doing them
    pair by pair.
    """
    coords = embedded.coordinates
    faces, opposite = [], []
    for eta, sigma in pairs:
        if not set(eta) <= set(sigma):
            raise GeometryError(f"{eta} is not a face of {sigma}")
        if sigma not in embedded.complex:
            raise KeyError(f"simplex {sigma} is not in the complex")
        faces.append([coords[v] for v in eta])
        opposite.append([coords[v] for v in sigma if v not in eta])
    c = len(opposite[0])
    if c == 0:
        return np.zeros((len(pairs), 0, 0))
    faces = np.array(faces)
    x = faces.mean(axis=1, keepdims=True)
    directions = np.array(opposite) - x
    i = faces.shape[1] - 1
    if i > 0:
        face_basis = _orthonormal_rows(faces - x, i)
        directions = directions - (directions @ face_basis.swapaxes(1, 2)) @ face_basis
    basis = _orthonormal_rows(directions, c)
    return directions @ basis.swapaxes(1, 2)


def projected_cone_generators(
    eta: Simplex, sigma: Simplex, embedded: EmbeddedComplex
) -> np.ndarray:
    """Generators of the cone of sigma along eta, expressed in an orthonormal
    basis of the orthogonal complement of aff(eta) inside aff(sigma).

    Returns a (c, c) matrix whose rows are the generators, c = codimension.
    """
    return _cone_generators([(as_simplex(eta), as_simplex(sigma))], embedded)[0]


def _wedge_angles(generators: np.ndarray) -> list[AngleValue]:
    values = []
    for (u0, u1), (v0, v1) in generators.tolist():
        # atan2 keeps full relative precision for thin wedges, where acos of
        # the cosine rounds to 0
        theta = math.atan2(abs(u0 * v1 - u1 * v0), u0 * v0 + u1 * v1)
        values.append(AngleValue(theta / (2.0 * math.pi), 0.0, "exact"))
    return values


# Tanh-sinh nodes on [0, 1] (Takahasi & Mori, Publ. RIMS 9:721, 1974):
# t = 1 / (1 + exp(-pi sinh u)), with weight dt/du = pi cosh u / (2 + 2 cosh(pi
# sinh u)).  Level 0 steps u by 1/8 over |u| <= 3.5, where the weights fall
# below 1e-21; each later level halves the step and holds only its new, odd
# nodes, so the sum over levels 0..L is the rule at step 2^-(L+3).
def _tanh_sinh_levels() -> list[tuple[float, np.ndarray, np.ndarray]]:
    table = []
    for level in range(5):
        h = 0.125 / 2**level
        k = np.arange(-math.floor(3.5 / h), math.floor(3.5 / h) + 1)
        u = (k[k % 2 == 1] if level else k) * h
        x = math.pi * np.sinh(u)
        table.append((h, 1.0 / (1.0 + np.exp(-x)), math.pi * np.cosh(u) / (2.0 + 2.0 * np.cosh(x))))
    return table


_TANH_SINH = _tanh_sinh_levels()
# a row is refined until its last two levels differ by at most _QUAD_TOL; an
# angle whose error bound exceeds _QUAD_MAX_ERROR goes to Monte Carlo
_QUAD_TOL = 1e-13
_QUAD_MAX_ERROR = 1e-12
# matrices per quadrature array: a (rows, pairs, c - 2, nodes) array stays
# under 7 MB at c = 5 on the finest level
_QUAD_CHUNK_ROWS = 64


def _plackett_plan(c: int) -> tuple[np.ndarray, ...]:
    """Index arrays of Plackett's sum at dimension c: the pairs i < j, the
    other c - 2 indices of each pair, and the pairs among those."""
    pairs = list(combinations(range(c), 2))
    rest = [[k for k in range(c) if k not in pair] for pair in pairs]
    inner = list(combinations(range(c - 2), 2))
    return (
        np.array([i for i, _ in pairs]),
        np.array([j for _, j in pairs]),
        np.array(rest),
        np.array([a for a, _ in inner]),
        np.array([b for _, b in inner]),
    )


_PLACKETT_PLANS = {c: _plackett_plan(c) for c in (4, 5)}


def _plackett_rate(rho: np.ndarray, t: np.ndarray) -> np.ndarray:
    """dP/dt at the nodes ``t`` for each matrix of a (k, c, c) stack of
    correlation matrices R, c = 4 or 5, where P(t) is the orthant probability
    of R(t) = I + t (R - I).  By Plackett's reduction (Biometrika 41:351,
    1954) dP/dt is the sum over i < j of rho_ij phi_2(0, 0; t rho_ij) times
    the orthant probability of the other c - 2 variables given X_i = X_j = 0,
    a closed form in arcsines for c - 2 = 2 or 3.  Returns a (k, nodes) array.
    Only the upper triangle of R is read, so R is symmetric by construction.
    """
    i, j, rest, first, second = _PLACKETT_PLANS[rho.shape[1]]

    def entry(a, b):
        return rho[:, np.minimum(a, b), np.maximum(a, b)]

    rho_ij = entry(i, j)  # (k, pairs)
    rho_ki = entry(rest, i[:, None])  # (k, pairs, c - 2)
    rho_kj = entry(rest, j[:, None])
    rho_kl = entry(rest[:, first], rest[:, second])  # (k, pairs, inner pairs)
    r = rho_ij[..., None] * t  # (k, pairs, nodes)
    det = 1.0 - r * r
    # The 2x2 Schur complement written out: given X_i = X_j = 0, X_k and X_l
    # have covariance t rho_kl - t^2 x_k^T A^-1 x_l with x_k = (rho_ki, rho_kj)
    # and A = [[1, r], [r, 1]], whose inverse is [[1, -r], [-r, 1]] / det.
    q = (t * t / det)[:, :, None, :]
    r = r[:, :, None, :]
    var = 1.0 - q * ((rho_ki * rho_ki + rho_kj * rho_kj)[..., None] - r * (2.0 * rho_ki * rho_kj)[..., None])
    a = rho_ki[..., first] * rho_ki[..., second] + rho_kj[..., first] * rho_kj[..., second]
    b = rho_ki[..., first] * rho_kj[..., second] + rho_kj[..., first] * rho_ki[..., second]
    cov = rho_kl[..., None] * t - q * (a[..., None] - r * b[..., None])
    corr = np.clip(cov / np.sqrt(var[:, :, first] * var[:, :, second]), -1.0, 1.0)
    # P_2 = 1/4 + asin(rho) / (2 pi); P_3 = 1/8 + (sum of 3 arcsines) / (4 pi)
    m = rest.shape[1]
    conditional = 2.0**-m + np.arcsin(corr).sum(axis=2) / (2.0 ** (m - 1) * math.pi)
    return (rho_ij[..., None] / (2.0 * math.pi * np.sqrt(det)) * conditional).sum(axis=1)


def _orthant_quadrature(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthant probabilities P(X >= 0), X ~ N(0, R), of a (k, c, c) stack of
    correlation matrices at c = 4 or 5: 2^-c plus the integral of
    ``_plackett_rate`` over [0, 1] by nested tanh-sinh levels.  Returns the
    values and the difference of each row's last two levels; only rows whose
    levels still differ by more than ``_QUAD_TOL`` get the next level.
    """
    k, c, _ = rho.shape
    sums = np.zeros(k)
    values = np.zeros(k)
    errors = np.zeros(k)
    active = np.arange(k)
    for h, t, w in _TANH_SINH:
        sums[active] += (_plackett_rate(rho[active], t) * w).sum(axis=1)
        estimate = h * sums[active]
        # on level 0 this is the integral itself, which is a bound when the
        # integrand is so small that it stops there
        errors[active] = np.abs(estimate - values[active])
        values[active] = estimate
        active = active[errors[active] > _QUAD_TOL]
        if not active.size:
            break
    return 2.0**-c + values, errors


def _quadrature_angles(solve_t: np.ndarray) -> list[AngleValue | None]:
    """Angles at c = 4 or 5 of a (k, c, c) stack of cone solvers ``solve_t``,
    the matrices the Monte Carlo count tests samples against, as orthant
    probabilities: P(m >= 0) for m ~ N(0, R), R the correlation matrix of
    the columns of ``solve_t``.

    Each angle's ``abs_error`` is the difference of its last two quadrature
    levels plus eps cond(R), a bound on what rounding R and the integrand
    costs; a pair whose bound exceeds ``_QUAD_MAX_ERROR`` gets None, and so
    its Monte Carlo estimate.
    """
    covariance = solve_t.swapaxes(1, 2) @ solve_t
    scale = 1.0 / np.sqrt(np.diagonal(covariance, axis1=1, axis2=2))
    rho = covariance * scale[:, :, None] * scale[:, None, :]
    rounding = np.finfo(float).eps * np.linalg.cond(rho)
    angles: list[AngleValue | None] = [None] * len(solve_t)
    rows = np.flatnonzero(rounding <= _QUAD_MAX_ERROR)
    for start in range(0, rows.size, _QUAD_CHUNK_ROWS):
        chunk = rows[start : start + _QUAD_CHUNK_ROWS]
        values, errors = _orthant_quadrature(rho[chunk])
        for row, value, bound in zip(chunk.tolist(), values.tolist(), (errors + rounding[chunk]).tolist()):
            if bound <= _QUAD_MAX_ERROR:
                angles[row] = AngleValue(min(max(value, 0.0), 1.0), 0.0, "quadrature", abs_error=bound)
    return angles


# The closed forms, keyed by codimension: each maps a (k, c, c) stack of cone
# generators to k angles.  A simplex along itself has the angle 1 and along a
# facet 1/2; codimension 2 is a wedge.
_CLOSED_FORMS = {
    0: lambda generators: [AngleValue(1.0, 0.0, "exact")] * len(generators),
    1: lambda generators: [AngleValue(0.5, 0.0, "exact")] * len(generators),
    2: _wedge_angles,
}


def _stacked_angles(
    pairs: Sequence[tuple[Simplex, Simplex]], embedded: EmbeddedComplex
) -> tuple[list[AngleValue | None], np.ndarray | None]:
    """The angles of canonical (face, simplex) pairs that share one face size
    and one codimension c, from one stacked set-up: their cone generators,
    with every check ``projected_cone_generators`` makes, and at c >= 3
    their solvers ``solve_t`` from one stacked inverse, a (k, c, c) array.

    An angle is None where Monte Carlo estimates it: at c = 3 and c >= 6,
    and at c = 4 and 5 where the quadrature bound is too large.
    ``solid_angle`` samples such a pair with its row of ``solve_t``.
    """
    generators = _cone_generators(pairs, embedded)
    c = generators.shape[1]
    if c in _CLOSED_FORMS:
        return _CLOSED_FORMS[c](generators), None
    try:
        solve_t = np.linalg.inv(generators.swapaxes(1, 2)).swapaxes(1, 2)
    except np.linalg.LinAlgError:
        for pair, matrix in zip(pairs, generators):  # name the first singular pair
            try:
                np.linalg.inv(matrix.T)
            except np.linalg.LinAlgError as exc:
                raise GeometryError(f"singular cone generators for {pair}") from exc
        raise
    return (_quadrature_angles(solve_t) if c in (4, 5) else [None] * len(pairs)), solve_t


def solid_angle(
    eta: Simplex,
    sigma: Simplex,
    embedded: EmbeddedComplex,
    cfg: AngleConfig | None = None,
    solve_t: np.ndarray | None = None,
) -> AngleValue:
    """Normalized solid angle of ``sigma`` along its face ``eta``.

    The value only depends on the intrinsic geometry of sigma, never on the
    ambient embedding dimension.  The pair is set up as a stack of one, as
    ``AngleCache.fill`` sets up each group.  ``fill`` passes a Monte Carlo
    pair its (c, c) solver ``solve_t`` from its group's stacked set-up, and
    then the call only samples and counts.
    """
    cfg = cfg or AngleConfig()
    pair = (as_simplex(eta), as_simplex(sigma))
    if solve_t is None:
        (angle,), solvers = _stacked_angles([pair], embedded)
        if angle is not None:
            return angle
        solve_t = solvers[0]
    index_of = embedded.complex.index_of
    value, std_error, samples = _estimate_cone_fraction(solve_t, cfg, index_of(pair[0]), index_of(pair[1]))
    return AngleValue(value, std_error, "monte_carlo", samples=samples)


# Process-wide thread pools for ``AngleCache.fill``, one per thread count.  A
# pool kept between fills costs no thread start-up per call; a forked child
# has none of its parent's threads, so it starts with no pools.
_POOLS: dict[int, ThreadPoolExecutor] = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOLS.clear)


def _pool(workers: int) -> ThreadPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        # setdefault is atomic: concurrent fills all get the pool stored first
        # (an executor starts no thread before its first task)
        pool = _POOLS.setdefault(workers, ThreadPoolExecutor(max_workers=workers))
    return pool


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
        canonical = self.embedded.complex.canonical
        key = (canonical(eta), canonical(sigma))
        if key not in self._values:
            self.fill([key])
        return self._values[key]

    def fill(self, pairs: Iterable[tuple[Simplex, Simplex]]) -> None:
        """Compute a batch of pairs: one stacked set-up per codimension and
        face size (see ``_stacked_angles``) gives the closed forms and
        quadratures inline and each Monte Carlo pair its solver, and the
        Monte Carlo pairs are then sampled in parallel when configured.
        Every pair is checked before any is sampled, and a pair cached as
        given is skipped without being converted.

        Results are identical to sequential evaluation: each Monte Carlo pair
        draws from its own counter-based stream.  The worker threads belong
        to a process-wide pool per thread count, kept from one fill to the
        next.
        """
        values, canonical = self._values, self.embedded.complex.canonical
        # only tuples are looked up as given: a list or array does not hash
        pending = {
            (canonical(e), canonical(s))
            for e, s in pairs
            if not (type(e) is tuple and type(s) is tuple and (e, s) in values)
        }
        groups: dict[tuple[int, int], list[tuple[Simplex, Simplex]]] = {}
        for eta, sigma in sorted(pending - values.keys()):
            groups.setdefault((len(sigma) - len(eta), len(eta)), []).append((eta, sigma))
        todo = []
        for group in groups.values():
            angles, solve_t = _stacked_angles(group, self.embedded)
            for n, (pair, angle) in enumerate(zip(group, angles)):
                if angle is None:
                    todo.append((*pair, solve_t[n]))
                else:
                    values[pair] = angle
        threads = self.cfg.resolved_threads()
        mapper = _pool(threads).map if threads > 1 and len(todo) > 1 else map
        # one solid_angle call per Monte Carlo angle, looked up at call time
        results = mapper(lambda job: solid_angle(job[0], job[1], self.embedded, self.cfg, job[2]), todo)
        values.update(zip((job[:2] for job in todo), results))


def _require_cache(
    embedded: EmbeddedComplex, cfg: AngleConfig | None, cache: AngleCache | None
) -> AngleCache:
    """``cache``, or a new cache for ``embedded`` and ``cfg`` when it is None;
    a cache built for any other ``EmbeddedComplex``, or a ``cfg`` other than
    the cache's own, raises ValueError."""
    if cache is None:
        return AngleCache(embedded, cfg)
    if cache.embedded is not embedded:
        raise ValueError("angle cache belongs to a different embedded complex")
    if cfg is not None and cfg != cache.cfg:
        raise ValueError(f"cfg {cfg} differs from the angle cache's {cache.cfg}")
    return cache


@dataclass(frozen=True)
class CurvatureValue:
    """A combination of angles and its propagated standard error; it is exact
    when that is 0, which no Monte Carlo angle's (>= 1 / N) allows."""

    value: float
    std_error: float

    @property
    def exact(self) -> bool:
        return self.std_error == 0.0


@dataclass
class _AngleForm:
    """(const + sum(coeffs[pair] * angle(pair))) / den, with integer
    numerators over one common positive denominator."""

    const: int = 0
    coeffs: dict[tuple[Simplex, Simplex], int] = field(default_factory=dict)
    den: int = 1

    def add_angles(self, eta: Simplex, tops: Sequence[Simplex], c: int) -> None:
        """Add ``c / den`` times the angle of each simplex of ``tops`` along
        their common face ``eta``; the tops share one dimension.

        At codimension 0 or 1 the angles are the constants 1 and 1/2, and
        ``c`` is even, so they go whole into ``const``.  Otherwise the pairs
        are written, not merged: none may be in the form yet.
        """
        if not tops:
            return
        codim = len(tops[0]) - len(eta)
        if codim <= 1:
            self.const += c * len(tops) >> codim
            return
        coeffs = self.coeffs
        for sigma in tops:
            coeffs[(eta, sigma)] = c

    def evaluate(self, cache: AngleCache) -> CurvatureValue:
        """The form's value against a cache already filled with its pairs:
        const / den plus each angle times the weight c / den.  Integer true
        division is correctly rounded, so every float is the one a
        ``Fraction`` of the same value converts to, and ``math.fsum`` rounds
        the exact sum of the terms, and apart from it of the variance terms,
        once, whatever the order and number of the terms."""
        den = self.den
        values = cache._values  # form keys are canonical, like the cache's
        terms, variances = [self.const / den], []
        for pair, c in self.coeffs.items():
            angle = values[pair]
            weight = c / den
            terms.append(weight * angle.value)
            variances.append((weight * angle.std_error) ** 2)
        return CurvatureValue(math.fsum(terms), math.sqrt(math.fsum(variances)))


def top_angle_pairs(complex: SimplicialComplex) -> list[tuple[Simplex, Simplex]]:
    """All (face, top-simplex) incidences, in canonical order."""
    pairs = []
    for sigma in complex.simplices(complex.dim):
        pairs.append((sigma, sigma))
        for k in range(1, len(sigma)):
            pairs.extend((f, sigma) for f in combinations(sigma, k))
    return sorted(pairs)


# -- Sommerville's alternating angle-sum identity ---------------------------


def _sommerville_form(sigma: Simplex, tau: Simplex) -> _AngleForm:
    """The alternating residual of Sommerville's identity for the odd
    n-simplex sigma and its even face tau (dim p <= n - 2), as a form."""
    n = len(sigma) - 1
    p = len(tau) - 1
    if n % 2 == 0 or n < 3:
        raise ValueError(f"simplex dimension must be odd and >= 3, got {n}")
    if p % 2 == 1 or p > n - 2:
        raise ValueError(f"face dimension must be even and <= {n - 2}, got {p}")
    if not set(tau) <= set(sigma):
        raise GeometryError(f"{tau} is not a face of {sigma}")
    extra = [v for v in sigma if v not in tau]
    # over the denominator 2, so the facets' angles 1/2 fold into the constant
    form = _AngleForm(coeffs={(tau, sigma): -4}, den=2)
    for i in range(p + 1, n + 1):
        for rest in combinations(extra, i - p):
            eta = tuple(sorted(tau + rest))  # canonical: tau and rest come from sigma
            form.add_angles(eta, (sigma,), 2 * (-1) ** (i - p + 1))
    return form


def _sommerville_fields(alt: CurvatureValue) -> dict:
    """Sommerville's alternating residual ``alt`` and the defect form's, its exact -1/2."""
    return {
        "alternating_residual": alt.value,
        "alternating_std_error": alt.std_error,
        "defect_residual": -alt.value / 2 + 0.0,  # a zero sum is 0.0, not -0.0
        "defect_std_error": alt.std_error / 2,
    }


def sommerville_residuals(
    sigma: Simplex,
    tau: Simplex,
    embedded: EmbeddedComplex,
    cfg: AngleConfig | None = None,
    cache: AngleCache | None = None,
) -> dict:
    """Residuals of Sommerville's cone identity for an odd simplex dimension.

    For an n-simplex sigma (n odd >= 3) and an even-dimensional face tau of
    dimension p <= n - 2, the identity has two equivalent forms:

    * alternating form:  sum_{i=p+1}^{n} (-1)^(i-p+1) sum_eta alpha(eta, sigma)
      minus 2 alpha(tau, sigma);
    * defect form:       alpha(tau, sigma)
      - 1/2 sum_{i=p+1}^{n-2} (-1)^(i+1) sum_eta alpha(eta, sigma)
      minus (1/2 - (n-p)/4).

    The faces of dimension n - 1 and n have the angles 1/2 and 1, so the
    defect form is -1/2 times the alternating one, the only one built and
    evaluated; halving is exact, so the defect residual and its standard
    error are the bits the defect form would give.  The cache, the caller's
    or a private one, is first filled in one batch with (eta, sigma) for
    each face eta of codimension >= 2, so a sweep over the taus of sigma
    with one cache computes all its Monte Carlo angles in one parallel fill.
    """
    sigma, tau = as_simplex(sigma), as_simplex(tau)
    form = _sommerville_form(sigma, tau)
    book = _require_cache(embedded, cfg, cache)
    # the pairs of every form on sigma: its faces of codimension >= 2
    book.fill((eta, sigma) for k in range(1, len(sigma) - 1) for eta in combinations(sigma, k))
    return {
        "sigma": sigma,
        "tau": tau,
        "defect_rhs": Fraction(2 - len(sigma) + len(tau), 4),
        **_sommerville_fields(form.evaluate(book)),
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
    if d < 2:
        raise GeometryError(f"points must lie in R^d with d >= 2, got d = {d}")
    if m < d + 1:
        raise GeometryError(f"need at least {d + 1} points in R^{d}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise GeometryError(f"point {finite.argmin()} has a non-finite coordinate")
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
