"""Embedded corpus generators: sphere boundaries, books, joins, cones.

All generators use dense 0-based vertex ids so the JSON round-trip through
the positional file format is the identity.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import numpy as np

from simcurv.complexes import (
    SimplicialComplex,
    _integer,
    cone_complex,
    join_complexes,
    suspension_complex,
)
from simcurv.geometry import EmbeddedComplex, GeometryError


def regular_simplex_points(n: int) -> np.ndarray:
    """Vertices of a regular n-simplex in R^n (edge length sqrt(2))."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    corners = np.eye(n + 1) - np.full((n + 1, n + 1), 1.0 / (n + 1))
    # rows live in the sum-zero hyperplane; express them in an orthonormal
    # basis of that hyperplane to drop into R^n
    _, _, vt = np.linalg.svd(corners, full_matrices=False)
    return corners @ vt[:n].T


def solid_simplex(n: int) -> EmbeddedComplex:
    """A single regular n-simplex with its full face lattice."""
    points = regular_simplex_points(n)
    complex = SimplicialComplex([tuple(range(n + 1))])
    return EmbeddedComplex(complex, dict(enumerate(points)), n)


def boundary_of_simplex(n: int) -> EmbeddedComplex:
    """The (n-1)-sphere formed by the proper facets of a regular n-simplex."""
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("n must be at least 2")
    points = regular_simplex_points(n)
    ids = range(n + 1)
    maximal = [tuple(v for v in ids if v != skip) for skip in ids]
    return EmbeddedComplex(SimplicialComplex(maximal), dict(enumerate(points)), n)


def cross_polytope(n: int) -> EmbeddedComplex:
    """Boundary of the n-dimensional cross-polytope (vertices +-e_i)."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    coords = {}
    for i in range(n):
        plus = np.zeros(n)
        plus[i] = 1.0
        coords[2 * i] = plus
        coords[2 * i + 1] = -plus
    maximal = []
    for signs in range(2**n):
        maximal.append(tuple(2 * i + ((signs >> i) & 1) for i in range(n)))
    return EmbeddedComplex(SimplicialComplex(maximal), coords, n)


def isolated_points(positions: list[float]) -> EmbeddedComplex:
    complex = SimplicialComplex([(i,) for i in range(len(positions))])
    coords = {i: np.array([x]) for i, x in enumerate(positions)}
    return EmbeddedComplex(complex, coords, 1)


def embedded_join(
    left: EmbeddedComplex, right: EmbeddedComplex
) -> tuple[EmbeddedComplex, dict[int, int]]:
    """Geometric join: the factors are placed in orthogonal coordinate blocks
    separated along one extra axis, which makes every joined simplex
    affinely independent.  Returns the join and the id mapping applied to the
    right factor."""
    d1, d2 = left.ambient_dim, right.ambient_dim
    complex, mapping = join_complexes(left.complex, right.complex)
    coords: dict[int, np.ndarray] = {}
    for v in left.complex.vertices():
        coords[v] = np.concatenate([left.coordinates[v], np.zeros(d2), [0.0]])
    for v in right.complex.vertices():
        coords[mapping[v]] = np.concatenate(
            [np.zeros(d1), right.coordinates[v], [1.0]]
        )
    return EmbeddedComplex(complex, coords, d1 + d2 + 1), mapping


def _lifted(
    base: EmbeddedComplex, complex: SimplicialComplex, heights: dict[int, float]
) -> EmbeddedComplex:
    """``complex`` on the base vertices at height 0 in one new dimension, and
    on new vertices over the base centroid at the given heights."""
    coords = {v: np.concatenate([p, [0.0]]) for v, p in base.coordinates.items()}
    centroid = np.mean([base.coordinates[v] for v in base.complex.vertices()], axis=0)
    for v, height in heights.items():
        coords[v] = np.concatenate([centroid, [height]])
    return EmbeddedComplex(complex, coords, base.ambient_dim + 1)


def embedded_cone(base: EmbeddedComplex) -> tuple[EmbeddedComplex, int]:
    """Cone with its apex one unit above the centroid, in one new dimension."""
    complex, apex = cone_complex(base.complex)
    return _lifted(base, complex, {apex: 1.0}), apex


def embedded_suspension(base: EmbeddedComplex) -> tuple[EmbeddedComplex, tuple[int, int]]:
    """Suspension with poles one unit above and below the centroid."""
    complex, (north, south) = suspension_complex(base.complex)
    return _lifted(base, complex, {north: 1.0, south: -1.0}), (north, south)


def triple_book() -> EmbeddedComplex:
    """Three tetrahedra glued along one shared triangle (vertices 0,1,2;
    apexes 3,4,5), embedded without self-intersection via a geometric join."""
    joined, _ = embedded_join(solid_simplex(2), isolated_points([-1.0, 0.0, 1.0]))
    return joined


def join_of_sphere_boundaries(a: int = 2, b: int = 2) -> EmbeddedComplex:
    """Geometric join of two simplex-boundary spheres."""
    a, b = _integer(a, "a"), _integer(b, "b")
    joined, _ = embedded_join(boundary_of_simplex(a), boundary_of_simplex(b))
    return joined


def random_simplex(n: int, seed: int = 0) -> EmbeddedComplex:
    """One solid n-simplex with Gaussian vertices, retried until well shaped;
    a negative seed is taken modulo 2^64, as the Monte Carlo streams take it."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    seed = _integer(seed, "seed") & (1 << 64) - 1
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    for _ in range(100):
        points = rng.standard_normal((n + 1, n))
        edges = points[1:] - points[0]
        s = np.linalg.svd(edges, compute_uv=False)
        if s.min() > 1e-2 * s.max():
            complex = SimplicialComplex([tuple(range(n + 1))])
            return EmbeddedComplex(complex, dict(enumerate(points)), n)
    raise GeometryError("could not sample a non-degenerate simplex")


def seven_point_configuration() -> np.ndarray:
    """The shipped 7-point set in R^5: a triangle, two suspension points off
    the triangle plane, and two cone apexes, all nudged by fixed small
    rationals into general position.  Exact coordinates live in
    ``data/seven_point_configuration.json``."""
    text = (
        resources.files("simcurv.data")
        .joinpath("seven_point_configuration.json")
        .read_text()
    )
    payload = json.loads(text)
    return np.array(
        [[float(Fraction(entry)) for entry in row] for row in payload["points"]]
    )
