"""Stellar and barycentric subdivision of embedded complexes, with carriers.

The carrier of a refined simplex is the unique base simplex whose relative
interior contains its barycenter: the union of its vertices' carriers.  The
constructions and ``compute_carriers`` give the vertices' carriers, and
``SubdivisionPair`` takes every union once.  Only ``compute_carriers``
locates anything: one least-squares solve of barycentric coordinates per
base top simplex for every point still unlocated (tolerance 1e-9).
``stellar_subdivide`` tests its point with the same solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from simcurv.complexes import Simplex, SimplicialComplex, as_simplex
from simcurv.geometry import DEGENERACY_TOL, EmbeddedComplex, GeometryError


@dataclass
class SubdivisionPair:
    """A base complex, a refinement covering the same point set, and the
    carrier map from refined simplices to base simplices.

    ``carrier`` needs an entry for every refined vertex; these are trusted.
    Construction stores the full map in ``carrier``, deriving each other
    simplex's carrier as the union of its vertices' carriers: the base
    simplex on which its barycenter's coordinates are positive.  It raises
    ValueError for complexes of different (ambient) dimensions, a missing
    vertex entry, an entry outside the refined complex, a carrier outside
    the base complex, or a wrong union."""

    base: EmbeddedComplex
    refined: EmbeddedComplex
    carrier: dict[Simplex, Simplex]

    def __post_init__(self):
        (d, n), (rd, rn) = [(e.complex.dim, e.ambient_dim) for e in (self.base, self.refined)]
        if (d, n) != (rd, rn):
            raise ValueError(
                f"the refined complex has dimension {rd} in R^{rn}, the base complex {d} in R^{n}"
            )
        given, self.carrier = self.carrier, {}
        for tau in self.refined.complex.simplices():  # vertices come first
            if len(tau) == 1 and tau not in given:
                raise ValueError(f"refined vertex {list(tau)} has no carrier entry")
            union = tuple(sorted({w for v in tau for w in given[(v,)]}))
            zeta = given.get(tau, union)
            if zeta not in self.base.complex:
                raise ValueError(
                    f"carrier {list(zeta)} of {list(tau)} is not a simplex of the base complex"
                )
            if zeta != union:
                raise ValueError(
                    f"carrier {list(zeta)} of {list(tau)} is not {list(union)}, "
                    f"the union of its vertices' carriers"
                )
            self.carrier[tau] = zeta
        for tau in given:
            if tau not in self.carrier:
                raise ValueError(
                    f"carrier entry for {list(tau)}, which is not a simplex of the refined complex"
                )


def _barycentric(embedded: EmbeddedComplex, simplex: Simplex, targets: np.ndarray):
    """The system of ``simplex``'s vertices over a row of ones, and the
    least-squares barycentric coordinates in it of ``targets``, points over
    a row of ones, one per column."""
    system = np.vstack([embedded.points(simplex).T, np.ones((1, len(simplex)))])
    return system, np.linalg.lstsq(system, targets, rcond=None)[0]


def locate_points(embedded: EmbeddedComplex, points: np.ndarray) -> list[Simplex | None]:
    """For each row of ``points``, the simplex whose relative interior
    contains it (closed faces shared between simplices resolve to the face
    itself), or None.  Coefficients and residuals are compared with the
    absolute ``DEGENERACY_TOL``.

    Top simplices are tried in sorted order and the first match wins; each
    one solves for the barycentric coordinates of all points still
    unlocated at once.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[1:] != (embedded.ambient_dim,):
        raise GeometryError(
            f"points of length {points.shape[-1]} cannot be located in R^{embedded.ambient_dim}"
        )
    found: list[Simplex | None] = [None] * len(points)
    targets = np.vstack([points.T, np.ones((1, len(points)))])
    todo = np.arange(len(points))
    for gamma in sorted(embedded.complex.maximal):
        if not len(todo):
            break
        rhs = targets[:, todo]
        system, coeffs = _barycentric(embedded, gamma, rhs)
        hits = np.flatnonzero(coeffs.min(axis=0) >= -DEGENERACY_TOL)
        if not len(hits):
            continue
        residual = np.abs(system @ coeffs[:, hits] - rhs[:, hits]).max(axis=0)
        hits = hits[residual <= DEGENERACY_TOL]  # coordinates sum to ~1: no support is empty
        for j in hits:
            found[todo[j]] = tuple(v for v, c in zip(gamma, coeffs[:, j]) if c > DEGENERACY_TOL)
        todo = np.delete(todo, hits)
    return found


def locate_point(embedded: EmbeddedComplex, point: np.ndarray) -> Simplex | None:
    """The simplex whose relative interior contains ``point``, or None."""
    return locate_points(embedded, np.asarray(point, dtype=float)[None, :])[0]


def compute_carriers(base: EmbeddedComplex, refined: EmbeddedComplex) -> dict[Simplex, Simplex]:
    """Carriers of the vertices of a refinement known only by its geometry,
    located in ``base``; ``SubdivisionPair`` derives the rest.  Raises
    GeometryError for the first vertex that lies in no base simplex."""
    vertices = refined.complex.vertices()
    found = locate_points(base, refined.points(vertices))
    for v, carrier in zip(vertices, found):
        if carrier is None:
            raise GeometryError(
                f"refined vertex {[v]} lies in no base simplex; the refinement "
                f"does not cover the base complex within tolerance"
            )
    return {(v,): carrier for v, carrier in zip(vertices, found)}


def stellar_subdivide(
    embedded: EmbeddedComplex,
    sigma: Simplex,
    point: Sequence[float] | None = None,
) -> SubdivisionPair:
    """Star a new vertex into ``sigma`` (default position: its barycenter).

    Every simplex having sigma as a face is replaced by the joins of the new
    vertex with its facets missing sigma; everything else is untouched.  The
    point may be anywhere in the relative interior of sigma.
    """
    sigma = as_simplex(sigma)
    complex = embedded.complex
    if sigma not in complex:
        raise KeyError(f"{sigma} is not in the complex")
    if len(sigma) < 2:
        raise ValueError("stellar subdivision needs a simplex of dimension >= 1")
    location = embedded.barycenter(sigma) if point is None else np.asarray(point, dtype=float)
    if location.shape != (embedded.ambient_dim,):
        raise GeometryError(
            f"subdivision point must have {embedded.ambient_dim} coordinates, got shape {location.shape}"
        )
    if not np.isfinite(location).all():  # NaN would pass the interior test
        raise GeometryError("subdivision point has a non-finite coordinate")
    target = np.append(location, 1.0)
    system, coeffs = _barycentric(embedded, sigma, target)
    if np.abs(system @ coeffs - target).max() > DEGENERACY_TOL or coeffs.min() <= DEGENERACY_TOL:
        raise GeometryError(f"subdivision point must lie in the relative interior of {sigma}")
    new_vertex = max(complex.vertices()) + 1
    maximal = []
    for gamma in complex.maximal:
        if not set(sigma) <= set(gamma):
            maximal.append(gamma)
            continue
        for drop in sigma:
            maximal.append(tuple(v for v in gamma if v != drop) + (new_vertex,))
    new_coords = dict(embedded.coordinates) | {new_vertex: location}
    refined = EmbeddedComplex(SimplicialComplex(maximal), new_coords, embedded.ambient_dim)
    carrier = {(v,): (v,) for v in complex.vertices()} | {(new_vertex,): sigma}
    return SubdivisionPair(embedded, refined, carrier)


def barycentric_subdivide(embedded: EmbeddedComplex) -> SubdivisionPair:
    """Full barycentric subdivision: one vertex per simplex, one refined
    simplex per chain in the face order."""
    complex = embedded.complex
    order = complex.simplices()
    vertex_of = {simplex: i for i, simplex in enumerate(order)}
    coords = dict(enumerate(embedded.barycenters(order)))
    maximal = []
    for gamma in complex.maximal:
        for perm in permutations(gamma):
            chain = [as_simplex(perm[: k + 1]) for k in range(len(perm))]
            maximal.append(tuple(vertex_of[f] for f in chain))
    refined = EmbeddedComplex(SimplicialComplex(maximal), coords, embedded.ambient_dim)
    return SubdivisionPair(embedded, refined, {(i,): simplex for i, simplex in enumerate(order)})

