import math
import re

import numpy as np
import pytest

from simcurv.complexes import SimplicialComplex
from simcurv.generators import boundary_of_simplex, solid_simplex, triple_book
from simcurv.geometry import EmbeddedComplex, GeometryError
from simcurv.subdivision import (
    SubdivisionPair,
    barycentric_subdivide,
    compute_carriers,
    locate_point,
    locate_points,
    stellar_subdivide,
)


def test_stellar_at_facet(sphere2):
    pair = stellar_subdivide(sphere2, (0, 1, 2))
    assert pair.refined.complex.f_vector() == (5, 9, 6)
    new_vertex = (max(pair.refined.complex.vertices()),)
    assert pair.carrier[new_vertex] == (0, 1, 2)
    assert pair.refined.complex.euler_characteristic() == 2


def test_stellar_at_edge(sphere2):
    pair = stellar_subdivide(sphere2, (0, 1))
    assert pair.refined.complex.f_vector() == (5, 9, 6)
    new_vertex = (max(pair.refined.complex.vertices()),)
    assert pair.carrier[new_vertex] == (0, 1)
    # the subdivided edge is gone
    assert (0, 1) not in pair.refined.complex


def test_stellar_custom_interior_point(sphere2):
    pts = sphere2.points((0, 1, 2))
    interior = 0.6 * pts[0] + 0.3 * pts[1] + 0.1 * pts[2]
    pair = stellar_subdivide(sphere2, (0, 1, 2), point=interior)
    new_vertex = max(pair.refined.complex.vertices())
    assert np.allclose(pair.refined.coordinates[new_vertex], interior)
    assert pair.carrier[(new_vertex,)] == (0, 1, 2)


def test_stellar_point_must_be_interior(sphere2):
    boundary_point = sphere2.points((0, 1, 2))[0]
    with pytest.raises(GeometryError):
        stellar_subdivide(sphere2, (0, 1, 2), point=boundary_point)
    outside = sphere2.barycenter((0, 1, 2)) + 10.0
    with pytest.raises(GeometryError):
        stellar_subdivide(sphere2, (0, 1, 2), point=outside)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_stellar_point_must_be_finite(sphere2, bad):
    # NaN coefficients passed the interior test, and the refined complex
    # then named the new vertex 4, which the caller never gave
    with pytest.raises(GeometryError, match="^subdivision point has a non-finite coordinate$"):
        stellar_subdivide(sphere2, (0, 1, 2), point=[0.1, bad, 0.1])


@pytest.mark.parametrize("point", [[0.1, 0.1], [0.1, 0.1, 0.1, 0.1], [[0.1, 0.1, 0.1]], 0.1])
def test_stellar_point_of_the_wrong_shape_raises_with_the_expected_length(sphere2, point):
    shape = np.shape(point)
    with pytest.raises(GeometryError, match=re.escape(f"must have 3 coordinates, got shape {shape}")):
        stellar_subdivide(sphere2, (0, 1, 2), point=point)


def test_stellar_rejects_vertices_and_strangers(sphere2):
    with pytest.raises(ValueError):
        stellar_subdivide(sphere2, (0,))
    with pytest.raises(KeyError):
        stellar_subdivide(sphere2, (0, 9))


def test_barycentric_triangle():
    pair = barycentric_subdivide(solid_simplex(2))
    assert pair.refined.complex.f_vector() == (7, 12, 6)
    assert pair.refined.complex.euler_characteristic() == 1


def test_barycentric_top_count_factorial(sphere2, book):
    for embedded in (sphere2, book):
        n = embedded.complex.dim
        pair = barycentric_subdivide(embedded)
        assert (
            pair.refined.complex.f_vector()[n]
            == math.factorial(n + 1) * embedded.complex.f_vector()[n]
        )
        assert (
            pair.refined.complex.euler_characteristic()
            == embedded.complex.euler_characteristic()
        )


def test_carrier_of_unsubdivided_simplex(sphere2):
    pair = stellar_subdivide(sphere2, (0, 1, 2))
    assert pair.carrier[(0, 1, 3)] == (0, 1, 3)
    assert pair.carrier[(3,)] == (3,)


def test_carrier_of_midedge_simplex():
    pair = barycentric_subdivide(solid_simplex(2))
    # vertices of the refinement are indexed by the base simplices in
    # canonical order: 0,1,2 are the corners, 3..5 the edge midpoints
    order = solid_simplex(2).complex.simplices()
    edge_positions = [i for i, s in enumerate(order) if len(s) == 2]
    for pos in edge_positions:
        assert pair.carrier[(pos,)] == order[pos]


def test_carrier_monotone_under_faces(sphere2, book):
    for embedded in (sphere2, book):
        pair = barycentric_subdivide(embedded)
        for tau in pair.refined.complex.simplices():
            carrier = pair.carrier[tau]
            for k in range(1, len(tau)):
                from itertools import combinations

                for face in combinations(tau, k):
                    assert set(pair.carrier[face]) <= set(carrier)


def test_geometric_fidelity(sphere2):
    # random points of the base complex are covered by the refinement
    pair = barycentric_subdivide(sphere2)
    rng = np.random.Generator(np.random.Philox(17))
    maximal = sorted(sphere2.complex.maximal)
    points = [
        rng.dirichlet(np.ones(len(gamma))) @ sphere2.points(gamma)
        for _ in range(10_000 // len(maximal))
        for gamma in maximal
    ]
    found = locate_points(pair.refined, np.array(points))
    assert len(found) == len(points)
    assert all(simplex is not None for simplex in found)


def test_locate_point_misses_outside(sphere2):
    assert locate_point(sphere2, np.array([10.0, 10.0, 10.0])) is None


def test_book_subdivision_carriers():
    pair = barycentric_subdivide(triple_book())
    # every refined vertex lies in the closure of its carrier
    for tau in pair.refined.complex.simplices(0):
        carrier = pair.carrier[tau]
        point = pair.refined.coordinates[tau[0]]
        base_points = pair.base.points(carrier)
        # the barycenter vertex of a base simplex is its centroid
        assert np.allclose(base_points.mean(axis=0), point)


def _reference_locate(embedded, point, tol=1e-9):
    """Per-point, per-top-simplex location: one least-squares solve each."""
    for gamma in sorted(embedded.complex.maximal):
        pts = embedded.points(gamma)
        system = np.vstack([pts.T, np.ones((1, len(gamma)))])
        target = np.concatenate([point, [1.0]])
        coeffs, *_ = np.linalg.lstsq(system, target, rcond=None)
        if np.abs(system @ coeffs - target).max() > tol or coeffs.min() < -tol:
            continue
        support = tuple(v for v, c in zip(gamma, coeffs) if c > tol)
        if support:
            return support
    return None


@pytest.mark.parametrize(
    "make", [lambda: boundary_of_simplex(3), lambda: boundary_of_simplex(4), triple_book]
)
def test_batched_carriers_match_per_point_reference(make):
    base = make()
    top = base.complex.simplices(base.complex.dim)[0]
    pairs = [
        stellar_subdivide(base, top),
        stellar_subdivide(base, top[:2]),
        barycentric_subdivide(base),
    ]
    for pair in pairs:
        for tau in pair.refined.complex.simplices():
            point = pair.refined.barycenter(tau)
            expected = _reference_locate(pair.base, point)
            assert pair.carrier[tau] == expected
            assert locate_point(pair.base, point) == expected
        located = compute_carriers(pair.base, pair.refined)
        assert list(located) == list(pair.refined.complex.simplices(0))
        derived = SubdivisionPair(pair.base, pair.refined, located).carrier
        assert list(derived.items()) == list(pair.carrier.items())


def test_subdivisions_locate_nothing(monkeypatch, sphere2, book):
    import simcurv.subdivision as subdivision

    def refuse(*args):
        raise AssertionError("a construction located points")

    monkeypatch.setattr(subdivision, "locate_points", refuse)
    for embedded in (sphere2, book):
        top = embedded.complex.simplices(embedded.complex.dim)[0]
        for pair in (barycentric_subdivide(embedded), stellar_subdivide(embedded, top[:2])):
            assert len(pair.carrier) == len(pair.refined.complex.simplices())


def test_locate_points_batch_matches_single_calls(sphere2):
    rng = np.random.Generator(np.random.Philox(5))
    points = np.vstack([rng.normal(size=(20, 3)), sphere2.points(sphere2.complex.vertices())])
    batch = locate_points(sphere2, points)
    assert batch == [locate_point(sphere2, p) for p in points]
    assert batch == [_reference_locate(sphere2, p) for p in points]
    assert locate_points(sphere2, np.zeros((0, 3))) == []


def test_location_refuses_points_of_another_length(sphere2):
    # numpy's "Incompatible dimensions" was the message
    message = "points of length 4 cannot be located in R^3"
    with pytest.raises(GeometryError, match=re.escape(message)):
        locate_point(sphere2, np.zeros(4))
    with pytest.raises(GeometryError, match=re.escape(message)):
        compute_carriers(sphere2, boundary_of_simplex(4))


def test_locate_points_first_match_wins_on_overlap():
    # two triangles overlapping in the plane: the first in sorted order wins
    square = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, 1.0)}
    overlap = EmbeddedComplex(SimplicialComplex([(0, 1, 2), (0, 1, 3)]), square)
    rng = np.random.Generator(np.random.Philox(9))
    points = np.vstack([[[0.5, 0.2], [0.9, 0.5]], rng.uniform(-0.2, 1.2, size=(200, 2))])
    found = locate_points(overlap, points)
    assert found[:2] == [(0, 1, 2), (0, 1, 3)]
    assert found == [_reference_locate(overlap, p) for p in points]


def test_uncovered_refinement_names_first_uncovered_simplex(sphere2):
    pair = stellar_subdivide(sphere2, (0, 1, 2))
    apex = max(pair.refined.complex.vertices())
    normal = np.cross(*(sphere2.points((1, 2)) - sphere2.coordinates[0]))
    coords = dict(pair.refined.coordinates)
    coords[apex] = coords[apex] - 0.1 * normal / np.linalg.norm(normal)
    lifted = EmbeddedComplex(pair.refined.complex, coords, 3)
    first = next(
        tau
        for tau in lifted.complex.simplices()
        if _reference_locate(sphere2, lifted.barycenter(tau)) is None
    )
    assert first == (apex,)
    with pytest.raises(GeometryError, match=re.escape(f"refined vertex {list(first)} lies")):
        compute_carriers(sphere2, lifted)
    with pytest.raises(GeometryError, match=re.escape("refined vertex [0] lies")):
        compute_carriers(
            sphere2,
            EmbeddedComplex(sphere2.complex, {v: 2 * p for v, p in sphere2.coordinates.items()}),
        )


@pytest.mark.parametrize(
    "tau, zeta, message",
    [
        # a_1 = 0, so the check never builds this carrier's form
        ((0, 4), (0, 9), "carrier [0, 9] of [0, 4] is not a simplex of the base"),
        ((0, 4, 10), (0, 1, 9), "carrier [0, 1, 9] of [0, 4, 10] is not a simplex of the base"),
        ((5,), None, "refined vertex [5] has no carrier entry"),
        ((0, 99), (0,), "entry for [0, 99], which is not a simplex of the refined"),
        ((4,), (0, 9), "carrier [0, 9] of [4] is not a simplex of the base"),
    ],
)
def test_subdivision_pair_rejects_bad_carrier(sphere2, tau, zeta, message):
    pair = barycentric_subdivide(sphere2)
    carrier = dict(pair.carrier)
    if zeta is None:
        del carrier[tau]
    else:
        carrier[tau] = zeta
    with pytest.raises(ValueError, match=re.escape(message)):
        SubdivisionPair(pair.base, pair.refined, carrier)


def test_wide_solve_locates_every_barycenter_in_its_carrier():
    # 2594 points in each base top simplex's one solve; each barycenter lies
    # in the relative interior of its carrier, the union of vertex carriers
    base = boundary_of_simplex(3)
    for _ in range(2):
        base = barycentric_subdivide(base).refined
    pair = barycentric_subdivide(base)
    simplices = pair.refined.complex.simplices()
    located = locate_points(base, pair.refined.barycenters(simplices))
    assert len(located) == 2594
    assert list(zip(simplices, located)) == list(pair.carrier.items())


def test_subdivision_pair_rejects_complexes_of_other_dimensions(sphere2):
    # both were accepted, with every vertex carrier a base simplex
    pair = barycentric_subdivide(sphere2)
    with pytest.raises(ValueError, match=re.escape("has dimension 2 in R^3, the base complex 3 in R^4")):
        SubdivisionPair(boundary_of_simplex(4), pair.refined, pair.carrier)
    lifted = {v: [*p, 0.0] for v, p in sphere2.coordinates.items()}
    refined = EmbeddedComplex(sphere2.complex, lifted)
    with pytest.raises(ValueError, match=re.escape("has dimension 2 in R^4, the base complex 2 in R^3")):
        SubdivisionPair(sphere2, refined, {(v,): (v,) for v in range(4)})


def test_carrier_must_be_the_union_of_its_vertex_carriers(sphere2):
    pair = barycentric_subdivide(sphere2)
    assert pair.carrier[(0, 4)] == (0, 1)  # refined vertex 4 is the midpoint of [0, 1]
    for tau, wrong in [((0, 4), (0, 2)), ((0, 4), (0, 1, 2)), ((0, 4, 10), (0, 1, 3))]:
        carrier = dict(pair.carrier)
        true = carrier[tau]
        carrier[tau] = wrong
        message = f"carrier {list(wrong)} of {list(tau)} is not {list(true)}, the union"
        with pytest.raises(ValueError, match=re.escape(message)):
            SubdivisionPair(pair.base, pair.refined, carrier)


def test_vertex_carriers_determine_the_full_map(sphere2, book):
    for embedded in (sphere2, book):
        top = embedded.complex.simplices(embedded.complex.dim)[0]
        for pair in (barycentric_subdivide(embedded), stellar_subdivide(embedded, top[:2])):
            assert list(pair.carrier) == list(pair.refined.complex.simplices())
            vertices = {tau: pair.carrier[tau] for tau in pair.refined.complex.simplices(0)}
            given = SubdivisionPair(pair.base, pair.refined, dict(pair.carrier))
            derived = SubdivisionPair(pair.base, pair.refined, vertices)
            assert list(given.carrier.items()) == list(derived.carrier.items())
