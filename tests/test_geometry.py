import json
import math
import re
import threading
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simcurv import geometry
from simcurv.complexes import SimplicialComplex, as_simplex
from simcurv.generators import (
    boundary_of_simplex,
    cross_polytope,
    join_of_sphere_boundaries,
    random_simplex,
    regular_simplex_points,
    seven_point_configuration,
    solid_simplex,
    triple_book,
)
from simcurv.geometry import (
    AngleCache,
    AngleConfig,
    AngleValue,
    DegeneratePositionError,
    EmbeddedComplex,
    GeometryError,
    convex_hull_boundary,
    solid_angle,
    sommerville_residuals,
    top_angle_pairs,
)
from simcurv.subdivision import barycentric_subdivide

FAST = AngleConfig(samples=50_000, seed=7)


def van_oosterom_strackee(a, b, c) -> float:
    """Independent oracle: normalized solid angle of a trihedral corner
    spanned by vectors a, b, c (classical tetrahedron formula)."""
    na, nb, nc = (np.linalg.norm(v) for v in (a, b, c))
    numerator = abs(np.dot(a, np.cross(b, c)))
    denominator = (
        na * nb * nc
        + np.dot(a, b) * nc
        + np.dot(a, c) * nb
        + np.dot(b, c) * na
    )
    return 2.0 * math.atan2(numerator, denominator) / (4.0 * math.pi)


def test_angle_value_invariants():
    with pytest.raises(ValueError):
        AngleValue(1.5, 0.0, "exact")
    with pytest.raises(ValueError):
        AngleValue(0.5, 0.1, "exact")
    with pytest.raises(ValueError):
        AngleValue(0.5, 0.1, "quadrature")
    with pytest.raises(ValueError):
        AngleValue(0.5, 0.0, "monte_carlo")


def test_codim_zero_and_one_are_rational(solid_tet):
    sigma = (0, 1, 2, 3)
    full = solid_angle(sigma, sigma, solid_tet, FAST)
    assert (full.value, full.std_error, full.method) == (1.0, 0.0, "exact")
    half = solid_angle((0, 1, 2), sigma, solid_tet, FAST)
    assert (half.value, half.std_error, half.method) == (0.5, 0.0, "exact")


def test_equilateral_vertex_angle(sphere2):
    angle = solid_angle((0,), (0, 1, 2), sphere2, FAST)
    assert angle.method == "exact"
    assert abs(angle.value - 1.0 / 6.0) < 1e-12


def test_regular_tetrahedron_vertex_angle_vs_oracle(solid_tet):
    sigma = (0, 1, 2, 3)
    estimate = solid_angle((0,), sigma, solid_tet, AngleConfig(samples=400_000, seed=3))
    pts = solid_tet.points(sigma)
    oracle = van_oosterom_strackee(*(pts[i] - pts[0] for i in (1, 2, 3)))
    # closed form for the regular tetrahedron corner: arccos(23/27) steradians
    assert abs(oracle - math.acos(23.0 / 27.0) / (4.0 * math.pi)) < 1e-12
    assert abs(estimate.value - oracle) < 4 * estimate.std_error
    assert estimate.method == "monte_carlo"
    assert estimate.samples == 400_002  # 6 tests per vector at c = 3


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_triangle_angles_sum_to_half(seed):
    tri = random_simplex(2, seed=seed)
    total = sum(solid_angle((v,), (0, 1, 2), tri, FAST).value for v in range(3))
    assert abs(total - 0.5) < 1e-12


def test_random_trihedral_angles_vs_oracle():
    for seed in range(5):
        tet = random_simplex(3, seed=seed)
        pts = tet.points((0, 1, 2, 3))
        est = solid_angle((0,), (0, 1, 2, 3), tet, AngleConfig(samples=200_000, seed=1))
        oracle = van_oosterom_strackee(*(pts[i] - pts[0] for i in (1, 2, 3)))
        assert abs(est.value - oracle) < 4 * max(est.std_error, 1e-4)


def test_std_error_scaling(solid_tet):
    base = solid_angle((0,), (0, 1, 2, 3), solid_tet, AngleConfig(samples=100_000, seed=5))
    double = solid_angle((0,), (0, 1, 2, 3), solid_tet, AngleConfig(samples=200_000, seed=5))
    ratio = base.std_error / double.std_error
    assert 1.25 < ratio < 1.6  # ~sqrt(2)


def test_seed_determinism(solid_tet):
    cfg = AngleConfig(samples=60_000, seed=42)
    first = solid_angle((0,), (0, 1, 2, 3), solid_tet, cfg)
    second = solid_angle((0,), (0, 1, 2, 3), solid_tet, cfg)
    assert first.value == second.value
    other = solid_angle((0,), (0, 1, 2, 3), solid_tet, AngleConfig(samples=60_000, seed=43))
    assert other.value != first.value


def test_block_split_invariance(solid_tet, monkeypatch):
    # the estimate is a fixed function of (seed, pair); block size is internal.
    # 32,000 vectors of 6 tests each: one block of 64,000, or two of 16,000
    cfg = AngleConfig(samples=192_000, seed=9)
    monkeypatch.setattr(geometry, "STREAM_BLOCK_VECTORS", 64_000)
    a = solid_angle((0,), (0, 1, 2, 3), solid_tet, cfg)
    monkeypatch.setattr(geometry, "STREAM_BLOCK_VECTORS", 16_000)
    b = solid_angle((0,), (0, 1, 2, 3), solid_tet, cfg)
    assert a.samples == b.samples == 192_000
    assert (a.value, a.std_error) == (b.value, b.std_error)


def test_cache_fill_matches_lazy(solid_tet):
    pairs = [((v,), (0, 1, 2, 3)) for v in range(4)]
    lazy = AngleCache(solid_tet, AngleConfig(samples=20_000, seed=2, threads=1))
    eager = AngleCache(solid_tet, AngleConfig(samples=20_000, seed=2, threads=4))
    eager.fill(pairs)
    for eta, sigma in pairs:
        assert lazy.angle(eta, sigma).value == eager.angle(eta, sigma).value


def test_ambient_embedding_invariance():
    tet = solid_simplex(3)
    padded_coords = {
        v: np.concatenate([p, [0.25, -1.5]]) for v, p in tet.coordinates.items()
    }
    padded = EmbeddedComplex(tet.complex, padded_coords, 5)
    for eta in [(0, 1, 2), (0, 1)]:
        flat = solid_angle(eta, (0, 1, 2, 3), tet, FAST)
        lifted = solid_angle(eta, (0, 1, 2, 3), padded, FAST)
        assert abs(flat.value - lifted.value) < 1e-12
    flat = solid_angle((0,), (0, 1, 2, 3), tet, FAST)
    lifted = solid_angle((0,), (0, 1, 2, 3), padded, FAST)
    assert abs(flat.value - lifted.value) < 4 * (flat.std_error + lifted.std_error)


def test_solid_angle_errors(solid_tet):
    with pytest.raises(GeometryError):
        solid_angle((0, 4), (0, 1, 2, 3), solid_tet, FAST)  # not a face
    with pytest.raises(KeyError):
        solid_angle((0,), (0, 1, 4), solid_tet, FAST)  # not in the complex
    with pytest.raises(GeometryError):
        EmbeddedComplex(
            SimplicialComplex([(0, 1, 2)]),
            {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [2.0, 0.0]},
        )


def test_embedded_complex_validation():
    with pytest.raises(GeometryError):
        EmbeddedComplex(SimplicialComplex([(0, 1)]), {0: [0.0]})
    with pytest.raises(GeometryError):
        EmbeddedComplex(
            SimplicialComplex([(0, 1, 2)]),
            {0: [0.0], 1: [1.0], 2: [0.5]},
        )


def test_embedded_complex_takes_only_integer_vertex_ids_and_ambient_dim():
    triangle = SimplicialComplex([(0, 1, 2)])
    p, q, r, s = [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]
    # int() would take 1.7 as vertex 1, parse "2", and let 1.2 overwrite vertex 1
    for coordinates, ambient_dim in [
        ({0: p, 1.7: q, 2: r}, None),
        ({0: p, 1: q, "2": r}, None),
        ({0: p, 1: q, 1.2: s, 2: r}, None),
        ({0: p, 1: q, 2: r}, 2.0),
    ]:
        with pytest.raises(ValueError, match="must be an integer"):
            EmbeddedComplex(triangle, coordinates, ambient_dim)
    embedded = EmbeddedComplex(triangle, {np.int64(0): p, 1: q, 2: r}, np.int64(2))
    assert type(embedded.ambient_dim) is int and list(embedded.coordinates) == [0, 1, 2]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_embedded_complex_names_a_non_finite_coordinate(bad):
    coords = {0: [0.0, 0.0], 1: [1.0, bad], 2: [0.0, 1.0]}
    with pytest.raises(GeometryError, match=re.escape("vertex 1 has a non-finite coordinate")):
        EmbeddedComplex(SimplicialComplex([(0, 1, 2)]), coords)


@pytest.mark.parametrize(
    "coords, vertex, shape",
    [
        # a (1, 2) array was taken as a point of R^1, and a scalar raised IndexError
        ({0: [[0.0, 1.0]], 1: [[1.0, 0.0]]}, 0, "(1, 2)"),
        ({0: 1.0, 1: 2.0}, 0, "()"),
        ({0: [0.0, 1.0], 1: [[1.0, 0.0]]}, 1, "(1, 2)"),
    ],
)
def test_embedded_complex_names_a_coordinate_that_is_not_a_vector(coords, vertex, shape):
    with pytest.raises(GeometryError, match=re.escape(f"coordinates of vertex {vertex} are not a vector: shape {shape}")):
        EmbeddedComplex(SimplicialComplex([(0, 1)]), coords)


# -- Sommerville residuals ---------------------------------------------------


def test_sommerville_rhs_for_tetrahedron(solid_tet):
    report = sommerville_residuals((0, 1, 2, 3), (0,), solid_tet, FAST)
    assert report["defect_rhs"] == Fraction(-1, 4)
    assert abs(report["alternating_residual"]) < 4 * report["alternating_std_error"]
    assert abs(report["defect_residual"]) < 4 * report["defect_std_error"]


def test_sommerville_regular_five_simplex():
    five = solid_simplex(5)
    cache = AngleCache(five, AngleConfig(samples=60_000, seed=13))
    report = sommerville_residuals(tuple(range(6)), (0,), five, cache=cache)
    assert abs(report["alternating_residual"]) < 4 * report["alternating_std_error"]
    report2 = sommerville_residuals(tuple(range(6)), (0, 1, 2), five, cache=cache)
    assert abs(report2["alternating_residual"]) < 4 * report2["alternating_std_error"]


def test_sommerville_preconditions(solid_tet):
    with pytest.raises(ValueError):
        sommerville_residuals((0, 1, 2), (0,), solid_tet, FAST)  # even dimension
    with pytest.raises(ValueError):
        sommerville_residuals((0, 1, 2, 3), (0, 1), solid_tet, FAST)  # odd face


def test_sommerville_residuals_fill_their_form_at_once():
    five = random_simplex(5, seed=4)
    sigma, tau = tuple(range(6)), (0, 2, 5)
    cache = AngleCache(five, AngleConfig(samples=2000, seed=4, threads=2))
    sommerville_residuals(sigma, tau, five, cache=cache)
    assert geometry._sommerville_form(sigma, tau).coeffs.keys() <= cache._values.keys()
    # a caller's cache gets every Sommerville pair of sigma: faces of codim >= 2
    faces = {(eta, sigma) for k in range(1, 5) for eta in combinations(sigma, k)}
    assert cache._values.keys() == faces


def _record_solid_angles(monkeypatch) -> list:
    """Patch ``geometry.solid_angle`` to record the pair of every call; the
    fill makes one call per Monte Carlo angle."""
    computed = []
    real = geometry.solid_angle

    def recording(eta, sigma, *args):
        computed.append((eta, sigma))
        return real(eta, sigma, *args)

    monkeypatch.setattr(geometry, "solid_angle", recording)
    return computed


def test_sommerville_residuals_without_a_cache_fill_every_pair_of_sigma(monkeypatch):
    five = random_simplex(5, seed=4)
    sigma, tau = tuple(range(6)), (0,)
    computed = _record_solid_angles(monkeypatch)
    sommerville_residuals(sigma, tau, five, AngleConfig(samples=2000, seed=4, threads=2))
    # one fill rule: the private cache gets the pairs a caller's cache gets,
    # and the Monte Carlo ones are the faces of codimension 3 (vertices and
    # edges, at codimension 5 and 4, are quadratures)
    faces = {(eta, sigma) for eta in combinations(sigma, 3)}
    assert len(computed) == len(faces) == 20  # 20 triangles
    assert set(computed) == faces


def test_sommerville_residuals_reuse_the_simplex_batch_for_another_tau(monkeypatch):
    five = random_simplex(5, seed=4)
    sigma = tuple(range(6))
    cache = AngleCache(five, AngleConfig(samples=2000, seed=4, threads=2))
    computed = _record_solid_angles(monkeypatch)
    sommerville_residuals(sigma, (0, 2, 5), five, cache=cache)
    assert len(computed) == 20  # 20 triangles; vertices and edges are quadratures
    computed.clear()
    sommerville_residuals(sigma, (1,), five, cache=cache)
    assert computed == []


@pytest.mark.parametrize("threads", [1, 2])
def test_sommerville_residuals_equal_the_pair_by_pair_path(threads):
    for dim, seed in [(3, 5), (5, 6), (7, 7)]:
        embedded = random_simplex(dim, seed=seed)
        sigma = tuple(range(dim + 1))
        batched = AngleCache(embedded, AngleConfig(samples=4000, seed=seed, threads=threads))
        reference = AngleCache(embedded, AngleConfig(samples=4000, seed=seed, threads=1))
        # every even tau (p <= n - 2), vertices first, as criterion 3 sweeps them
        taus = [t for p in range(0, dim - 1, 2) for t in combinations(sigma, p + 1)]
        for tau in taus:
            report = sommerville_residuals(sigma, tau, embedded, cache=batched)
            form = geometry._sommerville_form(sigma, tau)
            for pair in form.coeffs:  # one pair at a time, as the lazy path did
                reference.angle(*pair)
            value = form.evaluate(reference)
            assert report["alternating_residual"] == value.value
            assert report["alternating_std_error"] == value.std_error
            # the defect form is -1/2 times the alternating one, bit for bit
            assert report["defect_residual"].hex() == (-value.value / 2).hex()
            assert report["defect_std_error"].hex() == (value.std_error / 2).hex()
            assert report["defect_rhs"] == Fraction(1, 2) - Fraction(dim - len(tau) + 1, 4)


def test_form_evaluation_needs_a_filled_cache(solid_tet):
    form = geometry._sommerville_form((0, 1, 2, 3), (0,))
    with pytest.raises(KeyError):
        form.evaluate(AngleCache(solid_tet, FAST))


# -- Gram's relation -------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_gram_relation_on_random_simplices(dim, seed):
    # Brianchon-Gram (Perles & Shephard, Math. Scand. 21:199, 1967): the sum
    # over the faces eta of sigma, sigma included, of (-1)^dim(eta) times
    # alpha(eta, sigma) is 0; the Monte Carlo angles of codimension 3 (and 6)
    # give it a standard error
    embedded = random_simplex(dim, seed=seed)
    sigma = embedded.complex.simplices(dim)[0]
    form = geometry._AngleForm(den=2)
    for k in range(1, dim + 2):
        for eta in combinations(sigma, k):
            form.add_angles(eta, (sigma,), 2 * (-1) ** (k - 1))
    cache = AngleCache(embedded, AngleConfig(samples=200_000, seed=seed))
    cache.fill(form.coeffs)
    cv = form.evaluate(cache)
    assert cv.std_error > 0
    assert abs(cv.value) <= 4 * cv.std_error, f"z = {cv.value / cv.std_error:.2f}"


# -- convex hull --------------------------------------------------------------


def test_hull_of_four_points_is_tet_boundary():
    pts = regular_simplex_points(3)
    hull = convex_hull_boundary(pts)
    assert hull.complex.f_vector() == (4, 6, 4)


def test_hull_octahedron():
    pts = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    hull = convex_hull_boundary(pts)
    assert hull.complex.f_vector() == (6, 12, 8)
    assert hull.complex.is_two_pseudomanifold()


def test_hull_generic_facet_count():
    for d, seed in [(2, 0), (3, 1), (4, 2)]:
        rng = np.random.Generator(np.random.Philox(seed))
        pts = rng.standard_normal((d + 1, d))
        hull = convex_hull_boundary(pts)
        assert hull.complex.f_vector()[-1] == d + 1


def test_hull_degenerate_point_on_supporting_line():
    square_plus_edge_midpoint = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.0]]
    )
    with pytest.raises(DegeneratePositionError):
        convex_hull_boundary(square_plus_edge_midpoint)


def test_hull_interior_collinearity_is_tolerated():
    # the octahedron has points collinear with non-supporting hyperplanes;
    # those must not trip the degeneracy error (covered above) while a point
    # on an actual supporting plane must (covered below)
    pts = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [0.5, 0.5, 0.0]]
    )
    with pytest.raises(DegeneratePositionError):
        convex_hull_boundary(pts)


def test_hull_needs_enough_points():
    with pytest.raises(GeometryError):
        convex_hull_boundary(np.zeros((3, 3)))
    for d in (0, 1):  # a hull boundary needs d >= 2, like boundary_of_simplex
        with pytest.raises(GeometryError, match=f"d >= 2, got d = {d}"):
            convex_hull_boundary(np.zeros((3, d)))


def test_seven_point_configuration_is_generic_sphere():
    pts = seven_point_configuration()
    hull = convex_hull_boundary(pts)
    assert hull.complex.dim == 4
    assert hull.complex.euler_characteristic() == 2
    assert hull.complex.is_two_pseudomanifold()
    assert hull.complex.f_vector()[0] == 7


def test_unperturbed_cone_construction_is_degenerate():
    # the raw cone-of-cone-of-suspension points: six of them share the
    # hyperplane x0+x1+x2 = 1, so enumeration must demand a perturbation
    c = 1.0 / 3.0
    pts = np.array(
        [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [c, c, c, 1, 0],
            [c, c, c, -1, 0],
            [c, c, c, 0, 1],
            [0.4, 0.3, 0.3, 0.01, -0.7],
        ]
    )
    with pytest.raises(DegeneratePositionError):
        convex_hull_boundary(pts)


@pytest.mark.parametrize("threads", [1, 2])
def test_fill_matches_sequential_angles_across_codimensions(threads):
    embedded = random_simplex(4, seed=11)
    sigma = (0, 1, 2, 3, 4)
    pairs = [(eta, sigma) for k in range(1, 5) for eta in combinations(sigma, k)]
    cfg = AngleConfig(samples=2000, seed=3, threads=threads)
    reference = AngleCache(embedded, AngleConfig(samples=2000, seed=3, threads=1))
    cache = AngleCache(embedded, cfg)
    # duplicates and unsorted vertex order are normalized away
    cache.fill(pairs + [(tuple(reversed(eta)), sigma) for eta, _ in pairs[5:10]])
    assert len(cache._values) == len(pairs)
    methods = set()
    for eta, _ in pairs:
        value = cache._values[(eta, sigma)]
        assert value == reference.angle(eta, sigma)
        methods.add((len(sigma) - len(eta), value.method))
    assert methods == {(1, "exact"), (2, "exact"), (3, "monte_carlo"), (4, "quadrature")}


@pytest.mark.parametrize("opening", [1e-8, 1e-4, 1.0, math.pi / 2, math.pi - 1e-8])
def test_wedge_angle_keeps_relative_precision(opening):
    coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0 * math.cos(opening), 2.0 * math.sin(opening))}
    wedge = EmbeddedComplex(SimplicialComplex([(0, 1, 2)]), coords)
    angle = solid_angle((0,), (0, 1, 2), wedge)
    assert angle.method == "exact"
    assert angle.value == pytest.approx(opening / (2.0 * math.pi), rel=1e-7)


def test_thread_count_follows_cpu_affinity(monkeypatch):
    import os

    from simcurv.geometry import default_thread_count

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_thread_count() == 1
    assert AngleConfig(samples=1000).resolved_threads() == 1
    assert AngleConfig(samples=1000, threads=5).resolved_threads() == 5
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_thread_count() == 8


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e6])
def test_seven_point_hull_is_scale_invariant(scale):
    hull = convex_hull_boundary(seven_point_configuration() * scale)
    assert hull.complex.f_vector() == (7, 20, 30, 25, 10)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_hull_degeneracy_is_scale_invariant(scale):
    # 1e-12 above the bottom edge is degenerate at every scale
    square_plus_near_edge_point = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 1e-12]])
    with pytest.raises(DegeneratePositionError):
        convex_hull_boundary(square_plus_near_edge_point * scale)


RANK_SCALES = [1e-11, 1e-6, 1.0, 1e6]


def _scaled(embedded, scale):
    coords = {v: p * scale for v, p in embedded.coordinates.items()}
    return EmbeddedComplex(embedded.complex, coords, embedded.ambient_dim)


@pytest.mark.parametrize("scale", RANK_SCALES)
def test_small_simplex_is_not_degenerate(scale):
    # the rank tolerance is relative to the largest singular value, so a
    # well-shaped simplex loads however small it is
    tet = _scaled(random_simplex(3, seed=1), scale)
    assert tet.complex.dim == 3


def test_angles_do_not_depend_on_scale():
    tet = random_simplex(3, seed=1)
    sigma = (0, 1, 2, 3)
    cfg = AngleConfig(samples=20_000, seed=9)
    wedges, cones = [], []
    for scale in RANK_SCALES:
        scaled = _scaled(tet, scale)
        wedges.append([solid_angle(e, sigma, scaled).value for e in combinations(sigma, 2)])
        cones.append(solid_angle((0,), sigma, scaled, cfg))
    for values in wedges[1:]:
        assert values == pytest.approx(wedges[0], rel=1e-12, abs=0.0)
    assert all(cone == cones[0] for cone in cones[1:])


@pytest.mark.parametrize("scale", RANK_SCALES)
def test_coplanar_tetrahedron_is_rejected_at_every_scale(scale):
    coplanar = {0: (0.0, 0.0, 0.0), 1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0), 3: (0.3, 0.4, 0.0)}
    coords = {v: np.array(p) * scale for v, p in coplanar.items()}
    with pytest.raises(GeometryError, match="affinely degenerate"):
        EmbeddedComplex(SimplicialComplex([(0, 1, 2, 3)]), coords)


def test_first_degenerate_maximal_simplex_is_named():
    # a non-pure complex with a degenerate triangle (collinear) and a
    # degenerate edge (one point twice), relabelled so that either comes
    # first in ``complex.maximal`` order
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 2, 1),
              (3, 0, 0), (3, 1, 0), (0, 3, 0), (0, 3, 0)]
    maximal = [(0, 1, 2), (3, 4, 5), (6, 7), (8, 9)]
    rng = np.random.default_rng(4)
    named_sizes = set()
    for _ in range(20):
        label = rng.permutation(40)[: len(points)]
        complex = SimplicialComplex([[int(label[v]) for v in m] for m in maximal])
        coords = {int(label[v]): np.array(p, dtype=float) for v, p in enumerate(points)}
        degenerate = {as_simplex(int(label[v]) for v in m) for m in maximal[1::2]}
        first = next(m for m in complex.maximal if m in degenerate)
        with pytest.raises(GeometryError, match=re.escape(f"simplex {first} is affinely degenerate")):
            EmbeddedComplex(complex, coords)
        named_sizes.add(len(first))
    assert named_sizes == {2, 3}


@pytest.mark.parametrize("threads", [0, -3])
def test_non_positive_threads_are_rejected(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        AngleConfig(samples=1000, threads=threads)


@pytest.mark.parametrize(
    "field, value",
    [("samples", 1e6), ("samples", True), ("seed", 1.5), ("seed", "3"), ("threads", 2.5), ("threads", True)],
)
def test_angle_config_refuses_non_integer_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        AngleConfig(**{field: value})


def test_angle_config_takes_numpy_integers_as_ints(solid_tet):
    cfg = AngleConfig(samples=np.int64(2000), seed=np.int64(7), threads=np.int32(2))
    assert cfg == AngleConfig(samples=2000, seed=7, threads=2)
    assert all(type(v) is int for v in (cfg.samples, cfg.seed, cfg.threads))
    # a numpy seed keys the same Monte Carlo streams as the int
    pair = ((0,), (0, 1, 2, 3))
    assert solid_angle(*pair, solid_tet, cfg) == solid_angle(*pair, solid_tet, AngleConfig(2000, 7, 2))


def test_random_simplex_takes_its_seed_by_the_integer_rule():
    # a numpy seed overflowed the 64-bit mask and a float one raised TypeError
    numpy_seeded = random_simplex(3, seed=np.int64(5)).coordinates
    assert all((numpy_seeded[v] == p).all() for v, p in random_simplex(3, seed=5).coordinates.items())
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        random_simplex(3, seed=1.5)


@pytest.mark.parametrize(
    "build, name",
    [
        (regular_simplex_points, "n"),
        (solid_simplex, "n"),
        (boundary_of_simplex, "n"),
        (cross_polytope, "n"),
        (random_simplex, "n"),
        (lambda a: join_of_sphere_boundaries(a, 2), "a"),
        (lambda b: join_of_sphere_boundaries(2, b), "b"),
    ],
    ids=[
        "regular_simplex_points",
        "solid_simplex",
        "boundary_of_simplex",
        "cross_polytope",
        "random_simplex",
        "join_of_sphere_boundaries-a",
        "join_of_sphere_boundaries-b",
    ],
)
def test_generators_take_their_dimension_by_the_integer_rule(build, name):
    # random_simplex(3.0) raised numpy's TypeError, solid_simplex(True) built
    # a 1-simplex and boundary_of_simplex("3") failed inside range
    for bad in (3.0, True, "3"):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            build(bad)
    made, expected = build(np.int64(3)), build(3)
    if isinstance(made, np.ndarray):
        assert (made == expected).all()
    else:
        assert made.complex.maximal == expected.complex.maximal
        assert all((made.coordinates[v] == p).all() for v, p in expected.coordinates.items())


def test_fill_pool_is_no_larger_than_its_work(monkeypatch, solid_tet):
    sizes = []

    class RecordingPool(geometry.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(geometry, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(geometry, "_POOLS", {})
    before = set(threading.enumerate())
    cache = AngleCache(solid_tet, AngleConfig(samples=1000, seed=1, threads=8))
    cache.fill([((v,), (0, 1, 2, 3)) for v in range(3)])
    assert sizes == [8]  # the pool of the thread setting ...
    assert len(set(threading.enumerate()) - before) <= 3  # ... starts a thread per pair at most


def test_fills_of_any_size_share_the_pool_of_their_thread_setting(monkeypatch, solid_tet):
    # one pool per batch size kept up to T (T + 1) / 2 - 1 idle threads alive
    monkeypatch.setattr(geometry, "_POOLS", {})
    before = set(threading.enumerate())
    cfg = AngleConfig(samples=1000, seed=1, threads=4)
    for size in (2, 3, 4):
        AngleCache(solid_tet, cfg).fill([((v,), (0, 1, 2, 3)) for v in range(size)])
    assert list(geometry._POOLS) == [4]
    assert len(set(threading.enumerate()) - before) <= 4


def test_a_single_monte_carlo_pair_fills_on_the_calling_thread(monkeypatch, solid_tet):
    monkeypatch.setattr(geometry, "_POOLS", {})
    AngleCache(solid_tet, AngleConfig(samples=1000, seed=1, threads=4)).fill([((0,), (0, 1, 2, 3))])
    AngleCache(solid_tet, AngleConfig(samples=1000, seed=1, threads=1)).fill(
        [((v,), (0, 1, 2, 3)) for v in range(4)]
    )
    assert geometry._POOLS == {}


def test_successive_fills_run_on_the_same_worker_threads(monkeypatch, solid_tet):
    import threading

    import simcurv.geometry as geometry

    monkeypatch.setattr(geometry, "_POOLS", {})
    seen = []
    real_solid_angle = geometry.solid_angle

    def recording(*args):
        seen.append(threading.get_ident())
        return real_solid_angle(*args)

    monkeypatch.setattr(geometry, "solid_angle", recording)
    cfg = AngleConfig(samples=1000, seed=1, threads=2)
    pairs = [((v,), (0, 1, 2, 3)) for v in range(4)]
    AngleCache(solid_tet, cfg).fill(pairs)
    first = set(seen)
    alive = {t.ident for t in threading.enumerate()}
    seen.clear()
    AngleCache(solid_tet, cfg).fill(pairs)
    assert len(seen) == 4
    assert set(seen) <= alive  # no thread was started for the second fill
    assert threading.get_ident() not in first | set(seen)


def test_concurrent_fills_share_one_pool(monkeypatch):
    import sys
    import threading

    import simcurv.geometry as geometry

    monkeypatch.setattr(geometry, "_POOLS", {})
    embedded = random_simplex(3, seed=8)
    pairs = [((v,), (0, 1, 2, 3)) for v in range(4)]
    reference = AngleCache(embedded, AngleConfig(samples=1000, seed=8, threads=1))
    reference.fill(pairs)
    caches = [AngleCache(embedded, AngleConfig(samples=1000, seed=8, threads=2)) for _ in range(6)]
    callers = [threading.Thread(target=cache.fill, args=(pairs,)) for cache in caches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert list(geometry._POOLS) == [2]
    for cache in caches:
        assert cache._values == reference._values


def _fill_in_child(pairs, connection):
    cache = AngleCache(solid_simplex(3), AngleConfig(samples=2000, seed=3, threads=2))
    cache.fill(pairs)
    connection.send([cache._values[pair] for pair in pairs])
    connection.close()


def test_forked_child_fills_after_its_parent():
    import multiprocessing

    pairs = [((v,), (0, 1, 2, 3)) for v in range(4)]
    parent = AngleCache(solid_simplex(3), AngleConfig(samples=2000, seed=3, threads=2))
    parent.fill(pairs)  # the parent's pool now has live worker threads
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_fill_in_child, args=(pairs, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child's fill did not finish"
        values = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert values == [parent._values[pair] for pair in pairs]


def test_fill_and_rank_accept_lists_and_numpy_ints(solid_tet):
    from simcurv.stratification import stratify

    pair = ((0, 1, 2, 3), (0, 1, 2, 3))
    canonical = AngleCache(solid_tet, FAST)
    canonical.fill([((1,), (0, 1, 2, 3)), pair])
    loose = AngleCache(solid_tet, FAST)
    loose.fill([([1], [3, 2, 1, 0]), (tuple(np.arange(4)), np.arange(4))])
    assert loose._values == canonical._values
    assignment = stratify(solid_tet.complex)
    for simplex in ([2, 0], (2, 0), (np.int64(0), np.int64(2)), np.array([0, 2])):
        assert assignment.rank(simplex) == Fraction(1, 2)
        assert assignment.tier(simplex) == assignment.tier((0, 2))


# -- the 2c-image estimator --------------------------------------------------


@pytest.mark.parametrize("c", range(2, 7))
def test_orthant_fraction_within_four_sigma(c):
    from simcurv.geometry import _estimate_cone_fraction

    p, std_error, n = _estimate_cone_fraction(np.eye(c), AngleConfig(samples=200_000, seed=c), 0, 0)
    assert n == 2 * c * -(-200_000 // (2 * c))  # 200,004 at c = 3 and 6
    assert abs(p - 2.0**-c) < 4 * std_error


def test_half_line_fraction_is_exactly_one_half():
    # at c = 1 every nonzero direction lies in exactly one of C and -C
    from simcurv.geometry import _estimate_cone_fraction

    p, std_error, n = _estimate_cone_fraction(np.array([[1.7]]), AngleConfig(samples=10_001, seed=3), 0, 0)
    assert p == 0.5
    assert n == 10_002
    assert std_error == 1.0 / n


@pytest.mark.parametrize("simplex_seed", [0, 4])  # vertex angles 0.126 and 0.0042
def test_z_scores_against_oracle_have_unit_spread(simplex_seed):
    tet = random_simplex(3, seed=simplex_seed)
    pts = tet.points((0, 1, 2, 3))
    oracle = van_oosterom_strackee(*(pts[i] - pts[0] for i in (1, 2, 3)))
    z = [
        (est.value - oracle) / est.std_error
        for est in (
            solid_angle((0,), (0, 1, 2, 3), tet, AngleConfig(samples=20_000, seed=seed))
            for seed in range(200)
        )
    ]
    assert 0.85 <= np.std(z, ddof=1) <= 1.15
    assert abs(np.mean(z)) < 0.3


def test_sample_count_rounds_up_to_whole_sets_of_images(solid_tet):
    # a vector gives 2c tests: 6 at c = 3, 8 at c = 4
    from simcurv.geometry import _estimate_cone_fraction

    for samples, tests in ((1000, 1002), (1001, 1002), (1002, 1002), (1003, 1008)):
        angle = solid_angle((0,), (0, 1, 2, 3), solid_tet, AngleConfig(samples=samples, seed=1))
        assert angle.method == "monte_carlo"
        assert angle.samples == tests
    _, _, n = _estimate_cone_fraction(np.eye(4), AngleConfig(samples=1001, seed=1), 0, 0)
    assert n == 1008


def test_shift_invariant_orthant_takes_sigma_from_the_count_variance():
    # np.eye(3) is its own image under every shift, so the per-vector count
    # X is 3 (z in C or in -C) or 0, never 1: sigma must come from var(X)
    from simcurv.geometry import _estimate_cone_fraction, _pair_stream

    cfg = AngleConfig(samples=200_000, seed=11)
    p, std_error, n = _estimate_cone_fraction(np.eye(3), cfg, 0, 0)
    vectors = n // 6
    z = _pair_stream(cfg, 0, 0).standard_normal((vectors, 3))
    x = 3 * ((z >= 0).all(1).astype(int) + (z <= 0).all(1))
    assert set(np.unique(x)) == {0, 3}
    assert p == x.sum() / n
    assert std_error == pytest.approx(math.sqrt(np.var(x, ddof=1) / vectors) / 6, rel=1e-12)
    # each vector's 6 tests are its 2 antithetic tests three times over, so
    # the variance is three times that of 2-test vectors at equal n
    assert std_error**2 == pytest.approx(3 * p * (1 - 2 * p) / n, rel=1e-3)
    assert abs(p - 1 / 8) <= 4 * std_error


# -- stacked closed forms -----------------------------------------------------


def _per_pair_closed_form(eta, sigma, embedded) -> float:
    """Reference: the closed-form angle of one pair, computed alone, with the
    per-pair projection the stacked path replaced (up to two SVDs)."""

    def orthonormal_rows(vectors, rank):
        _, s, vt = np.linalg.svd(vectors, full_matrices=False)
        assert int((s > 1e-10 * s[0]).sum()) == rank
        return vt[:rank]

    c = len(sigma) - len(eta)
    if c < 2:
        return (1.0, 0.5)[c]
    x = embedded.barycenter(eta)
    directions = embedded.points([v for v in sigma if v not in eta]) - x
    if len(eta) > 1:
        face_basis = orthonormal_rows(embedded.points(eta) - x, len(eta) - 1)
        directions = directions - (directions @ face_basis.T) @ face_basis
    basis = orthonormal_rows(directions, c)
    (u0, u1), (v0, v1) = directions @ basis.T
    theta = math.atan2(abs(u0 * v1 - u1 * v0), u0 * v0 + u1 * v1)
    return theta / (2.0 * math.pi)


def _isometric_lift(embedded, dim, seed):
    """The complex under a random rigid motion into R^dim."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lift = q[:, : embedded.ambient_dim]
    shift = rng.standard_normal(dim)
    coords = {v: lift @ p + shift for v, p in embedded.coordinates.items()}
    return EmbeddedComplex(embedded.complex, coords, dim)


def _thin_wedge_tetrahedron():
    # the edge (0, 1) has a dihedral angle of about 1e-8
    coords = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0.3, 1, 0), 3: (0.6, 1, 1e-8)}
    return EmbeddedComplex(SimplicialComplex([(0, 1, 2, 3)]), coords)


def _sd2_sphere2():
    sd = boundary_of_simplex(3)
    for _ in range(2):
        sd = barycentric_subdivide(sd).refined
    return sd


CLOSED_FORM_CORPUS = {
    "sphere2": lambda: boundary_of_simplex(3),
    "sphere3": lambda: boundary_of_simplex(4),
    "sd2_sphere2": _sd2_sphere2,
    "book": triple_book,
    "join": lambda: join_of_sphere_boundaries(2, 2),
    "random4": lambda: random_simplex(4, seed=5),
    "random5": lambda: random_simplex(5, seed=6),
    "cross4": lambda: cross_polytope(4),
    "thin_wedge": _thin_wedge_tetrahedron,
    "book_in_r6": lambda: _isometric_lift(triple_book(), 6, seed=1),
}


@pytest.mark.parametrize("name", list(CLOSED_FORM_CORPUS))
def test_stacked_closed_forms_match_the_per_pair_algorithm(name):
    embedded = CLOSED_FORM_CORPUS[name]()
    pairs = [(e, s) for e, s in top_angle_pairs(embedded.complex) if len(s) - len(e) <= 2]
    cache = AngleCache(embedded, AngleConfig(samples=1000, threads=1))
    cache.fill(pairs)
    assert len(cache._values) == len(pairs)
    for eta, sigma in pairs:
        expected = _per_pair_closed_form(eta, sigma, embedded)
        assert cache._values[(eta, sigma)].value == expected  # bit for bit
        assert solid_angle(eta, sigma, embedded) == cache._values[(eta, sigma)]
        assert cache._values[(eta, sigma)].method == "exact"


def test_thin_dihedral_angle_is_not_rounded_away():
    value = solid_angle((0, 1), (0, 1, 2, 3), _thin_wedge_tetrahedron()).value
    assert 0.0 < value < 1e-8


@pytest.mark.parametrize(
    "pair, error",
    [
        (((0, 1, 2, 4), (0, 1, 2, 3)), GeometryError),  # codimension 0, not a face
        (((0, 1, 4), (0, 1, 2, 3)), GeometryError),  # codimension 1
        (((0, 4), (0, 1, 2, 3)), GeometryError),  # codimension 2
        (((0, 1, 4), (0, 1, 4)), KeyError),  # not in the complex
        (((0, 1), (0, 1, 4)), KeyError),
        (((0,), (0, 1, 4)), KeyError),
        (((4,), (0, 1, 2, 3)), GeometryError),  # codimension 3, Monte Carlo
        (((0,), (0, 1, 2, 4)), KeyError),
    ],
)
def test_fill_checks_closed_form_pairs(monkeypatch, solid_tet, pair, error):
    # every pair is checked before any Monte Carlo pair is sampled
    counted = []
    real = geometry.count_cone_hits

    def recording(*args):
        counted.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "count_cone_hits", recording)
    good = [((0, 1), (0, 1, 2, 3)), ((0, 1, 2), (0, 1, 2, 3)), ((1,), (0, 1, 2, 3)), ((2,), (0, 1, 2, 3))]
    for threads in (1, 2):
        with pytest.raises(error):
            AngleCache(solid_tet, AngleConfig(samples=2000, seed=7, threads=threads)).fill(good + [pair])
    with pytest.raises(error):
        solid_angle(*pair, solid_tet, FAST)
    assert counted == []


def test_a_singular_solver_names_its_pair(monkeypatch, solid_tet):
    # the stacked inverse fails as a whole; the error still names the pair
    bad = geometry.projected_cone_generators((2,), (0, 1, 2, 3), solid_tet).T
    real = np.linalg.inv

    def inverse(a):
        if any((m == bad).all() for m in np.reshape(a, (-1, 3, 3))):
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", inverse)
    pairs = [((v,), (0, 1, 2, 3)) for v in range(4)]
    with pytest.raises(GeometryError, match=re.escape("singular cone generators for ((2,), (0, 1, 2, 3))")):
        AngleCache(solid_tet, FAST).fill(pairs)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("build", [lambda: random_simplex(6), triple_book], ids=["random6", "book"])
def test_stacked_solvers_give_the_per_pair_bits(build, threads):
    # random_simplex(6) samples codimension 3 at face size 4 and 6 at face
    # size 1; the book samples codimension 3
    embedded = build()
    cfg = AngleConfig(samples=2000, seed=11, threads=threads)
    cache = AngleCache(embedded, cfg)
    cache.fill(top_angle_pairs(embedded.complex))
    sampled = [pair for pair, angle in cache._values.items() if angle.method == "monte_carlo"]
    assert sampled
    for pair in sampled:
        assert cache._values[pair] == solid_angle(*pair, embedded, cfg)


def test_a_refill_of_cached_pairs_computes_nothing(monkeypatch):
    five = random_simplex(5, seed=4)
    pairs = top_angle_pairs(five.complex)
    cache = AngleCache(five, AngleConfig(samples=2000, seed=4, threads=2))
    cache.fill(pairs)
    before = dict(cache._values)
    calls = []
    for owner, name in [
        (SimplicialComplex, "canonical"),
        (geometry, "_cone_generators"),
        (geometry, "solid_angle"),
    ]:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    cache.fill(pairs)
    assert calls == []
    # lists and numpy ints are converted, and then found cached
    cache.fill([(list(eta), np.array(sigma)) for eta, sigma in pairs])
    cache.fill([(tuple(np.int64(v) for v in eta), sigma) for eta, sigma in pairs])
    assert set(calls) == {"canonical"}
    assert cache._values == before


def _rotation(dim, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


# -- quadrature at codimension 4 and 5 ---------------------------------------

ORTHANT_REFERENCES = json.loads((Path(__file__).parent / "data" / "orthant_references.json").read_text())


def _cone_simplex(generators) -> EmbeddedComplex:
    """The simplex (0, g_1, ..., g_c), whose angle at vertex 0 is the cone
    spanned by the rows g_i of ``generators``."""
    g = np.asarray(generators, dtype=float)
    coords = {0: np.zeros(g.shape[1]), **{i + 1: row for i, row in enumerate(g)}}
    return EmbeddedComplex(SimplicialComplex([tuple(range(len(g) + 1))]), coords)


def _apex_angle(generators) -> AngleValue:
    return solid_angle((0,), tuple(range(len(generators) + 1)), _cone_simplex(generators), FAST)


@pytest.mark.parametrize("cone", ORTHANT_REFERENCES["cones"], ids=lambda cone: cone["name"])
def test_quadrature_holds_the_40_digit_references(cone):
    """References from tests/make_orthant_references.py: each angle lies
    within its abs_error of the 40-digit value, or, for a nearly collinear
    cone whose bound exceeds 1e-12, comes from Monte Carlo."""
    generators = cone["generators"]
    cache = AngleCache(_cone_simplex(generators), FAST)
    angle = cache.angle((0,), tuple(range(len(generators) + 1)))
    if cone["s"] == 1e-6 or angle.method == "monte_carlo":
        assert angle.method == "monte_carlo" and cone["kind"] == "near_collinear"
        assert abs(angle.value - float(Fraction(cone["angle"]))) < 4 * angle.std_error
        return
    assert angle.method == "quadrature" and angle.std_error == 0.0
    assert 0.0 < angle.abs_error <= 1e-12
    assert abs(Fraction(angle.value) - Fraction(cone["angle"])) <= angle.abs_error


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "cone", [cone for cone in ORTHANT_REFERENCES["cones"] if cone["kind"] == "random"], ids=lambda cone: cone["name"]
)
def test_monte_carlo_is_calibrated_on_the_40_digit_references(cone, seed):
    """The estimator's z-score against each random c = 4 and c = 5 reference
    angle stays within 4 sigma: the default path sends these cones to
    quadrature, so this is the Monte Carlo check of their overlapping
    images (random_c5_2 has 2cp = 3.1)."""
    from simcurv.geometry import _estimate_cone_fraction

    generators = cone["generators"]
    embedded = _cone_simplex(generators)
    cone_generators = geometry.projected_cone_generators((0,), tuple(range(len(generators) + 1)), embedded)
    solve_t = np.linalg.inv(cone_generators.T).T
    p, std_error, _ = _estimate_cone_fraction(solve_t, AngleConfig(samples=200_000, seed=seed), 0, 0)
    assert abs(p - float(Fraction(cone["angle"]))) <= 4 * std_error


@pytest.mark.parametrize("c", [4, 5])
def test_a_fallback_pair_gets_one_quadrature(monkeypatch, c):
    """The near-collinear s = 1e-6 cone fails its quadrature bound, so it is
    sampled, with the solver of the fill's set-up: the quadrature judges the
    pair once."""
    (cone,) = [cone for cone in ORTHANT_REFERENCES["cones"] if cone["name"] == f"near_collinear_c{c}_s1e-06"]
    embedded = _cone_simplex(cone["generators"])
    rows = []
    real = geometry._quadrature_angles

    def recording(solve_t):
        rows.append(len(solve_t))
        return real(solve_t)

    monkeypatch.setattr(geometry, "_quadrature_angles", recording)
    pair = ((0,), tuple(range(c + 1)))
    cache = AngleCache(embedded, FAST)
    cache.fill([pair])
    assert cache._values[pair].method == "monte_carlo"
    assert rows == [1]
    assert solid_angle(*pair, embedded, FAST) == cache._values[pair]


@pytest.mark.parametrize("c", [4, 5])
def test_quadrature_meets_equicorrelated_and_orthant_cones(c):
    # the c + 1 cones from the centre of a regular c-simplex over its facets
    # tile R^c, and their dual bases have correlation 1/2 throughout
    facet = regular_simplex_points(c)[:c]
    assert _apex_angle(facet).value == pytest.approx(1.0 / (c + 1), rel=0.0, abs=1e-12)
    # orthogonal generators of any lengths span an orthant
    rotation = _rotation(c, seed=c)
    orthant = _apex_angle(rotation * np.arange(1.0, c + 1.0)[:, None])
    assert orthant.method == "quadrature"
    assert orthant.value == pytest.approx(2.0**-c, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("c", [4, 5])
def test_quadrature_of_an_orthogonal_product_is_the_product_of_closed_forms(c):
    # g_1, g_2 span a plane and the rest its orthogonal complement, so the
    # cone is a wedge times a 2- or 3-dimensional cone: P_2 P_2 or P_2 P_3
    rng = np.random.default_rng(c)
    generators = np.zeros((c, c))
    generators[:2, :2] = rng.standard_normal((2, 2))
    generators[2:, 2:] = rng.standard_normal((c - 2, c - 2))
    generators = generators @ _rotation(c, seed=c + 10)

    def wedge(u, v):
        return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), u @ v) / (2.0 * math.pi)

    w = generators @ _rotation(c, seed=c + 10).T  # back in block form
    first = wedge(*w[:2, :2])
    second = wedge(*w[2:, 2:]) if c == 4 else van_oosterom_strackee(*w[2:, 2:])
    angle = _apex_angle(generators)
    assert angle.method == "quadrature"
    assert angle.value == pytest.approx(first * second, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("dim, seed", [(4, 2), (5, 3)])
def test_sign_flipped_cones_sum_to_one(dim, seed):
    # the 2^c cones spanned by +-g_1, ..., +-g_c tile R^c
    embedded = random_simplex(dim, seed=seed)
    sigma = tuple(range(dim + 1))
    solve_t = np.linalg.inv(geometry.projected_cone_generators((0,), sigma, embedded).T).T
    signs = np.array(list(product([1.0, -1.0], repeat=dim)))
    # flipping generator i flips column i of the solver
    angles = geometry._quadrature_angles(solve_t * signs[:, None, :])
    assert all(angle.method == "quadrature" for angle in angles)
    assert math.fsum(angle.value for angle in angles) == pytest.approx(1.0, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("dim, seed", [(4, 2), (5, 3), (6, 5)])
def test_quadrature_agrees_with_monte_carlo(dim, seed):
    from simcurv.geometry import _estimate_cone_fraction

    embedded = random_simplex(dim, seed=seed)
    pairs = [(e, s) for e, s in top_angle_pairs(embedded.complex) if len(s) - len(e) in (4, 5)]
    cache = AngleCache(embedded, FAST)
    cache.fill(pairs)
    cfg = AngleConfig(samples=200_000, seed=seed)
    quadratures = 0
    for index, (eta, sigma) in enumerate(pairs):
        angle = cache._values[(eta, sigma)]
        if angle.method == "monte_carlo":  # a cone too thin for its bound
            continue
        quadratures += 1
        solve_t = np.linalg.inv(geometry.projected_cone_generators(eta, sigma, embedded).T).T
        p, std_error, _ = _estimate_cone_fraction(solve_t, cfg, index, 0)
        assert abs(angle.value - p) < 4 * std_error
    assert quadratures >= len(pairs) - 2


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 10_000),
    log_scale=st.floats(-6.0, 6.0),
    extra_dims=st.integers(0, 2),
    order=st.permutations(range(6)),
)
def test_closed_form_angles_are_invariant(n, seed, log_scale, extra_dims, order):
    """Rigid motion, uniform scaling, vertex relabelling and a larger ambient
    space leave every closed-form angle unchanged, to 1e-12 relative, and
    every quadrature angle (codimension 4 and 5) too, up to the sum of the
    two values' abs_error bounds: a small angle is 2^-c plus an integral
    near -2^-c, so its rounding error is absolute, not relative.  The shift
    is scaled with the simplex: moving a 1e-6-sized simplex by 1 costs about
    1e-10 of its coordinates' relative precision before any angle is
    computed.  Vertex v of the moved simplex gets the id ``relabel[v]``."""
    simplex = random_simplex(n, seed=seed)
    dim = n + extra_dims
    rotation = _rotation(dim, seed)
    shift = np.random.default_rng(seed + 1).standard_normal(dim)
    scale = 10.0**log_scale
    relabel = dict(enumerate(v for v in order if v <= n))
    coords = {
        relabel[v]: scale * (rotation @ np.concatenate([p, np.zeros(extra_dims)]) + shift)
        for v, p in simplex.coordinates.items()
    }
    moved = EmbeddedComplex(simplex.complex.relabel(relabel), coords, dim)
    # every codimension of an n-simplex, n <= 5, but the Monte Carlo one
    pairs = [(e, s) for e, s in top_angle_pairs(simplex.complex) if len(s) - len(e) != 3]
    images = [tuple(tuple(sorted(relabel[v] for v in f)) for f in pair) for pair in pairs]
    before, after = AngleCache(simplex, FAST), AngleCache(moved, FAST)
    before.fill(pairs)
    after.fill(images)
    for pair, image in zip(pairs, images):
        old, new = before.angle(*pair), after.angle(*image)
        if old.method == "monte_carlo" or new.method == "monte_carlo":
            # a quadrature whose bound exceeds 1e-12 falls back to Monte
            # Carlo, whose streams are keyed by vertex ids
            assert len(pair[1]) - len(pair[0]) in (4, 5)
            continue
        assert new.method == old.method
        bound = old.abs_error + new.abs_error
        assert new.value == pytest.approx(old.value, rel=1e-12, abs=bound)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_hull_of_a_non_finite_point_raises_naming_it(bad):
    points = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, bad], [1, 1, 1]]
    with pytest.raises(GeometryError, match="^point 3 has a non-finite coordinate$"):
        convex_hull_boundary(points)


def test_angle_config_needs_a_thousand_samples():
    with pytest.raises(ValueError, match="^samples must be at least 1000$"):
        AngleConfig(samples=999)
    assert AngleConfig(samples=1000).samples == 1000


def test_embedded_complex_rejects_mixed_lengths_and_a_wrong_ambient_dim():
    edge = SimplicialComplex([(0, 1)])
    with pytest.raises(GeometryError, match=re.escape("inconsistent coordinate lengths: {")):
        EmbeddedComplex(edge, {0: [0.0, 0.0], 1: [1.0, 0.0, 0.0]})
    with pytest.raises(GeometryError, match="^ambient_dim 3 does not match coordinates of length 2$"):
        EmbeddedComplex(edge, {0: [0.0, 0.0], 1: [1.0, 0.0]}, ambient_dim=3)


def test_sommerville_form_rejects_a_face_outside_sigma():
    with pytest.raises(GeometryError, match=re.escape("(4,) is not a face of (0, 1, 2, 3)")):
        geometry._sommerville_form((0, 1, 2, 3), (4,))
