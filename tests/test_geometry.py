import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simcurv.complexes import SimplicialComplex
from simcurv.generators import (
    random_simplex,
    regular_simplex_points,
    seven_point_configuration,
    solid_simplex,
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
)

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
        AngleValue(0.5, 0.0, "monte_carlo")


def test_codim_zero_and_one_are_rational(solid_tet):
    sigma = (0, 1, 2, 3)
    full = solid_angle(sigma, sigma, solid_tet, FAST)
    assert full.rational == Fraction(1) and full.method == "exact"
    half = solid_angle((0, 1, 2), sigma, solid_tet, FAST)
    assert half.rational == Fraction(1, 2) and half.std_error == 0.0


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
    assert estimate.samples == 400_000


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


def test_block_split_invariance(solid_tet):
    # the estimate is a fixed function of (seed, pair); block size is internal
    a = solid_angle(
        (0,), (0, 1, 2, 3), solid_tet, AngleConfig(samples=64_000, seed=9, block_size=64_000)
    )
    b = solid_angle(
        (0,), (0, 1, 2, 3), solid_tet, AngleConfig(samples=64_000, seed=9, block_size=16_000)
    )
    assert abs(a.value - b.value) < 4 * (a.std_error + b.std_error)


def test_thread_count_env_fallback(monkeypatch):
    from simcurv.geometry import default_thread_count

    monkeypatch.setenv("ASC_CURV_THREADS", "2")
    assert default_thread_count() == 2
    assert AngleConfig(samples=1000).resolved_threads() == 2
    assert AngleConfig(samples=1000, threads=5).resolved_threads() == 5
    monkeypatch.delenv("ASC_CURV_THREADS")
    assert default_thread_count() >= 1


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
    assert methods == {(1, "exact"), (2, "exact"), (3, "monte_carlo"), (4, "monte_carlo")}


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

    monkeypatch.delenv("ASC_CURV_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_thread_count() == 1
    assert AngleConfig(samples=1000).resolved_threads() == 1
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


@pytest.mark.parametrize("threads", [0, -3])
def test_non_positive_threads_are_rejected(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        AngleConfig(samples=1000, threads=threads)


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_env_names_the_variable(monkeypatch, value):
    from simcurv.geometry import default_thread_count

    monkeypatch.setenv("ASC_CURV_THREADS", value)
    with pytest.raises(ValueError, match="ASC_CURV_THREADS must be a positive integer"):
        default_thread_count()


def test_fill_pool_is_no_larger_than_its_work(monkeypatch, solid_tet):
    import simcurv.geometry as geometry

    sizes = []

    class RecordingPool(geometry.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(geometry, "ThreadPoolExecutor", RecordingPool)
    cache = AngleCache(solid_tet, AngleConfig(samples=1000, seed=1, threads=8))
    cache.fill([((v,), (0, 1, 2, 3)) for v in range(3)])
    assert sizes == [3]
