import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simcurv.complexes import SimplicialComplex
from simcurv.stratification import (
    StratumInfo,
    _is_point_suspension,
    stratified_euler_characteristic,
    stratify,
    suspension_euler_characteristic,
)
from simcurv.subdivision import barycentric_subdivide


def test_suspension_euler_characteristic():
    assert suspension_euler_characteristic(3, 0) == 3
    assert suspension_euler_characteristic(3, 1) == -1
    assert suspension_euler_characteristic(1, 2) == 1
    assert suspension_euler_characteristic(0, 1) == 2  # suspension of nothing: two points


def test_pseudomanifold_gets_rank_one(sphere3, join_sphere3):
    for embedded in (sphere3, join_sphere3):
        assignment = stratify(embedded.complex)
        for s in embedded.complex.simplices():
            assert assignment.rank(s) == 1
            assert assignment.tier(s) == "exact"
        chi_s = stratified_euler_characteristic(embedded.complex, assignment)
        assert chi_s == embedded.complex.euler_characteristic() == 0


def test_sphere2_chi_s(sphere2):
    assignment = stratify(sphere2.complex)
    assert stratified_euler_characteristic(sphere2.complex, assignment) == 2


def test_book_strata(book):
    assignment = stratify(book.complex)
    info = assignment.info
    # shared triangle carries three pages
    assert info[(0, 1, 2)].r == 3
    assert info[(0, 1, 2)].rank == Fraction(3, 2)
    assert info[(0, 1, 2)].tier == "exact"
    # page triangles are free boundary
    assert info[(0, 1, 3)].r == 1
    # spine edges ((0,1) etc.) are forced into the catch-all
    for edge in [(0, 1), (0, 2), (1, 2)]:
        assert info[edge].r == 2 and info[edge].tier == "exact"
    # page edges: link is a single arc
    assert info[(0, 3)].r == 1 and info[(0, 3)].tier == "exact"
    # spine vertices excluded by mixed coface counts
    for v in [(0,), (1,), (2,)]:
        assert info[v].r == 2 and info[v].tier == "exact"
    # page apexes: heuristic cone of one point
    for v in [(3,), (4,), (5,)]:
        assert info[v].r == 1 and info[v].tier == "heuristic"
    assert stratified_euler_characteristic(book.complex, assignment) == 0


def test_solid_tet_strata(solid_tet):
    assignment = stratify(solid_tet.complex)
    assert assignment.rank((0, 1, 2, 3)) == 1
    for s in solid_tet.complex.simplices():
        if len(s) < 4:
            assert assignment.rank(s) == Fraction(1, 2)
    assert stratified_euler_characteristic(solid_tet.complex, assignment) == 0


def test_top_and_ridge_tiers(book):
    assignment = stratify(book.complex)
    for tet in book.complex.simplices(3):
        assert assignment.r(tet) == 2 and assignment.tier(tet) == "exact"
    for tri in book.complex.simplices(2):
        assert assignment.r(tri) == len(book.complex.top_cofaces(tri))


def test_boundary_edge_stratum_zero():
    # two triangles sharing an edge, floating inside a 3-dimensional complex:
    # the shared edge has two coface-free ridges around it, so its local
    # model is a plane, stratum 0
    k = SimplicialComplex([(0, 1, 2), (0, 1, 3), (4, 5, 6, 7)])
    assignment = stratify(k)
    assert assignment.r((0, 1)) == 0
    assert assignment.rank((0, 1)) == 0
    assert assignment.tier((0, 1)) == "exact"


def test_fallback_is_warned():
    # two triangles wedged at a single vertex: no local cone model fits
    k = SimplicialComplex([(0, 1, 2), (0, 3, 4)])
    assignment = stratify(k)
    assert assignment.r((0,)) == 2
    assert assignment.tier((0,)) == "fallback"
    assert any("(0,)" in w for w in assignment.warnings)


def test_overrides(book):
    assignment = stratify(book.complex, overrides={(0, 3): 5})
    assert assignment.r((0, 3)) == 5
    assert assignment.rank((0, 3)) == Fraction(5, 2)
    assert assignment.tier((0, 3)) == "override"
    with pytest.raises(KeyError):
        stratify(book.complex, overrides={(0, 9): 1})
    with pytest.raises(ValueError):
        stratify(book.complex, overrides={(0, 3): -1})
    # int() would truncate 1.5 to 1, take True as 1 and parse "3"
    for r in (1.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match=r"override stratum for \(0, 3\) must be an integer"):
            stratify(book.complex, overrides={(0, 3): r})
    assignment = stratify(book.complex, overrides={(0, 3): np.int64(5)})
    assert assignment.r((0, 3)) == 5 and type(assignment.r((0, 3))) is int


def test_two_overrides_for_one_simplex_are_refused(book):
    # both keys name the edge [0, 3]: the later one silently won
    with pytest.raises(ValueError, match=r"^more than one rank override for simplex \[0, 3\]$"):
        stratify(book.complex, overrides={(0, 3): 3, (3, 0): 5})


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(6)))
def test_relabeling_invariance(book, perm):
    mapping = dict(enumerate(perm))
    relabeled = book.complex.relabel(mapping)
    original = stratify(book.complex)
    moved = stratify(relabeled)
    for s in book.complex.simplices():
        image = tuple(sorted(mapping[v] for v in s))
        assert moved.r(image) == original.r(s)


def test_chi_s_invariant_under_barycentric_subdivision(sphere2, book):
    for embedded in (sphere2, book):
        before = stratified_euler_characteristic(
            embedded.complex, stratify(embedded.complex)
        )
        refined = barycentric_subdivide(embedded).refined
        after = stratified_euler_characteristic(
            refined.complex, stratify(refined.complex)
        )
        assert before == after


def test_shared_ranks_match_fresh_fractions(sphere3, book):
    cases = [
        (sphere3.complex, None),
        (book.complex, None),  # exact and heuristic tiers
        (barycentric_subdivide(book).refined.complex, None),
        (SimplicialComplex([(0, 1, 2), (0, 3, 4)]), None),  # a fallback
        (SimplicialComplex([(0, 1, 2), (0, 1, 3), (4, 5, 6, 7)]), None),  # r = 0
        (book.complex, {(0, 3): 5, (0, 1, 2, 3): 7, (0, 1, 2): 0}),
    ]
    for complex, overrides in cases:
        assignment = stratify(complex, overrides)
        for s, info in assignment.info.items():
            assert info.rank == assignment.rank(s) == Fraction(info.r, 2)
        reference = sum(
            (Fraction(assignment.r(s), 2) * (-1) ** (len(s) - 1) for s in complex.simplices()),
            Fraction(0),
        )
        assert stratified_euler_characteristic(complex, assignment) == reference


def test_stratum_info_checks_its_rank():
    # the rank is derived from r: no StratumInfo can carry another one
    assert StratumInfo(3, "exact").rank == Fraction(3, 2)
    assert StratumInfo(1000, "override").rank == 500
    with pytest.raises(TypeError):
        StratumInfo(3, Fraction(1), "exact")
    with pytest.raises(AttributeError):
        StratumInfo(3, "exact").rank = Fraction(1)


# -- one-dimensional links ---------------------------------------------------


def _canonical_graph(n, edges):
    """The least sorted edge list over every relabelling of vertices 0..n-1."""
    return n, min(
        tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
        for perm in permutations(range(n))
    )


def _suspension_models(r, max_vertices):
    """Canonical graphs of the suspension of r points on at most
    ``max_vertices`` vertices: two points for r = 0; otherwise two ends 0
    and 1 joined by r paths with k_j interior vertices each, at most one
    k_j zero (an arc for r = 1, a subdivided theta for r >= 3)."""
    if r == 0:
        return {_canonical_graph(2, [])}
    models = set()
    for interiors in combinations_with_replacement(range(max_vertices - 1), r):
        n = 2 + sum(interiors)
        if n > max_vertices or interiors.count(0) > 1:
            continue
        edges, fresh = [], 2
        for k in interiors:
            path = [0, *range(fresh, fresh + k), 1]
            fresh += k
            edges += zip(path, path[1:])
        models.add(_canonical_graph(n, edges))
    return models


def test_point_suspension_matches_an_oracle_on_every_small_graph():
    models = {r: _suspension_models(r, 5) for r in (0, 1, 3, 4)}
    assert [len(models[r]) for r in (0, 1, 3, 4)] == [1, 4, 3, 1]
    matched = dict.fromkeys(models, 0)
    for n in range(1, 6):
        possible = list(combinations(range(n), 2))
        for mask in range(1 << len(possible)):
            edges = [e for j, e in enumerate(possible) if mask >> j & 1]
            isolated = [(v,) for v in range(n) if not any(v in e for e in edges)]
            link = SimplicialComplex(edges + isolated)
            graph = _canonical_graph(n, edges)
            for r, found in models.items():
                expected = graph in found
                assert _is_point_suspension(link, r) == expected, (edges, n, r)
                matched[r] += expected
    # every model shows up, once per labelling
    assert matched == {0: 1, 1: 1 + 3 + 12 + 60, 3: 6 + 10 + 60, 4: 10}


def test_seam_of_three_discs_is_exact_at_codimension_two():
    # three discs coned over one triangle boundary: the seam vertices have a
    # theta link with three arcs, the suspension of three points
    k = SimplicialComplex([t for a in (3, 4, 5) for t in ((0, 1, a), (1, 2, a), (0, 2, a))])
    assignment = stratify(k)
    for v in (0, 1, 2):
        assert assignment.r((v,)) == 3 and assignment.tier((v,)) == "exact"
    assert not assignment.warnings


def test_theta_degrees_with_a_loop_fall_back():
    # the link of vertex 0 has two vertices of degree 3, but one arc leaving
    # vertex 1 closes back on it: not a theta
    link = [(1, 3), (2, 3), (1, 4), (4, 5), (1, 5), (2, 6), (6, 7), (2, 7)]
    assignment = stratify(SimplicialComplex([(0, a, b) for a, b in link]))
    assert assignment.r((0,)) == 2 and assignment.tier((0,)) == "fallback"
    assert any("(0,)" in w and "candidate stratum 3" in w for w in assignment.warnings)


# -- links of dimension two and up -------------------------------------------


def _random_complex(seed):
    """Random n-simplices on n + 2 to n + 5 vertices, n in 3..5, glued to the
    boundary of an (n + 1)-simplex for odd seeds, and sometimes with one
    lower-dimensional maximal simplex."""
    rng = random.Random(seed)
    n = 3 + seed % 3
    m = rng.randint(n + 2, n + 5)
    subsets = list(combinations(range(m), n + 1))
    tops = rng.sample(subsets, rng.randint(1, min(len(subsets), 3 * n)))
    if seed % 2:
        tops += combinations(range(n + 2), n + 1)
    if rng.random() < 0.3:
        tops.append(tuple(sorted(rng.sample(range(m), rng.randint(1, n)))))
    return SimplicialComplex(tops)


def test_heuristic_tier_is_the_link_euler_characteristic_test():
    heuristic = []
    for seed in range(60):
        complex = _random_complex(seed)
        n = complex.dim
        for simplex, info in stratify(complex).info.items():
            if info.tier != "heuristic":
                continue
            heuristic.append(info.r)
            p = len(simplex) - 1
            chi = complex.link(simplex).euler_characteristic()
            assert chi == suspension_euler_characteristic(info.r, n - 1 - p), simplex
            # the link's ridge counts are these top-coface counts, so they
            # need no test of their own
            for gamma in complex.star(simplex):
                if len(gamma) == n:
                    assert len(complex.top_cofaces(gamma)) in (2, info.r), (simplex, gamma)
    assert len(heuristic) > 1000 and set(heuristic) == {1, 3}
