from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simcurv import stratification
from simcurv.complexes import SimplicialComplex
from simcurv.stratification import (
    StratumInfo,
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


def _strata(assignment):
    return {s: (info.r, info.rank, info.tier) for s, info in assignment.info.items()}


def test_shared_ranks_match_fresh_fractions(monkeypatch, sphere3, book):
    cases = [
        (sphere3.complex, None),
        (book.complex, None),  # exact and heuristic tiers
        (barycentric_subdivide(book).refined.complex, None),
        (SimplicialComplex([(0, 1, 2), (0, 3, 4)]), None),  # a fallback
        (SimplicialComplex([(0, 1, 2), (0, 1, 3), (4, 5, 6, 7)]), None),  # r = 0
        (book.complex, {(0, 3): 5, (0, 1, 2, 3): 7, (0, 1, 2): 0}),
    ]
    shared = [stratify(complex, overrides) for complex, overrides in cases]
    for assignment in shared:
        by_r = {}
        for info in assignment.info.values():
            assert by_r.setdefault(info.r, info.rank) is info.rank  # one Fraction per r
    monkeypatch.setattr(stratification, "_rank", lambda r: Fraction(r, 2))
    for (complex, overrides), assignment in zip(cases, shared):
        fresh = stratify(complex, overrides)
        assert _strata(assignment) == _strata(fresh)
        assert assignment.warnings == fresh.warnings
        reference = sum(
            (fresh.rank(s) * (-1) ** (len(s) - 1) for s in complex.simplices()), Fraction(0)
        )
        assert stratified_euler_characteristic(complex, assignment) == reference


def test_stratum_info_checks_its_rank():
    with pytest.raises(ValueError, match="rank must equal r/2"):
        StratumInfo(3, Fraction(1), "exact")
    with pytest.raises(ValueError, match="rank must equal r/2"):
        StratumInfo(2, Fraction(3, 2), "exact")
    assert StratumInfo(3, Fraction(3, 2), "exact").rank == Fraction(3, 2)  # a fresh, equal rank
    assert StratumInfo(1000, Fraction(500), "override").r == 1000
