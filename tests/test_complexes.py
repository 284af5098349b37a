from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simcurv.complexes import (
    SimplicialComplex,
    as_simplex,
    cone_complex,
    join_complexes,
    suspension_complex,
)

TRIANGLE_BOUNDARY = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
TET_BOUNDARY = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def book_complex():
    return SimplicialComplex([(0, 1, 2, k) for k in (3, 4, 5)])


def test_as_simplex_rejects_malformed():
    with pytest.raises(ValueError):
        as_simplex([1, 1, 2])
    with pytest.raises(ValueError):
        as_simplex([])
    with pytest.raises(ValueError):
        as_simplex([-1, 2])
    # int() would truncate 1.7 and 2.0, parse "1" and take True as 1
    for vertices in ([0, 1.7, 2], [0, 2.0], ["1", "2"], [True, 2], [np.bool_(True), 2]):
        with pytest.raises(ValueError, match="vertex id must be an integer"):
            as_simplex(vertices)
    assert as_simplex([3, 1, 2]) == (1, 2, 3)
    simplex = as_simplex(np.array([3, 0, 1]))
    assert simplex == (0, 1, 3) and all(type(v) is int for v in simplex)


def test_from_maximal_triangle():
    k = SimplicialComplex([(0, 1, 2)])
    assert k.f_vector() == (3, 3, 1)
    assert k.dim == 2


def test_from_maximal_absorbs_redundant():
    k = SimplicialComplex([(0, 1, 2), (0, 1), (2,)])
    assert k.maximal == frozenset({(0, 1, 2)})


def test_tet_boundary_f_vector():
    assert TET_BOUNDARY.f_vector() == (4, 6, 4)
    assert TET_BOUNDARY.euler_characteristic() == 2


def test_circle():
    assert TRIANGLE_BOUNDARY.euler_characteristic() == 0


def test_closure_idempotence():
    for k in [TET_BOUNDARY, book_complex(), TRIANGLE_BOUNDARY]:
        again = SimplicialComplex(k.simplices())
        assert again == k


def test_link_of_vertex_in_sphere():
    link = TET_BOUNDARY.link((0,))
    assert link.f_vector() == (3, 3)
    assert link.euler_characteristic() == 0


def test_link_of_edge_in_book():
    link = book_complex().link((0, 3))
    assert link == SimplicialComplex([(1, 2)])


def test_link_of_facet_is_empty():
    link = TET_BOUNDARY.link((0, 1, 2))
    assert link.dim == -1
    assert link.euler_characteristic() == 0
    assert len(link) == 0


def test_link_requires_membership():
    with pytest.raises(KeyError):
        TET_BOUNDARY.link((0, 4))


def test_star():
    top = SimplicialComplex([(0, 1, 2, 3)])
    assert top.star((0, 1, 2, 3)) == ((0, 1, 2, 3),)
    star0 = TET_BOUNDARY.star((0,))
    assert len([s for s in star0 if len(s) == 1]) == 1
    assert len([s for s in star0 if len(s) == 2]) == 3
    assert len([s for s in star0 if len(s) == 3]) == 3
    star_shared = book_complex().star((0, 1, 2))
    assert set(star_shared) == {(0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)}


def test_link_star_duality():
    k = book_complex()
    for eta in k.simplices():
        link = k.link(eta)
        star = set(k.star(eta))
        for omega in link.simplices():
            assert not set(omega) & set(eta)
            assert as_simplex(omega + eta) in star


def test_cone_and_suspension():
    cone, apex = cone_complex(TRIANGLE_BOUNDARY)
    assert cone.f_vector() == (4, 6, 3)
    assert apex == 3
    two_points = SimplicialComplex([(0,), (1,)])
    susp, poles = suspension_complex(two_points)
    assert susp.f_vector() == (4, 4)
    assert susp.euler_characteristic() == 0


def test_join_spheres():
    joined, mapping = join_complexes(TRIANGLE_BOUNDARY, TRIANGLE_BOUNDARY)
    assert joined.f_vector() == (6, 15, 18, 9)
    assert sorted(mapping.values()) == [3, 4, 5]


def _face_polynomial(k):
    # coefficient list of 1 + f_0 x + f_1 x^2 + ...
    return [1, *k.f_vector()]


def test_join_f_vector_product_oracle():
    # counting oracle: the face polynomial of a join is the product of the
    # factors' face polynomials
    pairs = [
        (TRIANGLE_BOUNDARY, TRIANGLE_BOUNDARY),
        (TET_BOUNDARY, TRIANGLE_BOUNDARY),
        (SimplicialComplex([(0,), (1,)]), book_complex()),
    ]
    for left, right in pairs:
        joined, _ = join_complexes(left, right)
        p1 = np.polynomial.Polynomial(_face_polynomial(left))
        p2 = np.polynomial.Polynomial(_face_polynomial(right))
        product = (p1 * p2).coef.round().astype(int)
        assert list(product[1:]) == list(joined.f_vector())


def test_join_euler_formula():
    generators = [TRIANGLE_BOUNDARY, TET_BOUNDARY, book_complex()]
    for left in generators:
        for right in generators:
            joined, _ = join_complexes(left, right)
            cl, cr = left.euler_characteristic(), right.euler_characteristic()
            assert joined.euler_characteristic() == cl + cr - cl * cr


def test_is_two_pseudomanifold():
    assert SimplicialComplex(
        [tuple(v for v in range(5) if v != skip) for skip in range(5)]
    ).is_two_pseudomanifold()
    assert not book_complex().is_two_pseudomanifold()
    assert not SimplicialComplex([(0, 1, 2, 3)]).is_two_pseudomanifold()


def test_polytope_boundary_cofaces_always_two():
    # boundary of the 4-dimensional cross-polytope
    maximal = [
        tuple(2 * i + ((signs >> i) & 1) for i in range(4)) for signs in range(16)
    ]
    k = SimplicialComplex(maximal)
    assert k.is_two_pseudomanifold()


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(6)))
def test_relabel_preserves_structure(perm):
    k = book_complex()
    relabeled = k.relabel(dict(enumerate(perm)))
    assert relabeled.f_vector() == k.f_vector()
    assert relabeled.euler_characteristic() == k.euler_characteristic()
    assert relabeled.is_two_pseudomanifold() == k.is_two_pseudomanifold()


def _brute_force(inputs):
    """Reference complex: pairwise absorption, closure, and star by scanning."""
    inputs = {as_simplex(m) for m in inputs}
    maximal = {m for m in inputs if not any(m != o and set(m) <= set(o) for o in inputs)}
    closure = {f for m in maximal for k in range(1, len(m) + 1) for f in combinations(m, k)}
    order = tuple(sorted(closure, key=lambda s: (len(s), s)))
    stars = {eta: tuple(s for s in order if set(eta) <= set(s)) for eta in order}
    return maximal, order, stars


@st.composite
def maximal_sets(draw):
    """Random inputs: overlapping simplices of mixed dimension, some nested
    inside others, isolated vertices, sometimes no input at all."""
    simplex = st.sets(st.integers(0, 7), min_size=1, max_size=4).map(as_simplex)
    inputs = draw(st.lists(simplex, max_size=8))
    for m in list(inputs):
        if len(m) > 1 and draw(st.booleans()):
            inputs.append(m[: draw(st.integers(1, len(m) - 1))])
    return inputs


@settings(max_examples=200, deadline=None)
@given(maximal_sets())
def test_construction_and_stars_match_brute_force(inputs):
    if not inputs:
        assert SimplicialComplex(inputs, _allow_empty=True).simplices() == ()
        with pytest.raises(ValueError):
            SimplicialComplex(inputs)
        return
    k = SimplicialComplex(inputs)
    maximal, order, stars = _brute_force(inputs)
    assert k.maximal == maximal
    assert k.simplices() == order
    for eta in order:
        assert k.star(eta) == stars[eta]
        link = {tuple(v for v in s if v not in eta) for s in stars[eta] if s != eta}
        assert set(k.link(eta).simplices()) == link
