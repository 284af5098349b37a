"""Finite abstract simplicial complexes.

Simplices are tuples of strictly increasing non-negative vertex ids.  A
complex stores the closure of its maximal simplices, grouped by dimension,
with top-dimensional cofaces precomputed (every curvature formula iterates
them).  Stars are vertex-indexed: each vertex's star is stored in canonical
order, and the star of a simplex filters the star of its first vertex.
Construction is linear in the size of the closure.  Complexes are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Iterable, Iterator, Mapping

Simplex = tuple[int, ...]


def _integer(value, what: str) -> int:
    """``value`` as an int.  A bool, a float or a string, which ``int()``
    would take as 1, truncate or parse, raises ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def as_simplex(vertices: Iterable[int]) -> Simplex:
    """Normalize integer vertex ids (see ``_integer``) into a canonical tuple."""
    vs = tuple(sorted(_integer(v, "vertex id") for v in vertices))
    if not vs:
        raise ValueError("a simplex needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate vertices in simplex {vs}")
    if vs[0] < 0:
        raise ValueError(f"negative vertex id in simplex {vs}")
    return vs


def proper_faces(simplex: Simplex) -> Iterator[Simplex]:
    """All non-empty proper faces of a simplex."""
    for k in range(1, len(simplex)):
        yield from combinations(simplex, k)


class SimplicialComplex:
    """The closure of a set of maximal simplices.

    The empty complex (dimension -1, Euler characteristic 0) is allowed; it
    arises naturally as the link of a facet.
    """

    def __init__(self, maximal: Iterable[Iterable[int]], _allow_empty: bool = False):
        maximal_set = {as_simplex(m) for m in maximal}
        if not maximal_set and not _allow_empty:
            raise ValueError("a complex needs at least one simplex")
        faces: set[Simplex] = set()
        for m in maximal_set:
            faces.update(proper_faces(m))
        # inputs that are faces of other inputs are absorbed
        self.maximal: frozenset[Simplex] = frozenset(maximal_set - faces)
        closure = faces | self.maximal
        self._set: frozenset[Simplex] = frozenset(closure)
        self.dim: int = max((len(s) - 1 for s in closure), default=-1)
        by_dim: list[list[Simplex]] = [[] for _ in range(self.dim + 1)]
        for s in closure:
            by_dim[len(s) - 1].append(s)
        self._by_dim: tuple[tuple[Simplex, ...], ...] = tuple(
            tuple(sorted(group)) for group in by_dim
        )
        order = [s for group in self._by_dim for s in group]
        self._index: dict[Simplex, int] = {s: i for i, s in enumerate(order)}
        vertex_star: dict[int, list[Simplex]] = {}
        for s in order:
            for v in s:
                vertex_star.setdefault(v, []).append(s)
        self._vertex_star: dict[int, tuple[Simplex, ...]] = {
            v: tuple(star) for v, star in vertex_star.items()
        }
        self._top_cofaces: dict[Simplex, tuple[Simplex, ...]] = {
            s: () for s in closure
        }
        for top in self.simplices(self.dim):
            self._top_cofaces[top] = (top,)
            for f in proper_faces(top):
                self._top_cofaces[f] = self._top_cofaces[f] + (top,)

    # -- basic queries -----------------------------------------------------

    def __contains__(self, simplex: Iterable[int]) -> bool:
        return tuple(simplex) in self._set

    def __len__(self) -> int:
        return len(self._set)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"SimplicialComplex(dim={self.dim}, f={self.f_vector()})"

    def simplices(self, dim: int | None = None) -> tuple[Simplex, ...]:
        """Simplices of one dimension, or all of them in canonical order."""
        if dim is None:
            return tuple(s for group in self._by_dim for s in group)
        if dim < 0 or dim > self.dim:
            return ()
        return self._by_dim[dim]

    def canonical(self, simplex: Iterable[int]) -> Simplex:
        """``simplex`` as a canonical tuple: itself when it is a tuple of this
        complex, else ``as_simplex(simplex)``, which sorts, converts and
        checks it."""
        if type(simplex) is tuple and simplex in self._set:
            return simplex
        return as_simplex(simplex)

    def index_of(self, simplex: Simplex) -> int:
        """Canonical position of a simplex (sorted by dimension, then lex)."""
        return self._index[simplex]

    def vertices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.simplices(0))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self._by_dim)

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * f for i, f in enumerate(self.f_vector()))

    # -- stars, links, cofaces ---------------------------------------------

    def _require(self, simplex: Simplex) -> None:
        if simplex not in self._set:
            raise KeyError(f"simplex {simplex} is not in the complex")

    def star(self, eta: Simplex) -> tuple[Simplex, ...]:
        """All simplices having eta as a face, eta itself included."""
        self._require(eta)
        es = set(eta)
        return tuple(s for s in self._vertex_star[eta[0]] if es.issubset(s))

    def link(self, eta: Simplex) -> "SimplicialComplex":
        """The complex { w : w disjoint from eta and w + eta in K }."""
        self._require(eta)
        es = set(eta)
        faces = [
            tuple(v for v in s if v not in es)
            for s in self.star(eta)
            if len(s) > len(eta)
        ]
        return SimplicialComplex(faces, _allow_empty=True)

    def top_cofaces(self, eta: Simplex) -> tuple[Simplex, ...]:
        """Top-dimensional simplices having eta as a face (eta included if top)."""
        self._require(eta)
        return self._top_cofaces[eta]

    # -- global predicates ---------------------------------------------------

    def is_two_pseudomanifold(self) -> bool:
        """True iff every codimension-one simplex has exactly two top cofaces."""
        return all(
            len(self._top_cofaces[s]) == 2 for s in self.simplices(self.dim - 1)
        )

    # -- transformations -----------------------------------------------------

    def relabel(self, mapping: Mapping[int, int]) -> "SimplicialComplex":
        """Apply a vertex-id bijection (ids not mentioned stay fixed)."""
        return SimplicialComplex(
            [tuple(mapping.get(v, v) for v in m) for m in self.maximal]
        )


def join_complexes(
    left: SimplicialComplex, right: SimplicialComplex
) -> tuple[SimplicialComplex, dict[int, int]]:
    """Join of two complexes; right-hand vertex ids are renumbered clear of left.

    Returns the join and the id mapping applied to the right complex, for
    traceability.
    """
    if right.dim == -1:
        return left, {}
    if left.dim == -1:
        return right, {v: v for v in right.vertices()}
    offset = max(left.vertices()) + 1
    mapping = {v: offset + i for i, v in enumerate(right.vertices())}
    shifted = right.relabel(mapping)
    maximal = [m + s for m in left.maximal for s in shifted.maximal]
    return SimplicialComplex(maximal), mapping


def cone_complex(base: SimplicialComplex) -> tuple[SimplicialComplex, int]:
    """Join with one new vertex; returns the cone and the apex id."""
    joined, mapping = join_complexes(base, SimplicialComplex([(0,)]))
    return joined, mapping[0]


def suspension_complex(base: SimplicialComplex) -> tuple[SimplicialComplex, tuple[int, int]]:
    """Join with two new vertices; returns the suspension and the pole ids."""
    joined, mapping = join_complexes(base, SimplicialComplex([(0,), (1,)]))
    return joined, (mapping[0], mapping[1])
