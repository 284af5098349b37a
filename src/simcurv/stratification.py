"""Stratum assignment: which local model T_r x R^(n-1) fits around a simplex.

Full homeomorphism recognition of links is undecidable, so classification is
tiered and every answer carries its tier:

* ``exact``      - combinatorially forced (top dimensions, coface-count
                   exclusions, and for codimension-two simplices a
                   one-dimensional link that is the suspension of the
                   candidate's r points);
* ``heuristic``  - the link's Euler characteristic matches an iterated
                   suspension of the candidate's r points, which is
                   necessary but not sufficient;
* ``fallback``   - no candidate survived; the catch-all stratum r = 2 is
                   assigned and a warning is recorded;
* ``override``   - supplied by the caller.

Each simplex stores only r and its tier; its rank r/2 is derived from r, so
top simplices always get rank 1 and codimension-one simplices half their
top-coface count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from simcurv.complexes import Simplex, SimplicialComplex, _integer, as_simplex


@dataclass(frozen=True)
class StratumInfo:
    r: int
    tier: str

    @property
    def rank(self) -> Fraction:
        return Fraction(self.r, 2)


@dataclass
class StratumAssignment:
    """Per-simplex stratum indices for one complex."""

    complex: SimplicialComplex
    info: dict[Simplex, StratumInfo]
    warnings: list[str] = field(default_factory=list)

    def rank(self, simplex: Simplex) -> Fraction:
        return self.info[self.complex.canonical(simplex)].rank

    def r(self, simplex: Simplex) -> int:
        return self.info[self.complex.canonical(simplex)].r

    def tier(self, simplex: Simplex) -> str:
        return self.info[self.complex.canonical(simplex)].tier


def suspension_euler_characteristic(points: int, iterations: int) -> int:
    """Euler characteristic of the iterated suspension of a point cloud.

    chi(S X) = 2 - chi(X), starting from chi(r points) = r.
    """
    chi = points
    for _ in range(iterations):
        chi = 2 - chi
    return chi


def _is_point_suspension(link: SimplicialComplex, r0: int) -> bool:
    """Whether the at most one-dimensional ``link`` is a suspension of r0
    points: two points for r0 = 0; otherwise two vertices of degree r0
    joined by r0 internally disjoint arcs of degree-2 vertices (one arc for
    r0 = 1, a subdivided r0-theta for r0 >= 3), with no vertex left over.
    r0 = 2 never matches: the candidate is a ridge count other than 2."""
    vertices = link.simplices(0)
    edges = link.simplices(1)
    if r0 == 0:
        return len(vertices) == 2 and not edges
    adjacency: dict[int, list[int]] = {v: [] for (v,) in vertices}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    ends = [v for v, neighbours in adjacency.items() if len(neighbours) != 2]
    if len(ends) != 2 or any(len(adjacency[v]) != r0 for v in ends):
        return False
    a, b = ends
    # every other vertex has degree 2, so a walk from a can end only at a or b
    interior = 0
    for first in adjacency[a]:
        prev, cur = a, first
        while cur != b:
            if cur == a:  # the arc closes back on the end it left
                return False
            interior += 1
            x, y = adjacency[cur]
            prev, cur = cur, y if x == prev else x
    return interior + 2 == len(vertices)


def stratify(
    complex: SimplicialComplex,
    overrides: Mapping[Simplex, int] | None = None,
) -> StratumAssignment:
    """Assign a stratum index r to every simplex of the complex."""
    n = complex.dim
    info: dict[Simplex, StratumInfo] = {}
    warnings: list[str] = []
    override_map = {}
    for simplex, r in (overrides or {}).items():
        key = as_simplex(simplex)
        if key not in complex:
            raise KeyError(f"override references unknown simplex {key}")
        r = _integer(r, f"override stratum for {key}")
        if r < 0:
            raise ValueError(f"override stratum for {key} must be non-negative")
        if key in override_map:
            raise ValueError(f"more than one rank override for simplex {list(key)}")
        override_map[key] = r

    for simplex in complex.simplices():
        if simplex in override_map:
            r = override_map[simplex]
            info[simplex] = StratumInfo(r, "override")
            continue
        p = len(simplex) - 1
        if p == n:
            info[simplex] = StratumInfo(2, "exact")
            continue
        if p == n - 1:
            r = len(complex.top_cofaces(simplex))
            info[simplex] = StratumInfo(r, "exact")
            continue
        info[simplex] = _classify_low_simplex(complex, simplex, warnings)

    return StratumAssignment(complex, info, warnings)


def _classify_low_simplex(
    complex: SimplicialComplex, simplex: Simplex, warnings: list[str]
) -> StratumInfo:
    n = complex.dim
    p = len(simplex) - 1
    candidates = {
        len(complex.top_cofaces(gamma))
        for gamma in complex.star(simplex)
        if len(gamma) - 1 == n - 1
    } - {2}
    if not candidates:
        # only manifold-like ridge counts around: forced into the catch-all
        return StratumInfo(2, "exact")
    if len(candidates) > 1:
        # two distinct non-manifold counts exclude every single local model
        return StratumInfo(2, "exact")
    r0 = candidates.pop()

    link = complex.link(simplex)
    if p == n - 2:
        if _is_point_suspension(link, r0):
            return StratumInfo(r0, "exact")
        return _fallback(simplex, r0, warnings)

    # p < n - 2: the Euler characteristic is necessary, not sufficient.  A
    # ridge rho of the link lies in as many link tops as rho + simplex has
    # top cofaces, so the link's ridge counts are the candidates' counts,
    # all 2 or r0 by now, and need no second test.
    if link.euler_characteristic() != suspension_euler_characteristic(r0, n - 1 - p):
        return _fallback(simplex, r0, warnings)
    return StratumInfo(r0, "heuristic")


def _fallback(simplex: Simplex, r0: int, warnings: list[str]) -> StratumInfo:
    warnings.append(
        f"simplex {simplex}: candidate stratum {r0} rejected by link tests; "
        f"assigned the catch-all stratum 2"
    )
    return StratumInfo(2, "fallback")


def stratified_euler_characteristic(
    complex: SimplicialComplex, assignment: StratumAssignment
) -> Fraction:
    """Rank-weighted alternating simplex count, an exact rational: the
    alternating sum of the indices r, halved."""
    total = 0
    for simplex in complex.simplices():
        total += assignment.r(simplex) * (-1) ** (len(simplex) - 1)
    return Fraction(total, 2)
