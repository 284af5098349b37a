"""Stratum assignment: which local model T_r x R^(n-1) fits around a simplex.

Full homeomorphism recognition of links is undecidable, so classification is
tiered and every answer carries its tier:

* ``exact``      - combinatorially forced (top dimensions, coface-count
                   exclusions, one-dimensional link recognition);
* ``heuristic``  - Euler characteristic plus local coface conditions match
                   an iterated suspension of r points, which is necessary
                   but not sufficient;
* ``fallback``   - no candidate survived; the catch-all stratum r = 2 is
                   assigned and a warning is recorded;
* ``override``   - supplied by the caller.

The rank of a simplex is r/2; top simplices always get rank 1 and
codimension-one simplices half their top-coface count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from simcurv.complexes import Simplex, SimplicialComplex, as_simplex


@lru_cache(maxsize=256)
def _rank(r: int) -> Fraction:
    """The rank r/2, one shared ``Fraction`` per r: ``stratify`` builds one
    ``StratumInfo`` per simplex, and ranks take only a few values."""
    return Fraction(r, 2)


@dataclass(frozen=True)
class StratumInfo:
    r: int
    rank: Fraction
    tier: str

    def __post_init__(self):
        if self.rank is not _rank(self.r) and self.rank != Fraction(self.r, 2):
            raise ValueError("rank must equal r/2")


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


def _recognize_point_suspension(link: SimplicialComplex) -> int | None:
    """If the link is (topologically) a suspension of r points, return r.

    Recognizes, on at-most-1-dimensional links: two isolated vertices (r=0),
    a single arc (r=1), a single circle (r=2), and two branch vertices joined
    by r >= 3 internally disjoint arcs.
    """
    if link.dim > 1:
        return None
    if link.dim == -1:
        return None
    vertices = [s[0] for s in link.simplices(0)]
    edges = link.simplices(1)
    degree = Counter()
    for v in vertices:
        degree[v] = 0
    adjacency: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
        adjacency[a].append(b)
        adjacency[b].append(a)

    if not edges:
        return 0 if len(vertices) == 2 else None

    if any(d == 0 for d in degree.values()):
        return None  # isolated vertex next to edges: not a suspension

    branch = sorted(v for v, d in degree.items() if d != 2)
    if not branch:
        # all degree two: must be one single cycle
        return 2 if _is_single_cycle(vertices, adjacency) else None
    if len(branch) != 2:
        return None
    a, b = branch
    if degree[a] != degree[b]:
        return None
    arcs = _trace_arcs(a, adjacency)
    if arcs is None:
        return None
    endpoints, interior_used = arcs
    if any(end != b for end in endpoints):
        return None
    if interior_used != {v for v in vertices if v not in (a, b)}:
        return None  # leftover components
    count = len(endpoints)
    if degree[a] == 1 and count == 1:
        return 1
    if count == degree[a] and count >= 3:
        return count
    return None


def _is_single_cycle(vertices, adjacency) -> bool:
    start = vertices[0]
    seen = {start}
    prev, cur = None, start
    while True:
        nxt = [w for w in adjacency[cur] if w != prev]
        if len(adjacency[cur]) != 2 or not nxt:
            return False
        prev, cur = cur, nxt[0]
        if cur == start:
            break
        if cur in seen:
            return False
        seen.add(cur)
    return len(seen) == len(vertices)


def _trace_arcs(start, adjacency):
    """Follow every arc leaving ``start`` through degree-2 vertices.

    Returns (arc endpoints, interior vertices used), or None if an arc loops
    back to ``start`` or revisits a vertex.
    """
    endpoints = []
    used: set[int] = set()
    for first in adjacency[start]:
        prev, cur = start, first
        while len(adjacency[cur]) == 2:
            if cur in used or cur == start:
                return None
            used.add(cur)
            step = [w for w in adjacency[cur] if w != prev]
            prev, cur = cur, step[0]
        if cur == start:
            return None
        endpoints.append(cur)
    return endpoints, used


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
        if r < 0:
            raise ValueError(f"override stratum for {key} must be non-negative")
        override_map[key] = int(r)

    for simplex in complex.simplices():
        if simplex in override_map:
            r = override_map[simplex]
            info[simplex] = StratumInfo(r, _rank(r), "override")
            continue
        p = len(simplex) - 1
        if p == n:
            info[simplex] = StratumInfo(2, _rank(2), "exact")
            continue
        if p == n - 1:
            r = len(complex.top_cofaces(simplex))
            info[simplex] = StratumInfo(r, _rank(r), "exact")
            continue
        info[simplex] = _classify_low_simplex(complex, simplex, warnings)

    return StratumAssignment(complex, info, warnings)


def _classify_low_simplex(
    complex: SimplicialComplex, simplex: Simplex, warnings: list[str]
) -> StratumInfo:
    n = complex.dim
    p = len(simplex) - 1
    ridge_counts = Counter(
        len(complex.top_cofaces(gamma))
        for gamma in complex.star(simplex)
        if len(gamma) - 1 == n - 1
    )
    candidates = set(ridge_counts) - {2}
    if not candidates:
        # only manifold-like ridge counts around: forced into the catch-all
        return StratumInfo(2, _rank(2), "exact")
    if len(candidates) > 1:
        # two distinct non-manifold counts exclude every single local model
        return StratumInfo(2, _rank(2), "exact")
    r0 = candidates.pop()

    link = complex.link(simplex)
    if p == n - 2:
        recognized = _recognize_point_suspension(link)
        if recognized == r0:
            return StratumInfo(r0, _rank(r0), "exact")
        return _fallback(simplex, r0, warnings)

    # p < n - 2: necessary conditions only
    target_chi = suspension_euler_characteristic(r0, n - 1 - p)
    if link.euler_characteristic() != target_chi:
        return _fallback(simplex, r0, warnings)
    top = n - p - 1
    for ridge in link.simplices(top - 1):
        count = sum(
            1 for s in link.simplices(top) if set(ridge) <= set(s)
        )
        if count not in (2, r0):
            return _fallback(simplex, r0, warnings)
    return StratumInfo(r0, _rank(r0), "heuristic")


def _fallback(simplex: Simplex, r0: int, warnings: list[str]) -> StratumInfo:
    warnings.append(
        f"simplex {simplex}: candidate stratum {r0} rejected by link tests; "
        f"assigned the catch-all stratum 2"
    )
    return StratumInfo(2, _rank(2), "fallback")


def stratified_euler_characteristic(
    complex: SimplicialComplex, assignment: StratumAssignment
) -> Fraction:
    """Rank-weighted alternating simplex count, an exact rational: the
    alternating sum of the indices r, halved."""
    total = 0
    for simplex in complex.simplices():
        total += assignment.r(simplex) * (-1) ** (len(simplex) - 1)
    return Fraction(total, 2)
