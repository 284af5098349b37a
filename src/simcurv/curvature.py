"""The three curvatures and the theorem verifiers.

Every curvature of a simplex is an affine expression

    exact rational constant  +  sum of rational coefficients * solid angles,

so curvatures and theorem residuals are accumulated symbolically as linear
forms over (face, top-simplex) angle pairs, with integer numerators over one
denominator per form, and evaluated once against a shared angle cache.
Identical pairs therefore cancel exactly, and the reported standard error is
the propagated error of the independent Monte Carlo estimates that actually
remain in the combination.  Each kind is a weight rule, ``_weights``: the
paper's exact weight per coface dimension (1 for the defect, (-1)^i/(i+1)
for the stratified curvature, a_p and (-1)^(i-p) a_p/2 above it for the
ascending one) times 2 lcm of the row's denominators, and ``_form`` builds
every kind from it in one walk of the star.  The Gauss-Bonnet total
sum_tau (-1)^dim(tau) K(tau) is one more row, "total", of weights (-1)^i
``recursion_sum(i)``, (-1)^i for the weights a_n; ``_form`` walks every
simplex for it.

A coface's rank enters with its numerator, ``scale``, as the integer
``scale // 2 * r`` from the stratum index r alone.  The angles of
codimension 0 and 1 are the constants 1 and 1/2, and
``_AngleForm.add_angles`` folds them into the form's constant, so the
defects of simplices of codimension <= 1 go whole into the constant: forms
hold only pairs of codimension >= 2, which the fill computes and the
evaluation sums.  The constant is the same exact rational, so every value
is the one the unfolded form gives.

Every curvature and every check (Gauss-Bonnet, vanishing, Sommerville and
subdivision) hands its forms to ``_evaluate``, which fills the cache with
all their pairs in one batch and evaluates each form.  A subdivision row's
fields are forms over both complexes' angles, each side's pairs tagged with
its side (``_Sides``, ``_combine``).  A value is exact when its standard
error is 0, and every verdict is ``_verdict(residual, std_error, z)``.
Gauss-Bonnet judges only its total; its rows are the ascending curvatures,
as ``curvature`` prints them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, ClassVar, Iterable

from simcurv.complexes import Simplex, SimplicialComplex, as_simplex
from simcurv.geometry import (
    AngleCache,
    AngleConfig,
    CurvatureValue,
    EmbeddedComplex,
    _AngleForm,
    _require_cache,
    _sommerville_fields,
    _sommerville_form,
)
from simcurv.sequences import angle_defect_term, recursion_sum
from simcurv.stratification import (
    StratumAssignment,
    stratified_euler_characteristic,
    stratify,
)
from simcurv.subdivision import SubdivisionPair

WeightFn = Callable[[int], Fraction]

DEFAULT_Z = 4.0
DEFAULT_ABS_TOL = 1e-9
_KINDS = ("defect", "stratified", "ascending")


class HypothesisError(ValueError):
    """A theorem's hypothesis fails on the given complex."""


@lru_cache(maxsize=256)
def _weights(kind: str, p: int, n: int, weights: WeightFn) -> tuple[int, tuple[int, ...]]:
    """One row of K = M D, the curvature ``kind`` of a p-simplex of an n-complex
    (p = -1 for the "total"), as an even denominator and, per coface dimension
    0..n, an even numerator that scales the angle defects of those cofaces:
    the row's exact weights times 2 lcm of their denominators."""
    if kind == "defect":
        row = {p: Fraction(1)}
    elif kind == "stratified":
        row = {i: Fraction((-1) ** i, i + 1) for i in range(n - 1)}
    elif kind == "total":
        row = {i: (-1) ** i * recursion_sum(i, weights) for i in range(n + 1)}
    else:
        half = Fraction(weights(p), 2)  # a float weight raises here
        row = {p: 2 * half} | {i: (-1) ** (i - p) * half for i in range(p + 1, n + 1)}
    den = 2 * math.lcm(*(w.denominator for w in row.values()))
    return den, tuple(int(row.get(i, 0) * den) for i in range(n + 1))


def _form(
    kind: str,
    tau: Simplex,
    complex: SimplicialComplex,
    assignment: StratumAssignment,
    weights: WeightFn = angle_defect_term,
) -> _AngleForm:
    """The curvature ``kind`` of tau as a form: the ``_weights`` of each coface eta
    times its defect, rank(eta) = r/2 minus the angles of its top cofaces.  The star
    (of the empty face, the total's: every simplex) is walked only when a coface above
    tau is weighted; no two cofaces share a pair, as ``_AngleForm.add_angles`` requires."""
    p = len(tau) - 1
    den, scales = _weights(kind, p, complex.dim, weights)
    form = _AngleForm(den=den)
    walk = any(scales[p + 1 :])
    for eta in (complex.star(tau) if tau else complex.simplices()) if walk else (tau,):
        scale = scales[len(eta) - 1]
        if scale:
            form.const += scale // 2 * assignment.r(eta)
            form.add_angles(eta, complex.top_cofaces(eta), -scale)
    return form


def _require_assignment(
    embedded: EmbeddedComplex, assignment: StratumAssignment | None
) -> StratumAssignment:
    if assignment is None:
        return stratify(embedded.complex)
    if assignment.complex is not embedded.complex and assignment.complex != embedded.complex:
        raise ValueError("stratum assignment belongs to a different complex")
    return assignment


def _evaluate(book: AngleCache, forms: dict) -> dict:
    """Fill ``book`` with every pair of every form in one batch, then
    evaluate each form; the result is keyed like ``forms``."""
    book.fill({pair for form in forms.values() for pair in form.coeffs})
    return {key: form.evaluate(book) for key, form in forms.items()}


class _Sides(dict):
    """Angle caches by side as one book for ``_evaluate``: ``fill`` gives each
    cache its side's pairs in one batch, and ``_values`` holds every cached
    angle under its pair tagged (side, eta, sigma)."""

    def fill(self, pairs: Iterable[tuple]) -> None:
        self._values = {}
        for side, book in self.items():
            book.fill({key[1:] for key in pairs if key[0] == side})
            self._values.update(((side, *key), angle) for key, angle in book._values.items())


def _combine(*parts: tuple[Fraction | int, str, _AngleForm]) -> _AngleForm:
    """The sum of weight * form over (weight, side, form) parts as one form of
    ``_Sides``' tagged pairs, over one denominator; a zero weight adds nothing."""
    den = math.lcm(*[w.denominator * form.den for w, _, form in parts])
    const, coeffs = 0, {}
    for w, side, form in parts:
        scale = w.numerator * (den // (w.denominator * form.den))
        const += scale * form.const
        if scale and form.coeffs:
            coeffs.update(((side, *pair), scale * c) for pair, c in form.coeffs.items())
    return _AngleForm(const, coeffs, den)


# -- the three curvatures ----------------------------------------------------


def _curvature(
    kind: str,
    simplex: Iterable[int],
    embedded: EmbeddedComplex,
    assignment: StratumAssignment | None,
    cfg: AngleConfig | None,
    cache: AngleCache | None,
) -> CurvatureValue:
    """The curvature ``kind`` of one simplex by ``_form``, filled and
    evaluated; a simplex not in the complex raises ``KeyError``."""
    simplex = as_simplex(simplex)
    embedded.complex._require(simplex)
    assignment = _require_assignment(embedded, assignment)
    form = _form(kind, simplex, embedded.complex, assignment)
    return _evaluate(_require_cache(embedded, cfg, cache), {simplex: form})[simplex]


def generalized_angle_defect(
    eta: Simplex,
    embedded: EmbeddedComplex,
    assignment: StratumAssignment | None = None,
    cfg: AngleConfig | None = None,
    cache: AngleCache | None = None,
) -> CurvatureValue:
    """rank(eta) minus the sum of top-simplex angles along eta.

    Exactly zero in codimensions 0 and 1 (the rank accounts for the halves).
    """
    return _curvature("defect", eta, embedded, assignment, cfg, cache)


def stratified_curvature_at_vertex(
    vertex: int,
    embedded: EmbeddedComplex,
    assignment: StratumAssignment | None = None,
    cfg: AngleConfig | None = None,
    cache: AngleCache | None = None,
) -> CurvatureValue:
    """All angle defects around a vertex, concentrated there with weights
    (-1)^i / (i+1) per dimension i."""
    return _curvature("stratified", [vertex], embedded, assignment, cfg, cache)


def ascending_stratified_curvature(
    tau: Simplex,
    embedded: EmbeddedComplex,
    assignment: StratumAssignment | None = None,
    cfg: AngleConfig | None = None,
    cache: AngleCache | None = None,
) -> CurvatureValue:
    """Angle-defect-sequence weighted combination of defects over cofaces.

    Exactly zero for odd-dimensional simplices (the weight vanishes) and in
    codimensions 0 and 1.
    """
    return _curvature("ascending", tau, embedded, assignment, cfg, cache)


def curvature_table(
    embedded: EmbeddedComplex,
    kind: str,
    assignment: StratumAssignment | None = None,
    cfg: AngleConfig | None = None,
) -> list[tuple[Simplex, CurvatureValue]]:
    """One curvature for the whole complex, from one batch fill: the
    generalized angle defect ("defect") or the ascending curvature
    ("ascending") of every simplex, or the stratified curvature
    ("stratified") of every vertex, in canonical order."""
    if kind not in _KINDS:
        raise ValueError(f"unknown curvature kind {kind!r}; expected {', '.join(_KINDS)}")
    complex = embedded.complex
    assignment = _require_assignment(embedded, assignment)
    targets = complex.simplices(0 if kind == "stratified" else None)
    forms = {s: _form(kind, s, complex, assignment) for s in targets}
    return list(_evaluate(AngleCache(embedded, cfg), forms).items())


def cone_vertex_curvature_factor(link_f_vector: Iterable[int]) -> Fraction:
    """Exact factor picked up by the vertex-concentrated curvature at a cone
    apex whose link has the given f-vector: 1 - f0/2 + f1/3 - f2/4 + ...
    """
    total = Fraction(1)
    for i, f in enumerate(link_f_vector):
        total += Fraction((-1) ** (i + 1), i + 2) * f
    return total


# -- theorem reports ---------------------------------------------------------


@dataclass
class TheoremReport:
    """Outcome of one verification: a verdict from ``_verdict`` plus per-row
    detail, each row with its own verdict except the Gauss-Bonnet curvatures.

    ``abs_tol`` is the tolerance ``_verdict`` applies to exact residuals."""

    name: str
    passed: bool
    z_threshold: float
    summary: dict
    rows: list[dict] = field(default_factory=list)
    abs_tol: ClassVar[float] = DEFAULT_ABS_TOL

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in ("name", "passed", "z_threshold", "abs_tol", "summary", "rows")}


def _require_z(z: float) -> None:
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"z must be a positive finite number, got {z}")


def _verdict(residual: float, std_error: float, z: float) -> bool:
    """Exact (standard error 0): within ``DEFAULT_ABS_TOL``; else within z sigma."""
    return abs(residual) <= (z * std_error if std_error else DEFAULT_ABS_TOL)


def _worst(rows: list[dict]) -> dict:
    worst = max(rows, key=lambda r: abs(r["residual"]))
    return {"simplices": len(rows), "worst_residual": worst["residual"], "worst_simplex": worst["simplex"]}


def _row(simplex: Simplex, cv: CurvatureValue) -> dict:
    return {
        "simplex": list(simplex),
        "value": cv.value,
        "std_error": cv.std_error,
        "exact": cv.exact,
    }


def gauss_bonnet_check(
    embedded: EmbeddedComplex,
    assignment: StratumAssignment | None = None,
    cfg: AngleConfig | None = None,
    cache: AngleCache | None = None,
    z: float = DEFAULT_Z,
    weights: WeightFn = angle_defect_term,
) -> TheoremReport:
    """Alternating sum of ascending curvatures against the stratified Euler
    characteristic."""
    _require_z(z)
    complex = embedded.complex
    if complex.dim < 2:
        raise ValueError("Gauss-Bonnet check needs dimension >= 2")
    assignment = _require_assignment(embedded, assignment)
    forms = {tau: _form("ascending", tau, complex, assignment, weights) for tau in complex.simplices()}
    total = _form("total", (), complex, assignment, weights)
    values = _evaluate(_require_cache(embedded, cfg, cache), {**forms, "total": total})
    lhs = values.pop("total")
    rows = [_row(tau, cv) for tau, cv in values.items()]
    rhs = stratified_euler_characteristic(complex, assignment)
    residual = lhs.value - float(rhs)
    passed = _verdict(residual, lhs.std_error, z)
    return TheoremReport(
        name="gauss-bonnet",
        passed=passed,
        z_threshold=z,
        summary={
            "lhs": lhs.value,
            "lhs_std_error": lhs.std_error,
            "rhs": rhs,
            "residual": residual,
            "exact": lhs.exact,
        },
        rows=rows,
    )


def vanishing_hypothesis_check(complex: SimplicialComplex) -> tuple[bool, list[dict]]:
    """Check chi(link) = 2 over every even-dimensional simplex up to n-1.

    n is odd, so the (n-1)-simplices are among them: the link of one is its
    top cofaces, and its chi is their count.
    """
    n = complex.dim
    if n % 2 == 0 or n < 3:
        raise ValueError(f"dimension must be odd and >= 3, got {n}")
    violations = []
    for i in range(0, n, 2):
        for eta in complex.simplices(i):
            chi = complex.link(eta).euler_characteristic()
            if chi != 2:
                violations.append(
                    {"simplex": list(eta), "kind": "link_euler", "value": chi}
                )
    return (not violations, violations)


def vanishing_check(
    embedded: EmbeddedComplex,
    assignment: StratumAssignment | None = None,
    cfg: AngleConfig | None = None,
    cache: AngleCache | None = None,
    z: float = DEFAULT_Z,
) -> TheoremReport:
    """Every ascending curvature of a qualifying odd-dimensional complex is
    statistically compatible with zero (and exactly zero where analytic)."""
    _require_z(z)
    complex = embedded.complex
    holds, violations = vanishing_hypothesis_check(complex)
    if not holds:
        raise HypothesisError(
            f"link hypothesis fails on {len(violations)} simplices: {violations[:5]}"
        )
    assignment = _require_assignment(embedded, assignment)
    forms = {tau: _form("ascending", tau, complex, assignment) for tau in complex.simplices()}
    rows = []
    exact_failures = 0
    for tau, cv in _evaluate(_require_cache(embedded, cfg, cache), forms).items():
        p = len(tau) - 1
        row = {**_row(tau, cv), "residual": cv.value, "pass": _verdict(cv.value, cv.std_error, z)}
        analytic_zero = p % 2 == 1 or p >= complex.dim - 1
        row["analytic_zero"] = analytic_zero
        if analytic_zero and not (cv.exact and cv.value == 0.0):
            exact_failures += 1
            row["pass"] = False
        rows.append(row)
    return TheoremReport(
        name="vanishing",
        passed=all(r["pass"] for r in rows),
        z_threshold=z,
        summary={**_worst(rows), "analytic_zero_failures": exact_failures},
        rows=rows,
    )


def subdivision_relation_check(
    pair: SubdivisionPair,
    base_assignment: StratumAssignment | None = None,
    refined_assignment: StratumAssignment | None = None,
    cfg: AngleConfig | None = None,
    z: float = DEFAULT_Z,
) -> TheoremReport:
    """For every refined simplex tau with carrier zeta:
    a_(dim zeta) * K(tau)  equals  a_(dim tau) * K(zeta),
    where K is the ascending curvature in the respective complex; when the
    dimensions agree the curvatures themselves must agree.  Each row field
    is one form over both complexes' angles."""
    _require_z(z)
    sides = {"base": (pair.base, base_assignment), "refined": (pair.refined, refined_assignment)}
    curvatures = {}
    for side, (embedded, assignment) in sides.items():
        complex, assignment = embedded.complex, _require_assignment(embedded, assignment)
        curvatures[side] = {s: _form("ascending", s, complex, assignment) for s in complex.simplices()}
    forms, keys = {}, {}
    for tau, left in curvatures["refined"].items():
        zeta = pair.carrier[tau]
        right = curvatures["base"][zeta]
        # the forms of a row whose curvatures are both constants depend only on
        # the dimensions and the constants: such rows share them
        constant = not (left.coeffs or right.coeffs)
        key = keys[tau] = ("constant", len(tau), len(zeta), left.const, right.const) if constant else tau
        if (key, "residual") in forms:
            continue
        a_p, a_s = angle_defect_term(len(zeta) - 1), angle_defect_term(len(tau) - 1)
        forms[key, "lhs"] = _combine((a_p, "refined", left))
        forms[key, "rhs"] = _combine((a_s, "base", right))
        forms[key, "residual"] = _combine((a_p, "refined", left), (-a_s, "base", right))
        if len(tau) == len(zeta):
            forms[key, "equal_residual"] = _combine((1, "refined", left), (-1, "base", right))
    values = _evaluate(_Sides({side: AngleCache(e, cfg) for side, (e, _) in sides.items()}), forms)
    rows = []
    for tau, key in keys.items():
        residual, equal = values[key, "residual"], values.get((key, "equal_residual"))
        row = {
            "simplex": list(tau),
            "carrier": list(pair.carrier[tau]),
            "lhs": values[key, "lhs"].value,
            "rhs": values[key, "rhs"].value,
            "residual": residual.value,
            "std_error": residual.std_error,
            "exact": residual.exact,
            "pass": _verdict(residual.value, residual.std_error, z)
            and (equal is None or _verdict(equal.value, equal.std_error, z)),
        }
        if equal is not None:
            row["equal_residual"] = equal.value
        rows.append(row)
    passed = all(r["pass"] for r in rows)
    return TheoremReport(name="subdivision", passed=passed, z_threshold=z, summary=_worst(rows), rows=rows)


def sommerville_check(
    embedded: EmbeddedComplex,
    cfg: AngleConfig | None = None,
    z: float = DEFAULT_Z,
) -> TheoremReport:
    """Sommerville's identity for every top simplex sigma of an
    odd-dimensional complex and every even face tau of dimension <= n - 2.
    A row is judged on its alternating residual, whose verdict implies the
    defect form's, -1/2 times it."""
    _require_z(z)
    complex = embedded.complex
    n = complex.dim
    if n % 2 == 0 or n < 3:
        raise ValueError(f"sommerville check needs an odd dimension >= 3, got {n}")
    forms = {
        (sigma, tau): _sommerville_form(sigma, tau)
        for sigma in complex.simplices(n)
        for p in range(0, n - 1, 2)
        for tau in combinations(sigma, p + 1)
    }
    rows = [
        {
            "sigma": list(sigma),
            "tau": list(tau),
            **_sommerville_fields(alt),
            "pass": _verdict(alt.value, alt.std_error, z),
        }
        for (sigma, tau), alt in _evaluate(AngleCache(embedded, cfg), forms).items()
    ]
    worst = max(rows, key=lambda r: abs(r["alternating_residual"]))
    return TheoremReport(
        name="sommerville",
        passed=all(r["pass"] for r in rows),
        z_threshold=z,
        summary={"pairs": len(rows), "worst_residual": worst["alternating_residual"]},
        rows=rows,
    )


# -- carrier alternating sums ------------------------------------------------


def carrier_alternating_sum(pair: SubdivisionPair, tau: Simplex, alpha: Simplex) -> int:
    """sum over refined simplices eta >= tau with carrier alpha of
    (-1)^(dim eta - dim tau), tau itself included when its carrier is alpha."""
    tau, alpha = as_simplex(tau), as_simplex(alpha)
    if alpha not in pair.base.complex:
        raise KeyError(f"{alpha} is not a simplex of the base complex")
    if not set(pair.carrier[tau]) <= set(alpha):
        raise ValueError(f"carrier {pair.carrier[tau]} of {tau} is not a face of {alpha}")
    star = pair.refined.complex.star(tau)
    return sum((-1) ** (len(eta) - len(tau)) for eta in star if pair.carrier[eta] == alpha)


def carrier_alternating_sums_hold(pair: SubdivisionPair) -> bool:
    """The alternating sum equals (-1)^(dim alpha - dim tau), exactly, for
    every refined tau and every alpha in the base star of its carrier; each
    refined star is grouped by carrier once."""
    for tau in pair.refined.complex.simplices():
        sums = Counter()
        for eta in pair.refined.complex.star(tau):
            sums[pair.carrier[eta]] += (-1) ** (len(eta) - len(tau))
        for alpha in pair.base.complex.star(pair.carrier[tau]):
            if sums[alpha] != (-1) ** (len(alpha) - len(tau)):
                return False
    return True
