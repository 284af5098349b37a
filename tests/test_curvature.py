import dataclasses
import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import simcurv.curvature as curvature_module
from simcurv.complexes import SimplicialComplex
from simcurv.curvature import (
    HypothesisError,
    _form,
    _verdict,
    _weights,
    ascending_stratified_curvature,
    carrier_alternating_sum,
    carrier_alternating_sums_hold,
    cone_vertex_curvature_factor,
    curvature_table,
    gauss_bonnet_check,
    generalized_angle_defect,
    sommerville_check,
    stratified_curvature_at_vertex,
    subdivision_relation_check,
    vanishing_check,
    vanishing_hypothesis_check,
)
from simcurv.generators import (
    boundary_of_simplex,
    join_of_sphere_boundaries,
    random_simplex,
    solid_simplex,
)
from simcurv.geometry import (
    AngleCache,
    AngleConfig,
    AngleValue,
    CurvatureValue,
    EmbeddedComplex,
    _AngleForm,
    _sommerville_form,
    sommerville_residuals,
)
from simcurv.sequences import angle_defect_term, verify_recursion
from simcurv.stratification import stratify
from simcurv.subdivision import barycentric_subdivide, stellar_subdivide

CFG = AngleConfig(samples=120_000, seed=11)


@pytest.fixture(scope="module")
def sphere3_cache(sphere3):
    return AngleCache(sphere3, CFG)


def test_defect_vanishes_in_low_codimension(sphere3, book):
    for embedded in (sphere3, book):
        assignment = stratify(embedded.complex)
        n = embedded.complex.dim
        for dim in (n - 1, n):
            for eta in embedded.complex.simplices(dim):
                cv = generalized_angle_defect(eta, embedded, assignment, CFG)
                assert cv.exact and cv.value == 0.0


def test_sphere2_vertex_defect_is_half(sphere2):
    assignment = stratify(sphere2.complex)
    for v in sphere2.complex.vertices():
        cv = generalized_angle_defect((v,), sphere2, assignment, CFG)
        assert cv.exact
        assert abs(cv.value - 0.5) < 1e-12


def test_surface_defect_matches_classical(sphere2):
    # independent oracle: 1 minus the planar angles at the vertex, computed
    # straight from coordinates
    assignment = stratify(sphere2.complex)
    for v in sphere2.complex.vertices():
        total = 0.0
        for tri in sphere2.complex.top_cofaces((v,)):
            pts = sphere2.points(tri)
            others = [i for i, u in enumerate(tri) if u != v]
            here = [i for i, u in enumerate(tri) if u == v][0]
            a = pts[others[0]] - pts[here]
            b = pts[others[1]] - pts[here]
            cosang = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            total += math.acos(max(-1.0, min(1.0, cosang))) / (2 * math.pi)
        cv = generalized_angle_defect((v,), sphere2, assignment, CFG)
        assert abs(cv.value - (1.0 - total)) < 1e-12


def test_stratified_curvature_on_surface_equals_defect(sphere2):
    assignment = stratify(sphere2.complex)
    for v in sphere2.complex.vertices():
        defect = generalized_angle_defect((v,), sphere2, assignment, CFG)
        concentrated = stratified_curvature_at_vertex(v, sphere2, assignment, CFG)
        assert abs(defect.value - concentrated.value) < 1e-12


def test_sphere3_vertex_defect_positive(sphere3, sphere3_cache):
    assignment = stratify(sphere3.complex)
    for v in sphere3.complex.vertices():
        cv = generalized_angle_defect((v,), sphere3, assignment, cache=sphere3_cache)
        assert cv.value - 4 * cv.std_error > 0


def test_ascending_curvature_exact_zeros(sphere2, sphere3, join_sphere3, book, sphere3_cache):
    targets = [
        (sphere2, None),
        (sphere3, sphere3_cache),
        (join_sphere3, None),
        (book, None),
    ]
    for embedded, cache in targets:
        assignment = stratify(embedded.complex)
        n = embedded.complex.dim
        for tau in embedded.complex.simplices():
            p = len(tau) - 1
            if p % 2 == 1 or p >= n - 1:
                cv = ascending_stratified_curvature(
                    tau, embedded, assignment, CFG, cache=cache
                )
                assert cv.exact and cv.value == 0.0


def test_ascending_curvature_near_zero_on_sphere3(sphere3, sphere3_cache):
    assignment = stratify(sphere3.complex)
    for v in sphere3.complex.vertices():
        cv = ascending_stratified_curvature(
            (v,), sphere3, assignment, cache=sphere3_cache
        )
        assert abs(cv.value) <= 4 * cv.std_error


def test_surface_ascending_equals_classical(sphere2):
    assignment = stratify(sphere2.complex)
    for v in sphere2.complex.vertices():
        defect = generalized_angle_defect((v,), sphere2, assignment, CFG)
        ascending = ascending_stratified_curvature((v,), sphere2, assignment, CFG)
        assert abs(defect.value - ascending.value) < 1e-12


def test_cone_vertex_curvature_factor():
    assert cone_vertex_curvature_factor((7, 20, 29, 22, 8)) == Fraction(-1, 60)
    # a simplicial 4-sphere f-vector gives zero instead
    assert cone_vertex_curvature_factor((7, 20, 30, 25, 10)) == 0
    assert cone_vertex_curvature_factor((6, 15, 20, 15, 6)) == 0


def test_gauss_bonnet_sphere2_exact(sphere2):
    report = gauss_bonnet_check(sphere2, cfg=CFG)
    assert report.summary["rhs"] == 2
    assert report.summary["exact"]
    assert abs(report.summary["lhs"] - 2.0) < 1e-12
    assert report.passed


def test_gauss_bonnet_statistical(sphere3, join_sphere3, book, sphere3_cache):
    report = gauss_bonnet_check(sphere3, cfg=CFG, cache=sphere3_cache)
    assert report.summary["rhs"] == 0 and report.passed
    report = gauss_bonnet_check(join_sphere3, cfg=CFG)
    assert report.summary["rhs"] == 0 and report.passed
    report = gauss_bonnet_check(book, cfg=CFG)
    assert report.summary["rhs"] == 0 and report.passed


def test_gauss_bonnet_negative_control(sphere3, sphere3_cache):
    report = gauss_bonnet_check(
        sphere3, cfg=CFG, cache=sphere3_cache, weights=lambda p: Fraction(1)
    )
    assert not report.passed
    assert abs(report.summary["residual"]) > 100 * report.summary["lhs_std_error"]


@pytest.mark.parametrize("n", [3, 4])
def test_gauss_bonnet_rows_are_the_ascending_curvatures(n):
    # the verdict is on the total alone; a row is a curvature, not a residual
    embedded = boundary_of_simplex(n)
    cfg = AngleConfig(samples=20_000, seed=5, threads=1)
    report = gauss_bonnet_check(embedded, cfg=cfg)
    table = curvature_table(embedded, "ascending", cfg=cfg)
    assert len(report.rows) == len(table)
    for row, (simplex, cv) in zip(report.rows, table):
        assert set(row) == {"simplex", "value", "std_error", "exact"}
        assert row == {
            "simplex": list(simplex), "value": cv.value, "std_error": cv.std_error, "exact": cv.exact
        }
        assert row["exact"] == (row["std_error"] == 0.0)
    # the 2-sphere's angles are all exact; the 3-sphere's vertex angles are not
    assert all(row["exact"] for row in report.rows) == (n == 3)


def test_one_verdict_rule_reads_exactness_from_the_standard_error():
    assert [field.name for field in dataclasses.fields(CurvatureValue)] == ["value", "std_error"]
    assert CurvatureValue(0.25, 0.0).exact and not CurvatureValue(0.25, 1e-6).exact
    assert _verdict(1e-10, 0.0, 4.0) and not _verdict(2e-9, 0.0, 4.0)
    assert _verdict(0.4, 0.1, 4.0) and not _verdict(0.41, 0.1, 4.0)


def test_vanishing_hypothesis(sphere3, join_sphere3, book):
    assert vanishing_hypothesis_check(sphere3.complex) == (True, [])
    assert vanishing_hypothesis_check(join_sphere3.complex)[0]
    holds, violations = vanishing_hypothesis_check(book.complex)
    assert not holds and violations
    with pytest.raises(ValueError):
        vanishing_hypothesis_check(boundary_of_simplex(3).complex)  # even dim


@pytest.mark.parametrize("subdivisions", [0, 1])
def test_vanishing_hypothesis_flags_each_simplex_once(book, subdivisions):
    for _ in range(subdivisions):
        book = barycentric_subdivide(book).refined
    complex = book.complex
    n = complex.dim
    holds, violations = vanishing_hypothesis_check(complex)
    flagged = [tuple(v["simplex"]) for v in violations]
    assert not holds and len(flagged) == len(set(flagged))
    assert {v["kind"] for v in violations} == {"link_euler"}
    # the link of an (n-1)-simplex is its top cofaces, so chi is their count
    counts = {eta: len(complex.top_cofaces(eta)) for eta in complex.simplices(n - 1)}
    ridges = {tuple(v["simplex"]): v["value"] for v in violations if len(v["simplex"]) == n}
    assert ridges == {eta: count for eta, count in counts.items() if count != 2}


def test_vanishing_check(sphere3, join_sphere3, book, sphere3_cache):
    report = vanishing_check(sphere3, cfg=CFG, cache=sphere3_cache)
    assert report.passed
    report = vanishing_check(join_sphere3, cfg=CFG)
    assert report.passed
    with pytest.raises(HypothesisError):
        vanishing_check(book, cfg=CFG)


def test_vanishing_check_fails_an_analytic_zero_that_is_not_zero(sphere3):
    # r = 3 on a triangle of the 3-sphere: its ascending curvature is
    # a_2 (3/2 - 2 * 1/2) = -1/4, exact, where the theorem forces 0
    triangle = (0, 1, 2)
    assignment = stratify(sphere3.complex, {triangle: 3})
    report = vanishing_check(sphere3, assignment, AngleConfig(samples=1000, seed=1))
    row = next(r for r in report.rows if r["simplex"] == list(triangle))
    assert (row["value"], row["exact"], row["analytic_zero"], row["pass"]) == (-0.25, True, True, False)
    assert report.summary["analytic_zero_failures"] == 1
    assert not report.passed


def test_an_assignment_of_another_complex_is_refused(sphere2, sphere3):
    with pytest.raises(ValueError, match="^stratum assignment belongs to a different complex$"):
        generalized_angle_defect((0,), sphere3, stratify(sphere2.complex))
    with pytest.raises(ValueError, match="^stratum assignment belongs to a different complex$"):
        gauss_bonnet_check(sphere3, stratify(sphere2.complex), AngleConfig(samples=1000))


def test_gauss_bonnet_needs_dimension_two():
    circle = boundary_of_simplex(2)
    with pytest.raises(ValueError, match="^Gauss-Bonnet check needs dimension >= 2$"):
        gauss_bonnet_check(circle)


def test_subdivision_relation_surface(sphere2):
    for pair in [
        stellar_subdivide(sphere2, (0, 1, 2)),
        stellar_subdivide(sphere2, (0, 1)),
        barycentric_subdivide(sphere2),
    ]:
        report = subdivision_relation_check(pair, cfg=CFG)
        assert report.passed
        # a surface has exact angle paths everywhere
        assert all(row["exact"] for row in report.rows)


@pytest.mark.parametrize("dim", [3, 5])
def test_subdivision_rows_are_exact_by_the_one_rule_without_negative_zeros(dim):
    top = tuple(range(dim + 1))
    pair = stellar_subdivide(random_simplex(dim, seed=2), top)
    report = subdivision_relation_check(pair, cfg=AngleConfig(samples=2000, seed=9))
    assert report.passed
    for row in report.rows:
        assert row["exact"] == (row["std_error"] == 0.0)
        for value in row.values():
            if isinstance(value, float):
                assert value != 0.0 or math.copysign(1.0, value) == 1.0, row


def test_subdivision_relation_sphere3(sphere3):
    cfg = AngleConfig(samples=60_000, seed=21)
    pair = stellar_subdivide(sphere3, (0, 1, 2, 3))
    report = subdivision_relation_check(pair, cfg=cfg)
    assert report.passed
    same_dim_rows = [
        row
        for row in report.rows
        if len(row["simplex"]) == len(row["carrier"]) == 4
    ]
    assert same_dim_rows
    for row in same_dim_rows:
        assert "equal_residual" in row


def test_carrier_alternating_sums(sphere2):
    facet_pair = stellar_subdivide(sphere2, (0, 1, 2))
    new_vertex = (max(facet_pair.refined.complex.vertices()),)
    # refreshed vertex against its own carrier
    assert carrier_alternating_sum(facet_pair, new_vertex, (0, 1, 2)) == 1
    # undivided simplex against itself
    assert carrier_alternating_sum(facet_pair, (0, 1, 3), (0, 1, 3)) == 1
    assert carrier_alternating_sums_hold(facet_pair)
    assert carrier_alternating_sums_hold(stellar_subdivide(sphere2, (0, 1)))


def test_carrier_alternating_sums_barycentric():
    triangle = solid_simplex(2)
    pair = barycentric_subdivide(triangle)
    # the barycenter of the whole triangle is the vertex whose carrier is it
    barycenter = [
        tau
        for tau in pair.refined.complex.simplices(0)
        if pair.carrier[tau] == (0, 1, 2)
    ][0]
    assert carrier_alternating_sum(pair, barycenter, (0, 1, 2)) == 1
    # a vertex on an original vertex, summed against an incident edge
    corner = [
        tau for tau in pair.refined.complex.simplices(0) if pair.carrier[tau] == (0,)
    ][0]
    assert carrier_alternating_sum(pair, corner, (0, 1)) == -1
    assert carrier_alternating_sums_hold(pair)


def test_carrier_alternating_sum_errors(sphere2):
    pair = stellar_subdivide(sphere2, (0, 1, 2))
    with pytest.raises(KeyError):
        carrier_alternating_sum(pair, (0,), (0, 9))
    with pytest.raises(ValueError):
        carrier_alternating_sum(pair, (4,), (0, 1, 3))  # carrier not a face


def test_cross_polytope_sphere_checks():
    # an odd sphere with different combinatorics than the simplex boundary
    from simcurv.generators import cross_polytope

    sphere = cross_polytope(4)
    assert sphere.complex.f_vector() == (8, 24, 32, 16)
    assert vanishing_hypothesis_check(sphere.complex) == (True, [])
    cfg = AngleConfig(samples=50_000, seed=31)
    cache = AngleCache(sphere, cfg)
    rep = gauss_bonnet_check(sphere, cache=cache)
    assert rep.summary["rhs"] == 0 and rep.passed
    rep = vanishing_check(sphere, cache=cache)
    assert rep.passed


def test_sommerville_negative_control(solid_tet):
    # dropping the facet layer from the alternating identity must break it
    report = sommerville_residuals((0, 1, 2, 3), (0,), solid_tet, CFG)
    broken = report["alternating_residual"] + 3 * 0.5  # drop the facet layer
    assert abs(broken) > 4 * report["alternating_std_error"]


def test_curvature_table_threaded_matches_per_simplex_functions(sphere3):
    # one threaded batch fill gives the serial per-simplex values bit for bit
    assignment = stratify(sphere3.complex)
    serial = AngleConfig(samples=4000, seed=5, threads=1)
    threaded = AngleConfig(samples=4000, seed=5, threads=2)
    per_simplex = {
        "defect": lambda s: generalized_angle_defect(s, sphere3, assignment, serial),
        "stratified": lambda s: stratified_curvature_at_vertex(s[0], sphere3, assignment, serial),
        "ascending": lambda s: ascending_stratified_curvature(s, sphere3, assignment, serial),
    }
    for kind, compute in per_simplex.items():
        table = curvature_table(sphere3, kind, assignment, threaded)
        targets = sphere3.complex.simplices(0 if kind == "stratified" else None)
        assert [s for s, _ in table] == list(targets)
        assert any(not cv.exact for _, cv in table)  # Monte Carlo angles took part
        for simplex, cv in table:
            expected = compute(simplex)
            assert (cv.value, cv.std_error, cv.exact) == (
                expected.value,
                expected.std_error,
                expected.exact,
            )


def test_curvature_table_rejects_unknown_kind(sphere2):
    with pytest.raises(ValueError, match="defect, stratified, ascending"):
        curvature_table(sphere2, "gaussian")


@pytest.mark.parametrize(
    "curvature, simplex",
    [
        (generalized_angle_defect, (0, 9)),
        (ascending_stratified_curvature, (0, 9)),  # a_1 = 0 weighs no coface
        (stratified_curvature_at_vertex, 9),
    ],
)
def test_every_curvature_rejects_a_simplex_not_in_the_complex(sphere2, curvature, simplex):
    name = (simplex,) if simplex == 9 else simplex
    with pytest.raises(KeyError, match=re.escape(f"simplex {name} is not in the complex")):
        curvature(simplex, sphere2, cfg=CFG)


@dataclasses.dataclass
class _FractionForm:
    """Reference: a form with a ``Fraction`` constant and ``Fraction``
    coefficients (so its ``den`` is 1), merged in plain ``Fraction``
    arithmetic."""

    const: Fraction = Fraction(0)
    coeffs: dict = dataclasses.field(default_factory=dict)
    den: int = 1

    def add(self, other, scale):
        """Add ``scale`` times ``other``; a new pair goes last, and a
        coefficient that cancels to zero is removed."""
        self.const += scale * other.const
        for pair, c in other.coeffs.items():
            new = self.coeffs.get(pair, 0) + scale * c
            if new == 0:
                self.coeffs.pop(pair, None)
            else:
                self.coeffs[pair] = new


def _reference_defect_form(eta, complex, assignment):
    """Reference: rank(eta) minus the angle of each top coface of eta."""
    return _FractionForm(assignment.rank(eta), {(eta, sigma): Fraction(-1) for sigma in complex.top_cofaces(eta)})


def _merged_ascending_form(tau, complex, assignment, weights):
    """Reference: the ascending form as a sum of defect forms, merged one by
    one."""
    p = len(tau) - 1
    a_p = weights(p)
    form = _FractionForm()
    if a_p == 0:
        return form
    form.add(_reference_defect_form(tau, complex, assignment), a_p)
    for eta in complex.star(tau):
        i = len(eta) - 1
        if i > p:
            form.add(_reference_defect_form(eta, complex, assignment), a_p / 2 * Fraction(-1) ** (i - p))
    return form


def _merged_stratified_form(v, complex, assignment):
    form = _FractionForm()
    for eta in complex.star(v):
        i = len(eta) - 1
        if i <= complex.dim - 2:
            form.add(_reference_defect_form(eta, complex, assignment), Fraction((-1) ** i, i + 1))
    return form


def _merged_total(ascending):
    """Reference: the Gauss-Bonnet total sum_tau (-1)^dim(tau) K(tau), merged
    from the reference ascending forms {tau: form}."""
    total = _FractionForm()
    for tau, form in ascending.items():
        total.add(form, (-1) ** (len(tau) - 1))
    return total


def _fractions(form):
    """A form's constant and its (pair, coefficient) list, in order, as exact
    fractions."""
    return Fraction(form.const, form.den), [(pair, Fraction(c, form.den)) for pair, c in form.coeffs.items()]


def _folded_fractions(form):
    """``_fractions`` of a form, with its codimension 0 and 1 terms moved into
    the constant at their angles 1 and 1/2."""
    const, coeffs = _fractions(form)
    kept = []
    for (eta, sigma), c in coeffs:
        codim = len(sigma) - len(eta)
        if codim <= 1:
            const += c * Fraction(1, 2**codim)
        else:
            kept.append(((eta, sigma), c))
    return const, kept


@pytest.mark.parametrize(
    "weights", [angle_defect_term, lambda n: Fraction(1)], ids=["a_n", "constant_one"]
)
def test_direct_forms_equal_merged_defect_forms(sphere3, book, join_sphere3, weights):
    sd_sphere2 = barycentric_subdivide(boundary_of_simplex(3)).refined
    # dimension 5 builds the stratified denominator 24 and the weight a_4
    sphere5, join_sphere5 = boundary_of_simplex(6), join_of_sphere_boundaries(3, 3)
    for embedded in (sphere3, book, join_sphere3, sd_sphere2, sphere5, join_sphere5):
        complex = embedded.complex
        assignment = stratify(complex)
        ascending = {s: _merged_ascending_form(s, complex, assignment, weights) for s in complex.simplices()}
        pairs = [(_form("ascending", s, complex, assignment, weights), ascending[s]) for s in complex.simplices()]
        pairs += [
            (_form("stratified", v, complex, assignment), _merged_stratified_form(v, complex, assignment))
            for v in complex.simplices(0)
        ]
        pairs += [
            (_form("defect", s, complex, assignment), _reference_defect_form(s, complex, assignment))
            for s in complex.simplices()
        ]
        for form, reference in pairs:
            const, coeffs = _fractions(form)
            reference_const, reference_coeffs = _folded_fractions(reference)
            assert const == reference_const
            assert coeffs == reference_coeffs  # order too
        # the total walks the simplices, not the ascending forms: its order differs
        const, coeffs = _fractions(_form("total", (), complex, assignment, weights))
        reference_const, reference_coeffs = _folded_fractions(_merged_total(ascending))
        assert const == reference_const
        assert dict(coeffs) == dict(reference_coeffs)


@pytest.mark.parametrize("n", range(2, 8))
def test_total_row_is_the_signed_column_sum_of_the_ascending_rows(n):
    """Entry i of the "total" row is sum_p (-1)^p C(i+1, p+1) times entry i
    of the ascending row of p: (-1)^i for a_n, which is the identity
    ``sequences.verify_recursion`` checks, and (-1)^i 2^i for constant-one
    weights."""
    for weights, expected in ((angle_defect_term, 1), (lambda p: Fraction(1), 2)):
        den, scales = _weights("total", -1, n, weights)
        assert den % 2 == 0 and all(scale % 2 == 0 for scale in scales)
        row = [Fraction(scale, den) for scale in scales]
        assert row == [(-expected) ** i for i in range(n + 1)]
        column_sums = [0] * (n + 1)
        for p in range(n + 1):
            p_den, p_scales = _weights("ascending", p, n, weights)
            for i in range(n + 1):
                column_sums[i] += (-1) ** p * math.comb(i + 1, p + 1) * Fraction(p_scales[i], p_den)
        assert row == column_sums
    assert verify_recursion(n)


@pytest.mark.parametrize("n", range(0, 9))
def test_weight_rows_are_the_papers_weights_over_an_even_denominator(n):
    """Each row is its exact weights times an even denominator, in even
    integers: 1 on the defect, (-1)^i / (i + 1) for the stratified row, a_p
    and (-1)^(i - p) a_p / 2 for the ascending one."""
    def exact(kind, p):
        den, scales = _weights(kind, p, n, angle_defect_term)
        assert den % 2 == 0 and all(type(s) is int and s % 2 == 0 for s in scales)
        return [Fraction(s, den) for s in scales]

    zeros = [Fraction(0)] * (n + 1)
    assert exact("stratified", 0) == [Fraction((-1) ** i, i + 1) for i in range(n - 1)] + zeros[max(n - 1, 0) :]
    for p in range(n + 1):
        assert exact("defect", p) == zeros[:p] + [1] + zeros[p + 1 :]
        a_p = angle_defect_term(p)
        assert exact("ascending", p) == zeros[:p] + [a_p] + [(-1) ** (i - p) * a_p / 2 for i in range(p + 1, n + 1)]


@pytest.mark.parametrize("kind, p", [("ascending", 0), ("ascending", 3), ("total", -1)])
def test_a_float_weight_is_refused(kind, p):
    with pytest.raises(TypeError):
        _weights(kind, p, 3, lambda q: 0.5)


# -- integer-numerator forms against Fraction arithmetic ----------------------


def _fraction_evaluate(form, cache):
    """Reference: a form evaluated with ``Fraction`` weights, summing the
    same floats with ``math.fsum``; a pair of codimension 0 or 1 is taken
    exactly, at the angle 1 or 1/2.  A pair may carry a side tag in front,
    (side, eta, sigma), as the subdivision check's two-sided forms do."""
    rational = Fraction(form.const, form.den)
    products = []
    variance = []
    exact = True
    for pair, c in form.coeffs.items():
        coeff = Fraction(c, form.den)
        eta, sigma = pair[-2:]
        codim = len(sigma) - len(eta)
        if codim <= 1:
            rational += coeff / 2**codim
            continue
        angle = cache._values[pair]
        products.append(float(coeff) * angle.value)
        variance.append((float(coeff) * angle.std_error) ** 2)
        if angle.method != "exact":
            exact = False
    variance = math.fsum(variance)
    return math.fsum([float(rational), *products]), math.sqrt(variance), exact and variance == 0.0


def _bits(value, std_error, exact):
    return value.hex(), std_error.hex(), exact


def _recorded_evaluations(monkeypatch):
    """Every (cache, forms, values) that ``curvature._evaluate`` sees."""
    calls = []
    original = curvature_module._evaluate

    def recording(book, forms):
        values = original(book, forms)
        calls.append((book, forms, dict(values)))  # the caller may pop from values
        return values

    monkeypatch.setattr(curvature_module, "_evaluate", recording)
    return calls


def _assert_evaluations_match_fractions(calls):
    assert calls
    for book, forms, values in calls:
        for key, form in forms.items():
            cv = values[key]
            assert _bits(cv.value, cv.std_error, cv.exact) == _bits(*_fraction_evaluate(form, book))


def _two_sided_reference(parts):
    """Reference: the sum of weight * form over (weight, side, form) parts as
    one form with ``Fraction`` numerators over 1, its pairs tagged (side, eta,
    sigma); a pair of weight 0 is left out, as the fill leaves it out."""
    reference = _AngleForm(const=sum(w * Fraction(f.const, f.den) for w, _, f in parts))
    for w, side, f in parts:
        for pair, c in f.coeffs.items():
            if w * c:
                reference.coeffs[(side, *pair)] = w * Fraction(c, f.den)
    return reference


def _assert_subdivision_rows_match_fractions(pair, report, book):
    """Every float of every row against the two-sided ``Fraction`` reference
    of its field, built from the ascending forms of tau and its carrier."""
    forms = {}
    for side, embedded in (("base", pair.base), ("refined", pair.refined)):
        complex, assignment = embedded.complex, stratify(embedded.complex)
        forms[side] = {s: _form("ascending", s, complex, assignment) for s in complex.simplices()}
    for row in report.rows:
        tau, zeta = tuple(row["simplex"]), tuple(row["carrier"])
        left, right = forms["refined"][tau], forms["base"][zeta]
        a_p, a_s = angle_defect_term(len(zeta) - 1), angle_defect_term(len(tau) - 1)
        fields = {
            "lhs": [(a_p, "refined", left)],
            "rhs": [(a_s, "base", right)],
            "residual": [(a_p, "refined", left), (-a_s, "base", right)],
        }
        if len(tau) == len(zeta):
            fields["equal_residual"] = [(1, "refined", left), (-1, "base", right)]
        assert row.keys() - fields.keys() == {"simplex", "carrier", "std_error", "exact", "pass"}
        for name, parts in fields.items():
            value, std_error, exact = _fraction_evaluate(_two_sided_reference(parts), book)
            assert row[name].hex() == value.hex(), (tau, name)
            if name == "residual":
                assert (row["std_error"].hex(), row["exact"]) == (std_error.hex(), exact), tau


def test_evaluation_matches_fraction_arithmetic_bit_for_bit(monkeypatch, sphere3, book):
    cfg = AngleConfig(samples=2000, seed=5)
    sd1 = barycentric_subdivide(boundary_of_simplex(3)).refined
    sd2 = barycentric_subdivide(sd1)
    calls = _recorded_evaluations(monkeypatch)
    for embedded in (sd2.refined, book, sphere3):
        gauss_bonnet_check(embedded, cfg=cfg)
        curvature_table(embedded, "stratified", cfg=cfg)
    pairs = [sd2, barycentric_subdivide(book)]
    reports = [subdivision_relation_check(pair, cfg=cfg) for pair in pairs]
    _assert_evaluations_match_fractions(calls)
    # sphere3 and the book carry Monte Carlo angles
    assert any(not cv.exact for _, _, values in calls for cv in values.values())
    # each subdivision check evaluates once, against both complexes' angles
    for pair, report, (book, _, _) in zip(pairs, reports, calls[-2:], strict=True):
        _assert_subdivision_rows_match_fractions(pair, report, book)
    assert all(row["exact"] for row in reports[0].rows)
    assert not all(row["exact"] for row in reports[1].rows)


def test_subdivision_residual_is_one_exactly_rounded_sum():
    # the refined vertices (0,) to (3,) sit at the tetrahedron's vertices;
    # recombining their two curvatures as floats rounded them up to 8.3e-17 off
    sd2 = barycentric_subdivide(barycentric_subdivide(boundary_of_simplex(3)).refined).refined
    pair = barycentric_subdivide(sd2)
    rows = {tuple(row["simplex"]): row for row in subdivision_relation_check(pair).rows}
    for tau in [(0,), (1,), (2,), (3,)]:
        zeta = pair.carrier[tau]
        terms, const = [], Fraction(0)
        for weight, embedded, simplex in (
            (angle_defect_term(len(zeta) - 1), pair.refined, tau),
            (-angle_defect_term(0), pair.base, zeta),
        ):
            form = _form("ascending", simplex, embedded.complex, stratify(embedded.complex))
            cache = AngleCache(embedded)
            cache.fill(form.coeffs)
            const += weight * Fraction(form.const, form.den)
            for key, c in form.coeffs.items():
                terms.append(float(weight * Fraction(c, form.den)) * cache._values[key].value)
        assert rows[tau]["exact"]
        assert rows[tau]["residual"] == math.fsum([float(const), *terms]), tau


# 10^20 + 2049 is above 2^53: converting it to float before dividing rounds
# twice and gives another float than the correctly rounded quotient
HUGE = Fraction(10**20 + 2049, 3)


def test_weights_above_float_precision_give_correctly_rounded_floats(monkeypatch, sphere2, book):
    assert float(HUGE.numerator) / HUGE.denominator != float(HUGE)
    assert _AngleForm(const=HUGE.numerator, den=HUGE.denominator).evaluate(
        AngleCache(sphere2)
    ).value == float(HUGE)
    calls = _recorded_evaluations(monkeypatch)
    cfg = AngleConfig(samples=2000, seed=5)
    for embedded in (sphere2, book):
        gauss_bonnet_check(embedded, cfg=cfg, weights=lambda p: HUGE)
    _assert_evaluations_match_fractions(calls)
    # a wedge angle weighted by HUGE, against the exact weight's float
    cache = AngleCache(sphere2)
    pair = ((0,), (0, 1, 2))
    cache.fill([pair])
    form = _AngleForm(coeffs={pair: HUGE.numerator}, den=HUGE.denominator)
    assert form.evaluate(cache).value == float(HUGE) * cache._values[pair].value


def test_form_value_is_the_correctly_rounded_sum_of_its_terms(sphere2):
    # a term near 10^9, a thousand angles, and the first term again with the
    # opposite sign: summed in sequence, each angle is rounded to the ulp of
    # 10^9 (about 1.2e-7), and the value strays far beyond 1e-9
    rng = np.random.default_rng(22)
    values = [AngleValue(0.75, 0.0, "exact")] + [
        AngleValue(float(x), 0.0, "exact") for x in rng.random(1000)
    ]
    pairs = [((v,), (v, 10_000)) for v in range(len(values) + 1)]
    coeffs = {pairs[0]: 2**30, **{pair: 1 for pair in pairs[1:-1]}, pairs[-1]: -(2**30)}
    cache = AngleCache(sphere2)
    cache._values.update(zip(pairs, values + values[:1]))
    form = _AngleForm(const=3, coeffs=coeffs, den=1)
    # every product c x angle is exact, so the value is the rounded exact sum
    exact = 3 + sum(Fraction(c) * Fraction(cache._values[pair].value) for pair, c in coeffs.items())
    in_sequence = 3.0
    for pair, c in coeffs.items():
        in_sequence += c * cache._values[pair].value
    assert abs(in_sequence - float(exact)) > 1e-9
    cv = form.evaluate(cache)
    assert cv.value == float(exact)
    assert cv.exact


# -- constant angles folded into form constants ---------------------------------


def _non_pure():
    """A tetrahedron, a triangle on one of its edges and a dangling edge."""
    complex = SimplicialComplex([(0, 1, 2, 3), (2, 3, 4), (4, 5)])
    coords = {
        0: (0.0, 0.0, 0.0),
        1: (1.0, 0.0, 0.0),
        2: (0.0, 1.0, 0.0),
        3: (0.0, 0.0, 1.0),
        4: (-1.0, 1.5, 0.5),
        5: (-2.0, 1.0, 2.0),
    }
    return EmbeddedComplex(complex, coords)


def _folding_cases(sphere3, book, join_sphere3):
    """(embedded, assignment) pairs, the last two with rank overrides on a top
    simplex and on a codimension-1 simplex."""
    sd2 = barycentric_subdivide(barycentric_subdivide(boundary_of_simplex(3)).refined).refined
    cases = [(e, stratify(e.complex)) for e in (sd2, book, join_sphere3, sphere3, _non_pure())]
    cases.append((book, stratify(book.complex, {(0, 1, 2, 3): 3, (0, 1, 2): 5})))
    top, ridge = sd2.complex.simplices(2)[0], sd2.complex.simplices(1)[0]
    cases.append((sd2, stratify(sd2.complex, {top: 1, ridge: 4})))
    return cases


def _low_codimension_pairs(form):
    return [(eta, sigma) for eta, sigma in form.coeffs if len(sigma) - len(eta) <= 1]


def _even_faces(sigma):
    n = len(sigma) - 1
    return [tau for p in range(0, n - 1, 2) for tau in combinations(sigma, p + 1)]


def test_forms_hold_no_pair_of_codimension_at_most_one(monkeypatch, sphere3, book, join_sphere3):
    calls = _recorded_evaluations(monkeypatch)
    cfg = AngleConfig(samples=1000, seed=3)
    forms = []
    for embedded, assignment in _folding_cases(sphere3, book, join_sphere3):
        complex = embedded.complex
        for s in complex.simplices():
            forms += [_form("defect", s, complex, assignment), _form("ascending", s, complex, assignment)]
        forms += [_form("stratified", v, complex, assignment) for v in complex.simplices(0)]
        gauss_bonnet_check(embedded, assignment, cfg=cfg)
    totals = [recorded["total"] for _, recorded, _ in calls]
    assert len(totals) == 7
    for dim, seed in ((3, 21), (5, 22)):
        sigma = random_simplex(dim, seed=seed).complex.simplices(dim)[0]
        for tau in _even_faces(sigma):
            forms.append(_sommerville_form(sigma, tau))
    assert all(_low_codimension_pairs(form) == [] for form in forms + totals)
    # what is left still has pairs: the test is not passing on empty forms
    assert all(total.coeffs for total in totals[:4])


def _unfolded_sommerville_forms(sigma, tau):
    """Reference: Sommerville's two forms with every angle as a coefficient,
    sigma itself and its facets included."""
    n, p = len(sigma) - 1, len(tau) - 1
    extra = [v for v in sigma if v not in tau]
    alternating = _AngleForm(coeffs={(tau, sigma): -8}, den=4)
    defect = _AngleForm(const=n - p - 2, coeffs={(tau, sigma): 4}, den=4)
    for i in range(p + 1, n + 1):
        for rest in combinations(extra, i - p):
            eta = tuple(sorted(tau + rest))
            alternating.coeffs[(eta, sigma)] = 4 * (-1) ** (i - p + 1)
            if i <= n - 2:
                defect.coeffs[(eta, sigma)] = 2 * (-1) ** i
    return alternating, defect


def _hex(cv):
    return cv.value.hex(), cv.std_error.hex(), cv.exact


def test_folded_forms_evaluate_like_unfolded_ones_bit_for_bit(sphere3, book, join_sphere3):
    cfg = AngleConfig(samples=2000, seed=8)
    monte_carlo = 0
    for embedded, assignment in _folding_cases(sphere3, book, join_sphere3):
        complex = embedded.complex
        simplices = complex.simplices()
        ascending = {s: _merged_ascending_form(s, complex, assignment, angle_defect_term) for s in simplices}
        pairs = [(_form("ascending", s, complex, assignment), ascending[s]) for s in simplices]
        pairs += [
            (_form("stratified", v, complex, assignment), _merged_stratified_form(v, complex, assignment))
            for v in complex.simplices(0)
        ]
        pairs += [
            (_form("defect", s, complex, assignment), _reference_defect_form(s, complex, assignment))
            for s in simplices
        ]
        reference_total = _merged_total(ascending)
        cache = AngleCache(embedded, cfg)
        cache.fill({pair for _, reference in pairs for pair in reference.coeffs})
        for form, reference in pairs:
            assert _hex(form.evaluate(cache)) == _bits(*_fraction_evaluate(reference, cache))
        summary = gauss_bonnet_check(embedded, assignment, cache=cache).summary
        lhs = (summary["lhs"].hex(), summary["lhs_std_error"].hex(), summary["exact"])
        assert lhs == _bits(*_fraction_evaluate(reference_total, cache))
        monte_carlo += sum(angle.method == "monte_carlo" for angle in cache._values.values())
    assert monte_carlo
    for dim, seed in ((3, 21), (5, 22)):
        embedded = random_simplex(dim, seed=seed)
        sigma = embedded.complex.simplices(dim)[0]
        cache = AngleCache(embedded, AngleConfig(samples=2000, seed=seed))
        for tau in _even_faces(sigma):
            report = sommerville_residuals(sigma, tau, embedded, cache=cache)
            alternating, defect = _unfolded_sommerville_forms(sigma, tau)
            cache.fill(alternating.coeffs.keys() | defect.coeffs.keys())
            for name, form in (("alternating", alternating), ("defect", defect)):
                value, std_error, _ = _fraction_evaluate(form, cache)
                assert report[f"{name}_residual"].hex() == value.hex()
                assert report[f"{name}_std_error"].hex() == std_error.hex()
                assert report[f"{name}_std_error"] > 0  # Monte Carlo angles took part
            assert report["defect_rhs"] == Fraction(-defect.const, defect.den)


@pytest.mark.parametrize("z", [-1.0, 0.0, math.nan, math.inf])
def test_checks_reject_a_bad_z(sphere3, z):
    cfg = AngleConfig(samples=1000, seed=1)
    pair = barycentric_subdivide(boundary_of_simplex(3))
    checks = [
        lambda: gauss_bonnet_check(sphere3, cfg=cfg, z=z),
        lambda: vanishing_check(sphere3, cfg=cfg, z=z),
        lambda: subdivision_relation_check(pair, cfg=cfg, z=z),
        lambda: sommerville_check(solid_simplex(3), cfg, z=z),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="z must be a positive finite number"):
            check()


def _scaled(embedded, factors):
    """The same complex with coordinate axis i scaled by factors[i]."""
    coords = {v: p * np.asarray(factors) for v, p in embedded.coordinates.items()}
    return EmbeddedComplex(embedded.complex, coords, embedded.ambient_dim)


@pytest.mark.parametrize(
    "call",
    [
        lambda e, cache, cfg=None: generalized_angle_defect((0,), e, cfg=cfg, cache=cache),
        lambda e, cache, cfg=None: stratified_curvature_at_vertex(0, e, cfg=cfg, cache=cache),
        lambda e, cache, cfg=None: ascending_stratified_curvature((0,), e, cfg=cfg, cache=cache),
        lambda e, cache, cfg=None: gauss_bonnet_check(e, cfg=cfg, cache=cache),
        lambda e, cache, cfg=None: vanishing_check(e, cfg=cfg, cache=cache),
        lambda e, cache, cfg=None: sommerville_residuals((0, 1, 2, 3), (0,), e, cfg, cache),
    ],
    ids=["defect", "stratified", "ascending", "gauss_bonnet", "vanishing", "sommerville"],
)
def test_every_cache_parameter_refuses_another_embedding(sphere3, call):
    # a stretched copy's angles differ, and its closed-form ones carry the exact
    # flag; a copy with equal coordinates is another embedding all the same
    cfg = AngleConfig(samples=1000, seed=1)
    for other in (_scaled(sphere3, (1.0, 2.0, 3.0, 4.0)), _scaled(sphere3, (1.0,) * 4)):
        cache = AngleCache(other, cfg)
        with pytest.raises(ValueError, match="angle cache belongs to a different embedded complex"):
            call(sphere3, cache)
        assert not cache._values
    # a cfg passed next to the cache must be the cache's own, not silently dropped
    cache = AngleCache(sphere3, cfg)
    with pytest.raises(ValueError, match="differs from the angle cache's"):
        call(sphere3, cache, AngleConfig(samples=50_000, seed=5))
    assert not cache._values
    call(sphere3, cache, AngleConfig(samples=1000, seed=1))  # an equal cfg is the cache's
