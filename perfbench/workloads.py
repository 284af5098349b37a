"""The three benchmark workloads: inputs built from a seed, one pass, checks.

Each workload has ``setup(seed, opts)`` returning a state and
``run_pass(state)`` returning a :class:`PassResult`.  A pass only calls
public names of the package, looked up at call time, so a traced run sees
its calls through the wrapped functions.  Why each workload exists is
in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as textio
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

import simcurv
from simcurv import cli, curvature, generators, geometry, io, sequences, stratification, subdivision

Z = 4.0  # the package's default verdict threshold; never changed here
ABS_TOL = 1e-9  # the package's tolerance for exact residuals
# criterion 3 requires max sigma < 2e-3 at 10^6 samples; sigma scales as N^-1/2
SOMMERVILLE_SIGMA_AT_1E6 = 2e-3


@dataclass
class PassResult:
    checks: list[tuple[str, bool]] = field(default_factory=list)
    sigmas: list[float] = field(default_factory=list)  # residual standard errors
    values: list = field(default_factory=list)  # everything that must repeat exactly
    stdout_bytes: int = 0

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


def _warm_sequences(max_dim: int) -> None:
    # exact weights are cached on first use; that belongs to set-up
    for n in range(max_dim + 3):
        sequences.angle_defect_term(n)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# -- mc_sommerville -----------------------------------------------------------


def setup_mc_sommerville(seed, opts):
    derived = _seeds(seed, 25)
    simplices = [generators.random_simplex(3, seed=s) for s in derived[:20]]
    simplices += [generators.random_simplex(5, seed=s) for s in derived[20:]]
    _warm_sequences(5)
    cfg = geometry.AngleConfig(samples=opts.samples, seed=seed, threads=opts.threads)
    return {"simplices": simplices, "cfg": cfg, "samples": opts.samples}


def pass_mc_sommerville(state) -> PassResult:
    out = PassResult()
    for embedded in state["simplices"]:
        cache = geometry.AngleCache(embedded, state["cfg"])
        n = embedded.complex.dim
        sigma = embedded.complex.simplices(n)[0]
        for p in range(0, n - 1, 2):
            for tau in combinations(sigma, p + 1):
                res = geometry.sommerville_residuals(sigma, tau, embedded, cache=cache)
                for form in ("alternating", "defect"):
                    r, s = res[f"{form}_residual"], res[f"{form}_std_error"]
                    out.sigmas.append(s)
                    out.values += [r, s]
                    out.check(f"{form}{list(tau)}", abs(r) <= Z * s)
    bound = SOMMERVILLE_SIGMA_AT_1E6 * (1e6 / state["samples"]) ** 0.5
    out.check("max_sigma", max(out.sigmas) < bound)
    return out


# -- mc_gauss_bonnet ------------------------------------------------------------


def setup_mc_gauss_bonnet(seed, opts):
    complexes = {
        "sphere3": generators.boundary_of_simplex(4),
        "join": generators.join_of_sphere_boundaries(2, 2),
        "book": generators.triple_book(),
    }
    _warm_sequences(3)
    cfg = geometry.AngleConfig(samples=opts.samples, seed=seed, threads=opts.threads)
    return {"complexes": complexes, "cfg": cfg}


def _record_report(out: PassResult, label: str, report) -> None:
    out.values.append(json.dumps(io.json_ready(report.to_dict()), sort_keys=True))
    out.check(f"{label}.{report.name}", report.passed)


def pass_mc_gauss_bonnet(state) -> PassResult:
    out = PassResult()
    cfg = state["cfg"]
    for label in ("sphere3", "join"):
        embedded = state["complexes"][label]
        assignment = stratification.stratify(embedded.complex)
        cache = geometry.AngleCache(embedded, cfg)
        gb = curvature.gauss_bonnet_check(embedded, assignment, cache=cache, z=Z)
        _record_report(out, label, gb)
        out.check(f"{label}.chi_s", gb.summary["rhs"] == 0)
        out.sigmas.append(gb.summary["lhs_std_error"])
        van = curvature.vanishing_check(embedded, assignment, cache=cache, z=Z)
        _record_report(out, label, van)
        out.check(f"{label}.analytic_zero", van.summary["analytic_zero_failures"] == 0)
        out.sigmas += [row["std_error"] for row in van.rows if not row["exact"]]
        if label != "sphere3":
            continue
        # criterion 6: the defect is positive while the ascending curvature vanishes
        for v in embedded.complex.vertices():
            defect = curvature.generalized_angle_defect((v,), embedded, assignment, cache=cache)
            ascend = curvature.ascending_stratified_curvature((v,), embedded, assignment, cache=cache)
            out.values += [defect.value, defect.std_error, ascend.value, ascend.std_error]
            out.sigmas += [defect.std_error, ascend.std_error]
            out.check(f"defect_positive[{v}]", defect.value - Z * defect.std_error > 0)
            out.check(f"ascending_zero[{v}]", abs(ascend.value) <= Z * ascend.std_error)
        # negative control (criterion 10): constant-one weights break the identity
        bad = curvature.gauss_bonnet_check(
            embedded, assignment, cache=cache, z=Z, weights=lambda p: Fraction(1)
        )
        out.values.append(bad.summary["residual"])
        ratio = abs(bad.summary["residual"]) / bad.summary["lhs_std_error"]
        out.check("constant_one_fails", not bad.passed and ratio > Z)

    book = state["complexes"]["book"]
    assignment = stratification.stratify(book.complex)
    chi_s = stratification.stratified_euler_characteristic(book.complex, assignment)
    out.check("book.chi_s", chi_s == 0)
    cache = geometry.AngleCache(book, cfg)
    gb = curvature.gauss_bonnet_check(book, assignment, cache=cache, z=Z)
    _record_report(out, "book", gb)
    out.sigmas.append(gb.summary["lhs_std_error"])
    # negative control (criterion 5): the book violates the vanishing hypothesis
    try:
        curvature.vanishing_check(book, assignment, cache=cache, z=Z)
        out.check("book.vanishing_hypothesis_fails", False)
    except curvature.HypothesisError:
        out.check("book.vanishing_hypothesis_fails", True)
    return out


# -- exact_refine ---------------------------------------------------------------


def _rigid_motion(embedded, rng):
    d = embedded.ambient_dim
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.standard_normal(d)
    coords = {v: q @ p + shift for v, p in embedded.coordinates.items()}
    return geometry.EmbeddedComplex(embedded.complex, coords, d)


def setup_exact_refine(seed, opts):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    surface = generators.boundary_of_simplex(3)
    for _ in range(opts.depth):
        surface = subdivision.barycentric_subdivide(surface).refined
    files = {name: os.path.join(opts.work_dir, f"{name}.json") for name in ("surface", "book")}
    for name, embedded in (("surface", surface), ("book", generators.triple_book())):
        with open(files[name], "w", encoding="utf-8") as stream:
            io.dump_complex(_rigid_motion(embedded, rng), stream)
    _warm_sequences(3)
    run = ["--samples", str(opts.samples), "--seed", str(seed), "--threads", str(opts.threads)]
    return {
        "files": files,
        "dir": opts.work_dir,
        "run": run,
        "triangles": 4 * 6 ** (opts.depth + 1),
    }


def _cli(argv: list[str], out: PassResult) -> tuple[int, str, str]:
    stdout, stderr = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = stdout.getvalue()
    out.stdout_bytes += len(text.encode())
    out.values.append((argv[0], code, hashlib.sha256(text.encode()).hexdigest()))
    return code, text, stderr.getvalue()


def _save(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)


def _chi_s_line(table: str) -> str:
    return table.strip().splitlines()[-1].split(": ", 1)[1]


def pass_exact_refine(state) -> PassResult:
    out = PassResult()
    files, run = state["files"], state["run"]
    refined = os.path.join(state["dir"], "refined.json")
    carrier = os.path.join(state["dir"], "carrier.json")
    codes = []

    code, text, _ = _cli(["subdivide", files["surface"], "--barycentric", "--carrier-out", carrier], out)
    codes.append(code)
    _save(refined, text)
    out.check("triangles", len(json.loads(text)["maximal_simplices"]) == state["triangles"])

    code, text, _ = _cli(
        ["verify", "subdivision", refined, "--base", files["surface"], "--carrier", carrier,
         "--format", "json", *run],
        out,
    )
    codes.append(code)
    report = json.loads(text)
    out.check("subdivision", report["passed"] and all(row["exact"] for row in report["rows"]))

    code, text, _ = _cli(["verify", "gauss-bonnet", refined, "--format", "json", *run], out)
    codes.append(code)
    summary = json.loads(text)["summary"]
    out.sigmas.append(summary["lhs_std_error"])
    out.check(
        "gauss_bonnet",
        summary["exact"] and summary["rhs"] == "2" and abs(summary["lhs"] - 2.0) <= ABS_TOL,
    )

    code, text, _ = _cli(["strata", refined], out)
    codes.append(code)
    out.check("chi_s", _chi_s_line(text) == "2")

    code, text, _ = _cli(["curvature", refined, "--kind", "stratified", *run], out)
    codes.append(code)
    rows = text.strip().splitlines()[1:]
    out.check("curvature_exact", rows and all(row.split()[-1] == "True" for row in rows))

    book = os.path.join(state["dir"], "book_refined.json")
    code, text, _ = _cli(["subdivide", files["book"], "--barycentric"], out)
    codes.append(code)
    _save(book, text)
    code, text, _ = _cli(["strata", book], out)
    codes.append(code)
    out.check("book_chi_s", _chi_s_line(text) == "0")
    code, _, err = _cli(["verify", "vanishing", book, *run], out)
    codes.append(code)
    out.check("book_vanishing_hypothesis", "hypothesis failure" in err)
    out.check("exit_codes", codes == [0, 0, 0, 0, 0, 0, 0, 1])
    return out


WORKLOADS = {
    "mc_sommerville": (setup_mc_sommerville, pass_mc_sommerville),
    "mc_gauss_bonnet": (setup_mc_gauss_bonnet, pass_mc_gauss_bonnet),
    "exact_refine": (setup_exact_refine, pass_exact_refine),
}


def backend() -> str | None:
    """The count backend's name, where the package still reports one."""
    kernels = getattr(simcurv, "_kernels", None)
    name = getattr(kernels, "backend_name", None)
    return name() if callable(name) else None
