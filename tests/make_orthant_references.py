"""Write ``tests/data/orthant_references.json``: 40-digit solid angles of the
codimension-4 and -5 cones that ``tests/test_geometry.py`` checks the
quadrature against.

Run by hand, from the repository root, with mpmath (written against 1.3.0):

    python tests/make_orthant_references.py

The tests only read the JSON file, so they never import mpmath.  Each cone is
given by its generators, stored as floats (which JSON round-trips exactly).
The reference is the angle of the cone those floats span, computed at 50
digits and written to 40: the correlation matrix R of its dual basis, then
Plackett's integral along R(t) = I + t (R - I), as in ``simcurv.geometry``,
by mpmath's own quadrature.  Before writing, the same code must reproduce
two closed forms to 40 digits: equicorrelation 1/2 gives 1/(c + 1), and a
block-diagonal R gives the product of the blocks' orthant probabilities.

Cones: Gaussian generators (``random``), and cones whose second generator is
the first plus s times a Gaussian vector (``near_collinear``, s = 1e-3 and
1e-6).
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 50
DIGITS = 40
OUT = Path(__file__).parent / "data" / "orthant_references.json"


def correlation(generators) -> mp.matrix:
    """Correlation matrix of the dual basis of the cone spanned by the rows
    of ``generators``: the normalized inverse of their Gram matrix."""
    g = mp.matrix([[mp.mpf(float(x)) for x in row] for row in generators])
    cov = mp.inverse(g * g.T)
    c = cov.rows
    return mp.matrix([[cov[i, j] / mp.sqrt(cov[i, i] * cov[j, j]) for j in range(c)] for i in range(c)])


def orthant_2_or_3(rho: mp.matrix) -> mp.mpf:
    """P(X >= 0), X ~ N(0, rho), in closed form for 2 or 3 variables."""
    m = rho.rows
    arcsines = sum(mp.asin(rho[k, l]) for k, l in combinations(range(m), 2))
    return mp.mpf(2) ** -m + arcsines / (2 ** (m - 1) * mp.pi)


def orthant(rho: mp.matrix) -> mp.mpf:
    """P(X >= 0), X ~ N(0, rho), for 4 or 5 variables by Plackett's
    reduction: 2^-c plus the integral over [0, 1] of the sum over i < j of
    rho_ij phi_2(0, 0; t rho_ij) times the orthant probability of the other
    variables given X_i = X_j = 0 under R(t)."""
    c = rho.rows

    def rate(t):
        total = mp.mpf(0)
        for i, j in combinations(range(c), 2):
            rest = [k for k in range(c) if k not in (i, j)]
            at = mp.matrix([[t * rho[a, b] if a != b else 1 for b in range(c)] for a in range(c)])
            a_inv = mp.inverse(mp.matrix([[1, at[i, j]], [at[i, j], 1]]))
            cross = mp.matrix([[at[k, i], at[k, j]] for k in rest])
            schur = mp.matrix([[at[k, l] for l in rest] for k in rest]) - cross * a_inv * cross.T
            m = len(rest)
            conditional = mp.matrix(
                [[schur[a, b] / mp.sqrt(schur[a, a] * schur[b, b]) for b in range(m)] for a in range(m)]
            )
            density = 1 / (2 * mp.pi * mp.sqrt(1 - at[i, j] ** 2))
            total += rho[i, j] * density * orthant_2_or_3(conditional)
        return total

    integral, error = mp.quad(rate, [0, mp.mpf(1) / 2, 1], error=True)
    if not error < mp.mpf(10) ** -DIGITS:
        raise ArithmeticError(f"mpmath's quadrature error estimate is {mp.nstr(error, 3)}")
    return mp.mpf(2) ** -c + integral


def _self_check() -> None:
    tol = mp.mpf(10) ** -DIGITS
    for c in (4, 5):
        equi = mp.matrix([[1 if i == j else mp.mpf(1) / 2 for j in range(c)] for i in range(c)])
        assert abs(orthant(equi) - mp.mpf(1) / (c + 1)) < tol
    rho = mp.matrix([[1, 0.3, 0, 0, 0], [0.3, 1, 0, 0, 0], [0, 0, 1, -0.6, 0.2], [0, 0, -0.6, 1, 0.5], [0, 0, 0.2, 0.5, 1]])
    for c in (4, 5):
        block = mp.matrix([[rho[i, j] for j in range(c)] for i in range(c)])
        first = mp.matrix([[block[i, j] for j in range(2)] for i in range(2)])
        second = mp.matrix([[block[i, j] for j in range(2, c)] for i in range(2, c)])
        assert abs(orthant(block) - orthant_2_or_3(first) * orthant_2_or_3(second)) < tol


def cones() -> list[dict]:
    rng = np.random.default_rng(20_241_021)
    out = []
    for c in (4, 5):
        for k in range(3):
            out.append({"name": f"random_c{c}_{k}", "kind": "random", "s": 0.0, "generators": rng.standard_normal((c, c))})
        for s in (1e-3, 1e-6):
            g = rng.standard_normal((c, c))
            g[1] = g[0] + s * rng.standard_normal(c)
            out.append({"name": f"near_collinear_c{c}_s{s:g}", "kind": "near_collinear", "s": s, "generators": g})
    return out


def main() -> None:
    _self_check()
    records = []
    for cone in cones():
        angle = orthant(correlation(cone["generators"]))
        records.append({**cone, "generators": cone["generators"].tolist(), "angle": mp.nstr(angle, DIGITS)})
        print(cone["name"], records[-1]["angle"])
    OUT.parent.mkdir(exist_ok=True)
    payload = {"digits": DIGITS, "mpmath": mp.__version__, "cones": records}
    OUT.write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    main()
