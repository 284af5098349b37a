"""Exact integer/rational sequences used by the curvature formulas.

Everything here is computed with `fractions.Fraction`; no floating point.

Convention: Bernoulli numbers of the first kind, B_1 = -1/2.  With this
convention the classical identity sum_i C(n,i) B_i = B_n holds for n = 0 and
all n >= 2 but fails at n = 1; sweeps over that identity must skip n = 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2) via the recurrence sum_{i=0}^{n} C(n+1, i) B_i = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return Fraction(1)
    if n % 2 == 1 and n >= 3:
        # odd Bernoulli numbers vanish from B_3 on; skipping them keeps the
        # recurrence quadratic only in the even indices actually needed
        return Fraction(0)
    total = sum(Fraction(comb(n + 1, i)) * bernoulli(i) for i in range(n))
    return -total / (n + 1)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """Bernoulli polynomial B_n(x) = sum_i C(n,i) B_i x^(n-i), exact."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x = Fraction(x)
    return sum(
        (Fraction(comb(n, i)) * bernoulli(i) * x ** (n - i) for i in range(n + 1)),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def angle_defect_term(n: int) -> Fraction:
    """Weight a_n = 4 B_(n+2) (2^(n+2) - 1) / (n+2) of the angle defect sequence.

    The sequence starts 1, 0, -1/2, 0, 1, 0, -17/4, ... and vanishes at every
    odd index.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return 4 * bernoulli(n + 2) * (2 ** (n + 2) - 1) / Fraction(n + 2)


def angle_defect_sequence(n_max: int) -> list[Fraction]:
    """The weights a_0 .. a_n_max as a list of exact fractions."""
    return [angle_defect_term(i) for i in range(n_max + 1)]


def recursion_sum(n: int, weights=angle_defect_term) -> Fraction:
    """w_n + sum_{i<n} C(n+1, i+1) w_i / 2, exact; it is 1 for the weights a_n, n >= 1."""
    return weights(n) + Fraction(sum(comb(n + 1, i + 1) * weights(i) for i in range(n)), 2)


def verify_recursion(n_max: int) -> bool:
    """Check a_n + sum_{i<n} (a_i/2) C(n+1, i+1) = 1 exactly for 1 <= n <= n_max.

    This recursion is what makes the Gauss-Bonnet style identity work; the
    constant-one sequence, for example, does not satisfy it.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return all(recursion_sum(n) == 1 for n in range(1, n_max + 1))
