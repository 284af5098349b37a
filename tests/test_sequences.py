from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from simcurv.sequences import (
    angle_defect_sequence,
    angle_defect_term,
    bernoulli,
    bernoulli_poly,
    binomial,
    recursion_sum,
    verify_recursion,
)

# first 18 terms, frozen
EXPECTED_SEQUENCE = [
    Fraction(1),
    Fraction(0),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1),
    Fraction(0),
    Fraction(-17, 4),
    Fraction(0),
    Fraction(31),
    Fraction(0),
    Fraction(-691, 2),
    Fraction(0),
    Fraction(5461),
    Fraction(0),
    Fraction(-929569, 8),
    Fraction(0),
    Fraction(3202291),
    Fraction(0),
]


def test_binomial_basic():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(7, 8) == 0
    assert binomial(7, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(1, 60), st.integers(0, 60))
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)


def test_bernoulli_odd_vanish():
    assert all(bernoulli(n) == 0 for n in range(3, 61, 2))


def test_binomial_bernoulli_identity():
    # sum_i C(n,i) B_i = B_n holds at n = 0 and n >= 2, not at n = 1
    for n in [0, *range(2, 51)]:
        assert sum(binomial(n, i) * bernoulli(i) for i in range(n + 1)) == bernoulli(n)
    n = 1
    assert sum(binomial(n, i) * bernoulli(i) for i in range(n + 1)) != bernoulli(n)


def test_bernoulli_poly_values():
    assert bernoulli_poly(0, Fraction(7, 3)) == 1
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)


def test_half_argument_identity():
    # B_n(1/2) = -(1 - 2^(1-n)) B_n
    for n in range(0, 31):
        rhs = -(1 - Fraction(2) ** (1 - n)) * bernoulli(n)
        assert bernoulli_poly(n, Fraction(1, 2)) == rhs


def test_doubled_bernoulli_identity():
    # sum_i C(n,i) B_i 2^i = B_n * (2 - 2^n)
    for n in range(0, 51):
        lhs = sum(binomial(n, i) * bernoulli(i) * 2**i for i in range(n + 1))
        assert lhs == bernoulli(n) * (2 - 2**n)


def test_first_eighteen_terms():
    assert angle_defect_sequence(17) == EXPECTED_SEQUENCE


def test_spot_terms():
    assert angle_defect_term(0) == 1
    assert angle_defect_term(1) == 0
    assert angle_defect_term(2) == Fraction(-1, 2)
    assert angle_defect_term(6) == Fraction(-17, 4)
    assert angle_defect_term(14) == Fraction(-929569, 8)


def test_odd_terms_vanish():
    assert all(angle_defect_term(n) == 0 for n in range(1, 61, 2))
    assert all(angle_defect_term(n) != 0 for n in range(0, 61, 2))


def test_recursion_small():
    # n = 1: a_1 + (a_0/2) C(2,1) = 0 + 1
    assert angle_defect_term(1) + angle_defect_term(0) / 2 * binomial(2, 1) == 1
    assert verify_recursion(1)
    assert verify_recursion(17)


def test_recursion_to_fifty():
    assert verify_recursion(50)


def test_constant_sequence_fails_recursion():
    # the recursion pins the sequence: the all-ones sequence breaks it at n=2
    n = 2
    lhs = Fraction(1) + sum(Fraction(1, 2) * binomial(n + 1, i + 1) for i in range(n))
    assert lhs != 1


def test_recursion_sum_is_one_for_the_weights_and_two_to_the_n_for_ones():
    assert [recursion_sum(n) for n in range(1, 31)] == [1] * 30
    assert recursion_sum(0) == 1
    # 1 + (2^(n+1) - 2) / 2 for the constant-one weights, ints or Fractions
    for ones in (lambda p: 1, lambda p: Fraction(1)):
        assert [recursion_sum(n, ones) for n in range(8)] == [2**n for n in range(8)]
