from fractions import Fraction
from itertools import product
from math import comb

import pytest
from sympy.polys.polyerrors import ExactQuotientFailed

import qpositivity
from qpositivity.qcombinat import (
    NegativeIndex,
    choose2,
    gauss_binom,
    gauss_binom_pascal,
    q_factorial,
    q_int,
    q_poch,
    q_ratio,
    ratio_at_one,
)
from qpositivity.qpoly import IntPoly, NotDivisible, ONE, ZERO

from oracles import q, sym_coeffs, sym_factorial_ratio


def P(*coeffs):
    return IntPoly(coeffs)


def test_q_int():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(3) == P(1, 1, 1)
    with pytest.raises(NegativeIndex):
        q_int(-1)


def test_q_factorial():
    assert q_factorial(0) == ONE
    assert q_factorial(2) == P(1, 1)
    assert q_factorial(3) == P(1, 2, 2, 1)
    with pytest.raises(NegativeIndex):
        q_factorial(-2)


def test_q_poch():
    assert q_poch(0) == ONE
    assert q_poch(2) == P(1, -1, -1, 1)
    with pytest.raises(NegativeIndex):
        q_poch(-1)
    with pytest.raises(NegativeIndex):
        q_poch(-5)


def test_q_poch_relates_to_factorial():
    # (q;q)_n = (1-q)^n [n]!
    sign = ONE
    for n in range(21):
        assert q_poch(n) == sign * q_factorial(n)
        sign = sign * P(1, -1)


def test_q_ratio_against_sympy_oracle():
    # every pair of index pairs with entries below 5, polynomial ratios and not
    polynomial = 0
    for num, den in product(product(range(5), repeat=2), repeat=2):
        try:
            expected = IntPoly(sym_coeffs(sym_factorial_ratio(list(num), list(den))))
        except ExactQuotientFailed:
            with pytest.raises(NotDivisible):
                q_ratio(num, den)
            continue
        polynomial += 1
        assert q_ratio(num, den) == expected, (num, den)
        assert ratio_at_one(num, den) == expected.eval_at_one(), (num, den)
    assert 0 < polynomial < 5**4


def test_q_ratio_times():
    times = (P(1, 2), P(0, -1, 3))
    expected = sym_factorial_ratio([3, 4], [2, 2]) * (1 + 2 * q) * (-q + 3 * q**2)
    assert q_ratio((3, 4), (2, 2), *times) == IntPoly(sym_coeffs(expected))
    # a factor in times can complete a ratio that is not a polynomial on its own
    with pytest.raises(NotDivisible):
        q_ratio((3,), (2, 2))
    assert q_ratio((3,), (2, 2), P(1, 1)) == q_int(3)
    assert ratio_at_one((3,), (2, 2)) == Fraction(3, 2)


def test_q_ratio_negative_den_index_vanishes():
    assert q_ratio((4,), (-1, 5)) == ZERO
    assert q_ratio((4,), (2, 3, -2), P(1, 1)) == ZERO


def test_every_exported_name_resolves():
    missing = [name for name in qpositivity.__all__ if not hasattr(qpositivity, name)]
    assert missing == []


def test_gauss_binom_examples():
    assert gauss_binom(5, 7) == ZERO
    assert gauss_binom(5, -1) == ZERO
    assert gauss_binom(-2, 0) == ZERO
    for N in range(6):
        assert gauss_binom(N, 0) == ONE
    assert gauss_binom(4, 2) == P(1, 1, 2, 1, 1)


def test_gauss_binom_symmetry():
    for N in range(13):
        for K in range(N + 1):
            assert gauss_binom(N, K) == gauss_binom(N, N - K)


def test_gauss_binom_two_routes_agree():
    # Division route against the independent q-Pascal recurrence route.
    for N in range(21):
        for K in range(N + 1):
            assert gauss_binom(N, K) == gauss_binom_pascal(N, K)


def test_gauss_binom_q_pascal_recurrence():
    for N in range(1, 21):
        for K in range(N + 1):
            expected = gauss_binom(N - 1, K - 1) + gauss_binom(N - 1, K).shift(K)
            assert gauss_binom(N, K) == expected


def test_gauss_binom_specializes_to_binomial():
    for N in range(31):
        for K in range(N + 1):
            assert gauss_binom(N, K).eval_at_one() == comb(N, K)


def test_gauss_binom_nonneg():
    for N in range(21):
        for K in range(N + 1):
            assert gauss_binom(N, K).is_nonneg()


def test_choose2():
    assert choose2(0) == 0
    assert choose2(1) == 0
    assert choose2(-1) == 1
    assert choose2(4) == 6
    for k in range(-100, 101):
        assert choose2(k) >= 0
        assert choose2(k) == choose2(1 - k)
