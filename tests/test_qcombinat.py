from fractions import Fraction
from itertools import product
from math import comb

import pytest
import sympy
from sympy.polys.polyerrors import ExactQuotientFailed

import qpositivity
from qpositivity.altsum import CyclicParams, F, cyclic_product
from qpositivity.catalan import odd_super_catalan_direct
from qpositivity.qcombinat import (
    NegativeIndex,
    choose2,
    cyclotomic,
    gauss_binom,
    q_factorial,
    q_int,
    q_poch,
    q_ratio,
    ratio_at_one,
)
from qpositivity.qpoly import IntPoly, NotDivisible, ONE, ZERO

from oracles import factorial_division_ratio, gauss_binom_pascal, naive_mul, q, sym_coeffs, sym_factorial_ratio


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


def test_not_divisible_names_the_first_negative_cyclotomic_exponent():
    # [3]!/([2]![2]!) = Phi_3/Phi_2, and Phi_3 = 1 + q + q^2 leaves remainder 1
    with pytest.raises(NotDivisible, match="Φ_2 exponent -1") as info:
        q_ratio((3,), (2, 2))
    assert info.value.remainder == ONE
    # [4]!/([3]![3]!) = Phi_4/Phi_3: e_2 = 2 - 1 - 1 = 0, e_3 = 1 - 2 = -1
    with pytest.raises(NotDivisible, match="Φ_3 exponent -1") as info:
        q_ratio((4,), (3, 3))
    assert info.value.remainder
    # a factor in times that does not supply the missing Phi_2 still fails
    with pytest.raises(NotDivisible, match="Φ_2 exponent -2") as info:
        q_ratio((2,), (2, 2, 2), q_int(3))
    assert info.value.remainder


def _same_as_factorial_division(num, den, *times):
    """q_ratio equals the multiply-then-divide route, NotDivisible included."""
    try:
        expected = factorial_division_ratio(num, den, *times)
    except NotDivisible:
        with pytest.raises(NotDivisible) as info:
            q_ratio(num, den, *times)
        assert info.value.remainder, (num, den)
        return False
    assert q_ratio(num, den, *times) == expected, (num, den)
    return True


def test_q_ratio_equals_factorial_division():
    indices = range(7)
    nums = [num for length in range(3) for num in product(indices, repeat=length)]
    dens = [den for length in range(4) for den in product(range(-1, 7), repeat=length)]
    outcomes = [_same_as_factorial_division(num, den) for num in nums for den in dens]
    assert 0 < sum(outcomes) < len(outcomes)


def test_odd_super_catalan_direct_equals_factorial_division():
    for m in range(17):
        for n in range(17 - m):
            expected = factorial_division_ratio((2 * m + 1, 2 * n), (m + n + 1, m, n))
            assert odd_super_catalan_direct(m, n) == expected, (m, n)


def _criterion_4_grid():
    for m_values in ((1, 2, 3), (0, 1, 2)):
        for r, s in product((2, 3), repeat=2):
            for m, n in product(product(m_values, repeat=r), product((1, 2, 3), repeat=s)):
                for a, b in product(range(s + 1), range(1, r + 1)):
                    yield CyclicParams(m, n, a, b)


def test_F_prefactor_equals_factorial_division():
    # one instance per distinct prefactor (m_1, m_r, n_1, n_s), with its k-sum as times
    seen = set()
    for params in _criterion_4_grid():
        m, n, a, b = params.m, params.n, params.a, params.b
        num, den = (m[0], n[0], m[-1] + n[-1] + 1), (m[0] + m[-1] + 1, n[0] + n[-1])
        if (num, den) in seen:
            continue
        seen.add((num, den))
        total = ZERO
        for k in range(-n[0], n[0] + 1):
            term = cyclic_product(m, n, k).shift(a * k * k + (2 * b - 1) * choose2(k))
            total = total - term if k % 2 else total + term
        assert _same_as_factorial_division(num, den, total)
        assert q_ratio(num, den, total) == F(params)
        _same_as_factorial_division(num, den)
    assert len(seen) > 100


def test_cyclotomic_against_sympy():
    for d in range(2, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(d, q), q).all_coeffs()[::-1]
        assert cyclotomic(d).coeffs == tuple(int(c) for c in expected), d


def test_factorial_is_a_product_of_cyclotomics():
    # [n]! = prod over d >= 2 of Phi_d^floor(n/d), against the naive product of q-integers
    naive = [1]
    for n in range(1, 31):
        naive = naive_mul(naive, [1] * n)
        product_form = [1]
        for d in range(2, n + 1):
            for _ in range(n // d):
                product_form = naive_mul(product_form, list(cyclotomic(d).coeffs))
        assert product_form == naive, n


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
    # Cyclotomic q_ratio route against the independent q-Pascal recurrence route.
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
