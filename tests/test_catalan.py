import json

import pytest
from hypothesis import given, settings, strategies as st

from qpositivity import catalan
from qpositivity.catalan import (
    double_expansion_check,
    odd_super_catalan_direct,
    odd_super_catalan_recursive,
    odd_super_catalan_value_at_one,
    ratio_B,
    ratio_B_value_at_one,
    super_catalan_A,
    super_catalan_A_value_at_one,
)
from qpositivity.cli import main
from qpositivity.qcombinat import InvalidRange, NegativeIndex, gauss_binom
from qpositivity.qpoly import IntPoly, NotDivisible, ONE

from oracles import factorial_division_ratio, inner_sum, sym_coeffs, sym_factorial_ratio


def P(*coeffs):
    return IntPoly(coeffs)


class TestSuperCatalanA:
    def test_examples(self):
        assert super_catalan_A(0, 0) == ONE
        assert super_catalan_A(1, 1) == P(1, 1)
        # frozen from the sympy factorial-ratio oracle
        assert super_catalan_A(2, 1) == P(1, 1, 1, 1)

    def test_against_sympy_oracle(self):
        for m in range(4):
            for n in range(4):
                expected = sym_coeffs(sym_factorial_ratio([2 * m, 2 * n], [m + n, m, n]))
                assert list(super_catalan_A(m, n).coeffs) == expected

    def test_negative_raises(self):
        with pytest.raises(NegativeIndex):
            super_catalan_A(-1, 0)


class TestRatioB:
    def test_examples(self):
        assert ratio_B(0, 0) == ONE
        assert ratio_B(1, 0) == P(1, 1)
        # frozen from the sympy factorial-ratio oracle
        assert ratio_B(2, 1) == P(1, 1, 2, 1, 1)

    def test_against_sympy_oracle(self):
        for n in range(5):
            for m in range(n + 1):
                expected = sym_coeffs(sym_factorial_ratio([2 * n, m], [n, 2 * m, n - m]))
                assert list(ratio_B(n, m).coeffs) == expected

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            ratio_B(1, 2)

    def test_nonneg(self):
        for n in range(13):
            for m in range(n + 1):
                assert ratio_B(n, m).is_nonneg()


class TestOddSuperCatalanDirect:
    def test_examples(self):
        assert odd_super_catalan_direct(0, 0) == ONE
        assert odd_super_catalan_direct(1, 1) == P(1, 1)
        assert odd_super_catalan_direct(1, 0) == P(1, 1, 1)
        # frozen from the sympy factorial-ratio oracle
        assert odd_super_catalan_direct(2, 1) == P(1, 1, 1, 1, 1)

    def test_against_sympy_oracle(self):
        for m in range(4):
            for n in range(4):
                expected = sym_coeffs(
                    sym_factorial_ratio([2 * m + 1, 2 * n], [m + n + 1, m, n])
                )
                assert list(odd_super_catalan_direct(m, n).coeffs) == expected

    def test_diagonal_is_gaussian(self):
        for n in range(11):
            assert odd_super_catalan_direct(n, n) == gauss_binom(2 * n, n)

    def test_value_at_one(self):
        for m in range(8):
            for n in range(8):
                assert (
                    odd_super_catalan_direct(m, n).eval_at_one()
                    == odd_super_catalan_value_at_one(m, n)
                )


class TestWalk:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 30).flatmap(lambda total: st.tuples(st.integers(0, total), st.just(total))))
    def test_matches_the_factorial_ratio_oracle(self, point):
        m, total = point
        n = total - m
        expected = factorial_division_ratio((2 * m + 1, 2 * n), (m + n + 1, m, n))
        assert odd_super_catalan_direct(m, n) == expected
        assert list(catalan.odd_super_catalan_walk(m, n))[-1] == expected

    def test_walk_yields_every_row(self):
        for m in range(6):
            assert list(catalan.odd_super_catalan_walk(m, 5)) == [
                factorial_division_ratio((2 * m + 1, 2 * n), (m + n + 1, m, n)) for n in range(6)
            ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(10**20), 10**20), max_size=12), st.integers(1, 7))
    def test_division_by_one_minus_q_t(self, coeffs, t):
        # a multiple of 1 - q^t divides back exactly; any other list leaves a
        # remainder R = P - (1 - q^t) Q on the top t degrees of P
        one_minus = IntPoly(catalan._times_binomial([1], t))
        assert catalan._over_one_minus(catalan._times_binomial(coeffs, t), t) == coeffs
        poly = IntPoly(coeffs)
        try:
            quotient = IntPoly(catalan._over_one_minus(list(poly.coeffs), t))
        except NotDivisible as exc:
            remainder = exc.remainder
            assert remainder and not any(remainder.coeffs[: max(len(poly.coeffs) - t, 0)])
            quotient = IntPoly(catalan._over_one_minus(list((poly - remainder).coeffs), t))
            assert quotient * one_minus + remainder == poly
        else:
            assert quotient * one_minus == poly

    def test_a_step_that_does_not_divide_raises(self):
        # (1 + q^2) / (1 - q^2): the prefix sums [1, 0, 2] leave the top
        # entries [0, 2], the remainder 2q^2 = (1 + q^2) - (1 - q^2) * 1
        with pytest.raises(NotDivisible, match="1 - q\\^2") as info:
            catalan._over_one_minus([1, 0, 1], 2)
        assert info.value.remainder == IntPoly([0, 0, 2])
        # shorter than t: the whole list is the remainder
        with pytest.raises(NotDivisible) as info:
            catalan._over_one_minus([3, 1], 5)
        assert info.value.remainder == IntPoly([3, 1])

    def test_a_wrong_step_exits_3(self, monkeypatch, capsys):
        # a step whose product is off by one in its constant term
        step = catalan._times_binomial
        monkeypatch.setattr(catalan, "_times_binomial", lambda coeffs, *args: [coeffs[0] + 1, *step(coeffs, *args)[1:]])
        assert main(["compute", "C", "3", "2"]) == 3
        assert "1 - q^" in capsys.readouterr().err

    def test_negative_index_exits_2(self, capsys):
        assert main(["compute", "C", "-1", "2"]) == 2
        with pytest.raises(NegativeIndex):
            next(catalan.odd_super_catalan_walk(-1, 2))

    def test_scan_rows_are_the_direct_values(self, capsys):
        assert main(["scan", "C", "--max-sum", "12", "--checks", "positivity"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 13 * 14 // 2
        for row in rows:
            m, n = row["params"]["m"], row["params"]["n"]
            assert row["coeffs"] == odd_super_catalan_direct(m, n).to_coeff_strings()


def test_value_at_one_of_A_and_B():
    for x in range(8):
        for y in range(8):
            assert super_catalan_A(x, y).eval_at_one() == super_catalan_A_value_at_one(x, y)
            if y <= x:
                assert ratio_B(x, y).eval_at_one() == ratio_B_value_at_one(x, y)


class TestOddSuperCatalanRecursive:
    def test_base_case(self):
        assert odd_super_catalan_recursive(2, 2) == P(1, 1, 2, 1, 1)
        assert odd_super_catalan_recursive(2, 2) == gauss_binom(4, 2)

    def test_example_points(self):
        assert odd_super_catalan_recursive(3, 1) == odd_super_catalan_direct(3, 1)
        assert odd_super_catalan_recursive(1, 4) == odd_super_catalan_direct(1, 4)

    def test_matches_direct(self):
        # Full range m+n <= 16 runs in the acceptance suite.
        for m in range(11):
            for n in range(11 - m):
                assert odd_super_catalan_recursive(m, n) == odd_super_catalan_direct(m, n)

    def test_scan_keeps_only_the_sub_values(self, monkeypatch, tmp_path):
        # two bounded caches: the sub-values and the inner sums S(M, c), which
        # are no value of C
        memo, inner = catalan._sub_value, catalan._inner_sum
        caches = [v for v in vars(catalan).values() if hasattr(v, "cache_info") and v.__module__ == catalan.__name__]
        assert sorted(caches, key=id) == sorted([memo, inner], key=id)
        assert all(cache.cache_info().maxsize is not None for cache in caches)
        memo.cache_clear()
        keys = set()

        def recorded(m, n):
            keys.add((m, n))
            return memo(m, n)

        monkeypatch.setattr(catalan, "_sub_value", recorded)
        argv = ["scan", "C", "--max-sum", "16", "--checks", "oracle-equivalence", "--out", str(tmp_path / "c.jsonl")]
        assert main(argv) == 0
        # the recurrence for C(m, n) revisits C(x, y) only when 2(x+y)+1 <= m+n
        assert keys and all(2 * (m + n) + 1 <= 16 for m, n in keys)
        assert memo.cache_info().currsize == len(keys)


class TestInnerSum:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 15), st.integers(1, 15))
    def test_is_the_literal_sum(self, N, h):
        for k in range((h - 1) // 2 + 1):
            assert catalan._inner_sum(h - 2 * k - 1, N + 2 * k + 1).shift(2 * k * (N + k + 1)) == inner_sum(N, h, k)


class TestDoubleExpansion:
    def test_single_term_case(self):
        result = double_expansion_check(0, 1)
        assert result.passed
        assert gauss_binom(2, 0) == ONE

    @pytest.mark.parametrize("N,h", [(1, 2), (3, 4), (0, 5), (5, 1), (2, 7)])
    def test_examples(self, N, h):
        result = double_expansion_check(N, h)
        assert result.passed
        assert result.difference.is_zero()

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            double_expansion_check(3, 0)
        with pytest.raises(InvalidRange):
            double_expansion_check(-1, 2)
