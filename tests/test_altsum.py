import hashlib
import json
import pickle
import random
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpositivity import altsum, catalan, cli, qcombinat, qpoly
from qpositivity.altsum import (
    CyclicParams,
    F,
    cyclic_product,
    deletion_check,
    deletion_kernel_check,
    delta,
    product_identity_check,
    recombine_check,
    reciprocity_check,
    value_at_one_reference,
)
from qpositivity.cli import main
from qpositivity.qcombinat import Division, InvalidRange, choose2, gauss_binom, q_factorial
from qpositivity.qpoly import IntPoly, NotDivisible, ZERO

from oracles import (
    deletion_difference,
    exponents_nonnegative,
    f_k_sum,
    gauss_binom_pascal,
    sym_alternating_sum,
    sym_coeffs,
)


def P(*coeffs):
    return IntPoly(coeffs)


class TestCyclicParams:
    def test_valid(self):
        p = CyclicParams((1, 2), (1, 1, 1), 3, 2)
        assert p.r == 2 and p.s == 3

    def test_immutable_and_compared_by_value(self):
        p = CyclicParams([1, 2], (1, 1), 1, 2)
        same = CyclicParams((1, 2), [1, 1], 1, 2)
        assert p.m == (1, 2) and p == same and hash(p) == hash(same)
        assert p != CyclicParams((1, 2), (1, 1), 1, 2, unsafe=True)
        assert p != CyclicParams((1, 2), (1, 1), 2, 2)
        for name in ("m", "n", "a", "b", "unsafe", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, 0)
        with pytest.raises(AttributeError):
            del p.a
        assert (p.m, p.n, p.a, p.b, p.unsafe) == ((1, 2), (1, 1), 1, 2, False)
        assert pickle.loads(pickle.dumps(p)) == p

    def test_vectors_too_short(self):
        with pytest.raises(InvalidRange):
            CyclicParams((1,), (1, 1), 0, 1)
        with pytest.raises(InvalidRange):
            CyclicParams((1, 1), (1,), 0, 1)

    def test_n_must_be_positive(self):
        with pytest.raises(InvalidRange):
            CyclicParams((1, 1), (0, 1), 0, 1)

    def test_m_may_be_zero_but_not_negative(self):
        CyclicParams((0, 0), (1, 1), 0, 1)
        with pytest.raises(InvalidRange):
            CyclicParams((-1, 1), (1, 1), 0, 1)

    def test_a_b_windows(self):
        with pytest.raises(InvalidRange):
            CyclicParams((1, 1), (1, 1), 3, 1)
        with pytest.raises(InvalidRange):
            CyclicParams((1, 1), (1, 1), 0, 0)
        with pytest.raises(InvalidRange):
            CyclicParams((1, 1), (1, 1), 0, 3)

    def test_unsafe_waives_window_only(self):
        p = CyclicParams((1, 1), (1, 1), 5, 1, unsafe=True)
        assert (p.a, p.b) == (5, 1)
        with pytest.raises(InvalidRange):
            CyclicParams((1, 1), (0, 1), 5, 1, unsafe=True)

    def test_exponent_check_matches_per_k_scan(self):
        # the closed form a >= 0, a + 2b >= 1 against every k with |k| <= n_1
        rejected = 0
        for n1, a, b in product(range(1, 9), range(-8, 9), range(-8, 9)):
            try:
                CyclicParams((0, 0), (n1, 1), a, b, unsafe=True)
            except InvalidRange as exc:
                assert "negative q-exponent" in str(exc)
                rejected += 1
                assert not exponents_nonnegative(a, b, n1), (a, b, n1)
            else:
                assert exponents_nonnegative(a, b, n1), (a, b, n1)
        assert 0 < rejected < 8 * 17 * 17

    def test_unsafe_keeps_exponents_nonnegative(self):
        # a k^2 + (2b - 1) k(k - 1)/2 is -1 at k = -1 for (a, b) = (0, 0),
        # and at k = 1 for a = -1.
        with pytest.raises(InvalidRange):
            CyclicParams((1, 1), (1, 1), 0, 0, unsafe=True)
        with pytest.raises(InvalidRange):
            CyclicParams((1, 1), (1, 1), -1, 1, unsafe=True)
        CyclicParams((1, 1), (1, 1), 1, 0, unsafe=True)

    def test_derived_instances_equal_validated_ones(self):
        for key in [((1, 0, 2), (1, 2), 1, 2, False), ((2, 1), (3, 1), 4, 3, True), ((0, 3), (2, 2), 0, 1, False)]:
            derived, validated = CyclicParams._make(key), CyclicParams(*key)
            assert derived == validated and hash(derived) == hash(validated)
            assert (derived.m, derived.n, derived.a, derived.b, derived.unsafe) == key
            assert repr(derived) == repr(validated)
            assert pickle.loads(pickle.dumps(derived)) == validated
            for name in ("m", "a", "other"):
                with pytest.raises(AttributeError):
                    setattr(derived, name, 0)
            with pytest.raises(AttributeError):
                del derived.b

    def test_checks_do_not_validate_derived_instances(self, monkeypatch):
        # in-window duals and deletion sub-instances are valid by construction
        for cache in _altsum_caches():
            cache.cache_clear()
        params = [CyclicParams(m, n, a, b) for m, n, a, b in [
            ((1, 2, 1), (1, 2), 1, 2), ((2, 0, 1, 3), (2, 1, 1), 3, 4), ((3, 1, 2), (1, 3), 0, 3),
        ]]
        validated = []
        new = CyclicParams.__new__

        def counted(cls, *args, **kwargs):
            validated.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(CyclicParams, "__new__", counted)
        for p in params:
            assert reciprocity_check(p).is_zero() and deletion_check(p).is_zero()
        assert validated == []

    def test_unsafe_dual_is_validated(self):
        # a = 3 > s = 2: the dual's a is s - a = -1
        with pytest.raises(InvalidRange):
            reciprocity_check(CyclicParams((1, 1), (1, 1), 3, 1, unsafe=True))


class TestCyclicProduct:
    def test_out_of_range_k_vanishes(self):
        assert cyclic_product((1, 1), (1, 1), 3) == ZERO
        assert cyclic_product((1, 1), (1, 1), -4) == ZERO

    def test_direct_products(self):
        assert cyclic_product((0, 0), (1, 1), 0) == P(1, 2, 1)
        expected = gauss_binom(3, 2) * gauss_binom(3, 2) * gauss_binom(2, 2) * gauss_binom(2, 2)
        assert cyclic_product((1, 1), (1, 1), 1) == expected


class TestDelta:
    def test_examples(self):
        assert delta((0, 0), (1, 1)) == 2
        assert delta((1, 1), (1, 1)) == 5

    def test_longer_vectors(self):
        m, n = (2, 1, 1), (1, 1)
        expected = (
            choose2(2)
            + choose2(1)
            + choose2(3)
            - choose2(4)
            - choose2(2)
            + (2 * 2 + 1 * 2 + 1 * 3)
            + (1 + 1)
        )
        assert delta(m, n) == expected


class TestF:
    def test_frozen_small_instance(self):
        # frozen from the sympy brute-force oracle
        assert F(CyclicParams((1, 1), (1, 1), 1, 2)) == P(1, 2, 4, 3, 2, 1)
        assert F(CyclicParams((1, 1), (1, 1), 1, 1)) == P(1, 2, 3, 4, 2, 1)
        assert F(CyclicParams((1, 2), (2, 1), 0, 1)) == P(0, 0, 2, 5, 8, 10, 9, 6, 3, 1)

    def test_reciprocal_pair_is_reversal(self):
        bound = delta((1, 1), (1, 1))
        p = F(CyclicParams((1, 1), (1, 1), 1, 2))
        q = F(CyclicParams((1, 1), (1, 1), 1, 1))
        assert q.reverse_to_degree(bound) == p

    @pytest.mark.parametrize(
        "m,n,a,b",
        [((1, 1), (1, 1), 0, 1), ((2, 1), (1, 2), 2, 2), ((1, 1, 1), (1, 1), 1, 3)],
    )
    def test_against_sympy_oracle(self, m, n, a, b):
        expected = sym_coeffs(sym_alternating_sum(m, n, a, b))
        assert list(F(CyclicParams(m, n, a, b)).coeffs) == expected

    def test_sign_uses_parity_of_signed_k(self):
        # Reference evaluation iterating k from -n1 upward with an explicit
        # (-1)**k factor, independent of the parity branch inside F.
        for params in [
            CyclicParams((1, 2), (2, 1), 1, 2),
            CyclicParams((2, 2), (2, 2), 2, 1),
        ]:
            m, n, a, b = params.m, params.n, params.a, params.b
            n1 = n[0]
            total = ZERO
            for k in range(-n1, n1 + 1):
                sign = IntPoly([-1 if k % 2 else 1])
                e = a * k * k + (2 * b - 1) * choose2(k)
                total = total + sign * cyclic_product(m, n, k).shift(e)
            num = (
                q_factorial(m[0])
                * q_factorial(n1)
                * q_factorial(m[-1] + n[-1] + 1)
                * total
            )
            den = q_factorial(m[0] + m[-1] + 1) * q_factorial(n1 + n[-1])
            assert F(params) == num.exact_div(den)

    def test_equals_k_sum_oracle(self):
        # every instance with r, s in {2, 3}, m entries 0..2, n entries 1..2
        # and (a, b) in the window, against the k-sum then factorial division
        count = 0
        for r, s in product((2, 3), repeat=2):
            for m, n in product(product(range(3), repeat=r), product(range(1, 3), repeat=s)):
                for a, b in product(range(s + 1), range(1, r + 1)):
                    assert F(CyclicParams(m, n, a, b)) == f_k_sum(m, n, a, b), (m, n, a, b)
                    count += 1
        assert count == 4356

    @pytest.mark.parametrize(
        "m,n,a,b",
        [((1, 1), (1, 1), 3, 1), ((2, 0, 1), (2, 1), 1, 4), ((0, 2), (1, 2, 1), 4, 3), ((1, 2), (2, 2), 1, 0)],
    )
    def test_unsafe_equals_k_sum_oracle(self, m, n, a, b):
        # outside the window (a = s + 1, b = r + 1, b = 0) yet past the exponent check
        params = CyclicParams(m, n, a, b, unsafe=True)
        assert not (0 <= a <= len(n) and 1 <= b <= len(m))
        assert F(params) == f_k_sum(m, n, a, b)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_hypothesis_equals_k_sum_oracle(self, data):
        # r in 2..4, s in 2..3, m entries 0..3, n entries 1..3, and (a, b)
        # in the window or anywhere past the exponent check
        r, s = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 3))
        m = tuple(data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))
        n = tuple(data.draw(st.lists(st.integers(1, 3), min_size=s, max_size=s)))
        unsafe = data.draw(st.booleans())
        if unsafe:
            a, b = data.draw(st.integers(0, s + 3)), data.draw(st.integers(0, r + 3))
            if a + 2 * b < 1:
                b = 1
        else:
            a, b = data.draw(st.integers(0, s)), data.draw(st.integers(1, r))
        try:
            expected = f_k_sum(m, n, a, b)
        except NotDivisible:
            with pytest.raises(NotDivisible):
                F(CyclicParams(m, n, a, b, unsafe))
        else:
            assert F(CyclicParams(m, n, a, b, unsafe)) == expected

    def test_value_at_one_reference_agrees(self):
        for params in [
            CyclicParams((1, 1), (1, 1), 1, 2),
            CyclicParams((2, 1, 2), (1, 2), 0, 3),
        ]:
            ref = value_at_one_reference(params)
            assert ref.denominator == 1
            assert F(params).eval_at_one() == int(ref)


class TestExponents:
    def test_exponent_always_nonneg(self):
        for a in range(4):
            for b in range(1, 4):
                for k in range(-8, 9):
                    assert a * k * k + (2 * b - 1) * choose2(k) >= 0

    def test_exponent_separation(self):
        # t^2 + 2kt - t + a k^2 + (2b-1) k(k-1)/2
        #   == l^2 + l + a k^2 + (2b-3) k(k-1)/2   with l = t + k - 1.
        for k in range(-6, 7):
            for t in range(7):
                for a in range(4):
                    for b in range(1, 4):
                        ell = t + k - 1
                        lhs = t * t + 2 * k * t - t + a * k * k + (2 * b - 1) * choose2(k)
                        rhs = ell * ell + ell + a * k * k + (2 * b - 3) * choose2(k)
                        assert lhs == rhs


class TestReciprocity:
    @pytest.mark.parametrize(
        "m,n,a,b",
        [((1, 1), (1, 1), 1, 2), ((2, 1, 1), (1, 1), 0, 3), ((1, 2), (2, 2), 2, 1)],
    )
    def test_examples(self, m, n, a, b):
        assert reciprocity_check(CyclicParams(m, n, a, b)).is_zero()

    def test_self_dual_point_is_palindromic(self):
        # r = 3, b = 2 and s = 2, a = 1 are their own duals, forcing a
        # palindrome up to degree delta.
        params = CyclicParams((1, 1, 1), (1, 1), 1, 2)
        poly = F(params)
        bound = delta(params.m, params.n)
        assert poly.reverse_to_degree(bound) == poly
        assert reciprocity_check(params).is_zero()

    def test_failure_carries_the_exact_difference(self, monkeypatch, tmp_path):
        # F perturbed at the duals only, through the term-table evaluation:
        # the difference is the reversed dual minus F, as a polynomial; F's
        # zero constant terms at a = 0 pass
        grid = [CyclicParams(m, n, a, b) for m, n, a, b in [
            ((1, 2), (2, 1), 0, 1), ((1, 1), (1, 1), 1, 2), ((2, 1, 1), (1, 1), 0, 3), ((1, 2), (2, 2), 2, 1),
        ]]
        assert F(grid[0]).coeffs[:2] == (0, 0)
        for params in grid:
            assert reciprocity_check(params) == ZERO
        for extra in (IntPoly([1]), IntPoly([0, -(2**70)]), IntPoly([0] * 5 + [3])):
            for params in [CyclicParams(m, n, a, 1) for m, n, a in [((1, 2, 1), (2, 1), 0), ((1, 1, 2), (1, 1), 2)]]:
                dual = CyclicParams(params.m, params.n, params.s - params.a, params.r)

                def perturbed(evaluate, m, n, a, b, extra=extra, dual=dual):
                    return evaluate() + extra if (m, n, a, b) == dual[:4] else evaluate()

                with pytest.MonkeyPatch.context() as patch:
                    _around_each_evaluation(patch, perturbed)
                    result = reciprocity_check(params)
                bound = delta(params.m, params.n)
                expected = (F(dual) + extra).reverse_to_degree(bound) - F(params)
                assert not result.is_zero()
                assert result == expected != ZERO
        # in a scan of --a 0 --b 1 the dual (2, 3) is not among the block's
        # points, so it is evaluated through F, and only its instance fails
        dual = ((1, 2, 1), (2, 1), 2, 3)
        _around_each_evaluation(monkeypatch,
                                lambda evaluate, *key: evaluate() + IntPoly([1]) if key == dual else evaluate())
        out = tmp_path / "report.jsonl"
        argv = ["scan", "F", "--r", "3", "--s", "2", "--param-max", "2", "--a", "0", "--b", "1",
                "--checks", "reciprocity", "--out", str(out)]
        assert main(argv) == 1
        failed = [row["params"] for row in map(json.loads, out.read_text().splitlines()) if row["checks_failed"]]
        assert failed == [{"m": [1, 2, 1], "n": [2, 1], "a": 0, "b": 1}]

    def test_degree_past_the_bound_fails(self, monkeypatch, tmp_path):
        # F at (1, 2) is F at its dual (1, 1) reversed at delta = 5, with both
        # of degree 5; at a bound one lower the reversal would lose q^5, so
        # the check fails with the dual's value as the difference, in verify
        # and in a scan
        params = CyclicParams((1, 1), (1, 1), 1, 2)
        dual = F(CyclicParams((1, 1), (1, 1), 1, 1))
        assert F(params).degree == dual.degree == delta(params.m, params.n) == 5
        assert reciprocity_check(params).is_zero()
        monkeypatch.setattr(altsum, "delta", lambda m, n: 4)
        assert reciprocity_check(params) == dual
        out = tmp_path / "report.jsonl"
        argv = ["scan", "F", "--r", "2", "--s", "2", "--param-max", "1", "--a", "1", "--b", "1,2",
                "--checks", "reciprocity", "--out", str(out)]
        assert main(argv) == 1
        assert [row["checks_failed"] for row in map(json.loads, out.read_text().splitlines())] == [["reciprocity"]] * 2


class TestProductIdentity:
    def test_both_sides_vanish_for_large_k(self):
        result = product_identity_check(1, 1, 4)
        assert result.is_zero()
        assert gauss_binom(3, 5) == ZERO

    @pytest.mark.parametrize("m1,m2,k", [(1, 1, 0), (2, 1, -1), (3, 2, 2), (0, 4, -2)])
    def test_examples(self, m1, m2, k):
        assert product_identity_check(m1, m2, k).is_zero()

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            product_identity_check(-1, 0, 0)

    def test_sums_only_the_nonzero_terms(self, monkeypatch):
        calls = []
        ratio = altsum.q_ratio

        def counted(num, den):
            calls.append(den)
            return ratio(num, den)

        monkeypatch.setattr(altsum, "q_ratio", counted)
        for m1, m2, k in product(range(4), range(4), range(-6, 7)):
            calls.clear()
            assert product_identity_check(m1, m2, k).is_zero()
            # one q-multinomial for each t whose denominator indices are all >= 0
            dens = [(t, t + 2 * k - 1, m1 - k - t + 1, m2 - k - t + 1) for t in range(m1 + abs(k) + 2)]
            assert calls == [den for den in dens if min(den) >= 0]
        calls.clear()
        assert product_identity_check(1, 1, -100_000_000).is_zero()
        assert calls == []


class TestDeletion:
    def test_m1_zero_single_term(self):
        params = CyclicParams((0, 2, 1), (1, 1), 1, 2)
        result = deletion_check(params)
        assert result.is_zero()
        expected = gauss_binom(2 + 1 + 1, 2) * F(CyclicParams((0, 1), (1, 1), 1, 1))
        assert F(params) == expected

    @pytest.mark.parametrize(
        "m,n,a,b",
        [((1, 1, 1), (1, 1), 1, 2), ((1, 2, 1), (1, 1), 0, 3), ((2, 1, 1, 2), (2, 1), 2, 4)],
    )
    def test_examples(self, m, n, a, b):
        assert deletion_check(CyclicParams(m, n, a, b)).is_zero()

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            deletion_check(CyclicParams((1, 1), (1, 1), 0, 2))
        with pytest.raises(InvalidRange):
            deletion_check(CyclicParams((1, 1, 1), (1, 1), 0, 1))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=4, max_size=4), st.integers(-10, 10))
    def test_kernel_against_pascal_oracle(self, ms, k):
        m1, m2, m3, mr = ms
        result = deletion_kernel_check(m1, m2, m3, mr, k)
        assert result == _kernel_difference(m1, m2, m3, mr, k, gauss_binom_pascal) == ZERO
        assert result.is_zero()

    def test_kernel_failure_carries_the_difference(self, monkeypatch):
        # [4, 1] or [5, 2] times q breaks the identity wherever it is a
        # factor; its L1 norm, and so product_sum's slot width, is unchanged
        for target, failures in [((4, 1), 67), ((5, 2), 32)]:
            def g(N, K, body, target=target):
                return body(N, K).shift(1) if (N, K) == target else body(N, K)

            monkeypatch.setattr(altsum, "gauss_binom", lambda N, K: g(N, K, gauss_binom))
            failed = 0
            for key in product(range(3), range(3), range(3), range(3), range(-2, 4)):
                result = deletion_kernel_check(*key)
                expected = _kernel_difference(*key, lambda N, K: g(N, K, gauss_binom_pascal))
                assert result == expected
                assert result.is_zero() == expected.is_zero()
                failed += not result.is_zero()
            assert failed == failures

    def test_kernel_edges(self):
        with pytest.raises(InvalidRange):
            deletion_kernel_check(1, 1, -1, 1, 0)
        # both sides vanish far from the window, whatever k(k - 1) is
        assert deletion_kernel_check(1, 2, 1, 2, -100_000_000).is_zero()
        assert deletion_kernel_check(1, 2, 1, 2, 100_000_000).is_zero()
        # both sides vanish at k = 2 through [1, 2], although [21, 12] has
        # coefficients far above one byte: a term with a zero factor is skipped
        assert deletion_kernel_check(10, 10, 0, 0, 2).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_verdict_against_summed_oracle(self, data):
        r, s = data.draw(st.integers(3, 5)), data.draw(st.integers(2, 3))
        m = tuple(data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))
        n = tuple(data.draw(st.lists(st.integers(1, 3), min_size=s, max_size=s)))
        unsafe = data.draw(st.booleans())
        # unsafe draws reach past the window: a > s and b > r
        a = data.draw(st.integers(0, s + 2 if unsafe else s))
        b = data.draw(st.integers(2, r + 2 if unsafe else r))
        expected = deletion_difference(m, n, a, b)
        params = CyclicParams(m, n, a, b, unsafe)
        result = deletion_check(params)
        assert result == expected
        assert result.is_zero() == expected.is_zero()
        # a failed kernel verdict sends the same draw to the summed route
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(altsum, "_kernels_hold", lambda *key: False)
            summed = deletion_check(params)
        assert summed == expected
        assert summed.is_zero() == expected.is_zero()

    def test_every_k_is_decided(self, monkeypatch):
        # n1 = 3, but the kernel's left side vanishes for k < -1 and k > 2;
        # a kernel that fails at any k in [-n1, n1] sends the check to the
        # summed route
        params = CyclicParams((1, 1, 1), (3, 1), 1, 2)
        kernel, summed = altsum.deletion_kernel_check, altsum._deletion_check
        assert [k for k in range(-3, 4) if altsum.product([gauss_binom(3, 1 + k)] * 3)] == [-1, 0, 1, 2]
        monkeypatch.setattr(altsum, "_deletion_check", lambda p, lhs: ("summed", p, lhs))
        for bad in range(-3, 4):
            altsum._kernels_hold.cache_clear()
            monkeypatch.setattr(altsum, "deletion_kernel_check",
                                lambda *key, bad=bad: IntPoly([1]) if key[-1] == bad else kernel(*key))
            assert deletion_check(params) == ("summed", params, F(params))
        monkeypatch.setattr(altsum, "deletion_kernel_check", kernel)
        monkeypatch.setattr(altsum, "_deletion_check", summed)
        altsum._kernels_hold.cache_clear()
        assert deletion_check(params) == ZERO

    def test_summed_route_reuses_the_blocks_value(self, monkeypatch, capsys):
        # a failed kernel sends verify to the summed route, which takes F at
        # the instance from the block, so the instance is evaluated once
        evaluations = Counter()

        def counted(evaluate, *key):
            evaluations[key] += 1
            return evaluate()

        monkeypatch.setattr(altsum, "_kernels_hold", lambda *key: False)
        _around_each_evaluation(monkeypatch, counted)
        assert main(["verify", "deletion", "--m", "1,1,1", "--n", "3,1", "--a", "1", "--b", "2"]) == 0
        assert capsys.readouterr().out == 'PASS deletion {"a": 1, "b": 2, "m": [1, 1, 1], "n": [3, 1]}\n'
        assert evaluations[(1, 1, 1), (3, 1), 1, 2] == 1

    def test_overlapping_k_ranges_decide_each_kernel_once(self, monkeypatch, capsys):
        # n1 = 1, 3, 2, 3 ask for the kernels of (1, 2, 1, 2) at |k| <= n1;
        # their union, -3 <= k <= 3, is seven kernels, each decided once
        altsum._kernels_hold.cache_clear()
        kernel, decided = altsum.deletion_kernel_check, Counter()

        def counted(*key):
            decided[key] += 1
            return kernel(*key)

        monkeypatch.setattr(altsum, "deletion_kernel_check", counted)
        for n1 in (1, 3, 2, 3):
            assert main(["verify", "deletion", "--m", "1,2,1,2", "--n", f"{n1},1", "--a", "1", "--b", "2"]) == 0
        assert capsys.readouterr().out.count("PASS deletion") == 4
        assert decided == Counter({(1, 2, 1, 2, k): 1 for k in range(-3, 4)})

    def test_scan_never_takes_the_summed_route(self, monkeypatch, tmp_path):
        for cache in _altsum_caches():
            cache.cache_clear()

        def forbidden(params, lhs):
            raise AssertionError(f"the summed deletion route at {params}")

        monkeypatch.setattr(altsum, "_deletion_check", forbidden)
        # one worker: the caches read below are this process's, and a forked
        # worker would fill its own
        monkeypatch.setattr(cli, "_worker_count", lambda: 1)
        out = tmp_path / "report.jsonl"
        argv = ["scan", "F", "--r", "3", "--s", "2", "--param-max", "2",
                "--checks", "positivity,reciprocity,degree-bound,deletion,q1-specialization", "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9b615d3d4764fd0141b49a58cc509bf4b167b339a09c601d17836952820e7b2c"
        )
        # only verdicts are kept for the sub-instances, never their values:
        # one set of (a, b - 1) per ((ell, m3), n) with ell <= 2, and one
        # kernel verdict per (m1, m2, m3, k) with |k| <= n1 <= 2
        assert altsum._polynomial_points.cache_info().currsize == 3 * 2 * 2**2
        assert altsum._polynomial_points((0, 2), (2, 1)) == {(a, b) for a in range(3) for b in (1, 2)}
        assert altsum._kernels_hold.cache_info().currsize == 2**3 * 5


class TestRecombine:
    def test_both_sides_vanish(self):
        # k beyond every vector entry kills all Gaussian factors.
        result = recombine_check((1, 1, 1), (1, 1), 1, 9)
        assert result.is_zero()

    @pytest.mark.parametrize(
        "m,n,ell,k",
        [((1, 1, 1), (1, 1), 1, 0), ((2, 1, 1), (1, 1), 0, 1), ((1, 2, 2, 1), (1, 2), 2, -1)],
    )
    def test_examples(self, m, n, ell, k):
        assert recombine_check(m, n, ell, k).is_zero()

    def test_randomized_instances(self):
        rng = random.Random(1729)
        for _ in range(60):
            r = rng.randint(3, 4)
            m = tuple(rng.randint(1, 3) for _ in range(r))
            n = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
            ell = rng.randint(0, 3)
            k = rng.randint(-ell, ell + 1)
            assert recombine_check(m, n, ell, k).is_zero()

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            recombine_check((1, 1), (1, 1), 0, 0)
        with pytest.raises(InvalidRange):
            recombine_check((1, 1, 1), (1, 1), -1, 0)
        # outside F's domain, where both sides can vanish and pass
        for m, n in (((1, 1, -1), (1, 1)), ((-1, 1, 1), (1, 1)), ((1, 1, 1), (0, 1)), ((1, 1, 1), (1,))):
            with pytest.raises(InvalidRange):
                recombine_check(m, n, 1, 0)


class TestPositivityGridSample:
    def test_small_grid(self):
        # Full grids run in the acceptance suite.
        for a in range(3):
            for b in range(1, 3):
                for m1 in range(3):
                    params = CyclicParams((m1, 1), (1, 2), a, b)
                    poly = F(params)
                    assert poly.is_nonneg()
                    assert poly.degree is None or poly.degree <= delta(params.m, params.n)


class TestTermTable:
    def test_scan_builds_each_table_once(self, monkeypatch, tmp_path):
        # one table per distinct (m, n), whatever (a, b), holding a term for
        # each k with -n_1 <= k <= n_1 whose cyclic product is not zero
        pairs = list(product(product((1, 2), repeat=2), repeat=2))
        builds = Counter()

        class Counted(altsum._TermTable):
            def __init__(self, terms, divide):
                super().__init__(terms, divide)
                builds[tuple(self.ks), tuple(tuple(f.coeffs for f in factors) for _, factors in terms)] += 1

        # the cached _term_table looks _TermTable up at each build
        monkeypatch.setattr(altsum, "_TermTable", Counted)
        for m, n in pairs:
            altsum._term_table.__wrapped__(m, n)
        expected = list(builds.elements())
        builds.clear()
        for cache in _altsum_caches():
            cache.cache_clear()
        # one worker: a forked worker would count its builds in its own copy
        # of builds
        monkeypatch.setattr(cli, "_worker_count", lambda: 1)
        argv = ["scan", "F", "--r", "2", "--s", "2", "--param-max", "2",
                "--checks", "positivity,reciprocity,degree-bound", "--out", str(tmp_path / "report.jsonl")]
        assert main(argv) == 0
        assert sum(builds.values()) == len(pairs) == len(set(expected)) == 16
        assert builds == Counter(expected)
        nonzero = [(m, n, k) for m, n in pairs for k in range(-n[0], n[0] + 1) if cyclic_product(m, n, k)]
        assert sum(len(ks) for ks, _ in builds) == len(nonzero) == 53

    def test_table_build_makes_no_polynomial_product(self, monkeypatch):
        # the Gaussian coefficients, Phi_d and prefactor splits come from
        # their caches; a table multiplies packed integers only.  The pairs
        # have no Phi_d over their prefactor, one, and two with a divisor.
        pairs = [((2, 3, 1), (2, 1, 3)), ((0, 2, 1), (1, 3, 2)), ((0, 1, 2), (1, 2)), ((3, 0, 2, 1), (2, 2))]
        ab = [(a, b) for a in range(3) for b in range(1, 3)]
        expected = {(m, n, a, b): f_k_sum(m, n, a, b) for m, n in pairs for a, b in ab}
        for m, n in pairs:
            altsum._term_table(m, n)
        assert [len(qcombinat.cyclotomic_split(*_prefactor(m, n))[0]) for m, n in pairs] == [0, 1, 2, 0]

        def forbidden(*args):
            raise AssertionError("a polynomial product in a table build")

        for module, name in [(altsum, "cyclic_product"), (altsum, "product"), (qcombinat, "product"),
                             (qpoly, "product"), (qpoly, "product_sum")]:
            monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(IntPoly, "__mul__", forbidden)
        altsum._term_table.cache_clear()
        for (m, n, a, b), value in expected.items():
            assert altsum._term_table(m, n).evaluate(a, b) == value
        monkeypatch.undo()
        altsum._term_table.cache_clear()

    def test_caches_are_bounded(self):
        for module in (qcombinat, catalan, altsum, cli):
            caches = _caches(module)
            assert caches
            assert all(cache.cache_info().maxsize is not None for cache in caches)
        for module in (qpoly, qcombinat, catalan, altsum):
            tables = [
                name
                for name, value in vars(module).items()
                if isinstance(value, (dict, list)) and not name.startswith("__")
            ]
            assert not tables

    def test_scan_evaluates_each_instance_once(self, monkeypatch, tmp_path):
        # every reciprocity dual is an instance too, and then, with --a 1
        # --b 2,3, every dual (2, 2) or (2, 1) lies outside the points
        for s, a_values, b_values, counts in [(2, range(3), range(1, 4), (288, 0, 144)),
                                              (3, (1,), (2, 3), (128, 128, 96))]:
            for cache in _altsum_caches():
                cache.cache_clear()
            calls = Counter()

            def counted(m, n, a, b):
                calls[m, n, a, b] += 1

            _before_each_evaluation(monkeypatch, counted)
            # one worker: a forked worker would count its calls in its own
            # copy of calls; the pin is set again after each undo
            monkeypatch.setattr(cli, "_worker_count", lambda: 1)
            argv = ["scan", "F", "--r", "3", "--s", str(s), "--param-max", "2",
                    "--a", ",".join(map(str, a_values)), "--b", ",".join(map(str, b_values)),
                    "--checks", "deletion,reciprocity", "--out", str(tmp_path / "report.jsonl")]
            assert main(argv) == 0
            monkeypatch.undo()
            # the instances, their reciprocity duals, and the deletion
            # sub-instances ((ell, m3), n, a, b - 1) with ell <= min(m1, m2)
            grid = list(product(product((1, 2), repeat=3), product((1, 2), repeat=s), a_values, b_values))
            duals = {(m, n, s - a, 3 - b + 1) for m, n, a, b in grid}
            subs = {((ell, m[2]), n, a, b - 1) for m, n, a, b in grid if b >= 2 for ell in range(min(m[:2]) + 1)}
            assert set(calls) == set(grid) | duals | subs
            assert (len(grid), len(duals - set(grid)), len(subs)) == counts
            assert set(calls.values()) == {1}

    def test_deletion_agrees_with_f_called_directly(self):
        grid = [CyclicParams(m, n, a, b) for m, n in product(product((1, 2), repeat=3), product((1, 2), repeat=2))
                for a in range(3) for b in (2, 3)]
        unsafe = [CyclicParams(m, n, a, b, unsafe=True) for m, n, a, b in [
            ((1, 2, 1), (1, 2), 3, 2),
            ((2, 1, 1), (1, 1), 0, 4),
            ((0, 1, 2), (2, 1), 1, 3),
            ((2, 2, 0, 1), (1, 2), 4, 2),
        ]]
        for params in grid + unsafe:
            m = params.m
            rhs = ZERO
            for ell in range(m[0] + 1):
                coef = gauss_binom(m[0], ell) * gauss_binom(m[1] + m[2] + 1, m[1] - ell)
                if not coef.is_zero():
                    sub = F(CyclicParams((ell,) + m[2:], params.n, params.a, params.b - 1, params.unsafe))
                    rhs = rhs + (coef * sub).shift(ell * ell + ell)
            result = deletion_check(params)
            assert F(params) - result == rhs
            assert result.is_zero() == (F(params) == rhs)

    def test_packed_difference_is_the_polynomial_difference(self, monkeypatch):
        # sub-instance values that break the recurrence: shifted, signed and
        # past a machine word, zero, negated, and changed only at ell = 0;
        # a failed kernel verdict sends the check to the summed route
        monkeypatch.setattr(altsum, "_kernels_hold", lambda *key: False)
        perturbations = [
            lambda sub, ell: sub + IntPoly([0] * ell + [1]),
            lambda sub, ell: sub - IntPoly([3, -(2**70), 5]),
            lambda sub, ell: ZERO,
            lambda sub, ell: -sub,
            lambda sub, ell: sub if ell else sub + IntPoly([255] * 40 + [-(2**63)]),
        ]
        grid = [CyclicParams(m, n, a, b) for m, n, a, b in [
            ((1, 2, 1), (1, 2), 1, 2),
            ((2, 2, 1), (2, 1), 0, 3),
            ((3, 2, 2), (2, 3, 1), 2, 2),
        ]] + [CyclicParams((0, 1, 2), (2, 1), 1, 3, unsafe=True)]
        for perturb in perturbations:
            def perturbed(evaluate, m, n, a, b, perturb=perturb):
                # the instances have r = 3 and their sub-instances r = 2
                return perturb(evaluate(), m[0]) if len(m) == 2 else evaluate()

            with pytest.MonkeyPatch.context() as patch:
                _around_each_evaluation(patch, perturbed)
                for params in grid:
                    m = params.m
                    rhs = ZERO
                    for ell in range(m[0] + 1):
                        coef = gauss_binom(m[0], ell) * gauss_binom(m[1] + m[2] + 1, m[1] - ell)
                        if not coef.is_zero():
                            sub = altsum._term_table((ell,) + m[2:], params.n).evaluate(params.a, params.b - 1)
                            rhs = rhs + (coef * sub).shift(ell * ell + ell)
                    result = deletion_check(params)
                    assert result == F(params) - rhs
                    assert result.is_zero() == (F(params) == rhs)
        assert all(deletion_check(params).is_zero() for params in grid)

    def test_sub_instance_failure_is_not_cached(self, monkeypatch):
        # on the summed route, which a failed kernel verdict forces
        monkeypatch.setattr(altsum, "_kernels_hold", lambda *key: False)
        assert _failures_in_three_checks(monkeypatch, 2) == [((0, 1), (1, 1), 1, 1)] * 3

    @pytest.mark.parametrize("length,failure", [(2, ((0, 1), (1, 1), 1, 1)), (3, ((1, 1, 1), (1, 1), 1, 2))])
    def test_verdicts_keep_no_failure(self, length, failure, monkeypatch):
        # a sub-instance or the instance itself is not a polynomial
        assert _failures_in_three_checks(monkeypatch, length) == [failure] * 3

    def test_table_width_holds_the_sum_of_the_terms(self):
        # at a = 0, b = 1 the k = 0 and k = 1 terms both have shift 0, and
        # their sum 200 + 2q needs a second byte that neither term needs
        # (the k = 1 factor is negated, so its term is 100 + q too)
        table = altsum._TermTable(((0, (P(100, 1),)), (1, (P(-100, -1),))), Division())
        assert table.width == 2
        assert table.evaluate(0, 1) == P(200, 2)

    def test_table_width_holds_the_products_of_the_factors(self):
        # (1 + q)^10 reaches 252, which no factor nor a one-byte slot holds;
        # packed at one byte, the sum would unpack to other coefficients
        table = altsum._TermTable(((0, (P(1, 1),) * 10),), Division())
        assert table.width == 2
        assert table.evaluate(0, 1) == IntPoly(comb(10, i) for i in range(11))

    def test_table_divides_a_wide_quotient_exactly(self):
        # one byte holds the dividend (1 - q^40)^2 and the divisor (1 - q)^2,
        # both of L1 norm 4, but the quotient's coefficients reach 40, and
        # 40 * 4 is not below half a byte, so the certificate fails and the
        # unpacked dividend is divided exactly; the table is left as built
        factor, divisor = IntPoly([1] + [0] * 39 + [-1]), P(1, -2, 1)
        quotient = IntPoly([1] * 40) * IntPoly([1] * 40)
        assert max(quotient.coeffs) == 40
        table = altsum._TermTable(((0, (factor, factor)),), Division(divisor, "Φ_1 exponent -2"))
        assert table.width == 1
        built = (table.width, table.terms, table.divisor)
        assert table.evaluate(0, 1) == quotient
        assert table.width == 1
        assert all(after is before for after, before in zip((table.width, table.terms, table.divisor), built))

    def test_table_failure_carries_the_remainder_and_the_exponent(self):
        # 1 + 2q + 3q at a = 1 is 1 + 5q = 5(1 + q) - 4 (the k = 1 factor
        # is -3, so its term is 3)
        divide = Division(P(1, 1), "Φ_2 exponent -1")
        table = altsum._TermTable(((0, (P(1, 2),)), (1, (P(-3),))), divide)
        with pytest.raises(NotDivisible, match="Φ_2 exponent -1") as exc:
            table.evaluate(1, 1)
        assert exc.value.remainder == P(-4)
        with pytest.raises(NotDivisible) as direct:
            P(1, 5).exact_div(P(1, 1))
        assert exc.value.remainder == direct.value.remainder

    def test_failure_names_the_first_negative_exponent(self):
        # the prefactor at m = n = (1, 1) has Phi_2 exponent -1; 1 is not a multiple of 1 + q
        divide = altsum._term_table((1, 1), (1, 1)).divide
        with pytest.raises(NotDivisible, match="Φ_2 exponent -1"):
            divide(IntPoly((1,)))


def _caches(module):
    return [value for value in vars(module).values()
            if hasattr(value, "cache_info") and value.__module__ == module.__name__]


def _altsum_caches():
    return _caches(altsum)


def _before_each_evaluation(monkeypatch, before):
    """Call before(m, n, a, b) ahead of every term-table evaluation, the one
    entry through which F and the deletion sub-instances are evaluated."""
    def around(evaluate, m, n, a, b):
        before(m, n, a, b)
        return evaluate()

    _around_each_evaluation(monkeypatch, around)


def _around_each_evaluation(monkeypatch, around):
    """Make every term-table evaluation at (m, n, a, b) return
    around(evaluate, m, n, a, b), where evaluate() returns its value."""
    owners = {}
    term_table, evaluate = altsum._term_table, altsum._TermTable.evaluate

    def located(m, n):
        table = term_table(m, n)
        owners[table] = (m, n)
        return table

    def observed(table, a, b):
        return around(lambda: evaluate(table, a, b), *owners[table], a, b)

    monkeypatch.setattr(altsum, "_term_table", located)
    monkeypatch.setattr(altsum._TermTable, "evaluate", observed)


def _kernel_difference(m1, m2, m3, mr, k, g):
    """The deletion kernel's lhs - rhs, with g(N, K) for each Gaussian
    coefficient [N, K] and a sum over every 0 <= ell <= m1."""
    lhs = (g(m1 + m2 + 1, m1 + k) * g(m2 + m3 + 1, m2 + k) * g(mr + m1 + 1, mr + k)).shift(k * (k - 1))
    rhs = ZERO
    for ell in range(m1 + 1):  # [m2+m3+1, m2-ell] vanishes for ell > m2
        term = g(m2 + m3 + 1, m2 - ell) * g(m1 + mr + 1, m1 - ell) * g(ell + m3 + 1, ell + k) * g(mr + ell + 1, mr + k)
        rhs = rhs + term.shift(ell * ell + ell)
    return lhs - rhs


def _failures_in_three_checks(monkeypatch, length):
    """Make every evaluation at an m-vector of this length raise NotDivisible,
    check that each of three deletion checks of ((1, 1, 1), (1, 1), 1, 2)
    raises it, and return the (m, n, a, b) of the failed evaluations."""
    for cache in _altsum_caches():
        cache.cache_clear()
    failures = []

    def failing(m, n, a, b):
        if len(m) == length:
            failures.append((m, n, a, b))
            raise NotDivisible(IntPoly((1,)))

    _before_each_evaluation(monkeypatch, failing)
    params = CyclicParams((1, 1, 1), (1, 1), 1, 2)
    for _ in range(3):
        with pytest.raises(NotDivisible):
            deletion_check(params)
    return failures


def _prefactor(m, n):
    return (m[0], n[0], m[-1] + n[-1] + 1), (m[0] + m[-1] + 1, n[0] + n[-1])
