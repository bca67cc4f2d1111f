"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact (integer polynomial equality); there are no
tolerances anywhere.
"""

import json
from itertools import product
from math import factorial

from qpositivity.altsum import (
    CyclicParams,
    F,
    deletion_check,
    delta,
    product_identity_check,
    reciprocity_check,
    value_at_one_reference,
)
from qpositivity.catalan import (
    double_expansion_check,
    odd_super_catalan_direct,
    odd_super_catalan_recursive,
)
from qpositivity.cli import main
from qpositivity.qcombinat import choose2
from qpositivity.qpoly import NotDivisible


def _verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _f_grid(m_values, r_values=(2, 3), s_values=(2, 3), n_values=(1, 2, 3)):
    for r in r_values:
        for s in s_values:
            for m in product(m_values, repeat=r):
                for n in product(n_values, repeat=s):
                    for a in range(s + 1):
                        for b in range(1, r + 1):
                            yield CyclicParams(m, n, a, b)


def test_criterion_1_odd_super_catalan_positivity():
    failures = [
        (m, n)
        for m in range(21)
        for n in range(21 - m)
        if not odd_super_catalan_direct(m, n).is_nonneg()
    ]
    _verdict("criterion-1 odd super Catalan positivity, m+n <= 20", not failures)


def test_criterion_2_recursive_equals_direct():
    failures = [
        (m, n)
        for m in range(17)
        for n in range(17 - m)
        if odd_super_catalan_recursive(m, n) != odd_super_catalan_direct(m, n)
    ]
    _verdict("criterion-2 recurrence path equals direct path, m+n <= 16", not failures)


def test_criterion_3_double_expansion():
    failures = [
        (N, h)
        for N in range(9)
        for h in range(1, 9)
        if not double_expansion_check(N, h).is_zero()
    ]
    _verdict("criterion-3 double-expansion identity, N <= 8, h <= 8", not failures)


def test_criterion_4_alternating_sum_positivity():
    failures = []
    for params in _f_grid((1, 2, 3)):
        try:
            if not F(params).is_nonneg():
                failures.append(params)
        except NotDivisible:
            failures.append(params)
    for params in _f_grid((0, 1, 2)):
        try:
            if not F(params).is_nonneg():
                failures.append(params)
        except NotDivisible:
            failures.append(params)
    _verdict(
        "criterion-4 alternating-sum positivity, r,s in {2,3}, entries <= 3, "
        "plus the m >= 0 relaxation",
        not failures,
    )


def test_criterion_5_degree_bound_and_reciprocity():
    failures = []
    for params in _f_grid((1, 2, 3)):
        poly = F(params)
        bound = delta(params.m, params.n)
        if poly.degree is not None and poly.degree > bound:
            failures.append(("degree", params))
        if not reciprocity_check(params).is_zero():
            failures.append(("reciprocity", params))
    _verdict("criterion-5 degree bound and reciprocity on the criterion-4 grid", not failures)


def test_criterion_6_product_identity():
    failures = [
        (m1, m2, k)
        for m1 in range(6)
        for m2 in range(6)
        for k in range(-3, 8)
        if not product_identity_check(m1, m2, k).is_zero()
    ]
    _verdict("criterion-6 product identity, m1,m2 <= 5, -3 <= k <= 7", not failures)


def test_criterion_7_deletion_recurrence():
    failures = []
    for r in (3, 4):
        for m in product((0, 1, 2), repeat=r):
            for n in product((1, 2), repeat=2):
                for a in range(3):
                    for b in range(2, r + 1):
                        params = CyclicParams(m, n, a, b)
                        if not deletion_check(params).is_zero():
                            failures.append(params)
    _verdict("criterion-7 deletion recurrence, r in {3,4}, s = 2", not failures)


def test_criterion_8_exponent_separation():
    failures = []
    for k in range(-6, 7):
        for t in range(7):
            for a in range(4):
                for b in range(1, 4):
                    ell = t + k - 1
                    lhs = t * t + 2 * k * t - t + a * k * k + (2 * b - 1) * choose2(k)
                    rhs = ell * ell + ell + a * k * k + (2 * b - 3) * choose2(k)
                    if lhs != rhs:
                        failures.append((k, t, a, b))
    _verdict("criterion-8 exponent-separation identity", not failures)


def test_criterion_9_q1_specialization():
    failures = []
    for m in range(16):
        for n in range(16 - m):
            expected = (
                factorial(2 * m + 1)
                * factorial(2 * n)
                // (factorial(m + n + 1) * factorial(m) * factorial(n))
            )
            if odd_super_catalan_direct(m, n).eval_at_one() != expected:
                failures.append(("C", m, n))
    for params in _f_grid((1, 2, 3)):
        ref = value_at_one_reference(params)
        if ref.denominator != 1 or F(params).eval_at_one() != int(ref):
            failures.append(("F", params))
    _verdict("criterion-9 q=1 specialization for C (m+n <= 15) and F (criterion-4 grid)", not failures)


def test_criterion_10_cli_contract(tmp_path):
    ok = True
    invocations = [
        ["scan", "C", "--max-sum", "10", "--checks", "positivity,oracle-equivalence"],
        ["scan", "F", "--r", "2", "--s", "2", "--param-max", "2",
         "--checks", "positivity,reciprocity,degree-bound"],
        ["scan", "A", "--max-sum", "0"],
    ]
    for idx, argv in enumerate(invocations):
        first = tmp_path / f"run{idx}a.jsonl"
        second = tmp_path / f"run{idx}b.jsonl"
        ok = ok and main(argv + ["--out", str(first)]) == 0
        ok = ok and main(argv + ["--out", str(second)]) == 0
        ok = ok and first.read_bytes() == second.read_bytes()
    rows = [json.loads(line) for line in (tmp_path / "run2a.jsonl").read_text().splitlines()]
    ok = ok and len(rows) == 1
    ok = ok and rows[0]["coeffs"] == ["1"] and rows[0]["nonneg"] is True
    _verdict("criterion-10 CLI exit codes and byte-identical reports", ok)
