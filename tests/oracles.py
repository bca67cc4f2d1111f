"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (schoolbook convolution, sympy exact
quotients, per-k scans) and shares no code with the package under test,
except factorial_division_ratio, which keeps the package's earlier route for
ratios of q-factorials on its IntPoly arithmetic, f_k_sum, the package's
earlier route for F on top of it, deletion_difference, the deletion
recurrence summed from f_k_sum, gauss_binom_pascal, the Gaussian
coefficient by the q-Pascal recurrence on IntPoly addition and shifts, and
inner_sum, the recursive C's inner sum as the recurrence states it, on top
of gauss_binom_pascal.
scan_report_json writes a jsonl or json scan report as the package once
did: a dict per row, through json.dumps.  f_scan_rows decides the rows of
an F scan one instance at a time, from F at each instance, its reciprocity
dual and its deletion sub-instances, with the identities written out here.
"""

from __future__ import annotations

import json
from functools import cache, lru_cache, partial, reduce
from itertools import product
from operator import mul

import sympy
from sympy import S, expand, exquo, prod, symbols

from qpositivity.altsum import CyclicParams, F, cyclic_product, delta, value_at_one_reference
from qpositivity.qcombinat import InvalidRange
from qpositivity.qpoly import IntPoly, NotDivisible, ONE, ZERO

q = symbols("q")


@cache
def _int_poly_factorial(n: int) -> IntPoly:
    return reduce(mul, (IntPoly((1,) * k) for k in range(1, n + 1)), IntPoly((1,)))


def factorial_division_ratio(num, den, *times) -> IntPoly:
    """prod [i]! over num times the polynomials in times, divided by prod [j]!
    over den: the whole products multiplied out, then one schoolbook
    exact_div (NotDivisible when it does not divide); zero when some j < 0."""
    if any(j < 0 for j in den):
        return IntPoly()
    top = reduce(mul, [*map(_int_poly_factorial, num), *times], IntPoly((1,)))
    return top.exact_div(reduce(mul, map(_int_poly_factorial, den), IntPoly((1,))))


def f_k_sum(m: tuple[int, ...], n: tuple[int, ...], a: int, b: int) -> IntPoly:
    """F(m; n; a, b) the long way: the signed, shifted cyclic_product of every
    k accumulated, then multiplied by the prefactor's numerator factorials
    and divided by its denominator ones in one schoolbook exact_div."""
    n1 = n[0]
    total = IntPoly()
    for k in range(-n1, n1 + 1):
        term = cyclic_product(m, n, k).shift(a * k * k + (2 * b - 1) * (k * (k - 1) // 2))
        total = total - term if k % 2 else total + term
    return factorial_division_ratio((m[0], n1, m[-1] + n[-1] + 1), (m[0] + m[-1] + 1, n1 + n[-1]), total)


def deletion_difference(m: tuple[int, ...], n: tuple[int, ...], a: int, b: int) -> IntPoly:
    """The deletion recurrence's lhs - rhs the long way: F at (m, n, a, b)
    minus the sum over 0 <= ell <= m_1 of q^{ell^2+ell} [m1, ell]
    [m2+m3+1, m2-ell] F at ((ell, m3, ..., m_r), n, a, b-1), every F by
    f_k_sum and every Gaussian coefficient by gauss_binom_pascal."""
    rhs = ZERO
    for ell in range(m[0] + 1):
        coef = gauss_binom_pascal(m[0], ell) * gauss_binom_pascal(m[1] + m[2] + 1, m[1] - ell)
        rhs = rhs + (coef * f_k_sum((ell,) + m[2:], n, a, b - 1)).shift(ell * ell + ell)
    return f_k_sum(m, n, a, b) - rhs


@lru_cache(maxsize=None)
def gauss_binom_pascal(N: int, K: int) -> IntPoly:
    """Second, independent route to the Gaussian coefficient via the
    q-Pascal recurrence; used to cross-check gauss_binom."""
    if K < 0 or N < 0 or K > N:
        return ZERO
    if K == 0 or K == N:
        return ONE
    return gauss_binom_pascal(N - 1, K - 1) + gauss_binom_pascal(N - 1, K).shift(K)


def inner_sum(N: int, h: int, k: int) -> IntPoly:
    """The oracle for the recursive C's k-th inner sum, term by term as the
    recurrence states it: the sum over k <= j < h - k of
    q^{k(N+k+1)+j(N+j+1)} [h-2k-1, j-k], every Gaussian coefficient by
    gauss_binom_pascal, added one shifted term at a time."""
    total = ZERO
    for j in range(k, h - k):
        total = total + gauss_binom_pascal(h - 2 * k - 1, j - k).shift(k * (N + k + 1) + j * (N + j + 1))
    return total


def exponents_nonnegative(a: int, b: int, n1: int) -> bool:
    """Whether every q-exponent a k^2 + (2b-1) k(k-1)/2 of F with |k| <= n1
    is >= 0, scanned k by k."""
    return all(a * k * k + (2 * b - 1) * (k * (k - 1) // 2) >= 0 for k in range(-n1, n1 + 1))


def naive_mul(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook convolution on raw coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def sym_qint(n: int):
    return sum(q**i for i in range(n))


def sym_qfact(n: int):
    return prod([sym_qint(i) for i in range(1, n + 1)], S.One)


def sym_coeffs(expr) -> list[int]:
    """Coefficients of a sympy polynomial in q, lowest degree first."""
    p = sympy.Poly(expand(expr), q)
    return [int(c) for c in reversed(p.all_coeffs())]


def sym_qbinom(N: int, K: int):
    if K < 0 or K > N or N < 0:
        return S.Zero
    return exquo(expand(sym_qfact(N)), expand(sym_qfact(K) * sym_qfact(N - K)), q)


def sym_factorial_ratio(num_indices: list[int], den_indices: list[int]):
    """Exact quotient of products of q-factorials; raises if not polynomial."""
    num = expand(prod([sym_qfact(i) for i in num_indices], S.One))
    den = expand(prod([sym_qfact(i) for i in den_indices], S.One))
    return exquo(num, den, q)


def sym_alternating_sum(m: tuple[int, ...], n: tuple[int, ...], a: int, b: int):
    """Brute-force sympy evaluation of the prefactored alternating sum."""
    r, s = len(m), len(n)
    n1 = n[0]
    total = S.Zero
    for k in range(-n1, n1 + 1):
        term = S.NegativeOne**k * q ** (a * k * k + (2 * b - 1) * (k * (k - 1) // 2))
        for i in range(r):
            term *= sym_qbinom(m[i] + m[(i + 1) % r] + 1, m[i] + k)
        for j in range(s):
            term *= sym_qbinom(n[j] + n[(j + 1) % s], n[j] + k)
        total += term
    num = expand(sym_qfact(m[0]) * sym_qfact(n1) * sym_qfact(m[-1] + n[-1] + 1) * expand(total))
    den = expand(sym_qfact(m[0] + m[-1] + 1) * sym_qfact(n1 + n[-1]))
    return exquo(num, den, q)


# The parameter names of an A, B or C report row, in the order the pair is given.
_PAIR_NAMES = {"A": ("m", "n"), "B": ("n", "m"), "C": ("m", "n")}


def scan_report_json(family, rows, fmt) -> str:
    """A `scan --format jsonl` or `json` report as the package once wrote it:
    one dict per row, encoded by json.dumps(sort_keys=True, separators=(",",
    ":")), a line per row or one list.  Each row is (params, coeffs,
    value_at_one, passed, failed, out_of_theorem): params is the (x, y)
    pair, or (m, n, a, b) for F; coeffs is None when F is not a polynomial
    there; out_of_theorem is read for F only."""
    dicts = []
    for params, coeffs, value_at_one, passed, failed, out_of_theorem in rows:
        if family == "F":
            m, n, a, b = params
            fields = {"params": {"m": list(m), "n": list(n), "a": a, "b": b}, "out_of_theorem": out_of_theorem}
        else:
            fields = {"params": dict(zip(_PAIR_NAMES[family], params))}
        dicts.append({
            "family": family,
            **fields,
            "is_polynomial": coeffs is not None,
            "coeffs": None if coeffs is None else [str(c) for c in coeffs],
            "degree": len(coeffs) - 1 if coeffs else None,
            "nonneg": coeffs is not None and all(c >= 0 for c in coeffs),
            "value_at_one": str(value_at_one),
            "checks_passed": list(passed),
            "checks_failed": list(failed),
        })
    dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    return "".join(dumps(row) + "\n" for row in dicts) if fmt == "jsonl" else dumps(dicts) + "\n"


def _reciprocal(poly, params) -> bool:
    """Whether F at the dual (s-a, r-b+1), validated as an instance, has
    degree at most delta(m, n) and reversed at that degree is poly, F at
    params; raises NotDivisible or InvalidRange for the dual."""
    m, n, a, b, unsafe = params
    dual = F(CyclicParams(m, n, len(n) - a, len(m) - b + 1, unsafe))
    bound = delta(m, n)
    return poly is not None and len(dual.coeffs) <= bound + 1 and dual.reverse_to_degree(bound) == poly


def _deletion_holds(poly, params) -> bool:
    """Whether poly, F at params, is the sum over 0 <= ell <= m1 of
    q^{ell^2+ell} [m1, ell] [m2+m3+1, m2-ell] F((ell, m3, ..., m_r), n, a,
    b-1), each F at a validated instance and each Gaussian coefficient by
    gauss_binom_pascal, skipping the terms whose coefficient vanishes;
    raises NotDivisible for a sub-instance."""
    m, n, a, b, unsafe = params
    if poly is None:
        return False
    rhs = ZERO
    for ell in range(m[0] + 1):
        coef = gauss_binom_pascal(m[0], ell) * gauss_binom_pascal(m[1] + m[2] + 1, m[1] - ell)
        if not coef.is_zero():
            rhs = rhs + (coef * F(CyclicParams((ell,) + m[2:], n, a, b - 1, unsafe))).shift(ell * ell + ell)
    return poly == rhs


def f_scan_rows(r, s, param_max, m_min, a_values, b_values, unsafe, checks) -> list[tuple]:
    """The rows of `scan F`, as scan_report_json takes them, decided one
    instance at a time: F at each instance, value_at_one_reference and
    delta, and the reciprocity and deletion identities decided here, from F
    at the instance's dual and sub-instances (_reciprocal and
    _deletion_holds), not through the package's checks.  A check that
    raises NotDivisible or InvalidRange fails; deletion is skipped where
    r < 3 or b < 2.  a_values or b_values None means the window; repeated
    values count once.  Raises InvalidRange for an invalid (a, b)."""
    a_values = range(s + 1) if a_values is None else dict.fromkeys(a_values)
    b_values = range(1, r + 1) if b_values is None else dict.fromkeys(b_values)
    rows = []
    for m, n in product(product(range(m_min, param_max + 1), repeat=r), product(range(1, param_max + 1), repeat=s)):
        for a, b in product(a_values, b_values):
            params = CyclicParams(m, n, a, b, unsafe)
            try:
                poly = F(params)
            except NotDivisible:
                poly = None
            value = value_at_one_reference(params) if poly is None else poly.eval_at_one()
            passed, failed = [], []
            for check in checks:
                try:
                    if check == "positivity":
                        ok = poly is not None and all(c >= 0 for c in poly.coeffs)
                    elif check == "q1-specialization":
                        ok = poly is not None and value == value_at_one_reference(params)
                    elif check == "degree-bound":
                        ok = poly is not None and (poly.degree is None or poly.degree <= delta(m, n))
                    elif check == "reciprocity":
                        ok = _reciprocal(poly, params)
                    else:
                        ok = None if r < 3 or b < 2 else _deletion_holds(poly, params)
                except (NotDivisible, InvalidRange):
                    ok = False
                if ok is not None:
                    (passed if ok else failed).append(check)
            out_of_theorem = not (0 <= a <= s and 1 <= b <= r) or 0 in m
            rows.append(((m, n, a, b), None if poly is None else poly.coeffs, value, passed, failed, out_of_theorem))
    return rows
