"""Checks of the program's outputs that are independent of the program.

Only stdlib integers and Fractions are used and nothing is imported from
`qpositivity`: q-factorials and Gaussian coefficients are evaluated at
integer points q = x directly, and compared with the reported coefficient
lists evaluated at the same points.  Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from workloads import C_CHECKS, F_CHECKS, c_grid, f_grid


@lru_cache(maxsize=None)
def q_factorial_at(k: int, x: int) -> int:
    """[k]! at q = x, as the product of the q-integers (x^i - 1)/(x - 1)."""
    if x == 1:
        return factorial(k)
    out = 1
    for i in range(1, k + 1):
        out *= (x**i - 1) // (x - 1)
    return out


@lru_cache(maxsize=None)
def gauss_binom_at(N: int, K: int, x: int) -> int:
    if not 0 <= K <= N:
        return 0
    if x == 1:
        return comb(N, K)
    value, rem = divmod(q_factorial_at(N, x), q_factorial_at(K, x) * q_factorial_at(N - K, x))
    if rem:
        raise ArithmeticError(f"[{N} choose {K}] at q={x} is not an integer")
    return value


def poly_at(coeffs: list[int], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _tri(k: int) -> int:
    return k * (k - 1) // 2


# -- C(m, n) = [2m+1]![2n]! / ([m+n+1]![m]![n]!) ------------------------------


def c_at(m: int, n: int, x: int) -> Fraction:
    num = q_factorial_at(2 * m + 1, x) * q_factorial_at(2 * n, x)
    den = q_factorial_at(m + n + 1, x) * q_factorial_at(m, x) * q_factorial_at(n, x)
    return Fraction(num, den)


def c_degree(m: int, n: int) -> int:
    """deg [k]! = k(k-1)/2, so the degree of the ratio is a sum of those."""
    return _tri(2 * m + 1) + _tri(2 * n) - _tri(m + n + 1) - _tri(m) - _tri(n)


def check_c_coeffs(m: int, n: int, coeffs: list[int]) -> list[str]:
    where = f"C({m},{n})"
    problems = []
    if len(coeffs) - 1 != c_degree(m, n):
        problems.append(f"{where}: degree {len(coeffs) - 1} != {c_degree(m, n)}")
    if coeffs != coeffs[::-1]:
        problems.append(f"{where}: coefficients not palindromic")
    for x in (1, 2, 3):
        if poly_at(coeffs, x) != c_at(m, n, x):
            problems.append(f"{where}: value at q={x} differs from the factorial ratio")
    return problems


def check_c_report(rows: list[dict], max_sum: int) -> list[str]:
    grid = c_grid(max_sum)
    got = [(r["params"]["m"], r["params"]["n"]) for r in rows]
    if got != grid:
        return [f"C report covers {len(got)} rows, not the {len(grid)} of the m+n<={max_sum} triangle in order"]
    problems = []
    for row, (m, n) in zip(rows, grid):
        coeffs = [int(c) for c in row["coeffs"]]
        problems += check_c_coeffs(m, n, coeffs)
        where = f"C({m},{n})"
        if row["degree"] != len(coeffs) - 1:
            problems.append(f"{where}: reported degree {row['degree']} != {len(coeffs) - 1}")
        if row["nonneg"] != all(c >= 0 for c in coeffs):
            problems.append(f"{where}: nonneg flag disagrees with the coefficients")
        if row["value_at_one"] != str(sum(coeffs)) or row["is_polynomial"] is not True:
            problems.append(f"{where}: value_at_one or is_polynomial wrong")
        if row["checks_passed"] != list(C_CHECKS) or row["checks_failed"]:
            problems.append(f"{where}: checks {row['checks_passed']} / {row['checks_failed']}")
    return problems


# -- F(m; n; a, b) -------------------------------------------------------------


def f_delta(m: tuple[int, ...], n: tuple[int, ...]) -> int:
    """The reciprocity exponent of F: degree of the prefactor plus the
    largest degree a cyclic product of Gaussian coefficients can reach."""
    r, s = len(m), len(n)
    return (
        _tri(m[0]) + _tri(n[0]) + _tri(m[-1] + n[-1] + 1)
        - _tri(m[0] + m[-1] + 1) - _tri(n[0] + n[-1])
        + sum(m[i] * (m[(i + 1) % r] + 1) for i in range(r))
        + sum(n[j] * n[(j + 1) % s] for j in range(s))
    )


@lru_cache(maxsize=None)
def _cyclic_product_at(m: tuple[int, ...], n: tuple[int, ...], k: int, x: int) -> int:
    r, s = len(m), len(n)
    out = 1
    for i in range(r):
        out *= gauss_binom_at(m[i] + m[(i + 1) % r] + 1, m[i] + k, x)
    for j in range(s):
        out *= gauss_binom_at(n[j] + n[(j + 1) % s], n[j] + k, x)
    return out


def f_at(m: tuple[int, ...], n: tuple[int, ...], a: int, b: int, x: int) -> Fraction:
    """The prefactored alternating sum evaluated at q = x."""
    n1 = n[0]
    total = Fraction(0)
    for k in range(-n1, n1 + 1):
        e = a * k * k + (2 * b - 1) * _tri(k)
        term = _cyclic_product_at(m, n, k, x) * (x**e if e >= 0 else Fraction(1, x**-e))
        total += -term if k % 2 else term
    pre = Fraction(
        q_factorial_at(m[0], x) * q_factorial_at(n1, x) * q_factorial_at(m[-1] + n[-1] + 1, x),
        q_factorial_at(m[0] + m[-1] + 1, x) * q_factorial_at(n1 + n[-1], x),
    )
    return pre * total


def check_f_report(rows: list[dict], r: int, s: int, param_max: int) -> list[str]:
    problems = []
    keys = [(tuple(p["m"]), tuple(p["n"]), p["a"], p["b"]) for p in (row["params"] for row in rows)]
    grid = f_grid(r, s, param_max)
    if keys != grid:
        problems.append(f"F report covers {len(keys)} rows, not the {len(grid)} of the grid in order")
    by_key = {}
    for key, row in zip(keys, rows):
        m, n, a, b = key
        where = f"F(m={m},n={n},a={a},b={b})"
        coeffs = [int(c) for c in row["coeffs"] or ()]
        by_key[key] = coeffs
        bound = f_delta(m, n)
        if len(coeffs) - 1 > bound:
            problems.append(f"{where}: degree {len(coeffs) - 1} exceeds delta {bound}")
        if row["degree"] != len(coeffs) - 1:
            problems.append(f"{where}: reported degree {row['degree']} != {len(coeffs) - 1}")
        for x in (1, 2):
            if poly_at(coeffs, x) != f_at(m, n, a, b, x):
                problems.append(f"{where}: value at q={x} differs from the alternating sum")
        if row["nonneg"] != all(c >= 0 for c in coeffs):
            problems.append(f"{where}: nonneg flag disagrees with the coefficients")
        if row["value_at_one"] != str(sum(coeffs)) or row["is_polynomial"] is not True:
            problems.append(f"{where}: value_at_one or is_polynomial wrong")
        if row["out_of_theorem"] is not False:
            problems.append(f"{where}: flagged out of theorem")
        # the deletion recurrence is defined only for r >= 3 and b >= 2
        expected = [c for c in F_CHECKS if c != "deletion" or (len(m) >= 3 and b >= 2)]
        if row["checks_passed"] != expected or row["checks_failed"]:
            problems.append(f"{where}: checks {row['checks_passed']} / {row['checks_failed']}")
    for (m, n, a, b), coeffs in by_key.items():
        dual = by_key.get((m, n, len(n) - a, len(m) - b + 1))
        if dual is None:
            problems.append(f"F(m={m},n={n},a={a},b={b}): dual row missing from the report")
            continue
        bound = f_delta(m, n)
        padded = coeffs + [0] * (bound + 1 - len(coeffs))
        dual_padded = dual + [0] * (bound + 1 - len(dual))
        if padded != dual_padded[::-1]:
            problems.append(f"F(m={m},n={n},a={a},b={b}): not the dual row reversed at delta {bound}")
    return problems


# -- verify-mix ------------------------------------------------------------------


def check_verify_outcome(expect: tuple, rc, stdout: str) -> list[str]:
    """Problems with one request's exit code and standard output."""
    kind = expect[0]
    if kind == "invalid":
        return [] if rc == 2 else [f"expected exit 2 (invalid input), got {rc}"]
    if rc != 0:
        return [f"expected exit 0, got {rc}"]
    if kind == "pass":
        _, identity, params = expect
        line = f"PASS {identity} {json.dumps(params, sort_keys=True)}\n"
        return [] if stdout == line else [f"expected {line!r}, got {stdout[:200]!r}"]
    _, m, n = expect
    lines = stdout.splitlines()
    if len(lines) != 2:
        return [f"compute C {m} {n}: expected two lines of output"]
    return check_c_coeffs(m, n, [int(c) for c in json.loads(lines[1])])
