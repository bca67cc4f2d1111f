"""The super Catalan family.

Three factorial-ratio families are computed by qcombinat.q_ratio, and
each has an evaluator of its value at q = 1 that uses only integer
arithmetic (qcombinat.ratio_at_one):

    A(m, n) = [2m]![2n]! / ([m+n]![m]![n]!)
    B(n, m) = [2n]![m]! / ([n]![2m]![n-m]!)        for n >= m
    C(m, n) = [2m+1]![2n]! / ([m+n+1]![m]![n]!)

C is additionally computed by a pair of recurrences (one for each
off-diagonal direction), giving two fully independent evaluation paths
whose agreement is checked by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .qcombinat import IdentityCheckResult, InvalidRange, NegativeIndex, gauss_binom, q_ratio, ratio_at_one
from .qpoly import IntPoly, product_sum, shifted_sum


def super_catalan_A(m: int, n: int) -> IntPoly:
    """The q-super Catalan number [2m]![2n]!/([m+n]![m]![n]!)."""
    if m < 0 or n < 0:
        raise NegativeIndex(f"super_catalan_A({m}, {n})")
    return q_ratio((2 * m, 2 * n), (m + n, m, n))


def super_catalan_A_value_at_one(m: int, n: int) -> Fraction:
    """The specialization (2m)!(2n)!/((m+n)! m! n!) at q = 1."""
    return ratio_at_one((2 * m, 2 * n), (m + n, m, n))


def ratio_B(n: int, m: int) -> IntPoly:
    """[2n]![m]!/([n]![2m]![n-m]!), defined for n >= m >= 0."""
    if m < 0 or n < m:
        raise InvalidRange(f"ratio_B({n}, {m}) requires n >= m >= 0")
    return q_ratio((2 * n, m), (n, 2 * m, n - m))


def ratio_B_value_at_one(n: int, m: int) -> Fraction:
    """The specialization (2n)! m!/(n! (2m)! (n-m)!) at q = 1."""
    return ratio_at_one((2 * n, m), (n, 2 * m, n - m))


def odd_super_catalan_direct(m: int, n: int) -> IntPoly:
    """The odd q-super Catalan number [2m+1]![2n]!/([m+n+1]![m]![n]!)."""
    if m < 0 or n < 0:
        raise NegativeIndex(f"odd_super_catalan_direct({m}, {n})")
    return q_ratio((2 * m + 1, 2 * n), (m + n + 1, m, n))


def odd_super_catalan_value_at_one(m: int, n: int) -> Fraction:
    """The specialization (2m+1)!(2n)!/((m+n+1)! m! n!) at q = 1."""
    return ratio_at_one((2 * m + 1, 2 * n), (m + n + 1, m, n))


def _inner_sum(N: int, h: int, k: int) -> IntPoly:
    # sum over j of q^{k(N+k+1)+j(N+j+1)} * gauss_binom(h-2k-1, j-k)
    return shifted_sum(
        (k * (N + k + 1) + j * (N + j + 1), gauss_binom(h - 2 * k - 1, j - k)) for j in range(k, h - k)
    )


def odd_super_catalan_recursive(m: int, n: int) -> IntPoly:
    """C(m, n) computed by recurrence rather than division.

    Diagonal entries are Gaussian coefficients; the m > n case descends via
    C(k, n) with k <= (m-n-1)/2, the n > m case via C(m, k).  Equality with
    odd_super_catalan_direct is the correctness oracle.
    """
    if m < 0 or n < 0:
        raise NegativeIndex(f"odd_super_catalan_recursive({m}, {n})")
    if m == n:
        return gauss_binom(2 * n, n)
    if m > n:
        N, h = n, m - n
        return product_sum(
            [(h, [super_catalan_A(m, n)])]
            + [(0, [_sub_value(k, N), gauss_binom(h, 2 * k + 1), _inner_sum(N, h, k)]) for k in range((h - 1) // 2 + 1)]
        )
    N, h = m, n - m
    return product_sum(
        (0, [_sub_value(N, k), gauss_binom(h - 1, 2 * k), _inner_sum(N, h, k)]) for k in range((h - 1) // 2 + 1)
    )


# The recurrence for C(m, n) only revisits C(x, y) with 2(x+y)+1 <= m+n, so
# only those sub-values are kept, never a scanned row.  1024 entries hold every
# pair with x+y <= 43, all that a scan with --max-sum 88 revisits.
_sub_value = lru_cache(maxsize=1024)(odd_super_catalan_recursive)


def double_expansion_check(N: int, h: int) -> IdentityCheckResult:
    """Check the double-sum expansion of gauss_binom(2N+2h, h-1).

    The right-hand side sums q^{k(N+k+1)+j(N+j+1)} times a product of three
    Gaussian coefficients over 0 <= k <= (h-1)/2, k <= j <= h-k-1.
    """
    if N < 0 or h < 1:
        raise InvalidRange(f"double_expansion_check({N}, {h}) requires N >= 0, h >= 1")
    lhs = gauss_binom(2 * N + 2 * h, h - 1)
    rhs = shifted_sum(
        (
            k * (N + k + 1) + j * (N + j + 1),
            gauss_binom(N + h, j) * gauss_binom(j, k) * gauss_binom(N + h - j, h - j - k - 1),
        )
        for k in range((h - 1) // 2 + 1)
        for j in range(k, h - k)
    )
    diff = lhs - rhs
    return IdentityCheckResult("double-expansion", {"N": N, "h": h}, diff.is_zero(), diff)
