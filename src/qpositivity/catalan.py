"""The super Catalan family.

Three factorial-ratio families, each with an evaluator of its value at
q = 1 that uses only integer arithmetic (qcombinat.ratio_at_one):

    A(m, n) = [2m]![2n]! / ([m+n]![m]![n]!)
    B(n, m) = [2n]![m]! / ([n]![2m]![n-m]!)        for n >= m
    C(m, n) = [2m+1]![2n]! / ([m+n+1]![m]![n]!)

A and B are computed by qcombinat.q_ratio.  C is walked along n in exact
linear steps (odd_super_catalan_walk): C(m, 0) = [2m+1, m], and

    C(m, n+1) = C(m, n) (1 - q^{2n+1})(1 - q^{2n+2}) / ((1 - q^{n+1})(1 - q^{m+n+2}))
              = C(m, n) (1 + q^{n+1})(1 - q^{2n+1}) / (1 - q^{m+n+2}),

two shift-adds and one exact division by 1 - q^t, a strided prefix sum
whose top t entries are the remainder, so each step certifies itself.
C is also computed by a pair of recurrences (one for each off-diagonal
direction, odd_super_catalan_recursive), whose A(m, n) is a q_ratio, so
the two routes share no step code; their agreement is the
oracle-equivalence check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Callable, Iterator

from .qcombinat import InvalidRange, NegativeIndex, gauss_binom, q_ratio, ratio_at_one
from .qpoly import IntPoly, NotDivisible, product_sum, shifted_sum


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


def _times_binomial(coeffs: list[int], t: int, op: Callable[[int, int], int] = sub) -> list[int]:
    """coeffs times 1 - q^t (op sub) or 1 + q^t (op add), t >= 1: one shift-subtract or shift-add."""
    out = coeffs + [0] * t
    out[t:] = map(op, out[t:], coeffs)
    return out


def _over_one_minus(coeffs: list[int], t: int) -> list[int]:
    """coeffs divided exactly by 1 - q^t, t >= 1: the prefix sums of each
    residue class mod t, out[i] += out[i - t], added a block of t entries at
    a time.  Their top t entries are the remainder
    coeffs - (1 - q^t) * quotient, so NotDivisible carries them, at their
    degrees, when any is nonzero."""
    out = list(coeffs)
    for i in range(t, len(out), t):
        out[i : i + t] = map(add, out[i : i + t], out[i - t : i])
    cut = max(len(out) - t, 0)
    if any(out[cut:]):
        raise NotDivisible(IntPoly([0] * cut + out[cut:]), f"1 - q^{t}")
    del out[cut:]
    return out


def odd_super_catalan_walk(m: int, top: int) -> Iterator[IntPoly]:
    """C(m, 0), C(m, 1), ..., C(m, top), one exact linear step apart; only
    the current value is held."""
    if m < 0 or top < 0:
        raise NegativeIndex(f"odd_super_catalan_walk({m}, {top})")
    coeffs = list(q_ratio((2 * m + 1,), (m, m + 1)).coeffs)
    yield IntPoly(coeffs)
    for n in range(top):
        coeffs = _times_binomial(_times_binomial(coeffs, n + 1, add), 2 * n + 1)
        coeffs = _over_one_minus(coeffs, m + n + 2)
        yield IntPoly(coeffs)


def odd_super_catalan_direct(m: int, n: int) -> IntPoly:
    """The odd q-super Catalan number [2m+1]![2n]!/([m+n+1]![m]![n]!), the
    last value of its walk."""
    if m < 0 or n < 0:
        raise NegativeIndex(f"odd_super_catalan_direct({m}, {n})")
    for poly in odd_super_catalan_walk(m, n):
        pass
    return poly


def odd_super_catalan_value_at_one(m: int, n: int) -> Fraction:
    """The specialization (2m+1)!(2n)!/((m+n+1)! m! n!) at q = 1."""
    return ratio_at_one((2 * m + 1, 2 * n), (m + n + 1, m, n))


# The m > n rows of one m-row all read S on the diagonal M + c = m, so 64
# entries hold one such diagonal for every m <= 63.
@lru_cache(maxsize=64)
def _inner_sum(M: int, c: int) -> IntPoly:
    """S(M, c), the sum over 0 <= i <= M of q^{i^2+ci} gauss_binom(M, i).
    The recurrence's inner sum over j of q^{k(N+k+1)+j(N+j+1)}
    gauss_binom(h-2k-1, j-k) is q^{2k(N+k+1)} S(h-2k-1, N+2k+1)."""
    return shifted_sum((i * i + c * i, gauss_binom(M, i)) for i in range(M + 1))


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
            + [(2 * k * (N + k + 1), [_sub_value(k, N), gauss_binom(h, 2 * k + 1), _inner(N, h, k)])
               for k in range((h - 1) // 2 + 1)]
        )
    N, h = m, n - m
    return product_sum(
        (2 * k * (N + k + 1), [_sub_value(N, k), gauss_binom(h - 1, 2 * k), _inner(N, h, k)])
        for k in range((h - 1) // 2 + 1)
    )


def _inner(N: int, h: int, k: int) -> IntPoly:
    """The recurrence's k-th inner sum without its factor q^{2k(N+k+1)}."""
    return _inner_sum(h - 2 * k - 1, N + 2 * k + 1)


# The recurrence for C(m, n) only revisits C(x, y) with 2(x+y)+1 <= m+n, so
# only those sub-values are kept, never a scanned row.  1024 entries hold every
# pair with x+y <= 43, all that a scan with --max-sum 88 revisits.
_sub_value = lru_cache(maxsize=1024)(odd_super_catalan_recursive)


def double_expansion_check(N: int, h: int) -> IntPoly:
    """Check the double-sum expansion of gauss_binom(2N+2h, h-1): LHS - RHS,
    which is ZERO exactly when it holds.

    The right-hand side sums q^{k(N+k+1)+j(N+j+1)} times a product of three
    Gaussian coefficients over 0 <= k <= (h-1)/2, k <= j <= h-k-1.
    """
    if N < 0 or h < 1:
        raise InvalidRange(f"double_expansion_check({N}, {h}) requires N >= 0, h >= 1")
    lhs = gauss_binom(2 * N + 2 * h, h - 1)
    rhs = product_sum(
        (
            k * (N + k + 1) + j * (N + j + 1),
            [gauss_binom(N + h, j), gauss_binom(j, k), gauss_binom(N + h - j, h - j - k - 1)],
        )
        for k in range((h - 1) // 2 + 1)
        for j in range(k, h - k)
    )
    return lhs - rhs
