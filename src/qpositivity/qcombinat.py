"""q-analog primitives: q-integers, q-factorials, q-Pochhammer products,
Gaussian (q-binomial) coefficients, and the triangular exponent k(k-1)/2.

Every ratio of q-factorials in the package is computed by q_ratio, the one
place that decides how (multiply the numerator, then divide exactly), and
its value at q = 1 by ratio_at_one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, prod
from operator import mul
from typing import Any

from .qpoly import IntPoly, ONE, ZERO


class NegativeIndex(Exception):
    """A nonnegative index was required."""


class InvalidRange(Exception):
    """Parameters outside an operation's stated domain."""


@dataclass
class IdentityCheckResult:
    """Outcome of verifying a named identity at one parameter point.

    `difference` is the polynomial LHS - RHS; it is zero exactly when the
    check passed.
    """

    identity: str
    params: dict[str, Any]
    passed: bool
    difference: IntPoly


def q_int(n: int) -> IntPoly:
    """The q-integer 1 + q + ... + q^(n-1); q_int(0) is 0."""
    if n < 0:
        raise NegativeIndex(f"q_int({n})")
    return IntPoly((1,) * n)


_factorials: list[IntPoly] = [ONE]


def q_factorial(n: int) -> IntPoly:
    """The q-factorial, the product of q_int(1)..q_int(n)."""
    if n < 0:
        raise NegativeIndex(f"q_factorial({n})")
    while len(_factorials) <= n:
        k = len(_factorials)
        _factorials.append(_factorials[-1] * q_int(k))
    return _factorials[n]


_pochhammers: list[IntPoly] = [ONE]


def q_poch(n: int) -> IntPoly:
    """The q-Pochhammer product (q;q)_n = (1-q)(1-q^2)...(1-q^n)."""
    if n < 0:
        raise NegativeIndex(f"q_poch({n})")
    while len(_pochhammers) <= n:
        k = len(_pochhammers)
        factor = IntPoly((1,) + (0,) * (k - 1) + (-1,))
        _pochhammers.append(_pochhammers[-1] * factor)
    return _pochhammers[n]


def q_ratio(num: tuple[int, ...], den: tuple[int, ...], *times: IntPoly) -> IntPoly:
    """prod [i]! over num times the polynomials in times, divided exactly by
    prod [j]! over den (NotDivisible when it does not divide); ZERO when
    some j < 0, by the convention 1/[j]! = 0."""
    if any(j < 0 for j in den):
        return ZERO
    top = reduce(mul, [*map(q_factorial, num), *times])
    return top.exact_div(reduce(mul, map(q_factorial, den)))


def ratio_at_one(num: tuple[int, ...], den: tuple[int, ...]) -> Fraction:
    """prod i! over num divided by prod j! over den, all indices >= 0:
    the value of q_ratio(num, den) at q = 1."""
    return Fraction(prod(map(factorial, num)), prod(map(factorial, den)))


@lru_cache(maxsize=None)
def gauss_binom(N: int, K: int) -> IntPoly:
    """The Gaussian coefficient: [N]!/([K]![N-K]!) for 0 <= K <= N, else 0."""
    return q_ratio((N,), (K, N - K))


@lru_cache(maxsize=None)
def gauss_binom_pascal(N: int, K: int) -> IntPoly:
    """Second, independent route to the Gaussian coefficient via the
    q-Pascal recurrence; used to cross-check gauss_binom."""
    if K < 0 or N < 0 or K > N:
        return ZERO
    if K == 0 or K == N:
        return ONE
    return gauss_binom_pascal(N - 1, K - 1) + gauss_binom_pascal(N - 1, K).shift(K)


def choose2(k: int) -> int:
    """k(k-1)/2, defined on all integers; nonnegative for every k."""
    return k * (k - 1) // 2
