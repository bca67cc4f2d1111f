"""q-analog primitives: q-integers, q-factorials, q-Pochhammer products,
Gaussian (q-binomial) coefficients, and the triangular exponent k(k-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Union

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


class _InverseVanishes:
    """Marker for (q;q)_n with n < 0: its reciprocal is zero by convention,
    so any term containing it as a denominator factor vanishes."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "InverseVanishes"


INVERSE_VANISHES = _InverseVanishes()

PochValue = Union[IntPoly, _InverseVanishes]


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


def q_poch(n: int) -> PochValue:
    """(1-q)(1-q^2)...(1-q^n) for n >= 0; INVERSE_VANISHES for n < 0.

    The negative case is a value, not an error: callers must zero the
    enclosing term, matching the convention 1/(q;q)_n = 0 for n < 0.
    """
    if n < 0:
        return INVERSE_VANISHES
    while len(_pochhammers) <= n:
        k = len(_pochhammers)
        factor = IntPoly((1,) + (0,) * (k - 1) + (-1,))
        _pochhammers.append(_pochhammers[-1] * factor)
    return _pochhammers[n]


@lru_cache(maxsize=None)
def gauss_binom(N: int, K: int) -> IntPoly:
    """The Gaussian coefficient: [N]!/([K]![N-K]!) for 0 <= K <= N, else 0."""
    if K < 0 or N < 0 or K > N:
        return ZERO
    return q_factorial(N).exact_div(q_factorial(K) * q_factorial(N - K))


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
