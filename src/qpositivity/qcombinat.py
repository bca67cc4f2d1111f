"""q-analog primitives: q-integers, q-factorials, q-Pochhammer products,
Gaussian (q-binomial) coefficients, and the triangular exponent k(k-1)/2.

Every ratio of q-factorials in the package, except the odd super Catalan
numbers that catalan walks from a Gaussian coefficient, is computed from
cyclotomic exponents, and its value at q = 1 by ratio_at_one.  [N]! is the
product of Phi_d^floor(N/d) over d >= 2, so a ratio is the product of
Phi_d^e_d with e_d = sum floor(i/d) over num minus sum floor(j/d) over den,
and it is a polynomial exactly when every e_d >= 0.  cyclotomic_split does
this bookkeeping once: it gives the Phi_d with e_d > 0, and a function
making the one small exact division by the Phi_d with e_d < 0, which names
the first negative exponent when it fails.  q_ratio multiplies the Phi_d
with e_d > 0 by qpoly.product and divides; altsum's F applies the same
split of its prefactor to a table of k-terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial, prod
from operator import add, floordiv, sub
from typing import Any, NamedTuple

from .qpoly import IntPoly, NotDivisible, ONE, ZERO, product


class NegativeIndex(Exception):
    """A nonnegative index was required."""


class InvalidRange(Exception):
    """Parameters outside an operation's stated domain."""


class IdentityCheckResult(NamedTuple):
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


def q_factorial(n: int) -> IntPoly:
    """The q-factorial, the product of q_int(1)..q_int(n)."""
    return q_ratio((n,), ())


# recombine_check's indices are sums of two or three of its parameters, so
# 64 values hold all of them for parameters up to about 20
@lru_cache(maxsize=64)
def q_poch(n: int) -> IntPoly:
    """The q-Pochhammer product (q;q)_n = (1-q)(1-q^2)...(1-q^n)."""
    if n < 0:
        raise NegativeIndex(f"q_poch({n})")
    return product(IntPoly((1,) + (0,) * (k - 1) + (-1,)) for k in range(1, n + 1))


# a q-factorial ratio with indices up to N uses Phi_2..Phi_N, so 256 of them
# serve every ratio with indices <= 257
@lru_cache(maxsize=256)
def cyclotomic(d: int) -> IntPoly:
    """The cyclotomic polynomial Phi_d for d >= 2: q_int(d) divided by the
    Phi_e of the divisors 1 < e < d."""
    return q_int(d).exact_div(product(cyclotomic(e) for e in range(2, d) if d % e == 0))


class Division:
    """The exact division by divisor, a product of Phi_d, called as a
    function.  It raises NotDivisible naming shortfall, the first Phi_d with
    a negative exponent ("Phi_2 exponent -1"), when it leaves a remainder.
    Division() divides by ONE: it returns its argument."""

    __slots__ = ("divisor", "shortfall")

    def __init__(self, divisor: IntPoly = ONE, shortfall: str = "") -> None:
        self.divisor = divisor
        self.shortfall = shortfall

    def __call__(self, poly: IntPoly) -> IntPoly:
        if not self.shortfall:
            return poly
        try:
            return poly.exact_div(self.divisor)
        except NotDivisible as exc:
            raise NotDivisible(exc.remainder, self.shortfall) from None


_UNCHANGED = Division()


def cyclotomic_split(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[IntPoly, ...], Division]:
    """prod [i]! over num divided by prod [j]! over den, all indices >= 0, as
    prod Phi_d^e_d: each Phi_d with e_d > 0, e_d times, and the exact division
    by the Phi_d^-e_d with e_d < 0, which raises NotDivisible naming the first
    of them ("Phi_2 exponent -1") when it leaves a remainder."""
    # exponents[d] is e_d; each index adds (num) or takes away (den) its
    # floor(i / d) for every d <= i in one map, and e_0 = e_1 = 0 name nothing
    exponents = [0] * (max((*num, *den), default=0) + 1)
    for indices, op in ((num, add), (den, sub)):
        for i in indices:
            exponents[2 : i + 1] = map(op, exponents[2 : i + 1], map(floordiv, repeat(i), range(2, i + 1)))
    over = tuple(cyclotomic(d) for d, e in enumerate(exponents) for _ in range(e))
    short = [(d, e) for d, e in enumerate(exponents) if e < 0]
    if not short:
        return over, _UNCHANGED
    under = product(cyclotomic(d) for d, e in short for _ in range(-e))
    return over, Division(under, "Φ_{} exponent {}".format(*short[0]))


def q_ratio(num: tuple[int, ...], den: tuple[int, ...], *times: IntPoly) -> IntPoly:
    """prod [i]! over num times the polynomials in times, divided exactly by
    prod [j]! over den (NotDivisible, naming the first Phi_d with a negative
    exponent, when it does not divide); ZERO when some j < 0, by the
    convention 1/[j]! = 0."""
    if any(j < 0 for j in den):
        return ZERO
    if any(i < 0 for i in num):
        raise NegativeIndex(f"q_ratio({num}, {den})")
    over, divide = cyclotomic_split(num, den)
    return divide(product((*times, *over)))


def ratio_at_one(num: tuple[int, ...], den: tuple[int, ...]) -> Fraction:
    """prod i! over num divided by prod j! over den, all indices >= 0:
    the value of q_ratio(num, den) at q = 1."""
    return Fraction(prod(map(factorial, num)), prod(map(factorial, den)))


# scan C --max-sum 60 uses 1861 distinct values, so 4096 evict none of them
@lru_cache(maxsize=4096)
def gauss_binom(N: int, K: int) -> IntPoly:
    """The Gaussian coefficient: [N]!/([K]![N-K]!) for 0 <= K <= N, else 0."""
    return q_ratio((N,), (K, N - K))


def choose2(k: int) -> int:
    """k(k-1)/2, defined on all integers; nonnegative for every k."""
    return k * (k - 1) // 2
