"""Dense polynomials in q with arbitrary-precision integer coefficients.

A polynomial is stored as a tuple of ints, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  All values are
immutable and every operation is a pure function, so polynomials can be
shared freely between threads.  A sum of shifted terms is built by
shifted_sum, which adds every term into one list instead of making a new
polynomial per term.
"""

from __future__ import annotations

from itertools import repeat
from operator import add
from typing import Iterable, Iterator, Sequence


class NotDivisible(Exception):
    """Exact division left a nonzero remainder.

    Carries the offending remainder: a nonzero remainder is a detectable
    contract violation, never an approximation to be truncated away.
    """

    def __init__(self, remainder: "IntPoly", cause: str = ""):
        super().__init__(f"{cause}{': ' if cause else ''}exact division failed, remainder {remainder}")
        self.remainder = remainder


class DegreeExceedsBound(Exception):
    """The polynomial's degree is larger than the requested reversal bound."""


# Below this operand size schoolbook convolution beats the packing overhead.
_SCHOOLBOOK_CUTOFF = 32


def _pack(coeffs: Sequence[int], nbits: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = (v << nbits) | c
    return v


def _unpack(v: int, nbits: int, count: int) -> list[int]:
    mask = (1 << nbits) - 1
    out = []
    for _ in range(count):
        out.append(v & mask)
        v >>= nbits
    return out


class IntPoly:
    """An immutable polynomial over the integers.

    >>> IntPoly([1, 1]) * IntPoly([1, -1])
    IntPoly((1, 0, -1))
    >>> str(IntPoly([1, 0, 2]))
    '1 + 2q^2'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    # -- basic structure ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if min(len(a), len(b)) <= _SCHOOLBOOK_CUTOFF:
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return IntPoly(out)
        return _kronecker_mul(a, b)

    def shift(self, e: int) -> "IntPoly":
        """Multiply by q**e (e >= 0)."""
        if e < 0:
            raise ValueError(f"negative shift {e}")
        if not self.coeffs or e == 0:
            return self
        return IntPoly((0,) * e + self.coeffs)

    def exact_div(self, den: "IntPoly") -> "IntPoly":
        """Quotient Q with self == den * Q exactly; raises NotDivisible otherwise."""
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        dn = len(self.coeffs) - 1
        dd = len(den.coeffs) - 1
        if dn < dd:
            raise NotDivisible(self)
        rem = list(self.coeffs)
        dc = den.coeffs
        lead = dc[-1]
        quot = [0] * (dn - dd + 1)
        for i in range(dn - dd, -1, -1):
            c = rem[i + dd]
            if c == 0:
                continue
            qi, r = divmod(c, lead)
            if r:
                raise NotDivisible(IntPoly(rem))
            quot[i] = qi
            for j, d in enumerate(dc):
                rem[i + j] -= qi * d
        if any(rem):
            raise NotDivisible(IntPoly(rem))
        return IntPoly(quot)

    def reverse_to_degree(self, bound: int) -> "IntPoly":
        """Coefficient reversal q**bound * p(1/q); requires deg p <= bound."""
        if bound < 0:
            raise ValueError(f"negative degree bound {bound}")
        if self.is_zero():
            return ZERO
        d = len(self.coeffs) - 1
        if d > bound:
            raise DegreeExceedsBound(f"degree {d} exceeds bound {bound}")
        out = [0] * (bound + 1)
        for i, c in enumerate(self.coeffs):
            out[bound - i] = c
        return IntPoly(out)

    def is_nonneg(self) -> bool:
        """True iff every coefficient is >= 0 (membership in N[q])."""
        return all(c >= 0 for c in self.coeffs)

    def eval_at_one(self) -> int:
        """The sum of coefficients, i.e. the value at q = 1."""
        return sum(self.coeffs)

    # -- serialization --------------------------------------------------

    def to_coeff_strings(self) -> list[str]:
        """Coefficients as decimal strings, lowest degree first (JSON-safe)."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Iterable[str]) -> "IntPoly":
        return cls(int(s) for s in items)


def shifted_sum(terms: Iterable[tuple[int, IntPoly]]) -> IntPoly:
    """The sum of q**e * poly over the (e, poly) pairs (e >= 0), added into
    one list; a zero poly is skipped whatever its e."""
    out: list[int] = []
    for e, poly in terms:
        cs = poly.coeffs
        if not cs:
            continue
        if e < 0:
            raise ValueError(f"negative shift {e}")
        end = e + len(cs)
        if end > len(out):
            out.extend(repeat(0, end - len(out)))
        out[e:end] = map(add, out[e:end], cs)
    return IntPoly(out)


def _kronecker_mul(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    # Pack each sign part into one big integer so CPython's subquadratic
    # bignum multiplication does the convolution.
    bound = 2 * max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nbits = bound.bit_length() + 1
    ap = [c if c > 0 else 0 for c in a]
    an = [-c if c < 0 else 0 for c in a]
    bp = [c if c > 0 else 0 for c in b]
    bn = [-c if c < 0 else 0 for c in b]
    pa, na = _pack(ap, nbits), _pack(an, nbits)
    pb, nb = _pack(bp, nbits), _pack(bn, nbits)
    pos = pa * pb + na * nb
    neg = pa * nb + na * pb
    count = len(a) + len(b) - 1
    pc = _unpack(pos, nbits, count)
    nc = _unpack(neg, nbits, count)
    return IntPoly(p - n for p, n in zip(pc, nc))


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))
