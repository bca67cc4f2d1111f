"""Dense polynomials in q with arbitrary-precision integer coefficients.

A polynomial is stored as a tuple of ints, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  All values are
immutable and every operation is a pure function, so polynomials can be
shared freely between threads.  A sum of shifted terms is built by
shifted_sum, which adds every term into one list instead of making a new
polynomial per term.

Products use Kronecker substitution: a polynomial is packed into the
integer that is its value at q = 256**width, one width-byte slot per
coefficient, and CPython's subquadratic bignum multiply does the
convolution.  Packing and unpacking take linear time.  Slots are signed:
each holds two's complement bytes T, and the packed value is (T ^ H) - H,
with H half a slot in every slot: flipping a slot's top bit adds half a
slot to its coefficient, which the subtraction takes away exactly.  A
result is unpacked as (v + H) ^ H, so a product costs one pack per operand,
one bignum multiply and one unpack (signed, or balanced, packing: Harvey,
J. Symbolic Comput. 44, 2009).  slot_bytes rounds a slot of at most 8 bytes
up to the standard little-endian word of 1, 2, 4 or 8 bytes, which struct
converts in C, all coefficients in one call.  A slot of any other width
goes through one int.to_bytes or int.from_bytes call per coefficient.  On
either path a coefficient that does not fit below half its slot raises
OverflowError.

product_sum(terms) builds a sum of shifted products, q**e times a product
of factors per term, always packed: it packs every factor once, at the
width slot_width gives, multiplies each term's packed integers as a
balanced tree, shifts it by e whole slots, adds the integers and unpacks
once.  slot_width bounds every coefficient of such a sum by Young's
inequality, whatever the shifts; F's term tables take their width from it
too.  It reads each factor's max and L1 norms from IntPoly.norms, which a
polynomial computes on first use and keeps in a slot, so a cached factor
(a Gaussian coefficient, a Phi_d, a sub-value of the recursive C) has its
norms computed once; packed values are not kept.  product(factors) is one
such term, unshifted, and `*` is the product of its two operands.

packed_quotient(dividend, ...) divides a polynomial that is already packed
by a monic one with one divmod, and certifies the unpacked quotient by a
bound on its coefficients; an uncertified quotient is divided exactly.
"""

from __future__ import annotations

import struct
from itertools import repeat
from math import prod
from operator import add, sub
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


def slot_bytes(bound: int) -> int:
    """Bytes per slot for values of absolute value at most bound, below half
    a slot.  A width of at most 8 bytes is rounded up to the struct word that
    holds it, 1, 2, 4 or 8."""
    width = (bound.bit_length() + 8) // 8
    return width if width > 8 else 1 << (width - 1).bit_length()


def slot_width(terms: Iterable[Sequence["IntPoly"]], floor: int = 0) -> int:
    """The slot_bytes of a bound, at least floor, on every coefficient of a
    sum of shifted products, one product per term of nonzero factors,
    whatever the shifts.  By Young's inequality ||f g||_inf <=
    ||f||_inf ||g||_1, with f the factor of least ||f||_inf / ||f||_1, a
    product's coefficients are at most ||f||_inf times the L1 norms of the
    other factors; the bound is the sum of these over the terms.  The norms
    are the ones each factor keeps (IntPoly.norms)."""
    bound = 0
    for factors in terms:
        norms = [f.norms for f in factors]
        total = prod([l1 for _, l1 in norms])
        bound += min([top * (total // l1) for top, l1 in norms])
    return slot_bytes(max(bound, floor))


def _halves(width: int, count: int) -> int:
    """Half a slot, 2**(8 * width - 1), in each of count slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


# The little-endian signed struct word codes of slots of 1, 2, 4 and 8
# bytes, by width; a slot of any other width is converted one coefficient
# at a time.
_CODES = ("", "b", "h", "", "i", "", "", "", "q")


def pack(coeffs: Sequence[int], width: int) -> int:
    """The value at q = 256**width.  Coefficients are stored as two's
    complement slots T; the value is (T ^ H) - H, H half a slot in each slot."""
    count = len(coeffs)
    code = _CODES[width] if width < len(_CODES) else ""
    if code:
        try:
            data = struct.pack(f"<{count}{code}", *coeffs)
        except struct.error as exc:
            raise OverflowError(f"coefficient too large for a slot of {width} bytes") from exc
    else:
        data = b"".join([c.to_bytes(width, "little", signed=True) for c in coeffs])
    halves = _halves(width, count)
    return (int.from_bytes(data, "little") ^ halves) - halves


def unpack(v: int, width: int, count: int) -> list[int]:
    """The count coefficients of the polynomial whose value at 256**width is
    v, read from the two's complement slots (v + H) ^ H."""
    halves = _halves(width, count)
    data = ((v + halves) ^ halves).to_bytes(width * count, "little")
    code = _CODES[width] if width < len(_CODES) else ""
    if code:
        return list(struct.unpack(f"<{count}{code}", data))
    return [int.from_bytes(data[i : i + width], "little", signed=True) for i in range(0, width * count, width)]


class IntPoly:
    """An immutable polynomial over the integers.

    >>> IntPoly([1, 1]) * IntPoly([1, -1])
    IntPoly((1, 0, -1))
    >>> str(IntPoly([1, 0, 2]))
    '1 + 2q^2'
    """

    __slots__ = ("coeffs", "_norms")

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)
        self._norms: tuple[int, int] | None = None

    def __reduce__(self):
        # pickled by its coefficients alone, so the kept norms never change its bytes
        return IntPoly, (self.coeffs,)

    @property
    def norms(self) -> tuple[int, int]:
        """(max |c|, sum |c|), the max and L1 norms, computed on first use
        and kept: a polynomial never changes."""
        if self._norms is None:
            magnitudes = list(map(abs, self.coeffs))
            self._norms = (max(magnitudes, default=0), sum(magnitudes))
        return self._norms

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
        a, b = self.coeffs, other.coeffs
        out = list(a)
        if len(b) > len(a):
            out.extend(repeat(0, len(b) - len(a)))
        out[: len(b)] = map(sub, out[: len(b)], b)
        return IntPoly(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        return product((self, other))

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
        return min(self.coeffs, default=0) >= 0

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


def packed_quotient(dividend: int, count: int, width: int, divide, packed_den: int, den_l1: int) -> IntPoly:
    """The exact quotient of a packed polynomial P by divide.divisor, den,
    with one divmod.

    divide is an exact division by den, such as qcombinat.Division, that
    raises NotDivisible on a remainder.  dividend is P and packed_den is den,
    packed at width bytes a slot, and den_l1 is ||den||_1; P has at most
    count coefficients, each below half a slot, so P unpacks exactly.  When
    the remainder is 0, the quotient Q is unpacked and certified: when
    ||Q||_inf * ||den||_1 is below half a slot, Q * den and P are polynomials
    with coefficients below half a slot and the same value at 256**width, so
    they are equal.  A nonzero remainder (den does not divide P), a Q that
    does not fit its slots or a failed certificate ends in divide(P), which
    returns the exact quotient or raises NotDivisible with its remainder."""
    quotient, remainder = divmod(dividend, packed_den)
    if not remainder:
        try:
            coeffs = unpack(quotient, width, max(count - len(divide.divisor.coeffs) + 1, 0))
        except OverflowError:
            pass
        else:
            if max(map(abs, coeffs), default=0) * den_l1 < 1 << 8 * width - 1:
                return IntPoly(coeffs)
    return divide(IntPoly(unpack(dividend, width, count)))


def product(factors: Iterable[IntPoly]) -> IntPoly:
    """The product of factors; ONE for none.  Of two or more factors, the
    single unshifted term of product_sum."""
    factors = list(factors)
    if len(factors) < 2:
        return factors[0] if factors else ONE
    return product_sum([(0, factors)])


def product_sum(terms: Iterable[tuple[int, Iterable[IntPoly]]]) -> IntPoly:
    """The sum of q**e * product(factors) over the (e, factors) pairs
    (e >= 0); a term with a zero factor is skipped whatever its e.

    Every factor is packed once, at the slot_width of the terms' factors,
    which holds every coefficient of the result, so CPython's subquadratic
    bignum multiply does the convolutions: each term is one tree product of
    packed integers, shifted by e whole slots, and the sum is unpacked once."""
    kept = []
    for e, factors in terms:
        factors = list(factors) or [ONE]
        if not all(factors):
            continue
        if e < 0:
            raise ValueError(f"negative shift {e}")
        kept.append((e, factors))
    if not kept:
        return ZERO
    width = slot_width(factors for _, factors in kept)
    total = 0
    for e, factors in kept:
        total += _tree_product([pack(f.coeffs, width) for f in factors]) << 8 * width * e
    count = max(e + sum(len(f.coeffs) for f in factors) - len(factors) + 1 for e, factors in kept)
    return IntPoly(unpack(total, width, count))


def _tree_product(items: list[int]) -> int:
    # each round sorts by size and multiplies neighbours, so the few long
    # products come last
    while len(items) > 1:
        items = sorted(items, key=int.bit_length)
        pairs = [a * b for a, b in zip(items[::2], items[1::2])]
        items = pairs + items[2 * len(pairs) :]
    return items[0]


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))
