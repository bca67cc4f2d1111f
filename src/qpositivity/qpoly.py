"""Dense polynomials in q with arbitrary-precision integer coefficients.

A polynomial is stored as a tuple of ints, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  All values are
immutable and every operation is a pure function, so polynomials can be
shared freely between threads.  A sum of shifted terms is built by
shifted_sum, which adds every term into one list instead of making a new
polynomial per term.

Long products use Kronecker substitution: a polynomial is packed into the
integer that is its value at q = 256**width, one width-byte slot per
coefficient, and CPython's subquadratic bignum multiply does the
convolution.  Packing and unpacking take linear time.  A slot of at most 8
bytes is converted in C, all coefficients in one struct call on the
standard little-endian word that holds the slot, with width strided byte
copies between words and slots when the slot is narrower than its word.
Slots wider than 8 bytes go through one int.to_bytes or int.from_bytes call
per coefficient.  On either path a coefficient that does not fit its slot
raises OverflowError.  A polynomial with a negative coefficient is packed
with every slot raised by half a slot, which is then subtracted exactly, and
a signed result is unpacked the same way, so a product costs one pack per
operand, one bignum multiply and one unpack (Harvey, J. Symbolic Comput. 44,
2009).  `*` takes this path when both operands have more than
_SCHOOLBOOK_CUTOFF coefficients.

product_sum(terms) builds a sum of shifted products, q**e times a product
of factors per term: it packs every factor once, at a width that holds the
sum over the terms of the product of their factors' L1 norms, multiplies
each term's packed integers as a balanced tree, shifts it by e whole slots,
adds the integers and unpacks once.  product(factors) packs one such term.
A result of at most 2 * _SCHOOLBOOK_CUTOFF coefficients is built from
schoolbook `*` products instead, by product as a balanced tree and by
product_sum as a shifted_sum of such products.
"""

from __future__ import annotations

import struct
from itertools import repeat
from math import prod
from operator import add, sub
from typing import Any, Callable, Iterable, Iterator, Sequence


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


# Below this operand length schoolbook convolution beats packing.  For a
# product of several factors, packing won from results of about 22-30
# coefficients on, timed on the products the benchmark workloads make, so
# shorter results are built by schoolbook `*`.
_SCHOOLBOOK_CUTOFF = 16


def _slot_bytes(bound: int, signed: bool) -> int:
    """Bytes per slot for values of absolute value at most bound: below half
    a slot when signed, below a whole slot otherwise."""
    return (bound.bit_length() + signed + 7) // 8


def _halves(width: int, count: int) -> int:
    """Half a slot, 2**(8 * width - 1), in each of count slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


# Slots of at most 8 bytes are converted in C: struct packs or unpacks the
# coefficients as the standard little-endian word of 1, 2, 4 or 8 bytes that
# holds a slot, and a slot narrower than its word takes width strided slice
# copies between words and slots.  Slots wider than 8 bytes are converted one
# coefficient at a time.
_WORDS = ((1, "B"), (2, "H"), (4, "I"), (4, "I"), (8, "Q"), (8, "Q"), (8, "Q"), (8, "Q"))


def _word(width: int) -> tuple[int, str]:
    """Bytes and struct code of the smallest standard word holding a
    width-byte slot; (0, "") when the slot is wider than 8 bytes."""
    return _WORDS[width - 1] if width <= 8 else (0, "")


def _restride(src: bytes, src_stride: int, dst_stride: int) -> bytearray:
    """The records of src_stride bytes in src as records of dst_stride bytes:
    cut to their low bytes, or padded with zero bytes."""
    out = bytearray(len(src) // src_stride * dst_stride)
    for b in range(min(src_stride, dst_stride)):
        out[b::dst_stride] = src[b::src_stride]
    return out


def _pack(coeffs: Sequence[int], width: int, signed: bool) -> int:
    """The value at q = 256**width.  Signed coefficients are raised by half a
    slot to fit an unsigned slot, and the raise is subtracted again."""
    count = len(coeffs)
    half = 1 << (8 * width - 1)
    size, code = _word(width)
    if size:
        try:
            data = struct.pack(f"<{count}{code}", *(map(add, coeffs, repeat(half)) if signed else coeffs))
        except struct.error as exc:
            raise OverflowError(f"coefficient too large for a slot of {width} bytes") from exc
        if size != width:
            # the bytes of each word above the slot must be zero, as
            # to_bytes(width) would demand
            if any(data[b::size] != bytes(count) for b in range(width, size)):
                raise OverflowError(f"coefficient too large for a slot of {width} bytes")
            data = _restride(data, size, width)
    elif signed:
        data = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
    else:
        data = b"".join([c.to_bytes(width, "little") for c in coeffs])
    value = int.from_bytes(data, "little")
    return value - _halves(width, count) if signed else value


def _unpack(v: int, width: int, count: int, signed: bool) -> list[int]:
    """The count coefficients of the polynomial whose value at 256**width is v."""
    if signed:
        v += _halves(width, count)
    data = v.to_bytes(width * count, "little")
    half = 1 << (8 * width - 1)
    size, code = _word(width)
    if size:
        words = data if size == width else _restride(data, width, size)
        coeffs = struct.unpack(f"<{count}{code}", words)
        return list(map(sub, coeffs, repeat(half))) if signed else list(coeffs)
    if signed:
        return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, width * count, width)]
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, width * count, width)]


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
        a, b = self.coeffs, other.coeffs
        out = list(a)
        if len(b) > len(a):
            out.extend(repeat(0, len(b) - len(a)))
        out[: len(b)] = map(sub, out[: len(b)], b)
        return IntPoly(out)

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
    a_signed, b_signed = min(a) < 0, min(b) < 0
    signed = a_signed or b_signed
    width = _slot_bytes(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)), signed)
    packed = _pack(a, width, a_signed) * _pack(b, width, b_signed)
    return IntPoly(_unpack(packed, width, len(a) + len(b) - 1, signed))


def product(factors: Iterable[IntPoly]) -> IntPoly:
    """The product of factors; ONE for none.

    A result of at most 2 * _SCHOOLBOOK_CUTOFF coefficients is built by `*`
    as a balanced tree, so every multiply in it is schoolbook.  A longer one
    is packed, at a slot width holding the product of the factors' L1 norms,
    which bounds every coefficient of the result."""
    factors = list(factors)
    if len(factors) < 2:
        return factors[0] if factors else ONE
    polys = [f.coeffs for f in factors]
    if not all(polys):
        return ZERO
    if _product_length(polys) <= 2 * _SCHOOLBOOK_CUTOFF:
        return _tree_product(factors, lambda f: len(f.coeffs))
    return _packed_sum([(0, polys)], prod(sum(map(abs, p)) for p in polys))


def product_sum(terms: Iterable[tuple[int, Iterable[IntPoly]]]) -> IntPoly:
    """The sum of q**e * product(factors) over the (e, factors) pairs
    (e >= 0); a term with a zero factor is skipped whatever its e.

    A result of at most 2 * _SCHOOLBOOK_CUTOFF coefficients is the
    shifted_sum of the terms' products.  A longer one is packed, every factor
    once, at a slot width holding the sum over the terms of the product of
    their factors' L1 norms, which bounds every coefficient of the result:
    each term is one tree product of packed integers, shifted by whole
    slots, and the sum is unpacked once."""
    kept = []
    for e, factors in terms:
        factors = list(factors) or [ONE]
        polys = [f.coeffs for f in factors]
        if not all(polys):
            continue
        if e < 0:
            raise ValueError(f"negative shift {e}")
        kept.append((e, factors, polys))
    if not kept:
        return ZERO
    if max(e + _product_length(polys) for e, _, polys in kept) <= 2 * _SCHOOLBOOK_CUTOFF:
        return shifted_sum((e, product(factors)) for e, factors, _ in kept)
    bound = sum(prod(sum(map(abs, p)) for p in polys) for _, _, polys in kept)
    return _packed_sum([(e, polys) for e, _, polys in kept], bound)


def _product_length(polys: list[Sequence[int]]) -> int:
    return sum(map(len, polys)) - len(polys) + 1


def _packed_sum(terms: list[tuple[int, list[Sequence[int]]]], bound: int) -> IntPoly:
    # Pack each coefficient list once, at a width that holds every result
    # coefficient (at most bound in absolute value), so CPython's
    # subquadratic bignum multiply does the convolutions; a shift by e is
    # e whole slots.  Unpack the sum once.
    signed = any(min(p) < 0 for _, polys in terms for p in polys)
    width = _slot_bytes(bound, signed)
    total = 0
    for e, polys in terms:
        packed = [_pack(p, width, min(p) < 0) for p in polys]
        total += _tree_product(packed, int.bit_length) << 8 * width * e
    count = max(e + _product_length(polys) for e, polys in terms)
    return IntPoly(_unpack(total, width, count, signed))


def _tree_product(items: list, size: Callable) -> Any:
    # each round sorts by size and multiplies neighbours, so the few long
    # products come last
    while len(items) > 1:
        items = sorted(items, key=size)
        pairs = [a * b for a, b in zip(items[::2], items[1::2])]
        items = pairs + items[2 * len(pairs) :]
    return items[0]


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))
