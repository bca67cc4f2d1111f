import json
import pickle
import random
from itertools import zip_longest
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qpositivity.qcombinat import Division
from qpositivity.qpoly import (
    DegreeExceedsBound,
    IntPoly,
    NotDivisible,
    ONE,
    ZERO,
    pack,
    packed_quotient,
    product,
    product_sum,
    shifted_sum,
    slot_bytes,
    slot_width,
    unpack,
)

from oracles import naive_mul

# Coefficient space the ring-axiom properties are drawn from: degree <= 4,
# coefficients in [-3, 3].
small_polys = st.builds(
    IntPoly, st.lists(st.integers(min_value=-3, max_value=3), max_size=5)
)

# (e, poly) terms for shifted_sum: shifts from 0 that overlap or leave gaps,
# coefficients small, negative or far beyond a machine word, zero polys too.
shifted_terms = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.builds(IntPoly, st.lists(st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40)), max_size=6)),
    ),
    max_size=6,
)


# Kernel coefficients: small, far beyond a machine word, and at the edges of
# byte slots, +-2**(8j-1) and +-(2**(8j)-1) with their neighbours.
slot_edges = st.builds(
    lambda j, edge, step, sign: sign * (edge(j) + step),
    st.integers(1, 6),
    st.sampled_from([lambda j: 1 << (8 * j - 1), lambda j: (1 << 8 * j) - 1]),
    st.integers(-1, 1),
    st.sampled_from([1, -1]),
)
kernel_coeffs = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40), slot_edges)


@st.composite
def kernel_operands(draw, max_len):
    """A coefficient list of 1..max_len entries, all >= 0 about half the time."""
    n = draw(st.integers(1, max_len))
    coeffs = draw(st.lists(kernel_coeffs, min_size=n, max_size=n))
    return list(map(abs, coeffs)) if draw(st.booleans()) else coeffs


# Polynomials of 6 to 9 coefficients, longer than every small_polys draw.
long_polys = st.builds(
    lambda cs, top: IntPoly(cs + [top]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=8),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
)


@st.composite
def product_terms(draw):
    """(e, factors) terms for product_sum: up to 4 terms of 1 to 3 kernel
    operands, a ZERO factor now and then, shifts from 0 to 40."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        factors = [IntPoly(f) for f in draw(st.lists(kernel_operands(24), min_size=1, max_size=3))]
        if draw(st.integers(0, 5)) == 0:
            factors.insert(draw(st.integers(0, len(factors))), ZERO)
        terms.append((draw(st.integers(0, 40)), factors))
    return terms


def naive_product_sum(terms):
    """The sum of q**e times a left-to-right naive_mul chain of the factors."""
    total = []
    for e, factors in terms:
        chain = [1]
        for poly in factors:
            chain = naive_mul(chain, list(poly.coeffs))
        if chain:
            total = [x + y for x, y in zip_longest(total, [0] * e + chain, fillvalue=0)]
    return IntPoly(total)


def P(*coeffs):
    return IntPoly(coeffs)


class TestBasics:
    def test_canonical_trailing_zeros(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).coeffs == ()

    def test_zero_degree_sentinel(self):
        assert ZERO.degree is None
        assert P(1).degree == 0
        assert P(0, 0, 5).degree == 2

    def test_sub_examples(self):
        assert P(1, 2, 3) - P(0, 2, 3) == P(1)
        assert (P(1, 2, 3) - P(0, 2, 3)).coeffs == (1,)
        assert P(1) - P(0, 0, 4) == P(1, 0, -4)
        assert ZERO - P(1, 1) == P(-1, -1)
        assert P(1, 1) - ZERO == P(1, 1)

    def test_add_examples(self):
        assert P(1, 1) + ZERO == P(1, 1)
        assert P(1, 1) + P(-1, -1) == ZERO
        assert P(1, 1) + P(0, 1, 1) == P(1, 2, 1)

    def test_mul_examples(self):
        assert P(1, 1) * ONE == P(1, 1)
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)
        assert P(1, 1) * ZERO == ZERO

    def test_shift_examples(self):
        assert P(1, 1).shift(0) == P(1, 1)
        assert ONE.shift(3) == P(0, 0, 0, 1)
        assert P(1, 1).shift(2) == P(0, 0, 1, 1)
        with pytest.raises(ValueError):
            P(1).shift(-1)

    def test_str(self):
        assert str(ZERO) == "0"
        assert str(P(1, 1, 2)) == "1 + q + 2q^2"
        assert str(P(1, -1)) == "1 - q"
        assert str(P(0, 0, -3)) == "-3q^2"


class TestExactDiv:
    def test_examples(self):
        assert P(1, 0, -1).exact_div(P(1, -1)) == P(1, 1)
        assert P(3, 1, 4).exact_div(P(3, 1, 4)) == ONE
        assert P(1, 1, 1, 1).exact_div(P(1, 0, 1)) == P(1, 1)

    def test_not_divisible_carries_remainder(self):
        with pytest.raises(NotDivisible) as exc:
            P(1, 0, 1).exact_div(P(1, 1))
        assert not exc.value.remainder.is_zero()

    def test_zero_numerator(self):
        assert ZERO.exact_div(P(1, 1)) == ZERO

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            P(1).exact_div(ZERO)

    def test_non_unit_leading_coefficient(self):
        assert P(0, 0, 4).exact_div(P(0, 2)) == P(0, 2)
        with pytest.raises(NotDivisible):
            P(0, 3).exact_div(P(2))


def divide_packed(p, den):
    """packed_quotient as F calls it: the dividend packed at the first width
    that holds its coefficients and den's L1 norm, with a Division by den."""
    den_l1 = sum(map(abs, den))
    width = slot_bytes(max(max(map(abs, p), default=0), den_l1))
    dividend, packed_den = pack(p.coeffs, width), pack(den.coeffs, width)
    return packed_quotient(dividend, len(p.coeffs), width, Division(den, "den"), packed_den, den_l1)


def division_outcome(divide, p, den):
    """The quotient, or the remainder carried by the NotDivisible raised."""
    try:
        return "quotient", divide(p, den)
    except NotDivisible as exc:
        return "remainder", exc.remainder


# Monic divisors, whose other coefficients are kernel coefficients.
monic_polys = st.builds(lambda cs: IntPoly(cs + [1]), st.lists(kernel_coeffs, max_size=6))


class TestPackedQuotient:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(kernel_coeffs, max_size=12), monic_polys, st.lists(kernel_coeffs, max_size=6))
    def test_matches_exact_div(self, quotient, den, remainder):
        # exact quotients, and the same products plus a remainder of lower
        # degree than den, which exact_div must reject with the same remainder
        exact = IntPoly(quotient) * den
        for p in (exact, exact + IntPoly(remainder[: len(den.coeffs) - 1])):
            assert division_outcome(divide_packed, p, den) == division_outcome(IntPoly.exact_div, p, den)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(kernel_coeffs, max_size=12), monic_polys)
    def test_arbitrary_dividends(self, coeffs, den):
        p = IntPoly(coeffs)
        assert division_outcome(divide_packed, p, den) == division_outcome(IntPoly.exact_div, p, den)

    def test_examples(self):
        assert divide_packed(P(-1, 0, 1), P(-1, 1)) == P(1, 1)
        assert divide_packed(ZERO, P(5, -3, 1)) == ZERO
        assert divide_packed(P(7), ONE) == P(7)
        # a dividend shorter than the divisor
        for p in (P(3), P(-3, 200), P(128)):
            with pytest.raises(NotDivisible) as exc:
                divide_packed(p, P(1, -1, 1))
            assert exc.value.remainder == p
        with pytest.raises(NotDivisible) as exc:
            divide_packed(P(1, 0, 1), P(1, 1))
        assert exc.value.remainder == P(2)

    def test_quotient_wider_than_the_dividend(self):
        def at_width(p, den, width):
            dividend, packed_den = pack(p.coeffs, width), pack(den.coeffs, width)
            den_l1 = sum(map(abs, den))
            return packed_quotient(dividend, len(p.coeffs), width, Division(den, "den"), packed_den, den_l1)

        # (q - 1) * c(1 + q + ... + q^9) = -c + c q^10 fills two bytes, but
        # the certificate needs c * ||q - 1||_1 = 2c below half a slot, so
        # the unpacked dividend is divided exactly
        c = 2**15 - 1
        p, den = P(-c, *[0] * 9, c), P(-1, 1)
        assert at_width(p, den, 2) == IntPoly([c] * 10)
        # (1 - q)^2 times the bump (i + 1)(39 - i), whose coefficients reach
        # 400, is 39 - 2q - ... - 2q^39 + 39q^40: one byte holds the dividend
        # but not the quotient
        quotient, den = IntPoly((i + 1) * (39 - i) for i in range(39)), P(1, -2, 1)
        p = quotient * den
        assert max(map(abs, p)) == 39
        assert at_width(p, den, 1) == quotient
        # (q - 1)(100 + 200q + 127q^2) fills one byte, but the quotient's
        # 200 does not fit a signed byte, so its unpack overflows
        quotient, den = P(100, 200, 127), P(-1, 1)
        p = quotient * den
        assert p == P(-100, -100, 73, 127)
        with pytest.raises(OverflowError):
            unpack(divmod(pack(p.coeffs, 1), pack(den.coeffs, 1))[0], 1, 3)
        assert at_width(p, den, 1) == quotient


class TestReverse:
    def test_examples(self):
        assert P(1, 1).reverse_to_degree(1) == P(1, 1)
        assert ONE.reverse_to_degree(2) == P(0, 0, 1)
        assert P(1, 2).reverse_to_degree(3) == P(0, 0, 2, 1)

    def test_zero(self):
        assert ZERO.reverse_to_degree(5) == ZERO

    def test_bound_violation(self):
        with pytest.raises(DegreeExceedsBound):
            P(1, 1, 1).reverse_to_degree(1)


class TestScalarQueries:
    def test_is_nonneg(self):
        assert ZERO.is_nonneg()
        assert P(1, 1, 1).is_nonneg()
        assert not P(1, -1).is_nonneg()

    def test_eval_at_one(self):
        assert ZERO.eval_at_one() == 0
        assert P(1, 1, 1).eval_at_one() == 3


class TestRingProperties:
    @given(small_polys, small_polys, small_polys)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(small_polys, small_polys)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(small_polys, small_polys, small_polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    def test_mul_matches_naive_reference(self, a, b):
        assert (a * b).coeffs == tuple(naive_mul(list(a.coeffs), list(b.coeffs)))

    @given(small_polys, small_polys)
    def test_exact_div_roundtrip(self, p, d):
        product = p * d
        if d.is_zero():
            return
        assert d * product.exact_div(d) == product

    @given(small_polys)
    def test_reverse_involution(self, p):
        d = 0 if p.degree is None else p.degree
        assert p.reverse_to_degree(d + 2).reverse_to_degree(d + 2) == p

    @given(small_polys, long_polys)
    def test_sub_is_add_of_negation(self, short, long):
        assert short - long == short + (-long)
        assert long - short == long + (-short)
        assert (long - long).coeffs == ()
        assert (short - short).coeffs == ()

    @given(small_polys, small_polys)
    def test_eval_at_one_is_homomorphism(self, a, b):
        assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()
        assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()


class TestShiftedSum:
    @given(shifted_terms)
    def test_matches_repeated_add_and_shift(self, terms):
        total = ZERO
        for e, poly in terms:
            total = total + poly.shift(e)
        assert shifted_sum(terms).coeffs == total.coeffs
        assert shifted_sum(iter(terms)).coeffs == total.coeffs

    @given(shifted_terms)
    def test_full_cancellation_is_zero(self, terms):
        assert shifted_sum(terms + [(e, -poly) for e, poly in reversed(terms)]).coeffs == ()

    def test_examples(self):
        assert shifted_sum([]).coeffs == ()
        assert shifted_sum([(0, P(1, 2))]) == P(1, 2)
        assert shifted_sum([(0, P(1, 2)), (3, P(5))]) == P(1, 2, 0, 5)
        assert shifted_sum([(1, P(1, 1)), (0, P(1, -1, 0, 4))]) == P(1, 0, 1, 4)
        assert shifted_sum([(0, P(1, 0, 2)), (2, P(-2))]).coeffs == (1,)
        assert shifted_sum([(2, ZERO), (0, ZERO)]).coeffs == ()

    def test_negative_shift(self):
        with pytest.raises(ValueError):
            shifted_sum([(0, P(1)), (-1, P(1))])
        # a zero term adds nothing, whatever its shift
        assert shifted_sum([(-1, ZERO), (1, P(3))]) == P(0, 3)


def test_kronecker_path_matches_naive_reference():
    # Long operands with coefficients of about 30 bits.
    rng = random.Random(20260826)
    for _ in range(5):
        a = [rng.randint(-10**9, 10**9) for _ in range(120)]
        b = [rng.randint(-10**9, 10**9) for _ in range(97)]
        assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(naive_mul(a, b))


class TestKernels:
    @settings(max_examples=300, deadline=None)
    @given(kernel_operands(20), kernel_operands(21))
    def test_mul_matches_naive_reference_across_the_cutoff(self, a, b):
        # results of 1 to 40 coefficients
        assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(naive_mul(a, b))

    def test_short_times_long(self):
        # a short operand times a long one: slot-edge and signed
        # coefficients, either operand first; the result's third coefficient
        # is 2 * 2**126 + (2**63 - 1)**2, past a 16-byte signed slot
        rng = random.Random(20261020)
        edges = [-(2**63), 2**63 - 1, -129, -128, 127, 128, 255, 256, -1, 0, 1]
        short = [-(2**63), -(2**63), 2**63 - 1]
        long = [2**63 - 1, -(2**63), -(2**63)] + [rng.choice(edges) for _ in range(196)] + [-128]
        for a, b in ((short, long), (long, short), ([abs(c) for c in short], [abs(c) for c in long])):
            assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(naive_mul(a, b))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(kernel_operands(40), max_size=6), st.booleans())
    def test_product_matches_naive_chain(self, factors, with_zero):
        polys = [IntPoly(f) for f in factors]
        if with_zero:
            polys.insert(len(polys) // 2, ZERO)
        expected = [1]
        for poly in polys:
            expected = naive_mul(expected, list(poly.coeffs))
        assert product(polys).coeffs == tuple(expected)
        assert product(iter(polys)) == product(polys)

    def test_coefficient_at_the_width_bound_keeps_its_sign_bit(self):
        # -136 has 8 bits and equals the bound that sets the slot width, so
        # a signed slot needs a ninth bit and a second byte.
        a, b = [-8] * 17, [1] * 17
        assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(naive_mul(a, b))
        assert product([IntPoly([0] * 20 + [-8]), IntPoly([0] * 20 + [17])]) == IntPoly([0] * 40 + [-136])

    def test_product_examples(self):
        long = IntPoly(range(1, 50))
        assert product([]) is ONE
        assert product([long]) is long
        assert product([ZERO]) == ZERO
        assert product([long, ZERO, long]) == ZERO
        assert product([P(1, 1), P(1, -1)]) == P(1, 0, -1)

    def test_product_on_both_sides_of_the_short_threshold(self):
        # Every result length from 1 to 40, and longer ones: nonnegative and
        # mixed-sign factors, and a q-Pochhammer-like list of many sparse
        # factors.
        rng = random.Random(20261018)
        shapes = [[(length + 1) // 2, length // 2 + 1] for length in range(1, 41)] + [[9] * 4, [100, 100, 100]]
        cases = [[[rng.randint(lo, 10**12) for _ in range(n)] for n in sizes] for sizes in shapes for lo in (0, -(10**12))]
        cases.append([[1] + [0] * (k - 1) + [-1] for k in range(1, 30)])
        for factors in cases:
            expected = [1]
            for f in factors:
                expected = naive_mul(expected, f)
            assert product(IntPoly(f) for f in factors).coeffs == tuple(expected)


class TestPacking:
    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("width", range(1, 27))
    def test_round_trip_and_value(self, width, negative):
        # Widths 1, 2, 4 and 8 take one struct call, every other width the
        # per-coefficient path.  Coefficients include the extremes a slot
        # holds, with or without negative ones.
        half = 1 << (8 * width - 1)
        edges = [-half, -(half - 1), 0, half - 1] if negative else [0, half - 1]
        rng = random.Random(width)
        for count in (0, 1, 5, 300):
            cases = [[edge] * count for edge in edges]
            cases.append([rng.choice(edges + [rng.randint(edges[0], edges[-1])]) for _ in range(count)])
            for cs in cases:
                packed = pack(cs, width)
                assert packed == sum(c << (8 * width * i) for i, c in enumerate(cs))
                assert unpack(packed, width, count) == cs

    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("width", range(1, 27))
    def test_coefficient_past_the_slot_raises(self, width, negative):
        # on either path a coefficient outside its slot raises, and never
        # wraps into a two's complement slot: below -half, or from half on,
        # which a nonnegative coefficient reaches at the top bit of its slot
        half = 1 << (8 * width - 1)
        for bad in (-half - 1, half) if negative else (half, 2 * half - 1):
            for count in (1, 300):
                with pytest.raises(OverflowError):
                    pack([0] * (count - 1) + [bad], width)

    def test_pinned_values(self):
        # a slot layout with its bytes out of order would round-trip but
        # pack other values; 3- and 5-byte slots take the per-coefficient path
        assert pack([1, 2, 3], 3) == 1 + 2 * 256**3 + 3 * 256**6
        assert pack([1, 2, 3] * 10, 3) == sum(c * 256 ** (3 * i) for i, c in enumerate([1, 2, 3] * 10))
        assert pack([-1, 2], 5) == -1 + 2 * 256**5
        assert unpack(1 + 2 * 256**3 + 3 * 256**6, 3, 3) == [1, 2, 3]
        for bad in (2**23, 2**24):
            with pytest.raises(OverflowError):
                pack([bad] * 30, 3)


class TestSlotBytes:
    def test_rounds_to_a_word_up_to_8_bytes(self):
        # at every byte edge: never below the exact byte count, the smallest
        # struct word that holds it up to 8 bytes, and the count itself above
        for j in range(1, 11):
            for edge in (1 << (8 * j - 1), 1 << (8 * j)):
                for bound in (edge - 1, edge, edge + 1):
                    exact = (bound.bit_length() + 8) // 8
                    width = slot_bytes(bound)
                    assert width >= exact
                    assert bound < 1 << (8 * width - 1)
                    if exact <= 8:
                        assert width == min(w for w in (1, 2, 4, 8) if w >= exact)
                    else:
                        assert width == exact

    def test_zero_takes_one_byte(self):
        assert slot_bytes(0) == 1

    def test_half_slot_boundaries(self):
        # a bound takes the next width once it reaches half a slot
        assert slot_bytes(127) == 1
        assert slot_bytes(128) == 2
        assert slot_bytes(2**63 - 1) == 8
        assert slot_bytes(2**63) == 9


@st.composite
def equal_terms(draw):
    """Many copies of one single-factor term at one shift, whose sum needs a
    wider word than the term alone: the factor's largest |c| is 1/2 to 1/40
    of its word's half slot, and there are just enough copies for the sum
    to pass that half slot, so a width that bounds the largest term alone
    does not hold the sum."""
    half = 1 << (8 * draw(st.sampled_from([1, 2, 4, 8])) - 1)
    top = (half - 1) // draw(st.integers(2, 40))
    length = draw(st.integers(1, 9))
    coeffs = draw(st.lists(st.integers(-top, top), min_size=length, max_size=length))
    coeffs[draw(st.integers(0, length - 1))] = draw(st.sampled_from([top, -top]))
    factor, e = IntPoly(coeffs), draw(st.integers(0, 5))
    return [(e, [factor])] * (half // top + 1 + draw(st.integers(0, 2)))


class TestSlotWidth:
    @settings(max_examples=300, deadline=None)
    @given(product_terms())
    def test_holds_the_sum_and_is_no_wider_than_the_l1_bound(self, terms):
        # product_sum's factors: a term with a zero factor is skipped
        kept = [factors for _, factors in terms if all(factors)]
        width = slot_width(kept)
        half = 1 << (8 * width - 1)
        assert all(-half < c < half for c in naive_product_sum(terms).coeffs)
        # the width the product of the factors' L1 norms gives
        assert width <= slot_bytes(sum(prod(sum(map(abs, f.coeffs)) for f in factors) for factors in kept))

    @settings(max_examples=100, deadline=None)
    @given(equal_terms())
    def test_holds_a_sum_wider_than_its_largest_term(self, terms):
        width = slot_width(factors for _, factors in terms)
        half = 1 << (8 * width - 1)
        expected = naive_product_sum(terms)
        assert all(-half < c < half for c in expected.coeffs)
        # the sum passes the half slot that holds one term
        assert max(map(abs, expected.coeffs)) >= 1 << (8 * slot_width([terms[0][1]]) - 1)
        assert product_sum(terms) == expected

    def test_examples(self):
        assert slot_width([]) == 1
        assert slot_width([], 128) == 2
        # (1 + ... + q^99)^2 has coefficients up to 100: Young's bound is
        # 1 * 100 and fits one byte, the product of the L1 norms does not
        ones = IntPoly((1,) * 100)
        assert slot_width([[ones, ones]]) == 1
        assert slot_bytes(100 * 100) == 2
        # the bound adds over the terms, whatever their shifts
        assert slot_width([[P(100)], [P(28)]]) == 2
        assert slot_width([[P(100)], [P(27)]], 127) == 1
        # signed factors are bounded by their magnitudes
        assert slot_width([[P(-100, 3)], [P(0, -28)]]) == 2


class TestNorms:
    @pytest.mark.parametrize("poly", [ZERO, ONE, P(3, -5, 2), P(0, -1), IntPoly([10**40, 0, -(3**80), 7])])
    def test_match_recomputed_values(self, poly):
        magnitudes = [abs(c) for c in poly.coeffs]
        assert poly.norms == (max(magnitudes, default=0), sum(magnitudes))
        assert poly.norms is poly.norms  # computed once, then kept

    @given(st.lists(kernel_coeffs, max_size=8))
    def test_reading_them_changes_nothing_else(self, coeffs):
        poly, fresh = IntPoly(coeffs), IntPoly(coeffs)
        assert poly.norms == (max(map(abs, fresh.coeffs), default=0), sum(map(abs, fresh.coeffs)))
        assert poly == fresh and hash(poly) == hash(fresh)
        assert repr(poly) == repr(fresh) and str(poly) == str(fresh)
        assert pickle.dumps(poly) == pickle.dumps(fresh)
        copy = pickle.loads(pickle.dumps(poly))
        assert copy == fresh and copy.norms == poly.norms


class TestProductSum:
    @settings(max_examples=200, deadline=None)
    @given(product_terms())
    def test_matches_naive_shifted_chains(self, terms):
        assert product_sum(terms) == naive_product_sum(terms)
        assert product_sum(iter(terms)) == naive_product_sum(terms)

    def test_examples(self):
        long = IntPoly(range(1, 50))
        assert product_sum([]) == ZERO
        assert product_sum([(0, [long, ZERO])]) == ZERO
        assert product_sum([(-1, [ZERO]), (2, [long])]) == long.shift(2)
        assert product_sum([(3, [])]) == ONE.shift(3)
        assert product_sum([(0, [P(1, 1)]), (1, [P(1, 1), P(1, -1)])]) == P(1, 2, 0, -1)
        # each term fits a signed byte and their sum needs two, so the slot
        # width must bound the sum and not the largest term
        top = IntPoly([0] * 40 + [100])
        assert product_sum([(0, [top]), (0, [top])]) == IntPoly([0] * 40 + [200])
        with pytest.raises(ValueError):
            product_sum([(-1, [P(1)])])

    def test_on_both_sides_of_the_short_threshold(self):
        # A shift past every other term, mixed signs, byte-slot edges, and
        # results of every length from 1 to 40.
        rng = random.Random(20261019)
        for lo in (0, -(2**63)):
            for length in range(1, 41):
                sizes = ((length + 1) // 2, length // 2 + 1)
                halves = [IntPoly(rng.randint(lo, 2**63 - 1) for _ in range(n)) for n in sizes]
                terms = [(0, halves), (length - 1, [P(3)])]
                assert len(product_sum(terms).coeffs) == length
                assert product_sum(terms) == naive_product_sum(terms)
            factors = [IntPoly(rng.randint(lo, 2**63 - 1) for _ in range(n)) for n in (16, 16, 40)]
            for length in (32, 33):
                terms = [(0, factors[:2]), (length - 5, [P(3, -1, 4, 1, 5)])]
                assert len(product_sum(terms).coeffs) == length
                assert product_sum(terms) == naive_product_sum(terms)
            terms = [(0, factors[:2]), (300, [factors[2]]), (7, factors)]
            assert product_sum(terms) == naive_product_sum(terms)
        cancel = [(0, [P(1, 1)] * 40), (0, [P(-1, -1)] * 39 + [P(1, 1)])]
        assert product_sum(cancel).coeffs == ()


class TestSerialization:
    def test_round_trip_big_coefficients(self):
        p = IntPoly([10**40, -(3**80), 0, 7])
        blob = json.dumps(p.to_coeff_strings())
        assert IntPoly.from_coeff_strings(json.loads(blob)) == p

    def test_strings_lowest_degree_first(self):
        assert P(1, 0, 2).to_coeff_strings() == ["1", "0", "2"]
        assert ZERO.to_coeff_strings() == []
