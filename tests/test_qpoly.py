import json
import random
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from qpositivity.qpoly import (
    _SCHOOLBOOK_CUTOFF,
    DegreeExceedsBound,
    IntPoly,
    NotDivisible,
    ONE,
    ZERO,
    _pack,
    _unpack,
    product,
    product_sum,
    shifted_sum,
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
    operands, a ZERO factor now and then, shifts from 0 past 2 * cutoff."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        factors = [IntPoly(f) for f in draw(st.lists(kernel_operands(24), min_size=1, max_size=3))]
        if draw(st.integers(0, 5)) == 0:
            factors.insert(draw(st.integers(0, len(factors))), ZERO)
        terms.append((draw(st.integers(0, 2 * _SCHOOLBOOK_CUTOFF + 8)), factors))
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
    # Operands above the schoolbook cutoff exercise the packed-integer path.
    rng = random.Random(20260826)
    for _ in range(5):
        a = [rng.randint(-10**9, 10**9) for _ in range(120)]
        b = [rng.randint(-10**9, 10**9) for _ in range(97)]
        assert (IntPoly(a) * IntPoly(b)).coeffs == tuple(naive_mul(a, b))


class TestKernels:
    @settings(max_examples=300, deadline=None)
    @given(kernel_operands(2 * _SCHOOLBOOK_CUTOFF + 4), kernel_operands(2 * _SCHOOLBOOK_CUTOFF + 4))
    def test_mul_matches_naive_reference_across_the_cutoff(self, a, b):
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
        # Results of 2 * _SCHOOLBOOK_CUTOFF coefficients and fewer are built
        # by `*`, longer ones packed: nonnegative and mixed-sign factors, and
        # a q-Pochhammer-like list of many sparse factors.
        rng = random.Random(20261018)
        edge = 2 * _SCHOOLBOOK_CUTOFF
        shapes = ([2, 2], [edge // 2, edge // 2 + 1], [edge // 2 + 1] * 2, [edge // 4 + 1] * 4, [100, 100, 100])
        cases = [[[rng.randint(lo, 10**12) for _ in range(n)] for n in sizes] for sizes in shapes for lo in (0, -(10**12))]
        cases.append([[1] + [0] * (k - 1) + [-1] for k in range(1, 30)])
        for factors in cases:
            expected = [1]
            for f in factors:
                expected = naive_mul(expected, f)
            assert product(IntPoly(f) for f in factors).coeffs == tuple(expected)


class TestPacking:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("width", range(1, 27))
    def test_round_trip_and_value(self, width, signed):
        # Widths up to 8 take the word path, wider ones the per-coefficient
        # path.  Coefficients include the extremes a slot holds.
        half = 1 << (8 * width - 1)
        edges = [-half, -(half - 1), 0, half - 1] if signed else [0, half - 1, 2 * half - 1]
        rng = random.Random(width)
        for count in (0, 1, 5, 300):
            cases = [[edge] * count for edge in edges]
            cases.append([rng.choice(edges + [rng.randint(edges[0], edges[-1])]) for _ in range(count)])
            for cs in cases:
                packed = _pack(cs, width, signed)
                assert packed == sum(c << (8 * width * i) for i, c in enumerate(cs))
                assert _unpack(packed, width, count, signed) == cs

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("width", range(1, 27))
    def test_coefficient_past_the_slot_raises(self, width, signed):
        # a slot narrower than its struct word must not drop the word's high
        # bytes silently
        half = 1 << (8 * width - 1)
        for bad in (-half - 1, half) if signed else (-1, 2 * half):
            for count in (1, 300):
                with pytest.raises(OverflowError):
                    _pack([0] * (count - 1) + [bad], width, signed)

    def test_pinned_values(self):
        # a transposed strided copy would round-trip but pack other values
        assert _pack([1, 2, 3], 3, False) == 1 + 2 * 256**3 + 3 * 256**6
        assert _pack([1, 2, 3] * 10, 3, False) == sum(c * 256 ** (3 * i) for i, c in enumerate([1, 2, 3] * 10))
        assert _pack([-1, 2], 5, True) == -1 + 2 * 256**5
        assert _unpack(1 + 2 * 256**3 + 3 * 256**6, 3, 3, False) == [1, 2, 3]
        with pytest.raises(OverflowError):
            _pack([2**24] * 30, 3, False)


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
        # each term fits one byte and their sum needs two, so the slot width
        # must bound the sum and not the largest term
        top = IntPoly([0] * 40 + [255])
        assert product_sum([(0, [top]), (0, [top])]) == IntPoly([0] * 40 + [510])
        with pytest.raises(ValueError):
            product_sum([(-1, [P(1)])])

    def test_on_both_sides_of_the_short_threshold(self):
        # A shift past every other term, mixed signs, byte-slot edges, and
        # results of 2 * _SCHOOLBOOK_CUTOFF coefficients and one more.
        rng = random.Random(20261019)
        edge = 2 * _SCHOOLBOOK_CUTOFF
        for lo in (0, -(2**63)):
            factors = [IntPoly(rng.randint(lo, 2**63 - 1) for _ in range(n)) for n in (edge // 2, edge // 2, 40)]
            for length in (edge, edge + 1):
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
