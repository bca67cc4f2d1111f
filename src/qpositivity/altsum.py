"""Alternating sums of products of Gaussian coefficients.

The central object is

    F(m; n; a, b) = pre(m, n) * sum_{k=-n1}^{n1} (-1)^k q^{a k^2 + (2b-1) k(k-1)/2}
                    * prod_i gauss_binom(m_i + m_{i+1} + 1, m_i + k)
                    * prod_j gauss_binom(n_j + n_{j+1}, n_j + k)

with cyclic index wraparound and the prefactor

    pre(m, n) = [m1]![n1]![m_r + n_s + 1]! / ([m1 + m_r + 1]![n1 + n_s]!).

Only the q-power depends on (a, b).  So for each (m, n) a small cached term
table keeps, for each k with a nonzero term, the term's factors: its r + s
Gaussian coefficients and the prefactor's Phi_d with positive cyclotomic
exponent.  It keeps the division by the product D of the Phi_d with negative
exponent, both from qcombinat.cyclotomic_split.  Every factor and D are
packed as integers (Kronecker substitution, see qpoly) at one slot width,
fixed before any product by qpoly.slot_width, the Young bound that
product_sum uses too, so that it holds every coefficient of a sum of
shifted terms; a term is the signed product of its packed factors, and no
polynomial product is formed.
F adds the packed terms, each shifted by its exponent in whole slots, and
makes one divmod by the packed D with qpoly.packed_quotient, which
certifies the unpacked quotient exactly, and otherwise divides the unpacked
sum exactly with the table's Division.  A remainder proves that the sum is
not a polynomial: individual terms are not generally polynomial, so a
NotDivisible there is a meaningful global signal, not a per-term accident,
and the Division names the Phi_d exponent.

The deletion recurrence holds term by term in k, and each k-term reduces
to a kernel identity in (m1, m2, m3, m_r, k) alone (deletion_kernel_check).
So the deletion check is decided by three cached verdicts: the kernel holds
at every k in [-n1, n1], one verdict per k, F is a polynomial at the
instance, and F is a polynomial at every sub-instance.  Only when a kernel
fails does it take the summed route, with F at each sub-instance from a
table of its own.  The kernel and the summed route build both sides with
qpoly.product_sum, as the product and recombination checks do, so the term
table is the only packed code here.

F is the entry for one instance.  A scan walks its grid one (m, n) at a
time, through a Block: the term table evaluates each requested (a, b) once,
the q = 1 value, delta and the kernels' verdict are looked up once, and
each row's reciprocity and deletion checks are decided by the block.  They
are decided nowhere else: reciprocity_check and deletion_check are the
same methods on a block of the instance's one or two points.

The module also provides executable checks for the reciprocity relation
under q -> 1/q, the q-Chu-Vandermonde product identity, the deletion
recurrence that removes two adjacent m-parameters, and the cyclic-product
recombination step that recurrence relies on.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, prod
from operator import add
from typing import Iterable

from .qcombinat import Division, IdentityCheckResult, InvalidRange, choose2, cyclotomic_split, gauss_binom
from .qcombinat import q_poch, q_ratio, ratio_at_one
from .qpoly import IntPoly, NotDivisible, ZERO, pack, packed_quotient, product, product_sum, shifted_sum, slot_width


class CyclicParams(namedtuple("CyclicParams", "m n a b unsafe")):
    """Parameters (m-vector, n-vector, a, b) of the alternating sum F.

    Validation is strict here and nowhere else: r, s >= 2, every m_i >= 0,
    every n_j >= 1, 0 <= a <= s and 1 <= b <= r.  The a/b window checks can
    be waived with unsafe=True for out-of-theorem exploration; the shape
    constraints always hold (n_1 = 0 has no defined summation convention
    and is rejected outright), and so does the nonnegativity of every
    exponent a k^2 + (2b-1) k(k-1)/2 with |k| <= n_1.

    A named tuple (m, n, a, b, unsafe): immutable, and equal, hashed and
    pickled as that tuple; unpickling validates again.  Instances valid by
    construction, such as those the package derives from validated ones,
    are built by _make((m, n, a, b, unsafe)), which skips the validation.
    """

    __slots__ = ()

    def __new__(cls, m: Iterable[int], n: Iterable[int], a: int, b: int, unsafe: bool = False) -> "CyclicParams":
        m, n = tuple(m), tuple(n)
        _check_shape(m, n)
        r, s = len(m), len(n)
        if not unsafe:
            if not 0 <= a <= s:
                raise InvalidRange(f"need 0 <= a <= s={s}, got a={a}")
            if not 1 <= b <= r:
                raise InvalidRange(f"need 1 <= b <= r={r}, got b={b}")
        # a k^2 + (2b-1) k(k-1)/2 vanishes at k = 0 and is convex or linear
        # whenever it is >= 0 at k = +-1, where it is a and a + 2b - 1
        if a < 0 or a + 2 * b < 1:
            raise InvalidRange(f"a={a}, b={b} give a negative q-exponent for |k| <= {n[0]}")
        return super().__new__(cls, m, n, a, b, unsafe)

    @property
    def r(self) -> int:
        return len(self.m)

    @property
    def s(self) -> int:
        return len(self.n)


def _check_shape(m: tuple[int, ...], n: tuple[int, ...]) -> None:
    """Raise InvalidRange unless r, s >= 2, every m_i >= 0 and every n_j >= 1."""
    if len(m) < 2 or len(n) < 2:
        raise InvalidRange(f"need r >= 2 and s >= 2, got r={len(m)}, s={len(n)}")
    if any(mi < 0 for mi in m):
        raise InvalidRange(f"m entries must be >= 0, got {m}")
    if any(nj < 1 for nj in n):
        raise InvalidRange(f"n entries must be >= 1, got {n}")


def cyclic_product(m: tuple[int, ...], n: tuple[int, ...], k: int) -> IntPoly:
    """prod_i gauss_binom(m_i+m_{i+1}+1, m_i+k) * prod_j gauss_binom(n_j+n_{j+1}, n_j+k),
    with wraparound m_{r+1} = m_1, n_{s+1} = n_1."""
    return product([gauss_binom(N, K + k) for N, K in _cyclic_binoms(m, n)])


def _cyclic_binoms(m: tuple[int, ...], n: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (N, K) whose gauss_binom(N, K + k) are the factors of cyclic_product(m, n, k)."""
    r, s = len(m), len(n)
    return [(m[i] + m[(i + 1) % r] + 1, m[i]) for i in range(r)] + [
        (n[j] + n[(j + 1) % s], n[j]) for j in range(s)
    ]


class _TermTable:
    """The (a, b)-free part of F at (m, n): for each k with a nonzero term,
    the term, (-1)^k times the product of its factors, and the division by
    the prefactor's Phi_d with e_d < 0.  The terms and the divisor are
    packed once, at the qpoly.slot_width of the terms' factors with the
    divisor's L1 norm as its floor, which holds that norm and every
    coefficient of a sum of shifted terms; the norm is kept for the
    quotient's certificate."""

    __slots__ = ("ks", "lengths", "divide", "width", "terms", "divisor", "divisor_l1")

    def __init__(self, terms: tuple[tuple[int, tuple[IntPoly, ...]], ...], divide: Division) -> None:
        self.ks = [k for k, _ in terms]
        coeffs = [[f.coeffs for f in factors] for _, factors in terms]
        self.lengths = [sum(map(len, factors)) - len(factors) + 1 for factors in coeffs]
        self.divide = divide
        self.divisor_l1 = divide.divisor.norms[1]
        self.width = width = slot_width([factors for _, factors in terms], self.divisor_l1)
        packed = [prod([_packed_factor(f, width) for f in factors]) for factors in coeffs]
        self.terms = [-term if k % 2 else term for k, term in zip(self.ks, packed)]
        self.divisor = pack(divide.divisor.coeffs, width)

    def evaluate(self, a: int, b: int) -> IntPoly:
        """The sum of the terms shifted by q^{a k^2 + (2b-1) k(k-1)/2},
        divided: one packed sum and one packed_quotient, which raises
        NotDivisible on a remainder."""
        shifts = [a * k * k + (2 * b - 1) * choose2(k) for k in self.ks]
        dividend = sum(term << 8 * self.width * e for e, term in zip(shifts, self.terms))
        count = max(map(add, shifts, self.lengths))
        return packed_quotient(dividend, count, self.width, self.divide, self.divisor, self.divisor_l1)


# Five bounded caches, none of them of F's values.  A scan evaluates each
# block's points from one term table, and 16 tables hold it and the few
# deletion sub-instance tables its rows meet.  Only term tables pack
# factors: 37 of the 256 at r = s = 3, param-max 3, and 50 at r = s = 4; both
# grids split 108 of the 256 prefactors.  The deletion sub-instances recur
# only after a sweep over every m2, so only their verdicts are kept: 4096
# sets of polynomial (a, b), one per sub-instance (m, n), hold all 324 at
# r = s = 3 and all 2916 at r = s = 4, and 1024 kernel verdicts, one per
# (m1, m2, m3, m_r, k), all 189 and 567.
_split_prefactor = lru_cache(maxsize=256)(cyclotomic_split)


@lru_cache(maxsize=256)
def _packed_factor(coeffs: tuple[int, ...], width: int) -> int:
    """The polynomial with these coefficients in width-byte slots."""
    return pack(coeffs, width)


@lru_cache(maxsize=16)
def _term_table(m: tuple[int, ...], n: tuple[int, ...]) -> _TermTable:
    n1 = n[0]
    over, divide = _split_prefactor((m[0], n1, m[-1] + n[-1] + 1), (m[0] + m[-1] + 1, n1 + n[-1]))
    binoms = _cyclic_binoms(m, n)
    # gauss_binom(N, K + k) is nonzero exactly for -K <= k <= N - K
    low, high = max(-K for _, K in binoms), min(n1, *(N - K for N, K in binoms))
    terms = [(k, (*(gauss_binom(N, K + k) for N, K in binoms), *over)) for k in range(low, high + 1)]
    return _TermTable(tuple(terms), divide)


def F(params: CyclicParams) -> IntPoly:
    """Evaluate the alternating sum; raises NotDivisible when the prefactored
    sum is not a polynomial at these parameters."""
    return _term_table(params.m, params.n).evaluate(params.a, params.b)


@lru_cache(maxsize=4096)
def _polynomial_points(m: tuple[int, ...], n: tuple[int, ...]) -> set[tuple[int, int]]:
    """The (a, b) at which F at the sub-instance (m, n) has evaluated without
    NotDivisible, a set that Block.deletion fills; a failure is never added,
    so it is raised anew."""
    return set()


@lru_cache(maxsize=1024)
def _kernels_hold(m1: int, m2: int, m3: int, mr: int, k: int) -> bool:
    """Whether the deletion kernel holds at k."""
    return deletion_kernel_check(m1, m2, m3, mr, k).passed


def delta(m: tuple[int, ...], n: tuple[int, ...]) -> int:
    """The reciprocity exponent; also an upper bound for deg F."""
    r, s = len(m), len(n)
    d = (
        choose2(m[0])
        + choose2(n[0])
        + choose2(m[-1] + n[-1] + 1)
        - choose2(m[0] + m[-1] + 1)
        - choose2(n[0] + n[-1])
    )
    d += sum(m[i] * (m[(i + 1) % r] + 1) for i in range(r))
    d += sum(n[j] * n[(j + 1) % s] for j in range(s))
    return d


def _int_binom(N: int, K: int) -> int:
    return comb(N, K) if 0 <= K <= N else 0


def value_at_one_reference(params: CyclicParams) -> Fraction:
    """Independent integer-only evaluation of F at q = 1 (exact rational;
    integral whenever F is a polynomial).  It does not depend on (a, b)."""
    return _value_at_one(params.m, params.n)


def _value_at_one(m: tuple[int, ...], n: tuple[int, ...]) -> Fraction:
    r, s = len(m), len(n)
    n1 = n[0]
    total = 0
    for k in range(-n1, n1 + 1):
        prod = 1
        for i in range(r):
            prod *= _int_binom(m[i] + m[(i + 1) % r] + 1, m[i] + k)
        for j in range(s):
            prod *= _int_binom(n[j] + n[(j + 1) % s], n[j] + k)
        total += -prod if k % 2 else prod
    return ratio_at_one((m[0], n1, m[-1] + n[-1] + 1), (m[0] + m[-1] + 1, n1 + n[-1])) * total


def _reciprocity_dual(params: CyclicParams) -> CyclicParams:
    """The instance at (s-a, r-b+1).  An in-window instance's dual is in the
    window; an unsafe one's is validated, and InvalidRange names it."""
    key = (params.m, params.n, params.s - params.a, params.r - params.b + 1, params.unsafe)
    try:
        return CyclicParams(*key) if params.unsafe else CyclicParams._make(key)
    except InvalidRange:
        raise InvalidRange(
            f"the reciprocity dual (s-a, r-b+1) = ({key[2]}, {key[3]}) of a={params.a}, b={params.b}"
            " is out of range"
        ) from None


def reciprocity_check(params: CyclicParams) -> IdentityCheckResult:
    """Block.reciprocity at params, from a block of params and its dual;
    an out-of-range dual raises InvalidRange before anything is evaluated."""
    dual = _reciprocity_dual(params)
    return Block(params.m, params.n, dict.fromkeys([params[2:4], dual[2:4]])).reciprocity(params)


def product_identity_check(m1: int, m2: int, k: int) -> IdentityCheckResult:
    """Check the expansion of gauss_binom(m1+m2+1, m1+k)*gauss_binom(m1+m2+1, m2+k)
    as a sum over t of the q-multinomials
    [m1+m2+1]!/([t]![t+2k-1]![m1-k-t+1]![m2-k-t+1]!), which vanish when an
    index in the denominator goes negative, so t runs only over the window
    1-2k <= t <= min(m1, m2)-k+1 of t >= 0.  Written with q-Pochhammer
    symbols the (1-q) powers cancel, since the indices sum to m1+m2+1."""
    if m1 < 0 or m2 < 0:
        raise InvalidRange(f"product_identity_check({m1}, {m2}, {k})")
    lhs = gauss_binom(m1 + m2 + 1, m1 + k) * gauss_binom(m1 + m2 + 1, m2 + k)
    rhs = shifted_sum(
        (t * (t + 2 * k - 1), q_ratio((m1 + m2 + 1,), (t, t + 2 * k - 1, m1 - k - t + 1, m2 - k - t + 1)))
        for t in range(max(0, 1 - 2 * k), min(m1, m2) - k + 2)
    )
    diff = lhs - rhs
    info = {"m1": m1, "m2": m2, "k": k}
    return IdentityCheckResult("product", info, diff.is_zero(), diff)


def deletion_kernel_check(m1: int, m2: int, m3: int, mr: int, k: int) -> IdentityCheckResult:
    """Check the kernel of the deletion recurrence at k, with [N, K] =
    gauss_binom(N, K) and mr = m_r (m3 when r = 3):

        q^{k(k-1)} [m1+m2+1, m1+k] [m2+m3+1, m2+k] [mr+m1+1, mr+k]
          = sum_{0 <= ell <= min(m1, m2)} q^{ell^2+ell} [m2+m3+1, m2-ell] [m1+mr+1, m1-ell]
                                          * [ell+m3+1, ell+k] [mr+ell+1, mr+k].

    It involves neither n, a, b nor m_4, ..., m_{r-1}; see deletion_check."""
    if min(m1, m2, m3, mr) < 0:
        raise InvalidRange(f"deletion_kernel_check needs m1, m2, m3, mr >= 0, got {m1}, {m2}, {m3}, {mr}")
    lhs = product_sum([(k * (k - 1), [gauss_binom(m1 + m2 + 1, m1 + k), gauss_binom(m2 + m3 + 1, m2 + k),
                                      gauss_binom(mr + m1 + 1, mr + k)])])
    rhs = product_sum(
        (ell * ell + ell, [gauss_binom(m2 + m3 + 1, m2 - ell), gauss_binom(m1 + mr + 1, m1 - ell),
                           gauss_binom(ell + m3 + 1, ell + k), gauss_binom(mr + ell + 1, mr + k)])
        for ell in range(min(m1, m2) + 1)
    )
    diff = lhs - rhs
    info = {"m1": m1, "m2": m2, "m3": m3, "mr": mr, "k": k}
    return IdentityCheckResult("deletion-kernel", info, diff.is_zero(), diff)


def deletion_check(params: CyclicParams) -> IdentityCheckResult:
    """Check the recurrence deleting m_1, m_2: F at (r, b) equals the sum over
    0 <= ell <= m_1 of q^{ell^2+ell} C_ell, C_ell = gauss_binom(m1, ell)
    gauss_binom(m2+m3+1, m2-ell), times F at (r-1, b-1) with m-vector
    (ell, m3, ..., m_r).

    Both sides are pre times a sum over -n1 <= k <= n1, and the recurrence
    holds k-term by k-term.  Divide the k-term of each side by
    q^{a k^2 + (2b-3) k(k-1)/2}, leaving q^{k(k-1)} on the left, by the
    n-part of the cyclic product, by the middle factors [m_i+m_{i+1}+1, m_i+k]
    with 3 <= i < r, which the two sides share, and by pre(m, n), leaving
    pre(m', n) / pre(m, n) = [ell]! [m1+m_r+1]! / ([m1]! [ell+m_r+1]!) on the
    right.  Since [m1, ell] [ell]! [m1+m_r+1]! / ([m1]! [ell+m_r+1]!) =
    [m1+m_r+1, m1-ell], what is left is deletion_kernel_check at
    (m1, m2, m3, m_r, k).  So when the kernel holds at every k and every F
    involved is a polynomial, the two sides are equal, and the check passes
    with a zero difference.  Block.deletion decides it, from a block of the
    instance; r < 3 or b < 2 raises InvalidRange before anything is
    evaluated."""
    if params.r < 3 or params.b < 2:
        raise InvalidRange(
            f"deletion_check requires r >= 3 and 2 <= b <= r, got r={params.r}, b={params.b}"
        )
    return Block(params.m, params.n, [params[2:4]]).deletion(params)


def _deletion_check(params: CyclicParams) -> IdentityCheckResult:
    """The deletion check the summed way: lhs - rhs, the sum built by product_sum."""
    m, n, a, b = params.m, params.n, params.a, params.b
    m1, m2, m3 = m[:3]
    lhs = F(params)
    rhs = product_sum(  # gauss_binom(m2+m3+1, m2-ell) vanishes for ell > m2
        (ell * ell + ell, [gauss_binom(m1, ell), gauss_binom(m2 + m3 + 1, m2 - ell),
                           _term_table((ell,) + m[2:], n).evaluate(a, b - 1)])
        for ell in range(min(m1, m2) + 1)
    )
    diff = lhs - rhs
    return IdentityCheckResult("deletion", {"m": m, "n": n, "a": a, "b": b}, diff.is_zero(), diff)


class Block:
    """F at the (a, b) of points for one (m, n), the unit a scan walks, and
    F's reciprocity and deletion checks at them, which are decided here
    only.  values maps each (a, b) to F there, evaluated once from the term
    table, or to None where F is not a polynomial, and failures maps such an
    (a, b) to the NotDivisible of its evaluation, which a check at it
    raises; so a block holds at most len(points) polynomials.  The q = 1
    value, delta, the deletion kernels' verdict and the deletion
    sub-instance tables do not depend on (a, b), and each is looked up
    once, when first asked for."""

    def __init__(self, m: tuple[int, ...], n: tuple[int, ...], points: Iterable[tuple[int, int]]) -> None:
        self.m, self.n = m, n
        evaluate = _term_table(m, n).evaluate
        self.values: dict[tuple[int, int], IntPoly | None] = {}
        self.failures: dict[tuple[int, int], NotDivisible] = {}
        for a, b in points:
            try:
                self.values[a, b] = evaluate(a, b)
            except NotDivisible as exc:
                self.values[a, b], self.failures[a, b] = None, exc

    @cached_property
    def at_one(self) -> Fraction:
        return _value_at_one(self.m, self.n)

    @cached_property
    def delta(self) -> int:
        return delta(self.m, self.n)

    @cached_property
    def kernels(self) -> bool:
        """Whether the deletion kernel of m holds at every k in [-n1, n1]."""
        (m1, m2, m3, *_), mr, n1 = self.m, self.m[-1], self.n[0]
        return all(_kernels_hold(m1, m2, m3, mr, k) for k in range(-n1, n1 + 1))

    @cached_property
    def subs(self) -> list[tuple[tuple[int, ...], set[tuple[int, int]]]]:
        """For each deletion sub-instance table ((ell, m3, ..., m_r), n) with
        ell <= min(m1, m2), its m-vector and its set of polynomial points.
        At (a, b - 1) it gives F at a valid instance (r - 1 >= 2,
        a + 2(b - 1) >= 1) when (m, n, a, b) is one with b >= 2, whether or
        not it is in the window."""
        subs = [(ell,) + self.m[2:] for ell in range(min(self.m[:2]) + 1)]
        return [(sub, _polynomial_points(sub, self.n)) for sub in subs]

    def reciprocity(self, params: CyclicParams) -> IdentityCheckResult:
        """Check that reversing F(s-a, r-b+1) at degree delta(m, n) recovers
        F(a, b), together with the degree bound making the reversal
        lossless; (a, b) is one of the block's points.  The dual's value
        comes from the block when the dual is among its points, and
        otherwise from F.  The instance's NotDivisible is raised before the
        dual's; the difference is built only when the check fails."""
        point, dual = params[2:4], (params.s - params.a, params.r - params.b + 1)
        p = self.values[point]
        if p is None:
            raise self.failures[point]
        q = self.values[dual] if dual in self.values else F(_reciprocity_dual(params))
        if q is None:
            raise self.failures[dual]
        bound = self.delta
        pad = bound + 1 - len(q.coeffs)
        info = {"m": params.m, "n": params.n, "a": params.a, "b": params.b}
        if pad >= 0 and p.coeffs + (0,) * (bound + 1 - len(p.coeffs)) == (0,) * pad + q.coeffs[::-1]:
            return IdentityCheckResult("reciprocity", info, True, ZERO)
        # past the bound the difference is q
        return IdentityCheckResult("reciprocity", info, False, q if pad < 0 else q.reverse_to_degree(bound) - p)

    def deletion(self, params: CyclicParams) -> IdentityCheckResult | None:
        """deletion_check at params, one of the block's points, or None
        where the recurrence is undefined (r < 3 or b < 2).  When the
        kernels hold, F at each sub-instance is evaluated once per
        (m', n, a, b-1) and only the verdict is kept; the instance's
        NotDivisible is raised before a sub-instance's, which is raised anew
        on every call.  When a kernel fails, the summed route
        (_deletion_check) computes the difference, evaluating the instance
        again."""
        if params.r < 3 or params.b < 2:
            return None
        if self.values[params[2:4]] is None:
            raise self.failures[params[2:4]]
        if not self.kernels:
            return _deletion_check(params)
        point = (params.a, params.b - 1)
        for sub, passed in self.subs:
            if point not in passed:
                _term_table(sub, self.n).evaluate(*point)
                passed.add(point)
        return IdentityCheckResult("deletion", {"m": self.m, "n": self.n, "a": params.a, "b": params.b}, True, ZERO)


def recombine_check(
    m: tuple[int, ...], n: tuple[int, ...], ell: int, k: int
) -> IdentityCheckResult:
    """Check, after clearing denominators, that the cyclic product over
    (m3, ..., m_r) relates to the one over (ell, m3, ..., m_r) through the
    stated ratio of Pochhammer symbols.

    m and n must lie in F's domain, r >= 3, s >= 2, every m_i >= 0 and
    every n_j >= 1, and ell >= 0; InvalidRange otherwise.  Both sides are
    compared as plain polynomials; a side whose Pochhammer index goes
    negative is zero by convention.  No rational-function arithmetic is
    involved.
    """
    m = tuple(m)
    n = tuple(n)
    if len(m) < 3:
        raise InvalidRange(f"recombine_check needs r >= 3, got r={len(m)}")
    _check_shape(m, n)
    if ell < 0:
        raise InvalidRange(f"recombine_check needs ell >= 0, got {ell}")
    tail = m[2:]
    m3, mr = tail[0], tail[-1]
    left = product([cyclic_product(tail, n, k), q_poch(m3 + ell + 1), q_poch(mr + ell + 1)])
    idxs = (ell - k + 1, ell + k, mr + m3 + 1)
    if any(u < 0 for u in idxs):
        right = ZERO
    else:
        right = product([cyclic_product((ell,) + tail, n, k), *map(q_poch, idxs)])
    diff = left - right
    info = {"m": m, "n": n, "ell": ell, "k": k}
    return IdentityCheckResult("recombine", info, diff.is_zero(), diff)
