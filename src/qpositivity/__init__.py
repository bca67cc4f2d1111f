"""Exact q-polynomial arithmetic with positivity and identity verification
for Gaussian coefficients, super Catalan families, and alternating sums."""

from .qpoly import DegreeExceedsBound, IntPoly, NotDivisible, ONE, Q, ZERO
from .qcombinat import (
    InvalidRange,
    NegativeIndex,
    choose2,
    gauss_binom,
    q_factorial,
    q_int,
    q_poch,
    q_ratio,
    ratio_at_one,
)
from .catalan import (
    double_expansion_check,
    odd_super_catalan_direct,
    odd_super_catalan_recursive,
    odd_super_catalan_value_at_one,
    ratio_B,
    super_catalan_A,
)
from .altsum import (
    CyclicParams,
    F,
    cyclic_product,
    deletion_check,
    deletion_kernel_check,
    delta,
    product_identity_check,
    recombine_check,
    reciprocity_check,
    value_at_one_reference,
)

__all__ = [
    "IntPoly",
    "NotDivisible",
    "DegreeExceedsBound",
    "ZERO",
    "ONE",
    "Q",
    "InvalidRange",
    "NegativeIndex",
    "q_int",
    "q_factorial",
    "q_poch",
    "q_ratio",
    "ratio_at_one",
    "gauss_binom",
    "choose2",
    "super_catalan_A",
    "ratio_B",
    "odd_super_catalan_direct",
    "odd_super_catalan_recursive",
    "odd_super_catalan_value_at_one",
    "double_expansion_check",
    "CyclicParams",
    "cyclic_product",
    "F",
    "delta",
    "value_at_one_reference",
    "reciprocity_check",
    "product_identity_check",
    "deletion_check",
    "deletion_kernel_check",
    "recombine_check",
]
