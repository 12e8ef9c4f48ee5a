"""Label-level PBW combinatorics for Hernandez-Leclerc categories.

The package computes with labels of simple modules over quantum affine
algebras: R-matrix denominator zero multisets, the integer invariants built
from them, duality data with their reflections, affine cuspidal sequences,
and the exponent-vector parametrization of simples together with its
bi-lexicographic order.
"""

from .affine import (
    AffineTypeError,
    AffineTypeInfo,
    NoProviderError,
    SigmaPoint,
    denom_zeros,
    dual_point,
    load_denominator_json,
    register_denominator_table,
    sigma_quiver,
    type_info,
)
from .cuspidal import CuspidalSeq, FundamentalCuspidalSeq
from .duality import (
    DualityDatum,
    DualityError,
    check_strong,
    classify_cartan,
    from_q_datum,
    induced_cartan,
    reflect,
    reflect_inv,
)
from .invariants import (
    d_fund,
    de_tilde_fund,
    lambda_fund,
    lambda_inf_fund,
    pairing_E,
    root_coordinates,
    zero_c_fund,
)
from .modexpr import Dual, Expr, Fund, FusionTable, Head, One, Verdict, equal, head
from .modexpr import dual as dual_expr
from .pbw import Cmp, ExpVec, cmp_bilex, compose, decompose, dshift, in_window
from .qdata import QDatum, adapted_words, is_adapted, phi, some_adapted_word
from .rootsys import RootSystem, cartan

__version__ = "0.1.0"

__all__ = [
    "AffineTypeError",
    "AffineTypeInfo",
    "Cmp",
    "CuspidalSeq",
    "Dual",
    "DualityDatum",
    "DualityError",
    "Expr",
    "ExpVec",
    "Fund",
    "FundamentalCuspidalSeq",
    "FusionTable",
    "Head",
    "NoProviderError",
    "One",
    "QDatum",
    "RootSystem",
    "SigmaPoint",
    "Verdict",
    "adapted_words",
    "cartan",
    "check_strong",
    "classify_cartan",
    "cmp_bilex",
    "compose",
    "d_fund",
    "de_tilde_fund",
    "decompose",
    "denom_zeros",
    "dshift",
    "dual_expr",
    "dual_point",
    "equal",
    "from_q_datum",
    "head",
    "in_window",
    "induced_cartan",
    "is_adapted",
    "lambda_fund",
    "lambda_inf_fund",
    "load_denominator_json",
    "pairing_E",
    "phi",
    "reflect",
    "reflect_inv",
    "register_denominator_table",
    "root_coordinates",
    "sigma_quiver",
    "some_adapted_word",
    "type_info",
    "zero_c_fund",
]
