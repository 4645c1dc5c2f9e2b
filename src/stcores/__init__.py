"""Exact combinatorics of simultaneous core partitions.

Enumeration of (s, t)-core partitions (optionally restricted to distinct
parts, odd parts, or self-conjugate shapes), the first-column hook-length
set encoding, a perimeter-preserving bijection between distinct-parts and
odd-parts partitions, and the exact closed forms the enumerations are
verified against.
"""

from .betaset import BetaSet, from_beta, is_t_core_beta, is_twin_free, to_beta
from .bijection import (
    CompositionC,
    compositions_of,
    distinct_to_odd,
    inverse_lambda_d,
    inverse_lambda_o,
    is_composition,
    lambda_d,
    lambda_o,
    odd_to_distinct,
)
from .claims import CLAIMS, ClaimCase, VerificationReport, run_claim, shared_fold
from .partition import (
    Partition,
    conjugate,
    has_distinct_parts,
    has_odd_parts,
    hook_length,
    is_t_core,
    partitions_of,
    perimeter,
)
from .search import (
    CoreSummary,
    EnumerationResult,
    InfiniteFamilyError,
    count_twin_free_tuples,
    enumerate_core,
    enumerate_core_bounded,
    enumerate_distinct_by_perimeter,
    enumerate_odd_by_perimeter,
    gap_poset,
    summarize_core,
)
from .sequences import (
    CountPolynomial,
    anderson_count,
    catalan,
    check_core_twinfree_identity,
    fibonacci,
    fms_selfconjugate_count,
    m_poly,
    n_poly,
)

__version__ = "0.1.0"

__all__ = [
    "BetaSet",
    "CLAIMS",
    "ClaimCase",
    "CompositionC",
    "CoreSummary",
    "CountPolynomial",
    "EnumerationResult",
    "InfiniteFamilyError",
    "Partition",
    "VerificationReport",
    "anderson_count",
    "catalan",
    "check_core_twinfree_identity",
    "compositions_of",
    "conjugate",
    "count_twin_free_tuples",
    "distinct_to_odd",
    "enumerate_core",
    "enumerate_core_bounded",
    "enumerate_distinct_by_perimeter",
    "enumerate_odd_by_perimeter",
    "fibonacci",
    "fms_selfconjugate_count",
    "from_beta",
    "gap_poset",
    "has_distinct_parts",
    "has_odd_parts",
    "hook_length",
    "inverse_lambda_d",
    "inverse_lambda_o",
    "is_composition",
    "is_t_core",
    "is_t_core_beta",
    "is_twin_free",
    "lambda_d",
    "lambda_o",
    "m_poly",
    "n_poly",
    "odd_to_distinct",
    "partitions_of",
    "perimeter",
    "run_claim",
    "shared_fold",
    "summarize_core",
    "to_beta",
]
