"""Exact verification of product formulas for graded quotient counting.

The package checks, in exact integer arithmetic, that the generating
series of Euler characteristics of finite-colength quotient loci of
certain rank-2 graded modules on affine 3-space factors as MacMahon's
function squared times the generating polynomial of box-bounded plane
partitions, and cross-checks every enumerative ingredient by at least two
independent routes.
"""

from .series import TruncatedSeries, box_product, macmahon, quot_closed_form
from .partitions import (
    GuardExceeded,
    MonomialIdeal,
    PlanePartition,
    box_partition_polynomial_dp,
    count_box_partitions,
    count_partition_pairs,
    enumerate_box_monomial_ideals,
    enumerate_plane_partitions,
    monomial_ideal_to_partition,
    partition_to_monomial_ideal,
)
from .reflexive import (
    DimCheckReport,
    FiberDescription,
    MultMap,
    ReflexiveParams,
    check_cosection_quotient,
    check_resolution_dims,
    fiber,
    fiber_dim,
    mult_matrix,
    sing_ideal,
)
from .quotfixed import (
    ConstraintSystem,
    Coprofile,
    FixedLocusSummary,
    StratumRecord,
    enumerate_coprofiles,
    fixed_locus_summary,
    profile_constraint_system,
    quot_fixed_euler,
    quot_series,
    stratum_euler,
)
from .verify import (
    VerificationReport,
    verify_hilb_counts,
    verify_product_formula,
    verify_rank2_free,
    verify_stanley,
)

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries",
    "box_product",
    "macmahon",
    "quot_closed_form",
    "GuardExceeded",
    "MonomialIdeal",
    "PlanePartition",
    "box_partition_polynomial_dp",
    "count_box_partitions",
    "count_partition_pairs",
    "enumerate_box_monomial_ideals",
    "enumerate_plane_partitions",
    "monomial_ideal_to_partition",
    "partition_to_monomial_ideal",
    "DimCheckReport",
    "FiberDescription",
    "MultMap",
    "ReflexiveParams",
    "check_cosection_quotient",
    "check_resolution_dims",
    "fiber",
    "fiber_dim",
    "mult_matrix",
    "sing_ideal",
    "ConstraintSystem",
    "Coprofile",
    "FixedLocusSummary",
    "StratumRecord",
    "enumerate_coprofiles",
    "fixed_locus_summary",
    "profile_constraint_system",
    "quot_fixed_euler",
    "quot_series",
    "stratum_euler",
    "VerificationReport",
    "verify_hilb_counts",
    "verify_product_formula",
    "verify_rank2_free",
    "verify_stanley",
    "__version__",
]
