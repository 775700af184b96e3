"""Certified p-adic zero-count bounds on hyperelliptic residue disks.

The library provides exact-rational building blocks (p-adic valuations,
truncated power series, Newton polygons), arithmetic in hyperelliptic
function fields with residue-disk expansions, construction of nice
annihilating differential operators, formal Coleman-style iterated
integrals, and evaluators for the closed-form point-count bounds.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    cor_potential_good,
    degree_ledger,
    per_disk_bound,
    strict_integer_bound,
    thm1_general,
    thm1_hyperelliptic,
    thm_integral,
)
from .coleman import (
    ColemanSpec,
    certify_algebraic,
    expand_G,
    expand_double_integral,
    expand_single_integral,
    load_spec_file,
)
from .diffops import (
    DifferentialOperator,
    NicenessCertificate,
    annihilator_matrix,
    apply_on_chart,
    apply_series,
    build_annihilator,
    check_nice,
    compose_with_base,
    search_nice_S,
    weierstrass_annihilator,
    weierstrass_local_annihilator,
)
from .errors import (
    DegenerateOperatorError,
    DomainError,
    IndeterminatePolygonError,
    NonUnitError,
    NormalizationError,
    PoleError,
    PrecisionError,
    SearchExhaustedError,
)
from .funcfield import (
    CurveFunction,
    DiskChart,
    PoleLedger,
    RationalFunc,
    chart_for,
    default_truncation,
    infinite_chart,
    ledger_derivative,
    ledger_general_derivative,
    ledger_of,
    nonweierstrass_chart,
    weierstrass_chart,
)
from .hyperelliptic import (
    CurveModel,
    DiskDescriptor,
    count_points_fp,
    good_reduction_at,
    has_smooth_reduction,
    residue_disks,
)
from .padics import (
    INFINITY,
    Prime,
    factorial_ratio_bound,
    factorial_valuation,
    kappa,
    kappa_bounds,
    valuation,
)
from .pipeline import DiskAnalysis, PipelineResult, analyze_disk, run_pipeline
from .polys import Poly, discriminant, poly_gcd, rational_roots, resultant
from .quadext import PAdicSqrtEmbedding, QuadExt, rational_sqrt
from .series import (
    LaurentSeries,
    NewtonPolygon,
    TruncatedSeries,
    min_valuation_index,
    newton_polygon,
    slope_le_minus_one_length,
    slope_transfer_check,
    zero_count_bound,
)
