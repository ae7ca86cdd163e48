"""Exact-arithmetic analysis of linear differential operators over Q(z):
singularity structure, p-curvature and nilpotence scans, denominator-growth
traces, p-adic size and radius estimates, and a type-II Pade bench."""

__version__ = "0.1.0"

from .catalog import (
    CATALOG,
    CoeffGenerator,
    catalog_get,
    catalog_ids,
    counterexample_theta2_minus_2,
    hypergeom_operator,
    hypergeom_series,
    order1_g_operator,
    polylog_operator,
    polylog_system,
)
from .diffop import (
    Basis,
    DiffOp,
    INFINITY,
    RatMat,
    TruncatedSeries,
    change_basis,
    companion,
    op_add,
    op_mul,
    op_pow,
    op_sub,
)
from .exact_arith import (
    GAUSS_INF,
    Poly,
    RatFn,
    accolade,
    gauss_valuation,
    kummer_vp_factorial,
)
from .growth import (
    ExactLog,
    bombieri_report,
    dwork_robba_check,
    galochkin_trace,
    gs_sequence,
    h_s_p,
    radius_estimate,
    size_estimate,
)
from .local_analysis import (
    IndicialData,
    OperatorProfile,
    SingularPoint,
    classify_operator,
    exponents,
    indicial_data,
)
from .modp import reduce_ratfn_mod_p
from .p_curvature import (
    FpMat,
    GlobalScan,
    PCurvatureReport,
    global_scan,
    is_nilpotent,
    katz_honda_check,
    operator_nilpotence_by_division,
    p_curvature,
)
from .pade import (
    PadeSystem,
    build_pade_system,
    derived_tower,
    pade_type2,
    residual_order,
    shidlovskii_matrix,
    verify_similileibniz,
)
