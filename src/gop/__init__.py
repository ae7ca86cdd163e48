"""Exact-arithmetic analysis of linear differential operators over Q(z):
singularity structure, p-curvature and nilpotence scans, denominator-growth
traces, p-adic size and radius estimates, and a type-II Pade bench."""

__version__ = "0.1.0"

from .catalog import (
    CATALOG,
    CoeffGenerator,
    QuadParam,
    catalog_get,
    catalog_ids,
    catalog_systems,
    counterexample_theta2_minus_2,
    eisenstein_check,
    gfunction_growth_check,
    hypergeom_is_gfunction,
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
    apply_operator,
    apply_to_power,
    change_basis,
    companion,
    op_add,
    op_div_right,
    op_mul,
    op_pow,
    op_sub,
    ordinary_series_basis,
    translate_to_point,
)
from .exact_arith import (
    GAUSS_INF,
    Poly,
    RatFn,
    accolade,
    common_denominator,
    gauss_valuation,
    kummer_vp_factorial,
    lcm_upto,
    series_gauss_valuation,
)
from .growth import (
    ExactLog,
    bombieri_report,
    dwork_robba_check,
    galochkin_trace,
    gs_sequence,
    h_s_p,
    minimal_T,
    radius_estimate,
    size_estimate,
)
from .local_analysis import (
    IndicialData,
    OperatorProfile,
    SingularPoint,
    classify_operator,
    exponents,
    fuchs_test,
    indicial_polynomial,
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
