"""Exact-arithmetic analysis of linear differential operators over Q(z):
singularity structure, p-curvature and nilpotence scans, denominator-growth
traces, p-adic size and radius estimates, and a type-II Pade bench.

A layer loads on first use.  `errors`, `exact_arith` and `diffop` load with
the package, because the expression parser needs them.  `catalog`, `growth`,
`modp`, `local_analysis`, `p_curvature` and `pade` are put into sys.modules
as lazy modules (importlib.util.LazyLoader): each module object exists at
once, and its source is compiled and run on its first attribute access, so a
`gop` command runs only the layers it touches.  The package's public names
below resolve through __getattr__ (PEP 562), to the layer's own object.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from . import diffop, errors, exact_arith


def _lazy_layer(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


catalog = _lazy_layer("catalog")
growth = _lazy_layer("growth")
modp = _lazy_layer("modp")
local_analysis = _lazy_layer("local_analysis")
p_curvature = _lazy_layer("p_curvature")
pade = _lazy_layer("pade")

# the public names, by the layer that defines them; the function p_curvature
# is gop.p_curvature.p_curvature, since gop.p_curvature names its layer
_EXPORTS = {
    "catalog": (
        "CATALOG",
        "CoeffGenerator",
        "catalog_get",
        "catalog_ids",
        "counterexample_theta2_minus_2",
        "hypergeom_operator",
        "hypergeom_series",
        "order1_g_operator",
        "polylog_operator",
        "polylog_system",
    ),
    "diffop": (
        "Basis",
        "DiffOp",
        "INFINITY",
        "RatMat",
        "TruncatedSeries",
        "change_basis",
        "companion",
        "op_add",
        "op_mul",
        "op_pow",
        "op_sub",
    ),
    "exact_arith": (
        "GAUSS_INF",
        "Poly",
        "RatFn",
        "gauss_valuation",
    ),
    "growth": (
        "bombieri_report",
        "galochkin_trace",
        "h_s_p",
        "log_value",
        "radius_estimate",
        "size_estimate",
    ),
    "local_analysis": (
        "IndicialData",
        "OperatorProfile",
        "SingularPoint",
        "classify_operator",
        "exponents",
        "indicial_data",
    ),
    "modp": ("reduce_ratfn_mod_p",),
    "p_curvature": (
        "FpMat",
        "GlobalScan",
        "PCurvatureReport",
        "global_scan",
        "is_nilpotent",
        "operator_nilpotence_by_division",
    ),
    "pade": (
        "PadeSystem",
        "build_pade_system",
        "derived_tower",
        "pade_type2",
        "residual_order",
        "shidlovskii_matrix",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)
