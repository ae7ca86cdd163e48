"""Exact-arithmetic analysis of linear differential operators over Q(z):
singularity structure, p-curvature and nilpotence scans, denominator-growth
traces, p-adic size and radius estimates, and a type-II Pade bench.

A layer loads on first use.  `errors`, `exact_arith` and `diffop` load with
the package, because the expression parser needs them.  `catalog`, `growth`,
`modp`, `local_analysis`, `p_curvature` and `pade` are put into sys.modules
as lazy modules (importlib.util.LazyLoader): each module object exists at
once, and its source is compiled and run on its first attribute access, so a
`gop` command runs only the layers it touches.  Public names are read off
their layer (`gop.growth.galochkin_trace`); the package re-exports none.
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
