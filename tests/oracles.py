"""Reference computations written straight from the definitions in RatMat /
RatFn arithmetic, independent of the cleared integer recurrence that gop
runs, and the list of systems they are checked on."""

import math
from fractions import Fraction

from gop.catalog import CATALOG, catalog_systems
from gop.diffop import RatMat, companion
from gop.exact_arith import RatFn


def every_catalog_system():
    """(label, system) for the system-level catalog examples, every catalog
    companion matrix and every catalog system."""
    out = list(catalog_systems())
    for entry in CATALOG.values():
        out.append((f"{entry.id}:companion", companion(entry.operator)))
        if entry.system is not None:
            out.append((f"{entry.id}:system", entry.system))
    return out


def naive_gs_sequence(g: RatMat, s_max: int) -> list[RatMat]:
    """[G_1, ..., G_s_max] from G_1 = G and G_{s+1} = G_s G + G_s'."""
    out = [g]
    while len(out) < s_max:
        out.append(out[-1] * g + out[-1].derivative())
    return out


def naive_tower(ps, g: RatMat, t, h_max: int) -> list[list[RatFn]]:
    """[P_0, ..., P_h_max] with P_m = (T^m/m!) (D - G)^m P in Q(z)."""
    v = [RatFn(p) for p in ps]
    out = []
    for m in range(h_max + 1):
        if m:
            gv = g.mat_vec(v)
            v = [c.derivative() - x for c, x in zip(v, gv)]
        scale = RatFn(t) ** m * Fraction(1, math.factorial(m))
        out.append([scale * c for c in v])
    return out
