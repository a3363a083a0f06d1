"""Exact morphism counts and leading constants for the split quintic
del Pezzo surface.

Point counting over F_q runs on the universal torsor (the affine cone over
G(2,5)); the leading constant comes with certified dyadic error bounds; the
motivic analogue is a truncated integer series in u = L^-1.
"""

__version__ = "1.0.0"

from .count import CountResult, count_fast, count_naive, sweep
from .constants import (
    CertifiedReal,
    CurveZeta,
    curve_from_weil,
    leading_constant_direct,
    leading_constant_zeta,
    local_factor,
    projective_line,
)
from .motivic import SeriesL, motivic_constant, witt_exponents
from .picard import (
    ANTICANONICAL,
    LINES,
    CurveClass,
    boundary_distance,
    chamber_normalize,
    degree_data,
    in_eff_dual,
    pairings_to_class,
    scale,
)

__all__ = [
    "__version__",
    "ANTICANONICAL",
    "LINES",
    "CertifiedReal",
    "CountResult",
    "CurveClass",
    "CurveZeta",
    "SeriesL",
    "boundary_distance",
    "chamber_normalize",
    "count_fast",
    "count_naive",
    "curve_from_weil",
    "degree_data",
    "in_eff_dual",
    "leading_constant_direct",
    "leading_constant_zeta",
    "local_factor",
    "motivic_constant",
    "pairings_to_class",
    "projective_line",
    "scale",
    "sweep",
    "witt_exponents",
]
