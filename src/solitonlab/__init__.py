"""Exact soliton lattice lab.

Exact-arithmetic simulation of a two-parameter discrete KdV-type lattice
map, its determinant N-soliton solutions, the box-ball automaton with a
capacity-limited carrier that is its tropical limit, and blind measurement
tools for soliton speeds and amplitudes.
"""

from .boxball import (
    BBSCState,
    bbsc_sweep,
    evolve_bbsc,
    render_ascii,
    ud_limit_check,
    write_bbsc_csv,
)
from .lattice import (
    LatticeField,
    SystemParams,
    evolve_gkdv,
    rat_str,
)
from .measure import (
    Track,
    detect_bbsc_solitons,
    measure_velocity,
    overtake_report,
    track_amplitude,
    track_troughs,
)
from .solitons import (
    KPParams,
    amplitude,
    check_exactness,
    check_kp_bilinear,
    check_reduction,
    kp_tau,
    random_kp_params,
    sample_field,
    sample_x_float,
    scan_monotonicity,
    validate,
    velocity,
)

__version__ = "0.1.0"

__all__ = [
    "BBSCState", "KPParams", "LatticeField", "SystemParams", "Track",
    "amplitude", "bbsc_sweep", "check_exactness", "check_kp_bilinear",
    "check_reduction", "detect_bbsc_solitons",
    "evolve_bbsc", "evolve_gkdv",
    "kp_tau", "measure_velocity",
    "overtake_report", "random_kp_params",
    "rat_str", "render_ascii", "sample_field", "sample_x_float",
    "scan_monotonicity", "track_amplitude", "track_troughs",
    "ud_limit_check", "validate", "velocity", "write_bbsc_csv",
]
