"""Finite-horizon iteration machinery on analyticity scales.

Subpackages by theme: bruno (sequence calculus and scalar orbit models),
factors (loss-of-regularity bounds and radius schedules), series (truncated
power series with exact arithmetic), fourier (harmonic-capped circle data),
engines (runnable iterations and reports), cli (experiment front end).
The fourier names are not re-exported here: import them from
scale_iter.fourier, which is the only module that loads numpy.
"""

from .bruno import (
    BrunoSequence,
    LogSequence,
    OrbitTrace,
    TameVerdict,
    a_pi,
    absorb_check,
    delta_search,
    is_bruno,
    is_tame,
    mixed_orbit,
    quadratic_orbit,
)
from .factors import (
    KamFactor,
    LocalFactor,
    PerturbativeFactor,
    RadiusSchedule,
    geometric_bound_check,
    kam_schedule_tame_check,
    perturbative_bound_check,
    perturbative_radius_search,
    rho_for_perturbative,
    schedule_build,
)
from .series import (
    Derivation,
    TruncatedPowerSeries,
    ps_derive,
    ps_mul,
    ps_norm,
)
from .engines import (
    IterationReport,
    ScalarElement,
    circle_run,
    contraction_run,
    kam_run,
    morse_run,
    newton_invert,
)

__version__ = "0.1.0"
