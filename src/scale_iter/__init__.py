"""Finite-horizon iteration machinery on analyticity scales.

Subpackages by theme: bruno (sequence calculus and scalar orbit models),
factors (loss-of-regularity bounds and radius schedules), series (truncated
power series with exact arithmetic), fourier (harmonic-capped circle data),
engines (runnable iterations and reports), cli (experiment front end).
Only the bruno names are re-exported here, since every CLI command loads
bruno; import the others from their modules.  Each command loads only the
modules it runs, and only circle loads fourier and numpy.
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

__version__ = "0.1.0"
