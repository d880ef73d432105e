"""Harmonic-capped trigonometric data on the circle.

One-forms a(theta) dtheta and vector fields f(theta) d/dtheta with harmonics
|k| <= K are stored as the complex band of harmonics they occupy, trimmed to
its nonzero ends.  The Lie derivative of
a one-form along a field is (a f)' dtheta, products are convolutions
truncated back to the cap, and the homological equation f' = -beta is
solved harmonic by harmonic with the mean as the obstruction.

The cap is a bookkeeping bound that only clips products: every kernel reads
and returns bands, so cost follows the occupied band, whatever the cap.

The strip L2 norm weights harmonic k by sinh(2|k|t)/|k| (2t at k = 0);
sinh switches to a log-domain evaluation once 2|k|t is large, so tail
estimates stay finite for any cap.  The weights are read from a table over
|k| that is cached for each width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FourierOneForm",
    "CircleVectorField",
    "MeanObstructionError",
    "SupportError",
    "lie_derivative_oneform",
    "solve_homological",
    "lie_exp_terms",
    "oneform_lie_exp",
    "strip_l2_norm",
    "strip_l2_log_norm",
    "tail_decay_check",
    "cos_coefficient",
]


MEAN_TOL = 1e-12  # relative size of a mean that solve_homological still treats as zero


class MeanObstructionError(ValueError):
    """The constant harmonic cannot be removed by a homological solve."""


class SupportError(ValueError):
    """A tail estimate was requested for data with low-harmonic support."""


def _log_sinh(x):
    """log(sinh x) elementwise for x > 0, overflow-safe."""
    x = np.asarray(x, dtype=float)
    big = x > 30.0
    # each branch is evaluated on every element, clamped to its own domain
    tail = x - math.log(2.0) + np.log1p(-np.exp(-2.0 * np.maximum(x, 30.0)))
    return np.where(big, tail, np.log(np.sinh(np.minimum(x, 30.0))))[()]


class _TrigData:
    """Harmonics lo .. lo + len(band) - 1 of data capped at |k| <= cap; zero elsewhere.

    The band is trimmed to its nonzero ends and is empty for zero data.
    FourierOneForm(cap, data) takes dense coefficients over -cap..cap; a
    given lo marks data as a band that already lies inside the cap.
    """

    __slots__ = ("cap", "lo", "band")

    def __init__(self, cap: int, data, lo: int | None = None) -> None:
        if lo is None:
            data = np.array(data, dtype=complex)
            if data.shape != (2 * cap + 1,):
                raise ValueError(f"need {2 * cap + 1} coefficients for cap {cap}")
            lo = -cap
        nz = data.nonzero()[0]
        if nz.size:
            lo, data = lo + int(nz[0]), data[nz[0] : nz[-1] + 1]
        else:
            lo, data = 0, data[:0]
        data.setflags(write=False)
        self.cap, self.lo, self.band = cap, lo, data

    @property
    def data(self) -> np.ndarray:
        """Dense read-only coefficients over -cap..cap; index k lives at k + cap."""
        arr = np.zeros(2 * self.cap + 1, dtype=complex)
        arr[self.lo + self.cap : self.lo + self.cap + self.band.size] = self.band
        arr.setflags(write=False)
        return arr

    def coefficient(self, k: int) -> complex:
        i = k - self.lo
        return complex(self.band[i]) if 0 <= i < self.band.size else 0j

    def perturbation(self, cutoff: int):
        """The harmonics 1 <= |k| <= cutoff of this data."""
        lo = max(self.lo, -cutoff)
        hi = max(min(self.lo + self.band.size, cutoff + 1), lo)
        band = self.band[lo - self.lo : hi - self.lo].copy()
        if lo <= 0 < hi:
            band[-lo] = 0.0
        return type(self)(self.cap, band, lo)

    @classmethod
    def from_coefficients(cls, entries: dict[int, complex], cap: int):
        lo, hi = min(entries, default=0), max(entries, default=0)
        if max(-lo, hi) > cap:
            raise ValueError(f"harmonic {lo if -lo > hi else hi} outside cap {cap}")
        arr = np.zeros(hi - lo + 1, dtype=complex)
        for k, v in entries.items():
            arr[k - lo] = v
        return cls(cap, arr, lo)

    @classmethod
    def from_cos(cls, terms: dict[int, float], cap: int):
        """Real combination sum amp * cos(k theta); k = 0 maps to the mean."""
        coefficients: dict[int, float] = {}
        for k, amp in terms.items():
            for j, c in ((0, amp),) if k == 0 else ((k, amp / 2.0), (-k, amp / 2.0)):
                coefficients[j] = coefficients.get(j, 0.0) + c
        return cls.from_coefficients(coefficients, cap)


class FourierOneForm(_TrigData):
    """(sum c_k e^(ik theta)) dtheta with |k| <= cap."""


class CircleVectorField(_TrigData):
    """f(theta) d/dtheta with the same harmonic representation."""


def _aligned(forms):
    """The bands zero-padded over the union of the occupied ranges: (lo, arrays)."""
    live = [f for f in forms if f.band.size] or forms[:1]
    lo = min(f.lo for f in live)
    size = max(f.lo + f.band.size for f in live) - lo
    arrays = []
    for f in forms:
        arr = np.zeros(size, dtype=complex)
        arr[f.lo - lo : f.lo - lo + f.band.size] = f.band
        arrays.append(arr)
    return lo, arrays


def _sum(forms) -> FourierOneForm:
    lo, arrays = _aligned(forms)
    return FourierOneForm(forms[0].cap, sum(arrays), lo)


def _difference(a, b) -> FourierOneForm:
    lo, (x, y) = _aligned([a, b])
    return FourierOneForm(a.cap, x - y, lo)


def _convolve_truncate(a: _TrigData, b: _TrigData) -> tuple[int, np.ndarray]:
    """Product of two bands, clipped to |k| <= cap: (lowest harmonic, band)."""
    if not (a.band.size and b.band.size):
        return 0, np.zeros(0, dtype=complex)
    band = np.convolve(a.band, b.band)
    lo = a.lo + b.lo
    first, last = max(lo, -a.cap), min(lo + band.size, a.cap + 1)
    return first, band[first - lo : max(last, first) - lo]


def cos_coefficient(w: _TrigData, k: int) -> float:
    """Coefficient of cos(k theta) in real data: 2 Re c_k for k >= 1, c_0 at k = 0."""
    if k == 0:
        return float(w.coefficient(0).real)
    return 2.0 * float(w.coefficient(k).real)


def lie_derivative_oneform(v: CircleVectorField, w: FourierOneForm) -> FourierOneForm:
    """L_v (a dtheta) = (a f' + a' f) dtheta = (a f)' dtheta.

    Evaluated as the derivative of the truncated product, which equals the
    product-rule form exactly within the cap.
    """
    if v.cap != w.cap:
        raise ValueError("harmonic caps must match")
    lo, product = _convolve_truncate(w, v)
    return FourierOneForm(w.cap, product * (1j * np.arange(lo, lo + product.size)), lo)


def solve_homological(beta: FourierOneForm, cutoff: int) -> CircleVectorField:
    """Field v with L_v dtheta + P_cutoff beta = 0, i.e. f_k = -beta_k / (ik).

    Only harmonics 1 <= |k| <= cutoff are used.  A mean above MEAN_TOL times
    the largest coefficient is a genuine obstruction: the constant harmonic
    has no primitive on the circle.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    scale = float(np.max(np.abs(beta.band), initial=0.0)) or 1.0
    if abs(beta.coefficient(0)) > MEAN_TOL * scale:
        raise MeanObstructionError(
            f"mean coefficient {beta.coefficient(0)!r} cannot be eliminated"
        )
    target = beta.perturbation(cutoff)
    arr = np.zeros(target.band.size, dtype=complex)
    for i, c in enumerate(target.band.tolist()):
        k = target.lo + i
        if k:
            arr[i] = -c / (1j * k)
    return CircleVectorField(beta.cap, arr, target.lo)


def lie_exp_terms(v: CircleVectorField, w: FourierOneForm, order: int) -> list[FourierOneForm]:
    """Terms L_v^j(w)/j! for j = 0..order, truncated at the cap each step."""
    if order < 0:
        raise ValueError("order must be >= 0")
    terms = [w]
    current = w
    for j in range(1, order + 1):
        current = lie_derivative_oneform(v, current)
        current = FourierOneForm(current.cap, current.band / j, current.lo)
        terms.append(current)
    return terms


def oneform_lie_exp(
    v: CircleVectorField, w: FourierOneForm, order: int | None = None
) -> FourierOneForm:
    """Partial sum of e^(L_v) w through the given order.

    The default order equals the harmonic cap, enough for coefficient
    agreement to the bookkeeping degree; the remainder of the operator
    series is controlled by the last term, which callers can inspect via
    lie_exp_terms.
    """
    if order is None:
        order = w.cap
    if order < 1:
        raise ValueError("order must be >= 1")
    return _sum(lie_exp_terms(v, w, order))


# ---------------------------------------------------------------------------
# Strip norms and the tail estimate
# ---------------------------------------------------------------------------


def _log_weight(k: np.ndarray, t: float) -> np.ndarray:
    """log of the strip weight sinh(2|k|t)/|k| (2t at k = 0), elementwise."""
    ak = np.abs(k)
    nonzero = np.maximum(ak, 1)
    with np.errstate(over="ignore"):  # 2|k|t beyond the float range weighs +inf
        return np.where(ak == 0, math.log(2.0 * t), _log_sinh(2.0 * nonzero * t) - np.log(nonzero))


@lru_cache(maxsize=32)
def _log_weights(t: float, size: int) -> np.ndarray:
    """Read-only table of _log_weight(|k|, t) for |k| < size; one per width and power-of-two size."""
    table = _log_weight(np.arange(size), t)
    table.setflags(write=False)
    return table


def strip_l2_log_norm(w: FourierOneForm, t: float) -> float:
    """log of the strip L2 norm; -inf for zero data, +inf once a weight leaves the float range."""
    if t <= 0.0:
        raise ValueError("strip half-width must be positive")
    idx = w.band.nonzero()[0]
    if idx.size == 0:
        return -math.inf
    k = np.abs(idx + w.lo)
    logs = 2.0 * np.log(np.abs(w.band[idx])) + _log_weights(t, 1 << int(k.max()).bit_length())[k]
    # largest first keeps fsum's partials few; fsum's correctly rounded sum does not depend on the order
    logs = np.sort(logs)[::-1]
    hi = float(logs[0])
    if hi == math.inf:
        return math.inf
    return 0.5 * (hi + math.log(math.fsum(np.exp(logs - hi).tolist())))


def strip_l2_norm(w: FourierOneForm, t: float) -> float:
    log_n = strip_l2_log_norm(w, t)
    if log_n == -math.inf:
        return 0.0
    return math.exp(log_n) if log_n < 709.0 else math.inf


@dataclass(frozen=True)
class TailDecayReport:
    ratio: float
    bound: float
    ok: bool
    sinh_ratio_monotone: bool


def tail_decay_check(w: FourierOneForm, n: int, s: float, t: float) -> TailDecayReport:
    """Norm ratio between strips for data supported on harmonics |k| >= 2^n.

    Checks ratio = |w|_s / |w|_t <= exp(2^(n-1) (s - t)) and, along the way,
    that k -> sinh(2ks)/sinh(2kt) is decreasing over the support range.  Past
    the float range the log bound saturates to -inf, and log-sinh ratios that
    saturate to the same -inf do not count as decreasing.  A norm at s past
    the float range has no ratio to report, and raises ValueError.
    """
    if not (0.0 < s < t):
        raise ValueError("need 0 < s < t")
    min_support = 2**n
    support = np.flatnonzero(w.band) + w.lo
    low = support[np.abs(support) < min_support]
    if low.size:
        raise SupportError(f"harmonic {low[0]} below the required support 2^{n}")
    log_s = strip_l2_log_norm(w, s)
    if log_s == math.inf:
        raise ValueError(f"the strip norm at s = {s} leaves the float range")
    log_ratio = log_s - strip_l2_log_norm(w, t)
    try:
        log_bound = math.ldexp(s - t, n - 1)
    except OverflowError:  # s - t < 0
        log_bound = -math.inf
    k = np.arange(max(min_support, 1), w.cap + 1)
    # 2ks or 2kt beyond the float range has a log-sinh of +inf; inf - inf is nan, which compares False
    with np.errstate(over="ignore", invalid="ignore"):
        r = _log_sinh(2.0 * k * s) - _log_sinh(2.0 * k * t)
    monotone = bool(np.all(r[1:] < r[:-1]))
    ratio = math.exp(log_ratio)
    return TailDecayReport(ratio, math.exp(log_bound), log_ratio <= log_bound, monotone)
