"""Harmonic-capped trigonometric data on the circle.

One-forms a(theta) dtheta and vector fields f(theta) d/dtheta with harmonics
|k| <= K are stored as the complex band of harmonics they occupy, trimmed to
its nonzero ends.  The Lie derivative of a one-form along a field is
(a f)' dtheta, products are convolutions truncated back to the cap, and the
homological equation f' = -beta is solved harmonic by harmonic with the mean
as the obstruction.

Every operation is a private kernel on band pairs (lo, band), the lowest
harmonic and the trimmed band; circle_run runs on them directly, and
solve_homological, lie_exp_terms and strip_l2_log_norm wrap them for forms
and fields.  Trimming tests the two end coefficients before it scans for
zeros.  The cap is a bookkeeping bound that only clips products, so cost
follows the occupied band, whatever the cap.  The homological division
runs on real arrays in CPython's quotient order for the divisor 1j*k, so it
gives the bits of -c / (1j * k).

The strip L2 norm weights harmonic k by sinh(2|k|t)/|k| (2t at k = 0);
sinh switches to a log-domain evaluation once 2|k|t is large, so tail
estimates stay finite for any cap.  The weights are sliced from a table over
|k| that is cached for each width.  The norm takes one pass over the whole
band: a zero coefficient keeps a log of -inf, which adds an exact 0.0 to the
sum, and gets no weight, which could be +inf.
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
    "solve_homological",
    "lie_exp_terms",
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


# ---------------------------------------------------------------------------
# Band kernels: (lo, band) holds harmonics lo .. lo + len(band) - 1
# ---------------------------------------------------------------------------


def _trim(lo: int, band: np.ndarray) -> tuple[int, np.ndarray]:
    """The pair cut to its nonzero ends; (0, empty) for zero data."""
    if band.size and band[0] != 0 and band[-1] != 0:
        return lo, band
    nz = band.nonzero()[0]
    if nz.size:
        return lo + int(nz[0]), band[nz[0] : nz[-1] + 1]
    return 0, band[:0]


def _perturbation(w, cutoff: int) -> tuple[int, np.ndarray]:
    """The harmonics 1 <= |k| <= cutoff of w, trimmed."""
    lo, band = w
    first = max(lo, -cutoff)
    end = max(min(lo + band.size, cutoff + 1), first)
    part = band[first - lo : end - lo]
    if first <= 0 < end:
        part = part.copy()
        part[-first] = 0.0
    return _trim(first, part)


def _zeros_over(bands) -> tuple[int, np.ndarray]:
    """A zero array over the union of the ranges, which the empty pair (0, []) may widen: (lo, array)."""
    lo = min(first for first, _ in bands)
    return lo, np.zeros(max(first + band.size for first, band in bands) - lo, dtype=complex)


def _sum(bands) -> tuple[int, np.ndarray]:
    # accumulating from +0.0 gives the bits of the zero-padded sum 0 + b0 + b1 + ...
    lo, total = _zeros_over(bands)
    for first, band in bands:
        total[first - lo : first - lo + band.size] += band
    return _trim(lo, total)


def _difference(a, b) -> tuple[int, np.ndarray]:
    # copying a, then subtracting b in place, gives the bits of the zero-padded a - b
    lo, diff = _zeros_over((a, b))
    diff[a[0] - lo : a[0] - lo + a[1].size] = a[1]
    diff[b[0] - lo : b[0] - lo + b[1].size] -= b[1]
    return _trim(lo, diff)


def _convolve_truncate(a, b, cap: int) -> tuple[int, np.ndarray]:
    """Product of two bands, clipped to |k| <= cap: (lowest harmonic, band)."""
    (a_lo, a_band), (b_lo, b_band) = a, b
    if not (a_band.size and b_band.size):
        return 0, np.zeros(0, dtype=complex)
    band = np.convolve(a_band, b_band)
    lo = a_lo + b_lo
    first, last = max(lo, -cap), min(lo + band.size, cap + 1)
    return first, band[first - lo : max(last, first) - lo]


@lru_cache(maxsize=8)
def _ik(cap: int) -> np.ndarray:
    """Read-only table of 1j * k for |k| <= cap, at index k + cap."""
    table = 1j * np.arange(-cap, cap + 1)
    table.setflags(write=False)
    return table


def _lie_derivative(v, w, cap: int) -> tuple[int, np.ndarray]:
    lo, product = _convolve_truncate(w, v, cap)
    return _trim(lo, product * _ik(cap)[lo + cap : lo + cap + product.size])


def _lie_terms(v, w, order: int, cap: int) -> list[tuple[int, np.ndarray]]:
    terms = [w]
    for j in range(1, order + 1):
        lo, band = _lie_derivative(v, terms[-1], cap)
        terms.append(_trim(lo, band / j))
    return terms


def _homological(beta, cutoff: int) -> tuple[int, np.ndarray]:
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    lo, band = beta
    mean = complex(band[-lo]) if lo <= 0 < lo + band.size else 0j
    if mean:
        scale = float(np.max(np.abs(band), initial=0.0)) or 1.0
        if abs(mean) > MEAN_TOL * scale:
            raise MeanObstructionError(f"mean coefficient {mean!r} cannot be eliminated")
    if mean or lo < -cutoff or lo + band.size > cutoff + 1:
        lo, band = _perturbation(beta, cutoff)
    # CPython divides a = -c by 1j*k = (+-0.0, k) with ratio 0.0 and denominator k
    k = np.arange(lo, lo + band.size, dtype=float)
    zero = -lo if lo <= 0 < lo + band.size else None
    if zero is not None:
        k[zero] = 1.0  # f_0 is set to 0 below; dividing by 1 there raises no 0/0
    a = -band
    f = np.empty(band.size, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf * 0.0 is nan, as in CPython
        np.divide(a.real * 0.0 + a.imag, k, out=f.real)
        np.divide(a.imag * 0.0 - a.real, k, out=f.imag)
    if zero is not None:
        f[zero] = 0.0
    return _trim(lo, f)


def _strip_log_norm(w, t: float) -> float:
    if t <= 0.0:
        raise ValueError("strip half-width must be positive")
    lo, band = w
    if not band.size:
        return -math.inf
    hi = lo + band.size - 1
    table = _log_weights(t, 1 << max(-lo, hi).bit_length())
    if lo >= 0:
        weights = table[lo : hi + 1]
    else:
        weights = table[-lo : max(-hi, 1) - 1 : -1]
        if hi >= 0:
            weights = np.concatenate((weights, table[: hi + 1]))
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(band))
    logs *= 2.0
    if table[-1] < math.inf:
        logs += weights
    else:  # -inf + inf is nan: a weight past the float range must not reach a zero coefficient
        np.add(logs, weights, out=logs, where=logs != -math.inf)
    logs.sort()
    top = float(logs[-1])
    if top == math.inf:
        return math.inf
    # largest first keeps fsum's partials few; fsum's correctly rounded sum does not depend on the order
    return 0.5 * (top + math.log(math.fsum(memoryview(np.exp(logs[::-1] - top)))))


def _strip_norm(w, t: float) -> float:
    log_n = _strip_log_norm(w, t)
    if log_n == -math.inf:
        return 0.0
    return math.exp(log_n) if log_n < 709.0 else math.inf


# ---------------------------------------------------------------------------
# Forms, fields and the public operations on them
# ---------------------------------------------------------------------------


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
        lo, band = _trim(lo, data)
        band = band.view()  # read-only without freezing the caller's array
        band.setflags(write=False)
        self.cap, self.lo, self.band = cap, lo, band

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


def cos_coefficient(w: _TrigData, k: int) -> float:
    """Coefficient of cos(k theta) in real data: 2 Re c_k for k >= 1, c_0 at k = 0."""
    if k == 0:
        return float(w.coefficient(0).real)
    return 2.0 * float(w.coefficient(k).real)


def solve_homological(beta: FourierOneForm, cutoff: int) -> CircleVectorField:
    """Field v with L_v dtheta + P_cutoff beta = 0, i.e. f_k = -beta_k / (ik).

    Only harmonics 1 <= |k| <= cutoff are used.  A mean above MEAN_TOL times
    the largest coefficient is a genuine obstruction: the constant harmonic
    has no primitive on the circle.
    """
    lo, band = _homological((beta.lo, beta.band), cutoff)
    return CircleVectorField(beta.cap, band, lo)


def lie_exp_terms(v: CircleVectorField, w: FourierOneForm, order: int) -> list[FourierOneForm]:
    """Terms L_v^j(w)/j! for j = 0..order, truncated at the cap each step."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order and v.cap != w.cap:
        raise ValueError("harmonic caps must match")
    terms = _lie_terms((v.lo, v.band), (w.lo, w.band), order, w.cap)
    return [w] + [FourierOneForm(w.cap, band, lo) for lo, band in terms[1:]]


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
    return _strip_log_norm((w.lo, w.band), t)


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
