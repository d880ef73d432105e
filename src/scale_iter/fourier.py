"""Harmonic-capped trigonometric data on the circle.

One-forms a(theta) dtheta and vector fields f(theta) d/dtheta are stored as
complex coefficient arrays over harmonics k = -K..K.  The Lie derivative of
a one-form along a field is (a f)' dtheta, products are convolutions
truncated back to the cap, and the homological equation f' = -beta is
solved harmonic by harmonic with the mean as the obstruction.

The cap is a bookkeeping bound: products convolve only the harmonic band
each operand occupies and norms read only the nonzero harmonics, so cost
follows the occupied band plus O(cap) array passes, not the cap squared.

The strip L2 norm weights harmonic k by sinh(2|k|t)/|k| (2t at k = 0);
sinh switches to a log-domain evaluation once 2|k|t is large, so tail
estimates stay finite for any cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class _TrigData:
    """Shared coefficient-array representation; index k lives at k + cap."""

    cap: int
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=complex)
        if arr.shape != (2 * self.cap + 1,):
            raise ValueError(f"need {2 * self.cap + 1} coefficients for cap {self.cap}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.cap:
            return 0j
        return complex(self.data[k + self.cap])

    @classmethod
    def from_coefficients(cls, entries: dict[int, complex], cap: int):
        arr = np.zeros(2 * cap + 1, dtype=complex)
        for k, v in entries.items():
            if abs(k) > cap:
                raise ValueError(f"harmonic {k} outside cap {cap}")
            arr[k + cap] = v
        return cls(cap, arr)

    @classmethod
    def from_cos(cls, terms: dict[int, float], cap: int):
        """Real combination sum amp * cos(k theta); k = 0 maps to the mean."""
        arr = np.zeros(2 * cap + 1, dtype=complex)
        for k, amp in terms.items():
            if k == 0:
                arr[cap] += amp
            else:
                arr[cap + k] += amp / 2.0
                arr[cap - k] += amp / 2.0
        return cls(cap, arr)


class FourierOneForm(_TrigData):
    """(sum c_k e^(ik theta)) dtheta with |k| <= cap."""


class CircleVectorField(_TrigData):
    """f(theta) d/dtheta with the same harmonic representation."""


def _convolve_truncate(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    """Product over -cap..cap: the nonzero bands convolved, placed and clipped to the cap."""
    out = np.zeros(2 * cap + 1, dtype=complex)
    nz_a, nz_b = np.flatnonzero(a), np.flatnonzero(b)
    if nz_a.size == 0 or nz_b.size == 0:
        return out
    lo_a, lo_b = nz_a[0], nz_b[0]
    band = np.convolve(a[lo_a : nz_a[-1] + 1], b[lo_b : nz_b[-1] + 1])
    start = lo_a + lo_b - cap  # array index of the band's lowest harmonic
    first, last = max(start, 0), min(start + len(band), len(out))
    if first < last:
        out[first:last] = band[first - start : last - start]
    return out


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
    product = _convolve_truncate(w.data, v.data, w.cap)
    return FourierOneForm(w.cap, product * (1j * np.arange(-w.cap, w.cap + 1)))


def solve_homological(beta: FourierOneForm, cutoff: int) -> CircleVectorField:
    """Field v with L_v dtheta + P_cutoff beta = 0, i.e. f_k = -beta_k / (ik).

    Only harmonics 1 <= |k| <= cutoff are used.  A mean above MEAN_TOL times
    the largest coefficient is a genuine obstruction: the constant harmonic
    has no primitive on the circle.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    scale = float(np.max(np.abs(beta.data))) or 1.0
    if abs(beta.coefficient(0)) > MEAN_TOL * scale:
        raise MeanObstructionError(
            f"mean coefficient {beta.coefficient(0)!r} cannot be eliminated"
        )
    arr = np.zeros(2 * beta.cap + 1, dtype=complex)
    for k in range(1, min(cutoff, beta.cap) + 1):
        arr[beta.cap + k] = -beta.coefficient(k) / (1j * k)
        arr[beta.cap - k] = -beta.coefficient(-k) / (1j * -k)
    return CircleVectorField(beta.cap, arr)


def lie_exp_terms(v: CircleVectorField, w: FourierOneForm, order: int) -> list[FourierOneForm]:
    """Terms L_v^j(w)/j! for j = 0..order, truncated at the cap each step."""
    if order < 0:
        raise ValueError("order must be >= 0")
    terms = [w]
    current = w
    for j in range(1, order + 1):
        current = lie_derivative_oneform(v, current)
        current = FourierOneForm(current.cap, current.data / j)
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
    terms = lie_exp_terms(v, w, order)
    total = np.zeros(2 * w.cap + 1, dtype=complex)
    for term in terms:
        total = total + term.data
    return FourierOneForm(w.cap, total)


# ---------------------------------------------------------------------------
# Strip norms and the tail estimate
# ---------------------------------------------------------------------------


def _log_weight(k: np.ndarray, t: float) -> np.ndarray:
    """log of the strip weight sinh(2|k|t)/|k| (2t at k = 0), elementwise."""
    ak = np.abs(k)
    nonzero = np.maximum(ak, 1)
    return np.where(ak == 0, math.log(2.0 * t), _log_sinh(2.0 * nonzero * t) - np.log(nonzero))


def strip_l2_log_norm(w: FourierOneForm, t: float) -> float:
    """log of the strip L2 norm; -inf for zero data."""
    if t <= 0.0:
        raise ValueError("strip half-width must be positive")
    idx = np.flatnonzero(w.data)
    if idx.size == 0:
        return -math.inf
    logs = 2.0 * np.log(np.abs(w.data[idx])) + _log_weight(idx - w.cap, t)
    hi = float(logs.max())
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
    that k -> sinh(2ks)/sinh(2kt) is decreasing over the support range.
    """
    if not (0.0 < s < t):
        raise ValueError("need 0 < s < t")
    min_support = 2**n
    support = np.flatnonzero(w.data) - w.cap
    low = support[np.abs(support) < min_support]
    if low.size:
        raise SupportError(f"harmonic {low[0]} below the required support 2^{n}")
    log_ratio = strip_l2_log_norm(w, s) - strip_l2_log_norm(w, t)
    log_bound = math.ldexp(s - t, n - 1)
    k = np.arange(max(min_support, 1), w.cap + 1)
    r = _log_sinh(2.0 * k * s) - _log_sinh(2.0 * k * t)
    monotone = bool(np.all(np.diff(r) < 0.0))
    ratio = math.exp(log_ratio)
    return TailDecayReport(ratio, math.exp(log_bound), log_ratio <= log_bound, monotone)
