"""Parametric loss-of-regularity bounds and analyticity-radius schedules.

Three bound families are evaluated, always in log-domain:

  local          M(s, t)    = C s^-alpha (t - s)^-beta
  perturbative   lam_n(s,t) = a_n s^-alpha (t - s)^-beta (s/t)^(2^n)
  mixed (KAM)    M_n(s, t)  = a_n (t - s)^-k s^-q
                 N_n(s, t)  = b_n (t - s)^-l s^-m exp(2^n (s - t))

with a, b positive-phase Bruno sequences.  A radius schedule is the
decreasing family s_(n+1) = rho_n^(1/2^(n+shift)) s_n driven by a
negative-phase Bruno sequence rho < 1/2.  The shift parameter exists
because two root conventions are in circulation (1/2^n and 1/2^(n+1));
the stated schedule uses shift 1, while the bound verifications that
cancel rho exactly need shift 0.

Factor evaluation treats the 2^n exponent via exact ldexp scaling of the
log, never through linear-scale powers, so horizons near 40 are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bruno import (
    BrunoSequence,
    HorizonError,
    LogSequence,
    PreconditionError,
    _holds_from,
    a_pi,
    is_bruno,
    is_tame,
)

__all__ = [
    "LocalFactor",
    "PerturbativeFactor",
    "KamFactor",
    "RadiusSchedule",
    "ScheduleError",
    "schedule_build",
    "geometric_bound_check",
    "rho_for_perturbative",
    "perturbative_bound_check",
    "perturbative_radius_search",
    "kam_schedule_tame_check",
]

_LOG2 = math.log(2.0)
RHO_CLIP = 0.49  # rho_for_perturbative caps each driver term here, strictly below 1/2


class ScheduleError(ValueError):
    """A radius schedule was requested from inadmissible data."""


def _check_radii(s: float, t: float) -> None:
    if not (0.0 < s < t):
        raise PreconditionError(f"radii must satisfy 0 < s < t, got s={s}, t={t}")


def _pow2(n: int) -> float:
    if n < 0 or n > 1023:
        raise PreconditionError("step index out of the exactly representable range")
    return math.ldexp(1.0, n)


@dataclass(frozen=True)
class LocalFactor:
    """M(s, t) = scale * s^-inner_exponent * (t-s)^-gap_exponent."""

    scale: float = 1.0
    inner_exponent: float = 0.0
    gap_exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise PreconditionError("scale must be positive")
        if self.inner_exponent < 0.0 or self.gap_exponent < 0.0:
            raise PreconditionError("exponents must be >= 0")

    def log_eval(self, s: float, t: float) -> float:
        _check_radii(s, t)
        return (
            math.log(self.scale)
            - self.inner_exponent * math.log(s)
            - self.gap_exponent * math.log(t - s)
        )


@dataclass(frozen=True)
class PerturbativeFactor:
    """lam_n(s, t) = gain_n * s^-inner * (t-s)^-gap * (s/t)^(2^n)."""

    gain: BrunoSequence
    inner_exponent: float = 0.0
    gap_exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.gain.sign != 1:
            raise PreconditionError("perturbative gain must be a positive-phase sequence")
        if self.inner_exponent < 0.0 or self.gap_exponent < 0.0:
            raise PreconditionError("exponents must be >= 0")

    def log_eval(self, n: int, s: float, t: float) -> float:
        _check_radii(s, t)
        return (
            self.gain.log_term(n)
            - self.inner_exponent * math.log(s)
            - self.gap_exponent * math.log(t - s)
            + _pow2(n) * (math.log(s) - math.log(t))
        )


@dataclass(frozen=True)
class KamFactor:
    """Pair (M_n, N_n) bounding the quadratic and linear parts of a mixed step.

    The linear part carries the harmonic-truncation gain exp(2^n (s - t)).
    """

    quad_gain: BrunoSequence
    lin_gain: BrunoSequence
    quad_gap_exponent: float = 0.0
    quad_inner_exponent: float = 0.0
    lin_gap_exponent: float = 0.0
    lin_inner_exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.quad_gain.sign != 1 or self.lin_gain.sign != 1:
            raise PreconditionError("gain sequences must be positive-phase")
        for e in (
            self.quad_gap_exponent,
            self.quad_inner_exponent,
            self.lin_gap_exponent,
            self.lin_inner_exponent,
        ):
            if e < 0.0:
                raise PreconditionError("exponents must be >= 0")

    def log_eval(self, n: int, s: float, t: float) -> tuple[float, float]:
        _check_radii(s, t)
        log_gap = math.log(t - s)
        log_s = math.log(s)
        log_m = self.quad_gain.log_term(n) - self.quad_gap_exponent * log_gap - self.quad_inner_exponent * log_s
        log_n = (
            self.lin_gain.log_term(n)
            - self.lin_gap_exponent * log_gap
            - self.lin_inner_exponent * log_s
            + _pow2(n) * (s - t)
        )
        return log_m, log_n


# ---------------------------------------------------------------------------
# Radius schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusSchedule:
    """Decreasing radii s_(n+1) = rho_n^(1/2^(n+shift)) * s_n, s_0 = t."""

    t: float
    rho: BrunoSequence
    exponent_shift: int
    log_radii: tuple[float, ...]

    @property
    def steps(self) -> int:
        return len(self.log_radii) - 1

    def log_radius(self, n: int) -> float:
        if not 0 <= n < len(self.log_radii):
            raise HorizonError(f"radius index {n} beyond schedule of {self.steps} steps")
        return self.log_radii[n]

    def radius(self, n: int) -> float:
        return math.exp(self.log_radius(n))

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(math.exp(l) for l in self.log_radii)

    @property
    def log_s_inf(self) -> float:
        """log of t * (transform limit of rho), adjusted for the root convention."""
        scale = math.ldexp(2.0, -self.exponent_shift)
        return math.log(self.t) + scale * a_pi(self.rho).log_limit

    @property
    def s_inf(self) -> float:
        return math.exp(self.log_s_inf)


def schedule_build(
    t: float,
    rho: BrunoSequence,
    steps: int,
    exponent_shift: int = 1,
) -> RadiusSchedule:
    """Materialize the schedule; rejects rho terms >= 1/2 and non-Bruno phases."""
    if t <= 0.0:
        raise ScheduleError("outer radius t must be positive")
    if rho.sign != -1:
        raise ScheduleError("schedule driver must be a negative-phase sequence")
    if steps < 1:
        raise ScheduleError("at least one step is required")
    if steps - 1 > rho.horizon:
        raise HorizonError(f"need rho terms through {steps - 1}, horizon is {rho.horizon}")
    phases = rho.phases  # steps - 1 <= horizon, checked above
    for n in range(steps):
        if math.ldexp(phases[n], n) <= _LOG2 * (1.0 - 1e-12):
            raise ScheduleError(f"rho term at {n} is >= 1/2; the schedule requires rho < 1/2")
    if rho.horizon >= 2 and not is_bruno(rho, rho.horizon):
        raise ScheduleError("rho fails the summability test; schedule would collapse")

    logs = [math.log(t)]
    for n in range(steps):
        logs.append(logs[-1] - math.ldexp(phases[n], -exponent_shift))
    return RadiusSchedule(t, rho, exponent_shift, tuple(logs))


# ---------------------------------------------------------------------------
# Bound verifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricBoundReport:
    log_values: tuple[float, ...]
    log_bounds: tuple[float, ...]
    flags: tuple[bool, ...]

    def all_ok(self) -> bool:
        return all(self.flags)


def geometric_bound_check(f: LocalFactor, sched: RadiusSchedule) -> GeometricBoundReport:
    """Verify M(s_(n+1), s_n) <= C 2^(gap*(n+1)) rho_pi^-(a+b) t^-(a+b) along the schedule."""
    log_rho_pi = a_pi(sched.rho).log_limit
    power = f.inner_exponent + f.gap_exponent
    log_values, log_bounds, flags = [], [], []
    for n in range(sched.steps):
        lv = f.log_eval(math.exp(sched.log_radii[n + 1]), math.exp(sched.log_radii[n]))
        lb = (
            math.log(f.scale)
            + f.gap_exponent * (n + 1) * _LOG2
            - power * (log_rho_pi + math.log(sched.t))
        )
        log_values.append(lv)
        log_bounds.append(lb)
        flags.append(lv <= lb + 1e-12 * (1.0 + abs(lb)))
    return GeometricBoundReport(tuple(log_values), tuple(log_bounds), tuple(flags))


def rho_for_perturbative(f: PerturbativeFactor, b: BrunoSequence) -> BrunoSequence:
    """Schedule driver rho_n = 2^(-gap*(n+1)-n) * gain_n^-1 * b_n, clipped to RHO_CLIP.

    The result is negative-phase and Bruno whenever the inputs are: its phase
    is the sum of both input phases plus a summable (gap*(n+1)+n)/2^n tail.
    """
    if b.sign != -1 and any(u > 0.0 for u in b.phases):
        raise PreconditionError("target decay sequence must be negative-phase")
    log_clip = math.log(RHO_CLIP)
    phases = []
    for n in range(b.horizon + 1):
        log_rho = -(f.gap_exponent * (n + 1) + n) * _LOG2 - f.gain.log_term(n) + b.log_term(n)
        if log_rho > log_clip:
            log_rho = log_clip
        phases.append(math.ldexp(-log_rho, -n))
    rho = BrunoSequence(-1, tuple(phases))
    if rho.horizon >= 2 and not is_bruno(rho, rho.horizon):
        raise ScheduleError("derived rho is not summable within the horizon")
    return rho


@dataclass(frozen=True)
class PerturbativeBoundReport:
    N: int | None
    flags: tuple[bool, ...]
    log_lambda: tuple[float, ...]
    log_b: tuple[float, ...]


def perturbative_bound_check(
    f: PerturbativeFactor, b: BrunoSequence, sched: RadiusSchedule, horizon: int
) -> PerturbativeBoundReport:
    """First N with lam_n(s_(n+1), s_n) <= b_n for every n in [N, horizon].

    Comparison happens in log-domain; N is None when no such index exists.
    """
    if horizon + 1 > sched.steps:
        raise HorizonError("schedule too short for the requested horizon")
    if horizon > b.horizon:
        raise HorizonError("decay sequence too short for the requested horizon")
    log_lambda, log_b, flags = [], [], []
    for n in range(horizon + 1):
        lv = f.log_eval(n, math.exp(sched.log_radii[n + 1]), math.exp(sched.log_radii[n]))
        lb = b.log_term(n)
        log_lambda.append(lv)
        log_b.append(lb)
        flags.append(lv <= lb + 1e-12 * (1.0 + abs(lb)))
    return PerturbativeBoundReport(_holds_from(flags), tuple(flags), tuple(log_lambda), tuple(log_b))


@dataclass(frozen=True)
class RadiusSearchResult:
    t: float
    halvings: int
    schedule: RadiusSchedule
    report: PerturbativeBoundReport


def perturbative_radius_search(
    f: PerturbativeFactor,
    b: BrunoSequence,
    horizon: int,
    t0: float = 1.0,
    max_halvings: int = 40,
    exponent_shift: int = 0,
    require_N_at_most: int | None = None,
) -> RadiusSearchResult:
    """Halve t from t0 until the perturbative bound holds from some N on.

    The default schedule convention here is shift 0, the one under which the
    contraction (s_(n+1)/s_n)^(2^n) cancels rho_n exactly and the derived
    driver makes the bound hold with geometric room.
    """
    rho = rho_for_perturbative(f, b)
    t = t0
    for halvings in range(max_halvings + 1):
        sched = schedule_build(t, rho, horizon + 1, exponent_shift)
        report = perturbative_bound_check(f, b, sched, horizon)
        target = horizon if require_N_at_most is None else require_N_at_most
        if report.N is not None and report.N <= target:
            return RadiusSearchResult(t, halvings, sched, report)
        t *= 0.5
    raise ScheduleError(
        f"no admissible radius found from t0={t0} within {max_halvings} halvings"
    )


# ---------------------------------------------------------------------------
# KAM factor along a schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KamTameReport:
    tame: bool
    N: int | None
    log_m: tuple[float, ...]
    log_n: tuple[float, ...]
    schedule: RadiusSchedule


def kam_schedule_tame_check(
    K: KamFactor,
    eps: float,
    t: float,
    c_phase_exponent: float,
    horizon: int,
    exponent_shift: int = 1,
) -> KamTameReport:
    """Evaluate (M_n, N_n) along the 1/n^(1+eps)-phase schedule and test tameness.

    Builds rho with phase 1/n^(1+eps), evaluates both factor parts at
    (s_(n+1), s_n) in log-domain and runs the tameness scan on the evaluated
    pair.  c_phase_exponent, the exponent of the bound
    c_n = exp(-2^n / n^c_phase_exponent) that kam_run checks, must exceed
    1 + eps.
    """
    if eps <= 0.0:
        raise PreconditionError("eps must be positive")
    if c_phase_exponent - 1.0 <= eps:
        raise PreconditionError("c phase exponent must exceed 1 + eps")
    if horizon < 4:
        raise PreconditionError("horizon too short to split into halves")

    rho = BrunoSequence.phase_power(1.0, 1.0 + eps, -1, horizon + 1)
    sched = schedule_build(t, rho, horizon + 1, exponent_shift)

    # Empirical phase-decay precondition: (alpha_n + beta_n) * n^(2+eps)
    # must not grow from the lower half to the upper half of the horizon.
    weighted = [
        (K.quad_gain.phase(n) + K.lin_gain.phase(n)) * float(max(n, 1)) ** (2.0 + eps)
        for n in range(horizon + 1)
    ]
    half = horizon // 2
    if not max(weighted[half:]) <= max(weighted[: half + 1]) + 1e-12:
        raise PreconditionError("gain phases do not decay like o(1/n^(2+eps)) over the horizon")

    log_m, log_n = [], []
    for n in range(horizon + 1):
        lm, ln = K.log_eval(n, math.exp(sched.log_radii[n + 1]), math.exp(sched.log_radii[n]))
        log_m.append(lm)
        log_n.append(ln)

    verdict = is_tame(LogSequence(tuple(log_m)), LogSequence(tuple(log_n)), horizon)
    return KamTameReport(verdict.tame, verdict.N, tuple(log_m), tuple(log_n), sched)
