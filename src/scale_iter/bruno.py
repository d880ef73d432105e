"""Bruno-sequence calculus and the scalar models behind quadratic iterations.

A Bruno sequence is a positive sequence a_n = exp(+- 2^n u_n) whose phase
u_n = |log a_n| / 2^n is summable.  Its Bruno transform is the running
weighted geometric mean prod_{k<=n} a_k^(1/2^(k+1)); the transform limit
a_pi controls the threshold of the quadratic recursion u' = a_n u^2.
Tame pairs (a, b) with a_n b_n^2 <= b_(n+1) eventually play the same role
for the mixed recursion x' = (a_n x^2 + b_n x) / 2.

Everything here is evaluated in log-domain: terms such as exp(2^40) are
represented by their logs and never materialized as linear-scale floats.
All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

__all__ = [
    "LOG_ZERO_FLOOR",
    "LOG_OVERFLOW_CEILING",
    "BrunoSequence",
    "LogSequence",
    "OrbitTrace",
    "TameVerdict",
    "AbsorbCheck",
    "APiResult",
    "PreconditionError",
    "HorizonError",
    "log_bruno_transform",
    "a_pi",
    "is_bruno",
    "absorb_check",
    "quadratic_orbit",
    "is_tame",
    "mixed_orbit",
    "delta_search",
]

# Absolute floor below which an orbit counts as converged to zero, and the
# ceiling past which it counts as diverged.  Both live in log scale.
LOG_ZERO_FLOOR = math.log(1e-300)
LOG_OVERFLOW_CEILING = math.log(1e300)

# Tail below which a phase counts as summable (is_bruno), trailing window of
# the a_pi Cauchy test, log-domain slack of the tameness scan, and the number
# of bisection steps of delta_search.
BRUNO_TAIL_TOL = 0.5
A_PI_WINDOW = 8
TAME_SLACK = 1e-9
DELTA_BISECTIONS = 60

_LOG2 = math.log(2.0)


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class HorizonError(IndexError):
    """An index beyond the materialized horizon of a sequence was requested."""


def _logaddexp(x: float, y: float) -> float:
    if x == -math.inf:
        return y
    if y == -math.inf:
        return x
    hi, lo = (x, y) if x >= y else (y, x)
    return hi + math.log1p(math.exp(lo - hi))


def _safe_exp(x: float) -> float:
    if x == -math.inf:
        return 0.0
    if x > 709.0:
        return math.inf
    return math.exp(x)


@dataclass(frozen=True)
class LogSequence:
    """Explicit positive sequence stored by the logs of its terms."""

    log_terms: tuple[float, ...]

    @property
    def horizon(self) -> int:
        return len(self.log_terms) - 1

    def log_term(self, n: int) -> float:
        if not 0 <= n < len(self.log_terms):
            raise HorizonError(f"index {n} beyond horizon {self.horizon}")
        return self.log_terms[n]


@dataclass(frozen=True)
class BrunoSequence:
    """Positive sequence encoded by its phase, a_n = exp(sign * 2^n * u_n).

    sign is +1 (every term >= 1) or -1 (every term <= 1).  The phase vector
    u_0 .. u_horizon is nonnegative; summability of the phase is exactly the
    Bruno property.
    """

    sign: int
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise PreconditionError("sign must be +1 or -1")
        if not self.phases:
            raise PreconditionError("at least one phase term is required")
        for i, u in enumerate(self.phases):
            if not (u >= 0.0 and math.isfinite(u)):
                raise PreconditionError(f"phase at {i} must be finite and >= 0, got {u!r}")

    @property
    def horizon(self) -> int:
        return len(self.phases) - 1

    def phase(self, n: int) -> float:
        if not 0 <= n <= self.horizon:
            raise HorizonError(f"index {n} beyond horizon {self.horizon}")
        return self.phases[n]

    def log_term(self, n: int) -> float:
        # ldexp(u, n) = u * 2^n with exact scaling; every scan reads its terms
        # here, so the tuple is indexed without going through phase()
        if not 0 <= n < len(self.phases):
            raise HorizonError(f"index {n} beyond horizon {self.horizon}")
        return self.sign * math.ldexp(self.phases[n], n)

    def is_bruno(self, horizon: int | None = None) -> bool:
        return is_bruno(self, self.horizon if horizon is None else horizon)

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_phases(cls, sign: int, phases: Iterable[float]) -> "BrunoSequence":
        return cls(sign, tuple(float(u) for u in phases))

    @classmethod
    def constant(cls, value: float, horizon: int) -> "BrunoSequence":
        """Constant sequence a_n = value, phase |log value| / 2^n."""
        if value <= 0.0:
            raise PreconditionError("constant sequence value must be positive")
        lv = math.log(value)
        sign = 1 if lv >= 0.0 else -1
        return cls(sign, tuple(math.ldexp(abs(lv), -n) for n in range(horizon + 1)))

    @classmethod
    def geometric(cls, ratio: float, horizon: int) -> "BrunoSequence":
        """Geometric sequence a_n = ratio^n."""
        if ratio <= 0.0:
            raise PreconditionError("geometric ratio must be positive")
        lr = math.log(ratio)
        sign = 1 if lr >= 0.0 else -1
        return cls(sign, tuple(math.ldexp(n * abs(lr), -n) for n in range(horizon + 1)))

    @classmethod
    def phase_power(cls, scale: float, exponent: float, sign: int, horizon: int) -> "BrunoSequence":
        """Power-law phase u_n = scale / n^exponent.

        The index-0 phase uses n = 1, since the power law is singular there.
        """
        if scale < 0.0:
            raise PreconditionError("phase scale must be >= 0")
        return cls(sign, tuple(scale / float(max(n, 1)) ** exponent for n in range(horizon + 1)))

    @classmethod
    def exp_power(cls, base: float, sign: int, horizon: int, scale: float = 1.0) -> "BrunoSequence":
        """Terms exp(sign * scale * base^n), phase scale * (base/2)^n."""
        if base <= 0.0 or scale < 0.0:
            raise PreconditionError("base must be positive and scale >= 0")
        return cls(sign, tuple(scale * (base / 2.0) ** n for n in range(horizon + 1)))

    @classmethod
    def from_terms(cls, values: Sequence[float]) -> "BrunoSequence":
        """Build from linear-scale terms; they must sit on one side of 1."""
        logs = []
        for i, v in enumerate(values):
            if v <= 0.0:
                raise PreconditionError(f"term at {i} must be positive")
            logs.append(math.log(v))
        return cls.from_log_terms(logs)

    @classmethod
    def from_log_terms(cls, logs: Sequence[float]) -> "BrunoSequence":
        """Build from the logs of the terms; they must sit on one side of 0."""
        if all(l >= 0.0 for l in logs):
            sign = 1
        elif all(l <= 0.0 for l in logs):
            sign = -1
        else:
            raise PreconditionError("terms must all be >= 1 or all <= 1")
        return cls(sign, tuple(math.ldexp(abs(l), -n) for n, l in enumerate(logs)))


# ---------------------------------------------------------------------------
# Bruno transform and summability
# ---------------------------------------------------------------------------


def log_bruno_transform(a: BrunoSequence, n: int) -> float:
    """log of prod_{k=0..n} a_k^(1/2^(k+1)), which is sign * (sum of phases)/2."""
    if n > a.horizon:
        raise HorizonError(f"index {n} beyond horizon {a.horizon}")
    if n < 0:
        raise PreconditionError("index must be >= 0")
    return a.sign * 0.5 * math.fsum(a.phases[: n + 1])


@dataclass(frozen=True)
class APiResult:
    limit: float
    log_limit: float
    converged: bool


def a_pi(a: BrunoSequence, tol: float = 1e-12) -> APiResult:
    """Transform limit with a trailing-window Cauchy test in log scale.

    Successive partial log-products differ by u_n / 2; convergence requires
    every difference over the trailing A_PI_WINDOW to stay below tol.
    """
    if tol <= 0.0:
        raise PreconditionError("tol must be positive")
    h = a.horizon
    w = min(A_PI_WINDOW, h) if h > 0 else 0
    diffs = [a.phases[n] / 2.0 for n in range(h - w + 1, h + 1)]
    converged = bool(diffs) and all(d < tol for d in diffs)
    log_limit = log_bruno_transform(a, h)
    return APiResult(_safe_exp(log_limit), log_limit, converged)


def is_bruno(a: BrunoSequence, horizon: int) -> bool:
    """Summability probe: tail of the phase over the last half of the window.

    The boundary phase u_n = 1/n has tail log 2 ~ 0.69 at every horizon, so
    BRUNO_TAIL_TOL below that separates summable from non-summable at desk
    scale.
    """
    if horizon < 2:
        raise PreconditionError("horizon must be >= 2")
    if horizon > a.horizon:
        raise HorizonError(f"horizon {horizon} beyond materialized {a.horizon}")
    tail = math.fsum(a.phases[horizon // 2 : horizon + 1])
    return tail < BRUNO_TAIL_TOL


@dataclass(frozen=True)
class AbsorbCheck:
    gap: float
    bound: float
    ok: bool


def absorb_check(rho: BrunoSequence, n: int, exponent_shift: int = 0) -> AbsorbCheck:
    """Check 1 - rho_n^(1/2^(n+shift)) >= 2^-(n+1) for a negative-phase rho < 1/2.

    With shift 0 this is the stated absorption inequality; shift 1 matches the
    root actually used by the radius schedule recursion.  The gap is computed
    as -expm1(log rho_n / 2^(n+shift)) so it stays accurate for n ~ 40.
    """
    if rho.sign != -1:
        raise PreconditionError("absorb check requires a negative-phase sequence")
    u = rho.phase(n)
    if math.ldexp(u, n) < _LOG2 * (1.0 - 1e-12):
        raise PreconditionError(f"term at {n} is >= 1/2; the inequality assumes rho < 1/2")
    gap = -math.expm1(-math.ldexp(u, -exponent_shift))
    bound = math.ldexp(1.0, -(n + 1))
    return AbsorbCheck(gap, bound, gap >= bound)


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitTrace:
    """Record of a scalar orbit: values, step ratios, verdict and per-step flags.

    Values are materialized in linear scale up to the first divergence; the
    log_values vector is authoritative and never overflows.  The verdict is
    one of 'converged-to-zero', 'diverged', 'undecided'.
    """

    values: tuple[float, ...]
    log_values: tuple[float, ...]
    ratios: tuple[float, ...]
    bound_flags: tuple[bool, ...]
    verdict: str
    failed_at: int | None = None
    notes: tuple[str, ...] = ()

    def all_flags(self) -> bool:
        return all(self.bound_flags)


def _log_orbit(log_x0: float, steps: int, step: Callable[[int, float], float]) -> tuple[list[float], str, int | None]:
    """Log values of the orbit log x_(n+1) = step(n, log x_n), its verdict and the step it failed at.

    The orbit stops as diverged past LOG_OVERFLOW_CEILING; one that runs
    every step converged to zero if it ends below LOG_ZERO_FLOOR.
    """
    log_values = [log_x0]
    for n in range(steps):
        log_values.append(step(n, log_values[-1]))
        if log_values[-1] > LOG_OVERFLOW_CEILING:
            return log_values, "diverged", n + 1
    return log_values, "converged-to-zero" if log_values[-1] < LOG_ZERO_FLOOR else "undecided", None


def _trace(
    log_values: list[float], flags: list[bool], verdict: str, failed_at: int | None, notes: tuple[str, ...] = ()
) -> OrbitTrace:
    """The OrbitTrace of an orbit's log values, with linear values and step ratios read off them."""
    values = tuple(_safe_exp(l) for l in log_values)
    ratios = tuple(
        _safe_exp(log_values[n + 1] - log_values[n]) if log_values[n] != -math.inf else 0.0
        for n in range(len(log_values) - 1)
    )
    return OrbitTrace(values, tuple(log_values), ratios, tuple(flags), verdict, failed_at, notes)


def quadratic_orbit(a: BrunoSequence, u0: float, steps: int) -> OrbitTrace:
    """Iterate u_(n+1) = a_n u_n^2 in log scale and classify the orbit.

    The orbit converges to zero exactly when u0 < 1/a_pi, diverges when
    u0 > 1/a_pi.  Per-step flags record agreement with the closed form
    u_n = (transform_(n-1) * u0)^(2^n) to relative 1e-9 while finite.
    """
    if u0 < 0.0:
        raise PreconditionError("u0 must be >= 0")
    if steps > a.horizon:
        raise HorizonError(f"steps {steps} beyond horizon {a.horizon}")
    limit = a_pi(a)
    if not limit.converged:
        raise PreconditionError("a_pi did not converge for the driving sequence")

    log_u0 = math.log(u0) if u0 > 0.0 else -math.inf
    log_values, verdict, failed_at = _log_orbit(log_u0, steps, lambda n, lu: a.log_term(n) + 2.0 * lu)

    # Closed-form comparison.  Near the threshold the bracket
    # loghat + log u0 cancels to ~2^-n, and the 2^n factor would amplify a
    # float rounding of the bracket into garbage, so the bracket is summed
    # exactly over the represented phases and rounded once at the end.
    flags = [True]
    if log_u0 == -math.inf:
        flags.extend(True for _ in range(1, len(log_values)))
    else:
        phase_sum = Fraction(0)
        log_u0_exact = Fraction(log_u0)
        for n in range(1, len(log_values)):
            phase_sum += Fraction(a.phases[n - 1])
            bracket = Fraction(a.sign) * phase_sum / 2 + log_u0_exact
            exact = bracket * (1 << n)
            try:
                closed = float(exact)
            except OverflowError:
                closed = math.inf if exact > 0 else -math.inf
            it = log_values[n]
            if math.isinf(it) or math.isinf(closed):
                flags.append(it == closed or abs(min(it, closed)) > LOG_OVERFLOW_CEILING)
            else:
                flags.append(abs(it - closed) <= 1e-9 * max(1.0, abs(closed)))
    return _trace(log_values, flags, verdict, failed_at)


# ---------------------------------------------------------------------------
# Tame pairs and the mixed orbit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TameVerdict:
    tame: bool
    N: int | None
    flags: tuple[bool, ...]
    violations: tuple[tuple[int, str], ...] = ()


def is_tame(a: BrunoSequence | LogSequence, b: BrunoSequence | LogSequence, horizon: int) -> TameVerdict:
    """Find the least N with a_n b_n^2 <= b_(n+1) for every n in [N, horizon).

    Precondition violations (a_n < 1, b_n > 1, b increasing) are reported
    per-index rather than raised, since evaluated bound pairs routinely break
    them at early indices while still being tame from some N on.  Comparisons
    are log-domain with the small TAME_SLACK so exact equality cases count as
    tame.
    """
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    if a.horizon < horizon - 1 or b.horizon < horizon:
        raise HorizonError("sequences shorter than requested horizon")

    violations: list[tuple[int, str]] = []
    for n in range(horizon):
        if a.log_term(n) < -TAME_SLACK:
            violations.append((n, "a term below 1"))
    for n in range(horizon + 1):
        if b.log_term(n) > TAME_SLACK:
            violations.append((n, "b term above 1"))
        if n >= 1 and b.log_term(n) > b.log_term(n - 1) + TAME_SLACK:
            violations.append((n, "b not decreasing"))

    flags = []
    for n in range(horizon):
        lhs = a.log_term(n) + 2.0 * b.log_term(n)
        rhs = b.log_term(n + 1)
        flags.append(lhs <= rhs + TAME_SLACK * (1.0 + abs(rhs)))

    N: int | None = None
    ok_from_here = True
    for n in range(horizon - 1, -1, -1):
        ok_from_here = ok_from_here and flags[n]
        if ok_from_here:
            N = n
    return TameVerdict(N is not None, N, tuple(flags), tuple(violations))


def mixed_orbit(
    a: BrunoSequence | LogSequence,
    b: BrunoSequence | LogSequence,
    x0: float,
    steps: int,
    require_tame: bool = True,
) -> OrbitTrace:
    """Iterate x_(n+1) = (a_n x_n^2 + b_n x_n) / 2 with per-step decay flags.

    Flag n records x_n <= b_n x_(n-1); the whole iteration runs in log scale
    so pairs like b_n = exp(-2^n) stay exact at horizon 40.
    """
    if x0 < 0.0:
        raise PreconditionError("x0 must be >= 0")
    notes: tuple[str, ...] = ()
    if require_tame:
        verdict = is_tame(a, b, steps)
        if not verdict.tame:
            raise PreconditionError("pair fails the tameness check over the horizon")
        if verdict.violations:
            notes = tuple(f"precondition violation at {i}: {msg}" for i, msg in verdict.violations)

    log_half = math.log(0.5)
    log_values, verdict_str, failed_at = _log_orbit(
        math.log(x0) if x0 > 0.0 else -math.inf,
        steps,
        lambda n, lx: log_half + _logaddexp(a.log_term(n) + 2.0 * lx, b.log_term(n) + lx),
    )
    flags = [True]
    for n in range(1, len(log_values)):
        flags.append(log_values[n] <= b.log_term(n) + log_values[n - 1] + 1e-12)
    return _trace(log_values, flags, verdict_str, failed_at, notes)


def delta_search(a: BrunoSequence | LogSequence, b: BrunoSequence | LogSequence, steps: int) -> float:
    """Bisect the largest x0 in [0, 1] whose mixed orbit keeps every flag true.

    Each flag is a monotone predicate of x0, so the feasible set is an
    interval [0, delta] and bisection is sound.  Returns the last feasible
    lower endpoint after DELTA_BISECTIONS halvings.
    """

    def feasible(x0: float) -> bool:
        return mixed_orbit(a, b, x0, steps, require_tame=False).all_flags()

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(DELTA_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
