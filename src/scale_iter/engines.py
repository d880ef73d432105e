"""Runnable iterations: normal forms, Newton inversion, and generic drivers.

Each engine produces an IterationReport, a uniform per-step record of radii,
step norms, residuals and monitored bounds.  The generic drivers
(contraction_run, kam_run) treat their contraction or mixed bounds as
assumptions to monitor: violations are flagged in the report rather than
aborting, since probing those hypotheses is the point of running them.
Exact Newton runs on integers: X = integral(x) and Q = X^2/2 - integral(y)
are numerators over one denominator each, the residual is Q', the
correction Xi = integral(xi) is the division Q / X with one gcd per row,
and a step updates Q by (Q - X Xi) + Xi^2/2 without re-squaring X.
That state is the only place the (X^2/2)' and (X Xi)' forms are computed;
eps_integral_map and linearization_action take the two-product forms
x * integral(x) and x * integral(xi) + xi * integral(x) in both modes.
Float Newton solves with one table of row weights built per run.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from .bruno import BrunoSequence, PreconditionError
from .factors import (
    KamFactor,
    PerturbativeFactor,
    RadiusSchedule,
    kam_schedule_tame_check,
    rho_for_perturbative,
    schedule_build,
)
from .series import (
    Derivation,
    TruncatedPowerSeries,
    _cauchy,
    _cauchy_square,
    _common_denominator,
    _integral_numerators,
    _numerator_norm,
    linearization_action,
    ps_antiderive,
    ps_divide_monomial,
    ps_lie_exp,
    ps_mul,
    ps_norm,
)

if TYPE_CHECKING:
    from .fourier import FourierOneForm

__all__ = [
    "ScaledElement",
    "ScalarElement",
    "SeriesElement",
    "StepRecord",
    "IterationReport",
    "SingularLinearizationError",
    "StepMapError",
    "TamenessError",
    "MorseResult",
    "CircleResult",
    "NewtonResult",
    "DriveResult",
    "morse_run",
    "circle_run",
    "newton_invert",
    "quasi_newton_run",
    "contraction_run",
    "kam_run",
    "eps_integral_map",
    "scalar_contraction_family",
    "scalar_kam_family",
    "report_to_json",
    "report_csv_rows",
]

CAUCHY_TOL = 1e-12
CAUCHY_WINDOW = 4
MORSE_INNER, MORSE_OUTER = 0.4, 0.5  # the radii a Morse step is measured between


class SingularLinearizationError(RuntimeError):
    """The triangular solve hit a vanishing diagonal; carries the step index."""

    def __init__(self, step: int):
        super().__init__(f"singular diagonal at step {step}: constant term reached zero")
        self.step = step


class StepMapError(RuntimeError):
    def __init__(self, step: int, cause: Exception):
        super().__init__(f"step map failed at step {step}: {cause}")
        self.step = step


class TamenessError(PreconditionError):
    """The schedule tameness precondition failed for a mixed driver."""


# ---------------------------------------------------------------------------
# Scaled elements
# ---------------------------------------------------------------------------


class ScaledElement(Protocol):
    """Payload with a norm at every analyticity radius, monotone in the radius."""

    def norm_at(self, radius: float) -> float: ...

    def sub(self, other: "ScaledElement") -> "ScaledElement": ...


@dataclass(frozen=True)
class ScalarElement:
    value: float

    def norm_at(self, radius: float) -> float:
        return abs(self.value)

    def sub(self, other: "ScalarElement") -> "ScalarElement":
        return ScalarElement(self.value - other.value)


@dataclass(frozen=True)
class SeriesElement:
    series: TruncatedPowerSeries

    def norm_at(self, radius: float) -> float:
        return ps_norm(self.series, radius)

    def sub(self, other: "SeriesElement") -> "SeriesElement":
        return SeriesElement(self.series - other.series)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRecord:
    n: int
    s: float
    step_norm: float
    residual: float
    bound: float | None  # None when there is no previous step to bound against
    bound_ok: bool
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IterationReport:
    engine: str
    steps: tuple[StepRecord, ...]
    verdict: str
    meta: dict = field(default_factory=dict)


def _verdict_from_steps(norms: Sequence[float]) -> str:
    if any(math.isnan(x) or math.isinf(x) for x in norms):
        return "diverged"
    if len(norms) >= CAUCHY_WINDOW and math.fsum(norms[-CAUCHY_WINDOW:]) < CAUCHY_TOL:
        return "converged"
    return "undecided"


def report_to_json(report: IterationReport) -> dict:
    return {
        "schema": "report.v1",
        "engine": report.engine,
        "verdict": report.verdict,
        "meta": report.meta,
        "steps": [
            {
                "n": r.n,
                "s": r.s,
                "step_norm": r.step_norm,
                "residual": r.residual,
                "bound": r.bound,
                "flag": r.bound_ok,
                "extras": r.extras,
            }
            for r in report.steps
        ],
    }


def report_csv_rows(report: IterationReport) -> list[list[object]]:
    """Fixed columns (n, s_n, step_norm, residual, bound, flag) plus sorted extras."""
    extra_keys = sorted({k for r in report.steps for k in r.extras})
    header = ["n", "s_n", "step_norm", "residual", "bound", "flag"] + extra_keys
    rows: list[list[object]] = [header]
    for r in report.steps:
        rows.append(
            [r.n, r.s, r.step_norm, r.residual, "" if r.bound is None else r.bound, r.bound_ok]
            + [r.extras.get(k, "") for k in extra_keys]
        )
    return rows


# ---------------------------------------------------------------------------
# Morse normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorseResult:
    report: IterationReport
    functions: tuple[TruncatedPowerSeries, ...]
    generators: tuple[TruncatedPowerSeries, ...]


def _morse_remainder(f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    half = Fraction(1, 2)
    quad = TruncatedPowerSeries.monomial(2, half, f.truncation, f.mode)
    return f - quad


def morse_run(f0: TruncatedPowerSeries, steps: int) -> MorseResult:
    """Quadratic normal-form iteration for f = x^2/2 + R, valuation(R) >= 3.

    At step n the first 2^n remainder terms are divided by x, negated, and
    used as the generator of a Lie exponential; the new remainder then has
    valuation at least 2^(n+1) + 2, which is asserted rather than assumed.
    Exact mode is required so the recorded coefficients are reproducible.
    """
    if f0.mode != "exact":
        raise PreconditionError("normal-form runs require exact mode")
    if f0.truncation < 2**steps + 2:
        raise PreconditionError(
            f"truncation {f0.truncation} too small; need at least {2 ** steps + 2}"
        )
    if f0.real_coefficient(2) != Fraction(1, 2) or not _morse_remainder(f0).valuation >= 3:
        raise PreconditionError("input must be x^2/2 plus a remainder of valuation >= 3")

    D = f0.truncation
    functions = [f0]
    generators: list[TruncatedPowerSeries] = []
    records: list[StepRecord] = []
    f = f0
    for n in range(steps):
        remainder = _morse_remainder(f)
        if not remainder.is_zero() and remainder.valuation < 2**n + 2:
            raise RuntimeError(
                f"remainder valuation {remainder.valuation} below 2^{n}+2: elimination bug"
            )
        lead = 2**n + 2
        block = list(TruncatedPowerSeries.zero(D, f.mode).coefficients)
        for d in range(lead, min(lead + 2**n, D + 1)):
            block[d] = remainder.coefficients[d]
        block_series = TruncatedPowerSeries(D, f.mode, tuple(block))
        generator = -ps_divide_monomial(block_series, 1)
        f_next = ps_lie_exp(Derivation(generator), f)

        new_remainder = _morse_remainder(f_next)
        if not new_remainder.is_zero() and new_remainder.valuation < 2 ** (n + 1) + 2:
            raise RuntimeError(
                f"post-step valuation {new_remainder.valuation} below 2^{n + 1}+2"
            )

        diff = f_next - f
        bound = (MORSE_INNER / MORSE_OUTER) ** (2**n + 2) * ps_norm(diff, MORSE_OUTER)
        step_norm = ps_norm(diff, MORSE_INNER)
        record = StepRecord(
            n=n,
            s=MORSE_INNER,
            step_norm=step_norm,
            residual=ps_norm(new_remainder, MORSE_INNER),
            bound=bound,
            bound_ok=step_norm <= bound * (1.0 + 1e-9),
            extras={"valuation": new_remainder.valuation},
        )
        records.append(record)
        generators.append(generator)
        functions.append(f_next)
        f = f_next

    verdict = _verdict_from_steps([r.step_norm for r in records])
    report = IterationReport(
        "morse",
        tuple(records),
        verdict,
        {"truncation": D, "steps": steps},
    )
    return MorseResult(report, tuple(functions), tuple(generators))


# ---------------------------------------------------------------------------
# Circle normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleResult:
    report: IterationReport
    forms: tuple[FourierOneForm, ...]


def circle_run(
    eps: float,
    steps: int,
    cap: int,
    lie_order: int = 2,
    strip_width: float = 0.5,
) -> CircleResult:
    """Doubling elimination for (1 + eps cos theta) dtheta.

    Step n removes harmonics 1..2^n of the current perturbation through the
    homological solve followed by a Lie step of order lie_order; suppressed
    harmonics re-appear with higher-order coefficients, which the report
    records for |k| <= 4 together with the strip norm of what remains.
    """
    # the Fourier layer, and with it numpy, loads here so the other commands never pay for it
    from .fourier import (
        FourierOneForm, _difference, _sum, cos_coefficient, lie_exp_terms, solve_homological, strip_l2_norm,
    )

    if not 0.0 <= eps < 1.0:
        raise PreconditionError("eps must sit in [0, 1)")
    if cap < 2 ** (steps + 1):
        raise PreconditionError(f"cap {cap} too small; need at least 2^(steps+1)")

    alpha = FourierOneForm.from_cos({0: 1.0, 1: eps}, cap)
    forms = [alpha]
    records: list[StepRecord] = []
    prev_norm: float | None = None
    for n in range(steps):
        cutoff = 2**n
        target = alpha.perturbation(cutoff)
        mean_drift = abs(alpha.coefficient(0) - 1.0)
        if target.band.size:
            v = solve_homological(target, cutoff)
            terms = lie_exp_terms(v, alpha, lie_order)
            alpha_next = _sum(terms)
            last_term_norm = strip_l2_norm(terms[-1], strip_width)
        else:
            alpha_next = alpha
            last_term_norm = 0.0

        new_pert = alpha_next.perturbation(cap)
        step_norm = strip_l2_norm(_difference(alpha_next, alpha), strip_width)
        residual = strip_l2_norm(new_pert, strip_width)
        extras = {
            "mean_drift": mean_drift,
            "last_term_norm": last_term_norm,
        }
        for k in range(1, 5):
            extras[f"cos_{k}"] = cos_coefficient(alpha_next, k)
        records.append(
            StepRecord(
                n=n,
                s=strip_width,
                step_norm=step_norm,
                residual=residual,
                bound=prev_norm,
                bound_ok=(prev_norm is None or residual <= prev_norm),
                extras=extras,
            )
        )
        prev_norm = residual
        alpha = alpha_next
        forms.append(alpha)

    verdict = _verdict_from_steps([r.step_norm for r in records])
    report = IterationReport(
        "circle",
        tuple(records),
        verdict,
        {"eps": eps, "cap": cap, "lie_order": lie_order, "strip_width": strip_width},
    )
    return CircleResult(report, tuple(forms))


# ---------------------------------------------------------------------------
# Newton inversion of x -> x * integral(x)
# ---------------------------------------------------------------------------


def eps_integral_map(x: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """The model map x -> x * integral(x); lands in series of valuation >= 1."""
    integral, _ = ps_antiderive(x)
    return ps_mul(x, integral)


def _solve_weights(rows: int) -> list[array]:
    """Row m of the float solve: (m+2)/((j+1)(m-j+1)) for j = 0..m, the last one the diagonal's (m+2)/(m+1).

    Rows are arrays of doubles, a third of the memory of lists of floats.
    """
    return [array("d", [(m + 2) / ((j + 1) * (m - j + 1)) for j in range(m + 1)]) for m in range(rows)]


def _solve_linearization(
    x: TruncatedPowerSeries, rhs: TruncatedPowerSeries, weights: list[array], step: int
) -> TruncatedPowerSeries:
    """Float triangular solve of linearization_action(x, xi) = rhs on the rows of weights.

    Row m + 1 determines xi_m with diagonal x_0 (m+2)/(m+1); a table of
    fewer than D rows leaves the top xi at zero, a deliberately approximate
    inverse.  Exact runs divide on integers instead (_divide).  The map is
    homogeneous, so only an exactly zero x_0 is singular, as in _divide.
    """
    D = x.truncation
    coeffs = x.coefficients
    x0 = coeffs[0]
    if x0 == 0:
        raise SingularLinearizationError(step)

    xi: list[float] = []
    for m, row in enumerate(weights):
        # (Dxi)_(m+1) = sum_j xi_j x_(m-j) (1/(j+1) + 1/(m-j+1)), summed in the order of j
        acc = rhs.coefficients[m + 1]
        for a, b, w in zip(xi, coeffs[m:0:-1], row):
            acc = acc - a * b * w
        xi.append(acc / (x0 * row[m]))
    return TruncatedPowerSeries(D, "float", (*xi, *[0.0] * (D + 1 - len(xi))))


def _divide(nq: list[int], dq: int, nx: list[int], dx: int, rows: int, step: int) -> tuple[list[int], int]:
    """The first `rows` coefficients a_m of Q / X, as numerators over one growing denominator da.

    nq[m] / dq is Q at degree m + 2 and nx[k] / dx is X at degree k + 1.  Row m
    reads x_0 a_m + S = Q_(m+2) with x_0 = X_1 = p0 / dx, where S, the sum of
    a_j X_(m+1-j) over j < m, is an integer convolution s over da dx.  So
    a_m da = (nq[m] da dx - s dq) / (dq p0); one gcd with dq p0 reduces it and
    leaves the factor da must grow by, which keeps da the least common
    denominator.  Rows below the valuation v of Q are zero, so the solve
    starts at row v.
    """
    p0 = nx[0]
    if p0 == 0:
        raise SingularLinearizationError(step)
    v = next((m for m, q in enumerate(nq[:rows]) if q), rows)
    d0 = dq * p0
    na: list[int] = []
    da = 1
    for m in range(v, rows):
        s = sum(map(operator.mul, na, nx[m - v : 0 : -1]))
        num = nq[m] * da * dx - s * dq
        g = math.gcd(num, d0)
        num, grow = (num // g, d0 // g) if d0 > 0 else (-num // g, -d0 // g)
        if grow > 1:
            na = [n * grow for n in na]
            da *= grow
        na.append(num)
    return [0] * v + na, da


def _combine(nu: list[int], du: int, nv: list[int], dv: int, sign: int) -> tuple[list[int], int]:
    """nu/du + sign * nv/dv entry by entry (nv may be shorter), over its least common denominator."""
    den = math.lcm(du, dv)
    fu, fv = den // du, sign * (den // dv)
    out = [a * fu for a in nu]
    for k, b in enumerate(nv):
        if b:
            out[k] += b * fv
    g = math.gcd(den, *out)
    return ([a // g for a in out], den // g) if g > 1 else (out, den)


def _derivative(nq: list[int], dq: int) -> tuple[list[int], int]:
    """Numerators of Q' at degrees 0..D, for Q at degrees 2..D+1."""
    return [0, *((m + 2) * q for m, q in enumerate(nq))], dq


class _FloatNewton:
    """Float Newton state: x and the residual x * integral(x) - y as series.

    drift is the initial x0 * integral(x0) - x0; the solve weights are built once.
    """

    norm = staticmethod(ps_norm)
    valuation = staticmethod(operator.attrgetter("valuation"))

    def __init__(self, x0: TruncatedPowerSeries, y: TruncatedPowerSeries, defect: int):
        self.x, self.y = x0, y
        image0 = eps_integral_map(x0)
        self.residual, self.drift = image0 - y, image0 - x0
        self.weights = _solve_weights(x0.truncation - defect)

    def step(self, n: int) -> tuple[TruncatedPowerSeries, TruncatedPowerSeries]:
        """Move to x - xi; return xi and the defect residual - L(x) xi."""
        xi = _solve_linearization(self.x, self.residual, self.weights, n)
        defect = self.residual - linearization_action(self.x, xi)
        self.x = self.x - xi
        self.residual = eps_integral_map(self.x) - self.y
        return xi, defect

    def solution(self) -> TruncatedPowerSeries:
        return self.x


class _ExactNewton:
    """Exact Newton state on integers: X = integral(x) and Q = X^2/2 - integral(y).

    X sits at degrees 1..D and Q at degrees 2..D+1, each as numerators over
    one denominator; the residual is Q', and Xi = integral(xi) solves
    X Xi = Q row by row.  A step sets X <- X - Xi and Q <- (Q - X Xi) + Xi^2/2,
    which is (X - Xi)^2/2 - integral(y) in the truncated ring.  x_D stays
    aside, since the solve never writes xi_D.  Series handed to the loop are
    (numerators at degrees 0..D, denominator) pairs; drift is the initial
    (X^2/2)' - x0, which is x0 * integral(x0) - x0.
    """

    norm = staticmethod(lambda f, t: _numerator_norm(*f, t))
    valuation = staticmethod(lambda f: next((k for k, n in enumerate(f[0]) if n), len(f[0])))

    def __init__(self, x0: TruncatedPowerSeries, y: TruncatedPowerSeries, defect: int):
        D = x0.truncation
        self.D, self.rows, self.top = D, D - defect, x0.coefficients[-1]
        self.nx, self.dx = _integral_numerators(x0.coefficients[:-1])
        # X^2/2 at degrees 2..D+1; integral(y) starts at degree 2, since y_0 = 0
        nsq, dsq = _cauchy_square(self.nx, D - 1), 2 * self.dx * self.dx
        ny, dy = _integral_numerators(y.coefficients)
        self.nq, self.dq = _combine(nsq, dsq, ny[1:], dy, -1)
        self.residual = _derivative(self.nq, self.dq)
        self.drift = _combine(*_derivative(nsq, dsq), *_common_denominator(x0.coefficients), -1)

    def step(self, n: int) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
        """Move to X - Xi; return xi and the defect (Q - X Xi)'."""
        D = self.D
        na, da = _divide(self.nq, self.dq, self.nx, self.dx, self.rows, n)
        # the defect takes its own product, so it checks the solve rather than echoing it
        npr, dpr = _combine(self.nq, self.dq, _cauchy(na, self.nx, D - 1, 0), da * self.dx, -1)
        self.nx, self.dx = _combine(self.nx, self.dx, na, da, -1)
        self.nq, self.dq = _combine(npr, dpr, _cauchy_square(na, D - 1), 2 * da * da, 1)
        self.residual = _derivative(self.nq, self.dq)
        xi = [(j + 1) * a for j, a in enumerate(na)] + [0] * (D + 1 - len(na))
        return (xi, da), _derivative(npr, dpr)

    def solution(self) -> TruncatedPowerSeries:
        head = (Fraction((k + 1) * n, self.dx) for k, n in enumerate(self.nx))
        return TruncatedPowerSeries(self.D, "exact", (*head, self.top))


def _defect_ratio(defect_norm: float, r_norm: float) -> float:
    """defect_norm / r_norm^2, without squaring an r_norm whose square underflows; 0 at r_norm = 0."""
    if r_norm == 0.0:
        return 0.0
    square = r_norm * r_norm
    return defect_norm / square if square > 0.0 else defect_norm / r_norm / r_norm


@dataclass(frozen=True)
class NewtonResult:
    report: IterationReport
    solution: TruncatedPowerSeries
    residual_valuations: tuple[int, ...]


def _newton_loop(
    y: TruncatedPowerSeries,
    x0: TruncatedPowerSeries,
    steps: int,
    defect: int,
    norm_radius: float,
    schedule: RadiusSchedule | None,
    engine: str,
) -> NewtonResult:
    if y.valuation < 1:
        raise PreconditionError("target must vanish at the origin")
    if x0.coefficients[0] == 0:
        raise PreconditionError("initial guess must have a nonzero constant term")
    if not 0 <= defect <= x0.truncation:
        raise PreconditionError("defect must sit in [0, truncation]")

    def radius_for(step: int, half: bool = False) -> float:
        if schedule is None:
            return norm_radius
        # Two schedule radii are consumed per step; half-indices read the
        # odd positions of a doubled-resolution schedule.
        idx = 2 * step + (1 if half else 2)
        idx = min(idx, schedule.steps)
        return schedule.radius(idx)

    D = x0.truncation
    newton = (_ExactNewton if x0.mode == "exact" else _FloatNewton)(x0, y, defect)
    residual0 = newton.residual
    records: list[StepRecord] = []
    valuations = [newton.valuation(residual0)]
    for n in range(steps):
        if valuations[-1] > D:  # zero residual
            break
        residual = newton.residual
        try:
            xi, defect_series = newton.step(n)
        except SingularLinearizationError:
            records.append(
                StepRecord(n, radius_for(n), math.inf, newton.norm(residual, radius_for(n)), 0.0, False, {})
            )
            report = IterationReport(engine, tuple(records), "singular", {"failed_step": n})
            return NewtonResult(report, newton.solution(), tuple(valuations))

        s_in = radius_for(n)
        s_half = radius_for(n, half=True)
        r_norm = newton.norm(residual, s_half)
        step_norm = newton.norm(xi, s_in)
        defect_norm = newton.norm(defect_series, s_in)
        next_norm = newton.norm(newton.residual, s_in)
        valuations.append(newton.valuation(newton.residual))
        extras = {
            "residual_valuation": valuations[-1],
            "defect_norm": defect_norm,
            "defect_ratio": _defect_ratio(defect_norm, r_norm),
        }
        records.append(
            StepRecord(
                n=n,
                s=s_in,
                step_norm=step_norm,
                residual=next_norm,
                bound=r_norm,
                bound_ok=next_norm <= r_norm * (1.0 + 1e-9) if r_norm > 0.0 else True,
                extras=extras,
            )
        )

    final_norm = newton.norm(newton.residual, norm_radius)
    verdict = (
        "converged"
        if valuations[-1] > D or final_norm < CAUCHY_TOL
        else _verdict_from_steps([r.step_norm for r in records])
    )
    report = IterationReport(
        engine,
        tuple(records),
        verdict,
        {
            "norm_radius": norm_radius,
            "defect": defect,
            "final_residual_norm": final_norm,
            "initial_residual_norm": newton.norm(residual0, norm_radius),
            "initial_drift_norm": newton.norm(newton.drift, norm_radius),
            "defect_ratio_max": max(
                (r.extras["defect_ratio"] for r in records), default=0.0
            ),
        },
    )
    return NewtonResult(report, newton.solution(), tuple(valuations))


def newton_invert(
    y: TruncatedPowerSeries,
    x0: TruncatedPowerSeries,
    steps: int,
    norm_radius: float = 0.5,
    schedule: RadiusSchedule | None = None,
) -> NewtonResult:
    """Newton iteration x' = x - L(x)(f(x) - y) for f(x) = x * integral(x).

    L(x) inverts the linearization degree by degree; the residual valuation
    then satisfies v' = 2v - 1 exactly until the truncation absorbs it, the
    series-ring face of quadratic convergence.
    """
    return _newton_loop(y, x0, steps, 0, norm_radius, schedule, "newton")


def quasi_newton_run(
    y: TruncatedPowerSeries,
    x0: TruncatedPowerSeries,
    steps: int,
    defect: int,
    norm_radius: float = 0.5,
    schedule: RadiusSchedule | None = None,
) -> NewtonResult:
    """Newton iteration with a deliberately degraded inverse.

    The top `defect` rows of the triangular solve are dropped, so the
    returned correction only approximately inverts the linearization; the
    per-step defect norm and its ratio to |residual|^2 are recorded instead
    of being assumed small.
    """
    return _newton_loop(y, x0, steps, defect, norm_radius, schedule, "quasi-newton")


# ---------------------------------------------------------------------------
# Generic drivers
# ---------------------------------------------------------------------------

StepMap = Callable[[int, float, float, ScaledElement], ScaledElement]


@dataclass(frozen=True)
class DriveResult:
    report: IterationReport
    schedule: RadiusSchedule
    iterates: tuple[ScaledElement, ...]
    log_m: tuple[float, ...] = ()
    log_n: tuple[float, ...] = ()


def _drive(
    step_maps: StepMap,
    sched: RadiusSchedule,
    x0: ScaledElement,
    steps: int,
    monitor: Callable[[int, float | None], tuple[float | None, float, dict]],
    engine: str,
    meta: dict,
) -> tuple[IterationReport, tuple[ScaledElement, ...]]:
    """Iterate x_(n+1) = f_n(s_(n+1), s_n, x_n) along the schedule.

    monitor(n, previous step norm) gives the bound on step n (None at the
    first step), the threshold the step must stay below over the upper half
    of the horizon, and the extras to record.  Violations are recorded, not
    fatal.
    """
    x = x0
    prev_step: float | None = None
    records: list[StepRecord] = []
    iterates = [x0]
    for n in range(steps):
        s_in, s_out = sched.radius(n + 1), sched.radius(n)
        try:
            x_next = step_maps(n, s_in, s_out, x)
        except Exception as exc:  # noqa: BLE001
            raise StepMapError(n, exc) from exc
        step_norm = x_next.sub(x).norm_at(s_in)
        bound, threshold, extras = monitor(n, prev_step)
        extras["eventual_ok"] = step_norm < threshold if n >= steps // 2 else True
        records.append(
            StepRecord(
                n=n,
                s=s_in,
                step_norm=step_norm,
                residual=x_next.norm_at(s_in),
                bound=bound,
                bound_ok=True if bound is None else step_norm <= bound * (1.0 + 1e-9),
                extras=extras,
            )
        )
        prev_step = step_norm
        x = x_next
        iterates.append(x)

    verdict = _verdict_from_steps([r.step_norm for r in records])
    return IterationReport(engine, tuple(records), verdict, meta), tuple(iterates)


def contraction_run(
    step_maps: StepMap,
    lam: PerturbativeFactor,
    b: BrunoSequence,
    t: float,
    x0: ScaledElement,
    steps: int,
    exponent_shift: int = 1,
) -> DriveResult:
    """Iterate x_(n+1) = f_n(s_(n+1), s_n, x_n) along the derived schedule.

    Monitors the contraction estimate |x_(n+1) - x_n| at s_(n+1) against
    b_n times the previous step norm, and the eventual smallness |step| < b_n
    over the upper half of the horizon.  Violations are recorded, not fatal.
    """
    if b.sign != -1:
        raise PreconditionError("decay sequence must be negative-phase")
    rho = rho_for_perturbative(lam, b)
    sched = schedule_build(t, rho, steps + 1, exponent_shift)

    def monitor(n: int, prev_step: float | None) -> tuple[float | None, float, dict]:
        b_n = math.exp(b.log_term(n)) if b.log_term(n) > -700 else 0.0
        return (None if prev_step is None else b_n * prev_step), b_n, {"b_n": b_n}

    meta = {"t": t, "steps": steps, "exponent_shift": exponent_shift}
    report, iterates = _drive(step_maps, sched, x0, steps, monitor, "contraction", meta)
    return DriveResult(report, sched, iterates)


def kam_run(
    step_maps: StepMap,
    K: KamFactor,
    eps: float,
    c_phase_exponent: float,
    t: float,
    x0: ScaledElement,
    steps: int,
    exponent_shift: int = 1,
) -> DriveResult:
    """Iterate along the 1/n^(1+eps)-phase schedule under a mixed bound.

    Requires the schedule tameness check to pass first; then monitors
    |x_(n+1) - x_n| against M_n prev^2 + N_n prev and the eventual bound
    against c_n = exp(-2^n / n^(c_phase_exponent)) over the upper half.
    """
    check = kam_schedule_tame_check(K, eps, t, c_phase_exponent, steps, exponent_shift)
    if not check.tame:
        raise TamenessError("evaluated factor pair is not tame over the horizon")

    def monitor(n: int, prev_step: float | None) -> tuple[float | None, float, dict]:
        m_n = math.exp(check.log_m[n]) if check.log_m[n] < 700 else math.inf
        nn = _exp(check.log_n[n]) if check.log_n[n] > -700 else 0.0
        bound = None if prev_step is None else _term(m_n, _square(prev_step)) + _term(nn, prev_step)
        log_c = -math.ldexp(1.0, n) / float(max(n, 1)) ** c_phase_exponent
        c_n = math.exp(log_c) if log_c > -700 else 0.0
        return bound, c_n, {"c_n": c_n}

    meta = {"t": t, "eps": eps, "c_phase_exponent": c_phase_exponent, "steps": steps}
    report, iterates = _drive(step_maps, check.schedule, x0, steps, monitor, "kam", meta)
    return DriveResult(report, check.schedule, iterates, check.log_m, check.log_n)


# ---------------------------------------------------------------------------
# Scalar surrogate families
# ---------------------------------------------------------------------------


def _exp(x: float) -> float:
    """math.exp, saturating to inf past the float range instead of raising."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _square(x: float) -> float:
    """x**2, saturating to inf past the float range instead of raising."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _term(gain: float, x: float) -> float:
    """gain * x, where a zero x gives a zero term even against a gain of inf."""
    return gain * x if x else 0.0


def scalar_contraction_family(a: BrunoSequence) -> StepMap:
    """Step map x' = a_n x^2, the scalar twin of the quadratic orbit.

    Past the float range the iterate saturates to inf, so a diverging orbit
    ends in a "diverged" verdict rather than an overflow.
    """

    def step(n: int, s: float, t: float, x: ScaledElement) -> ScalarElement:
        v = x.value  # type: ignore[attr-defined]
        return ScalarElement(_term(_exp(a.log_term(n)), _square(v)))

    return step


def scalar_kam_family(K: KamFactor) -> StepMap:
    """Step map x' = (M_n(s,t) x^2 + N_n(s,t) x) / 2.

    The half mirrors the mixed-orbit recursion, so a run with this family is
    arithmetically comparable to the scalar orbit on the evaluated pair.  It
    saturates to inf like the contraction family.
    """

    def step(n: int, s: float, t: float, x: ScaledElement) -> ScalarElement:
        log_m, log_n = K.log_eval(n, s, t)
        v = x.value  # type: ignore[attr-defined]
        nn = _exp(log_n) if log_n > -700 else 0.0
        return ScalarElement(0.5 * (_term(_exp(log_m), _square(v)) + _term(nn, v)))

    return step
