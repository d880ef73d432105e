"""Runnable iterations: normal forms, Newton inversion, and generic drivers.

Each engine produces an IterationReport, a uniform per-step record of radii,
step norms, residuals and monitored bounds.  The generic drivers
(contraction_run, kam_run) treat their contraction or mixed bounds as
assumptions to monitor: violations are flagged in the report rather than
aborting, since probing those hypotheses is the point of running them.
Both exact loops keep their state on the integer layer of series, as
numerators over one denominator, and run on its kernels.  Morse keeps f
there and builds Fractions only for the functions and generators it
returns.  Exact Newton keeps X = integral(x) and Q = X^2/2 - integral(y);
the residual is Q', the correction Xi = integral(xi) is the division Q / X
with one gcd per row, and a step updates Q by (Q - X Xi) + Xi^2/2 without
re-squaring X.  Float Newton keeps x, the residual and the drift as lists
of doubles and runs the same list kernel, _cauchy: the map is
x * integral(x), the linearization x * integral(xi) + xi * integral(x),
and the solve reads one table of row weights built per run.  Both wrap
their state into a series only for the solution.  Newton takes every norm
at norm_radius, once per residual.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from .bruno import BrunoSequence, PreconditionError
from .series import (
    SingularLinearizationError,
    TruncatedPowerSeries,
    _cauchy,
    _cauchy_square,
    _combine,
    _common_denominator,
    _derivative,
    _divide,
    _float_norm,
    _integral_numerators,
    _lie_exp,
    _numerator_norm,
    _valuation,
)

if TYPE_CHECKING:
    from .factors import KamFactor, PerturbativeFactor, RadiusSchedule
    from .fourier import FourierOneForm

__all__ = [
    "ScaledElement",
    "ScalarElement",
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
    "contraction_run",
    "kam_run",
    "scalar_contraction_family",
    "scalar_kam_family",
    "report_to_json",
    "report_csv_rows",
]

CAUCHY_TOL = 1e-12
CAUCHY_WINDOW = 4
MORSE_INNER, MORSE_OUTER = 0.4, 0.5  # the radii a Morse step is measured between


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


def morse_run(f0: TruncatedPowerSeries, steps: int) -> MorseResult:
    """Quadratic normal-form iteration for f = x^2/2 + R, valuation(R) >= 3.

    At step n the first 2^n remainder terms are divided by x, negated, and
    used as the generator of a Lie exponential; the new remainder then has
    valuation at least 2^(n+1) + 2, which is asserted rather than assumed.
    Exact mode is required so the recorded coefficients are reproducible.
    f runs as integer numerators over one denominator, and R is f with its
    degree-2 term cleared, since the Lie steps never touch degrees below 3.
    """
    if f0.mode != "exact":
        raise PreconditionError("normal-form runs require exact mode")
    if f0.truncation < 2**steps + 2:
        raise PreconditionError(f"truncation {f0.truncation} too small; need at least {2 ** steps + 2}")
    if f0.coefficients[2] != Fraction(1, 2) or any(f0.coefficients[:2]):
        raise PreconditionError("input must be x^2/2 plus a remainder of valuation >= 3")

    D = f0.truncation
    functions, generators, records = [f0], [], []
    nf, df = _common_denominator(f0.coefficients)
    remainder = [*nf[:2], 0, *nf[3:]]
    for n in range(steps):
        lead = 2**n + 2
        if _valuation(remainder) < lead:
            raise RuntimeError(f"remainder valuation {_valuation(remainder)} below 2^{n}+2: elimination bug")
        block = nf[lead : lead + 2**n]
        ng = [0] * (lead - 1) + [-c for c in block] + [0] * (D + 2 - lead - len(block))
        g = math.gcd(df, *ng)  # the generator's own least denominator keeps the Lie sum small
        ng, dg = [c // g for c in ng], df // g
        nf_next, df_next = _lie_exp(ng, dg, nf, df)

        remainder = [*nf_next[:2], 0, *nf_next[3:]]
        v = _valuation(remainder)
        if v < 2 ** (n + 1) + 2:
            raise RuntimeError(f"post-step valuation {v} below 2^{n + 1}+2")

        diff = _combine(nf_next, df_next, nf, df, -1)
        bound = (MORSE_INNER / MORSE_OUTER) ** lead * _numerator_norm(*diff, MORSE_OUTER)
        step_norm = _numerator_norm(*diff, MORSE_INNER)
        records.append(
            StepRecord(
                n=n,
                s=MORSE_INNER,
                step_norm=step_norm,
                residual=_numerator_norm(remainder, df_next, MORSE_INNER),
                bound=bound,
                bound_ok=step_norm <= bound * (1.0 + 1e-9),
                extras={"valuation": v},
            )
        )
        generators.append(TruncatedPowerSeries(D, "exact", tuple(Fraction(c, dg) for c in ng)))
        functions.append(TruncatedPowerSeries(D, "exact", tuple(Fraction(c, df_next) for c in nf_next)))
        nf, df = nf_next, df_next

    verdict = _verdict_from_steps([r.step_norm for r in records])
    report = IterationReport("morse", tuple(records), verdict, {"truncation": D, "steps": steps})
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
        FourierOneForm, _difference, _homological, _lie_terms, _perturbation, _strip_norm, _sum, cos_coefficient,
    )

    if not 0.0 <= eps < 1.0:
        raise PreconditionError("eps must sit in [0, 1)")
    if cap < 2 ** (steps + 1):
        raise PreconditionError(f"cap {cap} too small; need at least 2^(steps+1)")

    alpha = FourierOneForm.from_cos({0: 1.0, 1: eps}, cap)
    w = alpha.lo, alpha.band  # the form as a band pair; the kernels run on pairs
    forms = [alpha]
    records: list[StepRecord] = []
    prev_norm: float | None = None
    for n in range(steps):
        cutoff = 2**n
        target = _perturbation(w, cutoff)
        mean_drift = abs(alpha.coefficient(0) - 1.0)
        if target[1].size:
            terms = _lie_terms(_homological(target, cutoff), w, lie_order, cap)
            w_next = _sum(terms)
            last_term_norm = _strip_norm(terms[-1], strip_width)
            alpha_next = FourierOneForm(cap, w_next[1], w_next[0])
        else:
            w_next, alpha_next = w, alpha
            last_term_norm = 0.0

        step_norm = _strip_norm(_difference(w_next, w), strip_width)
        residual = _strip_norm(_perturbation(w_next, cap), strip_width)
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
        w, alpha = w_next, alpha_next
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


def _integral(u: list[float]) -> list[float]:
    """integral(u) at degrees 0..D for u at degrees 0..D; u_D would land at degree D+1 and drops."""
    return [0.0, *(c * (1 / k) for k, c in enumerate(u[:-1], 1))]


def _solve_weights(rows: int) -> list[array]:
    """Row m of the float solve: (m+2)/((j+1)(m-j+1)) for j = 0..m, the last one the diagonal's (m+2)/(m+1).

    Rows are arrays of doubles, a third of the memory of lists of floats.
    """
    return [array("d", [(m + 2) / ((j + 1) * (m - j + 1)) for j in range(m + 1)]) for m in range(rows)]


def _solve_linearization(x: list[float], rhs: list[float], weights: list[array], step: int) -> list[float]:
    """Float triangular solve of x * integral(xi) + xi * integral(x) = rhs on the rows of weights.

    Row m + 1 determines xi_m with diagonal x_0 (m+2)/(m+1); a table of
    fewer than D rows leaves the top xi at zero, a deliberately approximate
    inverse.  Exact runs divide on integers instead (_divide).  The map is
    homogeneous, so only an exactly zero x_0 is singular, as in _divide.
    """
    x0 = x[0]
    if x0 == 0:
        raise SingularLinearizationError(step)

    xi: list[float] = []
    for m, row in enumerate(weights):
        # (Dxi)_(m+1) = sum_j xi_j x_(m-j) (1/(j+1) + 1/(m-j+1)), summed in the order of j
        acc = rhs[m + 1]
        for a, b, w in zip(xi, x[m:0:-1], row):
            acc = acc - a * b * w
        xi.append(acc / (x0 * row[m]))
    return xi + [0.0] * (len(x) - len(xi))


class _FloatNewton:
    """Float Newton state: x and the residual x * integral(x) - y as lists of doubles.

    drift is the initial x0 * integral(x0) - x0; the solve weights are built once.
    """

    norm = staticmethod(_float_norm)
    valuation = staticmethod(_valuation)

    def __init__(self, x0: TruncatedPowerSeries, y: TruncatedPowerSeries, defect: int):
        self.D, self.x, self.y = x0.truncation, list(x0.coefficients), y.coefficients
        image0 = _cauchy(self.x, _integral(self.x), self.D, 0.0)
        self.residual = [a - b for a, b in zip(image0, self.y)]
        self.drift = [a - b for a, b in zip(image0, self.x)]
        self.weights = _solve_weights(self.D - defect)

    def step(self, n: int) -> tuple[list[float], list[float]]:
        """Move to x - xi; return xi and the defect residual - L(x) xi."""
        x, D = self.x, self.D
        xi = _solve_linearization(x, self.residual, self.weights, n)
        linear = zip(_cauchy(x, _integral(xi), D, 0.0), _cauchy(xi, _integral(x), D, 0.0))
        defect = [r - (a + b) for r, (a, b) in zip(self.residual, linear)]
        self.x = x = [a - b for a, b in zip(x, xi)]
        self.residual = [a - b for a, b in zip(_cauchy(x, _integral(x), D, 0.0), self.y)]
        return xi, defect

    def solution(self) -> TruncatedPowerSeries:
        return TruncatedPowerSeries(self.D, "float", tuple(self.x))


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
    valuation = staticmethod(lambda f: _valuation(f[0]))

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


def newton_invert(
    y: TruncatedPowerSeries,
    x0: TruncatedPowerSeries,
    steps: int,
    norm_radius: float = 0.5,
    defect: int = 0,
) -> NewtonResult:
    """Newton iteration x' = x - L(x)(f(x) - y) for f(x) = x * integral(x).

    L(x) inverts the linearization degree by degree; the residual valuation
    then satisfies v' = 2v - 1 exactly until the truncation absorbs it, the
    series-ring face of quadratic convergence.  A positive defect drops the
    top `defect` rows of the triangular solve, so the correction only
    approximately inverts the linearization (engine "quasi-newton"); the
    per-step defect norm and its ratio to |residual|^2 are recorded instead
    of being assumed small.  Every norm sits at norm_radius; a step's
    residual norm is carried on as the next step's bound.
    """
    if y.valuation < 1:
        raise PreconditionError("target must vanish at the origin")
    if x0.coefficients[0] == 0:
        raise PreconditionError("initial guess must have a nonzero constant term")
    if not 0 <= defect <= x0.truncation:
        raise PreconditionError("defect must sit in [0, truncation]")

    D = x0.truncation
    newton = (_ExactNewton if x0.mode == "exact" else _FloatNewton)(x0, y, defect)
    initial_norm = r_norm = newton.norm(newton.residual, norm_radius)
    records: list[StepRecord] = []
    valuations = [newton.valuation(newton.residual)]
    failed: dict = {}
    for n in range(steps):
        if valuations[-1] > D:  # zero residual
            break
        try:
            xi, defect_series = newton.step(n)
        except SingularLinearizationError:
            # the failed step is bounded by the residual it could not reduce
            records.append(StepRecord(n, norm_radius, math.inf, r_norm, r_norm, False, {}))
            failed = {"failed_step": n}
            break

        step_norm = newton.norm(xi, norm_radius)
        defect_norm = newton.norm(defect_series, norm_radius)
        next_norm = newton.norm(newton.residual, norm_radius)
        valuations.append(newton.valuation(newton.residual))
        extras = {
            "residual_valuation": valuations[-1],
            "defect_norm": defect_norm,
            "defect_ratio": _defect_ratio(defect_norm, r_norm),
        }
        records.append(
            StepRecord(
                n=n,
                s=norm_radius,
                step_norm=step_norm,
                residual=next_norm,
                bound=r_norm,
                bound_ok=r_norm == 0.0 or next_norm <= r_norm * (1.0 + 1e-9),
                extras=extras,
            )
        )
        r_norm = next_norm

    if failed:
        verdict = "singular"
    elif valuations[-1] > D or r_norm < CAUCHY_TOL:
        verdict = "converged"
    else:
        verdict = _verdict_from_steps([r.step_norm for r in records])
    report = IterationReport(
        "quasi-newton" if defect else "newton",
        tuple(records),
        verdict,
        {
            "norm_radius": norm_radius,
            "defect": defect,
            "final_residual_norm": r_norm,
            "initial_residual_norm": initial_norm,
            "initial_drift_norm": newton.norm(newton.drift, norm_radius),
            "defect_ratio_max": max((r.extras["defect_ratio"] for r in records if r.extras), default=0.0),
            **failed,
        },
    )
    return NewtonResult(report, newton.solution(), tuple(valuations))


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
    # factors loads here and in kam_run, so morse, circle and newton never load it
    from .factors import rho_for_perturbative, schedule_build

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
    from .factors import kam_schedule_tame_check

    check = kam_schedule_tame_check(K, eps, t, c_phase_exponent, steps, exponent_shift)
    if not check.tame:
        raise TamenessError("evaluated factor pair is not tame over the horizon")

    def monitor(n: int, prev_step: float | None) -> tuple[float | None, float, dict]:
        m_n = math.exp(check.log_m[n]) if check.log_m[n] < 700 else math.inf
        nn = _exp(check.log_n[n]) if check.log_n[n] > -700 else 0.0
        bound = None if prev_step is None else _term(m_n, _power(prev_step, 2)) + _term(nn, prev_step)
        log_c = -math.ldexp(1.0, n) / _power(float(max(n, 1)), c_phase_exponent)
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


def _power(x: float, y: float) -> float:
    """x**y, saturating to inf past the float range instead of raising."""
    try:
        return x**y
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
        return ScalarElement(_term(_exp(a.log_term(n)), _power(v, 2)))

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
        return ScalarElement(0.5 * (_term(_exp(log_m), _power(v, 2)) + _term(nn, v)))

    return step
