"""Engine runs: normal forms, Newton drivers, and the generic iterators."""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from scale_iter import engines
from scale_iter.bruno import BrunoSequence, LogSequence, PreconditionError, mixed_orbit, quadratic_orbit
from scale_iter.factors import KamFactor, PerturbativeFactor
from scale_iter.engines import (
    IterationReport,
    _defect_ratio,
    ScalarElement,
    StepMapError,
    circle_run,
    contraction_run,
    kam_run,
    morse_run,
    newton_invert,
    report_csv_rows,
    report_to_json,
    scalar_contraction_family,
    scalar_kam_family,
)
from scale_iter.series import TruncatedPowerSeries, ps_mul
from test_series import difference, lie_series_loop, norm, to_float


def S(entries, D, mode="exact"):
    return TruncatedPowerSeries.from_dict(entries, D, mode)


def seed_function(D=8):
    return S({2: Fraction(1, 2), 3: 1}, D)


# ---------------------------------------------------------------------------
# morse_run
# ---------------------------------------------------------------------------


def test_morse_step_one_matches_flow_oracle():
    res = morse_run(seed_function(10), 1)
    f1 = res.functions[1]
    assert f1.coefficients[3] == 0
    assert f1.coefficients[4] == Fraction(-3, 2)
    assert f1.coefficients[5] == 4
    assert f1.coefficients[6] == Fraction(-15, 2)
    assert f1.coefficients[7] == 12
    assert res.generators[0].coefficients[2] == -1


def test_morse_step_two_eliminates_quartic_block():
    res = morse_run(seed_function(10), 2)
    f2 = res.functions[2]
    assert f2.coefficients[4] == 0 and f2.coefficients[5] == 0
    assert f2.coefficients[6] == Fraction(-12, 1)
    assert f2.coefficients[7] == Fraction(39, 1)
    g1 = res.generators[1]
    assert g1.coefficients[3] == Fraction(3, 2)
    assert g1.coefficients[4] == -4


def test_morse_generator_is_the_negated_block_over_x():
    # the remainder x^3 divided by x gives the -x^2 generator of the first step;
    # step n takes the block of degrees 2^n+2 .. 2^(n+1)+1, shifted down one degree
    assert morse_run(seed_function(7), 1).generators[0] == S({2: -1}, 7)
    f = S({2: Fraction(1, 2), 3: Fraction(2, 3), 4: Fraction(-5, 6), 9: 7}, 10)
    res = morse_run(f, 3)
    for n, (g, f_n) in enumerate(zip(res.generators, res.functions)):
        lead = 2**n + 2
        assert g == S({d - 1: -f_n.coefficients[d] for d in range(lead, lead + 2**n)}, 10), n
        assert g.valuation >= lead - 1


def test_morse_steps_match_the_float_lie_series():
    # exact against float: each step's generator, applied in float by the
    # term-by-term Lie loop to to_float of the step's input, gives the exact
    # output to within 1e-12 of the largest coefficient of either
    for f0, steps in (
        (seed_function(34), 5),
        (S({2: Fraction(1, 2), 3: Fraction(-2, 3), 4: Fraction(3, 4), 5: Fraction(-1, 5)}, 20), 4),
    ):
        res = morse_run(f0, steps)
        for g, f, f_next in zip(res.generators, res.functions, res.functions[1:]):
            approx = lie_series_loop(to_float(g), to_float(f)).coefficients
            exact = to_float(f_next).coefficients
            scale = max(map(abs, approx + exact))
            assert max(abs(a - b) for a, b in zip(approx, exact)) <= 1e-12 * scale


def test_morse_valuation_doubling():
    res = morse_run(seed_function(70), 5)
    vals = [r.extras["valuation"] for r in res.report.steps]
    assert vals == [2 ** (n + 1) + 2 for n in range(5)]


def test_morse_fixed_point_without_remainder():
    res = morse_run(S({2: Fraction(1, 2)}, 8), 2)
    assert not any(c for g in res.generators for c in g.coefficients)
    assert all(r.step_norm == 0.0 for r in res.report.steps)


def test_morse_requires_exact_mode_and_room():
    with pytest.raises(PreconditionError):
        morse_run(S({2: 0.5, 3: 1.0}, 10, "float"), 1)
    with pytest.raises(PreconditionError):
        morse_run(seed_function(8), 3)
    with pytest.raises(PreconditionError):
        morse_run(S({2: Fraction(1, 3), 3: 1}, 8), 1)


def test_morse_remainder_scale_decay():
    res = morse_run(seed_function(32), 3)
    for n, f in enumerate(res.functions[1:]):
        remainder = difference(f, S({2: Fraction(1, 2)}, f.truncation))
        # the report's norms, taken on integers, equal those of the returned Fraction series
        record, diff = res.report.steps[n], difference(f, res.functions[n])
        assert (record.residual, record.step_norm) == (norm(remainder, 0.4), norm(diff, 0.4))
        assert record.bound == 0.8 ** (2**n + 2) * norm(diff, 0.5)
        p = 2 ** (n + 1) + 2
        for s, t in ((0.3, 0.5), (0.2, 0.4)):
            lhs = norm(remainder, s)
            rhs = (s / t) ** p * norm(remainder, t)
            assert lhs <= rhs * (1 + 1e-12)


def test_morse_deterministic():
    a = morse_run(seed_function(20), 3)
    b = morse_run(seed_function(20), 3)
    assert all(
        x.coefficients == y.coefficients for x, y in zip(a.functions, b.functions)
    )
    assert report_to_json(a.report) == report_to_json(b.report)


def test_morse_report_has_valuation_column():
    res = morse_run(seed_function(10), 2)
    rows = report_csv_rows(res.report)
    assert "valuation" in rows[0]


# ---------------------------------------------------------------------------
# circle_run
# ---------------------------------------------------------------------------


def test_circle_step_zero_reappearing_harmonic():
    eps = 0.1
    res = circle_run(eps, 1, 16)
    r0 = res.report.steps[0]
    assert abs(r0.extras["cos_1"]) == pytest.approx(eps ** 3 / 4.0, rel=1e-12)
    assert r0.extras["cos_2"] == pytest.approx(-eps ** 2 / 2.0, rel=1e-12)
    assert r0.extras["mean_drift"] == 0.0


def test_circle_identity_at_zero_eps():
    res = circle_run(0.0, 2, 16)
    assert all(r.step_norm == 0.0 for r in res.report.steps)


def test_circle_three_steps_monotone_decay():
    res = circle_run(0.05, 3, 16)
    norms = [r.residual for r in res.report.steps]
    assert all(norms[i + 1] <= norms[i] for i in range(len(norms) - 1))
    assert all(r.bound_ok for r in res.report.steps)


def test_circle_cap_precondition():
    with pytest.raises(PreconditionError):
        circle_run(0.1, 3, 8)


def test_circle_run_does_not_depend_on_an_unused_cap():
    # six steps occupy harmonics |k| <= order * (2^6 - 1) <= 189, inside every cap:
    # the reports agree bit for bit once the cap itself is left out
    def report(cap, order):
        payload = report_to_json(circle_run(0.2, 6, cap, order).report)
        payload["meta"] = {k: v for k, v in payload["meta"].items() if k != "cap"}
        return json.dumps(payload, sort_keys=True)

    for order in (2, 3):
        assert report(512, order) == report(1024, order) == report(4096, order), order


def test_circle_report_has_harmonic_columns():
    res = circle_run(0.1, 2, 16)
    header = report_csv_rows(res.report)[0]
    for k in range(1, 5):
        assert f"cos_{k}" in header


# ---------------------------------------------------------------------------
# newton_invert, exact and quasi (defect > 0)
# ---------------------------------------------------------------------------


def target_series(D=32, mode="exact"):
    if mode == "exact":
        return S({1: 1, 2: Fraction(1, 10)}, D)
    return S({1: 1, 2: 0.1}, D, "float")


def start_series(D=32, mode="exact"):
    return S({0: 1}, D, mode)


def test_newton_fixed_point_at_unit():
    # f(1) = z exactly, so y = z is solved at step zero
    res = newton_invert(S({1: 1}, 16), start_series(16), 3)
    assert res.residual_valuations[0] == 17
    assert res.report.verdict == "converged"


def test_newton_residual_valuations_exact():
    res = newton_invert(target_series(), start_series(), 6)
    assert res.residual_valuations == (2, 3, 5, 9, 17, 33)
    assert res.report.verdict == "converged"
    # solution actually solves the truncated equation
    assert not any(model_residual(res.solution, target_series()).coefficients)


def model_residual(x, y):
    """x * integral(x) - y through ps_mul, with the integral's 1/k formed as float Newton forms it."""
    one = Fraction(1) if x.mode == "exact" else 1.0
    integral = (0 * one, *(c * (one / k) for k, c in enumerate(x.coefficients[:-1], 1)))
    return difference(ps_mul(x, TruncatedPowerSeries(x.truncation, x.mode, integral)), y)


def closed_form_newton_target(y, D):
    """x* = (sqrt(2 integral(y)))' for y = z + ..., from the square-root recurrence.

    2 integral(y) = z^2 g with g_n = 2 y_(n+1) / (n+2) and g_0 = 1, so
    sqrt(2 integral(y)) = z s with s^2 = g: s_0 = 1 and
    s_n = (g_n - sum_(0<i<n) s_i s_(n-i)) / 2.  Then x*_k = (k+1) s_k.
    Newton on x is Heron's iteration for this square root on the
    antiderivative; nothing here calls the library.
    """
    g = [2 * Fraction(y.get(n + 1, 0)) / (n + 2) for n in range(D + 1)]
    s = [Fraction(1)]
    for n in range(1, D + 1):
        s.append((g[n] - sum(s[i] * s[n - i] for i in range(1, n))) / 2)
    return [(k + 1) * s[k] for k in range(D + 1)]


def test_newton_solution_is_the_closed_form_square_root_derivative():
    D = 40
    y = {1: Fraction(1), 2: Fraction(1, 10), 3: Fraction(-3, 7), 5: Fraction(2, 3)}
    want = closed_form_newton_target(y, D)
    exact = newton_invert(S(y, D), start_series(D), 8)
    assert exact.report.verdict == "converged"
    # degree D of x * integral(x) never reads x_D, so the solve leaves it at x0's value
    assert list(exact.solution.coefficients[:D]) == want[:D]
    assert exact.solution.coefficients[D] == 0
    # float run on the same target: each coefficient within 1e-12 relative
    flt = newton_invert(S(y, D, "float"), start_series(D, "float"), 8)
    assert flt.report.verdict == "converged"
    for k in range(D):
        assert flt.solution.coefficients[k] == pytest.approx(float(want[k]), rel=1e-12, abs=0.0), k
    assert flt.solution.coefficients[D] == 0


def test_defect_ratio_survives_an_underflowing_square():
    assert _defect_ratio(0.0, 1e-200) == 0.0
    assert _defect_ratio(1e-3, 0.0) == 0.0
    # where the square is positive the ratio is today's defect / r^2
    assert _defect_ratio(3e-7, 1e-3) == 3e-7 / (1e-3 * 1e-3)
    # 1e-170^2 underflows to 0.0; the ratio divides twice instead
    assert _defect_ratio(1e-300, 1e-170) == pytest.approx(1e40, rel=1e-12)
    assert _defect_ratio(1.0, 1e-200) == math.inf


def test_newton_float_quadratic_envelope():
    res = newton_invert(target_series(mode="float"), start_series(mode="float"), 3)
    norms = [res.report.meta["initial_residual_norm"]] + [r.residual for r in res.report.steps]
    assert norms[0] == pytest.approx(0.025, rel=1e-12)
    for prev, nxt in zip(norms, norms[1:]):
        assert math.log(nxt) <= 2.0 * math.log(prev) + 5.0


def test_newton_reports_both_drift_norms():
    res = newton_invert(target_series(), start_series(), 2)
    assert res.report.meta["initial_residual_norm"] > 0.0
    assert res.report.meta["initial_drift_norm"] > 0.0


def test_newton_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        newton_invert(S({0: 1, 1: 1}, 8), start_series(8), 2)
    with pytest.raises(PreconditionError):
        newton_invert(S({1: 1}, 8), TruncatedPowerSeries.zero(8), 2)


def test_newton_zero_target_float_and_exact_agree():
    # on y = 0 every step halves x exactly, so the residual is 4^-n z; the
    # float solve, like the exact one, is singular only at x_0 = 0, so both
    # runs take all 80 steps to the same converged report
    D = 16
    flt, exact = (newton_invert(TruncatedPowerSeries.zero(D, m), start_series(D, m), 80) for m in ("float", "exact"))
    assert exact.report.verdict == "converged"
    assert repr(flt.report) == repr(exact.report)
    assert flt.residual_valuations == exact.residual_valuations
    assert flt.solution == to_float(exact.solution)
    assert exact.solution.coefficients[0] == Fraction(1, 2**80)


def test_quasi_newton_small_defect_converges():
    res = newton_invert(target_series(mode="float"), start_series(mode="float"), 10, defect=2)
    assert res.report.verdict == "converged"
    defects = [r.extras["defect_norm"] for r in res.report.steps]
    residuals = [r.residual for r in res.report.steps]
    assert defects[-1] <= 1e-18
    assert residuals[-1] <= 1e-15


def test_quasi_newton_full_defect_is_stationary():
    res = newton_invert(target_series(mode="float"), start_series(mode="float"), 3, defect=32)
    assert all(r.step_norm == 0.0 for r in res.report.steps)
    assert res.report.verdict != "converged"


def _norm_chain_cases(rng):
    for _ in range(60):
        mode = rng.choice(["exact", "float"])
        D = rng.randint(2, 24)
        y = {1: Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2, 5]))}
        for d in rng.sample(range(2, D + 1), min(D - 1, 3)):
            y[d] = Fraction(rng.randint(-9, 9), rng.choice([1, 4, 7]))
        x0 = {0: Fraction(rng.choice([1, 3, -2]), rng.choice([1, 2]))}
        if rng.random() < 0.5:
            x0[rng.randint(1, D)] = Fraction(rng.randint(-5, 5), 3)
        defect = rng.choice([0, 0, 1, 2, D])  # 0 runs exact Newton, the rest quasi-Newton
        yield mode, y, x0, D, rng.randint(0, 7), defect, rng.choice([0.2, 0.5, 0.9, 1.7])
    yield "exact", {1: -1}, {0: 1}, 12, 4, 0, 0.5  # x_0 reaches zero at step 1: singular
    yield "float", {1: -1}, {0: 1}, 12, 4, 1, 0.5


def test_newton_takes_each_residual_norm_once_along_the_chain(monkeypatch):
    # every norm sits at norm_radius: a step's bound is the previous residual,
    # and the final norm is the last one, each also equal to a fresh norm.
    # A run takes the initial norm, three per step (step, defect, residual)
    # and the drift norm, so no residual norm is taken twice.  A singular
    # step takes none, and bounds itself by the residual it could not reduce.
    def same(a, b):
        return a == b or (math.isnan(a) and math.isnan(b))

    calls = []
    for state in (engines._FloatNewton, engines._ExactNewton):
        original = state.norm

        def counted(f, t, original=original):
            calls.append(t)
            return original(f, t)

        monkeypatch.setattr(state, "norm", staticmethod(counted))

    verdicts = set()
    for mode, y, x0, D, steps, defect, radius in _norm_chain_cases(random.Random(1975)):
        ys, xs = S(y, D, mode), S(x0, D, mode)
        calls.clear()
        res = newton_invert(ys, xs, steps, radius, defect=defect)
        report, case = res.report, (mode, y, x0, D, steps, defect, radius)
        verdicts.add(report.verdict)
        records = report.steps
        assert all(r.s == radius for r in records) and set(calls) == {radius}, case
        meta = report.meta
        if report.verdict == "singular":
            assert len(calls) == 2 + 3 * (len(records) - 1), case
            before = records[-2].residual if len(records) > 1 else meta["initial_residual_norm"]
            assert same(records[-1].residual, before) and same(records[-1].bound, before), case
            assert same(meta["final_residual_norm"], before) and meta["failed_step"] == records[-1].n, case
            assert same(before, norm(model_residual(res.solution, ys), radius)), case
            continue
        assert len(calls) == 3 * len(records) + 2, case
        assert same(meta["initial_residual_norm"], norm(model_residual(xs, ys), radius)), case
        bounds = [r.bound for r in records]
        residuals = [meta["initial_residual_norm"]] + [r.residual for r in records]
        assert all(same(b, r) for b, r in zip(bounds, residuals)), case
        assert same(meta["final_residual_norm"], residuals[-1]), case
        assert same(meta["final_residual_norm"], norm(model_residual(res.solution, ys), radius)), case
    assert verdicts >= {"converged", "singular"}


# ---------------------------------------------------------------------------
# contraction_run / kam_run
# ---------------------------------------------------------------------------


def flat_factor(horizon=48):
    return PerturbativeFactor(BrunoSequence.constant(1.0, horizon))


def test_contraction_identity_maps():
    res = contraction_run(
        lambda n, s, t, x: x,
        flat_factor(),
        BrunoSequence.constant(0.5, 48),
        1.0,
        ScalarElement(0.7),
        10,
    )
    assert all(r.step_norm == 0.0 for r in res.report.steps)
    assert res.report.verdict == "converged"


def test_contraction_matches_quadratic_orbit_boundary():
    a2 = BrunoSequence.constant(2.0, 48)
    res = contraction_run(
        scalar_contraction_family(a2),
        flat_factor(),
        BrunoSequence.constant(0.5, 48),
        1.0,
        ScalarElement(0.5),
        30,
    )
    orbit = quadratic_orbit(a2, 0.5, 30)
    for it, val in zip(res.iterates, orbit.values):
        assert it.value == val


def test_contraction_eventual_smallness_flags():
    # steps must fall below b_n itself over the back half of the horizon
    a = BrunoSequence.constant(1.5, 48)
    res = contraction_run(
        scalar_contraction_family(a),
        flat_factor(),
        BrunoSequence.constant(0.5, 48),
        1.0,
        ScalarElement(0.4),
        20,
    )
    for record in res.report.steps[10:]:
        assert record.extras["eventual_ok"]


def test_contraction_matches_decaying_orbit_short_horizon():
    a = BrunoSequence.constant(1.5, 48)
    res = contraction_run(
        scalar_contraction_family(a),
        flat_factor(),
        BrunoSequence.constant(0.5, 48),
        1.0,
        ScalarElement(0.5),
        12,
    )
    orbit = quadratic_orbit(a, 0.5, 12)
    for it, val in zip(res.iterates, orbit.values):
        assert it.value == pytest.approx(val, rel=1e-9)


def test_contraction_linear_scalar_model_is_factor_product():
    # x' = lam_n(s, t) x telescopes into the product of factor values
    lam = PerturbativeFactor(BrunoSequence.constant(1.0, 48), 0.0, 0.0)

    def linear_step(n, s, t, x):
        return ScalarElement(math.exp(lam.log_eval(n, s, t)) * x.value)

    res = contraction_run(
        linear_step, lam, BrunoSequence.constant(0.5, 48), 1.0, ScalarElement(1.0), 12
    )
    sched = res.schedule
    acc = 0.0
    for n in range(12):
        acc += lam.log_eval(n, sched.radius(n + 1), sched.radius(n))
        assert res.iterates[n + 1].value == pytest.approx(math.exp(acc), rel=1e-11)


def test_contraction_wraps_step_failures():
    def broken(n, s, t, x):
        raise ValueError("boom")

    with pytest.raises(StepMapError) as info:
        contraction_run(
            broken, flat_factor(), BrunoSequence.constant(0.5, 48), 1.0, ScalarElement(1.0), 4
        )
    assert info.value.step == 0


@dataclass(frozen=True)
class SeriesElement:
    """A float series as a scaled element: its norm at a radius is the disk norm there."""

    series: TruncatedPowerSeries

    def norm_at(self, radius: float) -> float:
        return norm(self.series, radius)

    def sub(self, other: "SeriesElement") -> "SeriesElement":
        return SeriesElement(difference(self.series, other.series))


def test_contraction_morse_steps_satisfy_scale_decay():
    # wrap the normal-form steps as a map family; each recorded step norm at
    # the inner radius obeys the (s/t)^(2^n + 2) decay of its own difference
    D = 40
    res_m = morse_run(seed_function(D), 4)
    diffs = [
        to_float(difference(res_m.functions[n + 1], res_m.functions[n])) for n in range(4)
    ]

    def steps(n, s, t, x):
        return SeriesElement(to_float(res_m.functions[n + 1]))

    res = contraction_run(
        steps,
        flat_factor(),
        BrunoSequence.constant(0.5, 48),
        0.5,
        SeriesElement(to_float(res_m.functions[0])),
        4,
    )
    sched = res.schedule
    for n in range(4):
        s_in, s_out = sched.radius(n + 1), sched.radius(n)
        lhs = norm(diffs[n], s_in)
        rhs = (s_in / s_out) ** (2 ** n + 2) * norm(diffs[n], s_out)
        assert lhs <= rhs * (1 + 1e-12)


def test_kam_matches_mixed_orbit_on_evaluated_pair():
    ones = BrunoSequence.constant(1.0, 42)
    K = KamFactor(ones, ones)
    res = kam_run(scalar_kam_family(K), K, 0.5, 1.9, 4.0, ScalarElement(0.25), 30)
    orbit = mixed_orbit(
        LogSequence(res.log_m[:31]), LogSequence(res.log_n[:31]), 0.25, 30
    )
    for it, val in zip(res.iterates, orbit.values):
        assert it.value == pytest.approx(val, rel=1e-12, abs=1e-300)


def test_kam_zero_start_stays_zero():
    ones = BrunoSequence.constant(1.0, 42)
    K = KamFactor(ones, ones)
    res = kam_run(scalar_kam_family(K), K, 0.5, 1.9, 4.0, ScalarElement(0.0), 10)
    assert all(it.value == 0.0 for it in res.iterates)


def test_kam_circle_steps_fit_mixed_bound():
    # run the doubling elimination, then fit nonnegative (M, N) to the
    # recorded step norms and check the mixed bound with 5 percent headroom
    res = circle_run(0.2, 3, 16)
    deltas = [r.step_norm for r in res.report.steps]
    pairs = list(zip(deltas, deltas[1:]))
    candidates = [
        (0.0, max(nxt / prev for prev, nxt in pairs)),
        (max(nxt / prev ** 2 for prev, nxt in pairs), 0.0),
    ]
    ok = False
    for m, nn in candidates:
        if all(nxt <= (m * prev ** 2 + nn * prev) * 1.05 for prev, nxt in pairs):
            ok = True
    assert ok


def test_report_json_round_trip():
    import json

    res = circle_run(0.1, 2, 16)
    assert res.report.steps[0].bound is None
    doc = report_to_json(res.report)
    # the CLI's emission: one sorted-key line that parses back float for float
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert "\n" not in text
    assert json.loads(text) == doc
    assert json.loads(text)["steps"][0]["bound"] is None


def test_report_csv_fixed_columns():
    res = circle_run(0.1, 1, 16)
    rows = report_csv_rows(res.report)
    assert rows[0][:6] == ["n", "s_n", "step_norm", "residual", "bound", "flag"]


def test_empty_report_emits_header_only():
    empty = IterationReport("contraction", (), "undecided", {})
    rows = report_csv_rows(empty)
    assert rows == [["n", "s_n", "step_norm", "residual", "bound", "flag"]]
