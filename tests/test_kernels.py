"""Differential checks of the series and Fourier kernels against their plain-loop forms.

The exact Cauchy product and the exact Newton division run on integer
numerators over common denominators; here they are compared with direct
Fraction loops, and the exact model map x * integral(x) and its
linearization, which exact Newton forms as (X^2/2)' and (X Xi)' on integer
numerators, with their two-product Fraction forms.  Exact Newton keeps its
whole state on integers, so newton_invert, at zero and positive defect, is
compared report float for report float with a Fraction Newton loop built
from those two-product forms and ps_norm; its integer prologue and its row division are
compared with their Fraction forms too.  Float Newton runs on lists of
doubles and its kernels keep their summation order, so they are compared bit
for bit with the loops they replaced, and float Newton with a copy of itself
on complex coefficients.  The Fourier product convolves only the occupied
bands and the strip norm is one array expression; both change rounding, so
they are compared with the dense convolution and the per-harmonic loop
within tolerances fixed beforehand, and circle_run is compared with a dense
copy of itself.  The strip norm's cached weight table and largest-first
fsum change no rounding, so the norm is compared bit for bit with its
band-order array form.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from scale_iter import engines, fourier
from scale_iter.engines import (
    CAUCHY_TOL,
    IterationReport,
    SingularLinearizationError,
    StepRecord,
    _defect_ratio,
    _ExactNewton,
    _integral,
    _solve_linearization,
    _solve_weights,
    _verdict_from_steps,
    circle_run,
    newton_invert,
)
from scale_iter.fourier import (
    CircleVectorField,
    FourierOneForm,
    _convolve_truncate,
    _log_weight,
    _log_weights,
    cos_coefficient,
    solve_homological,
    strip_l2_log_norm,
    tail_decay_check,
)
from scale_iter.series import (
    TruncatedPowerSeries,
    _cauchy,
    _cauchy_square,
    _derivative,
    _divide,
    _integral_numerators,
    _numerator_norm,
    ps_mul,
    ps_norm,
)
from test_series import difference


def _random_exact(rng, D, density=0.8):
    coeffs = [
        Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 7, 12, 25, 97, 1024]))
        if rng.random() < density
        else Fraction(0)
        for _ in range(D + 1)
    ]
    return TruncatedPowerSeries(D, "exact", tuple(coeffs))


def _random_float(rng, D, density=0.8):
    coeffs = [rng.uniform(-2, 2) if rng.random() < density else 0.0 for _ in range(D + 1)]
    return TruncatedPowerSeries(D, "float", tuple(coeffs))


def _bits(coeffs):
    """float.hex of each coefficient; a complex coefficient has no hex and fails here."""
    return [c.hex() for c in coeffs]


# ---- plain-loop references -------------------------------------------------


def naive_exact_mul(f, g):
    D = f.truncation
    out = [Fraction(0)] * (D + 1)
    for i in range(D + 1):
        for j in range(D + 1 - i):
            out[i + j] += f.coefficients[i] * g.coefficients[j]
    return tuple(out)


def naive_exact_integral(f):
    D = f.truncation
    return TruncatedPowerSeries(
        D, "exact", (Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(f.coefficients[:D]))
    )


def two_product_linearization(x, xi):
    """x * integral(xi) + xi * integral(x), as two Fraction products."""
    left = naive_exact_mul(x, naive_exact_integral(xi))
    right = naive_exact_mul(xi, naive_exact_integral(x))
    return tuple(a + b for a, b in zip(left, right))


def two_product_map(x):
    """x * integral(x), as one Fraction product."""
    return naive_exact_mul(x, naive_exact_integral(x))


def exact(coeffs):
    return TruncatedPowerSeries(len(coeffs) - 1, "exact", tuple(coeffs))


def weighted_exact_solve(x, rhs, drop_top):
    """Row m + 1: xi_m x_0 (m+2)/(m+1) + sum_j xi_j x_(m-j) (1/(j+1) + 1/(m-j+1))."""
    D = x.truncation
    xi = [Fraction(0)] * (D + 1)
    for m in range(D - drop_top):
        acc = rhs.coefficients[m + 1]
        for j in range(m):
            acc -= xi[j] * x.coefficients[m - j] * (Fraction(1, j + 1) + Fraction(1, m - j + 1))
        xi[m] = acc / (x.coefficients[0] * Fraction(m + 2, m + 1))
    return tuple(xi)


def over_one_denominator(coeffs):
    """Integer numerators of Fractions over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def division_kernel_solve(x, rhs, drop_top, step=0):
    """Solve the linearization with _divide: X = integral(x), Q = integral(rhs), xi = Xi'."""
    D = x.truncation
    nx, dx = over_one_denominator([x.coefficients[k - 1] / k for k in range(1, D + 1)])
    nq, dq = over_one_denominator([rhs.coefficients[m + 1] / (m + 2) for m in range(D)])
    na, da = _divide(nq, dq, nx, dx, D - drop_top, step)
    assert len(na) == D - drop_top
    return tuple(Fraction((j + 1) * a, da) for j, a in enumerate(na)) + (Fraction(0),) * (drop_top + 1)


def loop_float_mul(f, g):
    D = f.truncation
    out = [0.0] * (D + 1)
    for i, a in enumerate(f.coefficients):
        if a == 0:
            continue
        for j in range(0, D - i + 1):
            b = g.coefficients[j]
            if b == 0:
                continue
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def loop_float_solve(x, rhs, drop_top):
    D = x.truncation
    xi = [0.0] * (D + 1)
    for m in range(D - drop_top):
        acc = rhs.coefficients[m + 1]
        for j in range(0, m):
            weight = Fraction(1, j + 1) + Fraction(1, m - j + 1)
            acc = acc - xi[j] * x.coefficients[m - j] * (weight.numerator / weight.denominator)
        diag = Fraction(m + 2, m + 1)
        xi[m] = acc / (x.coefficients[0] * (diag.numerator / diag.denominator))
    return tuple(xi)


# ---- exact kernels ---------------------------------------------------------


def test_exact_mul_matches_naive_fraction_loop():
    rng = random.Random(20240311)
    for _ in range(40):
        D = rng.randint(0, 24)
        f = _random_exact(rng, D, rng.choice([0.3, 0.8, 1.0]))
        g = _random_exact(rng, D, rng.choice([0.3, 0.8, 1.0]))
        assert ps_mul(f, g).coefficients == naive_exact_mul(f, g)


def test_exact_mul_zero_operand():
    f = _random_exact(random.Random(5), 9)
    zero = TruncatedPowerSeries.zero(9)
    assert ps_mul(f, zero).coefficients == zero.coefficients
    assert not any(ps_mul(zero, f).coefficients)


def _product_rule_cases(rng):
    for D in (0, 1, 2):
        yield _random_exact(rng, D, 1.0), _random_exact(rng, D, 1.0)
    for density in (1.0, 0.8, 0.3, 0.1):  # dense to sparse
        for _ in range(8):
            D = rng.randint(3, 30)
            yield _random_exact(rng, D, density), _random_exact(rng, D, density)
    for _ in range(6):  # nonzero top coefficient, which the integral leaves out
        D = rng.randint(3, 20)
        x, xi = _random_exact(rng, D, 0.5), _random_exact(rng, D, 0.5)
        top = (Fraction(rng.randint(1, 60), rng.choice([1, 7, 96])),)
        yield TruncatedPowerSeries(D, "exact", x.coefficients[:D] + top), xi
        yield x, TruncatedPowerSeries(D, "exact", xi.coefficients[:D] + top)
    for D in (1, 9, 30):  # one operand twice
        x = _random_exact(rng, D, 0.9)
        yield x, x
    for D in (0, 5, 17):  # zero operands
        zero = TruncatedPowerSeries.zero(D)
        yield _random_exact(rng, D), zero
        yield zero, _random_exact(rng, D)
        yield zero, zero


def as_fractions(state):
    nums, den = state
    return tuple(Fraction(n, den) for n in nums)


def test_exact_linearization_matches_two_products():
    # (X Xi)' on integers, as exact Newton forms it, with X = integral(x) and Xi = integral(xi)
    for x, xi in _product_rule_cases(random.Random(4242)):
        (nx, dx), (nxi, dxi) = (_integral_numerators(f.coefficients[:-1]) for f in (x, xi))
        got = _derivative(_cauchy(nx, nxi, x.truncation - 1, 0), dx * dxi)
        assert as_fractions(got) == two_product_linearization(x, xi)


def test_exact_map_matches_one_product():
    # (X^2/2)' on integers, as exact Newton forms it
    for x, xi in _product_rule_cases(random.Random(4343)):
        for f in (x, xi):
            nx, dx = _integral_numerators(f.coefficients[:-1])
            got = _derivative(_cauchy_square(nx, f.truncation - 1), 2 * dx * dx)
            assert as_fractions(got) == two_product_map(f)


@pytest.mark.parametrize("drop_top", [0, 1, 2])
def test_exact_solve_matches_weighted_sum(drop_top):
    rng = random.Random(1000 + drop_top)
    for _ in range(15):
        D = rng.randint(2, 20)
        x = _random_exact(rng, D)
        if x.coefficients[0] == 0:
            x = TruncatedPowerSeries(D, "exact", (Fraction(rng.randint(1, 9), 4),) + x.coefficients[1:])
        rhs = _random_exact(rng, D)
        xi = division_kernel_solve(x, rhs, drop_top)
        assert xi == weighted_exact_solve(x, rhs, drop_top)
        if drop_top == 0:
            # the solve inverts the linearization on degrees 1..D
            recon = two_product_linearization(x, exact(xi))
            assert recon[1:] == rhs.coefficients[1:]


def test_exact_solve_singular_only_at_exact_zero():
    D = 6
    rhs = _random_exact(random.Random(3), D)
    tiny = TruncatedPowerSeries.from_dict({0: Fraction(1, 10**13), 1: 1}, D)
    assert division_kernel_solve(tiny, rhs, 0) == weighted_exact_solve(tiny, rhs, 0)
    with pytest.raises(SingularLinearizationError) as info:
        division_kernel_solve(TruncatedPowerSeries.from_dict({1: 1}, D), rhs, 0, 4)
    assert info.value.step == 4


def test_numerator_norm_matches_fraction_norm():
    # heights from one bit to past the float range, where the sum goes to the log domain
    rng = random.Random(61)
    for _ in range(300):
        D = rng.randint(0, 12)
        bits = rng.choice([1, 20, 53, 60, 200, 1100, 1500])
        nums = [rng.choice([0, 1, -1]) * rng.getrandbits(rng.randint(1, bits)) for _ in range(D + 1)]
        den = rng.getrandbits(rng.randint(1, bits)) + 1
        for t in (1e-3, 0.37, 0.5, 2.0):
            f = TruncatedPowerSeries(D, "exact", tuple(Fraction(n, den) for n in nums))
            assert _numerator_norm(nums, den, t) == ps_norm(f, t), (nums, den, t)
    with pytest.raises(ValueError):
        _numerator_norm([1], 1, 0.0)


# ---- float kernels: same summation order, same bits ------------------------


def test_float_mul_bit_identical_to_loop():
    rng = random.Random(77)
    for _ in range(40):
        D = rng.randint(0, 40)
        f = _random_float(rng, D, rng.choice([0.3, 0.8, 1.0]))
        g = _random_float(rng, D, rng.choice([0.3, 0.8, 1.0]))
        assert _bits(ps_mul(f, g).coefficients) == _bits(loop_float_mul(f, g))


def test_float_antiderive_bit_identical_to_loop():
    rng = random.Random(78)
    for _ in range(40):
        D = rng.randint(0, 60)
        f = _random_float(rng, D, rng.choice([0.3, 0.8, 1.0]))
        want = [0.0] * (D + 1)
        for k in range(D):
            q = Fraction(1, k + 1)
            want[k + 1] = f.coefficients[k] * (q.numerator / q.denominator)
        assert _bits(_integral(list(f.coefficients))) == _bits(want)


@pytest.mark.parametrize("drop_top", [0, 1, 2])
def test_float_solve_bit_identical_to_loop(drop_top):
    rng = random.Random(500 + drop_top)
    for _ in range(15):
        D = rng.randint(2, 48)
        x = _random_float(rng, D, 1.0)
        rhs = _random_float(rng, D)
        xi = _solve_linearization(list(x.coefficients), list(rhs.coefficients), _solve_weights(D - drop_top), 0)
        assert _bits(xi) == _bits(loop_float_solve(x, rhs, drop_top))


# ---- exact against float ---------------------------------------------------


def test_newton_exact_and_float_agree():
    D = 32
    y = {1: Fraction(1), 2: Fraction(1, 10), 5: Fraction(-1, 3)}
    x0 = {0: Fraction(1)}
    exact = newton_invert(
        TruncatedPowerSeries.from_dict(y, D), TruncatedPowerSeries.from_dict(x0, D), 7
    )
    flt = newton_invert(
        TruncatedPowerSeries.from_dict(y, D, "float"),
        TruncatedPowerSeries.from_dict(x0, D, "float"),
        7,
    )
    assert exact.report.verdict == flt.report.verdict == "converged"
    # float valuations stop at the roundoff floor; the exact ladder doubles
    assert exact.residual_valuations == (2, 3, 5, 9, 17, 33)
    for a, b in zip(exact.solution.to_float().coefficients, flt.solution.coefficients):
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


# ---- exact Newton on integers against a Fraction Newton loop ------------------


def fraction_newton(y, x0, steps, defect, radius):
    """The exact Newton loop on Fraction series, as it ran before the integer state.

    Each step solves with weighted_exact_solve, takes the defect as residual
    minus two_product_linearization(x, xi), and re-evaluates the residual as
    two_product_map(x - xi) - y; every norm is ps_norm at the one radius.  A
    singular step records the residual it could not reduce as its bound and
    ends the loop, and its report holds the meta of every other verdict.
    """
    engine = "quasi-newton" if defect else "newton"
    image0 = exact(two_product_map(x0))
    x, residual = x0, difference(image0, y)
    records, valuations = [], [residual.valuation]
    failed = {}
    for n in range(steps):
        if not any(residual.coefficients):
            break
        if x.coefficients[0] == 0:
            r_norm = ps_norm(residual, radius)
            records.append(StepRecord(n, radius, math.inf, r_norm, r_norm, False, {}))
            failed = {"failed_step": n}
            break
        xi = exact(weighted_exact_solve(x, residual, defect))
        defect_norm = ps_norm(difference(residual, exact(two_product_linearization(x, xi))), radius)
        r_norm = ps_norm(residual, radius)
        x = difference(x, xi)
        residual = difference(exact(two_product_map(x)), y)
        next_norm = ps_norm(residual, radius)
        valuations.append(residual.valuation)
        extras = {
            "residual_valuation": residual.valuation,
            "defect_norm": defect_norm,
            "defect_ratio": _defect_ratio(defect_norm, r_norm),
        }
        ok = next_norm <= r_norm * (1.0 + 1e-9) if r_norm > 0.0 else True
        records.append(StepRecord(n, radius, ps_norm(xi, radius), next_norm, r_norm, ok, extras))
    final = ps_norm(residual, radius)
    zero_or_small = not any(residual.coefficients) or final < CAUCHY_TOL
    if failed:
        verdict = "singular"
    else:
        verdict = "converged" if zero_or_small else _verdict_from_steps([r.step_norm for r in records])
    meta = {
        "norm_radius": radius,
        "defect": defect,
        "final_residual_norm": final,
        "initial_residual_norm": ps_norm(difference(image0, y), radius),
        "initial_drift_norm": ps_norm(difference(image0, x0), radius),
        "defect_ratio_max": max((r.extras["defect_ratio"] for r in records if r.extras), default=0.0),
        **failed,
    }
    return IterationReport(engine, tuple(records), verdict, meta), x, tuple(valuations)


def _newton_cases(rng):
    for D in (2, 3, 5, 8, 13, 21, 32, 47, 64):
        for defect in sorted({0, 1, 2, D}):
            if D > 32 and defect not in (0, 2):
                continue
            y = {1: Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 5]))}
            for d in rng.sample(range(2, D + 1), min(D - 1, 3)):
                y[d] = Fraction(rng.randint(-9, 9), rng.choice([1, 4, 7, 10]))
            # x0 carries a nonzero top coefficient, which no step may change
            x0 = {0: Fraction(rng.choice([1, 3, -2]), rng.choice([1, 2])), D: Fraction(rng.randint(1, 9), 7)}
            if rng.random() < 0.5:
                x0[rng.randint(1, D - 1)] = Fraction(rng.randint(-5, 5), 3)
            radius = rng.choice([0.5, 0.5, 0.2, 0.9, 1.7])
            yield y, x0, D, rng.randint(1, 8), defect, radius
    yield {1: -1}, {0: 1}, 12, 4, 0, 0.5  # x_0 reaches zero at step 1: singular
    yield {1: -1, 3: Fraction(1, 5)}, {0: 1}, 12, 4, 1, 0.5
    for x0 in (Fraction(10**200), Fraction(1, 10**200)):  # norms past the float range
        yield {1: 1, 2: Fraction(1, 10)}, {0: x0}, 10, 2, 0, 0.5
        yield {1: 1, 2: Fraction(1, 10)}, {0: x0}, 10, 2, 2, 0.5


def test_integer_newton_matches_fraction_newton():
    verdicts = set()
    for y, x0, D, steps, defect, radius in _newton_cases(random.Random(808)):
        ys, xs = TruncatedPowerSeries.from_dict(y, D), TruncatedPowerSeries.from_dict(x0, D)
        got = newton_invert(ys, xs, steps, radius, defect)
        report, solution, valuations = fraction_newton(ys, xs, steps, defect, radius)
        case = (y, x0, D, steps, defect, radius)
        assert got.solution == solution, case
        assert got.residual_valuations == valuations, case
        # repr compares every report float exactly, nan and inf included
        assert repr(got.report) == repr(report), case
        verdicts.add(report.verdict)
    assert verdicts == {"converged", "undecided", "singular"}


def test_defect_is_its_own_product_not_the_solve(monkeypatch):
    # a wrong solve must show in the defect and in the next residual
    D, radius = 16, 0.5
    y = TruncatedPowerSeries.from_dict({1: 1, 2: Fraction(1, 10), 5: Fraction(-2, 3)}, D)
    x0 = TruncatedPowerSeries.from_dict({0: 1}, D)
    solves = []

    def off_by_one(nq, dq, nx, dx, rows, step):
        na, da = _divide(nq, dq, nx, dx, rows, step)
        na[3] += 1
        solves.append(tuple(Fraction((j + 1) * a, da) for j, a in enumerate(na)) + (Fraction(0),) * (D + 1 - rows))
        return na, da

    monkeypatch.setattr(engines, "_divide", off_by_one)
    first = newton_invert(y, x0, 1, radius).report.steps[0]
    xi = exact(solves[0])
    residual = difference(exact(two_product_map(x0)), y)
    linear = exact(two_product_linearization(x0, xi))
    assert first.extras["defect_norm"] == ps_norm(difference(residual, linear), radius) > 0.0
    assert first.residual == ps_norm(difference(exact(two_product_map(difference(x0, xi))), y), radius)


def fraction_division(nq, dq, nx, dx, rows):
    """Row m of Q / X as one Fraction: a_m = (Q_(m+2) - sum_(j<m) a_j X_(m+1-j)) / X_1."""
    q = [Fraction(n, dq) for n in nq]
    x = [Fraction(n, dx) for n in nx]
    a = []
    for m in range(rows):
        a.append((q[m] - sum(a[j] * x[m - j] for j in range(m))) / x[0])
    return a


def _division_cases(rng):
    for _ in range(60):
        D = rng.randint(2, 24)
        rows = D - rng.choice([0, 0, 1, 2])
        nx = [rng.choice([0, 1]) * rng.randint(-50, 50) for _ in range(D)]
        nx[0] = rng.choice([1, -1]) * rng.randint(1, 40)
        nq = [rng.randint(-10**6, 10**6) if rng.random() < 0.8 else 0 for _ in range(D)]
        lead = rng.randint(0, D)  # Q's valuation sits at degree lead + 2
        nq[:lead] = [0] * lead
        yield nq, rng.randint(1, 10**4), nx, rng.randint(1, 90), rows
    for D in (2, 7):
        yield [0] * D, 3, [5] + [1] * (D - 1), 2, D  # Q = 0


def test_divide_matches_fraction_rows():
    # the integer division starts at Q's valuation and reduces each row by one
    # gcd; the rows, and the least common denominator they share, are Fraction's
    leading = 0
    for nq, dq, nx, dx, rows in _division_cases(random.Random(2718)):
        want = fraction_division(nq, dq, nx, dx, rows)
        na, da = _divide(nq, dq, nx, dx, rows, 0)
        assert len(na) == rows
        assert [Fraction(n, da) for n in na] == want, (nq, dq, nx, dx, rows)
        assert da == math.lcm(*(a.denominator for a in want))
        leading += nq[0] == 0 and any(nq[:rows])
    assert leading >= 20
    assert _divide([0, 0, 0], 1, [2, 1, 1], 1, 3, 0) == ([0, 0, 0], 1)


def _prologue_cases(rng):
    for D in (2, 3, 5, 8, 17, 32):
        for defect in sorted({0, 1, D}):
            y = {1: Fraction(rng.choice([1, -2, 3]), rng.choice([1, 3]))}
            for d in rng.sample(range(2, D + 1), min(D - 1, 3)):
                y[d] = Fraction(rng.randint(-9, 9), rng.choice([1, 4, 7, 10]))
            # negative and fractional constants, several terms, the top degree included
            x0 = {0: Fraction(rng.choice([1, -1, -3, 5]), rng.choice([1, 2, 7])), D: Fraction(rng.randint(-9, 9), 11)}
            for d in rng.sample(range(1, D), min(D - 1, 3)):
                x0[d] = Fraction(rng.randint(-5, 5), rng.choice([1, 3, 6]))
            yield TruncatedPowerSeries.from_dict(y, D), TruncatedPowerSeries.from_dict(x0, D), defect
    big = TruncatedPowerSeries.from_dict({0: Fraction(-(10**200)), 1: 3}, 6)  # norms in the log domain
    yield TruncatedPowerSeries.from_dict({1: 1, 2: Fraction(1, 10)}, 6), big, 0


def test_integer_prologue_matches_fraction_forms():
    # X, Q, the residual Q' and the drift (X^2/2)' - x0 are built on integers;
    # they equal the Fraction series x0 * integral(x0) - y and - x0, and so do their norms
    for y, x0, defect in _prologue_cases(random.Random(1414)):
        image0 = exact(two_product_map(x0))
        newton = _ExactNewton(x0, y, defect)
        for state, want in ((newton.residual, difference(image0, y)), (newton.drift, difference(image0, x0))):
            assert as_fractions(state) == want.coefficients, (y, x0)
        for radius in (0.2, 0.5, 1.7):
            meta = newton_invert(y, x0, 1, radius, defect).report.meta
            assert meta["initial_residual_norm"] == ps_norm(difference(image0, y), radius)
            assert meta["initial_drift_norm"] == ps_norm(difference(image0, x0), radius)


# ---- float Newton on real doubles against its complex form --------------------


def _complex_mul(u, v):
    """The Cauchy product of complex coefficient lists, with the zero skips of the kernel."""
    D = len(u) - 1
    out = [0j] * (D + 1)
    for i, a in enumerate(u):
        if a:
            for k, b in enumerate(v[: D - i + 1], i):
                if b:
                    out[k] += a * b
    return out


def _complex_integral(u):
    return [0j] + [c * (1 / k) for k, c in enumerate(u[:-1], 1)]


def _complex_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def complex_newton(y, x0, steps, defect, radius):
    """Float Newton as it ran on complex coefficients, the solve weights computed inline.

    Returns the per-step report floats, the meta norms, the valuations, the
    solution and every complex value the run produced.
    """
    D = len(x0) - 1

    def norm(f):
        return math.fsum(abs(c) * radius**k for k, c in enumerate(f) if c)

    def valuation(f):
        return next((k for k, c in enumerate(f) if c), D + 1)

    def solve(x, rhs):
        xi = [0j] * (D + 1)
        for m in range(D - defect):
            acc = rhs[m + 1]
            for j in range(m):
                acc = acc - xi[j] * x[m - j] * ((m + 2) / ((j + 1) * (m - j + 1)))
            xi[m] = acc / (x[0] * ((m + 2) / (m + 1)))
        return xi

    image0 = _complex_mul(x0, _complex_integral(x0))
    x, residual = list(x0), _complex_sub(image0, y)
    seen = [*image0, *residual]
    steps_out, valuations = [], [valuation(residual)]
    for _ in range(steps):
        if valuations[-1] > D:
            break
        xi = solve(x, residual)
        left, right = _complex_mul(x, _complex_integral(xi)), _complex_mul(xi, _complex_integral(x))
        linear = [a + b for a, b in zip(left, right)]
        defect_series = _complex_sub(residual, linear)
        r_norm = norm(residual)
        x = _complex_sub(x, xi)
        residual = _complex_sub(_complex_mul(x, _complex_integral(x)), y)
        seen += [*xi, *defect_series, *x, *residual]
        valuations.append(valuation(residual))
        defect_norm = norm(defect_series)
        steps_out.append((norm(xi), norm(residual), r_norm, defect_norm, _defect_ratio(defect_norm, r_norm)))
    meta = (norm(residual), norm(_complex_sub(image0, y)), norm(_complex_sub(image0, x0)))
    return steps_out, meta, tuple(valuations), x, seen


def _float_newton_cases(rng):
    for D in (2, 3, 5, 8, 16, 32, 64):
        for defect in sorted({0, 1, 2, D}):
            y = {1: rng.choice([1.0, -0.5, 2.0])}
            for d in rng.sample(range(2, D + 1), min(D - 1, 4)):
                y[d] = rng.uniform(-1, 1)
            x0 = {0: rng.choice([1.0, -1.5, 0.75])}
            for d in rng.sample(range(1, D + 1), min(D, 2)):
                x0[d] = rng.uniform(-0.5, 0.5)
            yield y, x0, D, rng.randint(1, 8), defect, rng.choice([0.5, 0.2, 0.9, 1.7])


def test_float_newton_matches_its_complex_form_bit_for_bit():
    for y, x0, D, steps, defect, radius in _float_newton_cases(random.Random(3141)):
        ys = TruncatedPowerSeries.from_dict(y, D, "float")
        xs = TruncatedPowerSeries.from_dict(x0, D, "float")
        got = newton_invert(ys, xs, steps, radius, defect)
        steps_out, meta, valuations, x, seen = complex_newton(
            [complex(c) for c in ys.coefficients], [complex(c) for c in xs.coefficients], steps, defect, radius
        )
        case = (y, x0, D, steps, defect, radius)
        assert all(math.isfinite(c.real) and c.imag == 0.0 for c in seen), case
        assert got.residual_valuations == valuations, case
        records = [
            (r.step_norm, r.residual, r.bound, r.extras["defect_norm"], r.extras["defect_ratio"])
            for r in got.report.steps
        ]
        assert [[v.hex() for v in r] for r in records] == [[v.hex() for v in r] for r in steps_out], case
        m = got.report.meta
        got_meta = (m["final_residual_norm"], m["initial_residual_norm"], m["initial_drift_norm"])
        assert [v.hex() for v in got_meta] == [v.hex() for v in meta], case
        assert _bits(got.solution.coefficients) == [c.real.hex() for c in x], case


# ---- each mode holds one real scalar type -------------------------------------


def test_exact_from_dict_rejects_imaginary_parts():
    # exact from_dict takes what Fraction() takes: no complex, no (real, imag) pair
    for value in (1 + 2j, 3 + 0j, (Fraction(1), Fraction(1, 3)), (Fraction(1, 2), 0)):
        with pytest.raises(TypeError):
            TruncatedPowerSeries.from_dict({1: value}, 4)
    f = TruncatedPowerSeries.from_dict({1: 3, 2: "1/2", 3: 0.25}, 4)
    assert f.coefficients == (0, 3, Fraction(1, 2), Fraction(1, 4), 0)


def test_float_from_dict_rejects_complex_values():
    # float series hold real doubles: float() refuses a complex value, even one with a zero imaginary part
    for value in (1 + 2j, 3 + 0j, 0j):
        with pytest.raises(TypeError):
            TruncatedPowerSeries.from_dict({1: value}, 4, "float")
    f = TruncatedPowerSeries.from_dict({1: 3, 2: Fraction(1, 2), 3: 0.25}, 4, "float")
    assert f.coefficients == (0.0, 3.0, 0.5, 0.25, 0.0)
    assert all(type(c) is float for c in f.coefficients + f.to_float().coefficients)
    assert all(type(c) is float for c in TruncatedPowerSeries.from_dict({1: 1}, 4).to_float().coefficients)


# ---- Fourier kernels: plain references ---------------------------------------


def dense_convolve_truncate(a, b, cap):
    full = np.convolve(a, b)
    mid = len(full) // 2
    return full[mid - cap : mid + cap + 1]


def loop_log_sinh(x):
    if x > 30.0:
        return x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))
    return math.log(math.sinh(x))


def loop_strip_l2_log_norm(data, cap, t):
    logs = []
    for k in range(-cap, cap + 1):
        c = abs(complex(data[k + cap]))
        if c == 0.0:
            continue
        weight = math.log(2.0 * t) if k == 0 else loop_log_sinh(2.0 * abs(k) * t) - math.log(abs(k))
        logs.append(2.0 * math.log(c) + weight)
    if not logs:
        return -math.inf
    hi = max(logs)
    return 0.5 * (hi + math.log(math.fsum(math.exp(l - hi) for l in logs)))


def band_order_strip_l2_log_norm(w, t):
    """The strip norm as one array expression: weights per harmonic, max, fsum in band order."""
    idx = w.band.nonzero()[0]
    if idx.size == 0:
        return -math.inf
    logs = 2.0 * np.log(np.abs(w.band[idx])) + _log_weight(idx + w.lo, t)
    hi = float(logs.max())
    if hi == math.inf:
        return math.inf
    return 0.5 * (hi + math.log(math.fsum(np.exp(logs - hi).tolist())))


def _band(rng, cap, lo, hi):
    data = np.zeros(2 * cap + 1, dtype=complex)
    n = hi - lo + 1
    data[lo + cap : hi + cap + 1] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return data


def _convolution_cases(rng):
    for cap in (2, 8, 33, 100):
        yield cap, _band(rng, cap, -cap, cap), _band(rng, cap, -cap, cap)  # dense
    for _ in range(40):  # sparse bands anywhere, many crossing +-cap in the product
        cap = int(rng.integers(2, 80))
        bands = []
        for _ in range(2):
            lo = int(rng.integers(-cap, cap + 1))
            hi = int(rng.integers(lo, min(lo + 12, cap) + 1))
            bands.append(_band(rng, cap, lo, hi))
        yield cap, bands[0], bands[1]
    for cap in (4, 16):
        yield cap, _band(rng, cap, cap - 2, cap), _band(rng, cap, 1, 3)  # crosses +cap
        yield cap, _band(rng, cap, -cap, -cap + 1), _band(rng, cap, -3, -1)  # crosses -cap
        yield cap, _band(rng, cap, cap, cap), _band(rng, cap, 1, 1)  # lands just past +cap
        yield cap, _band(rng, cap, -cap, cap), np.zeros(2 * cap + 1, dtype=complex)
        yield cap, np.zeros(2 * cap + 1, dtype=complex), _band(rng, cap, -2, 2)
        for k, j in ((0, 0), (3, -3), (-cap, cap), (cap // 2, cap // 2), (-1, 2)):
            yield cap, _band(rng, cap, k, k), _band(rng, cap, j, j)  # single harmonics


# ---- Fourier kernels ---------------------------------------------------------


def test_band_convolution_matches_dense():
    rng = np.random.default_rng(11)
    for cap, a, b in _convolution_cases(rng):
        lo, band = _convolve_truncate(FourierOneForm(cap, a), CircleVectorField(cap, b))
        assert band.size == 0 or (-cap <= lo and lo + band.size <= cap + 1)
        got = np.zeros(2 * cap + 1, dtype=complex)
        got[lo + cap : lo + cap + band.size] = band
        want = dense_convolve_truncate(a, b, cap)
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, (cap, np.flatnonzero(a), np.flatnonzero(b))
        # outside the occupied band the product is exactly zero, as the dense one is
        assert np.array_equal(np.flatnonzero(got), np.flatnonzero(want))


def test_band_round_trip():
    rng = np.random.default_rng(13)
    for cap, a, b in _convolution_cases(rng):
        for data in (a, b):
            w = FourierOneForm(cap, data)
            assert np.array_equal(w.data, data) and not w.data.flags.writeable
            assert w.band.size == 0 or (w.band[0] != 0 and w.band[-1] != 0)
            for k in range(-cap - 1, cap + 2):
                assert w.coefficient(k) == (data[k + cap] if abs(k) <= cap else 0j), (cap, k)


def test_vectorised_strip_norm_matches_loop():
    rng = np.random.default_rng(12)
    for cap in (1, 7, 64, 300):
        for density in (1.0, 0.3, 0.05):
            # magnitudes from 1e-30 to 1e30, random phases
            mags = 10.0 ** rng.uniform(-30, 30, 2 * cap + 1)
            data = mags * np.exp(2j * np.pi * rng.random(2 * cap + 1))
            data[rng.random(2 * cap + 1) >= density] = 0.0
            # t below, at and above the 2|k|t = 30 switch for harmonics inside the cap
            for t in (1e-3, 0.05, 15.0 / cap, 0.5, 3.0, 40.0):
                want = loop_strip_l2_log_norm(data, cap, t)
                got = strip_l2_log_norm(FourierOneForm(cap, data), t)
                if want == -math.inf:
                    assert got == -math.inf
                else:
                    assert abs(got - want) <= 4 * math.ulp(want), (cap, density, t)
    for t in (0.1, 40.0):
        assert strip_l2_log_norm(FourierOneForm.from_coefficients({}, 16), t) == -math.inf


def _strip_norm_cases(rng):
    """Seeded bands from cap 1 to 16384, dense and sparse, magnitudes 1e-300 to 1e300, and zero bands."""
    for cap in (1, 2, 3, 17, 100, 513, 2048, 16384):
        yield FourierOneForm.from_coefficients({}, cap)
        for density in (1.0, 0.1, 0.003):
            for lo_exp, hi_exp in ((-300.0, 300.0), (-5.0, 5.0)):
                if density == 1.0:
                    lo, hi = -cap, cap
                else:
                    lo = int(rng.integers(-cap, cap + 1))
                    hi = int(rng.integers(lo, cap + 1))
                size = hi - lo + 1
                band = 10.0 ** rng.uniform(lo_exp, hi_exp, size) * np.exp(2j * np.pi * rng.random(size))
                band[rng.random(size) >= density] = 0.0
                band[[0, -1]] = 10.0 ** rng.uniform(lo_exp, hi_exp, 2)  # keep the drawn ends occupied
                yield FourierOneForm.from_coefficients(dict(zip(range(lo, hi + 1), band.tolist())), cap)


def _strip_widths(w):
    """Widths with the 2|k|t = 30 switch inside the band, on both sides of it, and past the float range."""
    top = max((abs(w.lo), abs(w.lo + w.band.size - 1)), default=0) or 1
    return sorted({1e-3, 0.5, 40.0, 7.5 / top, 15.0 / top, 30.0 / top, 1e300, 1e308})


def _tail_fields(w, n, s, t):
    try:
        rep = tail_decay_check(w, n, s, t)
    except ValueError as exc:
        return str(exc)
    return (rep.ratio.hex(), rep.bound.hex(), rep.ok, rep.sinh_ratio_monotone)


def test_strip_norm_equals_band_order_form_bit_for_bit(monkeypatch):
    # the cached weight table and the largest-first fsum must not change a bit of the norm
    rng = np.random.default_rng(17)
    checked = 0
    for w in _strip_norm_cases(rng):
        widths = _strip_widths(w)
        for t in widths:
            want = band_order_strip_l2_log_norm(w, t)
            assert strip_l2_log_norm(w, t).hex() == want.hex(), (w.cap, w.lo, w.band.size, t)
        support = np.abs(np.flatnonzero(w.band) + w.lo)
        if not support.size or support.min() == 0:
            continue
        n = int(support.min()).bit_length() - 1
        for s, t in zip(widths, widths[1:]):
            with monkeypatch.context() as m:
                m.setattr(fourier, "strip_l2_log_norm", band_order_strip_l2_log_norm)
                want = _tail_fields(w, n, s, t)
            assert _tail_fields(w, n, s, t) == want, (w.cap, w.lo, n, s, t)
            checked += 1
    assert checked > 100


@pytest.fixture
def fresh_weight_tables():
    _log_weights.cache_clear()
    yield
    _log_weights.cache_clear()


def test_strip_weight_tables_are_cached_read_only_and_bounded(monkeypatch, fresh_weight_tables):
    calls = []
    real = fourier._log_weight
    monkeypatch.setattr(fourier, "_log_weight", lambda k, t: calls.append(t) or real(k, t))
    w = FourierOneForm.from_cos({0: 1.0, 1: 0.3, 5: 1e-3}, 64)
    first = strip_l2_log_norm(w, 0.37)
    assert len(calls) == 1
    assert strip_l2_log_norm(w, 0.37) == first and len(calls) == 1
    strip_l2_log_norm(w, 0.38)
    assert len(calls) == 2
    table = _log_weights(0.37, 8)  # |k| <= 5 reads the table of size 8 built above
    assert len(calls) == 2 and table.size == 8 and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0
    assert _log_weights.cache_info().maxsize is not None


# ---- circle_run against its dense form ---------------------------------------


def dense_circle_run(eps, steps, cap, lie_order, strip_width=0.5):
    """circle_run as it was: full-array convolutions and per-harmonic loops."""
    alpha = FourierOneForm.from_cos({0: 1.0, 1: eps}, cap)
    records = []
    prev_norm = None
    for n in range(steps):
        pert = {k: alpha.coefficient(k) for k in range(-cap, cap + 1) if k != 0}
        cutoff = 2**n
        target = FourierOneForm.from_coefficients({k: pert[k] for k in range(-cutoff, cutoff + 1) if k != 0}, cap)
        mean_drift = abs(alpha.coefficient(0) - 1.0)
        if target.data.any():
            v = solve_homological(target, cutoff)
            k = np.arange(-cap, cap + 1)
            terms = [alpha.data]
            for j in range(1, lie_order + 1):
                product = dense_convolve_truncate(terms[-1], v.data, cap)
                terms.append(product * (1j * k) / j)
            total = np.zeros(2 * cap + 1, dtype=complex)
            for term in terms:
                total = total + term
            alpha_next = FourierOneForm(cap, total)
            last_term_norm = _loop_strip_norm(terms[-1], cap, strip_width)
        else:
            alpha_next = alpha
            last_term_norm = 0.0
        new_pert = FourierOneForm.from_coefficients(
            {k: alpha_next.coefficient(k) for k in range(-cap, cap + 1) if k != 0}, cap
        )
        step_norm = _loop_strip_norm(alpha_next.data - alpha.data, cap, strip_width)
        residual = _loop_strip_norm(new_pert.data, cap, strip_width)
        extras = {"mean_drift": mean_drift, "last_term_norm": last_term_norm}
        for k in range(1, 5):
            extras[f"cos_{k}"] = cos_coefficient(alpha_next, k)
        records.append((step_norm, residual, prev_norm, prev_norm is None or residual <= prev_norm, extras))
        prev_norm = residual
        alpha = alpha_next
    return _verdict_from_steps([r[0] for r in records]), records


def _loop_strip_norm(data, cap, t):
    log_n = loop_strip_l2_log_norm(data, cap, t)
    if log_n == -math.inf:
        return 0.0
    return math.exp(log_n) if log_n < 709.0 else math.inf


def _close(a, b):
    return a == b or math.isclose(a, b, rel_tol=1e-9)


@pytest.mark.parametrize("cap,order,steps", [(16, 16, 3), (32, 8, 4)])
def test_circle_run_matches_dense_form_where_truncation_bites(cap, order, steps):
    rng = random.Random(cap * 100 + order)
    for eps in [0.0, 0.95] + [round(rng.uniform(0.0, 0.95), 6) for _ in range(8)]:
        for n_steps in range(1, steps + 1):
            verdict, records = dense_circle_run(eps, n_steps, cap, order)
            report = circle_run(eps, n_steps, cap, order).report
            assert report.verdict == verdict, (eps, n_steps)
            assert len(report.steps) == len(records) == n_steps
            for rec, (step_norm, residual, bound, bound_ok, extras) in zip(report.steps, records):
                assert rec.bound_ok == bound_ok, (eps, n_steps, rec.n)
                assert _close(rec.step_norm, step_norm) and _close(rec.residual, residual)
                assert (rec.bound is None) == (bound is None) and (bound is None or _close(rec.bound, bound))
                assert rec.extras.keys() == extras.keys()
                for key, value in extras.items():
                    assert _close(rec.extras[key], value), (eps, n_steps, rec.n, key)
