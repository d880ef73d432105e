"""Differential checks of the series kernels against their plain-loop forms.

The exact Cauchy product and the exact triangular solve run on integer
numerators over common denominators; here they are compared with direct
Fraction loops.  The float kernels keep their summation order, so they are
compared bit for bit with the loops they replaced.
"""

import random
from fractions import Fraction

import pytest

from scale_iter.engines import (
    SingularLinearizationError,
    _solve_linearization,
    newton_invert,
)
from scale_iter.series import (
    TruncatedPowerSeries,
    linearization_action,
    ps_mul,
    series_from_json,
    series_to_json,
)


def _random_exact(rng, D, density=0.8):
    coeffs = [
        Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 7, 12, 25, 97, 1024]))
        if rng.random() < density
        else Fraction(0)
        for _ in range(D + 1)
    ]
    return TruncatedPowerSeries(D, "exact", tuple(coeffs))


def _random_float(rng, D, density=0.8):
    coeffs = [
        complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) if rng.random() < density else 0j
        for _ in range(D + 1)
    ]
    return TruncatedPowerSeries(D, "float", tuple(coeffs))


def _bits(coeffs):
    return [(c.real.hex(), c.imag.hex()) for c in coeffs]


# ---- plain-loop references -------------------------------------------------


def naive_exact_mul(f, g):
    D = f.truncation
    out = [Fraction(0)] * (D + 1)
    for i in range(D + 1):
        for j in range(D + 1 - i):
            out[i + j] += f.coefficients[i] * g.coefficients[j]
    return tuple(out)


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


def loop_float_mul(f, g):
    D = f.truncation
    out = [0j] * (D + 1)
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
    xi = [0j] * (D + 1)
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
    assert ps_mul(zero, f).is_zero()


@pytest.mark.parametrize("drop_top", [0, 1, 2])
def test_exact_solve_matches_weighted_sum(drop_top):
    rng = random.Random(1000 + drop_top)
    for _ in range(15):
        D = rng.randint(2, 20)
        x = _random_exact(rng, D)
        if x.coefficients[0] == 0:
            x = TruncatedPowerSeries(D, "exact", (Fraction(rng.randint(1, 9), 4),) + x.coefficients[1:])
        rhs = _random_exact(rng, D)
        xi = _solve_linearization(x, rhs, drop_top, 0)
        assert xi.coefficients == weighted_exact_solve(x, rhs, drop_top)
        if drop_top == 0:
            # the solve inverts the linearization on degrees 1..D
            recon = linearization_action(x, xi)
            assert recon.coefficients[1:] == rhs.coefficients[1:]


def test_exact_solve_singular_only_at_exact_zero():
    D = 6
    rhs = _random_exact(random.Random(3), D)
    tiny = TruncatedPowerSeries.from_dict({0: Fraction(1, 10**13), 1: 1}, D)
    xi = _solve_linearization(tiny, rhs, 0, 0)
    assert xi.coefficients == weighted_exact_solve(tiny, rhs, 0)
    with pytest.raises(SingularLinearizationError):
        _solve_linearization(TruncatedPowerSeries.from_dict({1: 1}, D), rhs, 0, 4)


# ---- float kernels: same summation order, same bits ------------------------


def test_float_mul_bit_identical_to_loop():
    rng = random.Random(77)
    for _ in range(40):
        D = rng.randint(0, 40)
        f = _random_float(rng, D, rng.choice([0.3, 0.8, 1.0]))
        g = _random_float(rng, D, rng.choice([0.3, 0.8, 1.0]))
        assert _bits(ps_mul(f, g).coefficients) == _bits(loop_float_mul(f, g))


@pytest.mark.parametrize("drop_top", [0, 1, 2])
def test_float_solve_bit_identical_to_loop(drop_top):
    rng = random.Random(500 + drop_top)
    for _ in range(15):
        D = rng.randint(2, 48)
        x = _random_float(rng, D, 1.0)
        rhs = _random_float(rng, D)
        xi = _solve_linearization(x, rhs, drop_top, 0)
        assert _bits(xi.coefficients) == _bits(loop_float_solve(x, rhs, drop_top))


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


# ---- exact mode is real-only -----------------------------------------------


def test_exact_from_dict_rejects_imaginary_parts():
    with pytest.raises(ValueError, match="real-only"):
        TruncatedPowerSeries.from_dict({1: 1 + 2j}, 4)
    with pytest.raises(ValueError, match="real-only"):
        TruncatedPowerSeries.from_dict({1: (Fraction(1), Fraction(1, 3))}, 4)
    f = TruncatedPowerSeries.from_dict({1: 3 + 0j, 2: (Fraction(1, 2), 0)}, 4)
    assert f.coefficients == (0, 3, Fraction(1, 2), 0, 0)


def test_exact_json_rejects_imaginary_parts_and_round_trips():
    f = TruncatedPowerSeries.from_dict({0: Fraction(-7, 3), 2: Fraction(5, 11)}, 3)
    doc = series_to_json(f)
    assert doc["coefficients"] == [["-7/3", "0"], ["0", "0"], ["5/11", "0"], ["0", "0"]]
    assert series_from_json(doc) == f
    doc["coefficients"][1] = ["1", "1/2"]
    with pytest.raises(ValueError, match="real-only"):
        series_from_json(doc)
