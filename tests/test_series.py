"""Truncated power series: arithmetic, Lie calculus, norms."""

import math
import random
from fractions import Fraction

import pytest

from scale_iter.series import (
    Derivation,
    DivisionValuationError,
    GeneratorValuationError,
    ModeMismatchError,
    TruncatedPowerSeries,
    _numerator_norm,
    linearization_action,
    ps_add,
    ps_antiderive,
    ps_derive,
    ps_divide_monomial,
    ps_lie_exp,
    ps_mul,
    ps_norm,
    ps_scale,
)


def S(entries, D, mode="exact"):
    return TruncatedPowerSeries.from_dict(entries, D, mode)


def reals(f):
    return [str(c) for c in f.coefficients]


def test_mul_difference_of_squares():
    one_plus = S({0: 1, 1: 1}, 5)
    one_minus = S({0: 1, 1: -1}, 5)
    assert reals(ps_mul(one_plus, one_minus)) == ["1", "0", "-1", "0", "0", "0"]


def test_mul_truncates_high_degrees():
    assert ps_mul(S({3: 1}, 5), S({4: 1}, 5)).is_zero()


def test_mul_hand_expansion():
    f = S({2: Fraction(1, 2), 3: 1}, 8)
    sq = ps_mul(f, f)
    assert sq.real_coefficient(4) == Fraction(1, 4)
    assert sq.real_coefficient(5) == 1
    assert sq.real_coefficient(6) == 1
    assert all(sq.real_coefficient(k) == 0 for k in (0, 1, 2, 3, 7, 8))


def test_ring_axioms_on_random_exact_series():
    rng = random.Random(13)

    def rand_series(D):
        return S(
            {k: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(D + 1)},
            D,
        )

    for _ in range(15):
        D = rng.randint(2, 7)
        f, g, h = rand_series(D), rand_series(D), rand_series(D)
        assert ps_mul(f, g).coefficients == ps_mul(g, f).coefficients
        assert (
            ps_mul(ps_mul(f, g), h).coefficients == ps_mul(f, ps_mul(g, h)).coefficients
        )
        lhs = ps_mul(ps_add(f, g), h)
        rhs = ps_add(ps_mul(f, h), ps_mul(g, h))
        assert lhs.coefficients == rhs.coefficients
        one = S({0: 1}, D)
        assert ps_mul(f, one).coefficients == f.coefficients


def test_mode_mismatch_rejected():
    with pytest.raises(ModeMismatchError):
        ps_add(S({0: 1}, 4), S({0: 1}, 4, "float"))
    with pytest.raises(ModeMismatchError):
        ps_mul(S({0: 1}, 4), S({0: 1}, 5))


def test_antiderive_monomial_rule():
    for k in (0, 2, 5):
        anti, dropped = ps_antiderive(S({k: 1}, 8))
        assert anti.real_coefficient(k + 1) == Fraction(1, k + 1)
        assert not dropped


def test_antiderive_drops_top_with_flag():
    anti, dropped = ps_antiderive(S({8: 3}, 8))
    assert anti.is_zero() and dropped


def test_derive_example():
    d = ps_derive(S({2: Fraction(1, 2), 3: 1}, 5))
    assert reals(d) == ["0", "1", "3", "0", "0", "0"]


def test_derive_antiderive_round_trip():
    f = S({0: 2, 1: -1, 3: Fraction(5, 7)}, 6)
    anti, _ = ps_antiderive(f)
    assert ps_derive(anti).coefficients == f.coefficients


def test_divide_monomial():
    q = ps_divide_monomial(S({4: 1, 5: 1}, 6), 1)
    assert reals(q) == ["0", "0", "0", "1", "1", "0", "0"]
    z = TruncatedPowerSeries.monomial(1, 1, 6)
    assert ps_mul(q, z).coefficients == S({4: 1, 5: 1}, 6).coefficients


def test_divide_requires_valuation():
    with pytest.raises(DivisionValuationError):
        ps_divide_monomial(S({0: 1, 1: 1}, 5), 1)


def test_divide_morse_seed():
    # remainder x^3 divided by x gives the x^2 generator of the first step
    g = ps_divide_monomial(S({3: 1}, 7), 1)
    assert reals(g) == ["0", "0", "1", "0", "0", "0", "0", "0"]


def test_lie_exp_matches_flow_composition():
    # independent oracle: e^(v) f = f(phi) for phi = x/(1+x), the time-one
    # flow of -x^2 d/dx, computed by series composition
    D = 10
    f = S({2: Fraction(1, 2), 3: 1}, D)
    v = Derivation(S({2: -1}, D))
    lie = ps_lie_exp(v, f)

    phi = S({k: Fraction((-1) ** (k + 1)) for k in range(1, D + 1)}, D)
    phi2 = ps_mul(phi, phi)
    oracle = ps_add(ps_scale(phi2, Fraction(1, 2)), ps_mul(phi2, phi))
    assert lie.coefficients == oracle.coefficients
    assert lie.real_coefficient(4) == Fraction(-3, 2)
    assert lie.real_coefficient(5) == 4
    assert lie.real_coefficient(6) == Fraction(-15, 2)
    assert lie.real_coefficient(7) == 12


def test_lie_exp_partial_terms_hand_check():
    # v(f) = -x^3 - 3x^4, and the 1/2 v^2 term restores +3/2 x^4
    D = 7
    f = S({2: Fraction(1, 2), 3: 1}, D)
    v = Derivation(S({2: -1}, D))
    vf = v.apply(f)
    assert reals(vf) == ["0", "0", "0", "-1", "-3", "0", "0", "0"]
    vvf_half = ps_scale(v.apply(vf), Fraction(1, 2))
    assert vvf_half.real_coefficient(4) == Fraction(3, 2)


def test_lie_exp_quartic_quintic_elimination():
    # second normal-form step for a quartic-plus-quintic remainder fixture
    D = 8
    f = S(
        {
            2: Fraction(1, 2),
            4: Fraction(-3, 2),
            5: 5,
            6: Fraction(-115, 24),
            7: Fraction(119, 96),
        },
        D,
    )
    v = Derivation(S({3: Fraction(3, 2), 4: -5}, D))
    out = ps_lie_exp(v, f)
    assert out.real_coefficient(4) == 0
    assert out.real_coefficient(5) == 0
    assert out.real_coefficient(6) == Fraction(-223, 24)
    assert out.real_coefficient(7) == Fraction(3359, 96)


def test_lie_exp_fixes_constants():
    D = 6
    one = S({0: 1}, D)
    v = Derivation(S({2: 7, 3: -2}, D))
    assert ps_lie_exp(v, one).coefficients == one.coefficients


def test_lie_exp_rejects_low_valuation_generator():
    with pytest.raises(GeneratorValuationError):
        ps_lie_exp(Derivation(S({1: 1}, 5)), S({2: 1}, 5))


def test_lie_exp_stable_under_retruncation():
    D, D_big = 9, 14
    f = S({2: Fraction(1, 2), 3: 1, 4: Fraction(2, 3)}, D)
    v = Derivation(S({2: -1, 3: Fraction(1, 5)}, D))
    pad = (Fraction(0),) * (D_big - D)
    small = ps_lie_exp(v, f)
    big = ps_lie_exp(
        Derivation(TruncatedPowerSeries(D_big, "exact", v.generator.coefficients + pad)),
        TruncatedPowerSeries(D_big, "exact", f.coefficients + pad),
    )
    assert small.coefficients == big.coefficients[: D + 1]


def test_linearization_action_monomials():
    D = 6
    one = S({0: 1}, D)
    for k in (0, 1, 3):
        out = linearization_action(one, TruncatedPowerSeries.monomial(k, 1, D))
        assert out.real_coefficient(k + 1) == Fraction(k + 2, k + 1)
        assert out.valuation == k + 1
    assert linearization_action(one, TruncatedPowerSeries.zero(D)).is_zero()


def test_norm_examples():
    assert ps_norm(TruncatedPowerSeries.zero(5), 1.0) == 0.0
    # 20^400 leaves the float range, but only a nonzero coefficient would need it
    for mode in ("exact", "float"):
        assert ps_norm(S({1: 1}, 400, mode), 20.0) == 20.0
        assert ps_norm(S({1: 1}, 40, mode), 1e10) == 1e10
    assert _numerator_norm([0, 3] + [0] * 399, 2, 20.0) == 30.0
    # a nonzero coefficient whose t^k leaves the float range: the norm is summed
    # in the log domain, and saturates only when it leaves the range itself
    den = 10**500
    g = S({1: 1, 400: Fraction(1, den)}, 400)
    expected = float(20 + Fraction(20) ** 400 / den)
    assert ps_norm(g, 20.0) == pytest.approx(expected, rel=1e-12)
    assert _numerator_norm([0, den] + [0] * 398 + [1], den, 20.0) == ps_norm(g, 20.0)
    assert ps_norm(S({1: 1.0, 40: 1e-300}, 40, "float"), 1e10) == pytest.approx(1e100, rel=1e-12)
    for mode in ("exact", "float"):
        assert ps_norm(S({400: 1}, 400, mode), 20.0) == math.inf


def test_exact_norm_past_the_float_range():
    # coefficients near 10^400 overflow float(); the norms are taken from the
    # integers in the log domain and compared with an exact evaluation
    big = 10**400
    f = S({1: Fraction(1, 3), 2: big, 3: Fraction(-3 * big, 7)}, 5)
    t = 1e-100
    tq = Fraction(t)
    sup = sum(abs(c) * tq**k for k, c in enumerate(f.coefficients))
    assert ps_norm(f, t) == pytest.approx(float(sup), rel=1e-12)
    # a norm that leaves the float range itself saturates
    assert ps_norm(f, 0.5) == math.inf
    with pytest.raises(ValueError):
        ps_norm(f, 0.0)


def _random_poly(rng, D):
    return S({k: rng.uniform(-1, 1) for k in range(D + 1)}, D, "float")


def test_cauchy_inequality_sweep():
    # |f^(k)| on |z| = s is controlled by k!/(t-s)^k times the majorant at t
    rng = random.Random(20240817)
    for _ in range(40):
        D = rng.randint(3, 10)
        f = _random_poly(rng, D)
        s = rng.uniform(0.1, 0.6)
        t = s + rng.uniform(0.1, 0.4)
        sup_t = ps_norm(f, t)
        g = f
        for k in (1, 2, 3):
            g = ps_derive(g)
            samples = max(
                abs(sum(c * (s * complex(math.cos(a), math.sin(a))) ** j for j, c in enumerate(g.coefficients)))
                for a in [2 * math.pi * j / 16 for j in range(16)]
            )
            assert samples <= math.factorial(k) / (t - s) ** k * sup_t * (1 + 1e-9)


def test_division_maximum_principle():
    rng = random.Random(7)
    for _ in range(30):
        D = rng.randint(4, 10)
        k = rng.randint(1, 3)
        f = ps_mul(
            TruncatedPowerSeries.monomial(k, 1, D, "float"), _random_poly(rng, D)
        )
        t = rng.uniform(0.2, 1.5)
        q = ps_divide_monomial(f, k)
        assert ps_norm(q, t) <= t ** -k * ps_norm(f, t) * (1 + 1e-12)


def test_norm_monotone_in_radius():
    rng = random.Random(99)
    for _ in range(20):
        f = _random_poly(rng, 8)
        s = rng.uniform(0.1, 0.9)
        t = s + rng.uniform(0.05, 0.5)
        assert ps_norm(f, s) <= ps_norm(f, t) * (1 + 1e-12)


def test_remainder_decay_with_valuation():
    rng = random.Random(5)
    for _ in range(20):
        D = 12
        p = rng.randint(2, 6)
        f = ps_mul(TruncatedPowerSeries.monomial(p, 1, D, "float"), _random_poly(rng, D))
        s = rng.uniform(0.1, 0.5)
        t = s + rng.uniform(0.1, 0.5)
        assert ps_norm(f, s) <= (s / t) ** p * ps_norm(f, t) * (
            1 + 1e-12
        )


def test_valuation_conventions():
    assert TruncatedPowerSeries.zero(6).valuation == 7
    assert S({4: 1}, 6).valuation == 4
