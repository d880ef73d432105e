"""Truncated power series: arithmetic, Lie calculus, norms."""

import math
import random
from fractions import Fraction

import pytest

from scale_iter.engines import _solve_linearization, _solve_weights
from scale_iter.series import (
    Derivation,
    ModeMismatchError,
    TruncatedPowerSeries,
    _cauchy,
    _common_denominator,
    _derivative,
    _float_norm,
    _integral_numerators,
    _lie_exp,
    _numerator_norm,
    ps_derive,
    ps_mul,
    ps_norm,
)


def S(entries, D, mode="exact"):
    return TruncatedPowerSeries.from_dict(entries, D, mode)


def reals(f):
    return [str(c) for c in f.coefficients]


def add(f, g):
    return TruncatedPowerSeries(f.truncation, f.mode, tuple(a + b for a, b in zip(f.coefficients, g.coefficients)))


def difference(f, g):
    return TruncatedPowerSeries(f.truncation, f.mode, tuple(a - b for a, b in zip(f.coefficients, g.coefficients)))


def is_zero(f):
    return not any(f.coefficients)


def lie_exp(g, f):
    """_lie_exp on the numerators of the exact series g and f, back as a series."""
    nums, den = _lie_exp(*_common_denominator(g.coefficients), *_common_denominator(f.coefficients))
    return TruncatedPowerSeries(f.truncation, "exact", tuple(Fraction(n, den) for n in nums))


def test_mul_difference_of_squares():
    one_plus = S({0: 1, 1: 1}, 5)
    one_minus = S({0: 1, 1: -1}, 5)
    assert reals(ps_mul(one_plus, one_minus)) == ["1", "0", "-1", "0", "0", "0"]


def test_mul_truncates_high_degrees():
    assert is_zero(ps_mul(S({3: 1}, 5), S({4: 1}, 5)))


def test_mul_hand_expansion():
    f = S({2: Fraction(1, 2), 3: 1}, 8)
    sq = ps_mul(f, f)
    assert sq.coefficients[4] == Fraction(1, 4)
    assert sq.coefficients[5] == 1
    assert sq.coefficients[6] == 1
    assert all(sq.coefficients[k] == 0 for k in (0, 1, 2, 3, 7, 8))


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
        lhs = ps_mul(add(f, g), h)
        rhs = add(ps_mul(f, h), ps_mul(g, h))
        assert lhs.coefficients == rhs.coefficients
        one = S({0: 1}, D)
        assert ps_mul(f, one).coefficients == f.coefficients


def test_mode_mismatch_rejected():
    with pytest.raises(ModeMismatchError):
        ps_mul(S({0: 1}, 4), S({0: 1}, 4, "float"))
    with pytest.raises(ModeMismatchError):
        ps_mul(S({0: 1}, 4), S({0: 1}, 5))


def test_derive_example():
    d = ps_derive(S({2: Fraction(1, 2), 3: 1}, 5))
    assert reals(d) == ["0", "1", "3", "0", "0", "0"]


def test_derive_antiderive_round_trip():
    # the integral's numerators at degrees 1..6 hold c_(k-1)/k over one denominator
    f = S({0: 2, 1: -1, 3: Fraction(5, 7)}, 6)
    nums, den = _integral_numerators(f.coefficients[:-1])
    anti = TruncatedPowerSeries(6, "exact", (Fraction(0), *(Fraction(n, den) for n in nums)))
    assert ps_derive(anti).coefficients == f.coefficients


def test_lie_exp_matches_flow_composition():
    # independent oracle: e^(v) f = f(phi) for phi = x/(1+x), the time-one
    # flow of -x^2 d/dx, computed by series composition
    D = 10
    f = S({2: Fraction(1, 2), 3: 1}, D)
    lie = lie_exp(S({2: -1}, D), f)

    phi = S({k: Fraction((-1) ** (k + 1)) for k in range(1, D + 1)}, D)
    phi2 = ps_mul(phi, phi)
    oracle = add(ps_mul(phi2, S({0: Fraction(1, 2)}, D)), ps_mul(phi2, phi))
    assert lie.coefficients == oracle.coefficients
    assert lie.coefficients[4] == Fraction(-3, 2)
    assert lie.coefficients[5] == 4
    assert lie.coefficients[6] == Fraction(-15, 2)
    assert lie.coefficients[7] == 12


def test_lie_exp_partial_terms_hand_check():
    # v(f) = -x^3 - 3x^4, and the 1/2 v^2 term restores +3/2 x^4
    D = 7
    f = S({2: Fraction(1, 2), 3: 1}, D)
    v = Derivation(S({2: -1}, D))
    vf = v.apply(f)
    assert reals(vf) == ["0", "0", "0", "-1", "-3", "0", "0", "0"]
    vvf_half = ps_mul(v.apply(vf), S({0: Fraction(1, 2)}, D))
    assert vvf_half.coefficients[4] == Fraction(3, 2)


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
    out = lie_exp(S({3: Fraction(3, 2), 4: -5}, D), f)
    assert out.coefficients[4] == 0
    assert out.coefficients[5] == 0
    assert out.coefficients[6] == Fraction(-223, 24)
    assert out.coefficients[7] == Fraction(3359, 96)


def test_lie_exp_fixes_constants():
    D = 6
    one = S({0: 1}, D)
    assert lie_exp(S({2: 7, 3: -2}, D), one).coefficients == one.coefficients


def lie_series_loop(g, f):
    """f + v(f) + v^2(f)/2! + ... for v = g d/dz, one ps_mul(g, ps_derive(term)) per term, in either mode."""
    acc = term = f
    j = 1
    while True:
        term = ps_mul(ps_mul(g, ps_derive(term)), S({0: Fraction(1, j)}, f.truncation, f.mode))
        if is_zero(term):
            return acc
        acc = add(acc, term)
        j += 1


def test_lie_exp_matches_the_term_by_term_loop():
    # the integer Lie sum against the Fraction loop it replaced, on random
    # generators of valuation 2-4, zero coefficients included
    rng = random.Random(1960)

    def rand(D, lo):
        return S({k: Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for k in range(lo, D + 1)}, D)

    for _ in range(40):
        D = rng.randint(6, 24)
        g, f = rand(D, rng.randint(2, 4)), rand(D, 0)
        assert lie_exp(g, f) == lie_series_loop(g, f)
    f = rand(12, 0)
    assert lie_exp(TruncatedPowerSeries.zero(12), f) == f


def test_lie_exp_stable_under_retruncation():
    D, D_big = 9, 14
    f = S({2: Fraction(1, 2), 3: 1, 4: Fraction(2, 3)}, D)
    g = S({2: -1, 3: Fraction(1, 5)}, D)
    pad = (Fraction(0),) * (D_big - D)
    small = lie_exp(g, f)
    big = lie_exp(
        TruncatedPowerSeries(D_big, "exact", g.coefficients + pad),
        TruncatedPowerSeries(D_big, "exact", f.coefficients + pad),
    )
    assert small.coefficients == big.coefficients[: D + 1]


def test_linearization_action_monomials():
    # at x = 1, L(x) xi = x * integral(xi) + xi * integral(x) sends z^k to
    # (k+2)/(k+1) z^(k+1): exact Newton forms it as (X Xi)' on integers, and
    # the float solve inverts it there
    D = 6
    nx, dx = _integral_numerators(S({0: 1}, D).coefficients[:-1])
    for k in (0, 1, 3):
        nxi, dxi = _integral_numerators(S({k: 1}, D).coefficients[:-1])
        nums, den = _derivative(_cauchy(nx, nxi, D - 1, 0), dx * dxi)
        assert [Fraction(n, den) for n in nums] == [Fraction(k + 2, k + 1) * (j == k + 1) for j in range(D + 1)]
        rhs = [(k + 2) / (k + 1) * (j == k + 1) for j in range(D + 1)]
        assert _solve_linearization([1.0] + [0.0] * D, rhs, _solve_weights(D), 0) == [float(j == k) for j in range(D + 1)]
    assert not any(_solve_linearization([1.0] + [0.0] * D, [0.0] * (D + 1), _solve_weights(D), 0))


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


def test_norm_of_a_nonzero_series_is_not_zero_where_t_to_the_k_underflows():
    # 0.04^300 is below the normal floats, so the direct term of 10^200 z^300
    # reads 0.0; the log-domain sum gives 10^200 * 0.04^300, about 4.1e-220
    want = float(10**200 * Fraction(0.04) ** 300)
    for mode in ("exact", "float"):
        assert ps_norm(S({300: 10**200}, 300, mode), 0.04) == pytest.approx(want, rel=1e-12)
        # a subnormal 0.5^1030 keeps too few digits for a direct term
        f = S({1: 1, 1030: Fraction(10**300)}, 1030, mode)
        assert ps_norm(f, 0.5) == pytest.approx(float(Fraction(1, 2) + 10**300 * Fraction(1, 2**1030)), rel=1e-12)
    assert _numerator_norm([0] * 300 + [10**200], 1, 0.04) == ps_norm(S({300: 10**200}, 300), 0.04)
    # a nan coefficient still reads nan, beside an inf one too, and an inf one inf
    top = [0.0] * 300
    assert math.isnan(_float_norm([1.0, *top, math.nan], 0.04))
    assert math.isnan(_float_norm([math.nan, *top, math.inf], 0.04))
    assert math.isnan(_float_norm([math.inf, *top, math.nan], 0.04))
    assert _float_norm([1.0, *top, math.inf], 0.04) == math.inf


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
        f = ps_mul(S({k: 1}, D, "float"), _random_poly(rng, D))
        t = rng.uniform(0.2, 1.5)
        q = TruncatedPowerSeries(D, "float", f.coefficients[k:] + (0.0,) * k)  # f / z^k
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
        f = ps_mul(S({p: 1}, D, "float"), _random_poly(rng, D))
        s = rng.uniform(0.1, 0.5)
        t = s + rng.uniform(0.1, 0.5)
        assert ps_norm(f, s) <= (s / t) ** p * ps_norm(f, t) * (
            1 + 1e-12
        )


def test_valuation_conventions():
    assert TruncatedPowerSeries.zero(6).valuation == 7
    assert S({4: 1}, 6).valuation == 4
