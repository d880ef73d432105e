"""Factor evaluation, schedules, and the bound verifications along them."""

import math

import pytest

from scale_iter.bruno import BrunoSequence, LogSequence, PreconditionError, is_tame
from scale_iter.factors import (
    KamFactor,
    LocalFactor,
    PerturbativeFactor,
    ScheduleError,
    geometric_bound_check,
    kam_schedule_tame_check,
    perturbative_bound_check,
    perturbative_radius_search,
    rho_for_perturbative,
    schedule_build,
)


def quarter(horizon=48):
    return BrunoSequence.constant(0.25, horizon)


def test_schedule_radii_closed_form():
    sched = schedule_build(1.0, quarter(), 10)
    assert sched.radius(0) == pytest.approx(1.0)
    assert sched.radius(1) == pytest.approx(0.5, rel=1e-14)
    assert sched.radius(2) == pytest.approx(2.0 ** -0.5 / 2.0, rel=1e-14)
    assert sched.s_inf == pytest.approx(0.25, rel=1e-12)


def test_schedule_recursion_exact_in_logs():
    rho = BrunoSequence.phase_power(2.0, 1.5, -1, 24)
    sched = schedule_build(0.7, rho, 20)
    for n in range(20):
        assert sched.log_radii[n + 1] == pytest.approx(
            sched.log_radii[n] + rho.log_term(n) / 2.0 ** (n + 1), abs=1e-12
        )


def test_schedule_homogeneous_in_t():
    s1 = schedule_build(1.0, quarter(), 8)
    s2 = schedule_build(2.0, quarter(), 8)
    for n in range(9):
        assert s2.radius(n) == pytest.approx(2.0 * s1.radius(n), rel=1e-14)


def test_schedule_matches_transform_limit():
    from scale_iter.bruno import a_pi

    rho = BrunoSequence.phase_power(1.0, 1.5, -1, 48)
    sched = schedule_build(3.0, rho, 20)
    assert sched.s_inf == pytest.approx(3.0 * a_pi(rho).limit, rel=1e-12)
    assert all(sched.s_inf <= r <= 3.0 + 1e-12 for r in sched.radii)


def test_schedule_rejects_large_rho():
    ones = BrunoSequence.constant(1.0, 8)
    with pytest.raises(ScheduleError):
        schedule_build(1.0, BrunoSequence(-1, ones.phases), 4)
    with pytest.raises(ScheduleError):
        schedule_build(1.0, BrunoSequence.constant(0.6, 8), 4)


def test_factor_eval_examples():
    pf = PerturbativeFactor(BrunoSequence.constant(1.0, 40))
    assert pf.log_eval(3, 0.5, 1.0) == pytest.approx(8.0 * math.log(0.5), rel=1e-14)
    lf = LocalFactor(1.0, 1.0, 1.0)
    assert lf.log_eval(0.5, 0.6) == pytest.approx(-math.log(0.5) - math.log(0.1), rel=1e-12)
    ones = BrunoSequence.constant(1.0, 40)
    kf = KamFactor(ones, ones)
    log_m, log_n = kf.log_eval(5, 0.5, 0.6)
    assert log_m == pytest.approx(0.0, abs=1e-14)
    assert log_n == pytest.approx(-3.2, rel=1e-13)


def test_factor_eval_rejects_bad_radii():
    lf = LocalFactor(1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        lf.log_eval(0.6, 0.5)
    with pytest.raises(PreconditionError):
        lf.log_eval(-0.1, 0.5)


def test_local_factor_homogeneity():
    lf = LocalFactor(2.0, 1.5, 0.5)
    base = lf.log_eval(0.3, 0.7)
    scaled = lf.log_eval(0.6, 1.4)
    assert scaled == pytest.approx(base - 2.0 * math.log(2.0), rel=1e-12)


def test_perturbative_log_affine_in_two_power():
    # with constant gain the slope in 2^n is exactly log(s/t)
    pf = PerturbativeFactor(BrunoSequence.constant(1.0, 40), 1.0, 1.0)
    s, t = 0.4, 0.9
    vals = {n: pf.log_eval(n, s, t) for n in (2, 5, 9)}
    slope1 = (vals[5] - vals[2]) / (2.0 ** 5 - 2.0 ** 2)
    slope2 = (vals[9] - vals[5]) / (2.0 ** 9 - 2.0 ** 5)
    assert slope1 == pytest.approx(math.log(s / t), rel=1e-12)
    assert slope2 == pytest.approx(math.log(s / t), rel=1e-12)


def test_geometric_bound_trivial_equality():
    rep = geometric_bound_check(LocalFactor(1.0, 0.0, 0.0), schedule_build(1.0, quarter(), 10))
    assert rep.all_ok()
    assert all(v == pytest.approx(0.0, abs=1e-14) for v in rep.log_values)
    assert all(b == pytest.approx(0.0, abs=1e-14) for b in rep.log_bounds)


def test_geometric_bound_thirty_steps():
    rep = geometric_bound_check(LocalFactor(1.0, 1.0, 1.0), schedule_build(1.0, quarter(), 30))
    assert rep.all_ok()


def test_geometric_bound_scales_with_t():
    sched = schedule_build(0.5, quarter(), 30)
    rep = geometric_bound_check(LocalFactor(1.0, 1.0, 1.0), sched)
    assert rep.all_ok()
    rep1 = geometric_bound_check(LocalFactor(1.0, 1.0, 1.0), schedule_build(1.0, quarter(), 30))
    # bound shifts by exactly t^-(alpha+beta) = 4
    for b_half, b_one in zip(rep.log_bounds, rep1.log_bounds):
        assert b_half - b_one == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_rho_for_perturbative_values_and_clip():
    f = PerturbativeFactor(BrunoSequence.constant(1.0, 20))
    rho = rho_for_perturbative(f, BrunoSequence.constant(0.25, 20))
    for n in range(6):
        assert math.exp(rho.log_term(n)) == pytest.approx(2.0 ** -n / 4.0, rel=1e-12)
    clipped = rho_for_perturbative(f, BrunoSequence.constant(1.0, 20))
    assert math.exp(clipped.log_term(0)) == pytest.approx(0.49, rel=1e-12)
    assert math.exp(clipped.log_term(1)) == pytest.approx(0.49, rel=1e-12)
    assert math.exp(clipped.log_term(2)) == pytest.approx(0.25, rel=1e-12)


def test_rho_for_perturbative_phases_add():
    gain = BrunoSequence.phase_power(1.0, 3.0, 1, 40)
    b = BrunoSequence.phase_power(1.0, 2.0, -1, 40)
    f = PerturbativeFactor(gain, 0.0, 1.0)
    rho = rho_for_perturbative(f, b)
    assert rho.sign == -1
    assert rho.is_bruno(40)
    n = 20
    expected = (2 * n + 1) * math.log(2.0) / 2.0 ** n + 1.0 / n ** 3 + 1.0 / n ** 2
    assert rho.phase(n) == pytest.approx(expected, rel=1e-12)


def test_perturbative_bound_shift1_schedule():
    # alpha = beta = 0 and constant b: lambda_n = rho_n^(1/2) under the stated root
    b = BrunoSequence.constant(0.5, 20)
    f = PerturbativeFactor(BrunoSequence.constant(1.0, 20))
    rho = rho_for_perturbative(f, b)
    sched = schedule_build(1.0, rho, 16, exponent_shift=1)
    rep = perturbative_bound_check(f, b, sched, 15)
    for n in range(16):
        assert rep.log_lambda[n] == pytest.approx(0.5 * rho.log_term(n), rel=1e-12)
    assert rep.N == 1
    assert not rep.flags[0]  # clipped rho_0 = 0.49 sits above 1/4


def test_perturbative_bound_trivial_once_below_one():
    b = BrunoSequence.constant(1.0, 20)
    f = PerturbativeFactor(BrunoSequence.constant(1.0, 20))
    rho = rho_for_perturbative(f, b)
    sched = schedule_build(1.0, rho, 16, exponent_shift=0)
    rep = perturbative_bound_check(f, b, sched, 15)
    assert rep.N == 0


def test_perturbative_majorant_pointwise():
    # proof majorant lam_n <= s_inf^-(a+b) 2^-n b_n under the cancelling root
    b = BrunoSequence.constant(0.5, 20)
    f = PerturbativeFactor(BrunoSequence.constant(1.0, 20))
    rho = rho_for_perturbative(f, b)
    sched = schedule_build(1.0, rho, 16, exponent_shift=0)
    rep = perturbative_bound_check(f, b, sched, 15)
    # zero exponents: s_inf^-(a+b) = 1, so the majorant is 2^-n b_n
    for n in range(16):
        lb = -n * math.log(2.0) + b.log_term(n)
        assert rep.log_lambda[n] <= lb + 1e-9 * (1.0 + abs(lb))
    # with zero exponents and no clipping the majorant is an identity
    for n in range(1, 16):
        assert rep.log_lambda[n] == pytest.approx(-n * math.log(2.0) + b.log_term(n), rel=1e-12)


def test_perturbative_radius_search_finds_t():
    b = BrunoSequence.phase_power(1.0, 2.0, -1, 30)
    f = PerturbativeFactor(BrunoSequence.constant(1.0, 30), 1.0, 1.0)
    res = perturbative_radius_search(f, b, 30, t0=1.0, require_N_at_most=15)
    assert res.t <= 1.0
    assert res.report.N is not None and res.report.N <= 15
    assert all(res.report.flags[15:])


def test_perturbative_radius_search_reports_failure():
    b = BrunoSequence.phase_power(1.0, 2.0, -1, 30)
    f = PerturbativeFactor(BrunoSequence.constant(1.0, 30), 1.0, 1.0)
    with pytest.raises(ScheduleError):
        perturbative_radius_search(f, b, 30, t0=1.0, max_halvings=2, require_N_at_most=0)


def test_kam_check_zero_phase_pair_is_tame():
    ones = BrunoSequence.constant(1.0, 42)
    K = KamFactor(ones, ones)
    rep = kam_schedule_tame_check(K, 0.5, 4.0, 1.9, 40)
    assert rep.tame and rep.N is not None


def test_kam_check_carries_violations_not_errors():
    a = BrunoSequence.phase_power(1.0, 3.0, 1, 42)
    K = KamFactor(a, a, 1.0, 1.0, 1.0, 1.0)
    rep = kam_schedule_tame_check(K, 0.5, 4.0, 1.9, 40)
    assert rep.tame
    # early evaluated linear terms sit above 1; that is reported, not fatal
    violations = is_tame(LogSequence(rep.log_m), LogSequence(rep.log_n), 40).violations
    assert any(msg == "b term above 1" for _, msg in violations)


def test_kam_check_rejects_slow_phases():
    slow = BrunoSequence.phase_power(1.0, 1.2, 1, 42)
    K = KamFactor(slow, slow, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        kam_schedule_tame_check(K, 0.5, 4.0, 1.9, 40)


def test_kam_check_delta_must_exceed_eps():
    ones = BrunoSequence.constant(1.0, 42)
    with pytest.raises(PreconditionError):
        kam_schedule_tame_check(KamFactor(ones, ones), 0.5, 4.0, 1.4, 40)


def test_kam_gain_ratio_tracks_schedule_driver():
    # under the cancelling root the truncation gain 2^n (s_(n+1) - s_n) of a
    # phase-scale-3, 1/n^3-phase schedule matches log rho_n^(s_inf) within 5
    # percent over the back half of the horizon
    rho = BrunoSequence.phase_power(3.0, 3.0, -1, 41)
    sched = schedule_build(1.0, rho, 41, 0)
    for n in range(20, 41):
        gain = math.ldexp(sched.radius(n + 1) - sched.radius(n), n)
        assert abs(gain / (sched.s_inf * rho.log_term(n)) - 1.0) <= 0.05, n
