"""Sequence calculus: transforms, summability, orbits, tame pairs."""

import math
import random

import pytest

from scale_iter.bruno import (
    BrunoSequence,
    HorizonError,
    LogSequence,
    PreconditionError,
    a_pi,
    absorb_check,
    delta_search,
    is_bruno,
    is_tame,
    log_bruno_transform,
    mixed_orbit,
    quadratic_orbit,
)

H = 48


def test_transform_identity_case():
    ones = BrunoSequence.constant(1.0, H)
    assert log_bruno_transform(ones, 10) == 0.0


def test_transform_constant_four_closed_form():
    # prod_{k<=n} 4^(1/2^(k+1)) = 4^(1 - 2^-(n+1))
    a4 = BrunoSequence.constant(4.0, H)
    assert math.exp(log_bruno_transform(a4, 1)) == pytest.approx(4.0 ** 0.75, rel=1e-14)
    for n in (0, 3, 7):
        assert math.exp(log_bruno_transform(a4, n)) == pytest.approx(4.0 ** (1 - 2.0 ** -(n + 1)), rel=1e-14)


def test_transform_divergent_phase_partial_products():
    # terms exp(2^k): log of partial product is (n+1)/2
    div = BrunoSequence.from_phases(1, [1.0] * 21)
    for n in (0, 3, 10):
        assert log_bruno_transform(div, n) == pytest.approx((n + 1) / 2.0, rel=1e-14)


def test_transform_monotone_in_n():
    up = BrunoSequence.constant(3.0, 20)
    down = BrunoSequence.constant(0.3, 20)
    ups = [log_bruno_transform(up, n) for n in range(20)]
    downs = [log_bruno_transform(down, n) for n in range(20)]
    assert all(x <= y for x, y in zip(ups, ups[1:]))
    assert all(x >= y for x, y in zip(downs, downs[1:]))


def test_transform_horizon_guard():
    with pytest.raises(HorizonError):
        log_bruno_transform(BrunoSequence.constant(2.0, 4), 5)


def test_a_pi_results():
    r1 = a_pi(BrunoSequence.constant(1.0, H))
    assert r1.converged and r1.limit == 1.0 and r1.log_limit == 0.0
    r4 = a_pi(BrunoSequence.constant(4.0, H))
    assert r4.converged and r4.limit == pytest.approx(4.0, rel=1e-12)
    rdiv = a_pi(BrunoSequence.from_phases(1, [1.0] * (H + 1)))
    assert not rdiv.converged


def test_is_bruno_examples():
    assert is_bruno(BrunoSequence.phase_power(1.0, 2.0, -1, 40), 40)
    assert not is_bruno(BrunoSequence.from_phases(-1, [1.0] * 41), 40)
    assert is_bruno(BrunoSequence.constant(0.25, 40), 40)
    # non-summable boundary 1/n: tail is log 2 at every horizon
    assert not is_bruno(BrunoSequence.phase_power(1.0, 1.0, -1, 400), 400)


def test_quadratic_orbit_threshold():
    a2 = BrunoSequence.constant(2.0, H)
    assert quadratic_orbit(a2, 0.49, 30).verdict == "converged-to-zero"
    assert quadratic_orbit(a2, 0.51, 30).verdict == "diverged"
    boundary = quadratic_orbit(a2, 0.5, 30)
    assert boundary.verdict == "undecided"
    assert max(abs(v - 0.5) for v in boundary.values) == 0.0


def test_quadratic_orbit_closed_form_flags():
    a2 = BrunoSequence.constant(2.0, H)
    for u0 in (0.0, 0.25, 0.49, 0.5, 0.51):
        assert quadratic_orbit(a2, u0, 25).all_flags()


def test_quadratic_orbit_divergence_index():
    tr = quadratic_orbit(BrunoSequence.constant(2.0, H), 0.51, 30)
    assert tr.failed_at is not None
    assert math.isinf(tr.values[-1]) or tr.values[-1] > 1e300
    assert all(math.isfinite(v) for v in tr.values[:-1])


def test_quadratic_orbit_requires_converged_limit():
    with pytest.raises(PreconditionError):
        quadratic_orbit(BrunoSequence.from_phases(1, [1.0] * 31), 0.1, 30)


def test_absorb_inequality_stated_form():
    rho = BrunoSequence.constant(0.25, 41)
    for n in range(41):
        chk = absorb_check(rho, n)
        assert chk.ok
    # equality at rho = 1/2, n = 0
    chk = absorb_check(BrunoSequence.constant(0.5, 2), 0)
    assert chk.gap == pytest.approx(0.5) and chk.bound == 0.5


def test_absorb_inequality_schedule_exponent():
    # the shifted root used by the schedule obeys the index-(n+1) bound
    rho = BrunoSequence.constant(0.3, 41)
    for n in range(40):
        shifted = absorb_check(rho, n, exponent_shift=1)
        assert shifted.gap >= math.ldexp(1.0, -(n + 2))


def test_absorb_requires_small_terms():
    with pytest.raises(PreconditionError):
        absorb_check(BrunoSequence.constant(0.75, 4), 1)


def test_is_tame_boundary_pair():
    a = BrunoSequence.constant(1.0, 31)
    b = BrunoSequence.exp_power(2.0, -1, 31)
    verdict = is_tame(a, b, 30)
    assert verdict.tame and verdict.N == 0 and not verdict.violations
    # equality throughout: every flag true
    assert all(verdict.flags)


def test_is_tame_geometric_pair():
    verdict = is_tame(BrunoSequence.geometric(2.0, 31), BrunoSequence.geometric(0.25, 31), 30)
    assert verdict.tame and verdict.N == 2


def test_is_tame_exp_power_pair():
    verdict = is_tame(
        BrunoSequence.exp_power(1.5, 1, 31), BrunoSequence.exp_power(1.9, -1, 31), 30
    )
    assert verdict.tame and verdict.N == 10


def test_is_tame_monotone_in_a():
    # if (a, b) is tame then so is (a', b) for pointwise a' <= a
    a = BrunoSequence.geometric(2.0, 31)
    a_small = BrunoSequence.geometric(1.5, 31)
    b = BrunoSequence.geometric(0.25, 31)
    big = is_tame(a, b, 30)
    small = is_tame(a_small, b, 30)
    assert big.tame and small.tame and small.N <= big.N


def test_is_tame_reports_violations_per_index():
    a = BrunoSequence.constant(0.5, 11)  # below 1 everywhere
    b = BrunoSequence.geometric(0.5, 11)
    verdict = is_tame(a, b, 10)
    indices = [i for i, msg in verdict.violations if msg == "a term below 1"]
    assert indices == list(range(10))


def test_mixed_orbit_geometric_example():
    a = BrunoSequence.geometric(1.1, 31)
    b = BrunoSequence.geometric(0.8, 31)
    tr = mixed_orbit(a, b, 0.5, 30)
    # x1 = (a0 x0^2 + b0 x0)/2 with a0 = b0 = 1
    assert tr.values[1] == pytest.approx(0.375, abs=1e-15)
    assert tr.values[1] <= 0.8 * 0.5
    assert tr.bound_flags[1]


def test_mixed_orbit_zero_start():
    a = BrunoSequence.geometric(1.1, 31)
    b = BrunoSequence.geometric(0.8, 31)
    tr = mixed_orbit(a, b, 0.0, 30)
    assert all(v == 0.0 for v in tr.values)
    assert tr.verdict == "converged-to-zero"


def test_mixed_orbit_boundary_pair_flag_fails_early():
    # the first-step bound needs b_1 >= b_0 / 2, which exp(-2^n) decay violates
    a = BrunoSequence.constant(1.0, 31)
    b = BrunoSequence.exp_power(2.0, -1, 31)
    tr = mixed_orbit(a, b, 0.01, 5)
    assert tr.values[1] == pytest.approx(0.0018893972058572131, rel=1e-12)
    assert tr.values[1] > math.exp(-2.0) * 0.01
    assert not tr.bound_flags[1]


def test_mixed_orbit_induction_step_on_trace():
    # once a flag holds with x_n <= 1 past the taming index, the next holds too
    a = BrunoSequence.geometric(1.1, 41)
    b = BrunoSequence.geometric(0.8, 41)
    N = is_tame(a, b, 40).N
    tr = mixed_orbit(a, b, 0.55, 40)
    for n in range(max(N, 1), 40):
        if tr.bound_flags[n] and tr.values[n] <= 1.0:
            assert tr.bound_flags[n + 1]


def test_delta_search_feasible_and_maximal():
    a = BrunoSequence.geometric(1.1, 31)
    b = BrunoSequence.geometric(0.8, 31)
    delta = delta_search(a, b, 30)
    assert 0.1 < delta < 1.0
    assert mixed_orbit(a, b, delta, 30).all_flags()
    assert not mixed_orbit(a, b, min(1.0, delta * 1.01), 30, require_tame=False).all_flags()


def test_log_sequence_wrapper():
    seq = LogSequence((0.0, -1.0, -2.0))
    assert seq.horizon == 2
    assert seq.log_term(1) == -1.0
    with pytest.raises(HorizonError):
        seq.log_term(3)


def test_log_term_guards_both_ends_of_the_horizon():
    for seq in (BrunoSequence.constant(0.5, 6), LogSequence((0.0, -1.0, -2.0))):
        for n in (-1, seq.horizon + 1):
            with pytest.raises(HorizonError):
                seq.log_term(n)


def test_bruno_log_term_is_the_scaled_phase():
    rng = random.Random(20261018)
    for _ in range(20):
        sign = rng.choice((-1, 1))
        phases = [rng.uniform(0.0, 3.0) * 2.0 ** -rng.randrange(60) for _ in range(rng.randrange(1, 80))]
        seq = BrunoSequence.from_phases(sign, phases)
        assert [seq.log_term(n) for n in range(len(phases))] == [
            sign * math.ldexp(u, n) for n, u in enumerate(phases)
        ]
