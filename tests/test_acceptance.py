"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.

Criterion 1 pins the Morse golden coefficients for f0 = x^2/2 + x^3 at
zero tolerance.  Step one uses the generator -x^2 d/dx, whose time-one flow
is x/(1+x), so step one is exactly f0(x/(1+x)); its coefficient of x^k for
k >= 2 is (-1)^k (k-1)(3-k)/2, and the test computes its expected values
from that closed form.  Step two uses the generator (3/2 x^3 - 4 x^4) d/dx;
its x^6 and x^7 values, -12 and 39, are the hand sum of the Lie series
terms written beside them.
"""

import functools
import math
import random
import time
from fractions import Fraction

from scale_iter.bruno import (
    BrunoSequence,
    LogSequence,
    absorb_check,
    delta_search,
    is_tame,
    mixed_orbit,
    quadratic_orbit,
)
from scale_iter.engines import (
    ScalarElement,
    contraction_run,
    kam_run,
    morse_run,
    newton_invert,
    scalar_contraction_family,
    scalar_kam_family,
)
from scale_iter.factors import (
    KamFactor,
    PerturbativeFactor,
    kam_schedule_tame_check,
    perturbative_radius_search,
)
from scale_iter.fourier import (
    FourierOneForm,
    cos_coefficient,
    lie_exp_terms,
    solve_homological,
    tail_decay_check,
)
from scale_iter.series import TruncatedPowerSeries
from test_bruno import exp_power
from test_fourier import _sum


def criterion(cid, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{cid}] FAIL {description}")
                raise
            print(f"[{cid}] PASS {description}")

        return wrapper

    return deco


def S(entries, D, mode="exact"):
    return TruncatedPowerSeries.from_dict(entries, D, mode)


@criterion("C01", "normal-form golden coefficients, steps 1 and 2, exact")
def test_c01_morse_golden_displays():
    start = time.perf_counter()
    res = morse_run(S({2: Fraction(1, 2), 3: 1}, 10), 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    f1, f2 = res.functions[1], res.functions[2]
    # step one is f0(x/(1+x)): (-1)^k (k-1)(3-k)/2 at x^k
    golden_f1 = {k: Fraction((-1) ** k * (k - 1) * (3 - k), 2) for k in range(3, 11)}
    # step two, v = (3/2 x^3 - 4 x^4) d/dx, f2 = f1 + v f1 + v^2 f1 / 2 + ...
    # (v^3 f1 starts at x^8):
    #   x^6: -15/2 (f1) - 9 (3/2 x^3 . f1') + 9/2 (v^2 f1 / 2) = -12
    #   x^7: 12 (f1) + 24 (-4 x^4 . f1') + 30 (3/2 x^3 . f1') - 27 (v^2 f1 / 2) = 39
    golden_f2 = {6: Fraction(-12), 7: Fraction(39)}
    mismatches = []
    for deg, want in golden_f1.items():
        got = f1.coefficients[deg]
        if got != want:
            mismatches.append(f"step1 x^{deg}: reference {want}, computed {got}")
    for deg, want in golden_f2.items():
        got = f2.coefficients[deg]
        if got != want:
            mismatches.append(f"step2 x^{deg}: reference {want}, computed {got}")
    assert not mismatches, "; ".join(mismatches)


@criterion("C02", "remainder order doubling, 5 steps at truncation 70, exact")
def test_c02_morse_order_doubling():
    res = morse_run(S({2: Fraction(1, 2), 3: 1}, 70), 5)
    for record in res.report.steps:
        n = record.n
        assert record.extras["valuation"] >= 2 ** (n + 1) + 2


@criterion("C03", "circle golden coefficients at eps 0.05 and 0.1")
def test_c03_circle_golden():
    start = time.perf_counter()
    for eps in (0.05, 0.1):
        cap = 8
        w = FourierOneForm.from_cos({0: 1.0, 1: eps}, cap)
        v = solve_homological(FourierOneForm.from_cos({1: eps}, cap), 1)
        a1 = _sum(lie_exp_terms(v, w, 2))
        assert abs(cos_coefficient(a1, 2) - (-eps**2 / 2.0)) <= 5.0 * eps**3
        assert abs(cos_coefficient(a1, 1) - (-eps**3 / 4.0)) <= 5.0 * eps**4
        assert abs(cos_coefficient(a1, 3) - (3.0 * eps**3 / 4.0)) <= 5.0 * eps**4
    assert time.perf_counter() - start < 1.0


@criterion("C04", "strip-norm tail bound, 200 random tail forms, zero violations")
def test_c04_tail_property():
    rng = random.Random(20240820)
    violations = 0
    for _ in range(200):
        n = rng.randint(0, 5)
        base = 2**n
        cap = base + rng.randint(8, 32)
        coeffs = {}
        for k in range(base, cap + 1):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            coeffs[k] = c
            coeffs[-k] = c.conjugate()
        w = FourierOneForm.from_coefficients(coeffs, cap)
        s = rng.uniform(0.1, 0.99)
        t = rng.uniform(s + 1e-6, 1.0)
        rep = tail_decay_check(w, n, s, t)
        if not rep.ok:
            violations += 1
    assert violations == 0


@criterion("C05", "quadratic-orbit threshold at u0 in {0.49, 0.5, 0.51}")
def test_c05_bruno_threshold():
    a2 = BrunoSequence.constant(2.0, 48)
    assert quadratic_orbit(a2, 0.49, 30).verdict == "converged-to-zero"
    assert quadratic_orbit(a2, 0.51, 30).verdict == "diverged"
    boundary = quadratic_orbit(a2, 0.5, 30)
    assert boundary.verdict == "undecided"
    assert max(abs(v - 0.5) for v in boundary.values) <= 1e-12


@criterion("C06", "absorption inequality, 100 random drivers, n <= 40")
def test_c06_absorb_inequality():
    rng = random.Random(20240821)
    for trial in range(100):
        flavor = trial % 3
        phases = []
        for n in range(41):
            floor = math.log(2.0) / 2.0**n
            if flavor == 0:
                u = floor * (1.0 + rng.uniform(0.01, 3.0))
            elif flavor == 1:
                u = floor + rng.uniform(0.1, 2.0) / (n + 1.0) ** 2
            else:
                u = max(floor * 1.001, rng.uniform(0.1, 1.5) / (n + 1.0) ** 3)
            phases.append(u)
        rho = BrunoSequence(-1, tuple(phases))
        for n in range(41):
            assert absorb_check(rho, n).ok


@criterion("C07", "tame-pair suite and mixed-orbit flags from the bisected start")
def test_c07_tame_pair_suite():
    v1 = is_tame(BrunoSequence.constant(1.0, 31), exp_power(2.0, -1, 31), 30)
    assert v1.tame and v1.N == 0
    v2 = is_tame(BrunoSequence.geometric(2.0, 31), BrunoSequence.geometric(0.25, 31), 30)
    assert v2.tame and v2.N == 2
    v3 = is_tame(
        exp_power(1.5, 1, 31), exp_power(1.9, -1, 31), 30
    )
    assert v3.tame and v3.N == 10

    a = BrunoSequence.geometric(1.1, 31)
    b = BrunoSequence.geometric(0.8, 31)
    x0 = delta_search(a, b, 30)
    assert x0 > 0.0
    trace = mixed_orbit(a, b, x0, 30)
    assert all(trace.bound_flags)


@criterion("C08", "perturbative schedule bound on the upper half of horizon 30")
def test_c08_perturbative_schedule():
    horizon = 30
    b = BrunoSequence.phase_power(1.0, 2.0, -1, horizon)
    f = PerturbativeFactor(BrunoSequence.constant(1.0, horizon), 1.0, 1.0)
    res = perturbative_radius_search(
        f, b, horizon, t0=1.0, require_N_at_most=horizon // 2
    )
    assert res.t <= 1.0
    assert res.report.N is not None and res.report.N <= horizon // 2
    # log-domain comparison on the whole upper half
    for n in range(horizon // 2, horizon + 1):
        assert res.report.log_lambda[n] <= res.report.log_b[n]


@criterion("C09", "mixed-factor tameness and linear-part bound at horizon 40")
def test_c09_kam_tameness():
    start = time.perf_counter()
    horizon = 40
    gain = BrunoSequence.phase_power(1.0, 3.0, 1, horizon + 1)
    K = KamFactor(gain, gain, 1.0, 1.0, 1.0, 1.0)
    rep = kam_schedule_tame_check(K, 0.5, 4.0, 1.9, horizon)
    assert rep.tame and rep.N is not None
    for n in range(horizon // 2, horizon + 1):
        assert rep.log_n[n] < -math.ldexp(1.0, n) / float(n) ** 1.9
    assert time.perf_counter() - start < 1.0


@criterion("C10", "quadratic convergence of the series Newton driver")
def test_c10_newton_quadratic():
    D = 32
    y = S({1: 1, 2: Fraction(1, 10)}, D)
    x0 = S({0: 1}, D)
    exact = newton_invert(y, x0, 6)
    vals = exact.residual_valuations
    # orders within the vanishing ideal double exactly until 16 is reached
    reduced = [v - 1 for v in vals]
    while reduced and reduced[-1] > 16:
        reduced.pop()
    assert reduced[0] == 1
    for prev, nxt in zip(reduced, reduced[1:]):
        assert nxt >= 2 * prev
    assert reduced[-1] >= 16

    yf = S({1: 1, 2: 0.1}, D, "float")
    x0f = S({0: 1}, D, "float")
    flt = newton_invert(yf, x0f, 3)
    norms = [flt.report.meta["initial_residual_norm"]] + [
        r.residual for r in flt.report.steps
    ]
    for prev, nxt in zip(norms, norms[1:]):
        assert math.log(nxt) <= 2.0 * math.log(prev) + 5.0

    quasi = newton_invert(yf, x0f, 10, defect=2)
    assert quasi.report.verdict == "converged"


@criterion("C11", "scalar surrogates reproduce the orbit oracles to 1e-12")
def test_c11_oracle_equivalence():
    steps = 30
    a2 = BrunoSequence.constant(2.0, 48)
    lam = PerturbativeFactor(BrunoSequence.constant(1.0, 48))
    drive = contraction_run(
        scalar_contraction_family(a2),
        lam,
        BrunoSequence.constant(0.5, 48),
        1.0,
        ScalarElement(0.5),
        steps,
    )
    orbit = quadratic_orbit(a2, 0.5, steps)
    for it, val in zip(drive.iterates, orbit.values):
        assert abs(it.value - val) <= 1e-12 * max(abs(val), 1e-300)

    ones = BrunoSequence.constant(1.0, 42)
    K = KamFactor(ones, ones)
    drive2 = kam_run(scalar_kam_family(K), K, 0.5, 1.9, 4.0, ScalarElement(0.25), steps)
    orbit2 = mixed_orbit(
        LogSequence(drive2.log_m[: steps + 1]),
        LogSequence(drive2.log_n[: steps + 1]),
        0.25,
        steps,
    )
    for it, val in zip(drive2.iterates, orbit2.values):
        assert abs(it.value - val) <= 1e-12 * max(abs(val), 1e-300) + 1e-300
