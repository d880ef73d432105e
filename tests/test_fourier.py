"""Circle harmonics: Lie calculus, homological solve, strip norms, tails."""

import math
import random

import numpy as np
import pytest

from scale_iter.fourier import (
    CircleVectorField,
    FourierOneForm,
    MeanObstructionError,
    SupportError,
    cos_coefficient,
    lie_derivative_oneform,
    lie_exp_terms,
    oneform_lie_exp,
    solve_homological,
    strip_l2_norm,
    tail_decay_check,
)

CAP = 8


def test_lie_derivative_constant_field():
    # along d/dtheta, cos theta dtheta flows to -sin theta dtheta
    v = CircleVectorField.from_cos({0: 1.0}, CAP)
    w = FourierOneForm.from_cos({1: 1.0}, CAP)
    out = lie_derivative_oneform(v, w)
    assert out.coefficient(1) == pytest.approx(0.5j)
    assert out.coefficient(-1) == pytest.approx(-0.5j)


def test_lie_derivative_zero_field():
    v = CircleVectorField.from_coefficients({}, CAP)
    w = FourierOneForm.from_cos({2: 1.0}, CAP)
    assert not lie_derivative_oneform(v, w).data.any()


def test_lie_derivative_first_order_elimination():
    # v = -sin theta d/dtheta applied to dtheta gives -cos theta dtheta
    v = CircleVectorField.from_coefficients({1: 0.5j, -1: -0.5j}, CAP)  # -sin
    w = FourierOneForm.from_cos({0: 1.0}, CAP)
    out = lie_derivative_oneform(v, w)
    assert cos_coefficient(out, 1) == pytest.approx(-1.0)


def test_lie_derivative_product_rule_equals_exact_form():
    rng = random.Random(3)
    a = FourierOneForm.from_cos({k: rng.uniform(-1, 1) for k in range(0, 4)}, CAP)
    f = CircleVectorField.from_cos({k: rng.uniform(-1, 1) for k in range(0, 4)}, CAP)
    via_product = lie_derivative_oneform(f, a)
    # product rule: a f' + a' f, assembled harmonic by harmonic
    k = np.arange(-CAP, CAP + 1)
    fprime = CircleVectorField(CAP, f.data * (1j * k))
    aprime = FourierOneForm(CAP, a.data * (1j * k))
    direct = np.convolve(a.data, fprime.data) + np.convolve(aprime.data, f.data)
    mid = len(direct) // 2
    assert np.allclose(direct[mid - CAP : mid + CAP + 1], via_product.data, atol=1e-14)


def test_solve_homological_cosine():
    beta = FourierOneForm.from_cos({1: 0.1}, CAP)
    v = solve_homological(beta, 1)
    # f = -0.1 sin theta: c_1 = 0.05j, c_-1 = -0.05j
    assert v.coefficient(1) == pytest.approx(0.05j)
    assert v.coefficient(-1) == pytest.approx(-0.05j)
    # right inverse: L_v dtheta + beta = 0
    residue = lie_derivative_oneform(v, FourierOneForm.from_cos({0: 1.0}, CAP)).data + beta.data
    assert np.max(np.abs(residue)) < 1e-15


def test_solve_homological_zero_and_obstruction():
    assert not solve_homological(FourierOneForm.from_coefficients({}, CAP), 3).data.any()
    with pytest.raises(MeanObstructionError):
        solve_homological(FourierOneForm.from_cos({0: 1.0}, CAP), 3)


def test_homological_right_inverse_random():
    rng = random.Random(11)
    for _ in range(25):
        cutoff = rng.randint(1, 6)
        beta = FourierOneForm.from_cos(
            {k: rng.uniform(-1, 1) for k in range(1, cutoff + 1)}, CAP
        )
        v = solve_homological(beta, cutoff)
        residue = (
            lie_derivative_oneform(v, FourierOneForm.from_cos({0: 1.0}, CAP)).data + beta.data
        )
        assert np.max(np.abs(residue)) < 1e-13


def _alpha_and_field(eps, cap=CAP):
    w = FourierOneForm.from_cos({0: 1.0, 1: eps}, cap)
    v = solve_homological(FourierOneForm.from_cos({1: eps}, cap), 1)
    return w, v


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_lie_exp_order_two_coefficients_are_exact(eps):
    # at order 2 the three displayed harmonics of the transported form are
    # polynomial identities: -eps^2/2, -eps^3/4, +3 eps^3/4
    w, v = _alpha_and_field(eps)
    a1 = oneform_lie_exp(v, w, 2)
    assert cos_coefficient(a1, 2) == pytest.approx(-eps ** 2 / 2.0, rel=1e-12)
    assert cos_coefficient(a1, 1) == pytest.approx(-eps ** 3 / 4.0, rel=1e-12)
    assert cos_coefficient(a1, 3) == pytest.approx(3.0 * eps ** 3 / 4.0, rel=1e-12)
    assert cos_coefficient(a1, 0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_lie_exp_higher_order_correction(eps):
    # the full exponential shifts cos 2theta by +eps^4/4 (hand-derived from
    # the third and fourth operator terms); residual is O(eps^6)
    w, v = _alpha_and_field(eps)
    a6 = oneform_lie_exp(v, w, 6)
    assert cos_coefficient(a6, 2) - (-eps ** 2 / 2.0 + eps ** 4 / 4.0) == pytest.approx(
        0.0, abs=2.0 * eps ** 6
    )


def test_lie_exp_identity_for_zero_field():
    w = FourierOneForm.from_cos({0: 1.0, 1: 0.3}, CAP)
    out = oneform_lie_exp(CircleVectorField.from_coefficients({}, CAP), w, 5)
    assert np.allclose(out.data, w.data)


def test_lie_exp_preserves_reality():
    w, v = _alpha_and_field(0.2)
    out = oneform_lie_exp(v, w, 6)
    # conjugate symmetry c_(-k) = conj(c_k) up to roundoff
    scale = np.abs(out.data).max()
    assert np.allclose(out.data[::-1].conj(), out.data, rtol=0.0, atol=1e-12 * scale)


def test_lie_exp_terms_shrink():
    w, v = _alpha_and_field(0.1)
    terms = lie_exp_terms(v, w, 5)
    norms = [strip_l2_norm(term, 0.4) for term in terms[1:]]
    assert all(norms[i + 1] <= norms[i] for i in range(len(norms) - 1))


def test_strip_norm_examples():
    assert strip_l2_norm(FourierOneForm.from_coefficients({0: 1}, 4), 0.5) == pytest.approx(1.0)
    assert strip_l2_norm(FourierOneForm.from_coefficients({1: 1}, 4), 0.5) == pytest.approx(
        math.sqrt(math.sinh(1.0)), rel=1e-13
    )
    assert strip_l2_norm(FourierOneForm.from_coefficients({}, 4), 0.7) == 0.0


def test_strip_norm_monotone_and_homogeneous():
    rng = random.Random(21)
    w = FourierOneForm.from_cos({k: rng.uniform(-1, 1) for k in range(0, 5)}, CAP)
    assert strip_l2_norm(w, 0.3) <= strip_l2_norm(w, 0.6)
    doubled = FourierOneForm(CAP, 2.0 * w.data)
    assert strip_l2_norm(doubled, 0.4) == pytest.approx(2.0 * strip_l2_norm(w, 0.4), rel=1e-13)


def test_strip_norm_large_cap_no_overflow():
    # 2|k|t ~ 1400 would overflow a linear sinh
    from scale_iter.fourier import strip_l2_log_norm

    w = FourierOneForm.from_coefficients({700: 1.0}, 700)
    assert strip_l2_log_norm(w, 1.0) == pytest.approx(
        (2 * 700 * 1.0 - math.log(2.0) - math.log(700)) / 2.0, rel=1e-12
    )


def test_strip_norm_is_infinite_when_the_weight_leaves_the_float_range(capsys):
    # 2|k|t overflows at t = 1e308: the norm is +inf, with no nan and no numpy warning
    import json
    import warnings

    from scale_iter import cli
    from scale_iter.fourier import strip_l2_log_norm

    cfg = {"command": "circle", "eps": 0.5, "steps": 3, "cap": 16, "order": 2, "strip_width": 1e308}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert strip_l2_log_norm(FourierOneForm.from_cos({0: 1.0, 1: 0.5}, 16), 1e308) == math.inf
        assert cli.run(cfg) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    steps = json.loads(captured.out)["report"]["steps"]
    assert [step["residual"] for step in steps] == [math.inf] * 3
    # an infinite bound passes any residual that is not NaN, an infinite one included
    assert [(step["bound"], step["flag"]) for step in steps[1:]] == [(math.inf, True)] * 2


def test_tail_decay_single_harmonic():
    w = FourierOneForm.from_coefficients({4: 1}, 8)
    rep = tail_decay_check(w, 2, 0.4, 0.5)
    assert rep.ratio == pytest.approx(math.sqrt(math.sinh(3.2) / math.sinh(4.0)), rel=1e-12)
    assert rep.bound == pytest.approx(math.exp(-0.2), rel=1e-14)
    assert rep.ok and rep.sinh_ratio_monotone


def test_tail_decay_saturates_past_the_float_range():
    # at t = 1e308 the log bound 2^(n-1) (s - t) overflows and 2kt leaves the
    # float range; at 1e307 only the log-sinh tail overflows.  Both saturate,
    # with no exception and no numpy warning
    import warnings

    w = FourierOneForm.from_coefficients({4: 1}, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = tail_decay_check(w, 2, 0.5, 1e307)
        far = tail_decay_check(w, 2, 0.5, 1e308)
    assert (near.ratio, near.bound, near.ok, near.sinh_ratio_monotone) == (0.0, 0.0, True, True)
    # every log-sinh ratio is -inf at 1e308, so the decrease cannot be seen
    assert (far.ratio, far.bound, far.ok, far.sinh_ratio_monotone) == (0.0, 0.0, True, False)
    # a norm at s past the float range leaves no ratio to compare
    with pytest.raises(ValueError, match="leaves the float range"):
        tail_decay_check(w, 2, 5e307, 1e308)


def test_tail_decay_ratio_continuity_near_equal_radii():
    w = FourierOneForm.from_coefficients({4: 1}, 8)
    rep = tail_decay_check(w, 2, 0.499999, 0.5)
    assert rep.ratio == pytest.approx(1.0, abs=1e-4)
    assert rep.bound == pytest.approx(1.0, abs=1e-4)


def test_tail_decay_support_guard():
    w = FourierOneForm.from_coefficients({1: 1, 4: 1}, 8)
    with pytest.raises(SupportError):
        tail_decay_check(w, 2, 0.4, 0.5)


def test_tail_decay_intermediate_chain():
    # the two-step chain behind the bound: the squared norm ratio is at most
    # the leading weight ratio, which is at most exp(2^n (s - t))
    from scale_iter.fourier import _log_sinh, strip_l2_log_norm

    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(1, 5)
        base = 2 ** n
        cap = base + 16
        coeffs = {}
        for k in range(base, cap + 1):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            coeffs[k] = c
            coeffs[-k] = c.conjugate()
        w = FourierOneForm.from_coefficients(coeffs, cap)
        s = rng.uniform(0.15, 0.8)
        t = rng.uniform(s + 0.05, 1.0)
        log_sq_ratio = 2.0 * (strip_l2_log_norm(w, s) - strip_l2_log_norm(w, t))
        log_lead = _log_sinh(2.0 * base * s) - _log_sinh(2.0 * base * t)
        assert log_sq_ratio <= log_lead + 1e-12
        assert log_lead <= base * (s - t) + 1e-12


def test_tail_decay_random_sweep():
    rng = random.Random(20240818)
    for _ in range(50):
        n = rng.randint(0, 5)
        base = 2 ** n
        cap = base + 24
        coeffs = {}
        for k in range(base, cap + 1):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            coeffs[k] = c
            coeffs[-k] = c.conjugate()
        w = FourierOneForm.from_coefficients(coeffs, cap)
        s = rng.uniform(0.1, 0.95)
        t = rng.uniform(s + 1e-3, 1.0)
        rep = tail_decay_check(w, n, s, t)
        assert rep.ok and rep.sinh_ratio_monotone


def test_sinh_ratio_strictly_decreasing_through_64():
    from scale_iter.fourier import _log_sinh

    s, t = 0.35, 0.8
    ratios = [_log_sinh(2 * k * s) - _log_sinh(2 * k * t) for k in range(1, 65)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_lie_exp_default_order_is_cap():
    w, v = _alpha_and_field(0.1)
    assert np.allclose(oneform_lie_exp(v, w).data, oneform_lie_exp(v, w, CAP).data)
