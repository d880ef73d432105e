"""Truncated one-variable power series with exact or float coefficients.

Series live in the quotient ring C[z]/(z^(D+1)) for a fixed truncation D.
Exact mode stores real coefficients as Fractions so golden computations are
reproducible bit for bit.  Float mode stores real doubles.  The disk norm
is the coefficient majorant sum |c_k| t^k, which dominates the true sup on
the disk of radius t.  The Lie exponential _lie_exp of a derivation g d/dz
with valuation(g) at least 2 terminates exactly at the truncation, which is
what makes the Morse eliminations golden-testable.  Exact arithmetic runs on
one integer layer, numerator lists over one denominator: _cauchy, _combine,
_lie_exp, and Newton's row division _divide with its _derivative.  ps_mul
and the exact Morse and Newton loops in engines share it.  Float Newton runs
_cauchy and _float_norm on lists of doubles.  TruncatedPowerSeries is the
boundary type: the CLI parses into it and engines return results in it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

__all__ = [
    "TruncatedPowerSeries",
    "Derivation",
    "ModeMismatchError",
    "ps_mul",
    "ps_derive",
    "ps_norm",
]


class ModeMismatchError(ValueError):
    """Operands carry different scalar modes or truncations."""


class SingularLinearizationError(RuntimeError):
    """The triangular solve hit a vanishing diagonal; carries the step index."""

    def __init__(self, step: int):
        super().__init__(f"singular diagonal at step {step}: constant term reached zero")
        self.step = step


Coeff = Union[Fraction, float]

_F0 = Fraction(0)


def _common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators of exact coefficients over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _integral_numerators(coeffs) -> tuple[list[int], int]:
    """Integer numerators of the integral of exact coefficients c_0, c_1, ... at degrees 1, 2, ...

    Degree k carries c_(k-1)/k over the least common denominator, reduced by
    one small gcd instead of a Fraction division.
    """
    nums, dens = [], []
    for k, c in enumerate(coeffs, 1):
        g = math.gcd(c.numerator, k)
        nums.append(c.numerator // g)
        dens.append(c.denominator * (k // g))
    den = math.lcm(*dens)
    return [n * (den // d) for n, d in zip(nums, dens)], den


def _cauchy(u: list, v: list, D: int, zero) -> list:
    """Truncated product of coefficient lists, skipping zero entries."""
    out = [zero] * (D + 1)
    for i, a in enumerate(u):
        if a:
            for k, b in enumerate(v[: D - i + 1], i):
                if b:
                    out[k] += a * b
    return out


def _combine(nu: list[int], du: int, nv: list[int], dv: int, sign: int) -> tuple[list[int], int]:
    """nu/du + sign * nv/dv entry by entry (nv may be shorter), over its least common denominator."""
    den = math.lcm(du, dv)
    fu, fv = den // du, sign * (den // dv)
    out = [a * fu for a in nu]
    for k, b in enumerate(nv):
        if b:
            out[k] += b * fv
    g = math.gcd(den, *out)
    return ([a // g for a in out], den // g) if g > 1 else (out, den)


def _cauchy_square(u: list[int], D: int) -> list[int]:
    """_cauchy(u, u, D, 0) with each off-diagonal product formed once."""
    out = [0] * (D + 1)
    half = u[: D // 2 + 1]
    for i, a in enumerate(half):
        if a:
            for k, b in enumerate(u[i + 1 : D - i + 1], 2 * i + 1):
                if b:
                    out[k] += a * b
    out = [2 * c for c in out]
    for i, a in enumerate(half):
        out[2 * i] += a * a
    return out


def _valuation(nums: list[int]) -> int:
    """Least degree with a nonzero numerator; len(nums) for zero."""
    return next((k for k, n in enumerate(nums) if n), len(nums))


def _divide(nq: list[int], dq: int, nx: list[int], dx: int, rows: int, step: int) -> tuple[list[int], int]:
    """The first `rows` coefficients a_m of Q / X, as numerators over one growing denominator da.

    nq[m] / dq is Q at degree m + 2 and nx[k] / dx is X at degree k + 1.  Row m
    reads x_0 a_m + S = Q_(m+2) with x_0 = X_1 = p0 / dx, where S, the sum of
    a_j X_(m+1-j) over j < m, is an integer convolution s over da dx.  So
    a_m da = (nq[m] da dx - s dq) / (dq p0); one gcd with dq p0 reduces it and
    leaves the factor da must grow by, which keeps da the least common
    denominator.  Rows below the valuation v of Q are zero, so the solve
    starts at row v.
    """
    p0 = nx[0]
    if p0 == 0:
        raise SingularLinearizationError(step)
    v = _valuation(nq[:rows])
    d0 = dq * p0
    na: list[int] = []
    da = 1
    for m in range(v, rows):
        s = sum(map(operator.mul, na, nx[m - v : 0 : -1]))
        num = nq[m] * da * dx - s * dq
        g = math.gcd(num, d0)
        num, grow = (num // g, d0 // g) if d0 > 0 else (-num // g, -d0 // g)
        if grow > 1:
            na = [n * grow for n in na]
            da *= grow
        na.append(num)
    return [0] * v + na, da


def _derivative(nq: list[int], dq: int) -> tuple[list[int], int]:
    """Numerators of Q' at degrees 0..D, for Q at degrees 2..D+1."""
    return [0, *((m + 2) * q for m, q in enumerate(nq))], dq


@dataclass(frozen=True)
class TruncatedPowerSeries:
    """Degree-capped series; coefficients has length truncation + 1."""

    truncation: int
    mode: str
    coefficients: tuple

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "float"):
            raise ModeMismatchError(f"unknown mode {self.mode!r}")
        if len(self.coefficients) != self.truncation + 1:
            raise ValueError("coefficient vector does not match truncation")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, truncation: int, mode: str = "exact") -> "TruncatedPowerSeries":
        z: Coeff = _F0 if mode == "exact" else 0.0
        return cls(truncation, mode, tuple(z for _ in range(truncation + 1)))

    @classmethod
    def from_dict(
        cls, entries: Mapping[int, object], truncation: int, mode: str = "exact"
    ) -> "TruncatedPowerSeries":
        coeffs: list[Coeff] = list(cls.zero(truncation, mode).coefficients)
        for deg, val in entries.items():
            if not 0 <= deg <= truncation:
                raise ValueError(f"degree {deg} outside truncation {truncation}")
            coeffs[deg] = Fraction(val) if mode == "exact" else float(val)  # type: ignore[arg-type]
        return cls(truncation, mode, tuple(coeffs))

    # ---- basic queries -------------------------------------------------

    @property
    def valuation(self) -> int:
        """Least degree with a nonzero coefficient; truncation + 1 for zero."""
        for k, c in enumerate(self.coefficients):
            if c:
                return k
        return self.truncation + 1

    def to_float(self) -> "TruncatedPowerSeries":
        if self.mode == "float":
            return self
        return TruncatedPowerSeries(
            self.truncation,
            "float",
            tuple(float(c) for c in self.coefficients),
        )


def _check_compatible(f: TruncatedPowerSeries, g: TruncatedPowerSeries) -> None:
    if f.mode != g.mode:
        raise ModeMismatchError(f"mode mismatch: {f.mode} vs {g.mode}")
    if f.truncation != g.truncation:
        raise ModeMismatchError(f"truncation mismatch: {f.truncation} vs {g.truncation}")


def ps_mul(f: TruncatedPowerSeries, g: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Cauchy product truncated at the common degree cap.

    Exact operands are multiplied as integer numerators over their common
    denominators, so each output coefficient is reduced once.
    """
    _check_compatible(f, g)
    D, mode = f.truncation, f.mode
    if mode == "float":
        return TruncatedPowerSeries(D, mode, tuple(_cauchy(f.coefficients, g.coefficients, D, 0.0)))
    nf, df = _common_denominator(f.coefficients)
    ng, dg = _common_denominator(g.coefficients)
    den = df * dg
    return TruncatedPowerSeries(D, mode, tuple(Fraction(n, den) for n in _cauchy(nf, ng, D, 0)))


def ps_derive(f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Formal derivative; the top degree of the output is zero."""
    zero = _F0 if f.mode == "exact" else 0.0
    return TruncatedPowerSeries(
        f.truncation, f.mode, (*(k * c for k, c in enumerate(f.coefficients[1:], 1)), zero)
    )


@dataclass(frozen=True)
class Derivation:
    """Vector field g(z) d/dz acting on the truncated ring."""

    generator: TruncatedPowerSeries

    def apply(self, f: TruncatedPowerSeries) -> TruncatedPowerSeries:
        return ps_mul(self.generator, ps_derive(f))


def _lie_exp(ng: list[int], dg: int, nf: list[int], df: int) -> tuple[list[int], int]:
    """f + v(f) + v^2(f)/2! + ... for v = g d/dz, with g = ng/dg and f = nf/df as numerator lists.

    Term j is g times the derivative of term j - 1, over dt dg j, reduced by
    one gcd; the sum stops at the first zero term, so g needs valuation >= 2.
    """
    D = len(nf) - 1
    acc, nt, dt = (nf, df), nf, df
    j = 1
    while True:
        nt = _cauchy(ng, [k * n for k, n in enumerate(nt[1:], 1)], D, 0)
        if not any(nt):
            return acc
        dt *= dg * j
        g = math.gcd(dt, *nt)
        nt, dt = [n // g for n in nt], dt // g
        acc = _combine(*acc, nt, dt, 1)
        j += 1


def ps_norm(f: TruncatedPowerSeries, t: float) -> float:
    """Coefficient majorant sum |c_k| t^k, an upper bound for the sup over the closed disk.

    Zero coefficients form no t^k.  The sum moves to the log domain when a
    nonzero coefficient or its power t^k leaves the float range, when a
    coefficient underflows a float while its t^k overflows, and when t^k at
    the top nonzero degree is subnormal or zero, where direct terms would
    lose their digits or read 0 for a nonzero coefficient.
    """
    if f.mode == "exact":
        return _numerator_norm(*_common_denominator(f.coefficients), t)
    return _float_norm(f.coefficients, t)


def _underflows(coeffs, t: float) -> bool:
    """Whether t^k at the top nonzero degree of coeffs is below the normal floats; refuses t <= 0."""
    if t <= 0.0:
        raise ValueError("radius must be positive")
    top = next((k for k in range(len(coeffs) - 1, 0, -1) if coeffs[k]), 0)
    return t < 1.0 and t**top < sys.float_info.min


def _float_norm(coeffs, t: float) -> float:
    """ps_norm of the float coefficients coeffs[k] at degrees k."""
    if not _underflows(coeffs, t):
        try:
            return math.fsum(abs(c) * t**k for k, c in enumerate(coeffs) if c)
        except OverflowError:
            pass
    return _log_domain_norm([(k, math.log(abs(c))) for k, c in enumerate(coeffs) if c], t)


def _numerator_norm(nums: list[int], den: int, t: float) -> float:
    """ps_norm of the exact series with coefficient nums[k] / den at degree k, bit for bit.

    int / int true division is correctly rounded, as float() of the reduced
    Fraction is; the log-domain sum reads the reduced Fractions, since
    log|numerator| - log(denominator) holds for integers of any size.
    """
    if not _underflows(nums, t):
        try:
            return math.fsum(abs(n / den) * t**k for k, n in enumerate(nums) if n)
        except OverflowError:
            pass
    reduced = [(k, Fraction(n, den)) for k, n in enumerate(nums) if n]
    return _log_domain_norm([(k, math.log(abs(c.numerator)) - math.log(c.denominator)) for k, c in reduced], t)


def _log_domain_norm(log_mags: list[tuple[int, float]], t: float) -> float:
    """sum |c_k| t^k from the pairs (k, log|c_k|) of the nonzero coefficients.

    The terms log|c_k| + k log t are summed shifted by the largest one, so the
    norm saturates to inf only when it leaves the float range itself.
    """
    log_t = math.log(t)
    terms = [l + k * log_t for k, l in log_mags]
    top = max(terms)
    if top == math.inf:  # an infinite float coefficient: inf, or nan beside a nan one
        return math.fsum(terms)
    try:
        return math.exp(top + math.log(math.fsum(math.exp(x - top) for x in terms)))
    except OverflowError:
        return math.inf
