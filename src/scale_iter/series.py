"""Truncated one-variable power series with exact or float coefficients.

Series live in the quotient ring C[z]/(z^(D+1)) for a fixed truncation D.
Exact mode stores real coefficients as Fractions so golden computations are
reproducible bit for bit; its Cauchy product runs on integer numerators over
one common denominator.  Float mode stores complex doubles.  The disk norm
is the coefficient majorant sum |c_k| t^k, which dominates the true sup on
the disk of radius t.  The Lie exponential of a derivation g d/dz with
valuation(g) at least 2 terminates exactly at the truncation, which is what
makes the normal-form eliminations below golden-testable.  The exact Newton
kernel in engines keeps its own integer state and reuses the integer
helpers here; linearization_action is the two-product form in both modes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

__all__ = [
    "TruncatedPowerSeries",
    "Derivation",
    "ModeMismatchError",
    "DivisionValuationError",
    "GeneratorValuationError",
    "ps_add",
    "ps_mul",
    "ps_scale",
    "ps_derive",
    "ps_antiderive",
    "ps_divide_monomial",
    "ps_lie_exp",
    "ps_norm",
    "linearization_action",
]


class ModeMismatchError(ValueError):
    """Operands carry different scalar modes or truncations."""


class DivisionValuationError(ValueError):
    """Monomial division requested below the valuation of the series."""


class GeneratorValuationError(ValueError):
    """Lie exponential requested for a generator of valuation <= 1."""


Coeff = Union[Fraction, complex]

_F0 = Fraction(0)


def _c_scale(a: Coeff, q: Fraction, mode: str) -> Coeff:
    if mode == "exact":
        return a * q
    return a * (q.numerator / q.denominator)


def _common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators of exact coefficients over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _integral_numerators(f: "TruncatedPowerSeries") -> tuple[list[int], int]:
    """Integer numerators of integral(f) at degrees 1..D over their least common denominator.

    Degree k carries f_(k-1)/k, reduced by one small gcd instead of a Fraction
    division; the degree-D coefficient of f would land at D + 1 and is left out.
    """
    nums, dens = [], []
    for k, c in enumerate(f.coefficients[:-1], 1):
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
        z: Coeff = _F0 if mode == "exact" else 0j
        return cls(truncation, mode, tuple(z for _ in range(truncation + 1)))

    @classmethod
    def from_dict(
        cls, entries: Mapping[int, object], truncation: int, mode: str = "exact"
    ) -> "TruncatedPowerSeries":
        coeffs: list[Coeff] = list(cls.zero(truncation, mode).coefficients)
        for deg, val in entries.items():
            if not 0 <= deg <= truncation:
                raise ValueError(f"degree {deg} outside truncation {truncation}")
            coeffs[deg] = Fraction(val) if mode == "exact" else complex(val)  # type: ignore[arg-type]
        return cls(truncation, mode, tuple(coeffs))

    @classmethod
    def monomial(cls, degree: int, coefficient, truncation: int, mode: str = "exact"):
        return cls.from_dict({degree: coefficient}, truncation, mode)

    # ---- basic queries -------------------------------------------------

    @property
    def valuation(self) -> int:
        """Least degree with a nonzero coefficient; truncation + 1 for zero."""
        for k, c in enumerate(self.coefficients):
            if c:
                return k
        return self.truncation + 1

    def real_coefficient(self, k: int) -> Fraction:
        """An exact coefficient, as a Fraction."""
        if self.mode != "exact":
            raise ModeMismatchError("real_coefficient requires exact mode")
        return self.coefficients[k]

    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def to_float(self) -> "TruncatedPowerSeries":
        if self.mode == "float":
            return self
        return TruncatedPowerSeries(
            self.truncation,
            "float",
            tuple(complex(float(c)) for c in self.coefficients),
        )

    # ---- operators -----------------------------------------------------

    def __sub__(self, other):
        _check_compatible(self, other)
        return TruncatedPowerSeries(
            self.truncation,
            self.mode,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __neg__(self):
        return TruncatedPowerSeries(self.truncation, self.mode, tuple(-c for c in self.coefficients))


def _check_compatible(f: TruncatedPowerSeries, g: TruncatedPowerSeries) -> None:
    if f.mode != g.mode:
        raise ModeMismatchError(f"mode mismatch: {f.mode} vs {g.mode}")
    if f.truncation != g.truncation:
        raise ModeMismatchError(f"truncation mismatch: {f.truncation} vs {g.truncation}")


def ps_add(f: TruncatedPowerSeries, g: TruncatedPowerSeries) -> TruncatedPowerSeries:
    _check_compatible(f, g)
    return TruncatedPowerSeries(
        f.truncation,
        f.mode,
        tuple(a + b for a, b in zip(f.coefficients, g.coefficients)),
    )


def ps_mul(f: TruncatedPowerSeries, g: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Cauchy product truncated at the common degree cap.

    Exact operands are multiplied as integer numerators over their common
    denominators, so each output coefficient is reduced once.
    """
    _check_compatible(f, g)
    D, mode = f.truncation, f.mode
    if mode == "float":
        return TruncatedPowerSeries(D, mode, tuple(_cauchy(f.coefficients, g.coefficients, D, 0j)))
    nf, df = _common_denominator(f.coefficients)
    ng, dg = _common_denominator(g.coefficients)
    den = df * dg
    return TruncatedPowerSeries(D, mode, tuple(Fraction(n, den) for n in _cauchy(nf, ng, D, 0)))


def ps_scale(f: TruncatedPowerSeries, q) -> TruncatedPowerSeries:
    q = Fraction(q)
    return TruncatedPowerSeries(
        f.truncation, f.mode, tuple(_c_scale(c, q, f.mode) for c in f.coefficients)
    )


def ps_derive(f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Formal derivative; the top degree of the output is zero."""
    D, mode = f.truncation, f.mode
    out = list(TruncatedPowerSeries.zero(D, mode).coefficients)
    for k in range(1, D + 1):
        out[k - 1] = _c_scale(f.coefficients[k], Fraction(k), mode)
    return TruncatedPowerSeries(D, mode, tuple(out))


def ps_antiderive(f: TruncatedPowerSeries) -> tuple[TruncatedPowerSeries, bool]:
    """Indefinite integral with zero constant term.

    The degree-D input coefficient would land at degree D+1; it is dropped
    and the returned flag says whether anything nonzero was lost.
    """
    D, mode = f.truncation, f.mode
    zero, inverse = (_F0, Fraction) if mode == "exact" else (0j, operator.truediv)
    out = (zero, *(c * inverse(1, k) for k, c in enumerate(f.coefficients[:D], 1)))
    return TruncatedPowerSeries(D, mode, out), bool(f.coefficients[D])


def ps_divide_monomial(f: TruncatedPowerSeries, k: int) -> TruncatedPowerSeries:
    """Divide by z^k; valid only when valuation(f) >= k.

    The failure case is the division flavor of loss of regularity, so it is
    reported as its own error type.
    """
    if k < 0:
        raise ValueError("monomial power must be >= 0")
    if f.valuation < k:
        raise DivisionValuationError(
            f"valuation {f.valuation} is below the requested power {k}"
        )
    D, mode = f.truncation, f.mode
    zeros = TruncatedPowerSeries.zero(D, mode).coefficients
    return TruncatedPowerSeries(D, mode, f.coefficients[k:] + zeros[:k])


@dataclass(frozen=True)
class Derivation:
    """Vector field g(z) d/dz acting on the truncated ring."""

    generator: TruncatedPowerSeries

    def apply(self, f: TruncatedPowerSeries) -> TruncatedPowerSeries:
        return ps_mul(self.generator, ps_derive(f))


def ps_lie_exp(v: Derivation, f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Exact Lie exponential sum f + v(f) + v^2(f)/2! + ...

    Requires valuation(generator) >= 2: each application then raises the
    valuation by at least one, so the sum terminates at the truncation and
    the result is independent of any order cutoff.
    """
    g = v.generator
    _check_compatible(g, f)
    if not g.is_zero() and g.valuation < 2:
        raise GeneratorValuationError(
            f"generator valuation {g.valuation} < 2; the exponential would not terminate"
        )
    acc = f
    term = f
    j = 1
    while True:
        term = ps_scale(v.apply(term), Fraction(1, j))
        if term.is_zero():
            break
        acc = ps_add(acc, term)
        j += 1
    return acc


def linearization_action(
    eps: TruncatedPowerSeries, xi: TruncatedPowerSeries
) -> TruncatedPowerSeries:
    """Derivative of x -> x * integral(x) at eps, applied to xi.

    Acts as xi -> eps * integral(xi) + xi * integral(eps); at eps = 1 it
    sends z^k to (k+2)/(k+1) z^(k+1), which is triangular on monomials.
    """
    int_xi, _ = ps_antiderive(xi)
    int_eps, _ = ps_antiderive(eps)
    return ps_add(ps_mul(eps, int_xi), ps_mul(xi, int_eps))


def ps_norm(f: TruncatedPowerSeries, t: float) -> float:
    """Coefficient majorant sum |c_k| t^k, an upper bound for the sup over the closed disk.

    Zero coefficients form no t^k.  When a nonzero coefficient or its power
    t^k leaves the float range, the sum moves to the log domain; so does a
    coefficient that underflows a float while its t^k overflows.
    """
    if t <= 0.0:
        raise ValueError("radius must be positive")
    try:
        if f.mode == "exact":  # float first: the same value, without an abs Fraction
            return math.fsum(abs(float(c)) * t**k for k, c in enumerate(f.coefficients) if c)
        return math.fsum(abs(c) * t**k for k, c in enumerate(f.coefficients) if c)
    except OverflowError:
        if f.mode == "exact":
            return _log_domain_norm(_exact_log_magnitudes(f.coefficients), t)
        return _log_domain_norm([(k, math.log(abs(c))) for k, c in enumerate(f.coefficients) if c], t)


def _numerator_norm(nums: list[int], den: int, t: float) -> float:
    """ps_norm of the exact series with coefficient nums[k] / den at degree k, bit for bit.

    int / int true division is correctly rounded, as float() of the reduced
    Fraction is; the log-domain fallback reads the reduced Fractions.
    """
    if t <= 0.0:
        raise ValueError("radius must be positive")
    try:
        return math.fsum(abs(n / den) * t**k for k, n in enumerate(nums) if n)
    except OverflowError:
        return _log_domain_norm(_exact_log_magnitudes([Fraction(n, den) for n in nums]), t)


def _exact_log_magnitudes(coeffs: list[Fraction]) -> list[tuple[int, float]]:
    """(k, log|c_k|) of each nonzero coefficient; log|numerator| - log(denominator)
    holds for integers of any size."""
    return [(k, math.log(abs(c.numerator)) - math.log(c.denominator)) for k, c in enumerate(coeffs) if c]


def _log_domain_norm(log_mags: list[tuple[int, float]], t: float) -> float:
    """sum |c_k| t^k from the pairs (k, log|c_k|) of the nonzero coefficients.

    The terms log|c_k| + k log t are summed shifted by the largest one, so the
    norm saturates to inf only when it leaves the float range itself.
    """
    log_t = math.log(t)
    terms = [l + k * log_t for k, l in log_mags]
    top = max(terms)
    if top == math.inf:  # an infinite float coefficient
        return math.inf
    try:
        return math.exp(top + math.log(math.fsum(math.exp(x - top) for x in terms)))
    except OverflowError:
        return math.inf
