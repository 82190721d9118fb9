"""Certified estimators for sums over non-trivial zeros.

Three tools, each returning a value together with an error budget that the
verification suites check against exact sums from zero tables:

* ``bpt_sum``: the second-order partial-summation estimate for weighted
  sums over zeta ordinates, with constants A0 = 2.067, A1 = 0.059,
  A2 = 1/150 and the counting remainder ``count_remainder_R``.
* ``dirichlet_count_bound``: the N(T, chi) counting estimate for a
  character of conductor q.
* ``lehman_sum_upper``: the first-order upper bound for weighted sums
  over Dirichlet zero ordinates (both signs), valid for non-increasing
  weights.

Weights are passed as WeightSpec records carrying an analytic derivative
and the antiderivatives of phi, phi log(t/2pi) and phi/t.  The main terms
are differences F(V) - F(U) and the error terms consume |phi'(U)|
directly, so no numerical integration or differentiation is involved.
Every canonical weight is positive, decreasing and convex for t > 0, and
its value takes a float or a float64 array alike, with the same IEEE
operations on each element.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError

A0 = 2.067
A1 = 0.059
A2 = 1.0 / 150.0
TWO_PI = 2.0 * math.pi
GAMMA_1 = 14.13472  # height of the first zeta zero (lower bound)
LOW_COUNT_TWICE = (0.94873, 11.27041)  # trusted: 2 N(5/7, chi) <= [0] log q + [1]


@dataclass(frozen=True)
class WeightSpec:
    """A weight phi with its analytic derivative and three antiderivatives.

    plain, logt and over_t are antiderivatives of phi(t), phi(t) log(t/2pi)
    and phi(t)/t, named after the integrand kinds of the constants chain.
    """

    value: Callable[[float], float]
    derivative: Callable[[float], float]
    plain: Callable[[float], float]
    logt: Callable[[float], float]
    over_t: Callable[[float], float]
    name: str

    def __call__(self, t: float) -> float:
        return self.value(t)


def weight_inverse() -> WeightSpec:
    """phi(t) = 1/t."""
    return WeightSpec(lambda t: 1.0 / t, lambda t: -1.0 / (t * t),
                      plain=math.log,
                      logt=lambda t: 0.5 * math.log(t / TWO_PI) ** 2,
                      over_t=lambda t: -1.0 / t, name="1/t")


def weight_inverse_square() -> WeightSpec:
    """phi(t) = 1/t^2; its antiderivatives vanish at infinity."""
    return WeightSpec(lambda t: 1.0 / (t * t), lambda t: -2.0 / (t ** 3),
                      plain=lambda t: -1.0 / t,
                      logt=lambda t: -(math.log(t / TWO_PI) + 1.0) / t,
                      over_t=lambda t: -0.5 / (t * t), name="1/t^2")


def _li2(z: float) -> float:
    """Dilogarithm Li2(z) = sum z^k/k^2 for 0 <= z <= 0.1 (20 terms)."""
    return sum(z ** k / (k * k) for k in range(1, 21))


def _quarter_sqrt_logt(t: float) -> float:
    """u^2/2 - u log 8pi + Li2(e^(-2u))/2 with u = asinh 2t, for t >= 5/7.

    The substitution t = sinh(u)/2 turns phi(t) log(t/2pi) dt into
    (u - log 8pi + log(1 - e^(-2u))) du.
    """
    u = math.asinh(2.0 * t)
    return 0.5 * u * u - u * math.log(8.0 * math.pi) + 0.5 * _li2(math.exp(-2.0 * u))


def weight_quarter_sqrt() -> WeightSpec:
    """phi(t) = (1/4 + t^2)^(-1/2)."""
    return WeightSpec(
        lambda t: 1.0 / np.sqrt(0.25 + t * t),
        lambda t: -t * (0.25 + t * t) ** -1.5,
        plain=lambda t: math.asinh(2.0 * t),
        logt=_quarter_sqrt_logt,
        over_t=lambda t: -2.0 * math.asinh(0.5 / t), name="(1/4+t^2)^(-1/2)",
    )


@dataclass(frozen=True)
class SumEstimate:
    """Decomposed estimate: main term and total error bound.

    error_bound adds the second-order term to the boundary budget, which
    bounds |phi(V)Q(V) - phi(U)Q(U)| through the counting remainder, so
    the certified statement is |exact - main_term| <= error_bound.
    """

    main_term: float
    error_bound: float

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValidationError("the error bound must be nonnegative")


def count_remainder_R(T: float) -> float:
    """Remainder bound for the zeta zero-counting formula, T >= 2*pi.

    min{0.28 log T, 0.1038 log T + 0.2573 log log T + 9.3675} bounds
    |N(T) - (T/2pi) log(T/2pi e) - 7/8|.
    """
    if T < TWO_PI:
        raise DomainError(f"count_remainder_R requires T >= 2*pi, got {T}")
    lt = math.log(T)
    return min(0.28 * lt, 0.1038 * lt + 0.2573 * math.log(lt) + 9.3675)


def zeta_count_main(T: float) -> float:
    """Smooth term (T/2pi) log(T/2pi e) of the zeta counting formula."""
    return T / TWO_PI * math.log(T / (TWO_PI * math.e))


def bpt_sum(phi: WeightSpec, U: float, V: float) -> SumEstimate:
    """Estimate the half-weighted sum of phi over zeta ordinates in [U, V].

    main_term = (1/2pi) * integral of phi(t) log(t/2pi) over [U, V];
    the budget certifies |exact - main_term| <= error_bound.
    Requires 2*pi <= U <= V.
    """
    if U < TWO_PI:
        raise DomainError(f"bpt_sum requires U >= 2*pi, got U={U}")
    if U > V:
        raise DomainError(f"need U <= V, got U={U}, V={V}")
    main = (phi.logt(V) - phi.logt(U)) / TWO_PI
    boundary = phi(V) * count_remainder_R(V) + phi(U) * count_remainder_R(U)
    second_order = 2.0 * (A0 + A1 * math.log(U)) * abs(phi.derivative(U)) + (A1 + A2) * phi(U) / U
    return SumEstimate(main_term=main, error_bound=second_order + boundary)


def dirichlet_count_bound(q: int, T: float) -> tuple[float, float]:
    """Counting estimate for N(T, chi), conductor q >= 2 and T >= 5/7.

    Returns (main, remainder) with main = (T/pi) log(qT/2pi e) and
    remainder = 0.247 log(qT/2pi) + 6.894, so that
    |N(T, chi) - main| <= remainder for any character of conductor q.
    """
    if q < 2:
        raise DomainError(f"conductor must be >= 2, got {q}")
    if T < 5.0 / 7.0:
        raise DomainError(f"requires T >= 5/7, got {T}")
    main = T / math.pi * math.log(q * T / (TWO_PI * math.e))
    remainder = 0.247 * math.log(q * T / TWO_PI) + 6.894
    return main, remainder


def low_count_twice_bound(q: int) -> float:
    """Upper bound 0.94873 log q + 11.27041 for 2*N(5/7, chi), q >= 3."""
    if q < 3:
        raise DomainError(f"modulus must be >= 3, got {q}")
    slope, const = LOW_COUNT_TWICE
    return slope * math.log(q) + const


def lehman_sum_upper(phi: WeightSpec, U: float, V: float, q: int) -> float:
    """Upper bound for the sum of phi over Dirichlet ordinates |gamma| in [U, V].

    (log q/pi) int phi + (1/pi) int phi log(t/2pi) + 2 phi(U) R
        + 0.247 int phi/t, R the remainder of dirichlet_count_bound(q, U).

    V may be math.inf only for the canonical 1/t^2 weight, whose
    antiderivatives vanish at infinity; every other improper sum must be
    split by the caller.
    """
    if U < 5.0 / 7.0:
        raise DomainError(f"requires U >= 5/7, got U={U}")
    if q < 2:
        raise DomainError(f"modulus must be >= 2, got {q}")
    if math.isinf(V):
        if phi.name != "1/t^2":
            raise DomainError("V=inf is supported only for the 1/t^2 weight")
    elif U > V:
        raise DomainError(f"need U <= V, got U={U}, V={V}")
    i0, i1, i2 = ((0.0 if math.isinf(V) else F(V)) - F(U)
                  for F in (phi.plain, phi.logt, phi.over_t))
    return (math.log(q) / math.pi) * i0 + i1 / math.pi \
        + 2.0 * phi(U) * dirichlet_count_bound(q, U)[1] + 0.247 * i2


def tail_inverse_square(T: float) -> float:
    """Upper bound log T/(2 pi T) for the zeta tail sum of 1/gamma^2 over gamma >= T."""
    if T < GAMMA_1:
        raise DomainError(f"requires T >= {GAMMA_1}, got {T}")
    return math.log(T) / (TWO_PI * T)
