"""Adaptive Gauss-Kronrod quadrature and the special functions Ei / Li.

The integrator targets max(tol*|I|, tol) and reports a conservative error
estimate.  No program code calls it: it is the tests' independent
reference for the closed-form integrals, and a layer that the benchmark
(perfbench) traces.  Ei uses the classical power
series up to the crossover at 40 and the divergent asymptotic series
(optimally truncated) beyond it, which keeps every value well inside
double precision's 12-significant-digit requirement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError

EULER_GAMMA = 0.57721566490153286060651209008240243

# 15-point Kronrod nodes (absolute values) with the embedded 7-point Gauss
# rule on the odd-indexed nodes; standard QUADPACK constants.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass(frozen=True)
class QuadResult:
    """Value of a definite integral with a conservative absolute error bound."""

    value: float
    abs_error_estimate: float


def _eval(f: Callable[[float], float], t: float) -> float:
    try:
        v = f(t)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainError(f"integrand failed at t={t!r}: {exc}") from exc
    if not math.isfinite(v):
        raise DomainError(f"integrand is not finite at t={t!r}")
    return v


def _gauss_kronrod(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One G7/K15 panel on [a, b]; returns (kronrod value, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = _eval(f, mid)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        f1 = _eval(f, mid - dx)
        f2 = _eval(f, mid + dx)
        kron += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            gauss += _WG[i // 2] * (f1 + f2)
    kron *= half
    gauss *= half
    return kron, abs(kron - gauss)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
    max_intervals: int = 4000,
) -> QuadResult:
    """Integrate f over [a, b] to absolute-or-relative tolerance tol.

    Bisects the panel with the largest error estimate until the summed
    estimate falls below max(tol*|value|, tol).  Raises DomainError on
    invalid limits or non-finite integrand values, and ConvergenceError
    (carrying the best estimate) if the subdivision budget runs out.
    """
    if not (tol > 0.0):
        raise DomainError("tol must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if a > b:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return QuadResult(0.0, 0.0)

    val, err = _gauss_kronrod(f, a, b)
    panels = [(err, a, b, val)]
    total_val, total_err = val, err
    while total_err > max(tol * abs(total_val), tol):
        if len(panels) >= max_intervals:
            raise ConvergenceError(
                f"no convergence after {max_intervals} panels "
                f"(error estimate {total_err:.3e})",
                best_value=total_val,
                error_estimate=total_err,
            )
        panels.sort(key=lambda p: p[0])
        _, pa, pb, pv = panels.pop()
        pm = 0.5 * (pa + pb)
        v1, e1 = _gauss_kronrod(f, pa, pm)
        v2, e2 = _gauss_kronrod(f, pm, pb)
        panels.append((e1, pa, pm, v1))
        panels.append((e2, pm, pb, v2))
        total_val = math.fsum(p[3] for p in panels)
        total_err = math.fsum(p[0] for p in panels)
    return QuadResult(total_val, total_err)


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for x > 0.

    Power series gamma + ln x + sum x^k/(k*k!) below the crossover at 40,
    optimally truncated asymptotic series e^x/x * sum k!/x^k above it.
    """
    if not (x > 0.0):
        raise DomainError(f"Ei requires x > 0, got {x}")
    if x <= 40.0:
        s = 0.0
        term = 1.0
        k = 0
        while True:
            k += 1
            term *= x / k
            add = term / k
            s += add
            if abs(add) <= 1e-17 * abs(s) or k > 600:
                break
        return EULER_GAMMA + math.log(x) + s
    s = 1.0
    term = 1.0
    for k in range(1, 200):
        nxt = term * k / x
        if abs(nxt) >= abs(term):
            break
        term = nxt
        s += term
        if abs(term) <= 1e-18 * abs(s):
            break
    return math.exp(x) / x * s


def log_integral_li(x: float) -> float:
    """Logarithmic integral Li(x) = integral of dt/log t from 2 to x, x >= 2."""
    if not (x >= 2.0):
        raise DomainError(f"Li requires x >= 2, got {x}")
    if x == 2.0:
        return 0.0
    return exp_integral_ei(math.log(x)) - exp_integral_ei(math.log(2.0))
