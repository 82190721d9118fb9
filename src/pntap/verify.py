"""Verification suites binding the constants pipeline to ground truth.

Every suite produces a BoundReport: a list of samples (x, q, a, lhs, rhs,
margin) with a violation count.  A passing report has zero violations;
samples whose right-hand side is non-positive are marked skipped, not
violated, and the skip count is the number of samples so marked, so vacuous
checks remain visible.  All suites are deterministic for fixed inputs
(randomized ranges come from a fixed seed).
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import ResidueCounter, _unit_class, euler_phi, psi1_plain, \
    short_interval_psi_delta
from .constants import APConstants, ShortIntervalConstants, evaluate_bounds, \
    gm_baseline_pi_bound
from .errors import CoverageError, DomainError
from .quadrature import log_integral_li
from .zeros import ZeroTable, exact_weighted_sum
from .zerosum import GAMMA_1, WeightSpec, bpt_sum, count_remainder_R, \
    lehman_sum_upper, tail_inverse_square, weight_inverse, weight_inverse_square, \
    weight_quarter_sqrt, zeta_count_main

DEFAULT_SEED = 20260808
TWO_PI = 2.0 * math.pi

RESIDUAL_LOW = 1.545
RESIDUAL_HIGH = 2.069


@dataclass(frozen=True)
class BoundSample:
    x: float
    q: int
    a: int
    lhs: float
    rhs: float
    margin: float
    what: str
    skipped: bool


@dataclass
class BoundReport:
    """Outcome of one verification suite."""

    check_name: str
    samples: list[BoundSample] = field(init=False, default_factory=list)
    violations: int = field(init=False, default=0)
    runtime: float = field(init=False, default=0.0)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def skipped(self) -> int:
        return sum(s.skipped for s in self.samples)

    def add(self, x, q, a, lhs, rhs, what, skip_nonpositive_rhs=False):
        skipped = skip_nonpositive_rhs and rhs <= 0.0
        margin = rhs - lhs
        self.samples.append(BoundSample(x, q, a, lhs, rhs, margin, what, skipped))
        if margin < 0.0 and not skipped:
            self.violations += 1

    def to_json(self) -> str:
        return json.dumps({
            "check_name": self.check_name,
            "violations": self.violations,
            "skipped": self.skipped,
            "runtime": self.runtime,
            "passed": self.passed,
            "samples": [vars(s) for s in self.samples],  # fields in order; no deep copy
        }, indent=2)

    def to_markdown(self) -> str:
        lines = [
            f"## {self.check_name}",
            "",
            f"- samples: {len(self.samples)}  violations: {self.violations}  "
            f"skipped: {self.skipped}  runtime: {self.runtime:.2f}s  "
            f"result: {'PASS' if self.passed else 'FAIL'}",
            "",
            "| x | q | a | what | lhs | rhs | margin |",
            "|---|---|---|------|-----|-----|--------|",
        ]
        for s in self.samples:
            tag = " (skipped)" if s.skipped else ""
            lines.append(
                f"| {s.x:g} | {s.q} | {s.a} | {s.what}{tag} | "
                f"{s.lhs:.6g} | {s.rhs:.6g} | {s.margin:.6g} |"
            )
        return "\n".join(lines)


def _seeded_sums(zeros: ZeroTable, lo: float, hi: float,
                 n_ranges: int) -> Iterator[tuple[WeightSpec, float, float, float]]:
    """(weight, U, V, exact sum over the table) for each canonical weight
    (1/t, 1/t^2, (1/4+t^2)^(-1/2)) and each of n_ranges ranges (U, V)
    drawn from DEFAULT_SEED inside [lo, hi]."""
    rng = np.random.default_rng(DEFAULT_SEED)
    pairs = np.sort(rng.uniform(lo, hi, size=(n_ranges, 2)), axis=1)
    for phi in (weight_inverse(), weight_inverse_square(), weight_quarter_sqrt()):
        for U, V in pairs.tolist():
            yield phi, U, V, exact_weighted_sum(zeros, phi.value, U, V)


def verify_bpt(zeros: ZeroTable) -> BoundReport:
    """Check the second-order zero-sum estimate against exact sums.

    For each canonical weight (1/t, 1/t^2, (1/4+t^2)^(-1/2)) and range
    (U, V): lhs = |exact - main term|, rhs = the certified budget.  The
    50 ranges are drawn from DEFAULT_SEED inside [2 pi, 1000], so the
    table must reach 1000.
    """
    if zeros.kind != "zeta":
        raise DomainError("verify_bpt needs a zeta table")
    top = 1000.0
    if zeros.max_height < top:
        raise CoverageError(f"table height {zeros.max_height} is below {top:g}, "
                            f"the top of the sampled ranges")
    t0 = time.perf_counter()
    report = BoundReport("bpt_zero_sum")
    for phi, U, V, exact in _seeded_sums(zeros, TWO_PI, top, 50):
        est = bpt_sum(phi, U, V)
        report.add(U, 0, 0, abs(exact - est.main_term), est.error_bound,
                   what=f"{phi.name} on [{U:.2f},{V:.2f}]")
    report.runtime = time.perf_counter() - t0
    return report


def verify_zero_count(zeros: ZeroTable) -> BoundReport:
    """Check |N(T) - smooth term - 7/8| <= counting remainder on a T-grid.

    The grid holds 200 evenly spaced heights from 2 pi + 0.1 to the
    table's max_height.
    """
    if zeros.kind != "zeta":
        raise DomainError("verify_zero_count needs a zeta table")
    if zeros.max_height < TWO_PI + 0.1:
        raise CoverageError(f"table height {zeros.max_height} is below "
                            f"2 pi + 0.1 = {TWO_PI + 0.1:.6f}, where the grid starts")
    t0 = time.perf_counter()
    report = BoundReport("zero_count_remainder")
    grid = np.linspace(TWO_PI + 0.1, zeros.max_height, 200)
    counts = np.searchsorted(zeros.ordinates, grid, side="right")
    for T, n_data in zip(grid.tolist(), counts.tolist()):
        lhs = abs(n_data - zeta_count_main(T) - 7.0 / 8.0)
        report.add(T, 0, 0, lhs, count_remainder_R(T), what="N(T)")
    report.runtime = time.perf_counter() - t0
    return report


def verify_psi1_explicit(zeros: ZeroTable, xs: Sequence[float],
                         t_trunc: Optional[float]) -> BoundReport:
    """Check the residual of the weighted prime-power sum against its
    explicit formula, truncated at height t_trunc (None: at min(1e4, the
    table's height)).

    residual(x) = psi1(x) - x^2/2 + (truncated zero sum) + x log 2pi must
    lie in (1.545 - tau, 2.069 + tau) with tau twice the tail bound times
    x^(3/2) (conjugate pairs).
    """
    if zeros.kind != "zeta":
        raise DomainError("verify_psi1_explicit needs a zeta table")
    if len(xs) == 0:  # a suite over no x would pass on no sample
        raise DomainError("need at least one evaluation point")
    if t_trunc is None:
        if zeros.max_height < GAMMA_1:
            raise CoverageError(f"table height {zeros.max_height} is below GAMMA_1 = {GAMMA_1}")
        t_trunc = min(1e4, zeros.max_height)
    if not t_trunc >= GAMMA_1:
        raise DomainError(f"truncation height must be >= {GAMMA_1}, got {t_trunc!r}")
    if zeros.max_height < t_trunc:
        raise CoverageError("zero table does not reach the truncation height")
    t0 = time.perf_counter()
    report = BoundReport("psi1_explicit_formula")
    gs = zeros.ordinates[zeros.ordinates <= t_trunc]
    rho = 0.5 + 1j * gs
    denom = rho * (rho + 1.0)
    for x in xs:
        zero_sum = 2.0 * float(np.sum((x ** (rho + 1.0) / denom).real))
        residual = psi1_plain(x) - x * x / 2.0 + zero_sum + x * math.log(TWO_PI)
        tau = 2.0 * x ** 1.5 * tail_inverse_square(t_trunc)
        center = 0.5 * (RESIDUAL_LOW + RESIDUAL_HIGH)
        half = 0.5 * (RESIDUAL_HIGH - RESIDUAL_LOW) + tau
        report.add(x, 0, 0, abs(residual - center), half,
                   what=f"residual={residual:.4f}, tau={tau:.3g}")
    report.runtime = time.perf_counter() - t0
    return report


def verify_short_interval(si: ShortIntervalConstants, xs: Sequence[float]) -> BoundReport:
    """Check |psi(x + sqrt(x) log x) - psi(x) - sqrt(x) log x| against its
    bound; samples with non-positive right side are skipped, not failed."""
    if len(xs) == 0:  # a suite over no x would pass on no sample
        raise DomainError("need at least one evaluation point")
    t0 = time.perf_counter()
    report = BoundReport("short_interval_psi")
    x0 = math.exp(si.log_x0)
    for x in xs:
        if x < x0 * (1 - 1e-12):
            raise DomainError(f"x={x} below the record's x0")
        lhs = abs(short_interval_psi_delta(x))
        rhs = si.k3 * math.sqrt(x) * math.log(x) - si.k4
        report.add(x, 0, 0, lhs, rhs, what="short interval", skip_nonpositive_rhs=True)
    report.runtime = time.perf_counter() - t0
    return report


def verify_ap_bounds(ap: APConstants, q: int, a: int, xs: Sequence[float]) -> BoundReport:
    """Check the three progression inequalities (pi, theta, psi) at each x.

    One sieve pass serves all xs; right-hand sides come from
    evaluate_bounds, main terms from Li(x)/phi(q) and x/phi(q).
    """
    q, a = _unit_class(q, a)
    t0 = time.perf_counter()
    report = BoundReport(f"ap_bounds_q{q}_a{a}")
    xs = sorted(xs)
    snapshots = ResidueCounter(q).counts_at_multi(xs)[q]
    phi_q = euler_phi(q)
    r = a % q
    for x, (pi_q, th_q, ps_q) in zip(xs, snapshots):
        li = log_integral_li(x)
        report.add(x, q, a, abs(pi_q[r] - li / phi_q),
                   evaluate_bounds("pi_ap", x, q, ap), what="pi",
                   skip_nonpositive_rhs=True)
        report.add(x, q, a, abs(th_q[r] - x / phi_q),
                   evaluate_bounds("theta_ap", x, q, ap), what="theta",
                   skip_nonpositive_rhs=True)
        report.add(x, q, a, abs(ps_q[r] - x / phi_q),
                   evaluate_bounds("psi_ap", x, q, ap), what="psi",
                   skip_nonpositive_rhs=True)
    report.runtime = time.perf_counter() - t0
    return report


def verify_lehman(zeros: ZeroTable) -> BoundReport:
    """Check the first-order Dirichlet zero-sum upper bound against exact
    sums from a Dirichlet zero table (runs only when such data exists), on
    25 ranges drawn from DEFAULT_SEED inside [5/7, table height]."""
    if zeros.kind != "dirichlet" or zeros.label is None:
        raise DomainError("verify_lehman needs a labelled dirichlet table")
    t0 = time.perf_counter()
    q = zeros.label.q
    report = BoundReport(f"lehman_zero_sum_q{q}")
    top = zeros.max_height
    if top <= 1.0:
        raise CoverageError("table too short")
    for phi, U, V, exact in _seeded_sums(zeros, 5.0 / 7.0, top, 25):
        report.add(U, q, 0, exact, lehman_sum_upper(phi, U, V, q),
                   what=f"{phi.name} on [{U:.2f},{V:.2f}]")
    report.runtime = time.perf_counter() - t0
    return report


def compare_gm_baseline(ap: APConstants, q: int, xs: Sequence[float]) -> BoundReport:
    """Record our pi-bound right side against the cyclotomic baseline.

    Comparison only: margin > 0 means our bound is smaller (better) at
    that x.  Nothing is counted as a violation; a sample where our bound
    is non-positive bounds nothing and is skipped, not compared.
    """
    if len(xs) == 0:  # a suite over no x would pass on no sample
        raise DomainError("need at least one evaluation point")
    t0 = time.perf_counter()
    report = BoundReport(f"gm_baseline_q{q}")
    for x in xs:
        ours = evaluate_bounds("pi_ap", x, q, ap)
        baseline = gm_baseline_pi_bound(x, q)
        report.samples.append(BoundSample(
            x, q, 0, ours, baseline, baseline - ours, what="pi rhs vs baseline",
            skipped=ours <= 0.0))
    report.runtime = time.perf_counter() - t0
    return report
