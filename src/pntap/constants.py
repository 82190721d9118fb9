"""The constants pipeline.

Produces every record in the chain

    zero-sum constants (k1, k2, or the small-moduli k1~, k2~)
      -> short-interval constants (k3, k4 at tuning parameters kappa)
        -> twisted Chebyshev constants (k5, k6, Omega0..Omega2)
          -> progression constants (Omega3..Omega7 and the a-vector),

together with right-hand-side evaluators for every bound the chain yields
and the cyclotomic baseline comparator.  ``chain`` builds one row of it,
general or small-moduli, and is the one place the records are wired
together.

Off the reference grid, kappa comes from ``optimize_kappa``, a compass
search on the closed-form ``k3_value`` (Kolda, Lewis and Torczon,
"Optimization by direct search", SIAM Review 45, 2003).

Reference-table compatibility
-----------------------------
The three definite integrals over [lower, eta] feeding the zero-sum
constants k1, k2 and their small-moduli versions (``_zero_sum``) are
evaluated with mpmath's default tanh-sinh quadrature pinned to 15
significant digits (``_reference_quad``), the one shim in the chain.  On
the enormous ranges that arise for log x0 >~ 90 that scheme stops
converging and saturates; the bundled reference tables were produced
exactly this way, so the scheme is kept bit-for-bit to make table
reproduction mechanical.  Treat the large-x0 rows as reference values tied
to this quadrature, not as independently certified bounds.  The
short-interval integral in k4 takes the closed form
``weight_quarter_sqrt().logt`` instead.

The default grid (``LOG_X0_GRID``) asks for 29 intervals, whose values
``_GRID_QUAD`` holds as float literals: the bits the quadrature gives
them under mpmath 1.3, which the tests derive afresh.  Every other
interval is integrated live by ``_live_quad``, so the chain imports
mpmath only for off-grid rows.  The chain asks for the same integrals
many times (every table section rebuilds it, and the small-moduli chain
shares its sigma6 anchor across rows), so ``_live_quad`` is memoised per
interval ``(a, b)`` and ``optimize_kappa`` per ``log_x0``, each keeping
up to 1024 results within a process.  The 15-digit pin sits inside the
memoised function, so a cached value is the value a fresh evaluation
gives, whatever the global mpmath precision.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from .arith import _modulus, prime_factors
from .errors import DomainError, ValidationError
from .quadrature import exp_integral_ei
from .zerosum import GAMMA_1, count_remainder_R, weight_quarter_sqrt
from .zeros import OMEGA_DEFAULT

PI = math.pi
TWO_PI = 2.0 * math.pi
LOG2 = math.log(2.0)
KAPPA2_FLOOR = 1.74663
SMALL_LOG_X0_MIN = math.log(1.05e7)
# the largest log x0 whose x0 = exp(log x0) is still a finite float
LOG_X0_MAX = math.log(sys.float_info.max)

# Reference tuning parameters (kappa0, kappa1, kappa2) per log x0.  These
# are regression anchors: evaluating the short-interval constants at a row
# must reproduce that row, and the optimizer is gated never to do worse.
REFERENCE_KAPPA = {
    10.0: (0.05989, 18.81137, 1.74663),
    20.0: (0.0457, 37.77813, 1.74663),
    30.0: (0.03579, 52.1484, 1.86645),
    40.0: (0.03167, 63.91776, 1.74663),
    50.0: (0.02886, 74.8239, 2.15968),
    60.0: (0.02683, 85.00441, 2.28091),
    70.0: (0.02519, 94.2064, 2.37349),
    80.0: (0.02405, 102.33995, 2.46139),
    90.0: (0.02297, 111.44257, 2.56007),
    100.0: (0.02212, 120.2197, 2.65929),
    150.0: (0.01895, 157.01747, 2.97554),
    200.0: (0.01717, 189.4314, 3.2531),
    250.0: (0.01566, 222.13937, 3.47886),
    500.0: (0.01254, 347.59407, 4.35967),
}

# default log-x0 grid of the table commands: the reference rows and log(1.05e7)
LOG_X0_GRID = tuple(sorted({*REFERENCE_KAPPA, SMALL_LOG_X0_MIN}))

# the quadrature memo holds off-grid intervals only (the default grid's are
# frozen in _GRID_QUAD); the bound leaves room for many off-grid rows and
# caps the memory of long-lived callers
_CACHE_SIZE = 1024


def _require_log_x0(log_x0: float) -> None:
    """DomainError unless 10 <= log x0 <= LOG_X0_MAX (so not NaN or inf)."""
    if not (math.isfinite(log_x0) and log_x0 <= LOG_X0_MAX):
        raise DomainError(
            f"log x0 must be finite and at most {LOG_X0_MAX:.2f}, got {log_x0}")
    if log_x0 < 10.0:
        raise DomainError(f"requires log x0 >= 10, got {log_x0}")


# (plain, logt, over_t) over [lower, eta] for each interval the default grid
# asks for: lower = 5/7 on every row of LOG_X0_GRID and lower = 200 from
# log(1.05e7) up, with eta = splitting_height(log x0) bit for bit (where exp
# rounds eta otherwise, the key misses and the interval is integrated live).
# The values are _live_quad's bits under mpmath 1.3; from log x0 = 150 on
# both lowers give the same saturated values.
_GRID_QUAD = {
    (0.7142857142857143, 14.84131591025766):  # log x0 = 10
        (2.9295155027551676, -1.8230028743941986, 1.2379664015982987),
    (0.7142857142857143, 200.43256235358803):  # log x0 = log(1.05e7)
        (5.53229636544778, 3.8020170747573645, 1.3003439280599245),
    (0.7142857142857143, 1101.323289740336):  # log x0 = 20
        (7.236084744857668, 11.153005359592754, 1.3044251336006538),
    (0.7142857142857143, 108967.24574907035):  # log x0 = 30
        (11.830619585225921, 45.44504265675257, 1.3053239550950844),
    (0.7142857142857143, 12129129.885244757):  # log x0 = 40
        (16.542937512767917, 102.54459724966298, 1.3053330497172106),
    (0.7142857142857143, 1440097986.7477176):  # log x0 = 50
        (21.319793961339503, 183.09038246392473, 1.305333131309078),
    (0.7142857142857143, 178107909692.07437):  # log x0 = 60
        (26.137472390420818, 287.436186739175, 1.3053331122218312),
    (0.7142857142857143, 22657335033049.01):  # log x0 = 70
        (30.983319915706364, 415.80614591758837, 1.305330599643057),
    (0.7142857142857143, 2942315835462750.0):  # log x0 = 80
        (35.84955505918307, 568.3551733512995, 1.3050037917298367),
    (0.7142857142857143, 3.8815856730538995e+17):  # log x0 = 90
        (40.70134431702083, 745.260563332835, 1.2631692034522826),
    (0.7142857142857143, 5.184705528587072e+19):  # log x0 = 100
        (43.91363818177519, 948.5527077198924, 0.22445402883132712),
    (0.7142857142857143, 2.488827997866001e+30):  # log x0 = 150
        (44.090638590445444, 2032.8701669885252, 5.543330984458113e-12),
    (0.7142857142857143, 1.3440585709080679e+41):  # log x0 = 200
        (44.090529805128874, 3122.446646702183, 2.787475676247103e-23),
    (0.7142857142857143, 7.74230416814289e+51):  # log x0 = 250
        (44.090667134886104, 4214.881561221076, 4.839005315197249e-34),
    (0.7142857142857143, 7.492909229005347e+105):  # log x0 = 500
        (44.09056749811047, 9695.633964939769, 5.0001151430041424e-88),
    (200.0, 200.43256235358803):  # log x0 = log(1.05e7)
        (0.002160469520583777, 0.00747850961780677, 1.0790686894205256e-05),
    (200.0, 1101.323289740336):  # log x0 = 20
        (1.705948848930471, 7.3584667944531965, 0.004091996227623692),
    (200.0, 108967.24574907035):  # log x0 = 30
        (6.3004836892987335, 41.65050409161299, 0.004990817722066292),
    (200.0, 12129129.885244757):  # log x0 = 40
        (11.012801616841683, 98.75005868452129, 0.004999912345536389),
    (200.0, 1440097986.7477176):  # log x0 = 50
        (15.789658065526977, 179.295843898533, 0.004999994097281613),
    (200.0, 178107909692.07437):  # log x0 = 60
        (20.60733650867146, 283.64164814285687, 0.004999994785756409),
    (200.0, 22657335033049.01):  # log x0 = 70
        (25.453185821011193, 412.01160339162493, 0.004999994752161787),
    (200.0, 2942315835462750.0):  # log x0 = 80
        (30.319653410935405, 564.5601197102615, 0.004999989665164298),
    (200.0, 3.8815856730538995e+17):  # log x0 = 90
        (35.20173619026974, 741.3994358112169, 0.004999318778999792),
    (200.0, 5.184705528587072e+19):  # log x0 = 100
        (40.078597742274304, 942.5545946434349, 0.004911199883933225),
    (200.0, 2.488827997866001e+30):  # log x0 = 150
        (44.090638590445444, 2032.8701669885252, 5.543330984458113e-12),
    (200.0, 1.3440585709080679e+41):  # log x0 = 200
        (44.090529805128874, 3122.446646702183, 2.787475676247103e-23),
    (200.0, 7.74230416814289e+51):  # log x0 = 250
        (44.090667134886104, 4214.881561221076, 4.839005315197249e-34),
    (200.0, 7.492909229005347e+105):  # log x0 = 500
        (44.09056749811047, 9695.633964939769, 5.0001151430041424e-88),
}


def _reference_quad(a: float, b: float) -> tuple[float, float, float]:
    """Tanh-sinh quadrature at 15 digits; the table-compatibility scheme.

    Returns the integrals over [a, b] (0 < a < b) of the three integrands
    of the zero-sum chain, with w(t) = (1/4+t^2)^(-1/2):
    (plain, logt, over_t) = (w(t), log(t/2pi) w(t), w(t)/t).  The default
    grid's intervals come from ``_GRID_QUAD``, keyed by the exact floats
    ``_zero_sum`` passes, so a platform whose exp rounds eta differently
    misses the table and integrates live; every other interval is
    integrated by ``_live_quad``.
    """
    frozen = _GRID_QUAD.get((a, b))
    return frozen if frozen is not None else _live_quad(a, b)


@lru_cache(maxsize=_CACHE_SIZE)
def _live_quad(a: float, b: float) -> tuple[float, float, float]:
    """``_reference_quad``'s integrals over [a, b], by replaying mp.quad.

    Each value is bit for bit ``float(mp.quad(f, [a, b]))`` under
    ``mp.workdps(15)``, by the same steps (Borwein, Bailey and Girgensohn,
    *Experimentation in Mathematics*, 2003, pp. 312-313):

    * the standard nodes of each degree come from mpmath's node cache, and
      are moved to [a, b] as D + C x with weight C w, at 20 guard bits;
    * degrees run from 1 to guess_degree(53) = 6, each level summed as
      ``TanhSinh.sum_next`` does (previous/(2h) plus an exact dot product);
    * each integrand stops on its own ``estimate_error`` <= eps/8.

    The integrands are evaluated with the libmp operations mp.quad's
    lambdas call, at the same precision, sharing sqrt(1/4 + t^2).  Unlike
    mp.quad, the pass leaves mpmath's per-interval node caches alone.
    Memoised per (a, b); the precision pin makes the key determine the value.
    """
    import mpmath as mp
    from mpmath import libmp

    ctx = mp.mp
    rule = ctx._tanh_sinh  # the rule mp.quad uses
    rnd = libmp.round_nearest
    add, mul, div, shift = libmp.mpf_add, libmp.mpf_mul, libmp.mpf_div, libmp.mpf_shift
    with mp.workdps(15):
        prec = ctx.prec
        eps = ctx.eps / 8
    wp = prec + 20
    one = libmp.fone
    quarter = shift(one, -2)
    two_pi = shift(libmp.mpf_pi(wp, rnd), 1)
    fa, fb = libmp.from_float(a), libmp.from_float(b)
    C = shift(libmp.mpf_sub(fb, fa, wp, rnd), -1)
    D = shift(add(fb, fa, wp, rnd), -1)
    integrands = (
        lambda t, s: div(one, s, wp, rnd),
        lambda t, s: div(libmp.mpf_log(div(t, two_pi, wp, rnd), wp, rnd), s, wp, rnd),
        lambda t, s: div(one, mul(t, s, wp, rnd), wp, rnd),
    )
    results = ([], [], [])
    live = [0, 1, 2]
    with mp.workprec(wp):
        for degree in range(1, rule.guess_degree(prec) + 1):
            nodes = rule.standard_cache.get((degree, prec))
            if nodes is None:
                nodes = rule.standard_cache[degree, prec] = rule.calc_nodes(degree, prec)
            terms = ([], [], [])
            for x, w in nodes:
                t = add(D, mul(C, x._mpf_, wp, rnd), wp, rnd)
                wt = mul(C, w._mpf_, wp, rnd)
                s = libmp.mpf_sqrt(add(quarter, mul(t, t, wp, rnd), wp, rnd), wp, rnd)
                for k in live:
                    terms[k].append(mul(wt, integrands[k](t, s)))
            for k in tuple(live):
                levels = results[k]
                S = shift(levels[-1], degree - 1) if levels else libmp.fzero
                S = add(S, libmp.mpf_sum(terms[k], wp, rnd), wp, rnd)
                levels.append(shift(S, -degree))
                if degree > 1 and rule.estimate_error(
                        [ctx.make_mpf(v) for v in levels], prec, eps) <= eps:
                    live.remove(k)
            if not live:
                break
    return tuple(libmp.to_float(libmp.mpf_pos(levels[-1], prec, rnd)) for levels in results)


def splitting_height(log_x0: float) -> float:
    """The low/high splitting height sqrt(x0)/log(x0) used by every zero sum."""
    return math.exp(0.5 * log_x0) / log_x0


# ---------------------------------------------------------------------------
# zero-sum constants (k1, k2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SozConstants:
    """Constants bounding the smoothed sum over Dirichlet L zeros.

    The bound has shape (log x/8pi + log q/2pi + k1) sqrt(x) log x
    + k2 sqrt(x) log q for x >= x0.  A record holds one zero sum: the
    general one, or with small_moduli the refinement for moduli up to 10^4
    and x0 >= 1.05e7, whose k1, k2 (the tables' k1~, k2~) rest on the
    exactly computed low-zero sum omega that soz_constants_small takes.
    """

    log_x0: float
    nu1: float
    nu2: float
    nu3: float
    nu4: float
    f1: float
    f2: float
    f3: float
    k1: float
    k2: float
    small_moduli: bool = False

    def __post_init__(self):
        if self.nu1 <= 0:
            raise ValidationError("nu1 must be positive")
        if self.log_x0 >= 10.0:
            if self.f1 > 1.0 / (8 * PI) + 1e-15:
                raise ValidationError("f1 exceeds its 1/(8 pi) cap")
            if self.f2 > 1.0 / (2 * PI) + 1e-15:
                raise ValidationError("f2 exceeds its 1/(2 pi) cap")


def _zero_sum(log_x0: float, lower: float, log_term: float,
              low_log_q: float, low_const: float) -> SozConstants:
    """The zero-sum record over the zeros above height lower, for either chain.

    low_log_q log q + low_const bounds the sum over the zeros below lower.
    log_term is the logarithm in the boundary term 2 (0.247 log_term +
    6.894) w0 at t = lower.  The reference tables pin the small chain's
    log(1/(400 pi)), not the log(lower/2 pi) the general chain takes.
    """
    eta = splitting_height(log_x0)
    sx = math.exp(0.5 * log_x0)
    w0 = 1.0 / math.sqrt(0.25 + lower * lower)
    plain, logt, over_t = _reference_quad(lower, eta)
    nu1 = 0.494 * w0 + plain / PI
    nu2 = logt / PI + 2.0 * (0.247 * log_term + 6.894) * w0 + 0.247 * over_t
    nu3 = 0.494 / eta - math.log(eta) / PI
    nu4 = (math.log(TWO_PI)) ** 2 / TWO_PI - (math.log(eta / TWO_PI)) ** 2 / TWO_PI \
        + 2.0 * (6.894 - 0.247 * math.log(TWO_PI * eta)) / eta + 0.247 / eta
    e = log_x0 / sx
    fac12 = math.sqrt(1.0 + e)
    fac32 = (1.0 + e) ** 1.5 + 1.0
    llx = math.log(log_x0)
    f1 = fac12 * (1.0 / (8 * PI) - llx / (TWO_PI * log_x0) + (llx / log_x0) ** 2 / TWO_PI)
    f2 = fac12 * (1.0 / TWO_PI - llx / (PI * log_x0))
    f3 = fac12 * (0.5850 * llx / log_x0 - 0.2925) \
        + fac32 * (1.0 / TWO_PI + (0.247 * log_x0 + 13.0034) / sx)
    k2 = fac32 * (1.0 / PI + 0.494 * log_x0 / sx) + nu1 + nu3 + low_log_q
    f5 = (nu2 + nu4 + low_const) * fac12 - 0.5334
    return SozConstants(
        log_x0=log_x0, nu1=nu1, nu2=nu2, nu3=nu3, nu4=nu4,
        f1=f1, f2=f2, f3=f3, k1=f3 + f5 / log_x0, k2=k2,
    )


def soz_constants(log_x0: float) -> SozConstants:
    """Zero-sum constants k1(x0), k2(x0) for general moduli, log x0 >= 10."""
    _require_log_x0(log_x0)
    lower = 5.0 / 7.0
    return _zero_sum(log_x0, lower, math.log(lower / TWO_PI), 0.94873, 11.27041)


def soz_constants_small(log_x0: float, omega: float = OMEGA_DEFAULT) -> SozConstants:
    """Zero-sum constants k1~(x0), k2~(x0) for moduli up to 10^4.

    The zeros from height 200 up, the ones below summed exactly into omega,
    the maximal low-zero sum (recompute via zeros.omega_low_sum when zero
    data is available).  Requires log x0 >= log(1.05e7) so the splitting
    height clears 200.
    """
    if log_x0 < SMALL_LOG_X0_MIN:
        raise DomainError(
            f"requires log x0 >= log(1.05e7) = {SMALL_LOG_X0_MIN:.6f}, got {log_x0}"
        )
    if not (math.isfinite(omega) and omega > 0):
        raise DomainError(f"omega must be finite and positive, got {omega}")
    _require_log_x0(log_x0)
    tilde = _zero_sum(log_x0, 200.0, math.log(1.0 / (400.0 * PI)), 0.0, omega)
    return replace(tilde, small_moduli=True)


# ---------------------------------------------------------------------------
# short-interval constants (k3, k4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KappaParams:
    """Tuning parameters of the short-interval zero-sum split.

    The canonical reduction sets kappa2 = max(1.74663, kappa0*kappa1); use
    ``KappaParams.reduced``.  Direct construction accepts any kappa2 at or
    above the floor so the reference tuning rows (one of which dips below
    kappa0*kappa1) can be evaluated verbatim.
    """

    kappa0: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not (0.0 < self.kappa0 < 1.0):
            raise ValidationError(f"need 0 < kappa0 < 1, got {self.kappa0}")
        if self.kappa1 <= 0.0:
            raise ValidationError(f"need kappa1 > 0, got {self.kappa1}")
        if self.kappa2 < KAPPA2_FLOOR - 1e-9:
            raise ValidationError(f"need kappa2 >= {KAPPA2_FLOOR}, got {self.kappa2}")

    @classmethod
    def reduced(cls, kappa0: float, kappa1: float) -> "KappaParams":
        return cls(kappa0, kappa1, max(KAPPA2_FLOOR, kappa0 * kappa1))


@dataclass(frozen=True)
class ShortIntervalConstants:
    """Constants in |psi(x + sqrt(x) log x) - psi(x) - sqrt(x) log x|
    < k3 sqrt(x) log x - k4 for x >= x0, with k3 = ell5 + ell7 and
    k4 = ell1 - ell4 computed from the stored ell terms."""

    log_x0: float
    kappa: KappaParams
    ell1: float
    ell2: float
    ell4: float
    ell5: float
    ell7: float

    @property
    def k3(self) -> float:
        return self.ell5 + self.ell7

    @property
    def k4(self) -> float:
        return self.ell1 - self.ell4

    def __post_init__(self):
        if self.k3 <= 0:
            raise ValidationError("k3 must be positive")


ALPHA_1 = 1.0 + 1.93378e-8
ALPHA_2 = 2.69
BETA_1 = math.sqrt(3.0) * ALPHA_1 - 0.999
BETA_2 = 3.0 ** (1.0 / 3.0) * ALPHA_2 - 2.0 / 3.0


def _k3_terms(log_x0: float, kappa0: float, kappa1: float, kappa2: float):
    """The split and the pieces of k3: (kappa1 eta, ell2, ell5, ell7).

    DomainError outside the admissibility rule (see short_interval_constants).
    Each x-dependent factor is taken at its worst case x = x0 (each ratio
    against sqrt(x) log x decreases in x on the admissible range).
    """
    sx = math.exp(0.5 * log_x0)
    eta = splitting_height(log_x0)
    k1e, tau = kappa1 * eta, kappa0 * sx * log_x0
    if not (0.0 < kappa0 < 1.0 and TWO_PI < k1e < math.inf and tau > 2.0
            and TWO_PI < (k2e := kappa2 * eta / kappa0) < math.inf):
        raise DomainError(f"kappa {(kappa0, kappa1, kappa2)} at log x0 = {log_x0} needs "
                          "0 < kappa0 < 1, kappa1 eta and kappa2 eta/kappa0 finite and > 2 pi, "
                          "and tau = kappa0 sqrt(x0) log x0 > 2 (eta = sqrt(x0)/log x0)")
    ell2 = 1.0 + math.sqrt(1.0 + (1.0 + kappa0) / eta)
    tail_factor = (1.0 + (1.0 + kappa0) / eta) ** 1.5 + 2.0
    ell0 = tail_factor / (kappa2 * PI) * (0.5 + math.log(kappa2 / kappa0) / log_x0)
    bracket = ((log_x0 + max(0.0, math.log(kappa1 * kappa2 / (4.0 * PI * PI * kappa0)))) / (4.0 * PI)) \
        * math.log(kappa2 / (kappa0 * kappa1)) \
        + kappa0 * count_remainder_R(k2e) / (kappa2 * eta) \
        + count_remainder_R(k1e) / k1e \
        + (4.200 + 4.134 * math.log(k1e)) / (k1e * k1e)
    ell3 = 2.0 * ell2 * bracket / log_x0
    sigma2_coef = k1e * math.log(k1e) / (PI * sx * log_x0)
    x0 = math.exp(log_x0)
    ell7 = kappa0 + 21.0 / (20.0 * kappa0 * x0 * log_x0 * log_x0) \
        + max(8.0 * kappa0,
              4.0 * kappa0 * math.log(x0 + (1.0 + kappa0) * sx * log_x0) / math.log(tau)) \
        + 2.0 * BETA_1 / log_x0 + 2.0 * BETA_2 * x0 ** (-1.0 / 6.0) / log_x0
    return k1e, ell2, ell0 + ell3 + sigma2_coef, ell7


def k3_value(log_x0: float, kappa0: float, kappa1: float, kappa2: float) -> float:
    """k3 alone; inf when kappa is inadmissible at log x0."""
    try:
        _, _, ell5, ell7 = _k3_terms(log_x0, kappa0, kappa1, kappa2)
    except DomainError:
        return math.inf
    return ell5 + ell7


def short_interval_constants(log_x0: float, kappa: KappaParams) -> ShortIntervalConstants:
    """Assemble k3(x0), k4(x0) at the given tuning parameters, log x0 >= 10.

    Kappa is admissible when 0 < kappa0 < 1, kappa1 eta and kappa2 eta/kappa0
    are finite and > 2 pi, and tau = kappa0 sqrt(x0) log x0 > 2, with eta =
    splitting_height(log x0); ``_k3_terms`` alone decides it.  Audit notes,
    as the code reads (ROADMAP item 7): per sqrt(x) log x at x0, the locals
    of ``_k3_terms`` bound the zeros: ell0 those above kappa2 eta/kappa0,
    ell3 those down to kappa1 eta (ell2 bounds |y^rho - x^rho|/sqrt(x)) and
    sigma2_coef those below, and the record keeps only their sum ell5; ell7
    holds the smoothing, the primes near both ends and the prime powers.  ell3
    assumes kappa2 >= kappa0 kappa1: on the log x0 = 40 reference row its
    log(kappa2/(kappa0 kappa1)) = -0.148 lowers k3, and optimize_kappa
    returns that row at 33.3, 37.5 and 45.1.  ell1 is a lower bound for
    2N(kappa1 eta/kappa0), with R taken at kappa1 eta, and ell4/ell2 an
    upper bound for 2 sum 1/|rho| over 0 < gamma <= kappa1 eta.
    """
    _require_log_x0(log_x0)
    kappa0, kappa1, kappa2 = kappa.kappa0, kappa.kappa1, kappa.kappa2
    k1e, ell2, ell5, ell7 = _k3_terms(log_x0, kappa0, kappa1, kappa2)
    ell1 = (k1e / (kappa0 * PI)) * math.log(k1e / (TWO_PI * math.e * kappa0)) \
        - 7.0 / 4.0 - 2.0 * count_remainder_R(k1e)
    logt = weight_quarter_sqrt().logt
    low_zero_integral = logt(k1e) - logt(GAMMA_1)
    ell4 = ell2 * (low_zero_integral / PI
                   + 2.0 * count_remainder_R(k1e) / math.sqrt(0.25 + k1e * k1e)
                   + 2.0 * count_remainder_R(GAMMA_1) / math.sqrt(0.25 + GAMMA_1 ** 2)
                   + 0.04509)
    return ShortIntervalConstants(
        log_x0=log_x0, kappa=kappa,
        ell1=ell1, ell2=ell2, ell4=ell4, ell5=ell5, ell7=ell7,
    )


@dataclass(frozen=True)
class KappaSearch:
    """Result of optimize_kappa: chosen parameters, achieved k3, budget flag."""

    kappa: KappaParams
    k3: float
    converged: bool


# compass directions in (log kappa0, log kappa1); the last pair follows the
# ridge kappa0*kappa1 = KAPPA2_FLOOR that KappaParams.reduced creates
_COMPASS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, -1.0), (-1.0, 1.0))


@lru_cache(maxsize=_CACHE_SIZE)
def optimize_kappa(log_x0: float) -> KappaSearch:
    """Minimize k3 over the tuning parameters, deterministically.

    Coarse log-grid over (kappa0, kappa1) with the canonical kappa2
    reduction, then a compass search in (log kappa0, log kappa1) from the
    grid optimum: take the first of six directions that improves, halve
    the step from 0.25 when none does, and stop at 1e-10 (converged) or
    after 4000 evaluations.  The reference tuning rows are candidate
    points too, so the search never returns a k3 worse than a regression
    anchor.  Memoised: the search runs once per log_x0 in a process.
    """
    _require_log_x0(log_x0)

    def objective(l0, l1):
        kap0, kap1 = math.exp(l0), math.exp(l1)
        if not (0.0 < kap0 < 1.0 and 1.0 < kap1 < 1e4):
            return math.inf
        return k3_value(log_x0, kap0, kap1, max(KAPPA2_FLOOR, kap0 * kap1))

    grid = ((-4.6 + i * (2.6 / 12.0), 1.5 + j * 0.25) for i in range(13) for j in range(21))
    best_val, l0, l1 = min((objective(*z), *z) for z in grid)
    step, evals = 0.25, 0
    while step >= 1e-10 and evals < 4000:
        for d0, d1 in _COMPASS:
            evals += 1
            v = objective(l0 + step * d0, l1 + step * d1)
            if v < best_val:
                best_val, l0, l1 = v, l0 + step * d0, l1 + step * d1
                break
        else:
            step *= 0.5
    converged = step < 1e-10
    kap0, kap1 = math.exp(l0), math.exp(l1)
    best = KappaSearch(KappaParams.reduced(kap0, kap1), best_val, converged)
    for row in REFERENCE_KAPPA.values():
        v = k3_value(log_x0, *row)
        if v < best.k3:
            best = KappaSearch(KappaParams(*row), v, converged)
    return best


def kappa_for(log_x0: float) -> KappaParams:
    """Reference tuning parameters when tabulated, otherwise an optimized set."""
    row = REFERENCE_KAPPA.get(log_x0)
    if row is not None:
        return KappaParams(*row)
    return optimize_kappa(log_x0).kappa


# ---------------------------------------------------------------------------
# twisted Chebyshev constants (k5, k6, Omega0..Omega2)
# ---------------------------------------------------------------------------

def g2(q: int) -> float:
    """Modulus-dependent constant term of the smoothed twisted-sum bound."""
    if q < 3:
        raise DomainError(f"requires q >= 3, got {q}")
    lq = math.log(q)
    llq = math.log(lq)
    if q < 1e30:
        return 317.501 + 0.593 * llq * lq * lq + 0.0758 * math.sqrt(q) * lq + 2.751 * lq
    return 1.777 + 0.593 * llq * lq * lq + 0.000278 * math.sqrt(q) * lq + lq


@dataclass(frozen=True)
class TwistedPsiConstants:
    """Constants in the twisted-psi bound
    (log x/8pi + log q/2pi + Omega0) sqrt(x) log x + Omega1 sqrt(x) + Omega2."""

    log_x0: float
    sigma4: float
    sigma5: float
    k5: float
    k6: float
    Omega0: float
    Omega1: float
    Omega2: float
    small_moduli: bool = False
    sigma6: Optional[float] = None
    sigma7: Optional[float] = None


def twisted_psi_constants(log_x0: float, soz: SozConstants,
                          si: ShortIntervalConstants) -> TwistedPsiConstants:
    """Assemble k5, k6 and Omega0..Omega2 for the general-moduli chain.

    soz and si must be computed at the same log x0.  The k5/k6 branch keys
    on the sign of k2; ties take the nonnegative branch.  In either branch
    k5 also covers q >= 10^30: it dominates that regime's constant
    0.593 llx lx/sx + k1 + max(k2, 0) + 0.000278 + 2/sx + 1/x.
    """
    if abs(soz.log_x0 - log_x0) > 1e-12 or abs(si.log_x0 - log_x0) > 1e-12:
        raise ValidationError("soz and si records must be computed at the same log x0")
    x = math.exp(log_x0)
    sx = math.sqrt(x)
    lx = log_x0
    llx = math.log(lx)
    g2b = g2(int(1e30) - 1)
    k1, k2 = soz.k1, soz.k2
    sigma4 = 0.593 * llx * lx / sx + k1 + max(k2, 0.0) + 0.0758 + 3.751 / sx + 1.0 / x \
        + 315.724 / (sx * lx)
    sigma5 = k1 + 0.000278 + 2.0 / sx + 1.0 / x + max(g2b, 0.593 * llx * lx * lx) / (sx * lx)
    if k2 >= 0:
        k5, k6 = sigma4, 0.0
    else:
        k5, k6 = sigma5, k2 * math.log(3.0)
    return TwistedPsiConstants(
        log_x0=log_x0, sigma4=sigma4, sigma5=sigma5,
        k5=k5, k6=k6,
        Omega0=si.k3 + k5,
        Omega1=k6 + (0.5 + 1.12 * lx) * lx / sx,
        Omega2=1.777 - si.k4,
    )


def twisted_psi_constants_small(log_x0: float, soz: SozConstants, soz_small: SozConstants,
                                si: ShortIntervalConstants, *,
                                self_consistent: bool) -> TwistedPsiConstants:
    """Assemble the small-moduli chain (q <= 10^4, x0 >= 1.05e7).

    The general record soz gives the base k5, k6; soz_small gives the k2~
    in sigma7 and, with self_consistent, the k1~ in sigma6.  Without it,
    sigma6 takes the small-moduli record of the final grid row
    (log x0 = 500) for every row, as the bundled reference tables were built.
    """
    if log_x0 < SMALL_LOG_X0_MIN:
        raise DomainError(f"requires log x0 >= {SMALL_LOG_X0_MIN:.6f}")
    if soz.small_moduli or not soz_small.small_moduli or abs(soz_small.log_x0 - log_x0) > 1e-12:
        raise ValidationError("need a general and a small-moduli zero-sum record at log x0")
    base = twisted_psi_constants(log_x0, soz, si)
    anchor = soz_small if self_consistent else soz_constants_small(LOG_X0_GRID[-1])
    x = math.exp(log_x0)
    sx = math.sqrt(x)
    lx = log_x0
    sigma6 = anchor.k1 + 1.0 / sx + 1.0 / x + g2(10 ** 4) / (sx * lx)
    k2t = soz_small.k2
    sigma7 = 4.0 * k2t * math.log(10.0) if k2t >= 0 else k2t * math.log(3.0)
    return replace(
        base,
        small_moduli=True,
        sigma6=sigma6, sigma7=sigma7,
        Omega0=si.k3 + sigma6,
        Omega1=sigma7 + (0.5 + 1.12 * lx) * lx / sx,
        Omega2=-si.k4,
    )


# ---------------------------------------------------------------------------
# progression constants (Omega3..Omega7 and the a-vector)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class APConstants:
    """Admissible constants of the progression bounds at one x0.

    Omega2, Omega3 and Omega5 are stored; Omega4 = Omega3 + 1.44270,
    Omega6 = 1/(8 pi) + Omega4 Omega5 and Omega7 = (1 + Omega2)/log 2 are
    computed from them.  a1..a6 = (Omega5, Omega6, Omega7, Omega4, Omega2,
    Omega3); the same record shape serves the general and the small-moduli
    chain (flag).
    """

    log_x0: float
    Omega2: float
    Omega3: float
    Omega5: float
    small_moduli: bool

    @property
    def Omega4(self) -> float:
        return self.Omega3 + 1.44270

    @property
    def Omega6(self) -> float:
        return 1.0 / (8 * PI) + self.Omega4 * self.Omega5

    @property
    def Omega7(self) -> float:
        return (1.0 + self.Omega2) / LOG2

    @property
    def a(self) -> tuple[float, float, float, float, float, float]:
        return (self.Omega5, self.Omega6, self.Omega7,
                self.Omega4, self.Omega2, self.Omega3)


def ap_constants(log_x0: float, tp: TwistedPsiConstants,
                 clamp_omega1: bool = False) -> APConstants:
    """Fold the twisted-psi constants into the progression constants.

    clamp_omega1=True replaces Omega1 by max(Omega1, 0) before folding it
    into Omega3, which keeps the constant admissible uniformly in x; the
    bundled reference tables for the general chain fold the signed Omega1,
    so that is the default.
    """
    _require_log_x0(log_x0)
    if abs(tp.log_x0 - log_x0) > 1e-12:
        raise ValidationError("tp must be computed at the same log x0")
    sx = math.exp(0.5 * log_x0)
    o1 = max(tp.Omega1, 0.0) if clamp_omega1 else tp.Omega1
    return APConstants(
        log_x0=log_x0,
        Omega2=tp.Omega2,
        Omega3=tp.Omega0 + o1 / log_x0 + 0.56 * log_x0 / sx,
        Omega5=1.0 + (exp_integral_ei(log_x0 / 2.0) - exp_integral_ei(LOG2 / 2.0)) / sx,
        small_moduli=tp.small_moduli,
    )


def ap_constants_small(log_x0: float, tp_small: TwistedPsiConstants) -> APConstants:
    """Small-moduli progression constants; the signed Omega1 fold is clamped
    at zero here, matching how the small-moduli reference rows were built."""
    if not tp_small.small_moduli:
        raise ValidationError("need a small-moduli twisted-psi record")
    return ap_constants(log_x0, tp_small, clamp_omega1=True)


def chain(log_x0: float, small: bool, self_consistent: bool = False):
    """One row of the chain at log x0: the (soz, si, tp, ap) records.

    small selects the small-moduli chain (q <= 10^4, x0 >= 1.05e7) and
    self_consistent its sigma6 anchor (see twisted_psi_constants_small);
    kappa comes from kappa_for.
    """
    si = short_interval_constants(log_x0, kappa_for(log_x0))
    soz = soz_constants(log_x0)
    if small:
        soz_small = soz_constants_small(log_x0)
        tp = twisted_psi_constants_small(log_x0, soz, soz_small, si,
                                         self_consistent=self_consistent)
        return soz_small, si, tp, ap_constants_small(log_x0, tp)
    tp = twisted_psi_constants(log_x0, soz, si)
    return soz, si, tp, ap_constants(log_x0, tp)


# ---------------------------------------------------------------------------
# bound evaluators
# ---------------------------------------------------------------------------

BOUND_KINDS = ("psi_chi", "theta_chi", "psi_ap", "theta_ap", "pi_ap", "principal")


def evaluate_bounds(kind: str, x: float, q: int, consts=None) -> float:
    """Right-hand side of the selected inequality at (x, q).

    psi_chi/theta_chi take TwistedPsiConstants, psi_ap/theta_ap/pi_ap take
    APConstants, principal needs no constants (valid for x >= 73.2).
    The general chain additionally requires x0 >= q; the small-moduli
    chain requires q <= 10^4.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if _modulus(q) < 3:
        raise DomainError("requires q >= 3")
    if kind == "principal":
        if x < 73.2:
            raise DomainError("principal-character bound requires x >= 73.2")
        lx = math.log(x)
        return math.sqrt(x) * lx * lx / (8 * PI) + 1.12 * math.log(q) * lx
    if consts is None:
        raise DomainError(f"kind {kind!r} needs a constants record")
    x0 = math.exp(consts.log_x0)
    if x < x0 * (1.0 - 1e-12):
        raise DomainError(f"x={x} is below the record's x0=exp({consts.log_x0})")
    if consts.small_moduli:
        if q > 10 ** 4:
            raise DomainError("small-moduli chain requires q <= 10^4")
    else:
        if x0 < q * (1.0 - 1e-12):
            raise DomainError("general chain requires x0 >= q")
    lx = math.log(x)
    lq = math.log(q)
    sx = math.sqrt(x)
    if kind in ("psi_chi", "theta_chi"):
        if not isinstance(consts, TwistedPsiConstants):
            raise DomainError(f"kind {kind!r} needs TwistedPsiConstants")
        lead = lx / (8 * PI) + lq / TWO_PI + consts.Omega0
        if kind == "theta_chi":
            lead += 1.44270
        return lead * sx * lx + consts.Omega1 * sx + consts.Omega2
    if not isinstance(consts, APConstants):
        raise DomainError(f"kind {kind!r} needs APConstants")
    a1, a2, a3, a4, a5, a6 = consts.a
    if kind == "pi_ap":
        return (lx / (8 * PI) + a1 * lq / TWO_PI + a2) * sx + a3
    if kind == "psi_ap":
        return (lx / (8 * PI) + lq / TWO_PI + a6) * sx * lx + a5
    if kind == "theta_ap":
        return (lx / (8 * PI) + lq / TWO_PI + a4) * sx * lx + a5
    raise DomainError(f"unknown bound kind {kind!r}")


def gm_baseline_pi_bound(x: float, q: int) -> float:
    """Baseline progression bound from the cyclotomic specialization of the
    conditional density theorem, valid for x >= 2."""
    if x < 2.0:
        raise DomainError("requires x >= 2")
    if _modulus(q) < 3:
        raise DomainError("requires q >= 3")
    lx = math.log(x)
    lq = math.log(q)
    sx = math.sqrt(x)
    divisor_sum = math.fsum(math.log(p) / (p - 1) for p, _ in prime_factors(q))
    return (lx / (8 * PI) + (1.0 + 3.0 / lx) * lq / TWO_PI + 1.0 / (4 * PI) + 6.0 / lx) * sx \
        - sx * (1.0 / TWO_PI + 3.0 / lx) * divisor_sum
