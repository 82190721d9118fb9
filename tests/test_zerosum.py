import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

import pntap.constants as C
from pntap.errors import DomainError, ValidationError
from pntap.quadrature import integrate
from pntap.zeros import exact_weighted_sum
from pntap.zerosum import (A0, A1, A2, GAMMA_1, SumEstimate, WeightSpec,
                           bpt_sum, count_remainder_R, dirichlet_count_bound,
                           lehman_sum_upper, low_count_twice_bound,
                           tail_inverse_square, weight_inverse,
                           weight_inverse_square, weight_quarter_sqrt,
                           zeta_count_main)

TWO_PI = 2.0 * math.pi


class TestCountRemainder:
    def test_values(self):
        # frozen by direct evaluation of the two branches
        for T in (TWO_PI, 100.0, math.exp(100.0)):
            lt = math.log(T)
            expected = min(0.28 * lt, 0.1038 * lt + 0.2573 * math.log(lt) + 9.3675)
            assert count_remainder_R(T) == expected
        assert count_remainder_R(TWO_PI) == pytest.approx(0.28 * math.log(TWO_PI))
        assert count_remainder_R(100.0) == pytest.approx(0.28 * math.log(100.0))
        # branch crossover: second branch wins far out
        T = math.exp(100.0)
        assert count_remainder_R(T) == pytest.approx(
            0.1038 * 100.0 + 0.2573 * math.log(100.0) + 9.3675)

    def test_domain(self):
        with pytest.raises(DomainError):
            count_remainder_R(6.0)

    def test_main_term_zero_at_2pi_e(self):
        assert zeta_count_main(TWO_PI * math.e) == pytest.approx(0.0, abs=1e-12)


class TestBpt:
    def test_degenerate_interval(self):
        phi = weight_inverse_square()
        U = 20.0
        est = bpt_sum(phi, U, U)
        assert est.main_term == 0.0
        expected = 2 * (A0 + A1 * math.log(U)) * abs(phi.derivative(U)) \
            + (A1 + A2) * phi(U) / U + 2 * phi(U) * count_remainder_R(U)
        assert est.error_bound == pytest.approx(expected, rel=1e-12)
        assert est.error_bound >= 0.0

    def test_soundness_against_data(self, zeta_table):
        rng = np.random.default_rng(11)
        top = min(1000.0, zeta_table.max_height)
        for phi in (weight_inverse(), weight_inverse_square(), weight_quarter_sqrt()):
            for _ in range(25):
                U, V = np.sort(rng.uniform(TWO_PI, top, 2))
                exact = exact_weighted_sum(zeta_table, phi.value, float(U), float(V))
                est = bpt_sum(phi, float(U), float(V))
                assert abs(exact - est.main_term) <= est.error_bound

    def test_domain(self):
        with pytest.raises(DomainError):
            bpt_sum(weight_inverse(), 2.0, 20.0)
        with pytest.raises(DomainError):
            bpt_sum(weight_inverse(), 30.0, 20.0)


class TestDirichletCount:
    def test_main_and_remainder(self):
        main, rem = dirichlet_count_bound(3, 5.0 / 7.0)
        assert main == pytest.approx((5.0 / 7.0) / math.pi
                                     * math.log(3 * (5.0 / 7.0) / (TWO_PI * math.e)))
        assert rem == pytest.approx(0.247 * math.log(3 * (5.0 / 7.0) / TWO_PI) + 6.894)

    def test_low_count_majorant(self):
        # the packaged linear form dominates the assembled expression
        for q in (3, 5, 17, 101, 9857, 10 ** 4, 10 ** 6):
            assembled = (10.0 / (7 * math.pi)) * math.log(5 * q / (14 * math.pi * math.e)) \
                + 0.494 * math.log(5 * q / (14 * math.pi)) + 13.788
            assert assembled < low_count_twice_bound(q)

    def test_domain(self):
        with pytest.raises(DomainError):
            dirichlet_count_bound(1, 1.0)
        with pytest.raises(DomainError):
            dirichlet_count_bound(3, 0.5)


class TestLehman:
    def test_inverse_square_tail_closed_form(self):
        # T * bound matches the packaged tail form within its rounding
        for T, q in ((10.0, 3), (100.0, 7), (1e4, 9857)):
            got = T * lehman_sum_upper(weight_inverse_square(), T, math.inf, q)
            expected = (1.0 / math.pi + 0.494 / T) * (math.log(q) + math.log(T)) \
                - 0.2667 + 13.0034 / T
            assert got == pytest.approx(expected, abs=2e-3 * max(1.0, math.log(q)))

    def test_inverse_weight_closed_form(self):
        # quadrature path vs analytic antiderivatives
        U, V, q = 14.841, 1.2e4, 11
        got = lehman_sum_upper(weight_inverse(), U, V, q)
        expected = (math.log(V) - math.log(U)) * math.log(q) / math.pi \
            + ((math.log(V / TWO_PI)) ** 2 - (math.log(U / TWO_PI)) ** 2) / (2 * math.pi) \
            + (2.0 / U) * (0.247 * math.log(q * U / TWO_PI) + 6.894) \
            + 0.247 * (1.0 / U - 1.0 / V)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_v_and_q(self):
        phi = weight_inverse()
        base = lehman_sum_upper(phi, 1.0, 50.0, 7)
        assert lehman_sum_upper(phi, 1.0, 80.0, 7) >= base
        assert lehman_sum_upper(phi, 1.0, 50.0, 11) >= base

    def test_improper_limit_guard(self):
        with pytest.raises(DomainError):
            lehman_sum_upper(weight_inverse(), 1.0, math.inf, 7)

    def test_domain(self):
        with pytest.raises(DomainError):
            lehman_sum_upper(weight_inverse(), 0.5, 10.0, 7)


class TestTail:
    def test_values(self):
        assert tail_inverse_square(100.0) == pytest.approx(
            math.log(100.0) / (TWO_PI * 100.0))
        g1 = 14.134725
        assert tail_inverse_square(g1) == pytest.approx(
            math.log(g1) / (TWO_PI * g1))

    def test_domain(self):
        with pytest.raises(DomainError):
            tail_inverse_square(10.0)

    def test_bounds_data(self, zeta_table):
        exact = exact_weighted_sum(zeta_table, lambda t: 1.0 / (t * t),
                                   100.0, min(1000.0, zeta_table.max_height))
        assert exact <= tail_inverse_square(100.0)


class TestSumEstimateInvariants:
    def test_nonnegative_budgets(self):
        with pytest.raises(ValidationError):
            SumEstimate(main_term=1.0, error_bound=-1.0)


WEIGHTS = (weight_inverse(), weight_inverse_square(), weight_quarter_sqrt())
# the same weights at 40 digits, and the factor each antiderivative adds
MP_WEIGHTS = {"1/t": lambda t: 1 / t, "1/t^2": lambda t: 1 / (t * t),
              "(1/4+t^2)^(-1/2)": lambda t: 1 / mp.sqrt(mp.mpf(1) / 4 + t * t)}
KINDS = {"plain": lambda t, log: 1, "logt": lambda t, log: log(t / (2 * mp.pi)),
         "over_t": lambda t, log: 1 / t}
T_GRID = np.geomspace(5.0 / 7.0, 1e6, 200).tolist()


class TestAntiderivatives:
    """Each closed form F(V) - F(U) against two independent quadratures."""

    # 10 seeded log-uniform intervals in [5/7, 1e6], plus [5/7, 2 pi], where
    # the dilogarithm series of the third weight takes its largest argument
    INTERVALS = np.sort(np.exp(np.random.default_rng(2026).uniform(
        math.log(5.0 / 7.0), math.log(1e6), size=(10, 2))), axis=1).tolist() \
        + [[5.0 / 7.0, TWO_PI]]

    def test_weights_carry_no_shape_flags(self):
        assert [f.name for f in dataclasses.fields(WeightSpec)] == \
            ["value", "derivative", "plain", "logt", "over_t", "name"]

    @pytest.mark.parametrize("phi", WEIGHTS, ids=lambda w: w.name)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_against_mpmath_and_integrate(self, phi, kind):
        F, w, g = getattr(phi, kind), MP_WEIGHTS[phi.name], KINDS[kind]
        for a, b in self.INTERVALS:
            got = F(b) - F(a)
            with mp.workdps(40):
                exact = float(mp.quad(lambda t: w(t) * g(t, mp.log), [a, b]))
            quad = integrate(lambda t: phi(t) * g(t, math.log), a, b).value
            assert got == pytest.approx(exact, rel=1e-12)
            assert got == pytest.approx(quad, rel=1e-12)


class TestWeightShape:
    """The hypotheses of bpt_sum and lehman_sum_upper on [5/7, 1e6]:
    positive, decreasing and convex."""

    @pytest.mark.parametrize("phi", WEIGHTS, ids=lambda w: w.name)
    def test_positive_decreasing_convex(self, phi):
        for t in T_GRID:
            h = 1e-5 * t
            assert phi(t) > 0.0
            assert phi.derivative(t) < 0.0
            assert phi.derivative(t) == pytest.approx(
                (phi(t + h) - phi(t - h)) / (2 * h), rel=1e-6)
            h = 1e-2 * t
            assert phi(t - h) - 2 * phi(t) + phi(t + h) >= 0.0


class TestChainAgainstLehman:
    """The chain's nu1 log q + nu2 is the Lehman bound over [5/7, eta].

    The chain takes its integrals from the reference quadrature, which
    saturates as log x0 grows, so the check stops at row 80.
    """

    @pytest.mark.parametrize("lx", [lx for lx in C.LOG_X0_GRID if lx <= 80.0])
    @pytest.mark.parametrize("q", (3, 10 ** 4))
    def test_general_rows(self, lx, q):
        soz = C.soz_constants(lx)
        bound = lehman_sum_upper(weight_quarter_sqrt(), 5.0 / 7.0,
                                 C.splitting_height(lx), q)
        assert soz.nu1 * math.log(q) + soz.nu2 == pytest.approx(bound, rel=1e-5)
