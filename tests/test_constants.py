import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import pntap.cli as cli
import pntap.constants as C
from pntap.errors import DomainError, ValidationError
from pntap.quadrature import exp_integral_ei
from pntap.zerosum import GAMMA_1, count_remainder_R

import reference_tables as ref

PI = math.pi


class TestSoz:
    @pytest.mark.parametrize("lx0", [10.0, 20.0, 50.0, 500.0])
    def test_spot_rows(self, lx0):
        s = C.soz_constants(lx0)
        k1, _, k2, _ = ref.SOZ_TABLE[lx0]
        assert ref.close(s.k1, k1)
        assert ref.close(s.k2, k2)

    @pytest.mark.parametrize("lx0", [20.0, ref.LOG_SMALL, 500.0])
    def test_spot_rows_small(self, lx0):
        s = C.soz_constants_small(lx0)
        _, k1t, _, k2t = ref.SOZ_TABLE[lx0]
        assert s.small_moduli
        assert ref.close(s.k1, k1t)
        assert ref.close(s.k2, k2t)

    @pytest.mark.parametrize("lx0", [lx for lx in C.LOG_X0_GRID if lx >= ref.LOG_SMALL])
    def test_chains_differ_only_in_their_inputs(self, lx0):
        # the small chain drops 0.94873 log q and starts its zeros at 200
        g, s = C.soz_constants(lx0), C.soz_constants_small(lx0)
        assert g.k2 - s.k2 == pytest.approx(0.94873 + g.nu1 - s.nu1, rel=1e-12)
        assert (s.nu3, s.nu4, s.f1, s.f2, s.f3) == (g.nu3, g.nu4, g.f1, g.f2, g.f3)

    def test_domain(self):
        with pytest.raises(DomainError):
            C.soz_constants(9.9)
        with pytest.raises(DomainError):
            C.soz_constants_small(16.0)

    def test_f_caps_on_grid(self):
        for lx in np.linspace(10.0, 500.0, 100):
            s = C.soz_constants(float(lx))
            assert s.f1 <= 1.0 / (8 * PI) + 1e-15
            assert s.f2 <= 1.0 / (2 * PI) + 1e-15

    def test_k1_monotone_on_grid(self):
        vals = [C.soz_constants(lx).k1 for lx in C.LOG_X0_GRID]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestShortInterval:
    @pytest.mark.parametrize("lx0", [10.0, 100.0, 500.0])
    def test_spot_rows(self, lx0):
        k0, k1, k2, k3, k4 = ref.SHORT_INTERVAL_TABLE[lx0]
        si = C.short_interval_constants(lx0, C.KappaParams(k0, k1, k2))
        assert abs(si.k3 - k3) <= 5e-3
        assert abs(si.k4 - k4) <= 5e-3 * abs(k4)

    def test_structure(self):
        si = C.short_interval_constants(10.0, C.kappa_for(10.0))
        assert si.k3 > 0

    @pytest.mark.parametrize("lx0", sorted(C.REFERENCE_KAPPA) + [120.0])
    def test_ell4_is_the_closed_form(self, lx0):
        # the integral of log(t/2pi) (1/4+t^2)^(-1/2) over [gamma_1, kappa1 eta]
        # is F(asinh 2b) - F(asinh 2a), F(u) = u^2/2 - u log 8pi + Li2(e^(-2u))/2
        si = C.short_interval_constants(lx0, C.kappa_for(lx0))
        a, b = GAMMA_1, si.kappa.kappa1 * C.splitting_height(lx0)
        with mp.workdps(40):
            def F(t):
                u = mp.asinh(2 * mp.mpf(t))
                return u * u / 2 - u * mp.log(8 * mp.pi) + mp.polylog(2, mp.exp(-2 * u)) / 2

            def edge(t):
                return 2 * count_remainder_R(t) / mp.sqrt(mp.mpf(1) / 4 + mp.mpf(t) ** 2)

            ell4 = si.ell2 * ((F(b) - F(a)) / mp.pi + edge(b) + edge(a) + mp.mpf("0.04509"))
        assert si.ell4 == pytest.approx(float(ell4), rel=1e-12)

    def test_short_interval_needs_no_shim(self, monkeypatch):
        # the shim serves only the zero-sum integrals of _zero_sum
        def refuse(*key):
            raise AssertionError(f"_reference_quad{key} called")

        monkeypatch.setattr(C, "_reference_quad", refuse)
        for lx0, row in C.REFERENCE_KAPPA.items():
            assert C.short_interval_constants(lx0, C.KappaParams(*row)).k3 > 0

    def test_kappa_validation(self):
        with pytest.raises(ValidationError):
            C.KappaParams(1.5, 10.0, 2.0)
        with pytest.raises(ValidationError):
            C.KappaParams(0.05, -1.0, 2.0)
        with pytest.raises(ValidationError):
            C.KappaParams(0.05, 10.0, 1.0)  # below the floor
        k = C.KappaParams.reduced(0.05, 10.0)
        assert k.kappa2 == C.KAPPA2_FLOOR  # 0.5 < floor
        k = C.KappaParams.reduced(0.05, 100.0)
        assert k.kappa2 == pytest.approx(5.0)

    def test_optimizer_beats_anchor(self):
        res = C.optimize_kappa(10.0)
        assert res.k3 <= ref.SHORT_INTERVAL_TABLE[10.0][3] + 1e-3
        assert res.converged
        anchored = C.short_interval_constants(10.0, res.kappa)
        assert anchored.k3 == pytest.approx(res.k3, abs=1e-12)

    # k3 that a Nelder-Mead refinement returned on these off-grid rows,
    # pinned so the compass search is held to it; 16 < log x0 < 30 is where
    # the optimum sits on the ridge kappa0*kappa1 = KAPPA2_FLOOR
    NELDER_MEAD_K3 = {
        10.5: 1.7929784256811812, 12.3: 1.6022281517456043,
        14.7: 1.4280467918190651, 16.0: 1.3567403050534157,
        17.25: 1.2984083046060495, 18.9: 1.233491842165046,
        19.5: 1.2127225567457924, 20.5: 1.1808736119538144,
        22.0: 1.1385412378463404, 23.7: 1.0968169981314912,
        25.24: 1.063763180198382, 27.5: 1.0220844045565296,
        29.9: 0.9840090019864312, 33.3: 0.9331706170799301,
        37.5: 0.8826922357325502, 45.1: 0.8170055434922984,
        55.5: 0.757647843627896, 66.6: 0.7046304054377437,
        85.0: 0.6409425173435431, 120.0: 0.5627424574413619,
        175.0: 0.4900479937095443, 333.3: 0.3896699215419901,
        444.4: 0.35247574050736985, 600.0: 0.3177473166794328,
        700.0: 0.30136055096621867,
    }

    @pytest.mark.parametrize("lx0", sorted(NELDER_MEAD_K3))
    def test_search_matches_nelder_mead(self, lx0):
        res = C.optimize_kappa(lx0)
        assert res.converged
        assert res.k3 <= self.NELDER_MEAD_K3[lx0] * (1.0 + 1e-12)

    def test_kappa_for_prefers_reference(self):
        k = C.kappa_for(10.0)
        assert (k.kappa0, k.kappa1, k.kappa2) == C.REFERENCE_KAPPA[10.0]

    @pytest.mark.parametrize("kappa0", [math.exp(-5.0) / 10.0, 5e-4, 1e-4])
    def test_smoothing_width_at_most_two_is_domain_error(self, kappa0):
        # tau = kappa0 sqrt(x0) log x0 is 1, 0.74 and 0.15 here
        with pytest.raises(DomainError, match="tau"):
            C.short_interval_constants(10.0, C.KappaParams(kappa0, 18.8, 1.74663))

    @pytest.mark.parametrize("lx0", [10.0, 20.0, 100.0, C.LOG_X0_MAX])
    def test_one_admissibility_rule(self, lx0):
        # kappa1 eta, kappa2 eta/kappa0 and tau, each put below, at and above
        # its threshold in turn, and kappa2 eta/kappa0 past the largest float.
        # KappaParams's floor keeps kappa2 eta/kappa0 above 2 pi for every
        # log x0 >= 10, so the floats reach short_interval_constants through
        # a plain namespace.  The tau rows take kappa2 at the floor, which
        # keeps kappa2 eta/kappa0 finite there up to LOG_X0_MAX.
        eta, sx = C.splitting_height(lx0), math.exp(0.5 * lx0)
        k = C.kappa_for(lx0)
        base = (k.kappa0, k.kappa1, k.kappa2)
        factors = (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0)
        grid = {
            "kappa1 eta": [(base[0], f * 2 * PI / eta, base[2]) for f in factors],
            "kappa2 eta/kappa0": [(base[0], base[1], f * 2 * PI * base[0] / eta)
                                  for f in factors],
            "tau": [(f * 2.0 / (sx * lx0), base[1], C.KAPPA2_FLOOR) for f in factors],
            "finite": [(base[0], base[1], f * sys.float_info.max * base[0] / eta)
                       for f in (2.0, 1.0, 0.5)],
        }
        for condition, rows in [("none", [base]), *grid.items()]:
            raised = []
            for k0, k1, k2 in rows:
                k3 = C.k3_value(lx0, k0, k1, k2)
                try:
                    si = C.short_interval_constants(
                        lx0, SimpleNamespace(kappa0=k0, kappa1=k1, kappa2=k2))
                except DomainError:
                    raised.append(True)
                    assert k3 == math.inf, condition
                else:
                    raised.append(False)
                    assert math.isfinite(k3) and k3.hex() == si.k3.hex(), condition
            # the first row of each condition breaks it, the last does not
            assert raised[0] == (condition != "none") and not raised[-1], condition


class TestG2AndHelpers:
    def test_g2_small_branch(self):
        q = 3
        lq = math.log(q)
        expected = 317.501 + 0.593 * math.log(lq) * lq * lq \
            + 0.0758 * math.sqrt(q) * lq + 2.751 * lq
        assert C.g2(q) == pytest.approx(expected, rel=1e-14)

    def test_g2_branch_switch(self):
        lo = C.g2(int(1e30) - 1)
        hi = C.g2(int(1e30))
        # the large-q branch drops the 317.5-class constant
        assert hi < lo

    def test_g2_monotone_within_branch(self):
        qs = [3, 7, 100, 10 ** 4, 10 ** 8]
        vals = [C.g2(q) for q in qs]
        assert vals == sorted(vals)

    def test_g2_domain(self):
        with pytest.raises(DomainError):
            C.g2(2)


class TestTwisted:
    @pytest.mark.parametrize("lx0", [10.0, 150.0, 500.0])
    def test_spot_rows(self, lx0):
        _, si, tp, _ = C.chain(lx0, False)
        k5, k6, O0, O1, O2 = ref.TWISTED_TABLE[lx0]
        assert ref.close(tp.k5, k5)
        assert ref.close(tp.k6, k6)
        assert ref.close(tp.Omega0, O0)
        assert ref.close(tp.Omega1, O1)
        assert ref.close(tp.Omega2, O2)

    def test_identities_full_precision(self):
        soz, si, tp, _ = C.chain(20.0, False)
        assert tp.Omega0 == pytest.approx(si.k3 + tp.k5, abs=1e-12)
        assert tp.Omega2 == pytest.approx(1.777 - si.k4, rel=1e-15)

    def test_branch_on_k2_sign(self):
        soz, si, tp, _ = C.chain(10.0, False)   # k2 > 0
        assert tp.k6 == 0.0
        assert tp.k5 == tp.sigma4
        soz, si, tp, _ = C.chain(150.0, False)  # k2 < 0
        assert tp.k6 == pytest.approx(soz.k2 * math.log(3.0), rel=1e-14)
        assert tp.k5 == tp.sigma5

    @pytest.mark.parametrize("lx0", [lx for lx in C.LOG_X0_GRID if lx in C.REFERENCE_KAPPA])
    def test_k5_covers_huge_moduli(self, lx0):
        # the q >= 10^30 constant, from its formula, never exceeds k5
        soz, _, tp, _ = C.chain(lx0, False)
        sx = math.exp(0.5 * lx0)
        sigma3 = 0.593 * math.log(lx0) * lx0 / sx + soz.k1 + max(soz.k2, 0.0) \
            + 0.000278 + 2.0 / sx + 1.0 / math.exp(lx0)
        assert sigma3 <= tp.k5

    @pytest.mark.parametrize("lx0", [lx for lx in C.LOG_X0_GRID if lx >= C.SMALL_LOG_X0_MIN])
    def test_sigma6_anchor(self, lx0):
        # sigma6 = k1~(anchor) + 1/sqrt(x0) + 1/x0 + g2(10^4)/(sqrt(x0) log x0): the
        # frozen log x0 = 500 record by default, the row's own with self_consistent
        sx = math.exp(0.5 * lx0)
        rest = 1.0 / sx + 1.0 / math.exp(lx0) + C.g2(10 ** 4) / (sx * lx0)
        _, _, tp, _ = C.chain(lx0, small=True)
        assert tp.sigma6 - rest == pytest.approx(
            C.soz_constants_small(500.0).k1, rel=1e-12, abs=1e-12)
        soz, _, tp, _ = C.chain(lx0, small=True, self_consistent=True)
        assert tp.sigma6 - rest == pytest.approx(soz.k1, rel=1e-12, abs=1e-12)

    def test_small_branch_sigma7(self):
        soz, si, tp, _ = C.chain(20.0, small=True)
        assert soz.small_moduli and soz.k2 < 0
        assert tp.sigma7 == pytest.approx(soz.k2 * math.log(3.0), rel=1e-14)
        assert tp.Omega2 == pytest.approx(-si.k4, rel=1e-15)

    def test_mismatched_records_rejected(self):
        soz = C.soz_constants(10.0)
        si = C.short_interval_constants(20.0, C.kappa_for(20.0))
        with pytest.raises(ValidationError):
            C.twisted_psi_constants(10.0, soz, si)


class TestApConstants:
    @pytest.mark.parametrize("lx0", [10.0, 200.0, 500.0])
    def test_spot_rows(self, lx0):
        _, _, _, ap = C.chain(lx0, False)
        for got, want in zip(ap.a, ref.AP_TABLE[lx0]):
            assert ref.close(got, want), (lx0, got, want)

    @pytest.mark.parametrize("lx0", [20.0, 100.0, 500.0])
    def test_spot_rows_small(self, lx0):
        _, _, _, ap = C.chain(lx0, small=True)
        for got, want in zip(ap.a, ref.AP_SMALL_TABLE[lx0]):
            assert ref.close(got, want), (lx0, got, want)

    def test_cross_identities(self):
        _, si, tp, ap = C.chain(30.0, False)
        a1, a2, a3, a4, a5, a6 = ap.a
        assert a5 == tp.Omega2
        assert a3 == pytest.approx((1.0 + tp.Omega2) / math.log(2.0), rel=1e-14)
        assert a4 == pytest.approx(a6 + 1.44270, abs=1e-12)
        assert a2 == pytest.approx(1.0 / (8 * PI) + a4 * a1, rel=1e-14)

    @pytest.mark.parametrize("small", [False, True])
    def test_omega1_clamp_follows_the_record(self, small):
        # on the rows where Omega1 < 0 (the general rows from log x0 = 150,
        # where k6 = k2 log 3 < 0, and every small row) only a small-moduli
        # record folds max(Omega1, 0) = 0 into Omega3
        rows = [lx for lx in C.REFERENCE_KAPPA if lx >= (C.SMALL_LOG_X0_MIN if small else 150.0)]
        for lx in rows:
            _, _, tp, ap = C.chain(lx, small)
            assert tp.Omega1 < 0.0, lx
            o1 = 0.0 if small else tp.Omega1 / lx
            assert ap.Omega3 == tp.Omega0 + o1 + 0.56 * lx / math.exp(0.5 * lx), lx

    def test_small_flag_alone_clamps(self):
        _, _, tp, ap = C.chain(150.0, False)
        clamped = C.ap_constants(150.0, replace(tp, small_moduli=True))
        assert clamped.small_moduli
        assert clamped.Omega3 == tp.Omega0 + 0.56 * 150.0 / math.exp(75.0) > ap.Omega3

    def test_omega5_from_ei(self):
        _, _, _, ap = C.chain(10.0, False)
        sx = math.exp(5.0)
        expected = 1.0 + (exp_integral_ei(5.0) - exp_integral_ei(math.log(2.0) / 2.0)) / sx
        assert ap.Omega5 == pytest.approx(expected, rel=1e-14)
        assert ref.close(ap.Omega5, 1.27146)

    def test_monotone_chain(self):
        grid = [10.0, 20.0, 30.0, 50.0, 100.0, 150.0, 500.0]
        k5s, O0s = [], []
        for lx in grid:
            _, _, tp, _ = C.chain(lx, False)
            k5s.append(tp.k5)
            O0s.append(tp.Omega0)
        assert all(a >= b for a, b in zip(k5s, k5s[1:]))
        assert all(a >= b for a, b in zip(O0s, O0s[1:]))


class TestEvaluateBounds:
    def test_principal(self):
        x, q = 73.2, 5
        expected = math.sqrt(x) * math.log(x) ** 2 / (8 * PI) \
            + 1.12 * math.log(q) * math.log(x)
        assert C.evaluate_bounds("principal", x, q) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(DomainError):
            C.evaluate_bounds("principal", 50.0, 5)

    def test_pi_ap_formula(self):
        _, _, _, ap = C.chain(10.0, False)
        x, q = math.exp(10.0), 3
        a1, a2, a3, *_ = ap.a
        expected = (10.0 / (8 * PI) + a1 * math.log(3) / (2 * PI) + a2) * math.exp(5.0) + a3
        assert C.evaluate_bounds("pi_ap", x, q, ap) == pytest.approx(expected, rel=1e-14)

    def test_theta_minus_psi_gap(self):
        _, _, _, ap = C.chain(10.0, False)
        x, q = 1e6, 7
        gap = C.evaluate_bounds("theta_ap", x, q, ap) - C.evaluate_bounds("psi_ap", x, q, ap)
        assert gap == pytest.approx(1.44270 * math.sqrt(x) * math.log(x), rel=1e-12)

    def test_preconditions(self):
        _, _, _, ap = C.chain(10.0, False)
        with pytest.raises(DomainError):
            C.evaluate_bounds("pi_ap", 100.0, 3, ap)  # x below x0
        with pytest.raises(DomainError):
            C.evaluate_bounds("pi_ap", 1e9, 10 ** 5, ap)  # x0 < q on the general chain
        _, _, _, ap_s = C.chain(20.0, small=True)
        with pytest.raises(DomainError):
            C.evaluate_bounds("pi_ap", 1e9, 10 ** 5, ap_s)  # q > 1e4 on small chain
        # q < 3 for every kind, with or without constants
        for kind, consts in [("principal", None), ("pi_ap", ap), ("psi_chi", None)]:
            with pytest.raises(DomainError, match="q >= 3"):
                C.evaluate_bounds(kind, 1e9, 2, consts)
        # a modulus that is not an integer, on every evaluator
        _, _, tp, _ = C.chain(10.0, False)
        for call in [lambda: C.evaluate_bounds("pi_ap", 1e6, 3.5, ap),
                     lambda: C.evaluate_bounds("psi_chi", 1e6, 7.25, tp),
                     lambda: C.evaluate_bounds("principal", 1e6, 7.0),
                     lambda: C.gm_baseline_pi_bound(1e6, 3.5)]:
            with pytest.raises(DomainError, match="integer"):
                call()
        # numpy integers are moduli
        assert C.evaluate_bounds("pi_ap", 1e6, np.int64(7), ap) \
            == C.evaluate_bounds("pi_ap", 1e6, 7, ap)
        assert C.gm_baseline_pi_bound(1e6, np.int32(6)) == C.gm_baseline_pi_bound(1e6, 6)

    def test_chi_bounds(self):
        _, _, tp, _ = C.chain(10.0, False)
        x, q = 1e5, 3
        psi = C.evaluate_bounds("psi_chi", x, q, tp)
        theta = C.evaluate_bounds("theta_chi", x, q, tp)
        assert theta - psi == pytest.approx(
            1.44270 * math.sqrt(x) * math.log(x), rel=1e-12)


class TestGmBaseline:
    def test_divisor_sums(self):
        x = 100.0
        base3 = C.gm_baseline_pi_bound(x, 3)
        lead = (math.log(x) / (8 * PI) + (1 + 3 / math.log(x)) * math.log(3) / (2 * PI)
                + 1 / (4 * PI) + 6 / math.log(x)) * math.sqrt(x)
        sub = math.sqrt(x) * (1 / (2 * PI) + 3 / math.log(x)) * (math.log(3) / 2.0)
        assert base3 == pytest.approx(lead - sub, rel=1e-14)
        # q = 6 subtracts log2 + log3/2
        base6 = C.gm_baseline_pi_bound(x, 6)
        sub6 = math.sqrt(x) * (1 / (2 * PI) + 3 / math.log(x)) \
            * (math.log(2) + math.log(3) / 2.0)
        lead6 = (math.log(x) / (8 * PI) + (1 + 3 / math.log(x)) * math.log(6) / (2 * PI)
                 + 1 / (4 * PI) + 6 / math.log(x)) * math.sqrt(x)
        assert base6 == pytest.approx(lead6 - sub6, rel=1e-14)

    def test_shared_leading_term(self):
        # both right sides carry sqrt(x) log x/(8 pi), so the gap per
        # sqrt(x) settles to a constant at fixed q
        _, _, _, ap = C.chain(10.0, False)
        q = 3
        d30 = (C.evaluate_bounds("pi_ap", 1e30, q, ap)
               - C.gm_baseline_pi_bound(1e30, q)) / math.sqrt(1e30)
        d40 = (C.evaluate_bounds("pi_ap", 1e40, q, ap)
               - C.gm_baseline_pi_bound(1e40, q)) / math.sqrt(1e40)
        assert abs(d40 - d30) < 0.05


class TestLogX0Domain:
    @pytest.mark.parametrize("lx", [math.nan, math.inf, -math.inf, 720.0])
    def test_entry_points_reject(self, lx):
        kappa = C.KappaParams(*C.REFERENCE_KAPPA[10.0])
        _, _, tp, _ = C.chain(10.0, False)
        calls = [lambda: C.soz_constants(lx), lambda: C.soz_constants_small(lx),
                 lambda: C.short_interval_constants(lx, kappa),
                 lambda: C.optimize_kappa(lx), lambda: C.kappa_for(lx),
                 lambda: C.ap_constants(lx, tp)]
        before = C.optimize_kappa.cache_info().currsize
        for call in calls:
            with pytest.raises(DomainError):
                call()
        assert C.optimize_kappa.cache_info().currsize == before

    def test_ceiling_itself_is_admissible(self):
        lx = C.LOG_X0_MAX
        assert math.isfinite(math.exp(lx))
        si = C.short_interval_constants(lx, C.kappa_for(lx))
        assert si.k3 > 0


def record_quad_keys(monkeypatch, *argvs):
    """The (lower, log x0) keys _reference_quad is asked for by
    `constants --which all` with each argv."""
    cached = C._reference_quad
    keys = []

    def recording(*key):
        keys.append(key)
        return cached(*key)

    monkeypatch.setattr(C, "_reference_quad", recording)
    for argv in argvs:
        assert cli.main(["constants", "--which", "all", *argv]) == 0
    monkeypatch.setattr(C, "_reference_quad", cached)
    return keys


# the integrands the chain took from three mp.quad calls per interval
_MP_QUARTER = mp.mpf(1) / 4
QUAD_INTEGRANDS = (
    lambda t: 1 / mp.sqrt(_MP_QUARTER + t * t),
    lambda t: mp.log(t / (2 * mp.pi)) / mp.sqrt(_MP_QUARTER + t * t),
    lambda t: 1 / (t * mp.sqrt(_MP_QUARTER + t * t)),
)


def quad_oracle(lower, log_x0):
    """(plain, logt, over_t) over [lower, eta], one mp.quad call each, at 15 digits."""
    with mp.workdps(15):
        return tuple(float(mp.quad(f, [lower, C.splitting_height(log_x0)]))
                     for f in QUAD_INTEGRANDS)


class TestReferenceQuad:
    """The default grid reads mp.quad's bits; every other row the exact integrals."""

    OFF_GRID = (18.3, 37.5, 85.0, 120.0, 300.0, C.LOG_X0_MAX)

    def test_same_bits_as_mp_quad(self):
        for key, frozen in C._GRID_QUAD.items():
            assert [v.hex() for v in frozen] == [v.hex() for v in quad_oracle(*key)], key

    def test_frozen_table_holds_the_default_grid(self, monkeypatch, capsys):
        asked = set(record_quad_keys(monkeypatch, [], ["--small"], ["--small", "--self-consistent"]))
        capsys.readouterr()
        grid = {(5.0 / 7.0, lx) for lx in C.LOG_X0_GRID} \
            | {(200.0, lx) for lx in C.LOG_X0_GRID if lx >= C.SMALL_LOG_X0_MIN}
        assert asked == grid
        missing = sorted(grid - set(C._GRID_QUAD))
        assert not missing, "_GRID_QUAD lacks\n" + "\n".join(
            f"    ({lower!r}, {lx!r}):\n        {quad_oracle(lower, lx)!r}," for lower, lx in missing)
        assert len(C._GRID_QUAD) == len(grid) == 29, sorted(set(C._GRID_QUAD) - grid)

    def test_closed_forms_match_mp_quad(self, monkeypatch):
        # mp.quad at 30 digits, summed over log-spaced pieces (ratio <= 1000)
        # that every row shares; the worst relative error seen is 2.5e-13, on
        # the short interval [200, 200.43] of row log(1.05e7), and below
        # 5e-14 elsewhere
        monkeypatch.setattr(C, "_GRID_QUAD", {})
        rows = sorted({*C.LOG_X0_GRID, *self.OFF_GRID})
        assert rows[0] == 10.0 and {120.0, 500.0, C.LOG_X0_MAX} <= set(rows)
        with mp.workdps(30):
            for lower in (5.0 / 7.0, 200.0):
                lxs = [lx for lx in rows if lower < 1.0 or lx >= C.SMALL_LOG_X0_MIN]
                etas = [C.splitting_height(lx) for lx in lxs]
                pieces = int(math.log(etas[-1] / lower) / math.log(1000.0)) + 2
                ends = sorted({*np.geomspace(lower, etas[-1], pieces).tolist(), *etas})
                total, upto = [mp.mpf(0)] * 3, {}
                for a, b in zip(ends, ends[1:]):
                    total = [s + mp.quad(f, [a, b]) for s, f in zip(total, QUAD_INTEGRANDS)]
                    upto[b] = total
                for lx, eta in zip(lxs, etas):
                    got = C._reference_quad(lower, lx)
                    for g, want in zip(got, upto[eta]):
                        assert abs(g - want) <= 1e-12 * abs(want), (lower, lx)

    def test_default_grid_imports_no_mpmath(self):
        argvs = [["constants", "--which", "all"], ["constants", "--which", "all", "--small"],
                 ["constants", "--which", "all", "--small", "--self-consistent"],
                 ["bound", "--kind", "psi_ap", "--x", "1e12", "--q", "3"]]
        assert run_fresh(argvs) == "[0, 0, 0, 0] False"

    def test_off_grid_rows_import_no_mpmath(self):
        argvs = [["constants", "--which", "all", "--log-x0", "18.3", "--log-x0", "120"],
                 ["bound", "--kind", "psi_ap", "--x", "1e60", "--q", "3", "--log-x0", "120"]]
        assert run_fresh(argvs, "pntap.soz_constants(20.5)") == "[0, 0] False"


def run_fresh(argvs, then="pass"):
    """cli.main on each argv in a fresh process, then the expression then:
    the exit codes and whether mpmath was imported, as printed."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, pntap; from pntap import cli; "
            f"codes = [cli.main(argv) for argv in {argvs!r}]; {then}; "
            "print(codes, 'mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestCaches:
    """optimize_kappa searches once per row and returns what a fresh search returns."""

    def test_kappa_search_runs_once_per_row(self, monkeypatch, capsys):
        k3_value = C.k3_value
        calls = []

        def counting_k3_value(*args):
            calls.append(args)
            return k3_value(*args)

        monkeypatch.setattr(C, "k3_value", counting_k3_value)
        C.optimize_kappa.cache_clear()
        argv = ["constants", "--which", "all", "--log-x0", "37.5"]
        for which in ("soz", "short-interval", "twisted", "ap"):
            assert cli.main(argv[:2] + [which] + argv[3:]) == 0
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--small"]) == 0
        capsys.readouterr()
        via_cli = len(calls)
        calls.clear()
        C.optimize_kappa.__wrapped__(37.5)
        assert via_cli == len(calls) > 0
        assert C.optimize_kappa.cache_info().misses == 1
        assert C.kappa_for(37.5) == C.optimize_kappa.__wrapped__(37.5).kappa
