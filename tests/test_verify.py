import json
import math
import sys

import numpy as np
import pytest

import pntap.constants as C
import pntap.quadrature
from pntap.arith import ResidueCounter, character_table
from pntap.errors import CoverageError, DomainError
from pntap.verify import (BoundReport, compare_gm_baseline, verify_ap_bounds,
                          verify_bpt, verify_lehman, verify_psi1_explicit,
                          verify_short_interval, verify_zero_count)
from pntap.zeros import CharacterLabel, ZeroTable, load_zero_table


@pytest.fixture(scope="module")
def si10():
    return C.short_interval_constants(10.0, C.kappa_for(10.0))


@pytest.fixture(scope="module")
def ap10():
    *_, ap = C.chain(10.0, False)
    return ap


class TestTwistedBoundsEmpirical:
    """psi_chi/theta_chi against exact twisted sums for every chi mod 3..30."""

    # four fixed points and six seeded ones in [e^14, 1e8], where the benchmark's start
    XS = sorted([3e4, 1e5, 1e6, 1e7]
                + np.exp(np.random.default_rng(2021).uniform(14.0, math.log(1e8), 6)).tolist())

    def test_every_character_within_bounds(self):
        _, _, tp, _ = C.chain(10.0, False)
        counts = ResidueCounter(range(3, 31)).counts_at_multi(self.XS)
        checked = 0
        for q, snaps in counts.items():
            chars = character_table(q)
            values = np.array([chi.value_table() for chi in chars])
            for x, (_, theta, psi) in zip(self.XS, snaps):
                psi_chi, theta_chi = values @ psi, values @ theta
                assert chars[0].is_principal
                assert abs(psi_chi[0].real - x) < C.evaluate_bounds("principal", x, q)
                rhs_psi = C.evaluate_bounds("psi_chi", x, q, tp)
                rhs_theta = C.evaluate_bounds("theta_chi", x, q, tp)
                assert np.all(np.abs(psi_chi[1:]) < rhs_psi), (q, x)
                assert np.all(np.abs(theta_chi[1:]) < rhs_theta), (q, x)
                checked += len(chars) - 1
        assert checked == 2480  # 248 non-principal characters at 10 points


class TestBptSuite:
    def test_passes_on_data(self, zeta_table):
        report = verify_bpt(zeta_table)
        assert report.passed
        assert report.violations == 0
        assert len(report.samples) == 150

    def test_deterministic(self, zeta_table):
        r1 = verify_bpt(zeta_table)
        r2 = verify_bpt(zeta_table)
        s1 = [(s.x, s.lhs, s.rhs) for s in r1.samples]
        s2 = [(s.x, s.lhs, s.rhs) for s in r2.samples]
        assert s1 == s2

    def test_rejects_dirichlet(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("q,index,gamma\n7,3,2.5\n")
        t = load_zero_table(p, kind="dirichlet")
        with pytest.raises(DomainError):
            verify_bpt(t)

    @pytest.mark.parametrize("ordinates", [(), (3.0, 6.3), (14.1, 999.9)])
    def test_short_table_is_coverage_error(self, ordinates):
        # the ranges once shrank to fit the table: on (3.0, 6.3) every one of
        # them lay in [2 pi, 6.3], which holds no zero, and the suite passed
        top = max(ordinates, default=0.0)
        with pytest.raises(CoverageError, match=rf"height {top} is below 1000\b"):
            verify_bpt(_zeta(*ordinates))


def _zeta(*ordinates):
    return ZeroTable("zeta", np.array(ordinates), max(ordinates, default=0.0))


class TestZeroCountSuite:
    def test_grid_passes(self, zeta_table):
        report = verify_zero_count(zeta_table)
        assert report.passed
        assert len(report.samples) == 200

    @pytest.mark.parametrize("ordinates", [(), (3.0, 6.3)])
    def test_short_table_is_coverage_error(self, ordinates):
        # the grid from 2 pi + 0.1 once ran downward into count_remainder_R
        with pytest.raises(CoverageError, match=r"height .* below 2 pi \+ 0\.1 = 6\.383185"):
            verify_zero_count(_zeta(*ordinates))


class TestPsi1Suite:
    def test_residual_in_window(self, zeta_table):
        report = verify_psi1_explicit(zeta_table, [500.0, 1000.0], t_trunc=None)
        assert report.passed
        for s in report.samples:
            assert "residual" in s.what

    def test_tau_shrinks_with_height(self, zeta_table):
        taus = []
        for t_trunc in (2000.0, 5000.0, min(10000.0, zeta_table.max_height)):
            report = verify_psi1_explicit(zeta_table, [500.0], t_trunc=t_trunc)
            # tau is rhs minus the bare half-width
            half = 0.5 * (2.069 - 1.545)
            taus.append(report.samples[0].rhs - half)
        assert taus == sorted(taus, reverse=True)

    @pytest.mark.parametrize("ordinates", [(), (3.0,), (3.0, 14.0)])
    def test_short_table_is_coverage_error(self, ordinates):
        # without t_trunc the table's height was once taken as the cut
        with pytest.raises(CoverageError, match="below GAMMA_1 = 14.13472"):
            verify_psi1_explicit(_zeta(*ordinates), [500.0], t_trunc=None)

    @pytest.mark.parametrize("t_trunc", [0.0, 3.0, 14.0, float("nan")])
    def test_cut_below_first_zero_is_domain_error(self, zeta_table, t_trunc):
        with pytest.raises(DomainError, match="truncation height"):
            verify_psi1_explicit(zeta_table, [500.0], t_trunc=t_trunc)


class TestShortIntervalSuite:
    def test_skips_near_x0_and_passes_beyond(self, si10):
        x0 = math.exp(10.0)
        report = verify_short_interval(si10, [x0, 1e8])
        assert report.passed
        assert report.skipped == 1       # right side negative at x0
        real = [s for s in report.samples if not s.skipped]
        assert len(real) == 1
        assert real[0].lhs >= 0.0
        assert real[0].margin > 0.0

    def test_below_x0_rejected(self, si10):
        with pytest.raises(DomainError):
            verify_short_interval(si10, [100.0])


class TestApBoundsSuite:
    def test_q3_passes(self, ap10):
        xs = [math.exp(10.0), 1e5, 1e6]
        report = verify_ap_bounds(ap10, 3, 1, xs)
        assert report.passed
        kinds = {s.what for s in report.samples}
        assert kinds == {"pi", "theta", "psi"}

    def test_gcd_precondition(self, ap10):
        # a non-integer modulus or residue is a domain error as well
        for q, a in [(4, 2), (7.5, 1), (7, 1.5)]:
            with pytest.raises(DomainError):
                verify_ap_bounds(ap10, q, a, [1e5])


def test_no_points_is_domain_error(zeta_table, si10, ap10):
    # a suite over no x would pass on no sample
    for call in (lambda: verify_psi1_explicit(zeta_table, [], t_trunc=None),
                 lambda: verify_short_interval(si10, []),
                 lambda: verify_ap_bounds(ap10, 3, 1, []),
                 lambda: compare_gm_baseline(ap10, 3, [])):
        with pytest.raises(DomainError, match="at least one evaluation point"):
            call()


class TestLehmanSuite:
    def test_sparse_synthetic_table(self, tmp_path):
        # synthetic machinery check: a sparse table keeps the exact sums far
        # below the bound, so soundness of the plumbing is exercised even
        # though no real L-function data ships with the package
        p = tmp_path / "d.csv"
        rows = "".join(f"7,3,{g}\n" for g in (1.8, 5.2, 17.0, 44.0, 80.5))
        p.write_text("q,index,gamma\n" + rows)
        t = load_zero_table(p, kind="dirichlet", label=CharacterLabel(7, 3))
        report = verify_lehman(t)
        assert report.passed


class TestNoNumericalIntegration:
    def test_zero_sum_suites_never_integrate(self, monkeypatch, zeta_table, tmp_path):
        # integrate stays as the tests' reference; the certified zero-sum
        # estimators use closed forms only
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature.integrate called")

        original = pntap.quadrature.integrate
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "pntap" and getattr(module, "integrate", None) is original:
                monkeypatch.setattr(module, "integrate", refuse)
        assert verify_bpt(zeta_table).passed
        p = tmp_path / "d.csv"
        rows = "".join(f"7,3,{g}\n" for g in (1.8, 5.2, 17.0, 44.0, 80.5))
        p.write_text("q,index,gamma\n" + rows)
        t = load_zero_table(p, kind="dirichlet", label=CharacterLabel(7, 3))
        assert verify_lehman(t).passed


class TestGmComparison:
    def test_reports_without_failing(self, ap10):
        report = compare_gm_baseline(ap10, 3, [1e5, 1e8])
        assert report.passed
        assert len(report.samples) == 2

    def test_nonpositive_bound_is_skipped(self, ap10):
        # a negative pi bound bounds nothing; its positive margin is not a win
        report = compare_gm_baseline(ap10, 3, [1e5, 1e8])
        low, high = report.samples
        assert low.lhs < 0.0 and low.skipped
        assert high.lhs > 0.0 and not high.skipped
        assert report.skipped == 1 and report.passed

    def test_log500_row_improves(self):
        *_, ap = C.chain(500.0, False)
        x = math.exp(500.0)
        report = compare_gm_baseline(ap, 3, [x])
        assert report.samples[0].margin > 0.0  # ours strictly below baseline


class TestReportSerialization:
    def test_json_and_markdown(self):
        r = BoundReport("demo")
        r.add(10.0, 3, 1, 1.0, 2.0, what="psi")
        r.add(20.0, 3, 1, 5.0, -1.0, what="psi", skip_nonpositive_rhs=True)
        blob = json.loads(r.to_json())
        assert blob["check_name"] == "demo"
        assert blob["violations"] == 0
        assert blob["skipped"] == 1
        md = r.to_markdown()
        assert "PASS" in md and "skipped" in md

    def test_violation_counted(self):
        r = BoundReport("demo")
        r.add(10.0, 3, 1, 3.0, 2.0, what="psi")
        assert not r.passed
        assert r.violations == 1

    def test_counts_come_only_from_samples(self, ap10):
        # the counts are kept by add(); a report given a count and no sample would read FAIL
        for counts in ({"violations": 5}, {"skipped": 1}, {"samples": []}, {"runtime": 1.0}):
            with pytest.raises(TypeError):
                BoundReport("demo", **counts)
        # the skip count is read off the samples, for add() and for gm alike
        mixed = BoundReport("demo")
        for rhs in (2.0, -1.0, 0.0, 0.5, -4.0):
            mixed.add(10.0, 3, 1, 1.0, rhs, what="psi", skip_nonpositive_rhs=True)
        mixed.add(10.0, 3, 1, 1.0, -1.0, what="psi")
        gm = compare_gm_baseline(ap10, 3, [math.exp(t) for t in (10.5, 12.0, 16.0, 20.0)])
        for r in (mixed, gm):
            n = sum(s.skipped for s in r.samples)
            assert 0 < n < len(r.samples)
            assert r.skipped == n and json.loads(r.to_json())["skipped"] == n
            assert f"skipped: {n} " in r.to_markdown()
            with pytest.raises(AttributeError):
                r.skipped = 3
        assert (mixed.skipped, mixed.violations) == (3, 2)
