import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pntap.cli import fmt_cell, main, render_table

from conftest import ZEROS_FILE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstantsCommand:
    def test_ap_csv_row(self, capsys):
        code, out, _ = run(capsys, "constants", "--which", "ap",
                           "--log-x0", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("log_x0,a1")
        row = lines[1].split(",")
        assert row[0] == "10.00000"
        assert row[1] == "1.27146"
        assert abs(float(row[2]) - 11.85396) < 5e-3

    def test_soz_row_20(self, capsys):
        code, out, _ = run(capsys, "constants", "--which", "soz",
                           "--log-x0", "20", "--format", "csv")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == "1.39025"

    def test_below_domain_is_error_row(self, capsys):
        code, out, _ = run(capsys, "constants", "--which", "ap",
                           "--log-x0", "5", "--format", "csv")
        assert code == 2
        assert "error" in out

    def test_small_table(self, capsys):
        code, out, _ = run(capsys, "constants", "--which", "ap", "--small",
                           "--log-x0", "20", "--format", "csv")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[2]) - (-10.80603)) < 5e-3

    def test_csv_roundtrip_idempotent(self, capsys):
        code, first, _ = run(capsys, "constants", "--which", "soz",
                             "--log-x0", "10", "--log-x0", "20", "--format", "csv")
        header, *rows = first.strip().splitlines()
        reparsed = []
        for line in rows:
            cells = [c for c in line.split(",")]
            reparsed.append([float(c) if c else None for c in cells])
        rerendered = render_table(header.split(","), reparsed, "csv")
        assert rerendered.strip() == first.strip()

    @pytest.mark.parametrize("argv", [
        ["--which", "soz", "--log-x0", "nan"],
        ["--which", "all", "--log-x0", "inf"],
        ["--which", "all", "--log-x0", "720"],
    ], ids=["soz-nan", "all-inf", "all-720"])
    def test_bad_log_x0_is_error_row(self, capsys, argv):
        code, out, _ = run(capsys, "constants", *argv, "--format", "csv")
        assert code == 2
        rows = [line for line in out.splitlines() if "error: log x0 must be finite" in line]
        sections = 1 if "soz" in argv else 4
        assert len(rows) == sections

    def test_json_parses(self, capsys):
        code, out, _ = run(capsys, "constants", "--which", "ap",
                           "--log-x0", "10", "--format", "json")
        blob = json.loads(out)
        assert blob[0]["a1"] == pytest.approx(1.27146)


class TestCountAndBound:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "--x", "100", "--q", "4", "--a", "1")
        assert code == 0
        assert json.loads(out)["pi"] == 11

    def test_count_bad_class(self, capsys):
        code, _, err = run(capsys, "count", "--x", "100", "--q", "4", "--a", "2")
        assert code == 2
        assert "gcd" in err

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--kind", "pi_ap", "--x", "1e12",
                           "--q", "3", "--log-x0", "20")
        assert code == 0
        blob = json.loads(out)
        assert blob["rhs"] == blob["rhs"]  # finite
        assert "provenance" in blob

    @pytest.mark.parametrize("q, extra, log_x0, rhs", [
        ("3", [], "20", "-4293729.29"),
        ("5", ["--small"], "16.166886", "-823903.28"),
    ], ids=["general", "small"])
    def test_bound_refuses_a_negative_rhs(self, capsys, q, extra, log_x0, rhs):
        code, out, err = run(capsys, "bound", "--kind", "pi_ap", "--x", "1e9", "--q", q,
                             *extra, "--log-x0", log_x0)
        assert code == 2
        assert out == ""
        for part in ("pi_ap", "x=1000000000.0", f"q={q}", f"log x0={float(log_x0)!r}",
                     f"rhs={rhs}"):
            assert part in err

    def test_bound_small_defaults_to_its_first_row(self, capsys):
        # without --log-x0 the small chain starts at log(1.05e7), as verify ap
        # --small does; its rhs there is negative, so the refusal names that row
        code, out, err = run(capsys, "bound", "--kind", "pi_ap", "--x", "1e12", "--q", "5",
                             "--small")
        assert code == 2
        assert out == ""
        assert "requires log x0" not in err
        for part in ("pi_ap", f"log x0={math.log(1.05e7)!r}", "rhs=-"):
            assert part in err

    def test_bound_principal(self, capsys):
        code, out, _ = run(capsys, "bound", "--kind", "principal", "--x", "100",
                           "--q", "3", "--log-x0", "10")
        blob = json.loads(out)
        expected = math.sqrt(100) * math.log(100) ** 2 / (8 * math.pi) \
            + 1.12 * math.log(3) * math.log(100)
        assert blob["rhs"] == pytest.approx(expected, rel=1e-12)


    @pytest.mark.parametrize("x", ["1e309", "nan"])
    @pytest.mark.parametrize("kind", ["principal", "psi_chi"])
    def test_bound_non_finite_x_is_domain_error(self, capsys, kind, x):
        code, out, err = run(capsys, "bound", "--kind", kind, "--x", x,
                             "--q", "3", "--log-x0", "10")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("extra", [["--x", "nan"], ["--x", "1e309"]],
                             ids=["x-nan", "x-inf"])
    def test_count_bad_x_or_segment_is_domain_error(self, capsys, extra):
        code, out, err = run(capsys, "count", "--q", "5", "--a", "2", *extra)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_bound_log_x0_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "bound", "--kind", "psi_ap", "--x", "1e20",
                             "--q", "5", "--log-x0", "720")
        assert code == 2
        assert out == ""
        assert "log x0 must be finite" in err

    @pytest.mark.parametrize("x", ["1e40", "1e300"])
    def test_count_x_beyond_sieve_limit(self, capsys, x):
        code, out, err = run(capsys, "count", "--x", x, "--q", "5", "--a", "2")
        assert code == 2
        assert out == ""
        assert "sieve's limit" in err


class TestVerifyCommand:
    def test_missing_zeros_message(self, capsys, monkeypatch):
        monkeypatch.delenv("PNTAP_ZEROS_DIR", raising=False)
        code, _, err = run(capsys, "verify", "bpt")
        assert code == 2
        assert "one decimal ordinate per line" in err

    def test_missing_zeros_names_its_sources(self, capsys, monkeypatch):
        monkeypatch.delenv("PNTAP_ZEROS_DIR", raising=False)
        code, _, err = run(capsys, "verify", "bpt")
        assert code == 2
        assert "None" not in err
        assert "--zeros" in err and "PNTAP_ZEROS_DIR" in err

    def test_zeros_dir_serves_zeta_suites_only(self, capsys, monkeypatch):
        # the directory holds zeta_zeros.txt; it was once parsed as a
        # dirichlet CSV and failed on its header
        monkeypatch.setenv("PNTAP_ZEROS_DIR", str(ZEROS_FILE.parent))
        code, out, err = run(capsys, "verify", "lehman", "--q", "7")
        assert code == 2
        assert out == ""
        assert "--zeros" in err and "line 1" not in err
        code, out, _ = run(capsys, "verify", "count")
        assert code == 0
        assert "PASS" in out

    def test_bpt_passes(self, capsys):
        if not ZEROS_FILE.exists():
            pytest.skip("zero table not generated")
        code, out, _ = run(capsys, "verify", "bpt", "--zeros", str(ZEROS_FILE))
        assert code == 0
        assert "PASS" in out

    def test_report_file_json(self, capsys, tmp_path):
        if not ZEROS_FILE.exists():
            pytest.skip("zero table not generated")
        out_file = tmp_path / "r.json"
        code, _, _ = run(capsys, "verify", "count", "--zeros", str(ZEROS_FILE),
                         "--format", "json", "--out", str(out_file))
        assert code == 0
        blob = json.loads(out_file.read_text())
        assert blob["violations"] == 0

    def test_ap_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "ap", "--q", "3", "--a", "1",
                           "--x-max", "1e6")
        assert code == 0

    # an explicit 0 is a value, not "use the default": each of these once
    # ran the default chain, modulus, class or range and passed
    @pytest.mark.parametrize("argv", [
        ["short-interval", "--log-x0", "0", "--x", "3e5"],
        ["ap", "--log-x0", "0", "--x", "3e5"],
        ["gm", "--log-x0", "0", "--x", "3e5"],
        ["ap", "--q", "0", "--x-max", "1e6"],
        ["gm", "--q", "0", "--x-max", "1e6"],
        ["ap", "--q", "3", "--a", "0", "--x-max", "1e6"],
        ["ap", "--q", "3", "--a", "1", "--x-max", "0"],
        ["short-interval", "--x-max", "0"],
        ["psi1", "--zeros", str(ZEROS_FILE), "--x", "500", "--t-trunc", "0"],
    ], ids=["si-log-x0", "ap-log-x0", "gm-log-x0", "ap-q", "gm-q", "ap-a",
            "ap-x-max", "si-x-max", "psi1-t-trunc"])
    def test_explicit_zero_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_psi1_t_trunc_above_table_is_coverage_error(self, capsys):
        # the table ends at 10049.9; the sum was once clipped there silently
        code, out, err = run(capsys, "verify", "psi1", "--zeros", str(ZEROS_FILE),
                             "--x", "500", "--t-trunc", "1e6")
        assert code == 2
        assert out == ""
        assert "does not reach the truncation height" in err

    def test_psi1_t_trunc_below_first_zero_names_flag(self, capsys):
        code, out, err = run(capsys, "verify", "psi1", "--zeros", str(ZEROS_FILE),
                             "--x", "500", "--t-trunc", "3")
        assert code == 2
        assert out == ""
        assert "--t-trunc" in err and "14.13472" in err

    @pytest.mark.parametrize("suite", ["count", "psi1"])
    @pytest.mark.parametrize("text", ["", "3.0\n6.3\n"], ids=["empty", "short"])
    def test_short_table_is_coverage_error(self, capsys, tmp_path, suite, text):
        table = tmp_path / "z.txt"
        table.write_text(text)
        code, out, err = run(capsys, "verify", suite, "--zeros", str(table))
        assert code == 2
        assert out == ""
        assert "table height" in err and "below" in err
        assert "requires" not in err and "truncation" not in err

    TWO_GROUPS = "q,index,gamma\n7,3,1.8\n7,5,2.0\n7,3,5.2\n7,5,6.1\n"

    @pytest.mark.parametrize("label,wanted", [
        (["--q", "7"], "(7, 1)"), (["--q", "11", "--index", "2"], "(11, 2)"),
    ], ids=["index-default", "other-modulus"])
    def test_lehman_missing_group_is_error(self, capsys, tmp_path, label, wanted):
        # such a label once loaded an empty table and failed as "too short"
        table = tmp_path / "two.csv"
        table.write_text(self.TWO_GROUPS)
        code, out, err = run(capsys, "verify", "lehman", "--zeros", str(table), *label)
        assert code == 2
        assert out == ""
        assert "too short" not in err
        assert "(7, 3), (7, 5)" in err
        assert wanted in err

    def test_lehman_several_groups_names_flags(self, capsys, tmp_path):
        table = tmp_path / "two.csv"
        table.write_text(self.TWO_GROUPS)
        code, out, err = run(capsys, "verify", "lehman", "--zeros", str(table))
        assert code == 2
        assert out == ""
        assert "--q" in err and "--index" in err

    def test_lehman_index_without_q_is_error(self, capsys, tmp_path):
        # the file's only group (7, 3) was once checked in place of index 5
        table = tmp_path / "one.csv"
        table.write_text("q,index,gamma\n7,3,1.8\n7,3,5.2\n7,3,17.0\n")
        code, out, err = run(capsys, "verify", "lehman", "--zeros", str(table),
                             "--index", "5")
        assert code == 2
        assert out == ""
        assert "--q" in err

    def test_lehman_index_zero_is_error(self, capsys, tmp_path):
        # --index 0 once selected the character with index 1
        table = tmp_path / "dirichlet.csv"
        table.write_text("q,index,gamma\n5,1,6.6485\n5,1,9.8314\n5,1,11.9588\n")
        code, out, err = run(capsys, "verify", "lehman", "--zeros", str(table),
                             "--q", "5", "--index", "0")
        assert code == 2
        assert out == ""
        assert "not coprime" in err

    def test_gm_suite_small_defaults_above_threshold(self, capsys):
        # the small chain's pi bound is negative at these x: such
        # samples are skipped, not read as beating the baseline
        code, out, err = run(capsys, "verify", "gm", "--small", "--format", "json")
        assert code == 0, err
        blob = json.loads(out)
        samples = blob["samples"]
        assert len(samples) == 8
        assert samples[0]["x"] == pytest.approx(1.05e7, rel=1e-12)
        assert samples[0]["lhs"] < 0.0 and samples[0]["skipped"]
        assert all(s["skipped"] == (s["lhs"] <= 0.0) for s in samples)
        assert blob["skipped"] == sum(s["skipped"] for s in samples)

    def test_ap_suite_small_defaults_above_threshold(self, capsys):
        code, out, _ = run(capsys, "verify", "ap", "--small", "--q", "5",
                           "--a", "2", "--x", "3e7")
        assert code == 0
        assert "skipped" in out


class TestSmallDefaultGrid:
    def test_small_ap_grid_starts_at_20(self, capsys):
        code = main(["constants", "--which", "ap", "--small", "--format", "csv"])
        out = capsys.readouterr().out
        rows = out.strip().splitlines()[1:]
        assert code == 0
        assert len(rows) == 13
        assert rows[0].startswith("20.00000")


class TestAllSections:
    KAPPA_ROWS = [f"{v:.5f}" for v in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100,
                                        150, 200, 250, 500)]
    SOZ_ROWS = KAPPA_ROWS[:1] + [f"{math.log(1.05e7):.5f}"] + KAPPA_ROWS[1:]

    @pytest.mark.parametrize("small", [False, True], ids=["general", "small"])
    def test_default_grid_of_each_section(self, capsys, small):
        code, out, _ = run(capsys, "constants", "--which", "all", "--format", "csv",
                           *(["--small"] if small else []))
        assert code == 0
        columns = [[line.split(",")[0] for line in section.splitlines()[1:]]
                   for section in out.strip().split("\n\n")]
        chain_rows = self.KAPPA_ROWS[1:] if small else self.KAPPA_ROWS
        assert columns == [self.SOZ_ROWS, self.KAPPA_ROWS, chain_rows, chain_rows]

    def test_small_chain_below_its_threshold(self, capsys):
        # log x0 = 15 < log(1.05e7): soz and kappa rows exist, the small chain does not
        code, out, _ = run(capsys, "constants", "--which", "all", "--small",
                           "--log-x0", "15", "--format", "csv")
        assert code == 2
        firsts = [section.splitlines()[1].split(",")[:2]
                  for section in out.strip().split("\n\n")]
        assert [lx for lx, _ in firsts] == ["15.00000"] * 4
        for _, cell in firsts[:2]:
            assert math.isfinite(float(cell))
        for _, cell in firsts[2:]:
            assert cell.startswith("error:")

        code, out, _ = run(capsys, "constants", "--which", "all", "--small",
                           "--log-x0", "15", "--format", "json")
        assert code == 2
        soz, si, tp, ap = ([json.loads(section)[0] for section in out.strip().split("\n\n")])
        assert isinstance(soz["k1"], float) and soz["k1_small"] is None
        assert all(isinstance(v, float) for v in si.values())
        assert tp["k5"].startswith("error:") and tp["k6"] is None
        assert ap["a1"].startswith("error:") and ap["a6"] is None


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "pntap", "constants", "--which", "soz",
             "--log-x0", "10", "--format", "csv"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].startswith("10.00000,3.10557")

    def test_kappa_search_needs_no_scipy(self):
        # log x0 = 37.5 is off the reference grid, so the kappa search runs
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys, pntap, pntap.cli as cli; "
                "assert cli.main(['constants', '--which', 'all', '--log-x0', '37.5']) == 0; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestRendering:
    def test_fmt_cell(self):
        assert fmt_cell(1.271456) == "1.27146"
        assert fmt_cell(83135.7) == "8.31357e+04"
        assert fmt_cell(-8311.79) == "-8311.79000"
        assert fmt_cell(None) == ""

    def test_md_table_shape(self):
        out = render_table(["a", "b"], [[1.0, 2.0]], "md")
        assert out.splitlines()[0].startswith("| a")
