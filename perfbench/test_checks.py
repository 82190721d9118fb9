"""Each benchmark check passes on real output and rejects a corrupted one.

Small inputs only; run with `PYTHONPATH=src python -m pytest perfbench`.
"""
import contextlib
import copy
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import pntap.cli as cli
import pntap.verify as verify
from pntap.zeros import load_zero_table
from perfbench import checks, workloads

ROOT = Path(__file__).resolve().parents[1]


def failed(outcomes):
    return {o.name for o in outcomes if o.failed}


def cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# constants_chain
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def constants_rows():
    rc, text = cli_output(["constants", "--which", "all", "--format", "json",
                           "--log-x0", "10", "--log-x0", "20", "--log-x0", "100"])
    assert rc == 0
    return checks.parse_constants(text)


def test_constants_rows_pass_and_saturated_row_is_the_known_fault(constants_rows):
    for lx in (10.0, 20.0):
        assert not checks.check_constants_row("c", lx, constants_rows[lx], False).failed
    sat = checks.check_constants_row("c", 100.0, constants_rows[100.0], False)
    assert sat.failed and sat.known_fault and "nu1" in sat.detail


@pytest.mark.parametrize("field, change, what", [
    ("k2", lambda v: v + 1e-2, "nu1"),          # nu1 off its closed form
    ("k2_small", lambda v: v + 1e-2, "nu1~"),   # nu1~ off its closed form
    ("a2", lambda v: v + 1e-2, "a2="),          # a2 = 1/8pi + a4 a1 broken
    ("a3", lambda v: v * 1.001, "a3="),         # a3 = (1 + a5)/log 2 broken
    ("a6", lambda v: v + 1e-3, "a4-a6"),        # a4 - a6 = 1.44270 broken
    ("k1", lambda v: v + 0.1, "published"),     # off the published table
    ("k4", lambda v: v * 1.01, "published"),
])
def test_constants_row_rejects_corruption(constants_rows, field, change, what):
    row = dict(constants_rows[20.0])
    row[field] = change(row[field])
    out = checks.check_constants_row("c", 20.0, row, False)
    assert out.failed and not out.known_fault and what in out.detail


def test_constants_row_rejects_error_cells_and_missing_rows(constants_rows):
    row = dict(constants_rows[10.0], k5="error: boom")
    assert checks.check_constants_row("c", 10.0, row, False).failed
    inp = {"calls": [["constants", "--which", "all", "--format", "json", "--log-x0", "10"]],
           "off_grid": [10.0, 33.0], "grid": [], "ordinates": None}
    rc, text = cli_output(inp["calls"][0])
    assert "constants off-grid rows" in failed(checks.check_constants_chain(inp, [(rc, text)]))


def test_verify_report_checks():
    table = load_zero_table(ROOT / "tests" / "data" / "zeta_zeros_first100.txt")
    report = json.loads(verify.verify_zero_count(table).to_json())
    assert not checks.check_verify_output("count", 0, json.dumps(report), table.ordinates).failed
    bad = copy.deepcopy(report)
    bad["samples"][7]["lhs"] += 1.0
    assert checks.check_verify_output("count", 0, json.dumps(bad), table.ordinates).failed
    bad = dict(report, violations=1)
    assert checks.check_verify_output("count", 1, json.dumps(bad)).failed
    bad = dict(report, samples=report["samples"][:-1])
    assert checks.check_verify_output("count", 0, json.dumps(bad)).failed


# ---------------------------------------------------------------------------
# ap_*
# ---------------------------------------------------------------------------

AP_INPUT = {"moduli": [3, 4, 10], "xs": [workloads.X0, 1e5, 3e5],
            "si_xs": [math.exp(14.5)]}


@pytest.fixture(scope="module")
def ap_output():
    return workloads.run_ap(AP_INPUT)


def test_ap_checks_pass(ap_output):
    assert not failed(checks.check_ap(AP_INPUT, ap_output))


def corrupted(out, q, i, k, r, value=None, scale=None):
    out = copy.deepcopy(out)
    arr = out["counts"][q][i][k]
    arr[r] = value if scale is None else arr[r] * scale
    return out


def test_ap_rejects_totals_mismatch(ap_output):
    out = corrupted(ap_output, 4, 2, 0, 1, value=ap_output["counts"][4][2][0][1] + 1)
    assert "x=300000 totals agree across moduli" in failed(checks.check_ap(AP_INPUT, out))


def test_ap_rejects_crowded_non_coprime_class(ap_output):
    out = corrupted(ap_output, 10, 1, 0, 5, value=2)
    assert "x=100000 non-coprime classes hold <= 1 prime" in failed(checks.check_ap(AP_INPUT, out))


def test_ap_rejects_schoenfeld_violation(ap_output):
    out = copy.deepcopy(ap_output)
    for q in AP_INPUT["moduli"]:
        pi, theta, psi = out["counts"][q][2]
        pi += 1000  # far above sqrt(x) log x/8pi in every class
        theta *= 1.1
        psi *= 1.1
    names = failed(checks.check_ap(AP_INPUT, out))
    assert {f"x=300000 |{f}-{m}| Schoenfeld" for f, m in
            (("pi", "li"), ("theta", "x"), ("psi", "x"))} <= names


def test_ap_rejects_wrong_li_and_class_violation(ap_output):
    out = copy.deepcopy(ap_output)
    out["li"][1] *= 1 + 1e-8
    out["rhs"][3][2][0] = 1e-3  # pi_ap rhs too small to hold
    names = failed(checks.check_ap(AP_INPUT, out))
    assert {"x=100000 Li", "x=300000 q=3 classes"} <= names


def test_ap_rejects_oracle_mismatch(ap_output):
    out = corrupted(ap_output, 3, 0, 2, 1, scale=1.001)
    assert "x=22026.5 counts match plain sieve" in failed(checks.check_ap(AP_INPUT, out))


def test_known_pi_values():
    pi = np.zeros(3, dtype=np.int64)
    pi[1], pi[2], pi[0] = 332_289, 332_289, 1
    snaps = {3: (pi, np.full(3, 1e7 / 3), np.full(3, 1e7 / 3))}
    names = failed(checks.check_checkpoint(1e7, snaps, checks.li_offset(1e7)))
    assert "pi(10000000)" not in names
    pi[1] += 1
    names = failed(checks.check_checkpoint(1e7, snaps, checks.li_offset(1e7)))
    assert "pi(10000000)" in names


def test_short_interval_rejects_wrong_lhs(ap_output):
    out = copy.deepcopy(ap_output)
    s = out["short_interval"].samples[0]
    out["short_interval"].samples[0] = dataclasses.replace(s, lhs=s.lhs + 1.0)
    assert any(n.startswith("short interval x=") for n in failed(checks.check_ap(AP_INPUT, out)))


# ---------------------------------------------------------------------------
# twisted_characters
# ---------------------------------------------------------------------------

TW_INPUT = {"moduli": [15, 16], "x": 3e4,
            "pairs": np.random.default_rng(0).integers(1, 10 ** 6, size=(32, 2))}


@pytest.fixture(scope="module")
def tw_output():
    return workloads.run_twisted_characters(TW_INPUT)


def tw_check(out, q=15):
    return failed(checks.check_twisted_q(q, TW_INPUT["x"], out[q], TW_INPUT["pairs"]))


def test_twisted_checks_pass(tw_output):
    assert not failed(checks.check_twisted_characters(TW_INPUT, tw_output))


def test_twisted_rejects_lost_character(tw_output):
    out = copy.deepcopy(tw_output)
    for key in ("chars", "values", "psi_chi", "theta_chi"):
        out[15][key] = out[15][key][:-1]
    assert "q=15 count" in tw_check(out)


def test_twisted_rejects_wrong_primitivity(tw_output):
    out = copy.deepcopy(tw_output)
    chi = out[16]["chars"][-1]
    out[16]["chars"] = out[16]["chars"][:-1] + (
        dataclasses.replace(chi, is_primitive=not chi.is_primitive),)
    assert "q=16 primitive count" in tw_check(out, 16)


def test_twisted_rejects_wrong_value(tw_output):
    out = copy.deepcopy(tw_output)
    out[15]["values"][1, 2] *= -1
    assert {"q=15 V V* = phi I", "q=15 multiplicative"} <= tw_check(out)


def test_twisted_rejects_wrong_sums(tw_output):
    out = copy.deepcopy(tw_output)
    out[15]["masses_theta"][4] += 1.0
    out[15]["psi_chi"][0] += 1.0
    out[15]["rhs_theta"] = 1.0
    names = tw_check(out)
    assert {"q=15 masses match plain sieve", "q=15 orthogonality recovers psi(x;q,a)",
            "q=15 psi(x, chi0)"} <= names
    assert any(n.endswith("twisted bounds") for n in names)
