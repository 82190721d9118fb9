"""The four workloads: seeded inputs (`prepare`) and the timed work (`run`).

`prepare` runs during set-up and `run` is the timed region.  Both drive
pntap only through its public functions, looked up on the module at call
time so that traced runs see the wrappers.  The checks live in checks.py
and run after the timer stops.
"""
from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import pntap.arith as arith
import pntap.cli as cli
import pntap.constants as C
import pntap.quadrature as quadrature
import pntap.verify as verify
import pntap.zeros as zeros

ZEROS_FILE = Path("tests") / "data" / "zeta_zeros.txt"
X0 = math.exp(10.0)  # every ap / twisted check uses the chain at log x0 = 10
# Seeded ap and short-interval points lie above e^14.  Just above the x where
# a log x0 = 10 right-hand side turns positive (log x ~ 11.86 for the short
# interval, 13.5-13.7 for pi_ap) the bounds fail in a narrow band, so a
# seeded point there would fail on some seeds only (README, "Left out").
SEEDED_FROM = math.exp(14.0)
AP_KINDS = ("pi_ap", "theta_ap", "psi_ap")

# constants_chain: one seeded off-grid row per band, all below the rows the
# saturating quadrature spoils, plus one fixed row that it does spoil
OFF_GRID_BANDS = ((16.5, 20.0), (20.0, 40.0), (40.0, 60.0), (60.0, 75.0))
SATURATED_OFF_GRID = 120.0
CONSTANTS_VARIANTS = ([], ["--small"], ["--small", "--self-consistent"])
VERIFY_SUITES = ("bpt", "count", "psi1")

# ap_*: sizes scaled so one round lasts a few seconds (see README)
AP_MANY_MODULI = tuple(range(3, 31))
AP_MANY_X_MAX = 2e8
AP_LARGE_MODULI = (9973, 9240, 8192, 10000)
AP_LARGE_X_MAX = 3e8
AP_FIXED_CHECKPOINTS = (1e7, 1e8)
AP_SEEDED_CHECKPOINTS = 6
SHORT_INTERVAL_POINTS = 6

# twisted_characters: odd CRT, 2-power, prime, mixed
TWISTED_MODULI = (1001, 1024, 997, 840)
TWISTED_X_RANGE = (5e6, 1e7)
MULTIPLICATIVITY_PAIRS = 64


def _log_bands(lo: float, hi: float, n: int, rng) -> list[float]:
    """One log-uniform point in the middle 80% of each of n equal log-bands."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        w = b - a
        out.append(math.exp(rng.uniform(a + 0.1 * w, b - 0.1 * w)))
    return out


def general_chain(log_x0: float):
    """(short-interval, twisted, progression) records of the general chain."""
    kappa = C.kappa_for(log_x0)
    si = C.short_interval_constants(log_x0, kappa)
    soz = C.soz_constants(log_x0)
    tp = C.twisted_psi_constants(log_x0, soz, si)
    return si, tp, C.ap_constants(log_x0, tp)


# ---------------------------------------------------------------------------
# constants_chain
# ---------------------------------------------------------------------------

def prepare_constants_chain(seed: int, root: Path) -> dict:
    rng = np.random.default_rng(seed)
    rows = [round(float(rng.uniform(lo, hi)), 2) for lo, hi in OFF_GRID_BANDS]
    rows.append(SATURATED_OFF_GRID)
    zeros_path = root / ZEROS_FILE
    table = zeros.load_zero_table(zeros_path, kind="zeta")
    base = ["constants", "--which", "all", "--format", "json"]
    off_grid = [arg for lx in rows for arg in ("--log-x0", repr(lx))]
    calls = [base + v for v in CONSTANTS_VARIANTS]
    calls += [base + v + off_grid for v in CONSTANTS_VARIANTS]
    calls += [["verify", s, "--zeros", str(zeros_path), "--format", "json"]
              for s in VERIFY_SUITES]
    return {"calls": calls, "grid": list(C.LOG_X0_GRID), "off_grid": rows,
            "ordinates": table.ordinates}


def run_constants_chain(inp: dict) -> list[tuple[int, str]]:
    out = []
    for argv in inp["calls"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out.append((rc, buf.getvalue()))
    return out


# ---------------------------------------------------------------------------
# ap_many_moduli / ap_large_moduli
# ---------------------------------------------------------------------------

def _prepare_ap(seed: int, moduli, x_max: float, short_interval: bool) -> dict:
    rng = np.random.default_rng(seed)
    xs = sorted({X0, *AP_FIXED_CHECKPOINTS, x_max,
                 *_log_bands(SEEDED_FROM, x_max, AP_SEEDED_CHECKPOINTS, rng)})
    si_xs = _log_bands(SEEDED_FROM, x_max, SHORT_INTERVAL_POINTS, rng) if short_interval else []
    return {"moduli": list(moduli), "xs": xs, "si_xs": si_xs}


def prepare_ap_many_moduli(seed: int, root: Path) -> dict:
    return _prepare_ap(seed, AP_MANY_MODULI, AP_MANY_X_MAX, short_interval=True)


def prepare_ap_large_moduli(seed: int, root: Path) -> dict:
    return _prepare_ap(seed, AP_LARGE_MODULI, AP_LARGE_X_MAX, short_interval=False)


def run_ap(inp: dict) -> dict:
    si, _, ap = general_chain(10.0)
    xs = inp["xs"]
    counts = arith.ResidueCounter(inp["moduli"]).counts_at_multi(xs)
    rhs = {q: [[C.evaluate_bounds(kind, x, q, ap) for kind in AP_KINDS] for x in xs]
           for q in inp["moduli"]}
    li = [quadrature.log_integral_li(x) for x in xs]
    report = verify.verify_short_interval(si, inp["si_xs"]) if inp["si_xs"] else None
    return {"counts": counts, "rhs": rhs, "li": li, "short_interval": report, "si": si}


# ---------------------------------------------------------------------------
# twisted_characters
# ---------------------------------------------------------------------------

def prepare_twisted_characters(seed: int, root: Path) -> dict:
    rng = np.random.default_rng(seed)
    return {"moduli": list(TWISTED_MODULI),
            "x": float(rng.uniform(*TWISTED_X_RANGE)),
            "pairs": rng.integers(1, 10 ** 6, size=(MULTIPLICATIVITY_PAIRS, 2))}


def run_twisted_characters(inp: dict) -> dict:
    x = inp["x"]
    _, tp, _ = general_chain(10.0)
    out = {}
    for q in inp["moduli"]:
        chars = arith.character_table(q)
        m_psi = arith.residue_masses(x, q, "psi")
        m_theta = arith.residue_masses(x, q, "theta")
        values = np.array([chi.value_table() for chi in chars])
        out[q] = {
            "chars": chars, "values": values,
            "masses_psi": m_psi, "masses_theta": m_theta,
            "psi_chi": values @ m_psi, "theta_chi": values @ m_theta,
            "rhs_psi": C.evaluate_bounds("psi_chi", x, q, tp),
            "rhs_theta": C.evaluate_bounds("theta_chi", x, q, tp),
        }
    return out


WORKLOADS = {
    "constants_chain": (prepare_constants_chain, run_constants_chain),
    "ap_many_moduli": (prepare_ap_many_moduli, run_ap),
    "ap_large_moduli": (prepare_ap_large_moduli, run_ap),
    "twisted_characters": (prepare_twisted_characters, run_twisted_characters),
}
