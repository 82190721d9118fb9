"""Independent checks of each workload's outputs, run after the timer stops.

Each check returns Outcomes: a named group of operations with how many
were attempted and how many failed.  Nothing here calls pntap; the
references are closed forms, the paper's published tables
(tables.py), a plain numpy sieve, mpmath's li, and Schoenfeld's
RH-conditional bounds for pi, theta and psi.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from perfbench import tables

PI = math.pi
LOG2 = math.log(2.0)
# rows from this log x0 up carry the saturated reference quadrature, so
# their nu1 / nu1~ no longer match the closed form (a known fault)
SATURATED_FROM = 90.0
KNOWN_PI = {10 ** 7: 664_579, 10 ** 8: 5_761_455, 10 ** 9: 50_847_534}
VERIFY_SAMPLES = {"bpt": 150, "count": 200, "psi1": 3}


@dataclass
class Outcome:
    name: str
    attempted: int
    failed: int
    known_fault: bool = False
    detail: str = ""


def single(name: str, ok: bool, detail: str = "", known_fault: bool = False) -> Outcome:
    return Outcome(name, 1, 0 if ok else 1, known_fault and not ok, "" if ok else detail)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def primes_upto(n: int) -> np.ndarray:
    """Plain odd-only numpy sieve of Eratosthenes."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    is_p[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if is_p[p]:
            is_p[p * p::2 * p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def residue_oracle(n: int, q: int):
    """Per-residue (pi, theta, psi) over [2, n] from the plain sieve."""
    pr = primes_upto(n)
    res = pr % q
    pi = np.bincount(res, minlength=q)
    theta = np.bincount(res, weights=np.log(pr.astype(np.float64)), minlength=q)
    psi = theta.copy()
    for p in pr[pr <= math.isqrt(n)].tolist():
        pk = p * p
        while pk <= n:
            psi[pk % q] += math.log(p)
            pk *= p
    return pi, theta, psi


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factor(n).items())


def mobius(n: int) -> int:
    f = factor(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def coprime_mask(q: int) -> np.ndarray:
    return np.array([math.gcd(r, q) == 1 for r in range(q)])


def li_offset(x: float) -> float:
    """Li(x) = li(x) - li(2), from mpmath."""
    return float(mpmath.li(x, offset=True))


# ---------------------------------------------------------------------------
# constants_chain
# ---------------------------------------------------------------------------

def _half_ulp(v: float) -> float:
    """Rounding of a printed cell: 5 decimals, or 6 significant digits >= 1e4."""
    return 5e-6 * max(1.0, abs(v))


def nu1_closed(log_x0: float, lower: float) -> float:
    """0.494 w0 + (asinh 2 eta - asinh 2 lower)/pi, w0 = (1/4 + lower^2)^(-1/2)."""
    eta = math.exp(0.5 * log_x0) / log_x0
    w0 = 1.0 / math.sqrt(0.25 + lower * lower)
    return 0.494 * w0 + (math.asinh(2.0 * eta) - math.asinh(2.0 * lower)) / PI


def nu1_from_k2(log_x0: float, k2: float, small: bool) -> float:
    """Invert k2 = fac32 (1/pi + 0.494 log x0/sqrt x0) + nu1 + nu3 (+ 0.94873)."""
    sx = math.exp(0.5 * log_x0)
    eta = sx / log_x0
    fac32 = (1.0 + log_x0 / sx) ** 1.5 + 1.0
    nu3 = 0.494 / eta - math.log(eta) / PI
    rest = fac32 * (1.0 / PI + 0.494 * log_x0 / sx) + nu3
    return k2 - rest - (0.0 if small else 0.94873)


def nu1_check(log_x0: float, k2: float, small: bool) -> tuple[bool, str]:
    lower = 200.0 if small else 5.0 / 7.0
    got, want = nu1_from_k2(log_x0, k2, small), nu1_closed(log_x0, lower)
    ok = abs(got - want) <= 1e-4 * abs(want) + 2e-5
    return ok, f"nu1{'~' if small else ''}={got:.6g} vs closed form {want:.6g}"


def identities(a: list[float]) -> list[tuple[bool, str]]:
    a1, a2, a3, a4, a5, a6 = a
    u = _half_ulp
    return [
        (abs(a4 - a6 - 1.44270) <= 2 * (u(a4) + u(a6)), f"a4-a6={a4 - a6:.6g}"),
        (abs(a3 - (1 + a5) / LOG2) <= 2 * (u(a3) + u(a5) / LOG2),
         f"a3={a3:.6g} vs (1+a5)/log2={(1 + a5) / LOG2:.6g}"),
        (abs(a2 - (1 / (8 * PI) + a4 * a1)) <= 2 * (u(a2) + abs(a1) * u(a4) + abs(a4) * u(a1)),
         f"a2={a2:.6g} vs 1/8pi+a4*a1={1 / (8 * PI) + a4 * a1:.6g}"),
    ]


def _table_row(lx: float, table: dict):
    for key, ref in table.items():
        if abs(key - lx) < 1e-4:
            return ref
    return None


def table_checks(lx: float, row: dict, small: bool) -> list[tuple[bool, str]]:
    """Published-table agreement for general rows and k1~/k2~, log x0 <= 80."""
    out = []

    def cmp(names, ref, label):
        for name, r in zip(names, ref):
            if r is not None and name in row:
                out.append((tables.close(row[name], r),
                            f"{label} {name}={row[name]} vs published {r}"))

    soz = _table_row(lx, tables.SOZ)
    if soz is not None:
        cmp(("k1", "k1_small", "k2", "k2_small"), soz, "soz")
    si = _table_row(lx, tables.SHORT_INTERVAL)
    if si is not None:
        cmp(("kappa0", "kappa1", "kappa2", "k3", "k4"), si, "short-interval")
    if not small:
        tw = _table_row(lx, tables.TWISTED)
        if tw is not None:
            cmp(("k5", "k6", "Omega0", "Omega1", "Omega2"), tw, "twisted")
        ap = _table_row(lx, tables.AP)
        if ap is not None:
            cmp(("a1", "a2", "a3", "a4", "a5", "a6"), ap, "ap")
    return out


def parse_constants(text: str) -> dict[float, dict]:
    """Merge the four JSON sections of `constants --which all` by log_x0."""
    rows: dict[float, dict] = {}
    for section in text.strip().split("\n\n"):
        for rec in json.loads(section):
            lx = float(rec["log_x0"])
            for key in rows:
                if abs(key - lx) < 1e-4:
                    lx = key
            rows.setdefault(lx, {}).update(rec)
    return rows


def check_constants_row(label: str, lx: float, row: dict, small: bool) -> Outcome:
    name = f"{label} log_x0={lx:g}"
    bad = [f"{k}: {v}" for k, v in row.items() if isinstance(v, str)]
    if bad:
        return single(name, False, "error cells: " + "; ".join(bad))
    nu_results = [nu1_check(lx, row["k2"], small=False)]
    if row.get("k2_small") is not None:
        nu_results.append(nu1_check(lx, row["k2_small"], small=True))
    others = []
    if "a1" in row:
        others += identities([row[f"a{i}"] for i in range(1, 7)])
    if lx <= 80.0 + 1e-9:
        others += table_checks(lx, row, small)
    failed = [d for ok, d in nu_results + others if not ok]
    known = lx >= SATURATED_FROM and all(ok for ok, _ in others)
    return single(name, not failed, "; ".join(failed), known_fault=known)


def check_verify_output(suite: str, rc: int, text: str, ordinates=None) -> Outcome:
    name = f"verify {suite}"
    rep = json.loads(text)
    n = len(rep["samples"])
    if rc != 0 or rep["violations"] != 0 or n != VERIFY_SAMPLES[suite]:
        return single(name, False, f"rc={rc} violations={rep['violations']} samples={n}")
    if suite == "count" and ordinates is not None:
        # re-derive each |N(T) - (T/2pi) log(T/2pi e) - 7/8| from the zero table
        for s in rep["samples"]:
            T = s["x"]
            n_T = int(np.searchsorted(ordinates, T, side="right"))
            lhs = abs(n_T - T / (2 * PI) * math.log(T / (2 * PI * math.e)) - 7.0 / 8.0)
            if abs(lhs - s["lhs"]) > 1e-9 * max(1.0, lhs):
                return single(name, False, f"N({T}) lhs {s['lhs']} vs {lhs}")
    return single(name, True)


def check_constants_chain(inp: dict, out: list[tuple[int, str]]) -> list[Outcome]:
    outcomes = []
    for argv, (rc, text) in zip(inp["calls"], out):
        if argv[0] == "verify":
            try:
                outcomes.append(check_verify_output(argv[1], rc, text, inp["ordinates"]))
            except (ValueError, KeyError) as exc:
                outcomes.append(single(f"verify {argv[1]}", False, f"unparsable report: {exc}"))
            continue
        small = "--small" in argv
        off_grid = "--log-x0" in argv
        label = " ".join(["constants"] + [a for a in argv if a in ("--small", "--self-consistent")]
                         + (["off-grid"] if off_grid else []))
        try:
            rows = parse_constants(text)
        except (ValueError, KeyError) as exc:
            outcomes.append(single(label, False, f"unparsable output: {exc}"))
            continue
        expected = inp["off_grid"] if off_grid else inp["grid"]
        missing = [lx for lx in expected if not any(abs(lx - k) < 1e-4 for k in rows)]
        outcomes.append(single(f"{label} rows", rc == 0 and not missing,
                               f"rc={rc} missing rows {missing}"))
        for lx, row in sorted(rows.items()):
            outcomes.append(check_constants_row(label, lx, row, small))
    return outcomes


# ---------------------------------------------------------------------------
# ap_many_moduli / ap_large_moduli
# ---------------------------------------------------------------------------

def schoenfeld(x: float, pi_x: int, theta_x: float, psi_x: float) -> list[Outcome]:
    lx = math.log(x)
    sx = math.sqrt(x)
    li = float(mpmath.li(x))
    return [
        single(f"x={x:.6g} |pi-li| Schoenfeld", abs(pi_x - li) < sx * lx / (8 * PI),
               f"pi={pi_x} li={li:.6g}"),
        single(f"x={x:.6g} |theta-x| Schoenfeld", abs(theta_x - x) < sx * lx * lx / (8 * PI),
               f"theta={theta_x:.6g}"),
        single(f"x={x:.6g} |psi-x| Schoenfeld", abs(psi_x - x) < sx * lx * lx / (8 * PI),
               f"psi={psi_x:.6g}"),
    ]


def check_checkpoint(x: float, snaps: dict, li_prog: float) -> list[Outcome]:
    """Cross-modulus totals, non-coprime classes, Schoenfeld, pi(10^k), Li."""
    tag = f"x={x:.6g}"
    totals = {q: (int(p.sum()), math.fsum(t), math.fsum(s)) for q, (p, t, s) in snaps.items()}
    pi0, th0, ps0 = next(iter(totals.values()))
    agree = all(p == pi0 and abs(t - th0) <= 1e-9 * th0 and abs(s - ps0) <= 1e-9 * ps0
                for p, t, s in totals.values())
    lonely = all(int(p[~coprime_mask(q)].max(initial=0)) <= 1 for q, (p, _, _) in snaps.items())
    out = [single(f"{tag} totals agree across moduli", agree, str(totals)),
           single(f"{tag} non-coprime classes hold <= 1 prime", lonely)]
    out += schoenfeld(x, pi0, th0, ps0)
    n = int(math.floor(x))
    if n in KNOWN_PI:
        out.append(single(f"pi({n})", pi0 == KNOWN_PI[n], f"pi={pi0}"))
    li = li_offset(x)
    out.append(single(f"{tag} Li", abs(li_prog - li) <= 1e-10 * li, f"Li={li_prog} vs {li}"))
    return out


def check_classes(x: float, q: int, snap, rhs: list[float]) -> Outcome:
    """Every class sample with a positive right-hand side holds."""
    pi, theta, psi = snap
    mask = coprime_mask(q)
    ph = int(mask.sum())
    li = li_offset(x)
    lhs = (np.abs(pi[mask] - li / ph), np.abs(theta[mask] - x / ph), np.abs(psi[mask] - x / ph))
    failed = sum(int(np.count_nonzero(l >= r)) for l, r in zip(lhs, rhs) if r > 0)
    return Outcome(f"x={x:.6g} q={q} classes", 3 * ph, failed, detail=f"{failed} violations")


def check_oracle(x: float, snaps: dict) -> Outcome:
    n = int(math.floor(x))
    bad = []
    for q, (pi, theta, psi) in snaps.items():
        o_pi, o_theta, o_psi = residue_oracle(n, q)
        if not (np.array_equal(pi, o_pi) and np.allclose(theta, o_theta, rtol=1e-12, atol=1e-9)
                and np.allclose(psi, o_psi, rtol=1e-12, atol=1e-9)):
            bad.append(q)
    return single(f"x={x:.6g} counts match plain sieve", not bad, f"moduli {bad}")


def check_short_interval(report, si) -> list[Outcome]:
    out = []
    for s in report.samples:
        x = s.x
        h = math.sqrt(x) * math.log(x)
        pr = primes_upto(int(math.isqrt(int(x + h))) + 1)
        lo, hi = int(math.floor(x)) + 1, int(math.floor(x + h))
        window = np.ones(hi - lo + 1, dtype=bool)
        lam = 0.0
        for p in pr.tolist():
            window[(-lo) % p::p] = False
            pk = p
            while pk <= hi:
                if pk >= lo:
                    lam += math.log(p)
                pk *= p
        lam += math.fsum(np.log(np.flatnonzero(window) + float(lo)).tolist())
        lhs = abs(lam - h)
        rhs = si.k3 * h - si.k4
        ok = abs(lhs - s.lhs) <= 1e-6 * max(1.0, lhs) and (rhs <= 0 or lhs < rhs)
        out.append(single(f"short interval x={x:.6g}", ok and not (rhs > 0 and s.skipped),
                          f"lhs {s.lhs} vs window sieve {lhs}, rhs {rhs}"))
    return out


def check_ap(inp: dict, out: dict) -> list[Outcome]:
    outcomes = []
    xs, moduli = inp["xs"], inp["moduli"]
    for i, x in enumerate(xs):
        snaps = {q: out["counts"][q][i] for q in moduli}
        outcomes += check_checkpoint(x, snaps, out["li"][i])
        if i == 0:
            outcomes.append(check_oracle(x, snaps))
        for q in moduli:
            outcomes.append(check_classes(x, q, snaps[q], out["rhs"][q][i]))
    if inp["si_xs"]:
        report = out["short_interval"]
        outcomes.append(single("short interval report", len(report.samples) == len(inp["si_xs"])
                               and report.violations == 0,
                               f"samples={len(report.samples)} violations={report.violations}"))
        outcomes += check_short_interval(report, out["si"])
    return outcomes


# ---------------------------------------------------------------------------
# twisted_characters
# ---------------------------------------------------------------------------

def check_group(q: int, chars, values: np.ndarray, pairs: np.ndarray) -> list[Outcome]:
    ph = phi(q)
    mask = coprime_mask(q)
    principal = [i for i, c in enumerate(chars) if c.is_principal]
    n_prim = sum(1 for c in chars if c.is_primitive)
    want_prim = sum(mobius(q // d) * phi(d) for d in range(1, q + 1) if q % d == 0)
    gram = values @ values.conj().T
    m, n = pairs[:, 0] % q, pairs[:, 1] % q
    mult = values[:, (m * n) % q] - values[:, m] * values[:, n]
    out = [
        single(f"q={q} count", len(chars) == ph and len(principal) == 1
               and values.shape == (ph, q)
               and np.allclose(values[principal[0] if principal else 0], mask),
               f"{len(chars)} characters, principal {principal}"),
        single(f"q={q} primitive count", n_prim == want_prim, f"{n_prim} vs {want_prim}"),
        single(f"q={q} V V* = phi I", np.allclose(gram, ph * np.eye(len(chars)), atol=1e-8 * ph)
               and not np.any(values[:, ~mask]), "Gram matrix off"),
        single(f"q={q} multiplicative", float(np.abs(mult).max(initial=0.0)) < 1e-9,
               "chi(mn) != chi(m) chi(n)"),
    ]
    return out


def check_twisted_q(q: int, x: float, r: dict, pairs: np.ndarray) -> list[Outcome]:
    out = check_group(q, r["chars"], r["values"], pairs)
    _, o_theta, o_psi = residue_oracle(int(math.floor(x)), q)
    mask = coprime_mask(q)
    ph = phi(q)
    out.append(single(f"q={q} masses match plain sieve",
                      np.allclose(r["masses_psi"], o_psi, rtol=1e-11, atol=1e-6)
                      and np.allclose(r["masses_theta"], o_theta, rtol=1e-11, atol=1e-6)))
    recovered = (r["values"].conj().T @ r["psi_chi"]).real / ph
    out.append(single(f"q={q} orthogonality recovers psi(x;q,a)",
                      np.allclose(recovered[mask], o_psi[mask], rtol=1e-9, atol=1e-6),
                      f"max error {np.abs(recovered[mask] - o_psi[mask]).max():.3g}"))
    principal = next(i for i, c in enumerate(r["chars"]) if c.is_principal)
    want = math.fsum(o_psi[mask].tolist())
    out.append(single(f"q={q} psi(x, chi0)", abs(r["psi_chi"][principal] - want) <= 1e-9 * want,
                      f"{r['psi_chi'][principal]} vs {want}"))
    for i, c in enumerate(r["chars"]):
        if i == principal:
            continue
        a_psi, a_theta = abs(r["psi_chi"][i]), abs(r["theta_chi"][i])
        out.append(single(f"q={q} chi#{c.index} twisted bounds",
                          a_psi < r["rhs_psi"] and a_theta < r["rhs_theta"],
                          f"|psi|={a_psi:.6g} vs {r['rhs_psi']:.6g}, "
                          f"|theta|={a_theta:.6g} vs {r['rhs_theta']:.6g}"))
    return out


def check_twisted_characters(inp: dict, out: dict) -> list[Outcome]:
    outcomes = []
    for q in inp["moduli"]:
        outcomes += check_twisted_q(q, inp["x"], out[q], inp["pairs"])
    return outcomes


CHECKS = {
    "constants_chain": check_constants_chain,
    "ap_many_moduli": check_ap,
    "ap_large_moduli": check_ap,
    "twisted_characters": check_twisted_characters,
}
