"""Command-line front end.

Subcommands
-----------
constants  render the constants tables (soz, short-interval, twisted, ap, all)
verify     run a verification suite; exit 0 only with zero violations
           (verify gm: pi-bound vs the cyclotomic baseline)
count      exact pi/theta/psi at (x; q, a)
bound      evaluate one bound's right-hand side (exit 2 unless finite and positive)

Exit codes: 0 success, 1 verification violations, 2 usage or domain errors.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import constants as C
from .arith import ap_counts
from .errors import DomainError, PntapError, ValidationError
from .verify import (compare_gm_baseline, verify_ap_bounds, verify_bpt,
                     verify_lehman, verify_psi1_explicit,
                     verify_short_interval, verify_zero_count)
from .zeros import CharacterLabel, load_zero_table
from .zerosum import GAMMA_1

ZETA_FORMAT_HINT = (
    "zeta zeros file: plain text, one decimal ordinate per line, ascending; "
    "dirichlet zeros file: CSV with header q,index,gamma"
)


def fmt_cell(v) -> str:
    """5-decimal cell, scientific for |v| >= 1e4; empty for missing."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if abs(v) >= 1e4:
        return f"{v:.5e}"
    return f"{v:.5f}"


def render_table(header: list[str], rows: list[list], fmt: str) -> str:
    cells = [[fmt_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(row) for row in cells]
        return "\n".join(lines)
    if fmt == "json":
        # numbers as printed (5 decimals); strings and None as they are
        return json.dumps([dict(zip(header, [v if v is None or isinstance(v, str) else float(c)
                                             for v, c in zip(row, row_cells)]))
                           for row, row_cells in zip(rows, cells)], indent=2)
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    out = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
           "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    for row in cells:
        out.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    return "\n".join(out)


def _soz_row(lx: float) -> list:
    """k1 and k2, with the small-moduli k1~ and k2~ where log x0 allows them."""
    g = C.soz_constants(lx)
    if lx >= C.SMALL_LOG_X0_MIN:
        s = C.soz_constants_small(lx)
        return [g.k1, s.k1, g.k2, s.k2]
    return [g.k1, None, g.k2, None]


def _short_interval_row(lx: float) -> list:
    kappa = C.kappa_for(lx)
    si = C.short_interval_constants(lx, kappa)
    return [kappa.kappa0, kappa.kappa1, kappa.kappa2, si.k3, si.k4]


# --which choice -> (title, columns after log_x0, row at one log x0, whether
# the row reads the whole chain (soz, si, tp, ap) rather than log x0)
_SECTIONS = {
    "soz": ("zero-sum constants", ["k1", "k1_small", "k2", "k2_small"], _soz_row, False),
    "short-interval": ("short-interval constants", ["kappa0", "kappa1", "kappa2", "k3", "k4"],
                       _short_interval_row, False),
    "twisted": ("twisted-psi constants", ["k5", "k6", "Omega0", "Omega1", "Omega2"],
                lambda soz, si, tp, ap: [tp.k5, tp.k6, tp.Omega0, tp.Omega1, tp.Omega2],
                True),
    "ap": ("progression constants", ["a1", "a2", "a3", "a4", "a5", "a6"],
           lambda soz, si, tp, ap: list(ap.a), True),
}


def cmd_constants(args) -> int:
    sections = []
    had_error = False
    for which, (title, header, row, whole_chain) in _SECTIONS.items():
        if args.which not in (which, "all"):
            continue
        # the default grid: soz on LOG_X0_GRID, the rest on the kappa rows,
        # the small-moduli chain from SMALL_LOG_X0_MIN up
        if args.log_x0:
            x0s = args.log_x0
        elif which == "soz":
            x0s = C.LOG_X0_GRID
        else:
            x0s = [lx for lx in C.REFERENCE_KAPPA
                   if not (whole_chain and args.small and lx < C.SMALL_LOG_X0_MIN)]
        rows = []
        for lx in x0s:
            try:
                values = (row(*C.chain(lx, args.small, args.self_consistent)) if whole_chain
                          else row(lx))
            except PntapError as exc:
                values = [f"error: {exc}"] + [None] * (len(header) - 1)
                had_error = True
            rows.append([lx, *values])
        if whole_chain and args.small:
            title += " (small moduli)"
        body = render_table(["log_x0", *header], rows, args.format)
        sections.append(f"### {title}\n\n{body}" if args.format == "md" else body)

    _emit("\n\n".join(sections), args.out)
    return 2 if had_error else 0


def _emit(text: str, out) -> None:
    """Print text, or write it to the --out file."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_zeros(args, kind="zeta"):
    """The --zeros table; zeta suites fall back to PNTAP_ZEROS_DIR/zeta_zeros.txt."""
    path = args.zeros
    if not path and kind == "zeta" and os.environ.get("PNTAP_ZEROS_DIR"):
        path = os.path.join(os.environ["PNTAP_ZEROS_DIR"], "zeta_zeros.txt")
    if not path or not os.path.exists(path):
        where = repr(path) if path else "--zeros, or PNTAP_ZEROS_DIR for zeta suites"
        raise PntapError(
            f"missing zeros file (looked for {where}); expected format: {ZETA_FORMAT_HINT}"
        )
    if kind == "zeta":
        return load_zero_table(path, kind=kind)
    if args.q is not None:
        label = CharacterLabel(q=args.q, index=1 if args.index is None else args.index)
        return load_zero_table(path, kind=kind, label=label)
    if args.index is not None:
        raise DomainError("--index needs --q: a character is named by its modulus and index")
    try:
        return load_zero_table(path, kind=kind)
    except ValidationError as exc:
        raise ValidationError(f"{exc} (without --q and --index the file must hold one group)")


def _chain_log_x0(args) -> float:
    """--log-x0, else the first row of the chosen chain: 10 for the general
    chain, log(1.05e7) for --small."""
    if args.log_x0 is not None:
        return args.log_x0
    return C.SMALL_LOG_X0_MIN if args.small else 10.0


def cmd_verify(args) -> int:
    suite = args.suite
    if suite == "bpt":
        report = verify_bpt(_load_zeros(args))
    elif suite == "count":
        report = verify_zero_count(_load_zeros(args))
    elif suite == "psi1":
        xs = args.x or [500.0, 1000.0, 5000.0]
        if args.t_trunc is not None and not args.t_trunc >= GAMMA_1:
            raise DomainError(f"--t-trunc must be >= GAMMA_1 = {GAMMA_1}, got {args.t_trunc!r}")
        report = verify_psi1_explicit(_load_zeros(args), xs, t_trunc=args.t_trunc)
    elif suite == "short-interval":
        lx = 10.0 if args.log_x0 is None else args.log_x0
        si = C.short_interval_constants(lx, C.kappa_for(lx))
        report = verify_short_interval(si, _sample_xs(args, math.exp(lx)))
    elif suite == "ap":
        q = 3 if args.q is None else args.q
        a = 1 if args.a is None else args.a
        lx = _chain_log_x0(args)
        *_, ap = C.chain(lx, args.small)
        xs = _sample_xs(args, max(math.exp(lx), float(q)))
        report = verify_ap_bounds(ap, q, a, xs)
    elif suite == "lehman":
        report = verify_lehman(_load_zeros(args, kind="dirichlet"))
    elif suite == "gm":
        q = 3 if args.q is None else args.q
        lx = _chain_log_x0(args)
        *_, ap = C.chain(lx, args.small)
        report = compare_gm_baseline(ap, q, _sample_xs(args, max(math.exp(lx), float(q))))
    else:
        raise PntapError(f"unknown suite {suite!r}")

    _emit(report.to_json() if args.format == "json" else report.to_markdown(), args.out)
    return 0 if report.passed else 1


def _sample_xs(args, lo: float) -> list[float]:
    """The --x points, else 8 log-spaced points from lo to --x-max (1e9)."""
    if args.x is not None:
        return args.x
    if args.x_max is None:
        return _log_grid(lo, 1e9, 8)
    if not args.x_max >= lo:
        raise DomainError(f"--x-max must be >= the first sample x = {lo:.6g}, "
                          f"got {args.x_max!r}")
    return _log_grid(lo, args.x_max, 8)


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def cmd_count(args) -> int:
    c = ap_counts(args.x, args.q, args.a)
    print(json.dumps({"x": c.x, "q": c.q, "a": c.a, "pi": c.pi,
                      "theta": c.theta, "psi": c.psi}))
    return 0


def cmd_bound(args) -> int:
    lx = _chain_log_x0(args)
    if args.kind == "principal":
        rhs = C.evaluate_bounds("principal", args.x, args.q)
        provenance = "principal-character bound"
    else:
        _, _, tp, ap = C.chain(lx, args.small)
        consts = tp if args.kind in ("psi_chi", "theta_chi") else ap
        rhs = C.evaluate_bounds(args.kind, args.x, args.q, consts)
        src = "reference kappa row" if lx in C.REFERENCE_KAPPA else "optimized kappa"
        provenance = f"chain at log_x0={lx} ({src}, {'small' if args.small else 'general'} moduli)"
    if not (math.isfinite(rhs) and rhs > 0):
        raise DomainError(f"{args.kind} bound at x={args.x!r}, q={args.q}, log x0={lx!r} has "
                          f"rhs={rhs!r}: not a finite positive bound")
    print(json.dumps({"kind": args.kind, "x": args.x, "q": args.q,
                      "log_x0": lx, "rhs": rhs, "provenance": provenance}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pntap", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="render constants tables")
    pc.add_argument("--which", choices=["soz", "short-interval", "twisted", "ap", "all"],
                    default="all")
    pc.add_argument("--log-x0", type=float, action="append")
    pc.add_argument("--small", action="store_true",
                    help="small-moduli chain (q <= 10^4, x0 >= 1.05e7)")
    pc.add_argument("--self-consistent", action="store_true",
                    help="per-row zero-sum record in the small-moduli sigma6 "
                         "instead of the frozen reference anchor")
    pc.add_argument("--format", choices=["md", "csv", "json"], default="md")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_constants)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=["bpt", "count", "psi1", "short-interval",
                                      "ap", "lehman", "gm"])
    pv.add_argument("--zeros", help="zero ordinates file")
    pv.add_argument("--q", type=int)
    pv.add_argument("--a", type=int)
    pv.add_argument("--index", type=int, help="character index for dirichlet tables")
    pv.add_argument("--x", type=float, action="append")
    pv.add_argument("--x-max", type=float)
    pv.add_argument("--t-trunc", type=float)
    pv.add_argument("--log-x0", type=float)
    pv.add_argument("--small", action="store_true")
    pv.add_argument("--format", choices=["md", "json"], default="md")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    pn = sub.add_parser("count", help="exact counts at (x; q, a)")
    pn.add_argument("--x", type=float, required=True)
    pn.add_argument("--q", type=int, required=True)
    pn.add_argument("--a", type=int, required=True)
    pn.set_defaults(func=cmd_count)

    pb = sub.add_parser("bound", help="evaluate one bound right-hand side")
    pb.add_argument("--kind", choices=list(C.BOUND_KINDS), required=True)
    pb.add_argument("--x", type=float, required=True)
    pb.add_argument("--q", type=int, required=True)
    pb.add_argument("--log-x0", type=float)
    pb.add_argument("--small", action="store_true")
    pb.set_defaults(func=cmd_bound)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PntapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
