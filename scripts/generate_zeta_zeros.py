#!/usr/bin/env python3
"""Generate the bundled table of Riemann zeta zero ordinates.

Strategy: locate sign changes of the Riemann-Siegel Z function on a dense
grid (vectorized main-sum evaluation with the first correction term above
t=200, mpmath below), then polish each bracket with mpmath's siegelz to
~1e-11.  The count of zeros found must equal mpmath.nzeros(HEIGHT), the
exact number of zeros up to HEIGHT; otherwise the script writes nothing
and exits 1.

Usage: PYTHONPATH=src python scripts/generate_zeta_zeros.py [HEIGHT] [OUTFILE]
"""
import math
import sys
import time

import numpy as np
import mpmath as mp

from pntap.zeros import ZeroTable, dump_zero_table

mp.mp.dps = 18
TWO_PI = 2.0 * math.pi


def theta_grid(t):
    """Riemann-Siegel theta, asymptotic form (t >= ~20)."""
    return (t / 2.0 * np.log(t / TWO_PI) - t / 2.0 - math.pi / 8.0
            + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t ** 3))


def z_grid(t):
    """Vectorized Riemann-Siegel Z with the leading remainder term."""
    a = np.sqrt(t / TWO_PI)
    n_max = a.astype(np.int64)
    p = a - n_max
    th = theta_grid(t)
    z = np.zeros_like(t)
    for n in range(1, int(n_max.max()) + 1):
        sel = n_max >= n
        z[sel] += np.cos(th[sel] - t[sel] * math.log(n)) / math.sqrt(n)
    z *= 2.0
    # leading correction
    psi = np.cos(2.0 * math.pi * (p * p - p - 1.0 / 16.0)) / np.cos(2.0 * math.pi * p)
    z += (-1.0) ** (n_max - 1) * (t / TWO_PI) ** -0.25 * psi
    return z


def polish(lo, hi):
    flo, fhi = mp.siegelz(lo), mp.siegelz(hi)
    if flo * fhi > 0:
        # expand a little; the coarse grid formula is approximate
        for w in (0.01, 0.03, 0.1):
            l2, h2 = lo - w, hi + w
            flo, fhi = mp.siegelz(l2), mp.siegelz(h2)
            if flo * fhi < 0:
                lo, hi = l2, h2
                break
        else:
            return None
    r = mp.findroot(mp.siegelz, (mp.mpf(lo), mp.mpf(hi)), solver='anderson', tol=1e-24)
    return float(r)


def main():
    height = float(sys.argv[1]) if len(sys.argv) > 1 else 10050.0
    out = sys.argv[2] if len(sys.argv) > 2 else "tests/data/zeta_zeros.txt"
    zeros = []
    t0 = time.time()

    # low range with mpmath directly
    lo_end = 200.0
    t, step = 14.0, 0.05
    f0 = mp.siegelz(t)
    while t < lo_end:
        t2 = min(t + step, lo_end)
        f1 = mp.siegelz(t2)
        if f0 * f1 < 0:
            zeros.append(polish(t, t2))
        t, f0 = t2, f1
    print(f"low range done: {len(zeros)} zeros, {time.time()-t0:.0f}s", flush=True)

    # high range with vectorized scan
    step = 0.02
    chunk = 250000
    start = lo_end
    pending = []
    while start < height:
        stop = min(start + chunk * step, height)
        ts = np.arange(start, stop + step, step)
        zs = z_grid(ts)
        sign_flip = np.nonzero(np.signbit(zs[:-1]) != np.signbit(zs[1:]))[0]
        for i in sign_flip:
            pending.append((float(ts[i]), float(ts[i + 1])))
        start = stop
    print(f"scan done: {len(pending)} brackets, {time.time()-t0:.0f}s", flush=True)

    for j, (lo, hi) in enumerate(pending):
        r = polish(lo, hi)
        if r is not None:
            zeros.append(r)
        if (j + 1) % 1000 == 0:
            print(f"polished {j+1}/{len(pending)}, {time.time()-t0:.0f}s", flush=True)

    zeros = sorted(z for z in set(zeros) if z <= height)
    expected = int(mp.nzeros(height))
    print(f"total zeros <= {height}: {len(zeros)}  (mpmath.nzeros: {expected})")
    if len(zeros) != expected:
        print("zero count mismatch: nothing written", file=sys.stderr)
        sys.exit(1)

    dump_zero_table(ZeroTable("zeta", np.array(zeros), max(zeros, default=0.0)), out)
    print(f"wrote {len(zeros)} ordinates to {out} in {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
