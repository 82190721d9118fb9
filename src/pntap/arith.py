"""Exact arithmetic ground truth.

Segmented prime/von-Mangoldt sieving (numpy), prime-counting and Chebyshev
functions restricted to residue classes, Dirichlet character tables built
from the generator logs of the prime-power blocks, and exact twisted sums:
the sums of every chi mod q are chi.value_table() @ residue_masses(x, q,
kind), one sieve pass for the whole group.  Everything here is the oracle
side: no estimates, only counts.

Every exact sum (ResidueCounter, residue_masses, lambda_sum_interval,
psi1_plain and the functions built on them) runs through one kernel,
_lambda_sums: a single prime_segments pass in segments of SEGMENT, split
at the requested cuts, with prime powers added from one sorted array; it
hands its base primes to prime_segments and higher_prime_powers, which
sieve none.  prime_segments sieves odd numbers only, so a segment's mask
is half its width.  Each mask starts from a pre-sieved wheel pattern
free of the multiples of 3..17; the first offsets of the larger base
primes are one array expression per segment, and the primes with few
multiples in a segment are crossed off together by one vectorised
scatter per round.  The moduli are folded into groups whose lcm L stays
small: a group pays one residue pass (floor-divide, not %) and two
bincounts per segment, keeps its per-residue float sums as a vectorised
Neumaier (sum, compensation) pair of length L, and each member q is
summed out of the L residues at a cut.  3..30 take 5 such passes, not
28.  residue_masses keeps its last pass, so theta right after psi at the
same x and q sieves once.

A pass runs in fixed chunks of 8 segments (2^24 integers) from its
start.  Every segment is sieved whole and its primes are split at the
cuts inside it.  Once a pass spans two chunks, the chunks run on forked
workers, one per usable CPU, and the parent merges their sums in order
as they arrive.  The chunks and the order of the sums do not depend on
the CPU count, so neither do the results.  The memory the workers hold
does not show in the parent's ru_maxrss.

Character values are carried as exact roots of unity (an exponent modulo
the group exponent); complex numbers only appear when a sum is finally
evaluated, so long twisted sums do not accumulate phase drift.  All
characters mod q share one (q, g) matrix of generator logs L, one column
per generator of (Z/q)*; a character is a weight vector w over those
generators, so its exponent table is one product (L @ w) mod e.  The
characters are the rows of one exponent matrix E (phi(q) x g), and every
attribute is an array expression over E and L: the Conrey index is the
unit n whose row of L equals the exponents, the parity is read from
L[q - 1] and the conductor is a product of one rule per prime-power block.
"""
from __future__ import annotations

import math
import operator
import os
import signal
from contextlib import closing
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ValidationError

# A segment of 2^21 integers has a 1 MB mask, which stays in cache: primes
# to 2e8 took 0.36 s against 0.46 s with 2^22 (2-vCPU Xeon KVM guest), and
# the pass's peak memory fell with it.  A kernel pass runs in chunks of
# _CHUNK_SEGMENTS segments, the unit of work of its forked workers (see
# the module docstring).
SEGMENT = 1 << 21
_CHUNK_SEGMENTS = 8
# The largest x an exact sum accepts: 2^53, below which every integer n <= x
# is exact in float64.  The base primes up to sqrt(x) then take a bool array
# of about 95 MB; far larger x would ask numpy for an array it cannot hold.
SIEVE_X_MAX = float(2 ** 53)
# The largest L for which _lambda_sums folds several moduli into one pass of
# residues mod L.  ResidueCounter(range(3, 31)) at 1e7, 1e8 and 2e8 (2-vCPU
# Xeon KVM guest, wheel sieve, 2^21 segments) took 0.79-0.80 s, 0.72-0.79 s
# and 1.09-1.12 s with caps 1024, 5040 and 65536 (6, 5 and 3 groups): a
# group pays per segment for its length-L vectors, so a large L costs more.
_FOLD_LCM_MAX = 5040
# prime_segments starts each segment from a pre-sieved pattern of the odd
# numbers coprime to these primes, which repeats every 255,255 odd numbers
_WHEEL_PRIMES = (3, 5, 7, 11, 13, 17)
_WHEEL = math.prod(_WHEEL_PRIMES)
# a base prime with at most this many multiples in a segment goes through
# the vectorised scatter instead of a slice of its own
_SCATTER_HITS = 32


# ---------------------------------------------------------------------------
# sieving primitives
# ---------------------------------------------------------------------------

def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit via a plain sieve (int64 array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p:: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def prime_factors(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    if n < 1:
        raise DomainError("factorization needs n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(q: int) -> int:
    phi = 1
    for p, e in prime_factors(_modulus(q)):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _odd_offsets(p: np.ndarray, o0: int) -> np.ndarray:
    """For each odd prime p, the least i >= 0 with p | o0 + 2i.

    Since 2 (p + 1)/2 = 1 mod p, that is i = (-o0)(p + 1)/2 mod p.
    """
    return (p - o0 % p) * ((p + 1) >> 1) % p


def prime_segments(lo: int, hi: int, segment: int, base: np.ndarray) -> Iterator[np.ndarray]:
    """Yield int64 arrays of the primes in [lo, hi], segment by segment.

    Each segment [start, stop) is sieved on its odd numbers only: mask
    entry i stands for o0 + 2i with o0 = start | 1.

    - The mask starts as the wheel pattern, in which the multiples of
      3..17 are already crossed off, rotated to o0 and repeated.  The
      pattern repeats every _WHEEL = 255,255 odd numbers; it is built once
      per pass, from the first odd number of the pass, and is no longer
      than the pass.  The wheel primes themselves are put back.
    - Every larger base prime p with p^2 < stop crosses off every p-th
      entry from its first odd multiple >= max(p^2, o0).  Those first
      offsets are one array expression per segment: the larger of
      _odd_offsets and the entry (p^2 - o0)/2 of p^2.
    - A prime with at most about _SCATTER_HITS multiples in the segment
      is crossed off by a vectorised scatter, all such primes at once,
      one round per multiple.  A smaller prime takes one strided slice.

    The prime 2 is put in front of the segment that holds it.  `base`
    holds the primes up to at least isqrt(hi); the kernel sieves them once
    per pass for all its chunks, and its segment is SEGMENT.
    """
    if hi < lo or hi < 2:
        return
    lo = max(lo, 2)
    bp = base[np.searchsorted(base, _WHEEL_PRIMES[-1], side="right"):]
    j_lo = (lo | 1) >> 1
    pattern = np.ones(min((hi + 1) // 2 - j_lo, _WHEEL), dtype=bool)
    for w, i in zip(_WHEEL_PRIMES, _odd_offsets(np.array(_WHEEL_PRIMES), lo | 1).tolist()):
        pattern[i:: w] = False
    start = lo
    while start <= hi:
        stop = min(start + segment, hi + 1)
        o0 = start | 1
        n = (stop - o0 + 1) // 2
        mask = np.resize(np.roll(pattern, j_lo - (o0 >> 1)), n)
        for w in _WHEEL_PRIMES:
            if o0 <= w < stop:
                mask[(w - o0) >> 1] = True
        p = bp[:np.searchsorted(bp, math.isqrt(stop - 1), side="right")]
        off = np.maximum(_odd_offsets(p, o0), (p * p - o0) >> 1)
        few = np.searchsorted(p, -(-n // _SCATTER_HITS))
        for step, i in zip(p[:few].tolist(), off[:few].tolist()):
            mask[i:: step] = False
        p, off = p[few:], off[few:]
        while True:
            live = off < n
            p, off = p[live], off[live]
            if not off.size:
                break
            mask[off] = False
            off += p
        # in place: one array of primes alive, not three
        primes = np.flatnonzero(mask)
        primes *= 2
        primes += o0
        if start == 2:
            primes = np.concatenate((np.array([2], dtype=primes.dtype), primes))
        yield primes
        start = stop


def higher_prime_powers(n: int, base: np.ndarray) -> Iterator[tuple[int, int, float]]:
    """All (p, p^k, log p) with k >= 2 and p^k <= n; `base` holds the
    primes up to isqrt(n)."""
    for p in base.tolist():
        pk = p * p
        lp = math.log(p)
        while pk <= n:
            yield p, pk, lp
            pk *= p


# ---------------------------------------------------------------------------
# the Lambda-mass kernel
# ---------------------------------------------------------------------------

def _modulus(q: int) -> int:
    """q as an int (numpy integers included); a non-integer or q < 1 is a domain error."""
    try:
        q = operator.index(q)
    except TypeError:
        raise DomainError(f"q must be an integer, got {q!r}") from None
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    return q


def _unit_class(q: int, a: int) -> tuple[int, int]:
    """(q, a) as ints for a class a mod q with gcd(a, q) = 1, else a domain error."""
    q = _modulus(q)
    try:
        a = operator.index(a)
    except TypeError:
        raise DomainError(f"a must be an integer, got {a!r}") from None
    if math.gcd(a, q) != 1:
        raise DomainError(f"gcd({a}, {q}) > 1: the class holds at most one prime power")
    return q, a


def _floor_int(x: float) -> int:
    """floor(x) as an int; non-finite x or x > SIEVE_X_MAX is a domain error."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x > SIEVE_X_MAX:
        raise DomainError(f"x = {x!r} is beyond the sieve's limit {SIEVE_X_MAX:.6g}")
    return int(math.floor(x))


def _neumaier_add(acc: np.ndarray, v: np.ndarray) -> None:
    """acc[0] += v elementwise, the rounding error kept in acc[1] (Neumaier).

    The compensated total is acc[0] + acc[1].
    """
    s = acc[0]
    t = s + v
    acc[1] += np.where(np.abs(s) >= np.abs(v), (s - t) + v, (v - t) + s)
    acc[0] = t


def _class_sums(n: np.ndarray, w: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-residue count and weight sum of the integers n mod q.

    q = 1 needs no residues, and numpy's pairwise sum is more accurate than
    bincount's running sum.
    """
    if q == 1:
        return np.array([n.size]), np.array([w.sum()])
    # n % q for n >= 0, by numpy's faster floor-divide, in one array
    res = n // q
    res *= q
    np.subtract(n, res, out=res)
    return np.bincount(res, minlength=q), np.bincount(res, weights=w, minlength=q)


def _fold_groups(moduli: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Group the moduli as (L, members), every member dividing L.

    In descending order, each modulus joins the first group whose L it
    divides or whose lcm with it stays <= _FOLD_LCM_MAX; otherwise it
    starts a group with L = q.  3..30 make five groups: L = 4350, 3024,
    598, 4180 and 17.
    """
    groups: list[tuple[int, list[int]]] = []
    for q in sorted(moduli, reverse=True):
        for i, (big, members) in enumerate(groups):
            lcm = math.lcm(big, q)
            if lcm == big or lcm <= _FOLD_LCM_MAX:
                groups[i] = (lcm, members + [q])
                break
        else:
            groups.append((q, [q]))
    return groups


def _fold(v: np.ndarray, q: int) -> np.ndarray:
    """The per-residue vector v mod L (q | L) summed down to residues mod q.

    The L/q entries of a class are summed along a contiguous axis, so numpy
    sums them pairwise.
    """
    if v.size == q:
        return v.copy()
    return np.ascontiguousarray(v.reshape(-1, q).T).sum(axis=1)


_Part = tuple[int, np.ndarray, np.ndarray]  # (end, counts, Neumaier pair)


def _forked(work: Callable[[tuple[int, int]], Iterator[_Part]],
            chunks: list[tuple[int, int]], workers: int) -> Iterator[_Part]:
    """The parts of every chunk, in order, from `workers` forked processes.

    Process w works the chunks chunks[w::workers] in order and sends each
    part that work(chunk) yields as its own message, down a pipe of its
    own; the parts of chunk i are read from process i % workers until one
    ends at the chunk's end.  No lock or queue is shared, so stopping a
    process at any point, even halfway through a write, blocks neither
    another process nor this one;
    multiprocessing.Pool.terminate can deadlock there.  A process that
    ends before sending a part raises RuntimeError here.  Closing the
    generator stops every process.
    """
    import multiprocessing
    ctx = multiprocessing.get_context("fork")

    def serve(mine, send):
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its workers
        try:
            for chunk in mine:
                for part in work(chunk):
                    send.send((True, part))
        except Exception as exc:
            send.send((False, exc))

    procs, conns = [], []
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            proc = ctx.Process(target=serve, args=(chunks[w::workers], send), daemon=True)
            try:
                proc.start()
            finally:
                send.close()  # the worker holds the only write end: its exit reads as EOF
            procs.append(proc)
        for i, (_, end) in enumerate(chunks):
            w = i % workers
            part_end = None
            while part_end != end:
                try:
                    ok, part = conns[w].recv()
                except EOFError:
                    procs[w].join()
                    raise RuntimeError(f"a kernel worker ended with exit code "
                                       f"{procs[w].exitcode} before sending its sums") from None
                if not ok:
                    raise part
                part_end = part[0]
                yield part
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lambda_sums(lo: int, cuts: Sequence[int], moduli: Sequence[int], x: float | None = None
                 ) -> Iterator[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Per-residue (pi, theta, psi) over lo <= n <= cut, at each cut.

    The cuts ascend from lo.  One sieve pass covers [lo, cuts[-1]] in
    fixed chunks of _CHUNK_SEGMENTS segments from lo on.  work(chunk)
    sieves every segment of a chunk whole, splits its primes at the cuts
    inside it, and yields one part (end, counts, Neumaier pair) for each
    stretch that ends at a cut or at the chunk's end.  A prime p weighs
    log p, a prime power p^k (k >= 2, psi only) weighs log p; with x given
    both weights are scaled by (x - n).  The moduli are folded into groups
    (_fold_groups) whose per-residue sums mod L lie side by side.  Here
    the parts are added in order, the counts exactly and the pairs by
    Neumaier; at a cut each member is folded out of its group and the
    prime powers up to the cut are added.

    A pass of two chunks or more runs its chunks on forked workers
    (_forked), one per usable CPU up to one per chunk, and merges each
    part as it arrives; otherwise, with a single usable CPU, in a
    daemonic process or without fork, the chunks run here.  The parts and
    the order of the sums are the same either way, so the results do not
    depend on the CPU count.
    SEGMENT and the base primes are read once per pass; workers inherit both.
    """
    segment = SEGMENT
    hi = cuts[-1]
    base = base_primes(math.isqrt(hi))
    base.flags.writeable = False
    pairs = sorted((pk, lp) for _, pk, lp in higher_prime_powers(hi, base) if pk >= lo)
    pk = np.array([pk for pk, _ in pairs], dtype=np.int64)
    lp = np.array([lp for _, lp in pairs], dtype=np.float64)
    if x is not None:
        lp = lp * (x - pk)
    groups = _fold_groups(moduli)
    offsets = np.cumsum([0] + [big for big, _ in groups]).tolist()
    spans = list(zip(offsets, (big for big, _ in groups)))
    step = _CHUNK_SEGMENTS * segment
    chunks = [(s, min(s + step - 1, hi)) for s in range(lo, hi + 1, step)]

    def add(count, mass, pr, w):
        for off, big in spans:
            c, m = _class_sums(pr, w, big)
            count[off:off + big] += c
            _neumaier_add(mass[:, off:off + big], m)

    def work(chunk):
        start, end = chunk
        inner = sorted({c for c in cuts if start <= c < end})
        count, mass = np.zeros(offsets[-1], dtype=np.int64), np.zeros((2, offsets[-1]))
        top = start - 1  # the last integer of the segment at hand
        for pr in prime_segments(start, end, segment=segment, base=base):
            top += segment
            w = np.log(pr, dtype=np.float64)
            if x is not None:
                w *= x - pr
            here = [c for c in inner if top - segment < c <= top]
            at = 0
            for cut, stop in zip(here, np.searchsorted(pr, here, side="right").tolist()):
                add(count, mass, pr[at:stop], w[at:stop])
                yield cut, count, mass
                count, mass = np.zeros_like(count), np.zeros_like(mass)
                at = stop
            add(count, mass, pr[at:], w[at:])
        yield end, count, mass

    def snapshot(cut, count, mass):
        upto = int(np.searchsorted(pk, cut, side="right"))
        out = {}
        for (off, big), (_, members) in zip(spans, groups):
            pi = count[off:off + big]
            total = mass[0, off:off + big] + mass[1, off:off + big]
            for q in members:
                th = _fold(total, q)
                out[q] = (_fold(pi, q), th, th + _class_sums(pk[:upto], lp[:upto], q)[1])
        return out

    def merged(parts):
        count = np.zeros(offsets[-1], dtype=np.int64)
        mass = np.zeros((2, offsets[-1]))
        i = 0  # next cut to report
        for end, part_count, part_mass in parts:
            count += part_count
            _neumaier_add(mass, part_mass[0])
            mass[1] += part_mass[1]
            # free a part's sums before the next one arrives
            del part_count, part_mass
            while i < len(cuts) and cuts[i] == end:
                yield snapshot(end, count, mass)
                i += 1

    workers = min(len(chunks), _usable_cpus())
    if workers >= 2:
        # imported here, as its import takes about 12 ms
        import multiprocessing
        # a daemonic process, such as a worker of the caller's own pool, may
        # not start processes.  fork, not spawn: a worker starts with the
        # modules imported and the base primes in memory, where spawn would
        # import and pickle them again
        if (not multiprocessing.current_process().daemon
                and "fork" in multiprocessing.get_all_start_methods()):
            # whole chunks go round the workers, so each sieves on in its own range
            with closing(_forked(work, chunks, workers)) as parts:
                yield from merged(parts)
            return
    yield from merged(part for chunk in chunks for part in work(chunk))


# ---------------------------------------------------------------------------
# residue-class counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class APCounts:
    """Exact (pi, theta, psi) at x restricted to the class a mod q."""

    x: float
    q: int
    a: int
    pi: int
    theta: float
    psi: float

    def __post_init__(self):
        if self.q >= 1 and math.gcd(self.a, self.q) != 1:
            raise ValidationError(f"gcd({self.a}, {self.q}) > 1")
        if not (0.0 <= self.theta <= self.psi + 1e-9):
            raise ValidationError("need 0 <= theta <= psi")
        if self.x >= 2 and self.pi > self.psi / math.log(2.0) + 1e-9:
            raise ValidationError("pi exceeds psi/log 2")


class ResidueCounter:
    """Accumulates pi/theta/psi per residue class, one sieve pass total.

    Serves one modulus or several at once over one shared sieve.  The
    residue work, not the sieve, grows with the number of moduli, so
    moduli with a small common multiple share one residue pass mod their
    lcm (_lambda_sums).  theta and psi are compensated (Neumaier) across
    segments.
    """

    def __init__(self, q: int | Sequence[int]):
        qs = [_modulus(m) for m in ([q] if np.ndim(q) == 0 else q)]
        if not qs:
            raise DomainError("need at least one modulus")
        if len(set(qs)) != len(qs):
            raise DomainError("duplicate moduli")
        self.qs = qs

    def counts_at_multi(self, xs: Sequence[float]) -> dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        xs = list(xs)
        if not xs:
            raise DomainError("need at least one evaluation point")
        if any(x < 2 for x in xs):
            raise DomainError("counting functions need x >= 2")
        if sorted(xs) != xs:
            raise DomainError("evaluation points must be ascending")
        cuts = [_floor_int(x) for x in xs]
        results: dict[int, list] = {q: [] for q in self.qs}
        for snap in _lambda_sums(2, cuts, self.qs):
            for q in self.qs:
                results[q].append(snap[q])
        return results


def ap_counts(x: float, q: int, a: int) -> APCounts:
    """Exact pi/theta/psi at x in the class a mod q (q = 1: unrestricted)."""
    if x < 2:
        raise DomainError("requires x >= 2")
    q, a = _unit_class(q, a)
    pi_q, th_q, ps_q = ResidueCounter(q).counts_at_multi([x])[q][0]
    r = a % q
    return APCounts(x=x, q=q, a=a, pi=int(pi_q[r]), theta=float(th_q[r]), psi=float(ps_q[r]))


def lambda_sum_interval(a: float, b: float) -> float:
    """Sum of Lambda(n) over a < n <= b, by sieving just the window."""
    lo = max(_floor_int(a) + 1, 2)
    hi = _floor_int(b)
    if hi < lo:
        return 0.0
    (snap,) = _lambda_sums(lo, [hi], [1])
    return float(snap[1][2][0])


def short_interval_psi_delta(x: float) -> float:
    """psi(x + sqrt(x) log x) - psi(x) - sqrt(x) log x, sieved exactly."""
    if x < 2:
        raise DomainError("requires x >= 2")
    h = math.sqrt(x) * math.log(x)
    if x + h > SIEVE_X_MAX:
        raise DomainError(f"the window of x = {x!r} ends at x + sqrt(x) log x = {x + h!r}, "
                          f"beyond the sieve's limit {SIEVE_X_MAX:.6g}")
    return lambda_sum_interval(x, x + h) - h


def psi1_plain(x: float) -> float:
    """Linearly weighted Chebyshev function: sum of Lambda(n)(x - n), n <= x."""
    if x < 2:
        raise DomainError("requires x >= 2")
    return float(residue_masses(x, 1, "psi1")[0])


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

def _primitive_root(pk: int, p: int) -> int:
    """Least primitive root mod p that stays primitive mod p^2 (hence p^k)."""
    phi_p = p - 1
    fac = [f for f, _ in prime_factors(phi_p)]
    g = 2
    while True:
        if all(pow(g, phi_p // f, p) != 1 for f in fac):
            if pk == p or pow(g, phi_p, p * p) != 1:
                return g
            # rare: g primitive mod p but not mod p^2; g+p always works then
            return g + p
        g += 1


def _block_logs(p: int, e: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Generator logs of the block (Z/p^e)* and the generators' orders.

    The table has p^e rows, -1 on non-units.  Odd p and p^e = 4 are cyclic
    with one generator (a primitive root, 3 mod 4); 2^e with e >= 3 has the
    pair {-1, 5} of orders 2 and 2^(e-2); mod 2 has none.
    """
    pk = p ** e
    if pk == 2:
        return np.empty((2, 0), dtype=np.int64), ()
    if p == 2 and e >= 3:
        g, s, orders = 5, pk >> 2, (2, pk >> 2)
    else:
        g = 3 if pk == 4 else _primitive_root(pk, p)
        s = (p - 1) * p ** (e - 1)
        orders = (s,)
    powers = np.empty(s, dtype=np.int64)
    v = 1
    for d in range(s):
        powers[d] = v
        v = (v * g) % pk
    table = -np.ones((pk, len(orders)), dtype=np.int64)
    table[powers, -1] = np.arange(s)
    if len(orders) == 2:
        table[powers, 0] = 0
        table[pk - powers, 0] = 1
        table[pk - powers, 1] = np.arange(s)
    return table, orders


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    """A Dirichlet character mod q, stored as weights over the generators.

    chi(n) is value_table()[n % q], an exact root of unity exp(2 pi i j/e)
    with j = exponent_table()[n % q]; parity is (1 - chi(-1))/2.  The
    generator-log matrix, the unit mask and the table of e-th roots of
    unity are shared by every character of the group; the weights are the
    exponents scaled to the group exponent, so j = L[n] @ w mod e.
    """

    q: int
    index: int
    group_exponent: int
    parity: int
    is_principal: bool
    is_primitive: bool
    conductor: int
    _logs: np.ndarray = field(repr=False)     # (q, g) generator logs, shared
    _units: np.ndarray = field(repr=False)    # (q,) gcd(n, q) == 1, shared
    _weights: np.ndarray = field(repr=False)  # (g,) exponents * (e // order), a row of W
    _roots: np.ndarray = field(repr=False)    # (e + 1,) exp(2 pi i j/e), 0 at e; shared

    def exponent_table(self) -> np.ndarray:
        """j with chi(n) = exp(2 pi i j/e) for n = 0..q-1; e marks non-units."""
        e = self.group_exponent
        return np.where(self._units, (self._logs @ self._weights) % e, e)

    def value_table(self) -> np.ndarray:
        """chi(n) for n = 0..q-1 as complex128 (0 on non-units)."""
        return self._roots[self.exponent_table()]


def character_table(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) Dirichlet characters mod q, in Conrey-index order.

    Each call builds its group afresh; nothing is kept between calls.

    The generator logs of the prime-power blocks (_block_logs) side by
    side make L.  The Conrey index of a character is the unit n whose logs
    L[n] equal its exponents, so in index order the exponent matrix E is
    L restricted to the units, and the principal character (index 1)
    comes first.  Every attribute is one array expression over E: the
    parity is chi(-1), read from L[q - 1]; the conductor is a product over
    the blocks.  A cyclic block mod p^a (odd p, and 4) on which chi has
    order d contributes p^(1 + v_p(d)) when d > 1; a block mod 2^a with
    a >= 3 contributes 4 d5 when chi has order d5 > 1 on the generator 5,
    else 4 when the exponent of -1 is odd.
    """
    q = _modulus(q)
    if q < 3:
        raise DomainError("character tables need q >= 3")
    # the paper's small-moduli range; the dense (q, g) log matrix and one
    # object per character would need gigabytes near q = 1e9
    if q > 10 ** 4:
        raise DomainError(f"character tables need q <= 10^4, got {q}")
    blocks = [(p, p ** e, *_block_logs(p, e)) for p, e in sorted(prime_factors(q))]
    orders = tuple(s for *_, block_orders in blocks for s in block_orders)
    group_exp = math.lcm(*orders)
    # shared by every character, so read-only; with q <= 1e4 each of the g
    # terms of L @ w is below e**2 and the int64 product stays exact
    n = np.arange(q)
    logs = np.concatenate([table[n % pk] for _, pk, table, _ in blocks], axis=1)
    units = np.gcd(n, q) == 1
    roots = np.exp(2j * np.pi * np.arange(group_exp + 1) / group_exp)
    roots[group_exp] = 0.0

    # the character with Conrey index n has the exponents L[n], so in index
    # order the exponent matrix E is the unit rows of L
    index = np.flatnonzero(units)
    exps = logs[index]
    weights = exps * (group_exp // np.array(orders))
    parity = (weights @ logs[q - 1]) % group_exp != 0
    conductor = np.ones(len(index), dtype=np.int64)
    col = 0
    for p, pk, _, block_orders in blocks:
        if len(block_orders) == 2:
            half = block_orders[1]
            d5 = half // np.gcd(exps[:, col + 1], half)
            conductor *= np.where(d5 > 1, 4 * d5, np.where(exps[:, col] % 2 == 1, 4, 1))
        elif block_orders:
            d = block_orders[0] // np.gcd(exps[:, col], block_orders[0])
            conductor *= np.where(d > 1, p * np.gcd(d, pk // p), 1)
        col += len(block_orders)
    principal = ~weights.any(axis=1)
    for arr in (logs, units, roots, weights):
        arr.flags.writeable = False

    chars = tuple(
        DirichletCharacter(
            q=q, index=ix, group_exponent=group_exp,
            parity=int(par), is_principal=pri, is_primitive=cond == q, conductor=cond,
            _logs=logs, _units=units, _weights=w, _roots=roots)
        for ix, par, pri, cond, w in zip(
            index.tolist(), parity.tolist(), principal.tolist(), conductor.tolist(), weights))
    if len(chars) != euler_phi(q):
        raise ValidationError("character construction lost characters")
    return chars


def residue_masses(x: float, q: int, kind: str) -> np.ndarray:
    """Per-residue mass vector: Lambda(n) (psi), log p on primes (theta),
    or Lambda(n)(x - n) (psi1), summed over n <= x in each class mod q.

    One kernel pass yields theta and psi together, and the last pass is
    kept (_last_masses): a call at the same floor(x) and q, and for psi1
    the same x, returns a fresh copy of a kept vector without sieving, so
    theta right after psi costs no second pass.
    """
    if kind not in ("psi", "theta", "psi1"):
        raise DomainError(f"unknown kind {kind!r}")
    q = _modulus(q)
    n_max = _floor_int(x)
    if n_max < 2:
        return np.zeros(q)
    theta, psi = _last_masses(n_max, q, x if kind == "psi1" else None)
    return (theta if kind == "theta" else psi).copy()


@lru_cache(maxsize=1)
def _last_masses(n_max: int, q: int, x: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-residue (theta, psi) mod q over n <= n_max, weighted
    by (x - n) when x is given: residue_masses' one-entry memo."""
    (snap,) = _lambda_sums(2, [n_max], [q], x=x)
    _, theta, psi = snap[q]
    theta.flags.writeable = False
    psi.flags.writeable = False
    return theta, psi


def _exact_dot(values: np.ndarray, mass: np.ndarray) -> complex:
    """sum of values * mass, its real and imaginary parts each by math.fsum."""
    return complex(math.fsum((values.real * mass).tolist()),
                   math.fsum((values.imag * mass).tolist()))


def psi_from_characters(x: float, q: int, a: int) -> float:
    """Reconstruct psi(x; q, a) from twisted sums by orthogonality."""
    q, a = _unit_class(q, a)
    mass = residue_masses(x, q, "psi")
    chars = character_table(q)
    tables = (chi.value_table() for chi in chars)  # lazily: all at once would hold phi(q) q values
    parts = [_exact_dot(t, mass) * complex(t[a % q]).conjugate() for t in tables]
    return math.fsum(p.real for p in parts) / len(chars)
