import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pntap.arith as arith
from pntap.arith import (_FOLD_LCM_MAX, _WHEEL, DEFAULT_SEGMENT, SIEVE_X_MAX, APCounts,
                         ResidueCounter, _floor_int, _fold_groups, ap_counts,
                         base_primes, character_table,
                         euler_phi,
                         higher_prime_powers,
                         lambda_sum_interval, prime_factors, prime_segments,
                         psi1_plain, psi_from_characters,
                         residue_masses, short_interval_psi_delta)
from pntap.errors import DomainError, ValidationError


def psi(x: float) -> float:
    """Chebyshev psi(x): the one residue class mod 1."""
    return residue_masses(x, 1, "psi")[0]


def twisted(x: float, chi, kind: str) -> complex:
    """The twisted sum of chi over n <= x from one residue_masses pass."""
    return chi.value_table() @ residue_masses(x, chi.q, kind)


# ------------------------- independent oracles ----------------------------

def is_prime_naive(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def lambda_naive(n: int) -> float:
    """von Mangoldt by root extraction + trial-division primality."""
    if n < 2:
        return 0.0
    for k in range(1, n.bit_length() + 1):
        p = round(n ** (1.0 / k))
        for cand in (p - 1, p, p + 1):
            if cand >= 2 and cand ** k == n and is_prime_naive(cand):
                return math.log(cand)
    return 0.0


def ap_counts_naive(x, q, a):
    pi = 0
    theta = []
    psi = []
    for n in range(2, int(math.floor(x)) + 1):
        if q > 1 and n % q != a % q:
            continue
        lam = lambda_naive(n)
        if lam:
            psi.append(lam)
        if is_prime_naive(n):
            pi += 1
            theta.append(math.log(n))
    return pi, math.fsum(theta), math.fsum(psi)


# ------------------------------ sieve tests --------------------------------

class TestSieve:
    def test_base_primes(self):
        assert base_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert base_primes(1).size == 0

    def test_segmented_vs_monolithic_bit_for_bit(self):
        mono = np.concatenate(list(prime_segments(2, 50000, segment=1 << 26)))
        seg = np.concatenate(list(prime_segments(2, 50000, segment=1024)))
        assert np.array_equal(mono, seg)
        # and against the naive oracle
        naive = np.array([n for n in range(2, 5001) if is_prime_naive(n)])
        assert np.array_equal(mono[mono <= 5000], naive)

    def test_prime_powers(self):
        got = sorted(pk for _, pk, _ in higher_prime_powers(100))
        assert got == [4, 8, 9, 16, 25, 27, 32, 49, 64, 81]

    def test_pi_100_4_1(self):
        assert ap_counts(100, 4, 1).pi == 11

    def test_psi_10_3_1(self):
        assert ap_counts(10, 3, 1).psi == pytest.approx(math.log(14.0), rel=1e-14)

    @pytest.mark.parametrize("q", [1, 3, 4, 7, 12, 30])
    def test_against_naive_oracle(self, q):
        x = 3000.0
        for a in [r for r in range(max(q, 1)) if math.gcd(r, q) == 1] or [0]:
            if q == 1:
                a = 1
            pi, th, ps = ap_counts_naive(x, q, a)
            got = ap_counts(x, q, a)
            assert got.pi == pi
            assert got.theta == pytest.approx(th, abs=1e-9)
            assert got.psi == pytest.approx(ps, abs=1e-9)
            if q == 1:
                break

    def test_checkpoints_match_single_calls(self):
        cases = [
            (DEFAULT_SEGMENT, [100.0, 543.0, 2000.0]),
            # segments of 1024 start at 2, 1026, 2050, ...: the last and the
            # first integer of a segment, a prime (1031), prime powers
            # (2048, 2187) and a repeated checkpoint
            (1024, [1025.0, 1026.0, 1031.0, 2048.0, 2187.0, 2187.0, 5000.5]),
        ]
        for segment, xs in cases:
            multi = ResidueCounter(7, segment=segment).counts_at(xs)
            assert len(multi) == len(xs)
            for x, snap in zip(xs, multi):
                single = ResidueCounter(7).counts_at([x])[0]
                assert np.array_equal(snap[0], single[0])
                assert np.allclose(snap[1], single[1], rtol=0, atol=1e-12)
                assert np.allclose(snap[2], single[2], rtol=0, atol=1e-12)

    def test_large_moduli_against_plain_sieve(self):
        xs = [1.0e5, 2.0e5]
        snaps = ResidueCounter([9973, 10000], segment=4096).counts_at_multi(xs)
        for q in (9973, 10000):
            for x, (pi_q, th_q, ps_q) in zip(xs, snaps[q]):
                primes = base_primes(int(x))
                res = primes % q
                theta = np.bincount(res, weights=np.log(primes.astype(float)),
                                    minlength=q)
                psi = theta.copy()
                for p in base_primes(math.isqrt(int(x))).tolist():
                    pk = p * p
                    while pk <= x:
                        psi[pk % q] += math.log(p)
                        pk *= p
                assert np.array_equal(pi_q, np.bincount(res, minlength=q))
                assert np.allclose(th_q, theta, rtol=0, atol=1e-9)
                assert np.allclose(ps_q, psi, rtol=0, atol=1e-9)

    def test_gcd_precondition(self):
        with pytest.raises(DomainError):
            ap_counts(100, 4, 2)

    def test_sieve_limit_is_inclusive(self):
        assert _floor_int(SIEVE_X_MAX) == 2 ** 53
        with pytest.raises(DomainError, match="limit"):
            _floor_int(math.nextafter(SIEVE_X_MAX, math.inf))

    # x far beyond the limit: numpy refuses the base-prime array without
    # allocating it, so a missing check fails here fast instead of sieving
    @pytest.mark.parametrize("x", [1e40, 1e300])
    def test_x_beyond_sieve_limit_is_domain_error(self, x):
        calls = [lambda: ap_counts(x, 5, 2), lambda: residue_masses(x, 7, "psi"),
                 lambda: lambda_sum_interval(x / 2, x), lambda: psi1_plain(x),
                 lambda: psi_from_characters(x, 5, 2),
                 lambda: ResidueCounter([3, 4]).counts_at_multi([1e3, x])]
        for call in calls:
            with pytest.raises(DomainError, match="limit"):
                call()

    def test_psi_near_x(self):
        # |psi(x) - x| < sqrt(x) log(x)^2 / (8 pi) at a desk-scale point
        x = 100000.0
        assert abs(psi(x) - x) < math.sqrt(x) * math.log(x) ** 2 / (8 * math.pi)

    def test_class_sum_is_psi(self):
        # sum over coprime classes + mass on non-coprime = full psi
        x, q = 5000.0, 12
        total = math.fsum(ap_counts(x, q, a).psi for a in (1, 5, 7, 11))
        stuck = math.fsum(
            lambda_naive(n) for n in range(2, int(x) + 1) if math.gcd(n, q) > 1)
        assert total + stuck == pytest.approx(psi(x), abs=1e-8)


def plain_class_sums(x: float, q: int):
    """Per-residue (pi, theta, psi) mod q from one plain numpy sieve."""
    primes = base_primes(int(x))
    res = primes % q
    theta = np.bincount(res, weights=np.log(primes.astype(float)), minlength=q)
    psi = theta.copy()
    for p in base_primes(math.isqrt(int(x))).tolist():
        pk = p * p
        while pk <= x:
            psi[pk % q] += math.log(p)
            pk *= p
    return np.bincount(res, minlength=q), theta, psi


class TestOddOnlySegments:
    # segment starts odd and even, windows starting on p^2 (9, 25, 49, 121)
    # and on a prime (3, 1031), and hi = 2
    ENDS = [2, 3, 4, 8, 9, 25, 48, 49, 121, 1024, 1025, 1031]

    @pytest.mark.parametrize("segment", [1, 2, 3, 7, 1024])
    def test_against_plain_sieve(self, segment):
        oracle = base_primes(max(self.ENDS))
        for lo in self.ENDS:
            for hi in self.ENDS:
                parts = list(prime_segments(lo, hi, segment=segment))
                want = oracle[(oracle >= lo) & (oracle <= hi)]
                got = np.concatenate(parts) if parts else np.empty(0, np.int64)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (lo, hi, segment)
                # one array per segment, each inside its own window
                n = max(0, hi - max(lo, 2) + 1)
                assert len(parts) == -(-n // segment)
                for k, part in enumerate(parts):
                    start = max(lo, 2) + k * segment
                    assert np.all((part >= start) & (part < start + segment))


@st.composite
def sieve_windows(draw):
    """(lo, hi, segment): segments up to past one wheel period of odd
    numbers, at most 64 of them, from anywhere below 2e5 or from a start
    that a wheel prime, a wheel prime's square or a period end marks."""
    segment = draw(st.integers(1, 2 * _WHEEL + 9))
    lo = draw(st.integers(0, 200_000) | st.sampled_from(
        [3, 5, 7, 11, 13, 17, 9, 25, 49, 121, 169, 289,
         _WHEEL - 2, _WHEEL, _WHEEL + 2, 2 * _WHEEL - 1, 2 * _WHEEL + 1, 2 * _WHEEL + 3]))
    return lo, lo + draw(st.integers(-1, min(64 * segment, 1_100_000))), segment


class TestWheelSieve:
    @settings(max_examples=150, deadline=None)
    @given(sieve_windows())
    @example((2, 2 * _WHEEL + 19, 2 * _WHEEL + 9))  # one mask longer than a period
    @example((_WHEEL - 40, 3 * _WHEEL, 2 * _WHEEL + 9))
    @example((2 * _WHEEL - 1, 2 * _WHEEL + 99, 7))
    def test_equals_base_primes(self, window):
        lo, hi, segment = window
        parts = list(prime_segments(lo, hi, segment=segment))
        got = np.concatenate(parts) if parts else np.empty(0, np.int64)
        want = base_primes(hi)
        assert got.dtype == np.int64
        assert np.array_equal(got, want[want >= lo])

    @pytest.mark.parametrize("segment", [1024, DEFAULT_SEGMENT])
    def test_high_window_against_sympy(self, segment):
        # the base primes run to 1e6; a 1024-wide segment has 512 mask
        # entries, so every base prime above 17 goes through the scatter
        sympy = pytest.importorskip("sympy")
        lo, hi = 10 ** 12, 10 ** 12 + 20_000
        want = list(sympy.primerange(lo, hi + 1))
        got = np.concatenate(list(prime_segments(lo, hi, segment=segment)))
        assert got.tolist() == want
        mass = [math.log(p) for p in want if p > lo]
        for k in range(2, hi.bit_length()):
            r = sympy.integer_nthroot(hi, k)[0]
            while r ** k > lo:
                if sympy.isprime(r):
                    mass.append(math.log(r))
                r -= 1
        assert lambda_sum_interval(lo, hi, segment=segment) == pytest.approx(
            math.fsum(mass), rel=1e-13)


class TestModulusValidation:
    # below x = 2 no pass runs, so the check must come first
    @pytest.mark.parametrize("q", [0, -3])
    def test_q_below_one_is_domain_error(self, q):
        for call in (lambda: residue_masses(100.0, q, "psi"),
                     lambda: residue_masses(1.0, q, "theta"),
                     lambda: ResidueCounter(q), lambda: ResidueCounter([5, q])):
            with pytest.raises(DomainError, match="q must be >= 1"):
                call()

    def test_numpy_integer_moduli(self):
        want = ResidueCounter(7).counts_at([1000.0])[0]
        for q in (np.int64(7), np.int32(7), [np.int64(7)]):
            got = ResidueCounter(q).counts_at([1000.0])[0]
            for u, v in zip(got, want):
                assert np.array_equal(u, v)
        assert np.array_equal(residue_masses(1000.0, np.int64(7), "psi"), want[2])


@pytest.fixture
def passes(monkeypatch):
    """Arguments of every prime_segments call made in this process, from an
    empty residue_masses memo on."""
    arith._last_masses.cache_clear()
    calls = []
    original = arith.prime_segments

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(arith, "prime_segments", counting)
    return calls


class TestResidueMassesMemo:
    def test_theta_after_psi_is_one_pass(self, passes):
        residue_masses(1e5, 7, "psi")
        residue_masses(1e5 + 0.5, 7, "theta")
        assert len(passes) == 1

    def test_new_key_is_a_new_pass(self, passes):
        keys = [(1e5, 7, "psi"), (1e5, 8, "psi"), (1e5 + 1, 8, "theta"),
                (1e5 + 1, 8, "psi1"), (1e5 + 1.5, 8, "psi1"), (1e5 + 1, 8, "psi")]
        for n, key in enumerate(keys, 1):
            residue_masses(*key)
            assert len(passes) == n, key

    def test_writing_into_a_result_changes_no_later_one(self, passes):
        first = residue_masses(1e5, 7, "psi")
        want = first.copy()
        first[:] = -1.0
        assert np.array_equal(residue_masses(1e5, 7, "psi"), want)
        assert len(passes) == 1

    @pytest.mark.parametrize("kinds", [("psi", "theta"), ("theta", "psi"), ("psi1", "psi1")])
    def test_kept_result_equals_a_fresh_pass(self, passes, kinds):
        first, second = kinds
        x, q = 54321.5, 12
        residue_masses(x, q, first)
        kept = residue_masses(x, q, second)
        arith._last_masses.cache_clear()
        assert np.array_equal(kept, residue_masses(x, q, second))
        assert len(passes) == 2


class TestModuliFold:
    MODULI = [1, 2, 3, 6, 12, 24, 17, 19, 23, _FOLD_LCM_MAX, 5051]
    XS = [2.0, 1.0e4, 54321.5, 1.5e5]

    def test_groups_divide_their_lcm(self):
        for moduli in (self.MODULI, list(range(3, 31)), [9973, 9240, 8192, 10000]):
            groups = _fold_groups(moduli)
            assert sorted(q for _, members in groups for q in members) == sorted(moduli)
            for big, members in groups:
                assert all(big % q == 0 for q in members)
                assert big <= _FOLD_LCM_MAX or big in members
        assert len(_fold_groups(range(3, 31))) == 5
        assert len(_fold_groups([9973, 9240, 8192, 10000])) == 4

    def test_against_plain_sieve(self):
        snaps = ResidueCounter(self.MODULI, segment=4096).counts_at_multi(self.XS)
        for q in self.MODULI:
            for x, (pi_q, th_q, ps_q) in zip(self.XS, snaps[q]):
                pi, theta, psi = plain_class_sums(x, q)
                assert np.array_equal(pi_q, pi), (q, x)
                assert np.allclose(th_q, theta, rtol=0, atol=1e-9), (q, x)
                assert np.allclose(ps_q, psi, rtol=0, atol=1e-9), (q, x)

    def test_order_and_company_do_not_matter(self):
        base = ResidueCounter(self.MODULI, segment=4096).counts_at_multi(self.XS)
        shuffled = list(self.MODULI)
        np.random.default_rng(6).shuffle(shuffled)
        assert shuffled != self.MODULI
        again = ResidueCounter(shuffled, segment=4096).counts_at_multi(self.XS)
        for q in self.MODULI:
            single = ResidueCounter([q], segment=4096).counts_at(self.XS)
            for a, b, c in zip(base[q], again[q], single):
                for u, v in zip(a, b):
                    assert np.array_equal(u, v)
                assert np.array_equal(a[0], c[0])
                assert np.allclose(a[1], c[1], rtol=0, atol=1e-9)
                assert np.allclose(a[2], c[2], rtol=0, atol=1e-9)

    def test_class_sums_within_1e14_of_fsum(self):
        # every class of every q in 3..30 at 1e6, against math.fsum of the
        # same float64 weights: only the summation error is measured
        x = 10 ** 6
        primes = base_primes(x)
        logs = np.log(primes.astype(float))
        powers = [(pk, lp) for _, pk, lp in higher_prime_powers(x)]
        moduli = list(range(3, 31))
        snaps = ResidueCounter(moduli).counts_at_multi([float(x)])
        for q in moduli:
            _, th_q, ps_q = snaps[q][0]
            theta_terms = [[] for _ in range(q)]
            for r, w in zip((primes % q).tolist(), logs.tolist()):
                theta_terms[r].append(w)
            for r in range(q):
                theta = math.fsum(theta_terms[r])
                psi = math.fsum(theta_terms[r] + [w for pk, w in powers if pk % q == r])
                assert abs(th_q[r] - theta) <= 1e-14 * theta, (q, r)
                assert abs(ps_q[r] - psi) <= 1e-14 * psi, (q, r)


def usable_cpus(monkeypatch, cpus):
    """Make the kernel see `cpus` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestChunkedPass:
    # segments of 64 make chunks of 512 integers: [2, 513], [514, 1025], ...
    SEGMENT = 64
    MODULI = [1, 3, 4, 30, 9973]

    def run(self, xs, moduli=MODULI):
        return ResidueCounter(moduli, segment=self.SEGMENT).counts_at_multi(xs)

    @pytest.fixture(autouse=True)
    def time_limit(self):
        """A test whose workers stall fails after 60 s, and does not hang.
        Not TimeoutError: an OSError, which multiprocessing's join swallows."""
        def expire(signum, frame):
            pytest.fail("the test ran for 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_same_bits_on_any_cpu_count(self, monkeypatch, passes):
        # 2e4 spans 40 chunks; with three usable CPUs the pieces all run in
        # workers, so this process sieves nothing
        xs = [700.5, 1025.0, 5000.0, 2.0e4]
        runs = {}
        for cpus in (1, arith._usable_cpus(), 3):
            usable_cpus(monkeypatch, cpus)
            passes.clear()
            runs[cpus] = (self.run(xs), lambda_sum_interval(1000.5, 2.0e4, segment=self.SEGMENT))
            assert bool(passes) == (cpus == 1), cpus
        want_snaps, want_window = runs.pop(1)
        for snaps, window in runs.values():
            assert window == want_window
            for q in self.MODULI:
                for got, want in zip(snaps[q], want_snaps[q]):
                    for u, v in zip(got, want):
                        assert u.dtype == v.dtype and np.array_equal(u, v)

    def test_cuts_on_and_inside_chunks_against_plain_sieve(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        # the first and the last integer of chunk 1, duplicated; several cuts
        # inside chunk 2, one of them inside a segment; a cut far beyond
        xs = [514.0, 1025.0, 1025.0, 1100.0, 1151.0, 1400.5, 1537.0, 5000.0]
        snaps = self.run(xs)
        for q in self.MODULI:
            assert len(snaps[q]) == len(xs)
            for x, (pi_q, th_q, ps_q) in zip(xs, snaps[q]):
                pi, theta, psi = plain_class_sums(x, q)
                assert np.array_equal(pi_q, pi), (q, x)
                assert np.allclose(th_q, theta, rtol=0, atol=1e-9), (q, x)
                assert np.allclose(ps_q, psi, rtol=0, atol=1e-9), (q, x)

    @staticmethod
    def unchunked_theta(cuts, q, segment):
        """theta per residue mod q at each cut from one pass in this
        process: segments from 2 on, split at the cuts, their sums added
        in order by Neumaier."""
        acc, out, i = np.zeros((2, q)), [], 0
        for pr in prime_segments(2, cuts[-1], segment=segment):
            w = np.log(pr, dtype=np.float64)
            start = 0
            while i < len(cuts) and pr.size and pr[-1] > cuts[i]:
                stop = int(np.searchsorted(pr, cuts[i], side="right"))
                arith._neumaier_add(acc, arith._class_sums(pr[start:stop], w[start:stop], q)[1])
                start = stop
                out.append(acc[0] + acc[1])
                i += 1
            arith._neumaier_add(acc, arith._class_sums(pr[start:], w[start:], q)[1])
        return out + [acc[0] + acc[1]] * (len(cuts) - i)

    @pytest.mark.parametrize("q", [7, 9973])
    def test_same_bits_as_an_unchunked_pass(self, monkeypatch, q):
        # the pieces keep to the pass's segment grid, so their sums are
        # those of one unchunked pass; segments of 4096 hold enough primes
        # per residue for a sum over another split to round otherwise
        usable_cpus(monkeypatch, 3)
        segment = 4096
        cuts = [32769, 40000, 40000, 50001, 61234, 100003, 300000]
        want = self.unchunked_theta(cuts, q, segment)
        snaps = ResidueCounter(q, segment=segment).counts_at([float(c) for c in cuts])
        for (_, theta, _), ref in zip(snaps, want):
            assert np.array_equal(theta, ref)

    @pytest.fixture
    def no_process(self, monkeypatch):
        """Three usable CPUs, and starting a process raises."""
        usable_cpus(monkeypatch, 3)

        def start(self):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)

    def test_one_chunk_starts_no_process(self, no_process):
        # up to 513 is chunk 0, however many cuts split it
        self.run([100.0, 200.0, 513.0])
        lambda_sum_interval(600.0, 1111.0, segment=self.SEGMENT)
        residue_masses(1.0e6 + 0.25, 1001, "psi1")
        # one integer past the chunk does start one
        with pytest.raises(AssertionError, match="process was started"):
            self.run([514.0])

    def test_daemon_process_runs_the_pass_itself(self, monkeypatch, no_process):
        # a daemonic process, e.g. a worker of the caller's own pool, may
        # not start processes
        monkeypatch.setitem(multiprocessing.current_process()._config, "daemon", True)
        want = plain_class_sums(5000.0, 30)[0]
        assert np.array_equal(self.run([5000.0], moduli=[30])[30][0][0], want)

    @staticmethod
    def in_workers(monkeypatch, act):
        """Make the workers call act(primes) before each residue sum."""
        parent = os.getpid()
        original = arith._class_sums

        def class_sums(n, w, q):
            if os.getpid() != parent:
                act(n)
            return original(n, w, q)

        monkeypatch.setattr(arith, "_class_sums", class_sums)

    def test_early_close_leaves_no_process(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        # past the first cut the workers stall, so they are busy at the close
        self.in_workers(monkeypatch, lambda n: n.size and n[0] > 600 and time.sleep(60))
        passes = arith._lambda_sums(2, [600, 3000, 9000], [3, 4], segment=self.SEGMENT)
        first = next(passes)
        assert int(first[3][0].sum()) == 109  # pi(600)
        assert len(multiprocessing.active_children()) == 3
        began = time.monotonic()
        passes.close()
        assert multiprocessing.active_children() == []
        assert time.monotonic() - began < 30

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        usable_cpus(monkeypatch, 3)

        def fail(n):
            raise RuntimeError("a worker failed")

        self.in_workers(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="a worker failed"):
            self.run([700.0, 5000.0])
        assert multiprocessing.active_children() == []

    def test_worker_exit_reaches_the_caller(self, monkeypatch):
        # a worker that ends without a word, as one the OS kills would; with
        # two CPUs the last worker started ends, so this process must not
        # keep its pipe open
        usable_cpus(monkeypatch, 2)
        self.in_workers(monkeypatch, lambda n: n.size and n[0] > 600 and os._exit(3))
        with pytest.raises(RuntimeError, match="exit code 3"):
            self.run([700.0, 5000.0])
        assert multiprocessing.active_children() == []


class TestShortInterval:
    def test_brute_force_window(self):
        x = 1.0e6
        h = math.sqrt(x) * math.log(x)
        brute = math.fsum(lambda_naive(n)
                          for n in range(int(x) + 1, int(math.floor(x + h)) + 1))
        assert short_interval_psi_delta(x) == pytest.approx(brute - h, abs=1e-9)

    def test_empty_window(self):
        # (2, 2 + sqrt(2) log 2] contains no integer
        x = 2.0
        assert short_interval_psi_delta(x) == pytest.approx(
            -math.sqrt(2.0) * math.log(2.0), rel=1e-15)

    def test_window_is_difference_of_psi(self):
        # windows that start or end on a prime power, sieved in tiny segments
        for a, b in [(1024, 2187), (1000.5, 1024), (1023, 1024), (1024, 1024),
                     (2187, 3125), (2186.9, 2187.0), (3125, 4000.25)]:
            got = lambda_sum_interval(a, b, segment=64)
            assert got == pytest.approx(psi(b) - psi(a), abs=1e-9)

    def test_window_beyond_the_limit_names_x_and_its_end(self):
        # x itself is below 2^53, the end of its window is not
        x = 2.0 ** 53 - 1e6
        with pytest.raises(DomainError, match=r"9007199253740992\.0.*9007202740293544\.0.*limit"):
            short_interval_psi_delta(x)

    def test_definitional_split(self):
        x = 12345.0
        h = math.sqrt(x) * math.log(x)
        assert short_interval_psi_delta(x) == pytest.approx(
            lambda_sum_interval(x, x + h) - h, rel=1e-15)


class TestPsi1:
    def test_small_values(self):
        assert psi1_plain(4.0) == pytest.approx(2 * math.log(2) + math.log(3), rel=1e-14)
        assert psi1_plain(2.0) == 0.0

    def test_convexity(self):
        xs = np.linspace(10.0, 500.0, 40)
        vals = [psi1_plain(float(x)) for x in xs]
        # piecewise-linear with nondecreasing slope: midpoint below chord
        for i in range(1, len(xs) - 1):
            chord = 0.5 * (vals[i - 1] + vals[i + 1])
            assert vals[i] <= chord + 1e-9

    def test_against_naive_oracle(self):
        x = 300.5
        expected = math.fsum(lambda_naive(n) * (x - n)
                             for n in range(2, int(x) + 1))
        assert psi1_plain(x) == pytest.approx(expected, rel=1e-13)


class TestCharacters:
    def test_q3(self):
        tab = character_table(3)
        assert len(tab) == 2
        chi = [c for c in tab if not c.is_principal][0]
        assert chi.value(2) == pytest.approx(-1.0)
        assert chi.parity == 1

    def test_q5_orthogonality(self):
        for chi in character_table(5):
            s = sum(chi.value(n) for n in range(5))
            if chi.is_principal:
                assert s == pytest.approx(4.0)
            else:
                assert abs(s) < 1e-12

    def test_q8_real(self):
        tab = character_table(8)
        assert len(tab) == 4
        for chi in tab:
            for n in range(8):
                assert abs(chi.value(n).imag) < 1e-12

    @pytest.mark.parametrize("q", [5, 8, 9, 12, 15, 16, 24, 45])
    def test_multiplicative_and_periodic(self, q):
        rng = np.random.default_rng(q)
        for chi in character_table(q):
            for _ in range(20):
                m, n = rng.integers(1, 4 * q, size=2)
                lhs = chi.value(int(m) * int(n))
                rhs = chi.value(int(m)) * chi.value(int(n))
                assert abs(lhs - rhs) < 1e-12
                assert abs(chi.value(int(m) + q) - chi.value(int(m))) < 1e-12
                assert abs(chi.value(int(m))) in (pytest.approx(0.0), pytest.approx(1.0))

    @pytest.mark.parametrize("q", [5, 8, 9, 12, 45, 56])
    def test_conrey_pairing_symmetry(self, q):
        tab = {c.index: c for c in character_table(q)}
        assert sorted(tab) == [n for n in range(1, q) if math.gcd(n, q) == 1]
        for m in tab:
            for n in tab:
                assert abs(tab[m].value(n) - tab[n].value(m)) < 1e-12

    @pytest.mark.parametrize("q", [840, 997, 1001, 1024])
    def test_conrey_exponent_matrix_symmetric(self, q):
        # chi_m(n) = chi_n(m): rows by Conrey index m, columns by unit n
        chars = sorted(character_table(q), key=lambda c: c.index)
        units = np.array([c.index for c in chars])
        assert units.tolist() == [n for n in range(1, q) if math.gcd(n, q) == 1]
        exps = np.array([c.exponent_table()[units] for c in chars])
        assert np.array_equal(exps, exps.T)

    @pytest.mark.parametrize("q", [105, 120, 128])
    def test_multiplicative_on_all_unit_pairs(self, q):
        units = np.array([n for n in range(1, q) if math.gcd(n, q) == 1])
        products = np.outer(units, units) % q
        for chi in character_table(q):
            t = chi.exponent_table()
            want = (t[units][:, None] + t[units][None, :]) % chi.group_exponent
            assert np.array_equal(t[products], want)

    @pytest.mark.parametrize("q", [105, 128, 997])
    def test_exponent_of_outside_zero_to_q(self, q):
        rng = np.random.default_rng(q)
        ns = [-1, -q, -q - 1, q, q + 1, 5 * q + 2]
        ns += rng.integers(-10 * q, 0, size=20).tolist()
        ns += rng.integers(q, 10 * q, size=20).tolist()
        for chi in character_table(q)[:16]:
            table = chi.exponent_table()
            for n in ns:
                if math.gcd(n, q) == 1:
                    assert chi.exponent_of(n) == table[n % q]
                else:
                    assert chi.exponent_of(n) is None
                    assert table[n % q] == chi.group_exponent

    def test_parity_matches_minus_one(self):
        for q in (5, 7, 8, 9, 12, 16, 840, 1024):
            for chi in character_table(q):
                assert chi.value(q - 1) == pytest.approx((-1.0) ** chi.parity)

    @pytest.mark.parametrize("q", list(range(3, 201)) + [840, 997, 1001, 1024, 2310])
    def test_conductor_is_least_inducing_divisor(self, q):
        # chi is induced from d | q iff it is 1 on every unit n = 1 (mod d)
        chars = character_table(q)
        n = np.arange(q)
        units = np.gcd(n, q) == 1
        table = np.array([c.exponent_table() for c in chars])
        divisors = [d for d in range(1, q + 1) if q % d == 0]
        induced = np.array([(table[:, units & (n % d == 1 % d)] == 0).all(axis=1)
                            for d in divisors])
        least = np.array(divisors)[induced.argmax(axis=0)]
        assert [c.conductor for c in chars] == least.tolist()
        assert [c.is_primitive for c in chars] == (least == q).tolist()

    @pytest.mark.parametrize("q", list(range(3, 201)) + [840, 997, 1001, 1024, 2310])
    def test_value_reads_value_table(self, q):
        # every n in [-q, 2q) up to q = 200; for the large moduli the 10.5M
        # probes would dominate the suite, so they take the edges and 96
        # seeded n per character
        ns = np.arange(-q, 2 * q)
        if q > 200:
            ns = np.concatenate(([-q, -1, 0, 1, q - 1, q, 2 * q - 1],
                                 np.random.default_rng(q).integers(-q, 2 * q, size=96)))
        ns = ns.tolist()
        for chi in character_table(q):
            got = np.array([chi.value(n) for n in ns])
            assert np.array_equal(got, chi.value_table()[np.array(ns) % q])

    def test_conductors_q9(self):
        tab = character_table(9)
        conds = sorted(c.conductor for c in tab)
        assert conds == [1, 3, 9, 9, 9, 9]
        assert sum(c.is_primitive for c in tab) == 4

    def test_conductor_q12(self):
        tab = character_table(12)
        # one principal (cond 1), inductions from 3 and 4, one primitive mod 12
        assert sorted(c.conductor for c in tab) == [1, 3, 4, 12]

    def test_principal_first_with_index_one(self):
        for q in (3, 8, 45):
            tab = character_table(q)
            assert tab[0].is_principal
            assert tab[0].index == 1

    def test_counts(self):
        for q in (3, 4, 5, 8, 9, 12, 30, 40, 45):
            assert len(character_table(q)) == euler_phi(q)

    def test_domain(self):
        with pytest.raises(DomainError):
            character_table(2)

    def test_stops_at_the_small_moduli_range(self):
        assert len(character_table(10_000)) == euler_phi(10_000) == 4000
        with pytest.raises(DomainError, match="10\\^4"):
            character_table(10_001)


class TestTwistedSums:
    def test_principal_subtracts_shared_factors(self):
        x, q = 3000.0, 12
        chi0 = character_table(q)[0]
        got = twisted(x, chi0, "psi")
        stuck = math.fsum(lambda_naive(n) for n in range(2, int(x) + 1)
                          if math.gcd(n, q) > 1)
        assert got.imag == pytest.approx(0.0, abs=1e-12)
        assert got.real == pytest.approx(psi(x) - stuck, abs=1e-9)
        assert stuck <= 1.12 * math.log(q) * math.log(x)

    def test_empty_below_two(self):
        chi = character_table(5)[1]
        assert twisted(1.5, chi, "psi") == 0j

    def test_orthogonality_reconstruction(self):
        x, q, a = 10000.0, 7, 3
        direct = ap_counts(x, q, a).psi
        rebuilt = psi_from_characters(x, q, a)
        assert abs(rebuilt - direct) < 1e-9

    def test_orthogonality_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            q = int(rng.choice([3, 5, 8, 9, 12, 15]))
            x = float(rng.integers(100, 20000))
            a = int(rng.choice([r for r in range(1, q) if math.gcd(r, q) == 1]))
            assert abs(psi_from_characters(x, q, a) - ap_counts(x, q, a).psi) < 1e-9

    def test_orthogonality_larger_modulus(self):
        # a prime modulus with full character-group order at desk scale
        x, q, a = 1.0e6, 97, 35
        assert abs(psi_from_characters(x, q, a) - ap_counts(x, q, a).psi) < 1e-9

    def test_induced_pair_bound(self):
        # the mod-9 character of conductor 3 against its mod-3 inducer
        x = 10000.0
        chi9 = [c for c in character_table(9) if c.conductor == 3][0]
        chi3 = [c for c in character_table(3) if not c.is_principal][0]
        d = abs(twisted(x, chi9, "psi") - twisted(x, chi3, "psi"))
        assert d <= 1.12 * math.log(9) * math.log(x)

    def test_theta_and_psi1_kinds(self):
        x, q = 500.0, 5
        chi = character_table(q)[1]
        table = chi.value_table()
        th = sum(table[p % q] * math.log(p)
                 for p in base_primes(int(x)).tolist())
        assert twisted(x, chi, "theta") == pytest.approx(th, abs=1e-10)
        ps1 = sum(table[n % q] * lambda_naive(n) * (x - n)
                  for n in range(2, int(x) + 1))
        assert twisted(x, chi, "psi1") == pytest.approx(ps1, abs=1e-8)


class TestValidationRecords:
    def test_apcounts_invariants(self):
        with pytest.raises(ValidationError):
            APCounts(x=10.0, q=4, a=2, pi=0, theta=0.0, psi=0.0)
        with pytest.raises(ValidationError):
            APCounts(x=10.0, q=3, a=1, pi=0, theta=5.0, psi=1.0)

    def test_prime_factors(self):
        assert prime_factors(360) == [(2, 3), (3, 2), (5, 1)]
        assert prime_factors(97) == [(97, 1)]
        assert euler_phi(360) == 96
