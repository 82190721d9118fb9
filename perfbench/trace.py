"""Per-layer spans recorded from outside pntap.

`install` rebinds pntap's public functions (listed in LAYERS), wherever a
pntap module or class holds them, to wrappers that record one span per
call: layer name, start, end, parent span and a small `info` value taken
from the call's result.  Generators (`prime_segments`,
`higher_prime_powers`) get one span per `next()`, so sieve time separates
from the residue accumulation that consumes it.  Spans stay in memory;
`layer_metrics` derives every per-layer number from them afterwards.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time


def _size(args, result):
    return len(result)


def _report_counts(args, result):
    return [len(result.samples), result.skipped]


# (module, attribute or Class.method, layer, info taken from (args, result))
LAYERS = [
    ("pntap.cli", "main", "cli.main", None),
    ("pntap.cli", "render_table", "cli.render", None),
    ("pntap.constants", "soz_constants", "constants.soz", None),
    ("pntap.constants", "soz_constants_small", "constants.soz", None),
    ("pntap.constants", "short_interval_constants", "constants.short_interval", None),
    ("pntap.constants", "optimize_kappa", "constants.kappa_opt",
     lambda args, result: bool(result.converged)),
    ("pntap.constants", "twisted_psi_constants", "constants.chain_rest", None),
    ("pntap.constants", "twisted_psi_constants_small", "constants.chain_rest", None),
    ("pntap.constants", "ap_constants", "constants.chain_rest", None),
    ("pntap.constants", "ap_constants_small", "constants.chain_rest", None),
    ("pntap.constants", "evaluate_bounds", "constants.evaluate_bounds", None),
    ("pntap.quadrature", "integrate", "quadrature.integrate", None),
    ("pntap.quadrature", "exp_integral_ei", "quadrature.ei", None),
    ("pntap.quadrature", "log_integral_li", "quadrature.ei", None),
    ("pntap.zeros", "load_zero_table", "zeros.load", None),
    ("pntap.zeros", "exact_weighted_sum", "zeros.weighted_sum", None),
    ("pntap.zerosum", "bpt_sum", "zerosum.bpt_sum", None),
    ("pntap.arith", "prime_segments", "arith.sieve", lambda args, item: int(item.size)),
    ("pntap.arith", "base_primes", "arith.base_primes", None),
    ("pntap.arith", "higher_prime_powers", "arith.prime_powers", None),
    ("pntap.arith", "ResidueCounter.counts_at_multi", "arith.residue",
     lambda args, result: len(args[0].qs)),
    ("pntap.arith", "residue_masses", "arith.masses", None),
    ("pntap.arith", "lambda_sum_interval", "arith.lambda_sums", None),
    ("pntap.arith", "psi1_plain", "arith.lambda_sums", None),
    ("pntap.arith", "character_table", "arith.char_table", _size),
    ("pntap.arith", "DirichletCharacter.value_table", "arith.value_table", _size),
    ("pntap.verify", "verify_bpt", "verify.suite", _report_counts),
    ("pntap.verify", "verify_zero_count", "verify.suite", _report_counts),
    ("pntap.verify", "verify_psi1_explicit", "verify.suite", _report_counts),
    ("pntap.verify", "verify_short_interval", "verify.suite", _report_counts),
    ("pntap.verify", "verify_ap_bounds", "verify.suite", _report_counts),
    ("pntap.verify", "verify_lehman", "verify.suite", _report_counts),
    ("pntap.verify", "compare_gm_baseline", "verify.suite", _report_counts),
]

# per-layer metrics: (name, unit, better); BENCHMARK.json lists the same
METRICS = [
    ("cli.main.s", "s", "lower"),
    ("cli.render.s", "s", "lower"),
    ("constants.soz.calls", "count", "lower"),
    ("constants.soz.s", "s", "lower"),
    ("constants.short_interval.calls", "count", "lower"),
    ("constants.short_interval.s", "s", "lower"),
    ("constants.kappa_opt.calls", "count", "lower"),
    ("constants.kappa_opt.s", "s", "lower"),
    ("constants.kappa_opt.converged", "count", "higher"),
    ("constants.chain_rest.s", "s", "lower"),
    ("constants.evaluate_bounds.calls", "count", "lower"),
    ("constants.evaluate_bounds.s", "s", "lower"),
    ("quadrature.integrate.calls", "count", "lower"),
    ("quadrature.integrate.s", "s", "lower"),
    ("quadrature.ei.calls", "count", "lower"),
    ("quadrature.ei.s", "s", "lower"),
    ("zeros.load.s", "s", "lower"),
    ("zeros.weighted_sum.calls", "count", "lower"),
    ("zeros.weighted_sum.s", "s", "lower"),
    ("zerosum.bpt_sum.calls", "count", "lower"),
    ("zerosum.bpt_sum.s", "s", "lower"),
    ("arith.sieve.s", "s", "lower"),
    ("arith.sieve.primes", "count", "higher"),
    ("arith.sieve.segments", "count", "lower"),
    ("arith.sieve.primes_per_s", "1/s", "higher"),
    ("arith.base_primes.s", "s", "lower"),
    ("arith.prime_powers.s", "s", "lower"),
    ("arith.residue.s", "s", "lower"),
    ("arith.residue.moduli_segments", "count", "lower"),
    ("arith.masses.s", "s", "lower"),
    ("arith.lambda_sums.s", "s", "lower"),
    ("arith.char_table.s", "s", "lower"),
    ("arith.char_table.characters", "count", "higher"),
    ("arith.value_table.calls", "count", "lower"),
    ("arith.value_table.s", "s", "lower"),
    ("arith.value_table.entries_per_s", "1/s", "higher"),
    ("verify.suite.s", "s", "lower"),
    ("verify.samples", "count", "higher"),
    ("verify.skipped", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory spans: [layer, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, info=None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = info
        self._stack.pop()

    def wrap(self, fn, layer: str, info_of=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self.open(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        self.close(idx)
                        return
                    except BaseException:
                        self.close(idx)
                        raise
                    self.close(idx, info_of(args, item) if info_of else None)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, info_of(args, result) if info_of else None)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every LAYERS entry in every loaded pntap module and class."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pntap" or name.startswith("pntap."))]
        for mod_name, attr, layer, info_of in LAYERS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), layer, info_of))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, layer, info_of)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Self times, call counts and counters per layer, from the spans alone.

    A layer's self time is its spans' durations minus their direct
    children's; `calls` counts entries into a layer from outside it (so
    Li calling Ei, or soz_constants_small calling soz_constants, is one
    call).  `trace.unattributed_s` is the wall time no span covers.
    """
    child_time = [0.0] * len(spans)
    sieve_children = [0] * len(spans)
    for layer, start, end, parent, info in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if layer == "arith.sieve" and info:
                sieve_children[parent] += 1
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered = 0.0
    for i, (layer, start, end, parent, info) in enumerate(spans):
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[i]
        if parent < 0 or spans[parent][0] != layer:
            calls[layer] = calls.get(layer, 0) + 1
        if parent < 0:
            covered += end - start

    def infos(layer):
        return [s[4] for s in spans if s[0] == layer and s[4] is not None]

    m = {name: 0.0 for name, _, _ in METRICS}
    for name, _, _ in METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "s" and layer in self_s:
            m[name] = self_s[layer]
        elif kind == "calls":
            m[name] = float(calls.get(layer, 0))
    m["constants.kappa_opt.converged"] = float(sum(infos("constants.kappa_opt")))
    m["arith.sieve.primes"] = float(sum(infos("arith.sieve")))
    m["arith.sieve.segments"] = float(len(infos("arith.sieve")))
    if m["arith.sieve.s"] > 0:
        m["arith.sieve.primes_per_s"] = m["arith.sieve.primes"] / m["arith.sieve.s"]
    m["arith.residue.moduli_segments"] = float(sum(
        s[4] * sieve_children[i] for i, s in enumerate(spans)
        if s[0] == "arith.residue" and s[4] is not None))
    m["arith.char_table.characters"] = float(sum(infos("arith.char_table")))
    if m["arith.value_table.s"] > 0:
        m["arith.value_table.entries_per_s"] = \
            sum(infos("arith.value_table")) / m["arith.value_table.s"]
    reports = infos("verify.suite")
    m["verify.samples"] = float(sum(r[0] for r in reports))
    m["verify.skipped"] = float(sum(r[1] for r in reports))
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - covered
    return m
