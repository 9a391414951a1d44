"""Tracing entry point: one whitneylah CLI call with spans around every layer.

Usage: python3 perfbench/tracer.py STATS.json CLI-ARGS...

It wraps every public function of the seven modules of ``whitneylah``, the
``LaurentPoly``/``TruncSeries`` arithmetic methods and each registered
identity check, then calls ``whitneylah.cli.main(CLI-ARGS)``. Modules import
names directly (``from .qcalc import qint``), so every module's own binding
of a name is replaced, and so are the family functions the CLI captured in
``FAMILIES``. Each span is folded into per-name totals when it closes: the
number of entries, the time of the outermost entry (a nested entry of the
same name, such as a recursive ``qfact``, is not counted twice) and the
span's self time (its duration minus the time its child spans cover),
summed per layer. The totals stay in memory and are written to STATS.json
once, after the call returns or raises. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("arith", "qcalc", "classical", "whitney", "qwhitney", "verify", "cli")

# span names shared by several functions or methods
_BUCKETS = {
    ("arith", "lp_mul"): "lp_mul",
    ("classical", "rising_poly"): "poly",
    ("classical", "falling_poly"): "poly",
    ("classical", "genfact_poly"): "poly",
}
_LP_METHODS = {
    "__mul__": "lp_mul", "__rmul__": "lp_mul",
    "__add__": "lp_add", "__radd__": "lp_add", "__sub__": "lp_add",
    "__rsub__": "lp_add", "__neg__": "lp_add",
    "__pow__": "lp_pow", "to_str": "lp_to_str",
}
_TS_METHODS = {"__mul__": "ts_mul", "__rmul__": "ts_mul"}


class Tracer:
    """In-memory span totals for one process."""

    def __init__(self):
        self.stack = [[0.0, 0.0]]  # open spans as [start, time covered by children]
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)  # outermost entries only
        self.errors = defaultdict(int)
        self.self_s = defaultdict(float)  # per layer
        self.counts = defaultdict(int)
        self.depth = defaultdict(int)

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        key = f"{layer}.{name}"
        stack, calls, seconds, errors = self.stack, self.calls, self.seconds, self.errors
        self_s, depth = self.self_s, self.depth
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            depth[key] += 1
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            except BaseException:
                errors[key] += 1
                raise
            finally:
                duration = perf() - frame[0]
                stack.pop()
                stack[-1][1] += duration
                self_s[layer] += duration - frame[1]
                depth[key] -= 1
                if not depth[key]:
                    seconds[key] += duration

        return traced


def install(tracer: Tracer) -> dict:
    """Wrap the program's public names; return the memo caches to read at the end."""
    import whitneylah

    mods = {layer: importlib.import_module(f"whitneylah.{layer}") for layer in LAYERS}
    arith, verify = mods["arith"], mods["verify"]
    caches = {
        layer: {
            name: fn
            for name, fn in vars(mod).items()
            if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__
        }
        for layer, mod in mods.items()
    }
    counts = tracer.counts

    for ident in verify.registry_ids():
        spec = verify.get_identity(ident)
        object.__setattr__(spec, "check", tracer.wrap("verify", "id:" + ident, spec.check))

    replaced = {}
    for layer, mod in mods.items():
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or getattr(fn, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(fn) or hasattr(fn, "cache_info"):
                bucket = _BUCKETS.get((layer, name), name)
                replaced[id(fn)] = (fn, tracer.wrap(layer, bucket, fn))
    for holder in (whitneylah, *mods.values()):
        for name, value in list(vars(holder).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(holder, name, hit[1])
    for family in mods["cli"].FAMILIES.values():
        hit = replaced.get(id(family.value))
        if hit is not None and hit[0] is family.value:
            object.__setattr__(family, "value", hit[1])

    lp_cls, ts_cls = arith.LaurentPoly, arith.TruncSeries

    def mul_before(args):
        a, b = args
        lb = len(b) if isinstance(b, lp_cls) else int(isinstance(b, (int, Fraction)) and b != 0)
        counts["lp_mul.term_products"] += len(a) * lb
        if len(a) == 1 or lb == 1:
            counts["lp_mul.monomial_calls"] += 1

    def mul_after(result):
        if isinstance(result, lp_cls):
            counts["lp_mul.results"] += 1
            if all(c.denominator == 1 for _, c in result.items()):
                counts["lp_mul.int_results"] += 1

    def str_after(result):
        counts["lp_to_str.bytes"] += len(result)

    def ts_mul_before(args):
        a, b = args
        if isinstance(b, ts_cls):
            n = min(a.order, b.order)
            counts["ts_mul.coeff_products"] += (n + 1) * (n + 2) // 2
        else:
            counts["ts_mul.coeff_products"] += a.order + 1

    hooks = {"lp_mul": (mul_before, mul_after), "lp_to_str": (None, str_after),
             "ts_mul": (ts_mul_before, None)}
    for cls, methods in ((lp_cls, _LP_METHODS), (ts_cls, _TS_METHODS)):
        for attr, name in methods.items():
            before, after = hooks.get(name, (None, None))
            setattr(cls, attr, tracer.wrap("arith", name, vars(cls)[attr], before, after))
    return caches


def stats(tracer: Tracer, caches: dict) -> dict:
    cache_info = {
        f"{layer}.{name}": list(fn.cache_info()[:2]) + [fn.cache_info().currsize]
        for layer, fns in caches.items()
        for name, fn in fns.items()
    }
    return {
        "calls": dict(tracer.calls),
        "seconds": dict(tracer.seconds),
        "errors": dict(tracer.errors),
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "caches": cache_info,  # name -> [hits, misses, entries]
    }


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    caches = install(tracer)
    from whitneylah import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(stats(tracer, caches), fh)


if __name__ == "__main__":
    sys.exit(main())
