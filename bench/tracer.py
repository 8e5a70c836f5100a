"""Span tracing of mobsum from outside the package, for the traced run.

    python3 bench/tracer.py SPANS_JSON cli ARGS...        # mobsum.cli.main(ARGS)
    python3 bench/tracer.py SPANS_JSON recursion ARGS...  # bench/recursion.py ARGS

Before the workload starts, every public function and method of the traced
modules is replaced by a wrapper that records one span per call: name,
start, end, parent span, the first argument when it is an int, and an
optional work count.  Names bound by ``from ... import`` in other mobsum
modules (``mobsum.cli`` rebinds ``SummatoryTables``, ``big_m``,
``series_scan``, ...; ``mobsum.fast`` rebinds ``moebius_values_upto``) are
replaced too, so every call path lands in a wrapper.  Spans stay in memory
and are written as JSON when the workload returns; the workload's own
output goes to stdout unchanged.

Per-term and per-point calls are left unwrapped so the tracer adds no cost
per term: their time stays in the caller's self time.  ``mobsum.certified``
holds nothing but such calls and is not wrapped at all; result records
(dataclasses) are not wrapped either.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
import weakref

TRACED_LAYERS = ("sieve", "summatory", "identities", "bounds", "fast", "cli")

UNWRAPPED = frozenset(
    {
        "summatory.floor_arg",
        "summatory.floor_div",
        "summatory.harmonic_number",
        "summatory.harmonic_segment",
        "summatory.ScaledMoebiusPrefix.g_fraction",
        "summatory.ScaledMoebiusPrefix.g_certified",
        "summatory.ScaledMoebiusPrefix.g_abs_le_one",
        "summatory.SummatoryTables.g_certified",
        "summatory.SummatoryTables.f_certified",
        "summatory.SummatoryTables.theta_certified",
        "summatory.SummatoryTables.eps_certified",
        "summatory.SummatoryTables.h_point",
        "sieve.moebius_oracle",
        "sieve.is_prime",
    }
)

# Work counts taken from a call's result, outside the span's time.
COUNTS = {
    "sieve.iter_moebius_blocks": len,
    "sieve.sieve_moebius": len,
    "sieve.prime_flags": lambda flags: int(flags.size),
    "identities.gram_scan": len,
    "fast.mertens_floor_map": lambda result: result[1].distinct_count(),
}


def _array_bytes(obj) -> int:
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, tuple):
        return sum(_array_bytes(x) for x in obj)
    return 0


class Tracer:
    """Span recorder on a clock that excludes the tracer's own bookkeeping."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, int arg or None, count]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.paused = 0.0
        self.enabled = True
        self.tables: list = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def untimed(self, fn, *args):
        """Run ``fn`` with tracing off and its time removed from the clock."""
        t0 = time.perf_counter()
        self.enabled = False
        try:
            return fn(*args)
        finally:
            self.enabled = True
            self.paused += time.perf_counter() - t0

    def _open(self, name: str, arg) -> int:
        i = len(self.spans)
        self.spans.append([name, self.now(), None, self.stack[-1] if self.stack else -1, arg, None])
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.stack.pop()
        self.spans[i][2] = self.now()

    def wrap(self, name: str, fn, after=None):
        count = COUNTS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, count)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            arg = args[0] if args and type(args[0]) is int else None
            i = self._open(name, arg)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                self.spans[i][5] = self.untimed(count, result)
            if after is not None:
                after(args[0])
            return result

        return traced

    def _wrap_generator(self, name: str, fn, count):
        """One span per item produced, so consumer time between items is not charged."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not self.enabled:
                    yield from it
                    return
                i = self._open(name, None)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                if count is not None:
                    self.spans[i][5] = count(item)
                yield item

        return traced

    def _wrap_lazy(self, name: str, fget):
        """A span on the first access per instance only.

        Every property of the traced classes builds a lane or table on first
        access and returns the cached one after; those later accesses are
        per-point calls and get no span.
        """
        traced = self.wrap(name, fget)
        built = weakref.WeakSet()

        @functools.wraps(fget)
        def first_access(obj):
            if obj in built:
                return fget(obj)
            built.add(obj)
            return traced(obj)

        return first_access

    def lane_bytes_per_entry(self) -> float:
        """Most bytes per entry that one SummatoryTables instance's lanes held."""
        return max(
            (sum(_array_bytes(v) for v in vars(t).values()) / t.limit for t in self.tables),
            default=0.0,
        )

    def _wrap_class(self, layer: str, cls) -> None:
        # instances are kept so their lanes can be measured once the workload is done
        after = self.tables.append if cls.__name__ == "SummatoryTables" else None
        for attr, member in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{attr}"
            if qual in UNWRAPPED or (attr.startswith("_") and attr != "__init__"):
                continue
            if isinstance(member, property):
                setattr(cls, attr, property(self._wrap_lazy(qual, member.fget)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(qual, member, after if attr == "__init__" else None))

    def install(self) -> None:
        """Wrap the public callables of every traced module, at every binding."""
        mods = {layer: importlib.import_module(f"mobsum.{layer}") for layer in TRACED_LAYERS}
        namespaces = [*mods.values(), importlib.import_module("mobsum")]
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not dataclasses.is_dataclass(obj):
                        self._wrap_class(layer, obj)
                elif callable(obj) and f"{layer}.{name}" not in UNWRAPPED:
                    wrapper = self.wrap(f"{layer}.{name}", obj)
                    for ns in namespaces:
                        if vars(ns).get(name) is obj:
                            setattr(ns, name, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "lane_bytes_per_entry": self.lane_bytes_per_entry()}, fh
            )


def main(argv: list[str]) -> int:
    spans_path, mode, *args = argv
    tracer = Tracer()
    tracer.install()
    if mode == "cli":
        import mobsum.cli

        run = mobsum.cli.main
    elif mode == "recursion":
        import recursion

        run = recursion.main
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    code = run(args)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
