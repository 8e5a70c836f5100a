"""Per-layer metrics from the spans of one traced run (see tracer.py).

Three times are derived per span:

* duration: end - start;
* self time: duration minus the durations of its child spans;
* layer time: duration minus the durations of its nearest descendants that
  belong to another layer (a module), so a scan's own helpers stay in it and
  the sieve or lane builds it triggers do not.

A layer's share is the sum of its spans' self times over the traced time,
the summed duration of the top-level spans.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import TRACED_LAYERS

LANES = frozenset(
    f"summatory.SummatoryTables.{lane}"
    for lane in (
        "mu",
        "mertens",
        "primes",
        "g_arrays",
        "f_arrays",
        "theta_arrays",
        "eps_arrays",
        "harmonic_arrays",
        "prime_weights",
    )
)
PREFIX = frozenset(
    f"summatory.ScaledMoebiusPrefix.{part}"
    for part in ("__init__", "scaled_harmonic", "scaled_g_cumsum")
)
SIEVE_VALUES = frozenset({"sieve.iter_moebius_blocks", "sieve.sieve_moebius"})
BOUND_SCANS = {
    "bounds.g_bound_s": "bounds.check_g_bound",
    "bounds.mangoldt_s": "bounds.check_mangoldt_bound",
    "bounds.theta_s": "bounds.check_theta_bounds",
    "bounds.harmonic_s": "bounds.check_harmonic_bound",
    "bounds.tail_scan_s": "bounds.tail_bound_scan",
}
IDENTITY_SCANS = {
    "identities.gram_scan_s": "identities.gram_scan",
    "identities.abel_scan_s": "identities.abel_scan",
    "identities.decomposition_scan_s": "identities.decomposition_scan",
    "identities.divisor_sum_s": "identities.divisor_sum",
}
M_DECADES = (9, 10)
G_DECADES = (7,)
FAST_ROOTS = frozenset({"fast.m_recursive", "fast.g_recursive_float"})

# name -> unit of every metric ``analyse`` returns
UNITS = {
    "sieve.values": "count",
    "sieve.values_per_s": "1/s",
    "sieve.prime_flags_per_s": "1/s",
    "summatory.prefix_build_s": "s",
    "summatory.lanes_build_s": "s",
    "summatory.lane_bytes_per_entry": "B",
    "summatory.tail_dense_s": "s",
    "summatory.h_dense_s": "s",
    "summatory.h_gather_s": "s",
    "summatory.h_gathers": "count",
    **{name: "s" for name in IDENTITY_SCANS},
    "identities.gram_points_per_s": "1/s",
    **{name: "s" for name in BOUND_SCANS},
    **{f"fast.m_recursive_s.1e{d}": "s" for d in M_DECADES},
    **{f"fast.g_recursive_float_s.1e{d}": "s" for d in G_DECADES},
    "fast.floor_values": "count",
    "cli.self_s": "s",
    **{f"share.{layer}": "ratio" for layer in TRACED_LAYERS},
    "share.gram_scan": "ratio",
    "share.tail_and_bounds": "ratio",
    "share.h_gathers": "ratio",
    "share.fast_and_base_sieve": "ratio",
    "trace.spans": "count",
    "trace.traced_s": "s",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _decade(x: int | None) -> int | None:
    return None if x is None else int(math.floor(math.log10(x) + 1e-12))


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def analyse(spans: list[list], lane_bytes_per_entry: float) -> dict[str, float]:
    """Per-layer metrics (named as in ``UNITS``) from a traced run's spans."""
    n = len(spans)
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)

    self_t = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]

    def layer_time(i: int) -> float:
        own, todo = dur[i], list(children[i])
        layer = _layer(names[i])
        while todo:
            c = todo.pop()
            if _layer(names[c]) == layer:
                todo.extend(children[c])
            else:
                own -= dur[c]
        return own

    layer_t = [layer_time(i) for i in range(n)]

    def outermost(members) -> list[int]:
        """Spans named in ``members`` with no ancestor also named in it."""
        out = []
        for i in range(n):
            if names[i] not in members:
                continue
            p = parent[i]
            while p >= 0 and names[p] not in members:
                p = parent[p]
            if p < 0:
                out.append(i)
        return out

    def total(members, times: list[float]) -> float:
        return sum(times[i] for i in outermost(members))

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def summed(name: str, times: list[float]) -> float:
        return sum(times[i] for i in by_name.get(name, ()))

    def count(name) -> int:
        return sum(spans[i][5] or 0 for i in by_name.get(name, ()))

    traced = sum(dur[i] for i in range(n) if parent[i] < 0)
    sieve_s = sum(summed(name, dur) for name in SIEVE_VALUES)
    values = sum(count(name) for name in SIEVE_VALUES)
    m = {
        "sieve.values": values,
        "sieve.values_per_s": _rate(values, sieve_s),
        "sieve.prime_flags_per_s": _rate(
            count("sieve.prime_flags"), summed("sieve.prime_flags", dur)
        ),
        "summatory.prefix_build_s": total(PREFIX, dur),
        "summatory.lanes_build_s": total(LANES, dur),
        "summatory.lane_bytes_per_entry": lane_bytes_per_entry,
        "summatory.tail_dense_s": summed(
            "summatory.SummatoryTables.tail_dense_arrays", self_t
        ),
        "summatory.h_dense_s": summed(
            "summatory.SummatoryTables.h_dense_arrays", self_t
        ),
        "summatory.h_gather_s": summed(
            "summatory.SummatoryTables.h_certified", self_t
        ),
        "summatory.h_gathers": len(by_name.get("summatory.SummatoryTables.h_certified", ())),
    }
    for metric, name in {**IDENTITY_SCANS, **BOUND_SCANS}.items():
        m[metric] = summed(name, layer_t)
    m["identities.gram_points_per_s"] = _rate(
        count("identities.gram_scan"), m["identities.gram_scan_s"]
    )
    for fn, decades in (("m_recursive", M_DECADES), ("g_recursive_float", G_DECADES)):
        for d in decades:
            m[f"fast.{fn}_s.1e{d}"] = sum(
                layer_t[i]
                for i in by_name.get(f"fast.{fn}", ())
                if _decade(spans[i][4]) == d
            )
    m["fast.floor_values"] = count("fast.mertens_floor_map")
    m["cli.self_s"] = summed("cli.main", layer_t)

    share = defaultdict(float)
    for i in range(n):
        share[_layer(names[i])] += self_t[i]
    for layer in TRACED_LAYERS:
        m[f"share.{layer}"] = _rate(share[layer], traced)
    m["share.gram_scan"] = _rate(total({"identities.gram_scan"}, dur), traced)
    m["share.tail_and_bounds"] = _rate(
        total({"summatory.SummatoryTables.tail_dense_arrays"}, dur)
        + sum(summed(name, layer_t) for name in BOUND_SCANS.values()),
        traced,
    )
    m["share.h_gathers"] = _rate(
        total({"summatory.SummatoryTables.h_certified"}, dur), traced
    )
    m["share.fast_and_base_sieve"] = _rate(total(FAST_ROOTS, dur), traced)
    m["trace.spans"] = n
    m["trace.traced_s"] = traced
    return m
