"""Outside-in layer tracing: a traced request worker, and the per-layer
metrics computed from the spans it records.

The worker imports ``schreier``, replaces each layer's public functions at
the places where ``cli``, ``verify``, ``bijections`` and ``closed_forms``
bind them (and the suites in ``verify.SUITES``) with a wrapper that records
a span, runs ``schreier.cli.main(argv)``, and at exit writes its spans as
JSON to a file descriptor the harness reads.  ``core`` is not wrapped:
``fib`` and ``binom`` are called millions of times, so a wrapper would
mostly time itself; their cost shows in the caller's self time.

Usage: python spans.py SPAN_FD REQUEST_ID ARG ...
"""

from __future__ import annotations

import json
import os
import sys
import time

# Public functions wrapped per layer, at every binding outside their own module.
LAYER_FUNCTIONS = {
    "enumeration": (
        "count_family_a",
        "count_ratio_family",
        "enumerate_family_a",
        "enumerate_family_k",
        "enumerate_ratio_family",
    ),
    "closed_forms": (
        "band_count",
        "closed_count",
        "diagonal_count",
        "diagonal_double_sum",
        "family_k_case_counts",
        "family_k_count",
        "ratio_recurrence",
        "recurrence_table",
    ),
    "partial_sums": (
        "fib_partial_sum_closed",
        "iterated_partial_sum",
        "repeated_partial_sum",
        "seeded_partial_sum",
    ),
    "bijections": ("verify_partition",),
    "verify": ("run_suite",),
}
CALLING_MODULES = ("cli", "verify", "bijections", "closed_forms")
SUITES = (
    "thm1_1", "thm1_2", "thm1_3", "thm1_4", "prop3_1", "rec3_1", "lemma3_3",
    "lemma3_4", "lemma3_5", "eq3_8", "eq3_9", "eq1_2", "eq3_10", "mpq", "identities",
)
PARTITION_KINDS = ("thm1_1", "rec3_1", "thm1_4")
SCAN_FUNCTIONS = LAYER_FUNCTIONS["enumeration"]
ROUTES = ("naive", "structured")


# -- worker -------------------------------------------------------------------


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent_index, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(result, *args, **kwargs)
            return result

        return traced


def _span_attrs(oracle_cap):
    """Work counts per wrapped call, computed from its arguments and result."""

    def count_a(result, k, n, strategy="naive", **_):
        return {"route": strategy, "masks": 2**n if strategy == "naive" else 0}

    def enumerate_a(result, k, n, strategy="auto", **_):
        if strategy == "auto":
            strategy = "naive" if n <= oracle_cap() else "structured"
        masks = 2**n if strategy == "naive" else 0
        return {"route": strategy, "masks": masks, "members": len(result)}

    def enumerate_k(result, n, **_):
        return {"route": "naive", "masks": 2 ** (n - 1), "members": len(result)}

    def count_ratio(result, p, q, n):
        return {"route": "naive", "masks": 2 ** (n - 1)}

    def enumerate_ratio(result, p, q, n):
        return {"route": "naive", "masks": 2 ** (n - 1), "members": len(result)}

    return {
        "count_family_a": count_a,
        "enumerate_family_a": enumerate_a,
        "enumerate_family_k": enumerate_k,
        "count_ratio_family": count_ratio,
        "enumerate_ratio_family": enumerate_ratio,
        "recurrence_table": lambda result, k_max, n_max: {"cells": k_max * n_max},
        "verify_partition": lambda result, kind, n, k=None: {"kind": kind},
        "run_suite": lambda result, *a, **kw: {"checks": sum(r.checks for r in result)},
    }


def install(tracer: Tracer) -> None:
    import importlib

    from schreier import enumeration, verify

    attrs = _span_attrs(enumeration.oracle_cap)
    for caller in CALLING_MODULES:
        module = importlib.import_module(f"schreier.{caller}")
        for layer, names in LAYER_FUNCTIONS.items():
            if layer == caller:
                continue
            for name in names:
                if hasattr(module, name):
                    fn = getattr(module, name)
                    setattr(module, name, tracer.wrap(f"{layer}.{name}", fn, attrs.get(name)))
    for name, suite in list(verify.SUITES.items()):
        verify.SUITES[name] = tracer.wrap(f"verify.suite.{name}", suite)


def worker_main() -> int:
    span_fd, request_id, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    os.set_inheritable(span_fd, False)
    import schreier.cli

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", schreier.cli.main)(argv)
    finally:
        sys.stdout.flush()
        payload = {"request": request_id, "spans": tracer.spans}
        with os.fdopen(span_fd, "w") as out:
            out.write(json.dumps(payload, separators=(",", ":")))  # dumps: the C encoder


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover.  Calls
    are nested and single-threaded, so children never overlap."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(requests: list[tuple[list[list], float]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass as (value, unit), given the spans of each
    request and the factor that scales its times to reference speed.  A unit
    cost with no units to divide by reads 0."""
    m: dict[str, tuple[float, str]] = {}
    layer_self = dict.fromkeys(("cli", "verify", "bijections", "enumeration", "closed_forms", "partial_sums"), 0)
    suite_s = dict.fromkeys(SUITES, 0)
    part_s = dict.fromkeys(PARTITION_KINDS, 0)
    part_calls = dict.fromkeys(PARTITION_KINDS, 0)
    scan_self = dict.fromkeys(SCAN_FUNCTIONS, 0)
    scan_masks = dict.fromkeys(SCAN_FUNCTIONS, 0)
    route_self = dict.fromkeys(ROUTES, 0)
    route_members = dict.fromkeys(ROUTES, 0)
    checks = naive_scans = closed_calls = closed_self = rec_self = rec_cells = ps_calls = 0
    for spans, speed in requests:
        for (name, start, end, _, attrs), own in zip(spans, self_times(spans)):
            attrs = attrs or {}  # a call that raised recorded no counts
            own *= speed
            span = (end - start) * speed
            layer, _, func = name.partition(".")
            layer_self[layer] += own
            if name.startswith("verify.suite."):
                suite = name[len("verify.suite."):]
                if suite in suite_s:
                    suite_s[suite] += span
            elif func == "run_suite":
                checks += attrs.get("checks", 0)
            elif func == "verify_partition" and attrs:
                part_s[attrs["kind"]] += span
                part_calls[attrs["kind"]] += 1
            elif layer == "enumeration" and attrs:
                if attrs["masks"]:
                    naive_scans += 1
                    scan_self[func] += own
                    scan_masks[func] += attrs["masks"]
                if "members" in attrs:
                    route_self[attrs["route"]] += own
                    route_members[attrs["route"]] += attrs["members"]
            elif func == "closed_count":
                closed_calls += 1
                closed_self += own
            elif func == "recurrence_table" and attrs:
                rec_self += own
                rec_cells += attrs["cells"]
            elif layer == "partial_sums":
                ps_calls += 1

    def secs(ns: int) -> tuple[float, str]:
        return ns / 1e9, "s"

    def count(n: int) -> tuple[int, str]:
        return n, "count"

    def per(total_ns: int, units: int, unit: str) -> tuple[float, str]:
        scale = {"ns": 1.0, "us": 1e-3}[unit]
        return (total_ns * scale / units if units else 0.0), unit

    m["cli.self_s"] = secs(layer_self["cli"])
    m["verify.self_s"] = secs(layer_self["verify"])
    m["verify.checks"] = count(checks)
    for suite in SUITES:
        m[f"verify.suite_s.{suite}"] = secs(suite_s[suite])
    m["bijections.self_s"] = secs(layer_self["bijections"])
    for kind in PARTITION_KINDS:
        m[f"bijections.verify_partition_s.{kind}"] = secs(part_s[kind])
        m[f"bijections.calls.{kind}"] = count(part_calls[kind])
    m["enumeration.self_s"] = secs(layer_self["enumeration"])
    m["enumeration.naive_scans"] = count(naive_scans)
    m["enumeration.masks_scanned"] = count(sum(scan_masks.values()))
    for func in SCAN_FUNCTIONS:
        m[f"enumeration.ns_per_mask.{func}"] = per(scan_self[func], scan_masks[func], "ns")
    m["enumeration.members"] = count(sum(route_members.values()))
    for route in ROUTES:
        m[f"enumeration.ns_per_member.{route}"] = per(route_self[route], route_members[route], "ns")
    m["closed_forms.self_s"] = secs(layer_self["closed_forms"])
    m["closed_forms.closed_count_calls"] = count(closed_calls)
    m["closed_forms.us_per_closed_count"] = per(closed_self, closed_calls, "us")
    m["closed_forms.ns_per_recurrence_cell"] = per(rec_self, rec_cells, "ns")
    m["partial_sums.calls"] = count(ps_calls)
    m["partial_sums.self_s"] = secs(layer_self["partial_sums"])
    return m

if __name__ == "__main__":
    sys.exit(worker_main())
