"""Span recorder for traced benchmark runs.

The benchmark times the program's layers from the outside: it wraps
public functions of the ``repro`` package with span recorders in the
benchmark's own process, and never edits the package.  Each span has a
name, a start, an end, a parent and the run id.  Spans stay in memory
and are summarized (or written) when the run ends.

Calls made once per site (resolver, label lookups, TLS handshakes) are
too many to record one by one; :meth:`Tracer.aggregate` counts them and
sums their time under the enclosing span instead, so the trace stays
small.  A span's self time is its duration minus the time its child
spans and aggregated child calls cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        #: name -> [calls, seconds] of aggregated (per-site) calls.
        self.aggregated: dict[str, list] = defaultdict(lambda: [0, 0.0])

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        """Wrap ``fn`` so every call records one span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            span = {
                "id": span_id,
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "run": self.run_id,
                "start": time.perf_counter(),
                "end": None,
                "child_s": 0.0,
            }
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += span["end"] - span["start"]
                with self._lock:
                    self.spans.append(span)

        return traced

    def aggregate(self, name: str, fn):
        """Wrap ``fn`` to count calls and time under the parent span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack = self._stack()
                if stack:
                    stack[-1]["child_s"] += elapsed
                entry = self.aggregated[name]
                entry[0] += 1
                entry[1] += elapsed

        return counted

    def summary(self) -> dict[str, dict]:
        """Per-name totals: calls, inclusive seconds, self seconds."""
        totals: dict[str, dict] = {}
        for span in self.spans:
            if span["end"] is None:
                continue
            entry = totals.setdefault(
                span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span["end"] - span["start"]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += max(duration - span["child_s"], 0.0)
        for name, (calls, seconds) in self.aggregated.items():
            totals[name] = {
                "calls": calls,
                "total_s": seconds,
                "self_s": seconds,
            }
        return totals


def _replace_everywhere(original, replacement) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def wrap_function(tracer: Tracer, module, attr: str, name: str, aggregate=False):
    """Trace a module-level function wherever it was imported."""
    original = getattr(module, attr)
    wrapper = (tracer.aggregate if aggregate else tracer.span)(name, original)
    if _replace_everywhere(original, wrapper) == 0:
        raise RuntimeError(f"{module.__name__}.{attr} not found to trace")


def wrap_method(tracer: Tracer, cls, attr: str, name: str, aggregate=False):
    """Trace a method (or ``cached_property`` getter) on its class."""
    original = cls.__dict__[attr]
    if isinstance(original, functools.cached_property):
        prop = functools.cached_property(tracer.span(name, original.func))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)
        return
    wrap = tracer.aggregate if aggregate else tracer.span
    setattr(cls, attr, wrap(name, original))


def install_program_spans(tracer: Tracer) -> dict:
    """Wrap the public calls of every layer a workload can reach.

    Imports the layers first, so ``from x import f`` bindings exist and
    get rewired.  Returns a handle whose ``zone_caches`` list collects
    every :class:`~repro.net.dns.ZoneCache` the run creates, for
    reading ``stats()`` at the end.
    """
    from repro.analysis import layers, storediff
    from repro.net import dns
    from repro.net.anycast import AnycastRegistry
    from repro.net.asdb import ASDatabase
    from repro.net.geo import GeoDatabase
    from repro.obs import instrument, metrics, spans
    from repro.pipeline import export, measure, parallel, watch
    from repro.serve import api, materialize
    from repro.store import store
    from repro.worldgen import churn, slices, world

    del watch  # imported so its export_csv binding is rewired too
    wrap_method(tracer, parallel.CampaignSpec, "build_world", "worldgen.build")
    wrap_function(tracer, churn, "evolve", "worldgen.evolve")
    wrap_function(tracer, slices, "world_slice_digest", "worldgen.slice_digest")
    wrap_function(tracer, parallel, "run_campaign", "pipeline.orchestration")
    wrap_method(
        tracer, measure.MeasurementPipeline, "measure_country", "pipeline.measure"
    )
    wrap_function(tracer, export, "export_csv", "pipeline.export")
    wrap_method(tracer, dns.Resolver, "resolve", "net.resolve", aggregate=True)
    wrap_method(tracer, world.World, "tls_handshake", "net.tls", aggregate=True)
    for cls, attr in (
        (ASDatabase, "org_of_ip"),
        (ASDatabase, "country_of_ip"),
        (GeoDatabase, "country_of"),
        (GeoDatabase, "continent_of"),
        (AnycastRegistry, "is_anycast"),
    ):
        wrap_method(tracer, cls, attr, "net.label", aggregate=True)
    wrap_method(tracer, store.CampaignStore, "put_object", "store.put")
    wrap_method(tracer, store.CampaignStore, "put_shard", "store.put_shard")
    wrap_method(tracer, store.CampaignStore, "save_manifest", "store.manifest_save")
    wrap_method(tracer, store.CampaignStore, "get_object", "store.get")
    wrap_method(tracer, store.CampaignStore, "get_shard", "store.get_shard")
    for attr in ("load_manifest", "list_campaign_ids"):
        wrap_method(tracer, store.CampaignStore, attr, "store.manifest_load")
    wrap_method(tracer, store.CampaignStore, "gc", "store.gc")
    for attr in ("scores", "insularity", "classification"):
        wrap_method(tracer, layers.LayerAnalysis, attr, f"analysis.{attr}")
    wrap_function(
        tracer, storediff, "dataset_from_manifest", "analysis.dataset_load"
    )
    wrap_method(tracer, instrument.Instrumentation, "finalize", "obs.finalize")
    wrap_function(tracer, metrics, "merge_metrics_payloads", "obs.merge")
    wrap_function(tracer, spans, "stitch_spans", "obs.stitch")
    for attr in ("write_trace", "write_metrics"):
        wrap_method(tracer, parallel.CampaignResult, attr, "obs.trace_write")
    wrap_method(tracer, api.ServeApi, "handle", "serve.handle")
    for attr in ("summary", "diff", "whatif", "trend"):
        wrap_method(tracer, materialize.Materializer, attr, "serve.materialize")
    for attr in ("campaign_summary", "campaign_diff", "series_trend"):
        wrap_function(tracer, materialize, attr, "serve.build")
    wrap_method(tracer, materialize.Materializer, "_build_whatif", "serve.build")

    handle = {"zone_caches": []}
    init = dns.ZoneCache.__init__

    @functools.wraps(init)
    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        handle["zone_caches"].append(self)

    dns.ZoneCache.__init__ = remember
    return handle


def zone_cache_hit_ratio(handle: dict) -> float:
    """Hits over lookups across every ZoneCache the run created."""
    hits = misses = 0
    for cache in handle["zone_caches"]:
        stats = cache.stats()
        hits += stats["hits"]
        misses += stats["misses"]
    return hits / (hits + misses) if hits + misses else 0.0
