"""Host-time spans around calls into each layer's public entry points.

The traced run wraps the entry points below on their classes (or, for
the wire protocol, on its module) from outside the package, so the
program itself is untouched.  Every wrapped call is one span; a layer's
*self time* is its spans' durations minus the part covered by child
spans.  Every wrapped function is synchronous, so a plain call stack
gives exact nesting even inside the asyncio server.

Spans are kept in memory: per-key aggregates for every call, and the
first ``span_limit`` spans verbatim for a Chrome-trace file that
Perfetto opens (see README.md).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Named layers, in report order.  ``trace`` is timed around trace
#: construction in set-up, outside the traced passes.
LAYERS = (
    "sim",
    "cache",
    "iommu",
    "mem",
    "core.ptb",
    "core.prefetch",
    "core.results",
    "sim.checkpoint",
    "sim.vectorized",
    "service.protocol",
    "service.admission",
    "service.engine",
    "obs",
)

#: The translation structures a cache span is attributed to, by instance.
CACHE_STRUCTURES = ("devtlb", "prefetch_buffer", "iotlb", "nested_tlb", "pte_cache")

#: (layer, module, class or None for module functions, entry points).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.simulator", "HyperSimulator", ("run",)),
    ("sim", "repro.sim.engine", "DeviceEngine", ("try_admit", "complete_packet")),
    ("sim.vectorized", "repro.sim.vectorized", "VectorizedSimulator", ("run",)),
    ("sim.checkpoint", "repro.sim.checkpoint", "SimulationCheckpoint", ("save",)),
    ("cache", "repro.cache.setassoc", "SetAssociativeCache",
     ("lookup", "insert", "invalidate")),
    ("iommu", "repro.iommu.iommu", "Iommu", ("translate",)),
    ("mem", "repro.mem.walker", "TwoDimensionalWalker", ("walk",)),
    ("mem", "repro.sim.resources", "ResourcePool", ("acquire",)),
    ("mem", "repro.sim.resources", "UnboundedPool", ("acquire",)),
    ("core.ptb", "repro.core.ptb", "PendingTranslationBuffer",
     ("issue", "can_accept", "earliest_free_time")),
    ("core.prefetch", "repro.core.prefetch", "PrefetchUnit",
     ("lookup", "observe_and_predict", "install", "note_prefetch_issued")),
    ("core.results", "repro.core.results", "RequestLatencyStats", ("record",)),
    ("service.protocol", "repro.service.protocol", None,
     ("decode", "parse_translate", "encode")),
    ("service.admission", "repro.service.admission", "AdmissionController",
     ("acquire", "release")),
    ("service.engine", "repro.service.engine", "ServiceEngine",
     ("submit", "submit_batch")),
    ("obs", "repro.obs.metrics", "LatencyHistogram", ("record",)),
    ("obs", "repro.obs.metrics", "Counter", ("inc",)),
    ("obs", "repro.obs.metrics", "EvictionAttribution", ("record",)),
)


def _owner(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def entry_point(dotted: str) -> Tuple[Any, str]:
    """``"repro.cache.setassoc.SetAssociativeCache.lookup"`` -> (owner, name)."""
    head, name = dotted.rsplit(".", 1)
    try:
        return importlib.import_module(head), name
    except ImportError:
        module, cls = head.rsplit(".", 1)
        return _owner(module, cls), name


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def install_slowdown(dotted: str, factor: float = 2.0) -> Callable[[], None]:
    """Make one entry point ``factor`` times slower by busy-waiting.

    Used by the layer-sensitivity check.  Returns a function that
    restores the original.
    """
    owner, name = entry_point(dotted)
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    perf = time.perf_counter

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        start = perf()
        try:
            return original(*args, **kwargs)
        finally:
            busy_wait((perf() - start) * (factor - 1.0))

    setattr(owner, name, slowed)
    return lambda: setattr(owner, name, original)


class LayerRecorder:
    """In-memory span sink: per-key aggregates plus the first spans."""

    def __init__(self, span_limit: int = 100_000):
        #: key -> [calls, self seconds]; keys are ``<layer>.<entry>`` and,
        #: for caches, ``cache.<structure>.<entry>``.
        self.totals: Dict[str, List[float]] = {}
        #: layer -> self seconds.
        self.layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counters: Dict[str, float] = {
            "mem.walker_wait_ns": 0.0,
            "service.admission.denied": 0,
            "service.engine.batched_packets": 0,
            "sim.checkpoint.bytes": 0,
        }
        self.vectorized_runs: List[Dict[str, Any]] = []
        self.residence_s: List[float] = []
        self.span_limit = span_limit
        self.spans: List[Tuple[str, str, float, float]] = []
        self._stack: List[List[float]] = []
        self._restore: List[Callable[[], None]] = []
        self._cache_names: Dict[int, str] = {}
        self._decoded_at: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def span(self, layer: str, key: Any, fn: Callable, observe=None) -> Callable:
        """Wrap ``fn`` so every call records one span under ``key`` (a
        string, or a function of the call's arguments that returns one).
        ``observe(args, result, end)`` runs after each call."""
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans
        limit = self.span_limit
        layer_self = self.layer_self
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                span_key = key(args) if callable(key) else key
                entry = totals.get(span_key)
                if entry is None:
                    entry = totals[span_key] = [0, 0.0]
                entry[0] += 1
                entry[1] += own
                layer_self[layer] += own
                if len(spans) < limit:
                    spans.append((span_key, layer, start, duration))
                if observe is not None:
                    observe(args, result, end)

        return wrapper

    def install(self) -> "LayerRecorder":
        """Wrap every entry point; undo with :meth:`uninstall`."""
        for layer, module, cls, names in ENTRY_POINTS:
            owner = _owner(module, cls)
            for name in names:
                original = getattr(owner, name)
                key: Any = f"{layer}.{name}"
                if layer == "cache":
                    key = self._cache_key(name)
                wrapped = self.span(layer, key, original, self._observer(layer, cls, name))
                setattr(owner, name, wrapped)
                self._restore.append(
                    lambda owner=owner, name=name, original=original: setattr(
                        owner, name, original
                    )
                )
        # Name each cache instance after the structure it models, as the
        # fabric reports it, once a simulator has been built.
        from repro.sim.simulator import HyperSimulator

        init = HyperSimulator.__init__
        names = self._cache_names

        @functools.wraps(init)
        def init_and_name(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            for name, cache in sim.fabric.named_caches():
                names[id(cache)] = name.split(".")[-1]

        HyperSimulator.__init__ = init_and_name
        self._restore.append(lambda: setattr(HyperSimulator, "__init__", init))
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _cache_key(self, method: str) -> Callable:
        names = self._cache_names
        keys = {
            structure: f"cache.{structure}.{method}"
            for structure in CACHE_STRUCTURES + ("other",)
        }
        other = keys["other"]

        def key(args):
            return keys.get(names.get(id(args[0])), other)

        return key

    def _observer(self, layer: str, cls: Optional[str], name: str):
        counters = self.counters
        if cls in ("ResourcePool", "UnboundedPool"):
            def walker_wait(args, result, end):
                if result is not None:
                    counters["mem.walker_wait_ns"] += result[0] - args[1]
            return walker_wait
        if layer == "service.admission" and name == "acquire":
            def denied(args, result, end):
                if result is not None:
                    counters["service.admission.denied"] += 1
            return denied
        if name == "submit_batch":
            def batched(args, result, end):
                counters["service.engine.batched_packets"] += len(args[1])
            return batched
        if layer == "sim.checkpoint":
            def saved(args, result, end):
                if result is not None:
                    counters["sim.checkpoint.bytes"] += os.path.getsize(result)
            return saved
        if layer == "sim.vectorized":
            runs = self.vectorized_runs

            def vectorized(args, result, end):
                runs.append(dict(args[0].batch_stats))
            return vectorized
        if layer == "service.protocol" and name == "decode":
            decoded_at = self._decoded_at

            def decoded(args, result, end):
                if isinstance(result, dict) and isinstance(result.get("seq"), int):
                    decoded_at[result["seq"]] = end
            return decoded
        if layer == "service.protocol" and name == "encode":
            decoded_at = self._decoded_at
            residence = self.residence_s

            def encoded(args, result, end):
                message = args[0]
                if isinstance(message, dict):
                    started = decoded_at.pop(message.get("seq"), None)
                    if started is not None:
                        residence.append(end - started)
            return encoded
        return None

    def summary(self) -> Dict[str, Any]:
        """Everything the per-layer metrics are computed from (JSON-able)."""
        return {
            "totals": {key: list(entry) for key, entry in self.totals.items()},
            "layer_self": dict(self.layer_self),
            "counters": dict(self.counters),
            "vectorized_runs": list(self.vectorized_runs),
            "residence_p50_s": (
                statistics.median(self.residence_s) if self.residence_s else 0.0
            ),
            "residence_samples": len(self.residence_s),
        }

    def write_chrome_trace(self, path: Path, pid: int = 1, name: str = "") -> Path:
        """Write the kept spans as a Chrome trace (Perfetto opens it)."""
        origin = min((start for _, _, start, _ in self.spans), default=0.0)
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": name or f"pid {pid}"}},
        ]
        for key, layer, start, duration in self.spans:
            events.append({
                "name": key,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": pid,
                "tid": 1,
            })
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
        return path
