"""Span recording from outside the program.

:func:`install` rebinds the attributes callers look up -- module globals
such as ``repro.server.service.parse_sparql`` and class attributes such
as ``RoutingPolicy.decide`` -- to wrappers that record a span around the
original.  Nothing under ``src/`` is edited; the wrappers live only in
the benchmark process, and only the traced run installs them.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Spans stay
in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from typing import Callable, Dict, Iterable, List

from measure import engine_slug

#: Counter deltas read from each engine's context around ``execute``.
SPARK_COUNTERS = (
    "records_scanned",
    "shuffle_records",
    "shuffle_bytes",
    "join_comparisons",
    "tasks",
    "broadcast_bytes",
)


class Recorder:
    """An in-memory span stack for one thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self.op_id = -1
        #: Wrappers pass straight through while False (warm-up).
        self.enabled = True
        self._stack: List[int] = []
        self._clock = time.perf_counter_ns

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), 0, parent, self.op_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span %s closed out of order" % self.spans[index][0])

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def rows(self):
        """(name, start, end, parent) tuples for :mod:`measure`."""
        return [(s[0], s[1], s[2], s[3]) for s in self.spans]

    def write_tsv_gz(self, path: str) -> None:
        """One span per line: name, start_ns, end_ns, parent index, op id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                handle.write("%s\t%d\t%d\t%d\t%d\n" % tuple(span))


def _rebind_global(original: Callable, wrapper: Callable, modules: Iterable[str] = ()) -> int:
    """Point every ``repro`` module global that *is* ``original`` (or only
    those in *modules*) at ``wrapper``; returns how many were rebound."""
    count = 0
    names = list(modules) or [m for m in list(sys.modules) if m == "repro" or m.startswith("repro.")]
    for module_name in names:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    if not count:
        raise RuntimeError("no module binds %s" % original.__qualname__)
    return count


def _wrap_method(recorder: Recorder, cls: type, attr: str, name: str) -> None:
    raw = cls.__dict__.get(attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__)))
    else:
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr)))


def _wrap_execute(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """``execute`` span plus the context's counter deltas."""

    @functools.wraps(fn)
    def execute(self, *args, **kwargs):
        if not recorder.enabled:
            return fn(self, *args, **kwargs)
        before = self.ctx.metrics.snapshot()
        index = recorder.open(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.close(index)
            delta = self.ctx.metrics.snapshot() - before
            for counter in SPARK_COUNTERS:
                recorder.add("spark." + counter, delta[counter])

    return execute


def engine_classes() -> List[type]:
    from repro.core.registry import default_registry
    from repro.systems import NaiveEngine

    return [NaiveEngine] + list(default_registry())


def install(recorder: Recorder) -> None:
    """Install every layer wrapper (call once, after imports)."""
    import repro.runtime
    import repro.server.cache
    import repro.server.protocol
    import repro.server.service
    import repro.spark.broadcast
    import repro.spark.dataframe
    import repro.spark.metrics
    import repro.spark.rdd
    import repro.sparql.parser
    from repro.analysis.query import lint_query
    from repro.evolution.versioned import VersionedGraph
    from repro.optimizer import Optimizer
    from repro.routing import RoutingPolicy
    from repro.server.service import QueryService
    from repro.stats.catalog import StatsCatalog
    from repro.views import ViewCatalog

    wrap = recorder.wrap
    # Functions: every module that imported the name, plus the defining
    # module for callers that import at call time.
    for original, name in (
        (repro.runtime.load_graph, "rdf.load"),
        (repro.sparql.parser.parse_sparql, "sparql.parse"),
        (repro.server.cache.normalize_query, "server.cache.normalize"),
        (lint_query, "analysis.lint"),
        (repro.server.protocol.decode_request, "server.protocol.codec"),
        (repro.server.protocol.encode_response, "server.protocol.codec"),
    ):
        _rebind_global(original, wrap(name, original))
    # Result serialization where the service calls it (encode_response's
    # own canonical_json call stays inside the codec span).
    for original in (repro.server.protocol.canonical_result, repro.server.protocol.canonical_json):
        _rebind_global(original, wrap("server.protocol.serialize", original), ["repro.server.service"])
    # Size accounting at its call sites, not the recursive definition.
    size = repro.spark.metrics.estimate_size
    _rebind_global(
        size,
        wrap("spark.estimate_size", size),
        ["repro.spark.rdd", "repro.spark.dataframe", "repro.spark.broadcast"],
    )
    for cls, attr, name in (
        (RoutingPolicy, "decide", "routing.decide"),
        (Optimizer, "plan_bgp", "optimizer.plan"),
        (StatsCatalog, "from_graph", "stats.catalog_build"),
        (ViewCatalog, "build", "views.build"),
        (ViewCatalog, "apply_delta", "views.apply_delta"),
        (VersionedGraph, "commit", "evolution.commit"),
        (QueryService, "commit", "server.commit"),
    ):
        _wrap_method(recorder, cls, attr, name)
    # Engines: wrap on each concrete class, around the original methods
    # resolved before any class is touched (no double spans).
    classes = engine_classes()
    originals = {cls: (cls.load, cls.execute) for cls in classes}
    for cls, (load, execute) in originals.items():
        slug = engine_slug(cls.profile.name)
        cls.load = wrap("systems.%s.build" % slug, load)
        cls.execute = _wrap_execute(recorder, "systems.%s.execute" % slug, execute)
