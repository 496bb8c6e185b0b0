"""The workloads: inputs, set-up, one operation, and its check.

Each workload is one process with one closed-loop caller and no think
time.  ``setup()`` goes from the N-Triples file on disk to ready and
returns its wall time; ``batches()`` replays the seeded operation
stream from the start, with every expected outcome already computed;
``run(op)`` is the only timed call; ``check(op, out)`` runs untimed.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterator, List

import inputs

#: The seven RDD/DataFrame/SQL engines and the three graph engines.
RDD_ENGINES = (
    "Naive",
    "SPARQLGX",
    "HAQWA",
    "S2RDF",
    "SPARQL-Hybrid",
    "SparkRDF",
    "Spar(k)ql",
)
GRAPH_ENGINES = ("S2X", "SPARQL-GraphX", "GraphFrames-RDF")

#: Serve stream shape: Zipf exponent of the constant within each shape,
#: constants per shape (5 x 60 texts, more than the 128-entry result
#: cache), one pathological request per 20 reads (5%), and the commit
#: period; a batch is one commit window.
SERVE_ZIPF_S = 0.5
SERVE_PER_SHAPE = 60
SERVE_BAD_EVERY = 20
SERVE_COMMIT_EVERY = 20
SERVE_BATCH = SERVE_COMMIT_EVERY


class Op:
    __slots__ = ("kind", "payload", "wall_ns", "ok", "cost_units")

    def __init__(self, kind: str, payload) -> None:
        self.kind = kind  # "query" | "commit"
        self.payload = payload
        self.wall_ns = 0
        self.ok = False
        self.cost_units = 0


class Workload:
    name = ""
    scale = 0
    min_commits = 0
    #: Batches run, checked and not timed before the timed phase.
    warmup_batches = 0
    errors_shown = 0

    def __init__(self, root: str, workdir: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.graph_path = os.path.join(workdir, "lubm%d-seed%d.nt" % (self.scale, seed))
        self.graph_sha256 = inputs.write_lubm(self.graph_path, self.scale, seed)
        self.triples = inputs.read_ntriples(self.graph_path)

    def fingerprints(self) -> Dict[str, str]:
        """SHA-256 of the graph file and of the first 1000 request lines."""
        lines: List[str] = []
        for batch in self._stream():
            lines.extend(self.describe(op) for op in batch)
            if len(lines) >= 1000:
                break
        return {
            "graph_sha256": self.graph_sha256,
            "stream_sha256": inputs.sha256_lines(lines[:1000]),
        }

    # Subclass hooks -----------------------------------------------------

    def setup(self) -> float:
        raise NotImplementedError

    def batches(self) -> Iterator[List[Op]]:
        return self._stream(expect=True)

    def _stream(self, expect: bool = False) -> Iterator[List[Op]]:
        raise NotImplementedError

    def describe(self, op: Op) -> str:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> bool:
        raise NotImplementedError

    def before(self, op: Op) -> None:
        """Untimed hook before ``run``."""

    def after(self, op: Op) -> None:
        """Untimed hook after ``run``."""

    def counters(self) -> Dict[str, int]:
        """Service-level counters (empty outside the serve workloads)."""
        return {}

    def release(self) -> None:
        """Drop the state the last ``setup`` built."""


class AssessWorkload(Workload):
    """Every engine runs the shape corpus through ``engine.execute(text)``."""

    engines: tuple = ()

    def __init__(self, root: str, workdir: str, seed: int) -> None:
        super().__init__(root, workdir, seed)
        self.corpus = inputs.load_corpus(root)
        oracle = inputs.Oracle(self.triples)
        self.expected = {q.name: oracle.select(q.bgp) for q in self.corpus}
        self.live: Dict[str, object] = {}
        self._before = None

    def setup(self) -> float:
        from repro import runtime

        self.release()
        start = time.perf_counter()
        graph = runtime.load_graph(self.graph_path)
        engines = {name: runtime.build_engine(name, graph) for name in self.engines}
        for engine in engines.values():
            for query in self.corpus:
                engine.execute(query.text)
        elapsed = time.perf_counter() - start
        self.live = engines
        return elapsed

    def release(self) -> None:
        self.live = {}

    def _stream(self, expect: bool = False) -> Iterator[List[Op]]:
        for order in inputs.assess_rounds(self.engines, self.corpus, self.seed):
            yield [Op("query", pair) for pair in order]

    def describe(self, op: Op) -> str:
        engine, query = op.payload
        return "%s\t%s\t%s" % (engine, query.name, query.text)

    def before(self, op: Op) -> None:
        self._before = self.live[op.payload[0]].ctx.metrics.snapshot()

    def run(self, op: Op):
        engine, query = op.payload
        return self.live[engine].execute(query.text)

    def after(self, op: Op) -> None:
        from repro.spark.deadline import cost_units

        delta = self.live[op.payload[0]].ctx.metrics.snapshot() - self._before
        op.cost_units = cost_units(delta)

    def check(self, op: Op, out) -> bool:
        query = op.payload[1]
        if list(out.variables) != list(query.bgp.variables):
            return False
        rows = [
            [s.get(v).n3() if s.get(v) is not None else "" for v in out.variables]
            for s in out.solutions
        ]
        rows.sort()
        return rows == self.expected[query.name]


class AssessRdd(AssessWorkload):
    name = "assess-rdd"
    scale = 20
    engines = RDD_ENGINES


class AssessGraph(AssessWorkload):
    name = "assess-graph"
    scale = 1
    engines = GRAPH_ENGINES


class ServeWrite(Workload):
    """The routed, optimized service with views, driven one line at a time
    through the JSON-lines protocol exactly as ``repro serve`` answers it:
    Zipf reads with a commit every SERVE_COMMIT_EVERY-th operation."""

    name = "serve-write"
    scale = 5
    min_commits = 10
    warmup_batches = 2  # two commit windows: routing feedback settles

    def __init__(self, root: str, workdir: str, seed: int) -> None:
        super().__init__(root, workdir, seed)
        from repro.server import frontend, protocol

        self.pathological = inputs.load_pathological(root)
        self.service = None
        self._frontend, self._protocol = frontend, protocol

    def setup(self) -> float:
        from repro import runtime
        from repro.server import QueryService

        self.release()
        start = time.perf_counter()
        graph = runtime.load_graph(self.graph_path)
        # The service `repro serve --route --optimize --views` builds:
        # every other knob at its default (pool 2, lint and both caches on).
        service = QueryService(graph, route=True, optimize=True, enable_views=True)
        elapsed = time.perf_counter() - start
        self.service = service
        return elapsed

    def release(self) -> None:
        self.service = None

    def _stream(self, expect: bool = False) -> Iterator[List[Op]]:
        stream = inputs.ServeStream(
            self.triples,
            self.pathological,
            self.seed,
            zipf_s=SERVE_ZIPF_S,
            per_shape=SERVE_PER_SHAPE,
            bad_every=SERVE_BAD_EVERY,
            commit_every=SERVE_COMMIT_EVERY,
        )
        source = inputs.ServeExpectations(stream) if expect else stream
        while True:
            batch = []
            for _ in range(SERVE_BATCH):
                request = source.next_op()
                batch.append(Op("commit" if request.kind == "commit" else "query", request))
            yield batch

    def describe(self, op: Op) -> str:
        return op.payload.line

    def run(self, op: Op):
        # Module attribute lookups at call time, so traced runs see the
        # span wrappers.
        payload = self._protocol.decode_request(op.payload.line)
        response = self._frontend.handle_request(self.service, payload)
        return self._protocol.encode_response(response)

    def check(self, op: Op, out) -> bool:
        request = op.payload
        response = json.loads(out)
        if response.get("status") != request.expected_status:
            return False
        if request.kind == "commit":
            return response.get("version") == request.expected_version
        if request.kind == "query":
            return response.get("result") == request.expected_payload
        return True

    def counters(self) -> Dict[str, int]:
        return {name: value for name, value in self.service.snapshot()}


WORKLOADS = {cls.name: cls for cls in (AssessRdd, AssessGraph, ServeWrite)}
