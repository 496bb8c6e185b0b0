"""Property-based differential: random graphs, random BGPs, in process.

The hand-written differential suites cover the committed workloads; this
one closes the gap with generated inputs.  For every random small graph
and random connected basic graph pattern, SPARQLGX (vertical
partitioning) must produce the exact canonical wire bytes the Naive
scan-join oracle produces, and an engine's answer must not depend on
how many partitions the data is split into or how many virtual workers
host them: a single partition on a single executor (the whole job in
one process) is the oracle every spread-out layout must reproduce,
with the algorithmic counters invariant to the worker count.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf.graph import RDFGraph
from repro.rdf.terms import Literal, URI
from repro.rdf.triple import Triple
from repro.server.protocol import canonical_json, canonical_result
from repro.spark.context import SparkContext
from repro.sparql.parser import parse_sparql
from repro.systems import NaiveEngine, SparqlgxEngine

NS = "http://example.org/"
PREDICATES = 3

#: One random edge: (subject id, predicate id, object id or literal id).
edges = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, PREDICATES - 1),
        st.one_of(st.integers(0, 5), st.text("ab", max_size=2)),
    ),
    min_size=1,
    max_size=30,
)

#: Per-pattern choices for a connected BGP: predicate id and whether the
#: pattern extends the chain or fans out of the first variable (a star).
shapes = st.lists(
    st.tuples(st.integers(0, PREDICATES - 1), st.booleans()),
    min_size=1,
    max_size=3,
)


def build_graph(raw_edges):
    triples = []
    for s, p, o in raw_edges:
        obj = (
            URI("%so%d" % (NS, o))
            if isinstance(o, int)
            else Literal(o)
        )
        triples.append(
            Triple(URI("%ss%d" % (NS, s)), URI("%sp%d" % (NS, p)), obj)
        )
    return RDFGraph(triples)


def build_bgp(raw_shapes):
    """A connected BGP: each pattern chains or stars off earlier ones."""
    patterns = []
    for index, (pred, chain) in enumerate(raw_shapes):
        subject = "?v%d" % index if chain else "?v0"
        patterns.append(
            "%s <%sp%d> ?v%d ." % (subject, NS, pred, index + 1)
        )
    variables = sorted({v for p in patterns for v in p.split() if v[0] == "?"})
    return "SELECT %s WHERE { %s }" % (
        " ".join(variables),
        " ".join(patterns),
    )


def run_canonical(engine_class, graph, query, parallelism=4, workers=None):
    return run_counted(engine_class, graph, query, parallelism, workers)[0]


def run_counted(engine_class, graph, query, parallelism=4, workers=None):
    """(canonical bytes, records scanned, shuffle records) for one run."""
    ctx = SparkContext(parallelism, num_executors=workers)
    engine = engine_class(ctx)
    engine.load(graph)
    result = engine.execute(query)
    counters = ctx.metrics.snapshot()
    return (
        canonical_json(canonical_result(result, query)),
        counters.records_scanned,
        counters.shuffle_records,
    )


@given(raw_edges=edges, raw_shapes=shapes)
@settings(max_examples=25, deadline=None)
def test_parallel_equals_inprocess_on_random_bgps(raw_edges, raw_shapes):
    graph = build_graph(raw_edges)
    query = parse_sparql(build_bgp(raw_shapes))
    oracle = run_canonical(NaiveEngine, graph, query, 1, workers=1)
    for parallelism in (3, 4):
        assert run_canonical(NaiveEngine, graph, query, parallelism) == oracle
    # Placement is not allowed to leak into the algorithmic counters.
    spread = [
        run_counted(NaiveEngine, graph, query, 4, workers)
        for workers in (1, 2, 3)
    ]
    assert spread[0] == spread[1] == spread[2]
    assert spread[0][0] == oracle


@given(raw_edges=edges, raw_shapes=shapes)
@settings(max_examples=10, deadline=None)
def test_partitioned_engine_agrees_on_random_bgps(raw_edges, raw_shapes):
    # Vertical partitioning exercises shuffle paths the naive scan-join
    # plan never builds; both must land on the same canonical bytes.
    graph = build_graph(raw_edges)
    query = parse_sparql(build_bgp(raw_shapes))
    assert run_canonical(SparqlgxEngine, graph, query) == run_canonical(
        NaiveEngine, graph, query
    )
