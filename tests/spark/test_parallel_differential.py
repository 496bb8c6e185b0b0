"""Oracle-differential: the shape of the virtual cluster must be byte-invisible.

The simulator spreads partitions over ``num_executors`` virtual worker
machines (partition *i* lives on executor ``i % num_executors``).  That
placement decides which shuffle records cross machines and how many
copies a broadcast ships -- and nothing else.  Every engine, on every
query of the shared workload, must produce a canonical wire-form answer
(:func:`repro.server.protocol.canonical_result` rendered through
:func:`canonical_json`) that is byte-identical to the default cluster's
(one executor per partition) for every worker count, and with the
cost-based optimizer and materialized ExtVP views switched on.  The
algorithmic counters must be invariant too: only the two placement
counters may move with the worker count.

CI runs the 2-worker column of the matrix; the full workers x optimizer
sweep carries the ``slow`` marker and runs on the scheduled job.
"""

import os

import pytest

from repro.data.lubm import LubmGenerator
from repro.server.protocol import canonical_json, canonical_result
from repro.spark.context import SparkContext
from repro.sparql.parser import parse_sparql
from repro.systems import ALL_ENGINE_CLASSES, NaiveEngine

ENGINES = (NaiveEngine,) + ALL_ENGINE_CLASSES

#: Worker (virtual executor) counts the full (slow) sweep exercises; CI
#: keeps to 2.
ALL_WORKERS = (1, 2, 4)

#: The counters that depend on partition placement: shuffle records that
#: change executor, and the per-executor copies of every broadcast.
PLACEMENT_COUNTERS = ("shuffle_remote_records", "broadcast_bytes")

_EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    "examples",
    "queries",
    "clean",
)


def _read_examples():
    corpus = {}
    for name in sorted(os.listdir(_EXAMPLES_DIR)):
        if name.endswith(".rq"):
            path = os.path.join(_EXAMPLES_DIR, name)
            with open(path, "r", encoding="utf-8") as handle:
                corpus["example:" + name[:-3]] = handle.read()
    return corpus


WORKLOAD = {
    "star": LubmGenerator.query_star(),
    "linear": LubmGenerator.query_linear(),
    "snowflake": LubmGenerator.query_snowflake(),
    "complex": LubmGenerator.query_complex(),
}
WORKLOAD.update(_read_examples())


def engine_id(cls):
    return cls.profile.name


def _optimizer(graph, views=False):
    from repro.optimizer import Optimizer

    return Optimizer.for_graph(graph, views=views)


def algorithmic(counters):
    """*counters* without the placement-dependent ones."""
    if counters is None:
        return None
    return {
        name: value
        for name, value in counters.items()
        if name not in PLACEMENT_COUNTERS
    }


def run_canonical(
    engine_class,
    graph,
    query,
    workers=None,
    optimize=False,
    views=False,
    optimizer=None,
):
    """(canonical JSON bytes, metrics counters) for one execution.

    ``workers`` is the number of virtual executors (``None`` keeps the
    default of one per partition).  Returns (None, None) when the
    engine's fragment does not cover the query -- support is a property
    of the plan, so it cannot differ between cluster shapes.  Pass a
    prebuilt ``optimizer`` to skip the per-run catalog/view build (it is
    engine- and cluster-independent).
    """
    ctx = SparkContext(4, num_executors=workers)
    engine = engine_class(ctx)
    engine.load(graph)
    if optimizer is not None:
        engine.set_optimizer(optimizer)
    elif optimize:
        engine.set_optimizer(_optimizer(graph, views=views))
    if not engine.supports(query):
        return None, None
    result = engine.execute(query)
    payload = canonical_json(canonical_result(result, query))
    counters = {name: value for name, value in ctx.metrics.snapshot()}
    return payload, counters


@pytest.fixture(scope="module")
def parsed_workload():
    return {name: parse_sparql(text) for name, text in WORKLOAD.items()}


@pytest.fixture(scope="module")
def oracle(lubm_graph, parsed_workload):
    """Default-cluster canonical bytes and counters per (engine, query)."""
    answers = {}
    for engine_class in ENGINES:
        for name, query in parsed_workload.items():
            answers[(engine_class.profile.name, name)] = run_canonical(
                engine_class, lubm_graph, query
            )
    return answers


@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_matches_oracle_bytes(
    engine_class, query_name, lubm_graph, parsed_workload, oracle
):
    expected_payload, expected_counters = oracle[
        (engine_class.profile.name, query_name)
    ]
    payload, counters = run_canonical(
        engine_class,
        lubm_graph,
        parsed_workload[query_name],
        workers=2,
    )
    if expected_payload is None:
        assert payload is None
        pytest.skip("engine fragment does not cover this query")
    assert payload == expected_payload
    assert algorithmic(counters) == algorithmic(expected_counters)


@pytest.mark.slow
@pytest.mark.parametrize("workers", ALL_WORKERS)
@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_matches_oracle_across_pool_sizes(
    engine_class, query_name, workers, lubm_graph, parsed_workload, oracle
):
    expected_payload, expected_counters = oracle[
        (engine_class.profile.name, query_name)
    ]
    payload, counters = run_canonical(
        engine_class,
        lubm_graph,
        parsed_workload[query_name],
        workers=workers,
    )
    assert payload == expected_payload
    assert algorithmic(counters) == algorithmic(expected_counters)


@pytest.mark.parametrize("views", [False, True], ids=["optimize", "views"])
def test_parallel_matches_oracle_under_optimizer(
    views, lubm_graph, parsed_workload
):
    # The optimizer rewrites join orders and substitutes ExtVP views;
    # the cluster shape must be invisible through that whole pipeline.
    query = parsed_workload["complex"]
    expected_payload, expected_counters = run_canonical(
        NaiveEngine, lubm_graph, query, optimize=True, views=views
    )
    payload, counters = run_canonical(
        NaiveEngine,
        lubm_graph,
        query,
        workers=2,
        optimize=True,
        views=views,
    )
    assert payload == expected_payload
    assert algorithmic(counters) == algorithmic(expected_counters)


@pytest.fixture(scope="module")
def view_optimizer(lubm_graph):
    """One shared views-enabled optimizer: engine/cluster-independent."""
    return _optimizer(lubm_graph, views=True)


@pytest.fixture(scope="module")
def views_oracle(lubm_graph, parsed_workload, view_optimizer):
    """Default-cluster canonical bytes/counters with views substituted."""
    answers = {}
    for engine_class in ENGINES:
        for name, query in parsed_workload.items():
            answers[(engine_class.profile.name, name)] = run_canonical(
                engine_class, lubm_graph, query, optimizer=view_optimizer
            )
    return answers


@pytest.mark.slow
@pytest.mark.parametrize("query_name", sorted(WORKLOAD))
@pytest.mark.parametrize("engine_class", ENGINES, ids=engine_id)
def test_parallel_matches_oracle_with_views(
    engine_class,
    query_name,
    lubm_graph,
    parsed_workload,
    views_oracle,
    view_optimizer,
):
    payload, counters = run_canonical(
        engine_class,
        lubm_graph,
        parsed_workload[query_name],
        workers=2,
        optimizer=view_optimizer,
    )
    expected_payload, expected_counters = views_oracle[
        (engine_class.profile.name, query_name)
    ]
    assert payload == expected_payload
    assert algorithmic(counters) == algorithmic(expected_counters)


def test_metrics_invariant_to_worker_count(lubm_graph, parsed_workload):
    # Placement must not leak into the algorithmic cost model: every
    # counter but the placement pair is identical for every worker
    # count, and those two move the way placement says they must.
    query = parsed_workload["snowflake"]
    runs = {
        workers: run_canonical(
            NaiveEngine, lubm_graph, query, workers=workers
        )[1]
        for workers in ALL_WORKERS
    }
    assert (
        algorithmic(runs[1]) == algorithmic(runs[2]) == algorithmic(runs[4])
    )
    # One machine: no shuffle record ever changes executor.
    assert runs[1]["shuffle_records"] > 0
    assert runs[1].get("shuffle_remote_records", 0) == 0
    assert runs[4]["shuffle_remote_records"] > 0


def test_oracle_answers_are_nonempty(oracle):
    # An all-empty workload would make the byte-comparison vacuous.
    assert any(
        payload is not None and '"rows":[[' in payload
        for payload, _counters in oracle.values()
    )
