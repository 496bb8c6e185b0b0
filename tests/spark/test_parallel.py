"""Unit tests for the executor's cluster shape and its task boundary.

Partitions are evaluated serially, in index order, in the driver
process; ``num_executors`` only decides which virtual worker hosts each
partition (``i % num_executors``), and so which shuffle records are
remote and how many copies a broadcast ships.  The differential suites
prove end-to-end byte-identity across worker counts; this file pins the
individual mechanisms that identity rests on: shape validation,
in-driver execution, placement-only metric differences, accumulators,
typed errors at the task boundary, deadline aborts, cache reuse, and the
picklability of the values tasks produce.
"""

import os
import pickle

import pytest

from repro.rdf.terms import BNode, Literal, URI
from repro.rdf.triple import Triple
from repro.spark.context import SparkContext
from repro.spark.deadline import DeadlineExceededError
from repro.spark.faults import TaskFailedError
from repro.spark.row import Row

#: Counters that depend on which virtual executor hosts a partition.
PLACEMENT_COUNTERS = ("shuffle_remote_records", "broadcast_bytes")


def algorithmic(snapshot):
    return {
        name: value
        for name, value in snapshot
        if name not in PLACEMENT_COUNTERS
    }


# ----------------------------------------------------------------------
# Cluster shape
# ----------------------------------------------------------------------


def test_zero_workers_rejected():
    with pytest.raises(ValueError):
        SparkContext(4, num_executors=0)


def test_unknown_backend_rejected(capsys):
    # Partitions always run in the driver; there is no executor backend
    # to choose, and a caller that asks for one is told so instead of
    # being silently ignored.
    from repro.cli import main
    from repro.runtime import build_context

    with pytest.raises(TypeError):
        SparkContext(4, backend="parallel")
    with pytest.raises(TypeError):
        build_context(backend="parallel")
    with pytest.raises(SystemExit) as excinfo:
        main(["assess", "data.nt", "--backend", "parallel"])
    assert excinfo.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_context_exposes_backend_knobs():
    # One executor per partition by default; an explicit worker count
    # wraps partitions round-robin over the virtual machines.
    sc = SparkContext(4)
    assert (sc.default_parallelism, sc.num_executors) == (4, 4)
    spread = SparkContext(4, num_executors=2)
    assert spread.num_executors == 2
    assert [spread.executor_for(i) for i in range(5)] == [0, 1, 0, 1, 0]


# ----------------------------------------------------------------------
# In-driver execution
# ----------------------------------------------------------------------


def test_workers_ignored_by_inprocess_backend():
    # Virtual workers are an accounting device: whatever the count,
    # every task runs in the driver process.
    sc = SparkContext(default_parallelism=4, num_executors=4)
    driver_pid = os.getpid()
    pids = set(
        sc.parallelize(list(range(8)), 4).map(lambda _: os.getpid()).collect()
    )
    assert pids == {driver_pid}


def test_single_partition_stage_stays_in_the_driver():
    sc = SparkContext(default_parallelism=4, num_executors=2)
    driver_pid = os.getpid()
    pids = set(
        sc.parallelize([1, 2, 3], 1).map(lambda _: os.getpid()).collect()
    )
    assert pids == {driver_pid}


def test_shuffle_results_match_inprocess():
    data = [(i % 5, i) for i in range(40)]
    expected = {}
    for key, value in data:
        expected[key] = expected.get(key, 0) + value

    def job(workers):
        return (
            SparkContext(4, num_executors=workers)
            .parallelize(data, 4)
            .reduceByKey(lambda a, b: a + b)
            .collect()
        )

    single = job(1)
    assert dict(single) == expected
    assert job(4) == single


# ----------------------------------------------------------------------
# Placement-only metric differences
# ----------------------------------------------------------------------


def test_parallel_metrics_equal_serial_metrics():
    def job(sc):
        return (
            sc.parallelize([(i % 3, i) for i in range(30)], 6)
            .reduceByKey(lambda a, b: a + b)
            .collect()
        )

    single_sc = SparkContext(4, num_executors=1)
    spread_sc = SparkContext(4, num_executors=3)
    assert job(spread_sc) == job(single_sc)
    assert algorithmic(spread_sc.metrics.snapshot()) == algorithmic(
        single_sc.metrics.snapshot()
    )
    # On one machine no shuffle record changes executor.
    assert single_sc.metrics.get("shuffle_remote_records") == 0
    assert spread_sc.metrics.get("shuffle_remote_records") > 0


# ----------------------------------------------------------------------
# Accumulators
# ----------------------------------------------------------------------


def test_accumulator_updates_cross_the_process_boundary():
    # Adds made inside tasks reach the driver-side value once the action
    # returns, from every partition.
    sc = SparkContext(4, num_executors=2)
    acc = sc.accumulator(0)
    sc.parallelize(list(range(20)), 4).foreach(lambda x: acc.add(x))
    assert acc.value == sum(range(20))


def test_accumulator_merge_matches_serial():
    def job(sc):
        acc = sc.accumulator(0)
        sc.parallelize(list(range(12)), 4).foreach(lambda x: acc.add(1))
        return acc.value

    assert job(SparkContext(4, num_executors=4)) == 12
    assert job(SparkContext(4, num_executors=1)) == 12


# ----------------------------------------------------------------------
# Errors at the task boundary
# ----------------------------------------------------------------------


def test_worker_exceptions_arrive_typed():
    sc = SparkContext(4, num_executors=2)

    def boom(x):
        if x == 5:
            raise ValueError("bad record %d" % x)
        return x

    with pytest.raises(ValueError, match="bad record 5"):
        sc.parallelize(list(range(8)), 4).map(boom).collect()


def test_task_failed_error_crosses_the_boundary():
    sc = SparkContext(
        4,
        num_executors=2,
        faults="fail:p=1.0;seed=1",
        max_task_attempts=2,
    )
    with pytest.raises(TaskFailedError) as excinfo:
        sc.parallelize(list(range(8)), 4).map(lambda x: x).collect()
    assert excinfo.value.attempts == 2


def test_fault_and_deadline_errors_pickle_round_trip():
    task_error = TaskFailedError(stage="map", partition=3, attempts=4)
    copy = pickle.loads(pickle.dumps(task_error))
    assert isinstance(copy, TaskFailedError)
    assert (copy.stage, copy.partition, copy.attempts) == ("map", 3, 4)

    deadline_error = DeadlineExceededError(budget=10, spent=12, query="q")
    copy = pickle.loads(pickle.dumps(deadline_error))
    assert isinstance(copy, DeadlineExceededError)
    assert (copy.budget, copy.spent, copy.query) == (10, 12, "q")


def test_immutable_rdf_terms_pickle_round_trip():
    # The raising __setattr__ on terms breaks default slots unpickling;
    # __reduce__ reconstructs through __init__ instead.
    for term in (
        URI("http://example.org/x"),
        BNode("b0"),
        Literal("42", datatype=URI("http://www.w3.org/2001/XMLSchema#int")),
        Literal("chat", language="fr"),
    ):
        copy = pickle.loads(pickle.dumps(term))
        assert copy == term and hash(copy) == hash(term)
    triple = Triple(
        URI("http://example.org/s"),
        URI("http://example.org/p"),
        Literal("o"),
    )
    assert pickle.loads(pickle.dumps(triple)) == triple


def test_row_pickle_round_trip():
    row = Row(("a", "b"), (1, "x"))
    copy = pickle.loads(pickle.dumps(row))
    assert copy == row
    assert copy.a == 1 and copy["b"] == "x"


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


def test_deadline_abort_matches_serial_semantics():
    def run(workers):
        sc = SparkContext(4, num_executors=workers)
        data = sc.parallelize(list(range(400)), 8)
        sc.set_deadline(5)
        try:
            data.map(lambda x: x).collect()
        except DeadlineExceededError as exc:
            return type(exc).__name__
        return None

    assert run(2) == run(1) == "DeadlineExceededError"


# ----------------------------------------------------------------------
# Cache reuse
# ----------------------------------------------------------------------


def test_cached_partitions_install_on_the_driver():
    sc = SparkContext(4, num_executors=2)
    rdd = sc.parallelize(list(range(16)), 4).map(lambda x: x * 2).cache()
    first = rdd.collect()
    scanned_after_first = sc.metrics.snapshot().records_scanned
    second = rdd.collect()
    assert second == first
    assert rdd.is_cached
    # The second collect served from the cache: no new scan work.
    assert sc.metrics.snapshot().records_scanned == scanned_after_first


def test_cache_contents_match_serial_backend():
    def job(sc, cache):
        rdd = sc.parallelize(list(range(10)), 4).map(lambda x: x + 1)
        if cache:
            rdd = rdd.cache()
            rdd.collect()
        return rdd.collect()

    expected = job(SparkContext(4), cache=False)
    assert expected == list(range(1, 11))
    assert job(SparkContext(4, num_executors=2), cache=True) == expected
