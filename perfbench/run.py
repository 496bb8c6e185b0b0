"""Wall-clock benchmark of the RDF-on-Spark reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload assess-graph --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
operation times are scaled to the host's quiet speed by a reference
kernel timed beside them (see :class:`HostReference`).
``--trace 1`` runs the same operations twice from fresh set-ups, first
untraced and then with span wrappers installed, and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Inputs, reports and
span files go to ``.perfbench/`` in the checkout.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import measure  # noqa: E402  (HERE is on sys.path as the script's directory)
import spans  # noqa: E402

#: Set-ups per end-to-end run; setup_s is their median.
SETUP_REPEATS = 5
#: Floor on timed queries per run, so query_p95_ms has ten samples
#: beyond it (see measure.tail_percentile).
MIN_QUERIES = measure.min_samples_for(95.0)

ENGINE_SLUGS = (
    "naive",
    "sparqlgx",
    "haqwa",
    "s2rdf",
    "sparql-hybrid",
    "sparkrdf",
    "sparkql",
    "s2x",
    "sparql-graphx",
    "graphframes-rdf",
)

#: (name, unit, better) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p95_ms", "ms", "lower"),
    ("correct_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    rows = [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.op_wall_s", "s", "lower"),
        ("trace.unwrapped_s", "s", "lower"),
        ("commit_p50_ms", "ms", "lower"),
        ("rdf.load_s", "s", "lower"),
        ("rdf.triples", "count", "lower"),
        ("sparql.parse_s", "s", "lower"),
        ("sparql.parse_calls", "count", "lower"),
        ("server.cache.normalize_s", "s", "lower"),
        ("server.cache.plan_hit_ratio", "ratio", "higher"),
        ("server.cache.result_hit_ratio", "ratio", "higher"),
        ("server.cache.result_invalidations", "count", "lower"),
        ("analysis.lint_s", "s", "lower"),
        ("analysis.lint_calls", "count", "lower"),
        ("analysis.lint_rejections", "count", "lower"),
        ("routing.decide_s", "s", "lower"),
        ("routing.decisions", "count", "lower"),
        ("routing.fallbacks", "count", "lower"),
        ("optimizer.plan_s", "s", "lower"),
        ("optimizer.plans", "count", "lower"),
        ("stats.catalog_build_s", "s", "lower"),
        ("stats.catalog_builds", "count", "lower"),
        ("systems.build_s", "s", "lower"),
        ("systems.execute_s", "s", "lower"),
    ]
    for slug in ENGINE_SLUGS:
        rows.append(("systems.%s.build_s" % slug, "s", "lower"))
        rows.append(("systems.%s.execute_s" % slug, "s", "lower"))
        rows.append(("systems.%s.cost_wall_rank_corr" % slug, "rho", "higher"))
    rows += [
        ("spark.records_scanned", "count", "lower"),
        ("spark.shuffle_records", "count", "lower"),
        ("spark.shuffle_bytes", "bytes", "lower"),
        ("spark.join_comparisons", "count", "lower"),
        ("spark.tasks", "count", "lower"),
        ("spark.broadcast_bytes", "bytes", "lower"),
        ("spark.estimate_size_s", "s", "lower"),
        ("spark.estimate_size_calls", "count", "lower"),
        ("views.build_s", "s", "lower"),
        ("views.apply_delta_s", "s", "lower"),
        ("views.hits", "count", "higher"),
        ("evolution.commit_s", "s", "lower"),
        ("server.commit_s", "s", "lower"),
        ("server.commit_reload_s", "s", "lower"),
        ("server.commit_reload_share", "ratio", "lower"),
        ("server.protocol.serialize_s", "s", "lower"),
        ("server.protocol.codec_s", "s", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()

#: Span name -> self-time metric.  Engine spans are handled separately.
SELF_TIME_METRICS = {
    "rdf.load": "rdf.load_s",
    "sparql.parse": "sparql.parse_s",
    "server.cache.normalize": "server.cache.normalize_s",
    "analysis.lint": "analysis.lint_s",
    "routing.decide": "routing.decide_s",
    "optimizer.plan": "optimizer.plan_s",
    "stats.catalog_build": "stats.catalog_build_s",
    "spark.estimate_size": "spark.estimate_size_s",
    "views.build": "views.build_s",
    "views.apply_delta": "views.apply_delta_s",
    "evolution.commit": "evolution.commit_s",
    "server.protocol.serialize": "server.protocol.serialize_s",
    "server.protocol.codec": "server.protocol.codec_s",
}
#: Span name -> call-count metric.
CALL_COUNT_METRICS = {
    "sparql.parse": "sparql.parse_calls",
    "analysis.lint": "analysis.lint_calls",
    "optimizer.plan": "optimizer.plans",
    "stats.catalog_build": "stats.catalog_builds",
    "spark.estimate_size": "spark.estimate_size_calls",
}


#: Iterations of the reference kernel: about a millisecond of pure
#: integer arithmetic, timed before every timed operation.
REFERENCE_LOOP = 20000


def _reference_kernel() -> int:
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return total


class HostReference:
    """How fast the shared host runs the program at each moment.

    The host's other tenants slow every process on it by 1.0-1.9x, in
    stretches from milliseconds to tens of seconds; within a run, the
    fastest time of a fixed kernel barely moves, while its mean over a
    few seconds moves with the load.  A fixed kernel of pure integer
    arithmetic is timed before every timed operation.  It allocates no
    container, so it neither triggers nor pays for the program's garbage
    collection, and it does not depend on the program.
    """

    def __init__(self) -> None:
        self.samples: List[int] = []

    def sample(self) -> int:
        start = time.perf_counter_ns()
        _reference_kernel()
        elapsed = time.perf_counter_ns() - start
        self.samples.append(elapsed)
        return elapsed


class Phase:
    """The operations of one phase.

    ``ops`` are timed; ``warmup_ops`` were run and checked but are not in
    the timings.  With a :class:`HostReference`, ``scaled_ns[i]`` is
    ``ops[i]``'s time at the run's quiet host speed: its wall time times
    the fastest reference sample of the phase over the mean reference
    sample of its batch.
    """

    def __init__(self) -> None:
        self.ops: List = []
        self.warmup_ops: List = []
        self.scaled_ns: List[float] = []
        #: Mean over the timed ops of their batch's mean reference sample
        #: over the fastest one.
        self.host_slowdown = 1.0
        self.wall_ns = 0
        self.batches = 0
        self.counters_before: Dict[str, int] = {}
        self.counters_after: Dict[str, int] = {}

    def of_kind(self, kind: str) -> List:
        return [op for op in self.ops if op.kind == kind]

    def scaled_latencies_ms(self, kind: str) -> List[float]:
        """Per-op scaled latency; a wrong or failed op counts as +inf."""
        return [
            ns / 1e6 if op.ok else math.inf
            for op, ns in zip(self.ops, self.scaled_ns)
            if op.kind == kind
        ]

    @property
    def all_ops(self) -> List:
        return self.warmup_ops + self.ops

    @property
    def attempted(self) -> int:
        return len(self.all_ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.all_ops if not op.ok)


def _run_op(workload, op, recorder, op_id: int) -> Optional[BaseException]:
    """Run and check one op; only ``workload.run`` is inside the clock."""
    workload.before(op)
    span = None
    if recorder is not None:
        recorder.op_id = op_id
        span = recorder.open("op")
    error = None
    start = time.perf_counter_ns()
    try:
        out = workload.run(op)
    except Exception as exc:  # a failed op is counted, not fatal
        out, error = None, exc
    end = time.perf_counter_ns()
    if span is not None:
        recorder.close(span)
        recorder.op_id = -1
    op.wall_ns = end - start
    if error is None:
        workload.after(op)
        try:
            op.ok = workload.check(op, out)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            error = exc
    if not op.ok and workload.errors_shown < 5:
        workload.errors_shown += 1
        print(
            "perfbench: %s op wrong: %s" % (workload.name, error or workload.describe(op)[:200]),
            file=sys.stderr,
        )
    return error


def run_phase(
    workload,
    seconds: float,
    max_batches: Optional[int] = None,
    recorder=None,
    reference: Optional[HostReference] = None,
) -> Phase:
    """Run the workload's warm-up batches untimed, then whole batches until
    *seconds* of timed op time, MIN_QUERIES timed queries and the
    workload's commit floor are all reached (or exactly *max_batches*
    batches).

    With a *reference*, the kernel is timed before every timed op and
    ``scaled_ns`` is filled in.  With a *recorder*, spans are recorded for
    the batches after warm-up only.
    """
    phase = Phase()
    budget_ns = int(seconds * 1e9)
    queries = commits = 0
    if recorder is not None:
        recorder.enabled = False
    stream = workload.batches()
    for _ in range(workload.warmup_batches):
        for op in next(stream):
            _run_op(workload, op, None, -1)
            phase.warmup_ops.append(op)
    phase.counters_before = workload.counters()
    gc.collect()
    if recorder is not None:
        recorder.enabled = True
    batch_refs: List[float] = []
    for batch in stream:
        refs = []
        for op in batch:
            if reference is not None:
                refs.append(reference.sample())
            _run_op(workload, op, recorder, len(phase.ops))
            phase.ops.append(op)
            phase.wall_ns += op.wall_ns
            if op.kind == "commit":
                commits += 1
            else:
                queries += 1
        if refs:
            batch_refs.extend([sum(refs) / len(refs)] * len(batch))
        phase.batches += 1
        if max_batches is not None:
            if phase.batches >= max_batches:
                break
        elif phase.wall_ns >= budget_ns and queries >= MIN_QUERIES and commits >= workload.min_commits:
            break
    phase.counters_after = workload.counters()
    if reference is not None:
        quiet = min(reference.samples)
        phase.scaled_ns = [op.wall_ns * quiet / ref for op, ref in zip(phase.ops, batch_refs)]
        phase.host_slowdown = sum(batch_refs) / len(batch_refs) / quiet
    return phase


def end_to_end_metrics(setups: List[float], phase: Phase) -> Dict[str, float]:
    latencies = phase.scaled_latencies_ms("query")
    tail = measure.tail_percentile(len(latencies))
    if tail is None or tail < 95.0:
        raise RuntimeError("%d queries are too few for a p95" % len(latencies))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": measure.median(setups),
        "ops_per_s": len(phase.ops) / (sum(phase.scaled_ns) / 1e9),
        "query_p50_ms": measure.percentile(latencies, 50.0),
        "query_p95_ms": measure.percentile(latencies, 95.0),
        "correct_ratio": (phase.attempted - phase.failed) / phase.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def unscaled_metrics(phase: Phase) -> Dict[str, float]:
    """The timing metrics from wall times as measured, for the report."""
    latencies = [op.wall_ns / 1e6 if op.ok else math.inf for op in phase.of_kind("query")]
    return {
        "ops_per_s": len(phase.ops) / (phase.wall_ns / 1e9),
        "query_p50_ms": measure.percentile(latencies, 50.0),
        "query_p95_ms": measure.percentile(latencies, 95.0),
    }


def _counter_delta(after: Dict[str, int], before: Dict[str, int], name: str) -> int:
    return after.get(name, 0) - before.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cost_wall_correlations(phase: Phase) -> Dict[str, float]:
    """Per engine: Spearman between each query's cost units and its
    median wall time."""
    by_pair: Dict[Tuple[str, str], List] = {}
    for op in phase.ops:
        engine, query = op.payload
        by_pair.setdefault((engine, query.name), []).append(op)
    per_engine: Dict[str, Tuple[List[float], List[float]]] = {}
    for (engine, _query), ops in sorted(by_pair.items()):
        costs, walls = per_engine.setdefault(measure.engine_slug(engine), ([], []))
        costs.append(measure.median([op.cost_units for op in ops]))
        walls.append(measure.median([op.wall_ns for op in ops]))
    return {
        slug: measure.spearman(costs, walls) for slug, (costs, walls) in per_engine.items()
    }


def per_layer_metrics(workload, plain: Phase, traced: Phase, recorder) -> Dict[str, float]:
    rows = recorder.rows()
    own = measure.self_times(rows)
    root = measure.roots_of(rows)
    metrics: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}

    # Closure: every op's wall time is its layers' self times plus the
    # unwrapped remainder (the op span's own self time).
    op_wall = sum(end - start for name, start, end, parent in rows if parent < 0 and name == "op")
    unwrapped = sum(own[i] for i, row in enumerate(rows) if row[3] < 0 and row[0] == "op")
    attributed = sum(
        own[i] for i, row in enumerate(rows) if row[3] >= 0 and rows[root[i]][0] == "op"
    )
    if attributed + unwrapped != op_wall:
        raise RuntimeError("span self times do not add up to op wall time")
    metrics["trace.op_wall_s"] = op_wall / 1e9
    metrics["trace.unwrapped_s"] = unwrapped / 1e9
    metrics["trace.overhead_ratio"] = _ratio(traced.wall_ns, plain.wall_ns)

    commits = [op.wall_ns / 1e6 if op.ok else math.inf for op in plain.of_kind("commit")]
    if commits:
        metrics["commit_p50_ms"] = measure.percentile(commits, 50.0)
    metrics["rdf.triples"] = float(len(workload.triples))

    by_name = measure.self_time_by_name(rows)
    calls: Dict[str, int] = {}
    for name, *_rest in rows:
        calls[name] = calls.get(name, 0) + 1
    for span, metric in SELF_TIME_METRICS.items():
        metrics[metric] = by_name.get(span, 0) / 1e9
    for span, metric in CALL_COUNT_METRICS.items():
        metrics[metric] = float(calls.get(span, 0))
    for slug in ENGINE_SLUGS:
        for part in ("build", "execute"):
            seconds = by_name.get("systems.%s.%s" % (slug, part), 0) / 1e9
            metrics["systems.%s.%s_s" % (slug, part)] = seconds
            metrics["systems.%s_s" % part] += seconds
    if workload.name.startswith("assess"):
        for slug, rho in cost_wall_correlations(plain).items():
            metrics["systems.%s.cost_wall_rank_corr" % slug] = rho
    for counter in spans.SPARK_COUNTERS:
        metrics["spark." + counter] = float(recorder.counters.get("spark." + counter, 0))

    # Commit: total engine-reload time inside the service's commit spans.
    commit_ns = reload_ns = 0
    inside_commit = [False] * len(rows)
    for i, (name, start, end, parent) in enumerate(rows):
        inside_commit[i] = name == "server.commit" or (parent >= 0 and inside_commit[parent])
        if name == "server.commit":
            commit_ns += end - start
        elif (
            name.startswith("systems.")
            and name.endswith(".build")
            and parent >= 0
            and inside_commit[parent]
        ):
            reload_ns += end - start
    metrics["server.commit_s"] = commit_ns / 1e9
    metrics["server.commit_reload_s"] = reload_ns / 1e9
    metrics["server.commit_reload_share"] = _ratio(reload_ns, commit_ns)

    delta = lambda name: _counter_delta(traced.counters_after, traced.counters_before, name)  # noqa: E731
    metrics["server.cache.plan_hit_ratio"] = _ratio(
        delta("plan_cache_hits"), delta("plan_cache_hits") + delta("plan_cache_misses")
    )
    metrics["server.cache.result_hit_ratio"] = _ratio(
        delta("result_cache_hits"), delta("result_cache_hits") + delta("result_cache_misses")
    )
    metrics["server.cache.result_invalidations"] = float(delta("result_cache_invalidations"))
    metrics["analysis.lint_rejections"] = float(delta("lint_rejections"))
    metrics["routing.decisions"] = float(delta("routing_decisions"))
    metrics["routing.fallbacks"] = float(delta("routing_fallbacks"))
    metrics["views.hits"] = float(delta("view_hits"))
    return metrics


def _report(metrics: Dict[str, float], catalog) -> Dict[str, Dict[str, object]]:
    units = {name: unit for name, unit, _better in catalog}
    return {
        measure.check_metric_name(name): {"value": metrics[name], "unit": measure.check_unit(units[name])}
        for name, _unit, _better in catalog
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: no program source at %s" % src, file=sys.stderr)
        return 3
    sys.path.insert(0, src)
    import workloads  # imports repro lazily, after the path is set

    if args.workload not in workloads.WORKLOADS:
        print(
            "perfbench: unknown workload %r (choose from %s)"
            % (args.workload, ", ".join(sorted(workloads.WORKLOADS))),
            file=sys.stderr,
        )
        return 2
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
    fingerprints = workload.fingerprints()
    stem = os.path.join(workdir, "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace))

    if args.trace == 0:
        setups = [workload.setup() for _ in range(SETUP_REPEATS)]
        reference = HostReference()
        phase = run_phase(workload, args.seconds, reference=reference)
        metrics = end_to_end_metrics(setups, phase)
        attempted, failed = phase.attempted, phase.failed
        report = _report(metrics, END_TO_END)
        detail = {
            "setups_s": setups,
            "batches": phase.batches,
            "timed_ops": len(phase.ops),
            "timed_wall_s": phase.wall_ns / 1e9,
            "host_slowdown": phase.host_slowdown,
            "reference_quiet_ns": min(reference.samples),
            "unscaled": unscaled_metrics(phase),
        }
    else:
        workload.setup()
        plain = run_phase(workload, args.seconds)
        workload.release()
        recorder = spans.Recorder()
        spans.install(recorder)
        root_span = recorder.open("setup")
        workload.setup()
        recorder.close(root_span)
        traced = run_phase(workload, args.seconds, max_batches=plain.batches, recorder=recorder)
        metrics = per_layer_metrics(workload, plain, traced, recorder)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        report = _report(metrics, PER_LAYER)
        recorder.write_tsv_gz(stem + "-spans.tsv.gz")
        detail = {"batches": plain.batches, "spans": len(recorder.spans)}

    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprints": fingerprints,
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted,
        "detail": detail,
        "metrics": report,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    print(
        "perfbench: %s seed=%d graph=%s stream=%s attempted=%d failed=%d error_ratio=%.6f"
        % (
            workload.name,
            args.seed,
            fingerprints["graph_sha256"][:16],
            fingerprints["stream_sha256"][:16],
            attempted,
            failed,
            failed / attempted,
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
