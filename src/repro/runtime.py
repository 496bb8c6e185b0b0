"""Shared runtime construction: one code path from names to warm engines.

Historically ``repro.cli`` owned graph loading and engine resolution, so
anything else that needed an engine (benchmarks, the serving layer) had
to either import the CLI or duplicate the logic.  This module is the
single construction path both the CLI and :mod:`repro.server` use:

* :func:`load_graph` -- read an RDF file by extension (``.nt`` / ``.ttl``),
  raising :class:`GraphLoadError` with a readable message instead of a
  bare ``OSError`` traceback;
* :func:`resolve_engine` -- engine name to class, raising
  :class:`UnknownEngineError` listing the valid choices;
* :func:`build_context` -- a :class:`~repro.spark.context.SparkContext`
  from the knob set every entry point shares (parallelism, faults,
  retry limit, speculation);
* :func:`build_engine` -- a warmed engine: context built, graph loaded,
  store built (dictionary encoding, vertical partitions, indexes --
  whatever the engine's ``_build`` does) exactly once.
"""

from __future__ import annotations

from typing import Optional, Type, Union

from repro.rdf.graph import RDFGraph
from repro.rdf.ntriples import load_ntriples_file
from repro.rdf.turtle import parse_turtle
from repro.spark.context import SparkContext
from repro.spark.faults import FaultScheduler


class RuntimeConfigError(ValueError):
    """A runtime construction input (path, engine name) is unusable."""


class GraphLoadError(RuntimeConfigError):
    """An RDF data file could not be read or parsed."""


class UnknownEngineError(RuntimeConfigError):
    """No engine matches the requested name."""


def load_graph(path: str) -> RDFGraph:
    """Load an RDF file by extension (.nt or .ttl).

    Raises :class:`GraphLoadError` for unreadable files and syntax
    errors, carrying the path and the underlying cause.
    """
    try:
        if path.endswith((".ttl", ".turtle")):
            with open(path, "r", encoding="utf-8") as handle:
                return parse_turtle(handle.read())
        return load_ntriples_file(path)
    except OSError as exc:
        raise GraphLoadError(
            "cannot read RDF file %r: %s" % (path, exc)
        ) from exc
    except ValueError as exc:
        raise GraphLoadError(
            "cannot parse RDF file %r: %s" % (path, exc)
        ) from exc


def resolve_engine(name: str):
    """Engine name -> engine class (case-insensitive, ``Naive`` included).

    Raises :class:`UnknownEngineError` whose message lists every valid
    choice, suitable for printing verbatim.
    """
    from repro.explain import engine_class

    try:
        return engine_class(name)
    except KeyError as exc:
        raise UnknownEngineError(
            str(exc.args[0]) if exc.args else str(exc)
        ) from exc


def build_context(
    parallelism: int = 4,
    faults: Union[None, str, FaultScheduler] = None,
    max_task_attempts: int = 4,
    speculation: bool = False,
    verify_closures: bool = False,
) -> SparkContext:
    """A SparkContext from the knob set shared by every entry point.

    ``verify_closures`` opts into worker-boundary enforcement at job
    submission (see :mod:`repro.analysis.closures`).
    """
    return SparkContext(
        default_parallelism=parallelism,
        faults=faults,
        max_task_attempts=max_task_attempts,
        speculation=speculation,
        verify_closures=verify_closures,
    )


def build_engine(
    engine: str,
    graph: RDFGraph,
    parallelism: int = 4,
    faults: Union[None, str, FaultScheduler] = None,
    max_task_attempts: int = 4,
    speculation: bool = False,
    ctx: Optional[SparkContext] = None,
    verify_closures: bool = False,
):
    """Resolve, construct, and warm one engine on *graph*.

    The returned engine has its store built (graph ingested, encoded,
    partitioned) and is ready for any number of ``execute`` calls --
    engines are reusable across queries; only the store build is
    per-instance.
    """
    cls = resolve_engine(engine)
    if ctx is None:
        ctx = build_context(
            parallelism=parallelism,
            faults=faults,
            max_task_attempts=max_task_attempts,
            speculation=speculation,
            verify_closures=verify_closures,
        )
    return cls(ctx).load(graph)
