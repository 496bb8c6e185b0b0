"""Deterministic fault injection for the simulated cluster.

The paper's framework-level argument for Spark over MapReduce rests on
lineage-based fault tolerance: RDDs record how each partition was derived,
so a lost partition is *recomputed* from its dependency graph instead of
restarting the job, and failed tasks are simply retried (Section III).
Until now the simulated cluster assumed a perfect machine, so that claim
was untested metadata.  This module makes it executable: a
:class:`FaultScheduler`, attached to a
:class:`~repro.spark.context.SparkContext`, injects three kinds of event
into task execution, keyed by ``(stage, partition, attempt)``:

``fail``
    The task attempt dies before producing output.  The scheduler retries
    it (charging ``tasks_failed`` / ``tasks_retried``) up to the context's
    ``max_task_attempts``; exhaustion raises :class:`TaskFailedError`.
``lose``
    A cached partition is evicted after materialization -- the simulated
    analogue of losing an executor's memory.  The owning RDD rebuilds it
    from lineage, charging ``partitions_recomputed`` and the recovery work
    to ``recompute_comparisons``.  Checkpointed RDDs
    (:meth:`~repro.spark.rdd.RDD.checkpoint`) are immune: their partitions
    live on reliable storage.
``straggle``
    The task is slow.  ``straggler_delay_units`` is charged, and when the
    context enables speculation a backup copy is launched
    (``speculative_launches``), mirroring Spark's speculative execution.

Every decision is a pure function of ``(seed, kind, stage, partition,
draw)``, so a given schedule is byte-reproducible: the same seed yields
the same failures, the same retries, and the same trace JSON.

Schedules are built programmatically from :class:`FaultRule` objects or
parsed from the compact spec grammar used by the CLI's ``--faults``::

    SPEC   := clause (';' clause)*
    clause := 'seed' '=' INT
            | KIND [':' param (',' param)*]
    KIND   := 'fail' | 'lose' | 'straggle'
    param  := 'p' '=' FLOAT          -- firing probability per decision
            | 'stage' '=' INT        -- restrict to one stage (RDD id)
            | 'partition' '=' INT    -- restrict to one partition index
            | 'times' '=' INT        -- cap total firings of this rule
            | 'delay' '=' INT        -- straggler delay units (straggle only)

Examples: ``fail:p=0.2``, ``lose:p=0.5;seed=7``,
``fail:stage=12,partition=0;straggle:p=0.1,delay=3``.  A targeted clause
(one naming a stage or partition) with neither ``p`` nor ``times`` fires
exactly once.  See ``docs/FAULTS.md`` for the full failure model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: The fault kinds a rule may inject.
FAULT_KINDS = ("fail", "lose", "straggle")


class FaultSpecError(ValueError):
    """A ``--faults`` spec string does not follow the grammar."""


class TaskFailedError(RuntimeError):
    """A task exhausted ``max_task_attempts`` under the fault schedule.

    Carries the failing coordinates so callers (and the CLI) can report
    *which* task died rather than a bare exception.
    """

    def __init__(
        self,
        stage: int,
        partition: int,
        attempts: int,
        engine: Optional[str] = None,
    ) -> None:
        self.stage = stage
        self.partition = partition
        self.attempts = attempts
        #: Engine name, filled in by the systems driver when known.
        self.engine = engine
        super().__init__()

    def __reduce__(self):
        # Exceptions with custom __init__ signatures need an explicit
        # recipe to survive pickling.
        return (
            TaskFailedError,
            (self.stage, self.partition, self.attempts, self.engine),
        )

    def __str__(self) -> str:
        message = (
            "task failed permanently: stage=%d partition=%d after %d "
            "attempt(s)" % (self.stage, self.partition, self.attempts)
        )
        if self.engine:
            message += " [engine %s]" % self.engine
        return message

    def __repr__(self) -> str:
        return (
            "TaskFailedError(stage=%d, partition=%d, attempts=%d)"
            % (self.stage, self.partition, self.attempts)
        )


@dataclass
class FaultRule:
    """One injection rule: which kind, where it applies, how often.

    ``p`` is the firing probability per decision point (1.0 = always);
    ``stage``/``partition`` restrict the rule to matching tasks (``None``
    matches everything); ``times`` caps the rule's total firings
    (``None`` = unlimited); ``delay`` is the straggler cost in delay
    units.  ``fired`` counts firings so far (scheduler state).
    """

    kind: str
    p: float = 1.0
    stage: Optional[int] = None
    partition: Optional[int] = None
    times: Optional[int] = None
    delay: int = 1
    fired: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                "unknown fault kind %r (expected one of %s)"
                % (self.kind, ", ".join(FAULT_KINDS))
            )
        if not 0.0 <= self.p <= 1.0:
            raise FaultSpecError(
                "probability must be in [0, 1], got %r" % (self.p,)
            )
        if self.delay < 1:
            raise FaultSpecError("delay must be >= 1, got %d" % self.delay)

    def matches(self, stage: int, partition: int) -> bool:
        if self.stage is not None and self.stage != stage:
            return False
        if self.partition is not None and self.partition != partition:
            return False
        return True

    @property
    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times


class FaultScheduler:
    """Decides, deterministically, which task executions suffer faults.

    One scheduler belongs to one :class:`SparkContext`; rule firing
    counters are per-run state, so reuse across contexts goes through
    :meth:`fork` (same rules and seed, counters reset).

    Parameters
    ----------
    rules:
        The :class:`FaultRule` list, consulted in order (first match
        fires).  ``fail`` rules take precedence over ``straggle`` for the
        same task attempt.
    seed:
        Root of every probabilistic decision; two schedulers with equal
        rules and seed make identical decisions.
    max_losses_per_partition:
        Safety cap on how often one ``(stage, partition)`` can be lost,
        so ``lose:p=1`` cannot livelock a query in an eviction loop.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule] = (),
        seed: int = 17,
        max_losses_per_partition: int = 2,
    ) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self.max_losses_per_partition = max_losses_per_partition
        self._loss_draws: Dict[Tuple[int, int], int] = {}
        self._losses_fired: Dict[Tuple[int, int], int] = {}
        self._spec: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, text: str) -> "FaultScheduler":
        """Parse the ``--faults`` grammar (see the module docstring)."""
        rules: List[FaultRule] = []
        seed = 17
        for raw in text.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("seed"):
                key, eq, value = clause.partition("=")
                if key.strip() != "seed" or not eq:
                    raise FaultSpecError("malformed clause %r" % clause)
                seed = _parse_int(value, "seed")
                continue
            kind, _, params = clause.partition(":")
            kind = kind.strip()
            if kind not in FAULT_KINDS:
                raise FaultSpecError(
                    "unknown fault kind %r in clause %r (expected one of "
                    "%s, or seed=N)" % (kind, clause, ", ".join(FAULT_KINDS))
                )
            kwargs: Dict[str, Union[int, float]] = {}
            for param in params.split(",") if params.strip() else []:
                key, eq, value = param.partition("=")
                key = key.strip()
                if not eq:
                    raise FaultSpecError(
                        "malformed parameter %r in clause %r (expected "
                        "key=value)" % (param.strip(), clause)
                    )
                if key == "p":
                    kwargs["p"] = _parse_float(value, "p")
                elif key in ("stage", "partition", "times", "delay"):
                    kwargs[key] = _parse_int(value, key)
                else:
                    raise FaultSpecError(
                        "unknown parameter %r in clause %r" % (key, clause)
                    )
            targeted = "stage" in kwargs or "partition" in kwargs
            if targeted and "p" not in kwargs and "times" not in kwargs:
                kwargs["times"] = 1  # a bare targeted clause fires once
            rules.append(FaultRule(kind=kind, **kwargs))
        if not rules:
            raise FaultSpecError("fault spec %r declares no rules" % text)
        scheduler = cls(rules, seed=seed)
        scheduler._spec = text
        return scheduler

    def fork(self) -> "FaultScheduler":
        """A fresh scheduler with the same rules/seed and zeroed state."""
        forked = FaultScheduler(
            [replace(rule, fired=0) for rule in self.rules],
            seed=self.seed,
            max_losses_per_partition=self.max_losses_per_partition,
        )
        forked._spec = self._spec
        return forked

    def add_rule(self, rule: FaultRule) -> "FaultScheduler":
        self.rules.append(rule)
        return self

    @property
    def active(self) -> bool:
        return bool(self.rules)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _chance(self, kind: str, stage: int, partition: int, draw: int) -> float:
        """A deterministic uniform draw for one decision point.

        Seeding :class:`random.Random` with a string hashes it (stable
        across processes and Python versions), unlike built-in ``hash``.
        """
        return random.Random(
            "%d|%s|%d|%d|%d" % (self.seed, kind, stage, partition, draw)
        ).random()

    def _fire(self, kind: str, stage: int, partition: int, draw: int):
        for rule in self.rules:
            if (
                rule.kind != kind
                or rule.exhausted
                or not rule.matches(stage, partition)
            ):
                continue
            if rule.p >= 1.0 or self._chance(kind, stage, partition, draw) < rule.p:
                rule.fired += 1
                return rule
        return None

    def decide_task(
        self, stage: int, partition: int, attempt: int
    ) -> Optional[FaultRule]:
        """The fault (if any) hitting this task attempt.

        ``fail`` is checked before ``straggle``: a dead attempt cannot
        also be slow.  Returns the firing rule so the caller can read its
        ``kind`` and ``delay``.
        """
        for kind in ("fail", "straggle"):
            rule = self._fire(kind, stage, partition, attempt)
            if rule is not None:
                return rule
        return None

    def decide_loss(self, stage: int, partition: int) -> bool:
        """Whether this cached partition is lost on the current read."""
        key = (stage, partition)
        draw = self._loss_draws.get(key, 0)
        self._loss_draws[key] = draw + 1
        if self._losses_fired.get(key, 0) >= self.max_losses_per_partition:
            return False
        if self._fire("lose", stage, partition, draw) is None:
            return False
        self._losses_fired[key] = self._losses_fired.get(key, 0) + 1
        return True

    def __repr__(self) -> str:
        if self._spec is not None:
            return "FaultScheduler(spec=%r, seed=%d)" % (self._spec, self.seed)
        return "FaultScheduler(rules=%d, seed=%d)" % (len(self.rules), self.seed)


def as_fault_scheduler(
    faults: Union[None, str, FaultScheduler]
) -> Optional[FaultScheduler]:
    """Normalize a faults argument: None, a spec string, or a scheduler."""
    if faults is None or isinstance(faults, FaultScheduler):
        return faults
    if isinstance(faults, str):
        return FaultScheduler.from_spec(faults)
    raise TypeError(
        "faults must be None, a spec string, or a FaultScheduler, "
        "not %r" % type(faults).__name__
    )


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise FaultSpecError("%s expects an integer, got %r" % (name, text.strip()))


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise FaultSpecError("%s expects a number, got %r" % (name, text.strip()))
