"""The benchmark's own arithmetic: percentiles, rank correlation, names.

Kept free of any ``repro`` import so ``test_perfbench.py`` can check it
without the program under test.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

_METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tail_permille(pct: float) -> int:
    """The share beyond *pct* in thousandths, exactly (99.9 -> 1)."""
    return 1000 - round(pct * 10)


def samples_beyond(n: int, pct: float) -> float:
    """How many of *n* samples lie above the *pct* percentile."""
    return n * _tail_permille(pct) / 1000


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it.

    None when even the median has fewer than ten samples beyond it.
    """
    for pct in TAIL_PERCENTILES:
        if samples_beyond(n, pct) >= MIN_SAMPLES_BEYOND:
            return pct
    return None


def min_samples_for(pct: float) -> int:
    """The smallest sample count for which *pct* is reportable."""
    tail = _tail_permille(pct)
    return -(-MIN_SAMPLES_BEYOND * 1000 // tail)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``+inf`` entries sort last)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle ones for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _ranks(values: Sequence[float]) -> List[float]:
    """1-based ranks, ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation; 0.0 when either side is constant."""
    if len(xs) != len(ys):
        raise ValueError("spearman needs paired samples")
    if len(xs) < 2:
        return 0.0
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def engine_slug(name: str) -> str:
    """An engine's profile name as a metric-name component.

    Lower-cased, keeping only ``[a-z0-9-]``: ``Spar(k)ql`` -> ``sparkql``,
    ``SPARQL-Hybrid`` -> ``sparql-hybrid``.
    """
    slug = re.sub(r"[^a-z0-9-]", "", name.lower())
    if not slug:
        raise ValueError("engine name %r has no usable characters" % name)
    return slug


def check_metric_name(name: str) -> str:
    """Return *name* if it is a valid metric name, else raise ValueError."""
    if not _METRIC_NAME.match(name):
        raise ValueError("invalid metric name %r" % name)
    return name


def check_unit(unit: str) -> str:
    if not _UNIT.match(unit):
        raise ValueError("invalid unit %r" % unit)
    return unit


SpanRow = Tuple[str, int, int, int]  # (name, start_ns, end_ns, parent index)


def self_times(spans: Sequence[SpanRow]) -> List[int]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a parent's children are disjoint
    sub-intervals of it and their durations simply add up.
    """
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def roots_of(spans: Sequence[SpanRow]) -> List[int]:
    """The index of each span's outermost ancestor."""
    root = [0] * len(spans)
    for i, (_name, _start, _end, parent) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
    return root


def self_time_by_name(spans: Sequence[SpanRow]) -> Dict[str, int]:
    """Total self time per span name."""
    totals: Dict[str, int] = {}
    for (name, _start, _end, _parent), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0) + own
    return totals
