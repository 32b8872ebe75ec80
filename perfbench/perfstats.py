"""Statistics and span arithmetic shared by run.py and its tests."""

import math
import statistics
from fractions import Fraction

# Percentiles the tail helper considers, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def mean_of_medians(groups):
    """Mean over non-empty groups of each group's median."""
    return statistics.fmean(statistics.median(g) for g in groups)


def _rank(n, pct):
    """1-based nearest rank of percentile `pct` among n samples (exact)."""
    return max(1, math.ceil(n * Fraction(str(pct)) / 100))


def percentile(values, pct):
    """Nearest-rank percentile of `values` (pct in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[min(len(ordered), _rank(len(ordered), pct)) - 1]


def tail(values):
    """The highest percentile with >= MIN_BEYOND samples beyond it.

    Returns (pct, value, n); pct and value are None when even the median
    has fewer than MIN_BEYOND samples above it.
    """
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n - _rank(n, pct) >= MIN_BEYOND:
            return pct, percentile(values, pct), n
    return None, None, n


def _union_length(intervals):
    total = 0.0
    end = None
    start = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            if end is not None:
                total += end - start
            start, end = s, e
        elif e > end:
            end = e
    if end is not None:
        total += end - start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children, whatever thread they ran on.

    `spans` maps id -> dict(start, end, parent). Children running
    concurrently on several threads cover their parent only once.
    """
    children = {}
    for sid, s in spans.items():
        if s["parent"] in spans:
            children.setdefault(s["parent"], []).append(sid)
    result = {}
    for sid, s in spans.items():
        covered = [
            (max(s["start"], spans[c]["start"]), min(s["end"], spans[c]["end"]))
            for c in children.get(sid, ())
        ]
        covered = [(a, b) for a, b in covered if b > a]
        result[sid] = (s["end"] - s["start"]) - _union_length(covered)
    return result


def thread_total(spans):
    """Time integral of the number of spans that are open and have no open
    child: the work, in thread-seconds, that the spans account for.

    Computed by a sweep over span boundaries, independently of
    self_times(); for properly nested spans the two agree exactly.
    """
    cuts = sorted({t for s in spans.values() for t in (s["start"], s["end"])})
    opens, closes = {}, {}
    for sid, s in spans.items():
        if s["end"] > s["start"]:
            opens.setdefault(s["start"], []).append(sid)
            closes.setdefault(s["end"], []).append(sid)
    active = set()
    open_children = {sid: 0 for sid in spans}
    total = 0.0
    for i, t in enumerate(cuts):
        for sid in closes.get(t, ()):
            active.discard(sid)
            parent = spans[sid]["parent"]
            if parent in open_children:
                open_children[parent] -= 1
        for sid in opens.get(t, ()):
            active.add(sid)
            parent = spans[sid]["parent"]
            if parent in open_children:
                open_children[parent] += 1
        if i + 1 < len(cuts):
            leaves = sum(1 for sid in active if open_children[sid] == 0)
            total += leaves * (cuts[i + 1] - t)
    return total


def layer_table(spans, layers):
    """Self time per layer name: `layers` maps span id -> layer."""
    own = self_times(spans)
    table = {}
    for sid, value in own.items():
        table[layers[sid]] = table.get(layers[sid], 0.0) + value
    return table
