"""The benchmark's own arithmetic: percentiles, self time, due-time latency.

Everything here is pure and unit-tested (``perfbench/test_stats.py``) so a
change to how the program is measured is a visible change to this file.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile needs at least this many samples above it.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of *values*; ``nan`` for an empty list."""
    return statistics.median(values) if values else math.nan


def tail(values, min_beyond=TAIL_MIN_BEYOND):
    """The highest nearest-rank percentile with *min_beyond* samples above it.

    Returns ``(value, percentile, n)``.  Sorted ascending, the sample at
    1-based rank ``k`` has ``n - k`` samples beyond it, so the highest
    qualifying rank is ``n - min_beyond``.  With fewer than
    ``2 * min_beyond`` samples no rank above the median qualifies and the
    median is returned with percentile 50.
    """
    n = len(values)
    if n == 0:
        return math.nan, 0.0, 0
    ordered = sorted(values)
    k = n - min_beyond
    if k <= n // 2:
        return median(ordered), 50.0, n
    return ordered[k - 1], 100.0 * k / n, n


def self_times(spans):
    """Self time per span: duration minus the union of its children.

    *spans* is a list of dicts with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children may overlap each other (a wrapper
    nested twice, or interleaved threads), so their intervals are merged
    before they are subtracted; a child's part outside its parent's
    interval is ignored.  Returns ``{id: seconds}``.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            a, b = max(lo, c["start"]), min(hi, c["end"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = max(0.0, (hi - lo) - covered)
    return out


def due_latency(due_s, submit_s, service_total_s):
    """Latency of an open-loop request timed from when it was *due*.

    ``submit_s - due_s`` is how late the generator sent it; the service's
    own ``total_s`` runs from admission to resolution.  A request the
    service never resolved (``service_total_s is None``: shed or failed)
    has infinite latency, so it misses every latency limit.
    """
    if service_total_s is None:
        return math.inf
    return (submit_s - due_s) + service_total_s


def stratified_exponential(n, rate, rng, block=8):
    """*n* Poisson inter-arrival gaps at *rate*, stratified twice.

    The gaps are the exponential quantiles of ``(k + 0.5) / n``, so every
    seed draws the same multiset and offers the same load.  Their order is
    seeded but stratified too: the ranks are cut into bands of
    ``ceil(n / block)`` neighbours, each block of about *block*
    consecutive gaps takes one rank from every band, and each block is
    shuffled.  Short gaps still fall next to each other, so bursts build a
    queue, but no stretch of the schedule runs much faster or slower than
    *rate*.  This keeps a short run's latency median from depending on
    where one long cluster of short gaps happened to land.
    """
    if n == 0:
        return []
    n_blocks = -(-n // block)
    blocks = [[] for _ in range(n_blocks)]
    for start in range(0, n, n_blocks):
        band = list(range(start, min(n, start + n_blocks)))
        rng.shuffle(band)
        for b, rank in zip(blocks, band):
            b.append(rank)
    order = []
    for b in blocks:
        rng.shuffle(b)
        order.extend(b)
    return [-math.log(1.0 - (k + 0.5) / n) / rate for k in order]


def spaced_positions(k, n, rng):
    """*k* of the positions ``0..n-1`` (``k <= n``), one drawn from each of
    the slots ``[j * n // k, (j + 1) * n // k)``."""
    return [j * n // k + rng.randrange((j + 1) * n // k - j * n // k)
            for j in range(k)]


def completion_rate(due_s, done_s):
    """Completions per second from the first due time to the last completion.

    ``done_s`` holds ``None`` for requests that did not complete; they add
    nothing to the count but their due times still open the window.
    """
    finished = [d for d in done_s if d is not None]
    if not finished:
        return 0.0
    return len(finished) / (max(finished) - min(due_s))
