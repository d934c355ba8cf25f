"""Reference computations the workloads check the program's outputs against.

Everything here is written from the definitions, independently of
``repro.dse.pareto``: brute-force dominance, non-dominated sets, ADRS, and
the percentile rule the report applies to latency samples.
"""

from __future__ import annotations

import math


def dominates(a, b) -> bool:
    """``a`` is no worse than ``b`` in every objective and better in one."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def non_dominated(vectors) -> set[tuple]:
    """The distinct objective vectors no other vector dominates (O(n^2))."""
    distinct = set(map(tuple, vectors))
    return {v for v in distinct if not any(dominates(o, v) for o in distinct)}


def adrs(exact, approx) -> float:
    """Average distance from reference set, as a fraction.

    ``exact`` and ``approx`` are collections of objective vectors; duplicates
    count once.  For each reference point the distance to the closest
    approximate point is the worst relative degradation over the
    objectives, clipped at zero.
    """
    exact = set(map(tuple, exact))
    approx = set(map(tuple, approx))
    if not exact:
        return 0.0
    if not approx:
        return math.inf

    def distance(reference, candidate) -> float:
        worst = 0.0
        for r, c in zip(reference, candidate):
            worst = max(worst, (c - r) / (abs(r) if abs(r) > 1e-12 else 1.0))
        return worst

    return sum(min(distance(r, c) for c in approx) for r in exact) / len(exact)


def relative_gap(a: float, b: float) -> float:
    """``|a - b|`` relative to the larger magnitude, clamped at 1 so that a
    near-zero metric (a predicted DSP count of 0.0008) does not inflate the
    ratio; the program states its own tolerances the same way."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def metrics_close(a: dict, b: dict, tolerance: float) -> bool:
    """Same metric names, every value within ``tolerance`` relative."""
    return a.keys() == b.keys() and all(
        relative_gap(float(a[k]), float(b[k])) <= tolerance for k in a
    )


#: a percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES` samples
    lie strictly beyond the returned rank: a tail read off fewer samples
    than that is not a tail.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if q > 50.0 and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has only {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES})"
        )
    return ordered[rank - 1]
