"""Fast self-tests of the benchmark's own checkers and helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qorbench import checks
from qorbench.fixtures import stratified_indices


def test_dominance_is_strict_and_needs_one_better_objective():
    assert checks.dominates((1, 2), (2, 2))
    assert checks.dominates((1, 1), (2, 2))
    assert not checks.dominates((2, 2), (2, 2))
    assert not checks.dominates((1, 3), (2, 2))


def test_non_dominated_collapses_duplicates_and_drops_dominated():
    vectors = [(1, 5), (2, 2), (2, 2), (5, 1), (3, 3), (6, 6)]
    assert checks.non_dominated(vectors) == {(1, 5), (2, 2), (5, 1)}


def test_adrs_is_zero_on_the_exact_front_and_worst_gap_averaged():
    exact = [(10.0, 100.0), (20.0, 50.0)]
    assert checks.adrs(exact, exact) == 0.0
    # (10, 100) is matched by (11, 100): 10% worse latency; (20, 50) by
    # (20, 60): 20% worse area -> mean 15%
    assert math.isclose(checks.adrs(exact, [(11.0, 100.0), (20.0, 60.0)]), 0.15)
    # a candidate better in one objective is not rewarded for it
    assert math.isclose(checks.adrs([(10.0, 10.0)], [(5.0, 12.0)]), 0.2)
    assert checks.adrs(exact, []) == math.inf


def test_percentile_needs_ten_samples_beyond_it():
    assert checks.percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError):
        checks.percentile(range(1, 100), 90)
    assert checks.percentile(range(1, 1001), 99) == 990
    with pytest.raises(ValueError):
        checks.percentile(range(1, 1000), 99)
    assert checks.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_metrics_close_is_relative():
    assert checks.metrics_close({"a": 1.0, "b": 0.0}, {"a": 1.0 + 1e-12, "b": 0.0}, 1e-9)
    assert not checks.metrics_close({"a": 1.0}, {"a": 1.001}, 1e-9)
    assert not checks.metrics_close({"a": 1.0}, {"b": 1.0}, 1e-9)
    # near zero the gap is absolute: float32 noise on a 0.0008 DSP estimate
    assert checks.metrics_close({"dsp": -0.000767}, {"dsp": -0.000770}, 1e-4)
    assert not checks.metrics_close({"dsp": 0.0}, {"dsp": 0.001}, 1e-4)


def test_stratified_indices_draw_one_design_per_size_slice():
    sizes = list(range(100, 0, -1))  # largest first
    picks = stratified_indices(sizes, 10, np.random.default_rng(3))
    assert picks == sorted(picks) and len(set(picks)) == 10
    # one pick from each tenth of the size order: 1-10, 11-20, ...
    chosen = sorted(sizes[i] for i in picks)
    assert [(size - 1) // 10 for size in chosen] == list(range(10))
    assert chosen[-1] == 100  # the largest design is always in
    assert picks == stratified_indices(sizes, 10, np.random.default_rng(3))
    with pytest.raises(ValueError):
        stratified_indices(sizes, 101, np.random.default_rng(3))


def test_tracer_counts_calls_where_callers_bind_them_and_uninstalls():
    from qorbench.tracing import Tracer, import_program

    import_program()
    import repro.core.predictor as predictor
    import repro.ir.builder as builder

    original = builder.lower_source
    tracer = Tracer()
    tracer.install()
    try:
        assert predictor.lower_source is not original
        predictor.lower_source("void k(int A[4]) {\n  A[0] = 1;\n}\n")
    finally:
        tracer.uninstall()
    assert predictor.lower_source is original and builder.lower_source is original
    assert tracer.counts["ir.lower"] == 1 and tracer.seconds["ir.lower"] > 0
