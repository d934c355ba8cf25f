"""Inputs and the measurement loop shared by the workloads."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from qorbench.common import Phase
from qorbench.tracing import Tracer

#: the predictor every inference workload drives.  Its corpus is fixed (it
#: does not follow ``--seed``), so every run explores with the same weights
#: and only the explored designs change with the seed.
REFERENCE_KERNELS = ("gemm", "atax", "gesummv")
REFERENCE_CONFIGS = 12
REFERENCE_EPOCHS = 8

#: a run measures at least this many whole rounds, however short ``--seconds``
MIN_ROUNDS = 3
#: setup runs this many times per run; ``setup_s`` reports the median
PREPARE_REPEATS = 2


def train_reference_model():
    """Label the fixed corpus with the flow simulator and train on it."""
    from repro.core import (
        HierarchicalModelConfig,
        HierarchicalQoRModel,
        TrainingConfig,
        build_design_instances,
    )
    from repro.dse.space import sample_design_space
    from repro.kernels import load_kernels

    rng = np.random.default_rng(7)
    kernels = load_kernels(REFERENCE_KERNELS)
    configs = {
        name: sample_design_space(function, REFERENCE_CONFIGS, rng=rng)
        for name, function in kernels.items()
    }
    model = HierarchicalQoRModel(HierarchicalModelConfig(
        conv_type="graphsage", hidden=32,
        training=TrainingConfig(epochs=REFERENCE_EPOCHS, seed=0),
    ))
    model.fit(build_design_instances(kernels, configs))
    return model


def design_size(function, config) -> tuple:
    """Sort key ordering designs by how much hardware they unfold into: the
    product of the unroll factors of the configuration's effective form
    (pipelining a loop fully unrolls the loops inside it), then its key."""
    from repro.hls.directives import canonicalize_config

    effective = canonicalize_config(function, config)
    return math.prod(directive.unroll_factor for _, directive in effective.loops), config.key()


def stratified_indices(sizes: list, count: int, rng: np.random.Generator) -> list[int]:
    """Indices of ``count`` designs, given each design's size key: one drawn
    at random from each of ``count`` equal slices of the size order, except
    that the largest slice always gives its largest design.

    Every seed thus draws the same mix of small and large designs, and the
    single most expensive design is never in one sample and out of the next,
    so the work of a run hardly depends on the seed.  Ascending order.
    """
    if not 0 < count <= len(sizes):
        raise ValueError(f"cannot draw {count} of {len(sizes)} designs")
    ordered = sorted(range(len(sizes)), key=sizes.__getitem__)
    bounds = [i * len(ordered) // count for i in range(count + 1)]
    picks = [ordered[int(rng.integers(lo, hi))] for lo, hi in zip(bounds[:-2], bounds[1:-1])]
    return sorted(picks + [ordered[-1]])


def stratified_sample(function, count: int, rng: np.random.Generator) -> list:
    """``count`` designs of ``function``'s enumerated space (see
    :func:`stratified_indices`)."""
    from repro.dse.space import enumerate_design_space

    configs = enumerate_design_space(function)
    sizes = [design_size(function, config) for config in configs]
    return [configs[i] for i in stratified_indices(sizes, count, rng)]


def clear_process_caches(model) -> None:
    """Make the next prediction cold: the model's inference caches plus the
    process-wide scatter-index and edge caches, which outlive them."""
    from repro.nn.autograd import SCATTER_INDEX_CACHE
    from repro.nn.message_passing import EDGE_CACHE

    model.clear_inference_caches()
    SCATTER_INDEX_CACHE.clear()
    EDGE_CACHE.clear()


@dataclass
class Round:
    """The timed phases of one round and whatever the checks need later."""

    phases: dict[str, list[Phase]] = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def add(self, key: str, phase: Phase) -> Phase:
        self.phases.setdefault(key, []).append(phase)
        return phase

    @property
    def busy_seconds(self) -> float:
        return sum(p.seconds for phases in self.phases.values() for p in phases)


def measure(seconds: float, run_round, tracer: Tracer | None) -> tuple[list[Round], float]:
    """Whole rounds until ``seconds`` have passed (at least :data:`MIN_ROUNDS`).

    With a ``tracer``, one untraced round runs first as the reference, then
    the tracer is installed and reset, and the measured rounds run traced.
    Returns the measured rounds and the traced/untraced busy-time ratio
    (1.0 without a tracer).
    """
    reference = None
    if tracer is not None:
        reference = run_round().busy_seconds
        tracer.install()
        tracer.reset()
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(run_round())
    if tracer is not None:
        tracer.uninstall()  # checks made after measuring are not counted
    if reference is None:
        return rounds, 1.0
    traced = sorted(r.busy_seconds for r in rounds)[len(rounds) // 2]
    return rounds, traced / reference


def per_round(rounds: list[Round], key: str, work) -> list[tuple[float, list[Phase]]]:
    """``(work, phases)`` of each round for :meth:`Result.rate`; ``work``
    maps a round to the amount of work its ``key`` phases did."""
    return [(work(r), r.phases[key]) for r in rounds]
