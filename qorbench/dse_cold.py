"""``dse-cold``: first-contact exploration of the four held-out DSE kernels.

Setup labels each kernel's sampled space with the flow simulator (the
ground truth the explorers are judged on) and trains the reference model.
Each round then, with every inference cache cleared first:

* sweeps each kernel's space with :class:`ModelGuidedExplorer` (batched);
* runs a float32 :class:`FunnelExplorer` over each space (all four, not
  only the largest: one funnel run is too little work to time steadily);
* re-scores a seeded sample one design at a time with ``predict`` (the
  ``repro-qor predict --model`` path), timing each call.
"""

from __future__ import annotations

import time

import numpy as np

from qorbench import checks
from qorbench.common import Result
from qorbench.fixtures import (
    PREPARE_REPEATS,
    Round,
    clear_process_caches,
    measure,
    per_round,
)

#: configurations sampled per kernel
SPACE_SIZES = {"bicg": 96, "symm": 64, "mvt": 96, "syrk": 160}
#: full-model budget of the funnel: a quarter of each space
FUNNEL_SHARE = 4
#: designs per kernel re-scored one at a time each round
SINGLES_PER_KERNEL = 48
#: tolerance of the float32 tier against float64
FLOAT32_TOLERANCE = 1e-4


def prepare(seed: int) -> dict:
    from repro.dse import exhaustive_ground_truth
    from repro.kernels import load_kernel

    from qorbench.fixtures import (
        design_size,
        stratified_sample,
        train_reference_model,
    )

    rng = np.random.default_rng(seed)
    spaces = {}
    for name, size in SPACE_SIZES.items():
        function = load_kernel(name)
        configs = stratified_sample(function, size, rng)
        spaces[name] = (function, exhaustive_ground_truth(function, configs))
    singles = [
        (name, index)
        for name, (function, space) in spaces.items()
        for index in evenly_spaced(
            [design_size(function, c) for c in space.configs], SINGLES_PER_KERNEL
        )
    ]
    return {"model": train_reference_model(), "spaces": spaces, "singles": singles}


def evenly_spaced(sizes: list, count: int) -> list[int]:
    """Indices of the middle design of each of ``count`` equal slices of the
    size order.  The space already follows the seed; drawing the single-design
    sample at random again would let a few large designs move the tail."""
    order = sorted(range(len(sizes)), key=sizes.__getitem__)
    return [order[(2 * i + 1) * len(order) // (2 * count)] for i in range(count)]


def run_round(state: dict, result: Result) -> Round:
    timed = result.timed
    from repro.dse import FunnelExplorer, ModelGuidedExplorer

    model, spaces = state["model"], state["spaces"]
    record = Round()
    sweeps = {}
    for name, (function, space) in spaces.items():
        clear_process_caches(model)
        scored: list = []

        def predict_batch(fn, configs, scored=scored):
            scored.extend(model.predict_batch(fn, configs))
            return scored[-len(configs):]

        explorer = ModelGuidedExplorer(predict_batch_fn=predict_batch)
        with timed(f"sweep {name}", 60) as phase:
            outcome = explorer.explore(function, space)
        record.add("sweep", phase)
        sweeps[name] = (outcome, scored)

    model.set_precision("float32")
    funnels = {}
    for name, (function, space) in spaces.items():
        clear_process_caches(model)
        scores: dict = {}

        def funnel_batch(fn, configs, scores=scores):
            predictions = model.predict_batch(fn, configs)
            scores.update(zip((c.key() for c in configs), predictions))
            return predictions

        explorer = FunnelExplorer(funnel_batch, keep=space.num_configs // FUNNEL_SHARE)
        with timed(f"funnel {name}", 60) as phase:
            funnels[name] = (explorer.explore(function, space), scores)
        record.add("funnel", phase)
    model.set_precision("float64")

    clear_process_caches(model)
    singles = []
    with timed("singles", 60) as phase:
        for name, index in state["singles"]:
            function, space = spaces[name]
            start = time.perf_counter()
            metrics = model.predict(function, space.configs[index])
            singles.append((time.perf_counter() - start, name, index, metrics))
    record.add("singles", phase)
    record.data.update(sweeps=sweeps, funnels=funnels, singles=singles)
    result.attempted += 2 * total_configs(state) + len(singles)
    return record


def total_configs(state: dict) -> int:
    return sum(space.num_configs for _, space in state["spaces"].values())


def verify(state: dict, last: Round, result: Result) -> None:
    """Check the last round against computations made outside the program."""
    from repro.dse import DesignSpace
    from repro.dse.explorer import qor_objectives
    from repro.kernels import kernel_source

    spaces = state["spaces"]
    for name, (outcome, scored) in last.data["sweeps"].items():
        function, space = spaces[name]
        predicted = {c.key(): qor_objectives(m) for c, m in zip(space.configs, scored)}
        front = checks.non_dominated(predicted.values())
        selected = [predicted[key] for key in outcome.selected_keys]
        result.check(
            set(selected) == front and len(selected) == len(front),
            f"{name}: selected set is not the non-dominated set of its predictions",
        )
        truth = {
            c.key(): qor_objectives(space.results[c.key()].as_dict()) for c in space.configs
        }
        exact = checks.non_dominated(truth.values())
        approx = checks.non_dominated(truth[key] for key in outcome.selected_keys)
        reference = checks.adrs(exact, approx)
        result.check(
            abs(reference - outcome.adrs) <= 1e-9,
            f"{name}: ADRS {outcome.adrs!r} != recomputed {reference!r}",
        )
        result.notes.append(
            f"{name}: {space.num_configs} configs, ADRS {outcome.adrs * 100:.2f}% "
            "against flow-simulator ground truth"
        )
        deduped = DesignSpace.from_lowered(function, kernel_source(name), space.configs).dedup()
        for member_ids in (cls.members for cls in deduped.classes):
            first = scored[member_ids[0]]
            result.check(
                all(scored[i] == first for i in member_ids),
                f"{name}: members of one dedup class got different predictions",
            )
    for _, name, index, metrics in last.data["singles"]:
        swept = last.data["sweeps"][name][1][index]
        result.check(
            checks.metrics_close(metrics, swept, 1e-9),
            f"{name}: one-at-a-time predict disagrees with the sweep on config {index}",
        )
    for name, (funnel, scores) in last.data["funnels"].items():
        space = spaces[name][1]
        swept = dict(zip((c.key() for c in space.configs), last.data["sweeps"][name][1]))
        result.check(
            len(scores) == funnel.full_model_configs and all(
                checks.metrics_close(m, swept[key], FLOAT32_TOLERANCE) for key, m in scores.items()
            ),
            f"{name}: funnel float32 scores disagree with the float64 sweep beyond 1e-4",
        )
        result.notes.append(
            f"{name} funnel: {funnel.full_model_configs}/{funnel.num_configs} full-model "
            f"scored, ADRS {funnel.adrs * 100:.2f}%"
        )


def run(seed, seconds, tracer, result: Result, prepare_phases: list, workdir, children) -> dict:
    """Measure ``dse-cold``; returns the per-layer extras of a traced run."""
    state = None
    for _ in range(PREPARE_REPEATS):
        with result.timed("prepare", 120) as phase:
            state = prepare(seed)
        prepare_phases.append(phase)
    # untimed warm-up: one full round, then measure
    run_round(state, Result())
    rounds, overhead = measure(seconds, lambda: run_round(state, result), tracer)
    configs = total_configs(state)
    result.rate("rate_per_s", per_round(rounds, "sweep", lambda r: configs),
                "cold exhaustive sweeps, configs/s")
    result.rate("rate2_per_s", per_round(rounds, "funnel", lambda r: configs),
                "float32 funnels, whole spaces per second")
    samples = [
        (latency, phase)
        for r in rounds
        for phase in r.phases["singles"]
        for latency, *_ in r.data["singles"]
    ]
    result.latency(samples, 90.0, "one-at-a-time predict")
    funnels = [f for r in rounds for f, _ in r.data["funnels"].values()]
    extra = {
        "trace.overhead_ratio": overhead,
        "dse.funnel_scored_share": (
            sum(f.full_model_configs for f in funnels) / sum(f.num_configs for f in funnels)
        ),
        "dse.funnel_surrogate_s": sum(f.surrogate_seconds for f in funnels),
    }
    verify(state, rounds[-1], result)
    return extra
