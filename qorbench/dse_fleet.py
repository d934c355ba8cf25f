"""``dse-fleet``: a two-worker work-stealing fleet over a sampled syrk space.

Setup trains the reference model and saves it without caches.  Each round
starts from that pristine file and:

* runs a cold fleet with checkpointing and warm-cache write-back;
* runs a second fleet over the same space that adopts the written-back
  caches (it must build no graph at all);
* loads the written-back model in-process and answers every design of the
  space from it one at a time (the banked prediction memo), timing each
  lookup.
"""

from __future__ import annotations

import math
import shutil
import time

import numpy as np

from qorbench import checks
from qorbench.common import Result
from qorbench.fixtures import PREPARE_REPEATS, Round, measure, per_round

KERNEL = "syrk"
SPACE_SIZE = 240
#: configurations of the untimed warm-up round
WARM_UP_SIZE = 48
WORKERS = 2
#: designs the checks re-score in-process
CHECK_SAMPLE = 24
#: seconds without any message from the fleet before it counts as stalled
STALL_TIMEOUT = 60.0


def prepare(seed: int, workdir) -> dict:
    from repro.core import save_model
    from repro.dse import DesignSpace
    from repro.kernels import kernel_source, load_kernel

    from qorbench.fixtures import stratified_sample, train_reference_model

    pristine = workdir / "pristine.npz"
    save_model(train_reference_model(), pristine, warm_caches=False)
    rng = np.random.default_rng(seed)
    function = load_kernel(KERNEL)
    space = DesignSpace.from_lowered(
        function, kernel_source(KERNEL), stratified_sample(function, SPACE_SIZE, rng)
    )
    return {
        "pristine": pristine,
        "space": space,
        "lookups": [int(i) for i in rng.permutation(len(space))],
        "sample": [int(i) for i in rng.choice(len(space), CHECK_SAMPLE, replace=False)],
    }


def cold_builds(fleet) -> int:
    return fleet.cache_stats.get("unit_misses", 0) + fleet.cache_stats.get("outer_misses", 0)


def run_round(state: dict, result: Result, workdir, warm_up: bool = False) -> Round:
    """One round; the untimed ``warm_up`` round runs on a slice of the space."""
    from repro.core import load_model
    from repro.dse import DesignSpace, ShardedExplorer

    space, wanted = state["space"], state["lookups"]
    if warm_up:
        space = DesignSpace.from_lowered(
            space.function(), space.source, space.configs[:WARM_UP_SIZE]
        )
        wanted = [i for i in wanted if i < WARM_UP_SIZE]
    model_path = workdir / "model.npz"
    checkpoint = workdir / "sweep.ckpt"
    shutil.copyfile(state["pristine"], model_path)
    checkpoint.unlink(missing_ok=True)
    record = Round()
    cold_fleet = ShardedExplorer(
        model_path, num_workers=WORKERS, work_stealing=True, checkpoint=checkpoint,
        write_back=True, worker_timeout=STALL_TIMEOUT,
    )
    with result.timed("cold fleet", 120) as phase:
        cold = cold_fleet.explore(space)
    record.add("cold", phase)
    warm_fleet = ShardedExplorer(
        model_path, num_workers=WORKERS, work_stealing=True, warm_caches=True,
        worker_timeout=STALL_TIMEOUT,
    )
    with result.timed("warm fleet", 120) as phase:
        warm = warm_fleet.explore(space)
    record.add("warm", phase)
    banked = load_model(model_path, warm_caches=True)
    function = space.function()
    lookups = []
    with result.timed("lookups", 60) as phase:
        for config_id in wanted:
            start = time.perf_counter()
            (metrics,) = banked.predict_batch(function, [space.config(config_id)])
            lookups.append((time.perf_counter() - start, config_id, metrics))
    record.add("lookups", phase)
    record.data.update(cold=cold, warm=warm, lookups=lookups)
    result.attempted += 2 * len(space) + len(lookups)
    return record


def verify(state: dict, last: Round, result: Result) -> None:
    from repro.core import load_model
    from repro.dse.explorer import qor_objectives

    space = state["space"]
    cold, warm = last.data["cold"], last.data["warm"]
    result.check(
        len(cold.predictions) == len(space) and all(
            m and all(math.isfinite(v) for v in m.values()) for m in cold.predictions
        ),
        "cold fleet did not return one finite prediction per config",
    )
    delivered = sum(shard.completed for shard in cold.shards)
    result.check(
        delivered == cold.num_classes and cold.recovered_configs == 0
        and cold.rescored_configs == 0,
        f"fleet scored {delivered} representatives (+{cold.recovered_configs} recovered, "
        f"{cold.rescored_configs} re-scored) for {cold.num_classes} classes",
    )
    reference = load_model(state["pristine"], warm_caches=False)
    sample = state["sample"]
    direct = reference.predict_batch(space.function(), [space.config(i) for i in sample])
    result.check(
        all(checks.metrics_close(cold.predictions[i], m, 1e-9) for i, m in zip(sample, direct)),
        "fleet predictions disagree with in-process predict_batch beyond 1e-9",
    )
    objectives = [qor_objectives(m) for m in cold.predictions]
    front = [tuple(point.objectives) for point in cold.front]
    expected = checks.non_dominated(objectives)
    result.check(
        set(front) == expected and len(front) == len(expected),
        "merged front is not the non-dominated set of the fleet's predictions",
    )
    result.check(
        warm.predictions == cold.predictions
        and [(p.key, p.objectives) for p in warm.front]
        == [(p.key, p.objectives) for p in cold.front],
        "warm fleet is not bit-equal to the cold fleet",
    )
    result.check(cold_builds(warm) == 0, f"warm fleet built {cold_builds(warm)} graphs")
    result.check(
        all(metrics == cold.predictions[i] for _, i, metrics in last.data["lookups"]),
        "lookups in the written-back model differ from the fleet's predictions",
    )
    result.notes.append(
        f"fleet: {len(space)} configs, {cold.num_classes} classes, {cold_builds(cold)} cold "
        f"builds, write-back {cold.write_back_stats}"
    )


def run(seed, seconds, tracer, result: Result, prepare_phases: list, workdir, children) -> dict:
    """Measure ``dse-fleet``; returns the per-layer extras of a traced run."""
    state = None
    for _ in range(PREPARE_REPEATS):
        with result.timed("prepare", 120) as phase:
            state = prepare(seed, workdir)
        prepare_phases.append(phase)
    run_round(state, Result(), workdir, warm_up=True)
    rounds, overhead = measure(seconds, lambda: run_round(state, result, workdir), tracer)
    size = len(state["space"])
    result.rate("rate_per_s", per_round(rounds, "cold", lambda r: size),
                "cold fleet end to end, configs/s")
    result.rate("rate2_per_s", per_round(rounds, "warm", lambda r: size),
                "write-back-warmed fleet end to end, configs/s")
    samples = [
        (latency, phase)
        for r in rounds
        for phase in r.phases["lookups"]
        for latency, *_ in r.data["lookups"]
    ]
    result.latency(samples, 90.0, "single-design lookup in the written-back model")
    extra = {
        "trace.overhead_ratio": overhead,
        "dse.fleet_cold_builds": sum(cold_builds(r.data["cold"]) for r in rounds),
        "dse.warm_fleet_cold_builds": sum(cold_builds(r.data["warm"]) for r in rounds),
        "dse.fleet_recovered": sum(
            r.data[k].recovered_configs for r in rounds for k in ("cold", "warm")
        ),
    }
    verify(state, rounds[-1], result)
    return extra
