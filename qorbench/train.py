"""``train``: the ``repro-qor train`` path, through its public functions.

The corpus is the whole design space of four small training kernels (187
designs); the seed orders it and seeds the training split and shuffles.  A
sampled corpus would make the run's cost depend on the seed: the few designs
that pipeline an outer loop take up to 300 times the median to label.  Each
round:

* labels every design of the corpus with the flow simulator, one design
  per ``build_design_instances`` call, timing each;
* fits a fresh :class:`HierarchicalQoRModel` (GNNp, GNNnp, GNNg) for a
  fixed number of epochs (patience = epochs, so early stopping never
  changes the amount of work).
"""

from __future__ import annotations

import time

import numpy as np

from qorbench.common import Result
from qorbench.fixtures import PREPARE_REPEATS, Round, measure, per_round

KERNELS = ("gesummv", "jacobi1d", "fir", "gsm_autocorr")
EPOCHS = 3
#: designs per kernel whose predictions must survive a save/load round trip
ROUND_TRIP_SAMPLE = 4


def prepare(seed: int) -> dict:
    from repro.dse.space import enumerate_design_space
    from repro.kernels import load_kernels

    kernels = load_kernels(KERNELS)
    corpus = [
        (name, config)
        for name, function in kernels.items()
        for config in enumerate_design_space(function)
    ]
    order = np.random.default_rng(seed).permutation(len(corpus))
    corpus = [corpus[i] for i in order]
    return {"kernels": kernels, "corpus": corpus, "seed": seed}


def run_round(state: dict, result: Result) -> Round:
    from repro.core import (
        HierarchicalModelConfig,
        HierarchicalQoRModel,
        TrainingConfig,
        build_design_instances,
    )

    kernels, corpus, record = state["kernels"], state["corpus"], Round()
    instances, latencies = [], []
    with result.timed("label", 60) as phase:
        for name, config in corpus:
            start = time.perf_counter()
            instances += build_design_instances({name: kernels[name]}, {name: [config]})
            latencies.append(time.perf_counter() - start)
    record.add("label", phase)
    model = HierarchicalQoRModel(HierarchicalModelConfig(
        conv_type="graphsage", hidden=32,
        training=TrainingConfig(epochs=EPOCHS, patience=EPOCHS, seed=0),
    ))
    with result.timed("fit", 120) as phase:
        report = model.fit(instances, rng=np.random.default_rng(state["seed"]))
    record.add("fit", phase)
    record.data.update(instances=instances, latencies=latencies, model=model, report=report)
    result.attempted += len(corpus) + 1
    return record


def verify(state: dict, last: Round, result: Result, workdir) -> None:
    from repro.core import load_model, save_model

    for instance in last.data["instances"]:
        qor = instance.qor
        result.check(
            qor.latency > 0 and min(qor.lut, qor.ff, qor.dsp) >= 0,
            f"{instance.kernel}: implausible label {qor.as_dict()}",
        )
    report = last.data["report"]
    for name, fit in (("GNNp", report.gnn_p), ("GNNnp", report.gnn_np), ("GNNg", report.gnn_g)):
        losses = fit.train_losses
        result.check(
            len(losses) == EPOCHS and losses[-1] < losses[0],
            f"{name}: training loss did not fall ({losses[0]:.4g} -> {losses[-1]:.4g})",
        )
    model = last.data["model"]
    path = workdir / "trained.npz"
    save_model(model, path, warm_caches=False)
    restored = load_model(path, warm_caches=False)
    for name, function in state["kernels"].items():
        configs = [c for n, c in state["corpus"] if n == name][:ROUND_TRIP_SAMPLE]
        model.clear_inference_caches()
        result.check(
            model.predict_batch(function, configs) == restored.predict_batch(function, configs),
            f"{name}: predictions changed across save_model/load_model",
        )
    sizes = report.dataset_sizes
    result.notes.append(f"datasets {sizes}, first/last epoch loss "
                        f"GNNg {report.gnn_g.train_losses[0]:.4g}/"
                        f"{report.gnn_g.train_losses[-1]:.4g}")


def run(seed, seconds, tracer, result: Result, prepare_phases: list, workdir, children) -> dict:
    """Measure ``train``; returns the per-layer extras of a traced run."""
    state = None
    for _ in range(PREPARE_REPEATS):
        with result.timed("prepare", 60) as phase:
            state = prepare(seed)
        prepare_phases.append(phase)
    run_round(state, Result())  # untimed warm-up
    rounds, overhead = measure(seconds, lambda: run_round(state, result), tracer)
    result.rate(
        "rate_per_s",
        per_round(rounds, "fit", lambda r: sum(r.data["report"].dataset_sizes.values()) * EPOCHS),
        "fit, graph samples x epochs per second (GNNp + GNNnp + GNNg)",
    )
    result.rate("rate2_per_s", per_round(rounds, "label", lambda r: len(r.data["latencies"])),
                "flow-simulator labelling, designs/s")
    samples = [
        (latency, phase)
        for r in rounds
        for phase in r.phases["label"]
        for latency in r.data["latencies"]
    ]
    result.latency(samples, 90.0, "labelling one design")
    verify(state, rounds[-1], result, workdir)
    return {"trace.overhead_ratio": overhead}
