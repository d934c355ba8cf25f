"""Per-layer timing from outside the program.

:class:`Tracer` wraps public functions of ``repro`` at every place a caller
binds them (the defining module and each ``repro.*`` module that imported
the name), counting calls and inclusive wall time per layer.  Nested calls
of the same layer are timed once, at the outermost call.  Nothing of the
program is modified on disk; uninstalled, the program runs untouched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: layer -> "module:qualname" of the public function timed for it
LAYERS: dict[str, str] = {
    "ir.lower": "repro.ir.builder:lower_source",
    "hls.canonicalize": "repro.hls.directives:canonicalize_config",
    "hls.flow": "repro.hls.flow:run_full_flow",
    "graph.signature": "repro.graph.hierarchy:decomposition_signature",
    "graph.decompose": "repro.graph.hierarchy:decompose",
    "nn.forward": "repro.core.trainer:GraphRegressorTrainer.predict",
    "nn.encode": "repro.nn.data:make_batch",
    "nn.fit": "repro.core.trainer:GraphRegressorTrainer.train",
    "core.predict_batch": "repro.core.hierarchical:HierarchicalQoRModel.predict_batch",
    "core.load_model": "repro.core.serialization:load_model",
    "core.save_model": "repro.core.serialization:save_model",
    "dse.dedup": "repro.dse.space:DesignSpace.dedup",
    "dse.partition": "repro.dse.sharding:partition_space",
    "dse.checkpoint": "repro.dse.checkpoint:save_checkpoint",
    "dse.front": "repro.dse.pareto:pareto_front",
    "dse.merge_fronts": "repro.dse.pareto:merge_fronts",
}


def _resolve(target: str):
    """``(owner, attribute, original)`` of a ``module:qualname`` target."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


class Tracer:
    """Call counts and inclusive seconds per layer, plus derived counters."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()

    def add(self, snapshot: dict, sign: float = 1.0) -> None:
        """Fold another process's snapshot in (``sign=-1`` subtracts one)."""
        for name, value in snapshot.get("seconds", {}).items():
            self.seconds[name] += sign * value
        for name, value in snapshot.get("counts", {}).items():
            self.counts[name] += sign * value

    # ------------------------------------------------------------------ #
    def _wrap(self, layer: str, fn, pre=None, post=None):
        seconds, counts, depth = self.seconds, self.counts, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre else None
            depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[layer] -= 1
                if depth[layer] == 0:
                    seconds[layer] += time.perf_counter() - start
            counts[layer] += 1
            if post:
                post(token, args, kwargs, result)
            return result

        return traced

    def _count_forward(self, token, args, kwargs, result) -> None:
        self.counts["nn.forward_graphs"] += len(args[1])

    def _count_epochs(self, token, args, kwargs, result) -> None:
        self.counts["nn.epochs"] += len(result.train_losses)

    @staticmethod
    def _cache_state(args) -> tuple[int, int, int]:
        """Graph-cache hits, misses and memo size of the model in ``args[0]``."""
        stats = args[0].cache_stats()
        return (
            stats["unit_hits"] + stats["outer_hits"],
            stats["unit_misses"] + stats["outer_misses"],
            stats["memoized_predictions"],
        )

    def _count_caches(self, before, args, kwargs, result) -> None:
        """Cache deltas of one ``predict_batch`` call (graph builds, memo)."""
        after = self._cache_state(args)
        configs = len(result)
        self.counts["graph.hits"] += after[0] - before[0]
        self.counts["graph.cold_builds"] += after[1] - before[1]
        self.counts["core.configs"] += configs
        # every design the memo did not answer became a new memo entry
        self.counts["core.memo_hits"] += configs - (after[2] - before[2])

    def install(self) -> None:
        """Wrap every layer of :data:`LAYERS` where its callers bind it."""
        hooks = {
            "nn.forward": (None, self._count_forward),
            "nn.fit": (None, self._count_epochs),
            "core.predict_batch": (self._cache_state, self._count_caches),
        }
        for layer, target in LAYERS.items():
            owner, attribute, original = _resolve(target)
            wrapper = self._wrap(layer, original, *hooks.get(layer, (None, None)))
            if isinstance(owner, type):
                self._installed.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()


def import_program() -> None:
    """Import every ``repro`` module a workload touches, so that
    :meth:`Tracer.install` sees each place a layer function is bound."""
    for name in ("repro.cli", "repro.core", "repro.dse", "repro.serve", "repro.nn"):
        importlib.import_module(name)


#: per-layer metrics of a traced run: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "ir.lower_s": ("s", "lower"),
    "ir.lower_calls": ("count", "lower"),
    "hls.canonicalize_s": ("s", "lower"),
    "hls.canonicalize_calls": ("count", "lower"),
    "hls.flow_s": ("s", "lower"),
    "hls.flow_designs": ("count", "lower"),
    "graph.signature_s": ("s", "lower"),
    "graph.decompose_s": ("s", "lower"),
    "graph.decompose_calls": ("count", "lower"),
    "graph.cold_builds": ("count", "lower"),
    "graph.hit_ratio": ("ratio", "higher"),
    "nn.forward_s": ("s", "lower"),
    "nn.forward_calls": ("count", "lower"),
    "nn.forward_graphs": ("count", "lower"),
    "nn.encode_s": ("s", "lower"),
    "nn.encode_calls": ("count", "lower"),
    "nn.fit_s": ("s", "lower"),
    "nn.epochs": ("count", "lower"),
    "core.predict_batch_s": ("s", "lower"),
    "core.predict_batch_calls": ("count", "lower"),
    "core.memo_hit_ratio": ("ratio", "higher"),
    "core.load_model_s": ("s", "lower"),
    "core.save_model_s": ("s", "lower"),
    "dse.dedup_s": ("s", "lower"),
    "dse.partition_s": ("s", "lower"),
    "dse.checkpoint_saves": ("count", "lower"),
    "dse.checkpoint_s": ("s", "lower"),
    "dse.fleet_cold_builds": ("count", "lower"),
    "dse.warm_fleet_cold_builds": ("count", "lower"),
    "dse.fleet_recovered": ("count", "lower"),
    "dse.front_s": ("s", "lower"),
    "dse.funnel_scored_share": ("ratio", "lower"),
    "dse.funnel_surrogate_s": ("s", "lower"),
    "serve.batches": ("count", "lower"),
    "serve.configs_per_batch": ("ratio", "higher"),
    "serve.coalesced_batches": ("count", "higher"),
    "serve.duplicate_configs": ("count", "higher"),
    "serve.rejected_overload": ("count", "lower"),
    "serve.generator_late_p99_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric from the tracer plus workload figures.

    Layers a workload never reaches read 0; ``extra`` supplies what only the
    workload sees (fleet results, the daemon's ``stats`` verb, the load
    generator, the traced/untraced comparison).
    """
    s, c = tracer.seconds, tracer.counts

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values = {
        "ir.lower_s": s["ir.lower"],
        "ir.lower_calls": c["ir.lower"],
        "hls.canonicalize_s": s["hls.canonicalize"],
        "hls.canonicalize_calls": c["hls.canonicalize"],
        "hls.flow_s": s["hls.flow"],
        "hls.flow_designs": c["hls.flow"],
        "graph.signature_s": s["graph.signature"],
        "graph.decompose_s": s["graph.decompose"],
        "graph.decompose_calls": c["graph.decompose"],
        "graph.cold_builds": c["graph.cold_builds"],
        "graph.hit_ratio": ratio(c["graph.hits"], c["graph.hits"] + c["graph.cold_builds"]),
        "nn.forward_s": s["nn.forward"],
        "nn.forward_calls": c["nn.forward"],
        "nn.forward_graphs": c["nn.forward_graphs"],
        "nn.encode_s": s["nn.encode"],
        "nn.encode_calls": c["nn.encode"],
        "nn.fit_s": s["nn.fit"],
        "nn.epochs": c["nn.epochs"],
        "core.predict_batch_s": s["core.predict_batch"],
        "core.predict_batch_calls": c["core.predict_batch"],
        "core.memo_hit_ratio": ratio(c["core.memo_hits"], c["core.configs"]),
        "core.load_model_s": s["core.load_model"],
        "core.save_model_s": s["core.save_model"],
        "dse.dedup_s": s["dse.dedup"],
        "dse.partition_s": s["dse.partition"],
        "dse.checkpoint_saves": c["dse.checkpoint"],
        "dse.checkpoint_s": s["dse.checkpoint"],
        "dse.front_s": s["dse.front"] + s["dse.merge_fronts"],
    }
    values.update(extra)
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, (unit, _) in PER_LAYER.items()
    }
