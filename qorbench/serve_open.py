"""``serve-open``: the real daemon under open-loop load, then at capacity.

Setup trains the reference model, saves it, starts ``repro-qor serve`` as a
subprocess (port 0, output to files) and primes a hot set of designs into
its prediction memo.  Each round, over two fresh connections from one
asyncio thread, one design per request:

* open loop: Poisson arrivals at a fixed rate, mostly hot designs (memo
  hits), the rest fresh designs from large spaces (cold graph builds), plus
  a few ``source`` requests, two of them malformed HLS-C;
* closed loop at capacity: the same hot/fresh mix with 16 requests
  outstanding per connection;
* closed loop on the hot set alone (what the memo and batcher sustain).

Latency is timed from each request's scheduled send time.  The malformed
requests must be answered ``bad-request``; the daemon answers ``internal``
today, so they are counted as failed.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np

from qorbench import checks
from qorbench.common import ROOT, Children, Result
from qorbench.fixtures import PREPARE_REPEATS, Round, measure, per_round

HOT_KERNELS = ("gemm", "bicg", "atax")
HOT_PER_KERNEL = 16
#: fresh designs come from these kernels' large spaces (4096 and 3025 configs),
#: through a seeded pool of this many (enough for 8 rounds)
FRESH_KERNELS = ("syrk", "mvt")
FRESH_POOL = 2000
RATE_PER_S = 100.0
CONNECTIONS = 2
OUTSTANDING = 16
#: requests per round: open loop (hot, fresh, valid source), closed mix, closed
#: hot.  The open loop keeps fresh designs to a twentieth: at the 70/30 mix
#: the queue behind cold builds made its latency swing by a quarter from run
#: to run, and at a tenth the p90 fell on the edge between hot and fresh.
OPEN_HOT, OPEN_FRESH, OPEN_SOURCE = 336, 18, 4
CLOSED_HOT, CLOSED_FRESH = 336, 144
HOT_ONLY = 960
#: seeded sample of responses re-scored in-process by the checks
CHECK_SAMPLE = 32
#: malformed HLS-C: a syntax error, and an expression nested 200 levels deep
MALFORMED_SOURCES = (
    "void broken(int A[4]) {\n  for (int i = 0; i < 4; i++ {\n    A[i] = 1;\n  }\n}\n",
    "void deep(int A[4]) {\n  A[0] = " + "(" * 200 + "1" + ")" * 200 + ";\n}\n",
)
READY_TIMEOUT_S = 60.0


# --------------------------------------------------------------------------- #
# the daemon
# --------------------------------------------------------------------------- #
class Daemon:
    """One ``repro-qor serve`` subprocess, traced or not."""

    def __init__(self, children: Children, workdir: Path, model: Path, traced: bool, tag: str):
        self.dump = workdir / f"daemon-{tag}.trace.json"
        self.stdout = workdir / f"daemon-{tag}.out"
        self.stderr = workdir / f"daemon-{tag}.err"
        serve = ["serve", "--model", str(model), "--port", "0"]
        if traced:
            argv = [sys.executable, str(ROOT / "qorbench" / "serve_daemon.py"), str(self.dump)]
        else:
            argv = [sys.executable, "-m", "repro.cli"]
        self.children = children
        self.proc = children.start(argv + serve, stdout=self.stdout, stderr=self.stderr)
        self.address = self._wait_ready()

    def _wait_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.stdout.read_text().splitlines():
                if line.startswith("serving on "):
                    host, _, port = line[len("serving on "):].rpartition(":")
                    return host, int(port)
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before serving:\n"
                    + self.stderr.read_text()[-2000:]
                )
            time.sleep(0.02)
        raise RuntimeError(f"daemon not serving after {READY_TIMEOUT_S:.0f}s")

    def trace_snapshot(self) -> dict:
        """Ask the traced daemon for its counters (SIGUSR1) and read them."""
        previous = json.loads(self.dump.read_text())["sequence"] if self.dump.exists() else 0
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if self.dump.exists():
                snapshot = json.loads(self.dump.read_text())
                if snapshot["sequence"] > previous:
                    return snapshot
            time.sleep(0.01)
        raise RuntimeError("traced daemon did not dump its counters")

    def stop(self) -> None:
        status = self.children.stop(self.proc)
        if status != 0:
            raise RuntimeError(f"daemon exited with {status} on SIGTERM")


# --------------------------------------------------------------------------- #
# the load generator
# --------------------------------------------------------------------------- #
class Connections:
    """Two connections; responses are matched to their request ids."""

    def __init__(self):
        self.pending: dict[int, asyncio.Future] = {}
        self.answered: dict[int, int] = {}
        self._streams = []
        self._readers = []

    async def open(self, address) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(*address, limit=1 << 24)
            self._streams.append((reader, writer))
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader) -> None:
        loop = asyncio.get_running_loop()
        while line := await reader.readline():
            response = json.loads(line)
            request_id = response.get("id")
            self.answered[request_id] = self.answered.get(request_id, 0) + 1
            future = self.pending.get(request_id)
            if future is not None and not future.done():
                future.set_result((loop.time(), response))

    def send(self, index: int, message: dict) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.pending[message["id"]] = future
        self._streams[index % CONNECTIONS][1].write(
            (json.dumps(message, separators=(",", ":")) + "\n").encode()
        )
        return future

    async def close(self) -> None:
        for _, writer in self._streams:
            writer.close()
        for _, writer in self._streams:
            await writer.wait_closed()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


def predict_message(request_id: int, item: tuple) -> dict:
    from repro.serve.protocol import config_to_payload

    kind, name, config = item
    message = {"type": "predict", "id": request_id, "configs": [config_to_payload(config)]}
    if kind == "source":
        message["source"] = name
    else:
        message["kernel"] = name
    return message


async def open_loop(address, items: list, offsets: np.ndarray, ids) -> dict:
    """Send ``items`` at ``offsets`` seconds from now; wait for every answer."""
    connections = Connections()
    await connections.open(address)
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    sent = []
    try:
        for index, (item, offset) in enumerate(zip(items, offsets)):
            due = start + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            request_id = next(ids)
            future = connections.send(index, predict_message(request_id, item))
            sent.append((request_id, item, due, loop.time() - due, future))
        answers = await asyncio.wait_for(asyncio.gather(*(s[4] for s in sent)), 60.0)
    finally:
        await connections.close()
    return {"sent": sent, "answers": answers, "answered": connections.answered}


async def closed_loop(address, items: list, ids) -> dict:
    """Keep :data:`OUTSTANDING` requests in flight per connection."""
    connections = Connections()
    await connections.open(address)
    queue = iter(enumerate(items))
    sent = []

    async def worker(connection: int) -> None:
        for index, item in queue:
            request_id = next(ids)
            future = connections.send(connection, predict_message(request_id, item))
            sent.append((request_id, item, None, 0.0, future))
            await future

    try:
        workers = [worker(c) for c in range(CONNECTIONS) for _ in range(OUTSTANDING)]
        await asyncio.wait_for(asyncio.gather(*workers), 60.0)
    finally:
        await connections.close()
    answers = [s[4].result() for s in sent]
    return {"sent": sent, "answers": answers, "answered": connections.answered}


async def stats(address) -> dict:
    connections = Connections()
    await connections.open(address)
    try:
        _, response = await asyncio.wait_for(connections.send(0, {"type": "stats", "id": -1}), 30)
    finally:
        await connections.close()
    return response


# --------------------------------------------------------------------------- #
# workload
# --------------------------------------------------------------------------- #
def designs(seed: int) -> dict:
    """The hot set and a shuffled pool of fresh designs, from the seed."""
    from repro.dse.space import enumerate_design_space
    from repro.kernels import load_kernel

    from qorbench.fixtures import design_size, stratified_sample

    rng = np.random.default_rng(seed)
    hot = [
        ("kernel", name, config)
        for name in HOT_KERNELS
        for config in stratified_sample(load_kernel(name), HOT_PER_KERNEL, rng)
    ]
    pool = [
        ("kernel", name, config)
        for name in FRESH_KERNELS
        for config in enumerate_design_space(load_kernel(name))
    ]
    fresh = [
        (item, design_size(load_kernel(item[1]), item[2]))
        for item in (pool[i] for i in rng.choice(len(pool), FRESH_POOL, replace=False))
    ]
    return {"hot": hot, "fresh": fresh, "rng": rng}


def prepare(seed: int, workdir: Path, children: Children, traced: bool) -> dict:
    from repro.core import save_model

    from qorbench.fixtures import train_reference_model

    model = workdir / "served.npz"
    save_model(train_reference_model(), model, warm_caches=False)
    state = designs(seed)
    state.update(model=model, ids=itertools.count(), children=children, workdir=workdir)
    start_daemon(state, traced, "setup")
    return state


def start_daemon(state: dict, traced: bool, tag: str) -> None:
    daemon = Daemon(state["children"], state["workdir"], state["model"], traced, tag)
    state["daemon"] = daemon
    primed = asyncio.run(closed_loop(daemon.address, state["hot"], state["ids"]))
    if not all(answer["ok"] for _, answer in primed["answers"]):
        raise RuntimeError("priming the hot set failed")


def take_fresh(state: dict, count: int) -> list:
    """``count`` never-requested designs, drawn across the size order of
    the remaining pool (see :func:`stratified_indices`)."""
    from qorbench.fixtures import stratified_indices

    if not count:
        return []
    pool = state["fresh"]
    picks = set(stratified_indices([size for _, size in pool], count, state["rng"]))
    state["fresh"] = [entry for i, entry in enumerate(pool) if i not in picks]
    return [pool[i][0] for i in sorted(picks)]


def mix(state: dict, hot: int, fresh: int, sources: bool) -> list:
    """``hot`` repeats of the hot set and ``fresh`` new designs, shuffled."""
    from repro.kernels import kernel_source

    rng = state["rng"]
    items = [state["hot"][i] for i in rng.integers(len(state["hot"]), size=hot)]
    items += take_fresh(state, fresh)
    if sources:
        bicg = [item for item in state["hot"] if item[1] == "bicg"]
        items += [("source", kernel_source("bicg"), bicg[i][2]) for i in range(OPEN_SOURCE)]
        items += [("source", text, None) for text in MALFORMED_SOURCES]
    return [items[i] for i in rng.permutation(len(items))]


def run_round(state: dict, result: Result, scale: int = 1) -> Round:
    """One round; ``scale`` > 1 shrinks it (for the untimed warm-up)."""
    from repro.frontend.pragmas import PragmaConfig

    address = state["daemon"].address
    rng, record = state["rng"], Round()
    items = mix(state, OPEN_HOT // scale, OPEN_FRESH // scale, sources=True)
    items = [(k, n, c if c is not None else PragmaConfig()) for k, n, c in items]
    offsets = np.cumsum(rng.exponential(1.0 / RATE_PER_S, size=len(items)))
    with result.timed("open loop", 120) as open_phase:
        opened = asyncio.run(open_loop(address, items, offsets, state["ids"]))
    mixed = mix(state, CLOSED_HOT // scale, CLOSED_FRESH // scale, sources=False)
    with result.timed("closed loop", 60) as phase:
        closed = asyncio.run(closed_loop(address, mixed, state["ids"]))
    record.add("closed", phase)
    with result.timed("hot closed loop", 60) as phase:
        hot = asyncio.run(closed_loop(address, mix(state, HOT_ONLY // scale, 0, False), state["ids"]))
    record.add("hot", phase)
    record.data.update(open=opened, open_phase=open_phase, closed=closed, hot=hot)
    for phase_name in ("open", "closed", "hot"):
        tally(record.data[phase_name], result)
    return record


def tally(outcome: dict, result: Result) -> None:
    """Count attempts and failures; check one answer per request id."""
    for (request_id, item, _, _, _), (_, answer) in zip(outcome["sent"], outcome["answers"]):
        result.attempted += 1
        result.check(outcome["answered"].get(request_id) == 1,
                     f"request {request_id} got {outcome['answered'].get(request_id)} answers")
        result.check(answer.get("id") == request_id, f"answer to {request_id} has another id")
        if item[0] == "source" and item[1] in MALFORMED_SOURCES:
            if answer.get("error") != "bad-request":
                result.failed += 1  # malformed source not answered bad-request
        else:
            result.check(
                answer.get("ok") is True and len(answer.get("results", ())) == 1,
                f"request {request_id} failed: {answer.get('error')} {answer.get('message')}",
            )


def latencies(rounds: list[Round]) -> tuple[list[tuple], list[float]]:
    """``(latency from the scheduled send, phase)`` of the valid open-loop
    requests, and the generator's lateness for every send."""
    latency, late = [], []
    for r in rounds:
        opened = r.data["open"]
        for (_, item, due, lateness, _), (received, _) in zip(opened["sent"], opened["answers"]):
            late.append(lateness)
            if not (item[0] == "source" and item[1] in MALFORMED_SOURCES):
                latency.append((received - due, r.data["open_phase"]))
    return latency, late


def verify(state: dict, last: Round, result: Result) -> None:
    from repro.core import load_model
    from repro.kernels import load_kernel

    reference = load_model(state["model"], warm_caches=False)
    valid = [
        (item, answer)
        for phase in ("open", "closed", "hot")
        for (_, item, _, _, _), (_, answer) in zip(last.data[phase]["sent"],
                                                   last.data[phase]["answers"])
        if item[0] == "kernel"
    ]
    rng = np.random.default_rng(len(valid))
    for index in rng.choice(len(valid), CHECK_SAMPLE, replace=False):
        (_, name, config), answer = valid[index]
        (direct,) = reference.predict_batch(load_kernel(name), [config])
        result.check(checks.metrics_close(answer["results"][0], direct, 1e-9),
                     f"served prediction for {name} differs from in-process predict_batch")
    malformed = [
        answer for phase in ("open",)
        for (_, item, _, _, _), (_, answer) in zip(last.data[phase]["sent"],
                                                   last.data[phase]["answers"])
        if item[0] == "source" and item[1] in MALFORMED_SOURCES
    ]
    result.notes.append(
        "malformed-source answers: "
        + "; ".join(f"{a.get('error')}: {a.get('message', '')[:60]}" for a in malformed)
    )


class DaemonTracer:
    """Stands in for the in-process tracer: installing it restarts the
    daemon under ``serve_daemon.py``; counters are the daemon's, diffed
    between the start and the end of the measured rounds."""

    def __init__(self, tracer, state: dict):
        self.tracer, self.state = tracer, state

    def install(self) -> None:
        self.state["daemon"].stop()
        start_daemon(self.state, True, "traced")

    def reset(self) -> None:
        self.tracer.reset()
        self.tracer.add(self.state["daemon"].trace_snapshot(), -1.0)
        self.state["stats_before"] = asyncio.run(stats(self.state["daemon"].address))

    def uninstall(self) -> None:
        self.tracer.add(self.state["daemon"].trace_snapshot())
        self.state["stats_after"] = asyncio.run(stats(self.state["daemon"].address))


def serve_extras(state: dict, late: list[float]) -> dict:
    before, after = state["stats_before"], state["stats_after"]

    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    batches = delta("batcher", "batches")
    return {
        "serve.batches": batches,
        "serve.configs_per_batch": delta("batcher", "configs") / batches if batches else 0.0,
        "serve.coalesced_batches": delta("batcher", "coalesced_batches"),
        "serve.duplicate_configs": delta("batcher", "duplicate_configs"),
        "serve.rejected_overload": delta("server", "rejected_overload"),
        "serve.generator_late_p99_ms": checks.percentile(late, 99.0) * 1e3,
    }


def run(seed, seconds, tracer, result: Result, prepare_phases: list, workdir, children) -> dict:
    """Measure ``serve-open``; returns the per-layer extras of a traced run."""
    state = None
    for _ in range(PREPARE_REPEATS):
        if state is not None:
            state["daemon"].stop()
        with result.timed("prepare", 120) as phase:
            state = prepare(seed, workdir, children, traced=False)
        prepare_phases.append(phase)
    run_round(state, Result(), scale=4)  # untimed warm-up
    daemon_tracer = DaemonTracer(tracer, state) if tracer is not None else None
    rounds, overhead = measure(seconds, lambda: run_round(state, result), daemon_tracer)
    state["daemon"].stop()
    result.rate("rate_per_s", per_round(rounds, "closed", lambda r: len(r.data["closed"]["sent"])),
                f"closed loop, {CONNECTIONS}x{OUTSTANDING} outstanding, configs/s")
    result.rate("rate2_per_s", per_round(rounds, "hot", lambda r: len(r.data["hot"]["sent"])),
                "closed loop on the memo-primed hot set, configs/s")
    latency, late = latencies(rounds)
    result.latency(latency, 90.0, f"open loop at {RATE_PER_S:g} req/s, from scheduled send")
    result.notes.append(
        f"generator lateness p99 {checks.percentile(late, 99.0) * 1e3:.3f} ms over "
        f"{len(late)} sends; failed = malformed-source requests not answered bad-request"
    )
    verify(state, rounds[-1], result)
    if tracer is None:
        return {}
    return dict(serve_extras(state, late), **{"trace.overhead_ratio": overhead})
