"""Shared machinery of the workloads: host-speed calibration, timed phases,
deadlines, child-process hygiene and the result record.

Imported only after ``run.py`` has pinned BLAS to one thread and fixed the
hash seed, so nothing here may be imported by code that runs earlier.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qorbench.checks import percentile

#: root of the checkout the benchmark runs in (holds ``src/`` and ``qorbench/``)
ROOT = Path(__file__).resolve().parents[1]
#: per-run scratch files live under here, inside the checkout
SCRATCH_ROOT = ROOT / ".qorbench_tmp"

# --------------------------------------------------------------------------- #
# host-speed calibration
# --------------------------------------------------------------------------- #
#: seconds of the fastest calibration pass on the reference host (2-core
#: x86-64 container, Python 3.11, numpy 2.4); a factor of 1.0 means "as fast
#: as the reference host", 1.2 means 20% slower
CALIBRATION_REFERENCE_S = 0.0075
CALIBRATION_REPEATS = 5


def _calibration_pass() -> float:
    """A fixed amount of pure-Python and elementwise-numpy work.

    Touches nothing the program can configure: no BLAS, no threads, no
    caches of the program, so the time it takes tracks only how fast this
    host runs right now.
    """
    acc = 0
    for i in range(40000):
        acc = (acc * 31 + i) % 1000003
    x = np.linspace(0.0, 1.0, 20000)
    for _ in range(40):
        x = np.sqrt(x * x + 0.5) - 0.25
    return acc + float(x[0])


def host_factor() -> float:
    """How slow the host's CPU runs now, relative to the reference.

    The fastest of five passes: a pass the hypervisor interrupted measures
    stolen time, which :func:`cpu_ticks` accounts for over the whole phase.
    """
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _calibration_pass()
        times.append(time.perf_counter() - start)
    return min(times) / CALIBRATION_REFERENCE_S


def cpu_ticks() -> tuple[int, int]:
    """``(wanted, stolen)`` CPU ticks of the machine so far (``/proc/stat``).

    ``wanted`` counts the ticks the CPUs ran or wanted to run (user, nice,
    system, irq, softirq, steal); ``stolen`` those the hypervisor gave to
    other guests instead, when nothing here could run.
    """
    with open("/proc/stat") as stat:
        user, nice, system, _, _, irq, softirq, steal = (
            int(value) for value in stat.readline().split()[1:9]
        )
    return user + nice + system + irq + softirq + steal, steal


@dataclass
class Phase:
    """One timed phase: its raw wall time and the host factor around it."""

    name: str
    seconds: float = 0.0
    factor: float = 1.0

    @property
    def scaled(self) -> float:
        """Wall time as the reference host would have taken it."""
        return self.seconds / self.factor


# --------------------------------------------------------------------------- #
# deadlines and child processes
# --------------------------------------------------------------------------- #
class PhaseTimeout(RuntimeError):
    """A phase ran past its deadline; the run fails with this message."""


@contextlib.contextmanager
def deadline(name: str, seconds: float):
    """Raise :class:`PhaseTimeout` in the main thread after ``seconds``."""

    def expire(signum, frame):
        raise PhaseTimeout(f"phase {name!r} exceeded its {seconds:.0f}s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Children:
    """Every subprocess the run starts; :meth:`reap_all` ends them all."""

    def __init__(self):
        self._procs: list[subprocess.Popen] = []

    def start(self, argv: list[str], *, stdout: Path, stderr: Path) -> subprocess.Popen:
        """Start ``argv`` with output going to files, never to a pipe."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT
            )
        self._procs.append(proc)
        return proc

    @staticmethod
    def stop(proc: subprocess.Popen, timeout: float = 20.0) -> int:
        """SIGTERM, wait, then SIGKILL; returns the exit code."""
        if proc.poll() is None:
            proc.terminate()
            try:
                return proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
        return proc.wait()

    def reap_all(self) -> None:
        for proc in self._procs:
            self.stop(proc, timeout=10.0)
        self._procs.clear()


@contextlib.contextmanager
def run_directory():
    """A fresh scratch directory inside the checkout, removed afterwards.

    It is also the temporary directory of this process and its children, so
    the run writes nothing outside the checkout.
    """
    SCRATCH_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=SCRATCH_ROOT))
    os.environ["TMPDIR"] = tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_ROOT.rmdir()  # only when no other run still uses it


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# --------------------------------------------------------------------------- #
# the result of one workload run
# --------------------------------------------------------------------------- #
@dataclass
class Result:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: failed correctness checks (empty = correct)
    errors: list[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: human-readable lines printed above the JSON result
    notes: list[str] = field(default_factory=list)

    @contextlib.contextmanager
    def timed(self, name: str, deadline_s: float):
        """Time a phase: collect garbage, calibrate, run it under a
        deadline while counting stolen CPU ticks, calibrate again.  Yields
        the :class:`Phase`; its factor is the mean of the two calibrations
        divided by the share of wanted CPU time that was not stolen."""
        phase = Phase(name)
        gc.collect()
        before = host_factor()
        with deadline(name, deadline_s):
            ticks = cpu_ticks()
            start = time.perf_counter()
            yield phase
            phase.seconds = time.perf_counter() - start
            wanted, stolen = (b - a for a, b in zip(ticks, cpu_ticks()))
        available = 1.0 - min(stolen / wanted, 0.9) if wanted else 1.0
        phase.factor = (before + host_factor()) / 2.0 / available

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes.append(f"{name}: {note}")

    def rate(self, name: str, rounds: list[tuple[float, list[Phase]]], what: str) -> None:
        """Report the median over rounds of ``work`` per scaled second, given
        each round's ``(work, phases)``; the raw median stands beside it."""
        scaled = sorted(work / sum(p.scaled for p in phases) for work, phases in rounds)
        raw = sorted(work / sum(p.seconds for p in phases) for work, phases in rounds)
        middle = len(rounds) // 2
        self.metric(
            name, scaled[middle], "1/s",
            f"{what}: median of {len(rounds)} rounds, raw {raw[middle]:.2f}/s, "
            f"host factor {scaled[middle] / raw[middle]:.3f}",
        )

    def latency(self, samples: list[tuple[float, Phase]], tail: float, what: str) -> None:
        """Median and ``tail`` percentile of ``(seconds, phase)`` samples,
        each scaled by the factor of the phase it was taken in."""
        raw = [seconds for seconds, _ in samples]
        scaled = [seconds / phase.factor for seconds, phase in samples]
        factor = sum(raw) / sum(scaled)
        for name, q in (("lat_p50_ms", 50.0), ("lat_tail_ms", tail)):
            self.metric(
                name, percentile(scaled, q) * 1e3, "ms",
                f"{what}: p{q:g} of {len(samples)} samples, raw "
                f"{percentile(raw, q) * 1e3:.3f} ms, host factor {factor:.3f}",
            )

    def setup(self, import_s: float, prepares: list[Phase]) -> None:
        """``setup_s``: imports plus the median of the repeated preparations
        (imports are scaled by the first preparation's factor)."""
        median = sorted(prepares, key=lambda p: p.scaled)[len(prepares) // 2]
        raw = import_s + median.seconds
        self.metric(
            "setup_s", import_s / prepares[0].factor + median.scaled, "s",
            f"imports {import_s:.3f} s + median of {len(prepares)} preparations "
            f"{median.seconds:.3f} s = {raw:.3f} s raw, host factor {median.factor:.3f}",
        )
