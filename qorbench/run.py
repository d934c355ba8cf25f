#!/usr/bin/env python3
"""The repro-qor benchmark.

Run from the repository root::

    python3 qorbench/run.py --workload dse-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Without ``--workload`` every workload runs, each in a fresh process.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give every
scaled figure with its raw value and host factor.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"

WORKLOADS = ("dse-cold", "dse-fleet", "serve-open", "train")
#: end-to-end metrics every workload reports (README.md gives each one's
#: meaning per workload)
END_TO_END = ("setup_s", "peak_rss_mb", "rate_per_s", "rate2_per_s", "lat_p50_ms", "lat_tail_ms")

#: set before numpy loads, in this process and every process it starts
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Re-execute with BLAS pinned to one thread and a fixed hash seed (the
    hash seed only takes effect at interpreter start)."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; exits non-zero if any fails."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        status |= subprocess.run(argv, cwd=ROOT).returncode
    return status


def run_one(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE), str(ROOT), os.environ.get("PYTHONPATH")])
    )
    import importlib

    from qorbench.common import Children, Result, peak_rss_mb, run_directory
    from qorbench.tracing import Tracer, import_program, layer_metrics

    import_program()
    import_s = time.perf_counter() - _STARTED
    module = importlib.import_module("qorbench." + args.workload.replace("-", "_"))
    tracer = Tracer() if args.trace else None
    result = Result()
    prepares: list = []
    children = Children()
    # a SIGTERM unwinds like an error, so every child is still reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with run_directory() as workdir:
        try:
            extra = module.run(
                seed=args.seed, seconds=args.seconds, tracer=tracer, result=result,
                prepare_phases=prepares, workdir=workdir, children=children,
            )
        finally:
            children.reap_all()
    if tracer is not None:
        metrics = layer_metrics(tracer, extra)
    else:
        result.setup(import_s, prepares)
        result.metric("peak_rss_mb", peak_rss_mb(), "MiB", "largest resident set of any process")
        metrics = {name: result.metrics[name] for name in END_TO_END}
    for line in result.notes:
        print(line)
    for message in result.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if result.errors else 0



def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"error: no program source at {SOURCE / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
