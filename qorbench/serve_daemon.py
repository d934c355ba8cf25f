"""Start ``repro-qor serve`` with the per-layer tracer installed.

Usage (from the checkout root, with ``src`` and the root on ``PYTHONPATH``)::

    python3 qorbench/serve_daemon.py DUMP_PATH serve --model MODEL --port 0

Everything after ``DUMP_PATH`` goes to the program's own CLI unchanged.  On
SIGUSR1, and once more when the daemon has drained, the tracer's counters
are written to ``DUMP_PATH`` as JSON with an increasing ``sequence``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    dump_path = Path(argv[0])
    from repro import cli

    from qorbench.tracing import Tracer, import_program

    import_program()
    tracer = Tracer()
    tracer.install()
    sequence = 0

    def dump(*_) -> None:
        nonlocal sequence
        sequence += 1
        temporary = dump_path.with_suffix(".tmp")
        temporary.write_text(json.dumps(dict(tracer.snapshot(), sequence=sequence)))
        os.replace(temporary, dump_path)

    signal.signal(signal.SIGUSR1, dump)
    status = cli.main(argv[1:])
    dump()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
