"""Run ``repro-mule serve`` for the benchmark, optionally with span wrappers.

Usage::

    python3 perfbench/serve_worker.py [--trace-out FILE] -- SERVE-ARGS...

Without ``--trace-out`` this is ``repro-mule serve SERVE-ARGS``.  With it,
the wrappers of ``spans.py`` are installed first; ``SIGUSR1`` turns span
recording on and ``SIGUSR2`` off, and the recorded spans are written to
FILE as JSON when the server exits.  ``SIGTERM`` and ``SIGINT`` both shut
the server down cleanly, whatever signal disposition the parent left.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out = Path(argv[1])
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.cli.main import main as cli_main

    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    if trace_out is None:
        return cli_main(["serve", *argv])

    import spans

    spans.install()
    signal.signal(signal.SIGUSR1, lambda *_: setattr(spans.RECORDER, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(spans.RECORDER, "enabled", False))
    try:
        return cli_main(["serve", *argv])
    finally:
        spans.RECORDER.enabled = False
        trace_out.write_text(json.dumps(list(spans.RECORDER.records)), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
