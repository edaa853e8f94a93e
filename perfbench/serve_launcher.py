"""Start ``repro-holiday serve`` in this process, optionally traced.

Usage: ``python3 -u serve_launcher.py [--spans PATH] -- <serve arguments>``.

With ``--spans`` the span wrappers of :mod:`spans` are installed before the
server starts, and the spans are written to ``PATH`` when it stops, so the
per-layer split of the server process is visible.  SIGTERM (and SIGINT,
which a shell may have told background children to ignore) stops the
server the way Ctrl-C does.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

from common import use_checkout_sources


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    use_checkout_sources()
    from repro.cli import main as cli_main

    tracer = None
    if spans_path is not None:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _interrupt)
    try:
        return cli_main(["serve"] + argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
