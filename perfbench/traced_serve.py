"""Start the serve CLI with the benchmark's spans installed.

    python -m perfbench.traced_serve SPANS.json [repro serve flags...]

Wraps the layer entry points (:data:`perfbench.tracing.TARGETS`), then
runs exactly what ``python -m repro serve [flags...]`` runs.  On exit
(SIGINT) the spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

from repro.__main__ import main

from .tracing import Recorder


def run(argv: list[str]) -> int:
    spans_path, flags = argv[0], argv[1:]
    recorder = Recorder().install()
    try:
        return main(["serve", *flags])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
