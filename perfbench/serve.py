"""``repro-sim serve`` with layer spans recorded in the server process.

    python3 perfbench/serve.py --layers-out L.json --spans-out S.json -- serve ...

Wraps the layers' entry points (see ``layers.py``) and then runs the
unchanged CLI.  On graceful shutdown (SIGTERM) it writes the per-layer
aggregates to ``--layers-out`` and the kept spans, as a Chrome trace, to
``--spans-out``.  ``--slow MODULE.QUALNAME`` makes that entry point twice
as slow, and ``--slow MODULE.QUALNAME=N`` N times as slow, for the
layer-sensitivity check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LayerRecorder, install_slowdown  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers-out", default=None)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--slow", action="append", default=[])
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    for spec in args.slow:
        dotted, _, factor = spec.partition("=")
        install_slowdown(dotted, float(factor or 2.0))
    recorder = LayerRecorder().install() if args.layers_out else None
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    if recorder is not None:
        recorder.uninstall()
        Path(args.layers_out).write_text(
            json.dumps(recorder.summary()), encoding="utf-8"
        )
        if args.spans_out:
            recorder.write_chrome_trace(
                Path(args.spans_out), pid=os.getpid(), name="repro-sim serve"
            )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
