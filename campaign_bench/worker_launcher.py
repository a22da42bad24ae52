"""Start a ``wavm3`` CLI process, optionally with the span wrappers installed.

Usage::

    python3 campaign_bench/worker_launcher.py [--trace-out FILE] -- <wavm3 args>

Runs ``repro.cli.main(<wavm3 args>)`` from the checkout's ``src``; with
``--trace-out`` the benchmark's span recorder wraps the layers first and
writes its spans to FILE when the command returns.  The ``table7-2w``
workload starts its two ``campaign-worker`` processes through this file.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Modules a campaign worker imports on its first task, loaded before the
#: wrappers go in so that every alias of a wrapped function is rebound.
WORKER_MODULES = (
    "repro.cli",
    "repro.experiments.queue_backend",
    "repro.experiments.executor",
    "repro.experiments.runner",
    "repro.experiments.seedbank",
    "repro.experiments.testbed",
)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: worker_launcher.py [--trace-out FILE] -- <wavm3 args>", file=sys.stderr)
        return 2
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    trace_out = None
    if own[:1] == ["--trace-out"] and len(own) == 2:
        trace_out = own[1]
    elif own:
        print(f"unexpected arguments {own!r}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import importlib

    for name in WORKER_MODULES:
        importlib.import_module(name)
    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(cli_args)
    import tracing

    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
