"""Run ``repro daemon`` with span wrappers around its layer boundaries.

    python perfbench/traced_daemon.py SPANS.json daemon --listen ... [flags]

Everything after the spans path is handed unchanged to the same
``repro.cli.main`` that ``python -m repro`` runs.  The wrappers are
installed first; the spans are written to SPANS.json once SIGTERM has
drained the daemon and ``main`` has returned.  No file of the program
is changed: the launcher only swaps attributes in the running process.
"""

import sys

import tracing


def main(argv: list[str]) -> int:
    spans_path, daemon_argv = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install(recorder, tracing.DAEMON_SPANS)
    tracing.install_cache_counters(recorder)
    from repro.cli import main as repro_main
    status = repro_main(daemon_argv)
    recorder.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
