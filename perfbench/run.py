"""The repo benchmark: ``repro daemon`` under three seeded workloads.

    python3 perfbench/run.py --workload l0-turnstile --seed 1 \\
        --seconds 8 --trace 0

Run from the root of a source checkout.  Each run starts the real daemon
(``python -m repro daemon``, serial backend, 2 shards) as its own
process and drives it from this process over at most two connections:

* ``--trace 0`` sets the daemon up five times (the median is
  ``setup_s``), measures the last one for ``--seconds`` and prints the
  end-to-end metrics;
* ``--trace 1`` measures one untraced daemon and then one started
  through ``traced_daemon.py``, which times the public functions at each
  layer boundary, for half of ``--seconds`` each, and prints the
  per-layer metrics, including ``tracing.overhead_ratio`` (traced over
  untraced ingest p50).

Every window ends with the correctness gates (see ``loads.py``).  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the run's
environment and the counts behind each ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5



def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["l0-turnstile", "duplicates-l1",
                                 "dashboard-mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": commit,
            "source_sha256": digest.hexdigest()[:16]}


class Bench:
    """One benchmark invocation: its daemons, phases and results.  The
    benchmark's modules import ``repro``, so they are imported only once
    :func:`main` has put ``src/`` on the path."""

    def __init__(self, args):
        import workloads

        self.args = args
        self.spec = workloads.SPECS[args.workload]
        self.scratch = ROOT / ".perfbench"
        self.scratch.mkdir(exist_ok=True)
        self.live: list = []        # daemons to kill if a run breaks
        if self.spec.one_cpu and hasattr(os, "sched_setaffinity"):
            # The daemons inherit this: a request then wakes the daemon
            # on the CPU it was sent from, with no cross-CPU wakeup.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def setup(self, spans_path=None):
        """Spawn a daemon and do the workload's warm load; returns
        ``(daemon, load, seconds from spawn to ready)``."""
        import loads
        from daemon import Daemon

        began = time.perf_counter()
        daemon = Daemon(ROOT, self.spec, spans_path)
        self.live.append(daemon)
        load = loads.LOADS[self.spec.name](self.spec, self.args.seed, daemon)
        load.setup()
        return daemon, load, time.perf_counter() - began

    def finish(self, daemon, load) -> None:
        load.close()
        self.live.remove(daemon)
        daemon.stop()

    def phase(self, daemon, load, seconds: float):
        try:
            phase = load.measure(seconds)
            load.verify()
        finally:
            self.finish(daemon, load)
        return phase

    def untraced(self):
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            daemon, load, seconds = self.setup()
            setups.append(seconds)
            self.finish(daemon, load)
        daemon, load, seconds = self.setup()
        setups.append(seconds)
        return (self.phase(daemon, load, self.args.seconds),
                statistics.median(setups))

    def traced(self):
        import layers
        import tracing

        # Half the run untraced, half traced, on identical inputs.
        seconds = self.args.seconds / 2
        plain = self.phase(*self.setup()[:2], seconds)
        recorder = tracing.Recorder()
        tracing.install(recorder, tracing.CLIENT_SPANS)
        spans_path = self.scratch / f"spans-{os.getpid()}.json"
        try:
            traced = self.phase(*self.setup(spans_path)[:2], seconds)
        finally:
            recorder.unpatch()
        try:
            with open(spans_path) as handle:
                dump = json.load(handle)
        finally:
            spans_path.unlink(missing_ok=True)
        values = layers.per_layer(dump, recorder.spans, traced)
        applies = [(r[tracing.END] - r[tracing.START]) / 1e6
                   for r in recorder.spans
                   if r[tracing.NAME] == "net.replication.apply"
                   and traced.window_ns[0] <= r[tracing.START]
                   <= traced.window_ns[1]]
        values["net.replication.apply_ms_p50"] = layers.p50(applies)
        values["net.replication.lag_ms_p50"] = 1e3 * layers.p50(
            traced.lag_s)
        values["net.replication.resyncs"] = traced.resyncs
        values["loadgen.late_p95_ms"] = 1e3 * layers.p95(plain.late_s)
        values["loadgen.ingest_p95_ms"] = 1e3 * layers.p95(plain.ingest_s)
        values["loadgen.query_p95_ms"] = 1e3 * layers.p95(plain.query_s)
        values["tracing.overhead_ratio"] = (layers.p50(traced.ingest_s)
                                            / layers.p50(plain.ingest_s))
        return [plain, traced], values

    def close(self) -> None:
        for daemon in self.live:
            daemon.kill()


def _end_to_end(phase, setup_s: float) -> dict:
    import layers

    return {
        "updates_per_s": phase.updates / phase.elapsed_s,
        "ingest_p50_ms": 1e3 * layers.p50(phase.ingest_s),
        "query_p50_ms": 1e3 * layers.p50(phase.query_s),
        "setup_s": setup_s,
        "daemon_rss_peak_mb": phase.rss_mb,
    }


def _counts(phases) -> dict:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    answers = sum(p.sampler_answers for p in phases)
    failures = sum(p.sampler_failures for p in phases)
    return {
        "requests.attempted": attempted,
        "requests.failed": failed,
        "requests.error_ratio": failed / attempted if attempted else 0.0,
        "sampler.answers": answers,
        "sampler.failures": failures,
        "sampler.fail_ratio": failures / answers if answers else 0.0,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an error, so the daemons are still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    # The metric names and units are the ones BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = Bench(args)
    try:
        if args.trace:
            phases, values = bench.traced()
            values.update(_counts(phases))
        else:
            phase, setup_s = bench.untraced()
            phases = [phase]
            values = _end_to_end(phase, setup_s)
    finally:
        bench.close()
    listed = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    violations = [v for p in phases for v in p.violations]
    for violation in violations[:20]:
        print(f"perfbench: gate failed: {violation}", file=sys.stderr)
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(), "counts": _counts(phases),
        "violations": len(violations)}}))
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
