"""The ``repro daemon`` under test, in its own process."""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

_SERVING = re.compile(r" on (\S+):(\d+) \(")

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class DaemonError(RuntimeError):
    pass


class Daemon:
    """``repro daemon`` in its own process, listening on an ephemeral
    port of 127.0.0.1.  With ``spans_path`` it runs under the tracing
    launcher, which writes its spans there on shutdown."""

    def __init__(self, root: Path, spec, spans_path: Path | None = None):
        argv = ["daemon", "--listen", "127.0.0.1:0",
                "--structure", spec.structure,
                "--universe", str(spec.universe),
                "--shards", "2", "--backend", "serial", *spec.flags]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable,
                       str(root / "perfbench" / "traced_daemon.py"),
                       str(spans_path), *argv]
        pythonpath = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            line = self._lines.get(timeout=START_TIMEOUT_S)
        except queue.Empty:
            line = None
        match = _SERVING.search(line or "")
        if match is None:
            self.kill()
            raise DaemonError(f"daemon did not start (first line: {line!r})")
        self.host, self.port = match.group(1), int(match.group(2))

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        """The daemon's VmHWM (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM: the daemon drains, checkpoints and exits 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            status = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise DaemonError("daemon did not drain on SIGTERM") from None
        self._reader.join(timeout=STOP_TIMEOUT_S)
        if status != 0:
            raise DaemonError(f"daemon exited with status {status}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=STOP_TIMEOUT_S)
