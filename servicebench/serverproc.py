"""The server under test, in its own process: start, wait, scrape, stop."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
READY = re.compile(r"on http://([0-9.]+):(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerProcess:
    """``repro serve`` (or the traced launcher) on an ephemeral port."""

    def __init__(self, src: Path, run_dir: Path, tag: str, serve_args: list[str],
                 disk_cache: bool, traced: bool) -> None:
        self.log_path = run_dir / f"{tag}.log"
        self.spans_path = run_dir / f"{tag}.spans.jsonl" if traced else None
        args = ["--port", "0", *serve_args]
        if disk_cache:
            args += ["--disk-cache", str(run_dir / f"{tag}.disk")]
        if traced:
            command = [str(BENCH_DIR / "traced_server.py"), "--spans-out", str(self.spans_path)]
        else:
            command = ["-m", "repro", "serve"]
        self.command = [sys.executable, "-u", *command, *args]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
        self.proc: subprocess.Popen | None = None
        self.host, self.port = "", 0

    def start(self) -> "ServerProcess":
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.command, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=self.env,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = READY.search(self.log_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start:\n{self.log_path.read_text(errors='replace')}")

    def metrics(self) -> dict:
        url = f"http://{self.host}:{self.port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.loads(response.read())

    def peak_rss_mb(self) -> float:
        """The server process's ``VmHWM`` (peak resident set)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
        return kib / 1024.0

    def stop(self) -> None:
        """SIGINT (a clean shutdown that flushes spans), then wait; kill if
        it does not exit in time."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
