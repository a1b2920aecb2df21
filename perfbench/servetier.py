"""The `repro serve --port 0` tier as the benchmark drives it.

Every wait is bounded: the server must print its ``listening on`` line
within :data:`START_TIMEOUT`, every socket call has :data:`SOCKET_TIMEOUT`,
and teardown sends ``!drain``, waits, then kills the front end and its
workers.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.serve.client import ServeClient

START_TIMEOUT = 60.0
SOCKET_TIMEOUT = 30.0
DRAIN_TIMEOUT = 15.0
CLIENT_TIMEOUT = 150.0
CLIENT = Path(__file__).with_name("client.py")


class ServeTierError(RuntimeError):
    """The server did not start, answer or stop as the protocol says."""


def _peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of a live process, 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(token) for token in handle.read().split()]
    except OSError:
        return []


class ServerProcess:
    """``python -m repro serve ARTIFACT --port 0 --workers N``, with its
    port parsed from the ``listening on`` line."""

    def __init__(self, artifact: str, *, src_dir: str, workers: int = 2) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._env = env
        started = time.perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", artifact,
             "--port", "0", "--workers", str(workers)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
        )
        self.stderr_lines: list[str] = []
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._listening.wait(START_TIMEOUT):
            self.kill()
            raise ServeTierError(
                f"server did not report 'listening on' within {START_TIMEOUT:g}s: "
                + " | ".join(self.stderr_lines[-5:])
            )
        self.start_seconds = time.perf_counter() - started
        self.host, self.port = self._address
        self._control = ServeClient(self.host, self.port, timeout=SOCKET_TIMEOUT)

    def _read_stderr(self) -> None:
        for raw in self._process.stderr:
            line = raw.decode("utf-8", errors="replace").rstrip()
            self.stderr_lines.append(line)
            if line.startswith("listening on ") and not self._listening.is_set():
                address = line[len("listening on "):].split()[0]
                host, _, port = address.rpartition(":")
                self._address = (host, int(port))
                self._listening.set()

    def drive(self, lines: list[str], connections: int) -> tuple[float, list[float], list[str]]:
        """Closed-loop traffic from a fresh ``client.py`` process:
        ``(elapsed seconds, latency per line, answer per line)``."""
        completed = subprocess.run(
            [sys.executable, str(CLIENT), self.host, str(self.port), str(connections)],
            input="\n".join(lines) + "\n", capture_output=True, text=True, timeout=CLIENT_TIMEOUT,
            env=self._env,
        )
        output = completed.stdout.splitlines()
        if completed.returncode != 0 or len(output) != len(lines) + 1:
            raise ServeTierError(
                f"client exited {completed.returncode} with {len(output)} lines: "
                + completed.stderr.strip()[-300:]
            )
        latencies, answers = [], []
        for line in output[1:]:
            latency, _, answer = line.partition(" ")
            latencies.append(float(latency))
            answers.append(answer)
        return float(output[0].split()[1]), latencies, answers

    def control(self, command: str) -> str:
        return self._control.request(command)

    def control_json(self, command: str) -> dict:
        answer = self.control(command)
        try:
            return json.loads(answer)
        except json.JSONDecodeError as error:
            raise ServeTierError(f"{command} answered {answer[:200]!r}") from error

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the front end plus its workers."""
        pid = self._process.pid
        total = _peak_rss_kib(pid) + sum(_peak_rss_kib(child) for child in _child_pids(pid))
        return total / 1024.0

    def stop(self) -> int | None:
        """``!drain``, wait, then kill the process group; returns the exit code
        of a clean drain or ``None`` when the server had to be killed."""
        code = None
        try:
            self.control("!drain")
            self._control.close()
            code = self._process.wait(DRAIN_TIMEOUT)
        except (OSError, ServeTierError, subprocess.TimeoutExpired):
            code = None
        finally:
            self.kill()
        return code

    def kill(self) -> None:
        """SIGKILL the front end and its workers.  They stay in the caller's
        process group, so killing that group also reaches them."""
        pid = self._process.pid
        for target in [*_child_pids(pid), pid]:
            try:
                os.kill(target, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._process.wait(DRAIN_TIMEOUT)
        self._reader.join(DRAIN_TIMEOUT)
        if self._process.stderr is not None:
            self._process.stderr.close()
