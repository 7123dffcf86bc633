"""The system under test: a real ``cq-trees serve`` process, and the wire to it.

The server runs in its own session (process group), so tearing it down is one
``killpg`` that also reaches the shard workers it forked; teardown runs on
every exit path of the ``with`` block (exception, Ctrl-C, SIGTERM).
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_STARTUP_TIMEOUT = 60.0
_TERM_TIMEOUT = 5.0


class ServerProcess:
    """``python -m repro serve --port 0 ...`` as a context manager."""

    def __init__(self, serve_args: tuple[str, ...] = (), log_path: Optional[Path] = None):
        self.serve_args = tuple(serve_args)
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self._log = None

    def __enter__(self) -> "ServerProcess":
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(SRC) + os.pathsep + environment.get("PYTHONPATH", "")
        # String hashes order the server's sets, and with them its join orders
        # and tie-breaks: a per-process random seed is an input the benchmark's
        # seed does not control (it doubled the run-to-run spread of
        # ``answers_10k`` and ``accel_10k``), so it is pinned.
        environment["PYTHONHASHSEED"] = "0"
        self._log = open(self.log_path, "ab") if self.log_path else subprocess.DEVNULL
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", self.host, "--port", "0"]
            + list(self.serve_args),
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=environment,
            start_new_session=True,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _read_port(self) -> int:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], _STARTUP_TIMEOUT)
        banner = stdout.readline().decode("utf-8", "replace") if ready else ""
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if not match:
            raise RuntimeError(f"server announced no port in {_STARTUP_TIMEOUT:.0f} s: {banner!r}")
        return int(match.group(1))

    def __exit__(self, *_exc_info) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        try:
            _signal_group(process.pid, signal.SIGTERM)
            try:
                process.wait(timeout=_TERM_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
            # Workers normally exit with the parent; SIGKILL whatever is left
            # of the group (a stuck server, an orphaned shard worker).
            deadline = time.monotonic() + _TERM_TIMEOUT
            while _group_alive(process.pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            _signal_group(process.pid, signal.SIGKILL)
            process.wait()
        finally:
            process.stdout.close()
            if self._log not in (None, subprocess.DEVNULL):
                self._log.close()

    # -- what the process tree used ---------------------------------------------

    def pids(self) -> list[int]:
        """The server and every descendant (shard workers)."""
        return process_tree(self.process.pid)

    def peak_rss_mib(self) -> float:
        """Sum of ``VmHWM`` over the process tree, in MiB."""
        total_kib = 0
        for pid in self.pids():
            for line in _read(f"/proc/{pid}/status").splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def cpu_seconds(self) -> float:
        """``utime + stime`` summed over the process tree."""
        ticks = 0
        for pid in self.pids():
            stat = _read(f"/proc/{pid}/stat")
            if stat:
                fields = stat.rsplit(")", 1)[1].split()
                ticks += int(fields[11]) + int(fields[12])
        return ticks / _CLOCK_TICKS


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:  # the process exited between listing and reading
        return ""


def process_tree(root: int) -> list[int]:
    """``root`` and its live descendants, from ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _read(f"/proc/{entry}/stat")
            if stat:
                parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        if pid in parents:
            tree.append(pid)
            frontier.extend(child for child, parent in parents.items() if parent == pid)
    return tree


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class Connection:
    """One persistent HTTP/1.1 connection with ``TCP_NODELAY``.

    Requests are pre-encoded byte strings; the response parser reads the
    status line and ``Content-Length`` and nothing else, so the client's own
    cost per exchange stays small beside the server's.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self._address = (host, port)
        self._timeout = timeout
        self._open()

    def _open(self) -> None:
        self.sock = socket.create_connection(self._address, timeout=self._timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")

    def exchange(self, wire: bytes) -> tuple[int, bytes]:
        """Send one request, return ``(status, body)``; raises ``OSError``."""
        self.sock.sendall(wire)
        status_line = self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        return status, self._reader.read(length)

    def reconnect(self) -> None:
        self.close()
        self._open()

    def close(self) -> None:
        self._reader.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


def post_wire(path: str, body: bytes) -> bytes:
    """The bytes of one HTTP/1.1 POST with a JSON body."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


def post_json(connection: Connection, path: str, payload: dict) -> dict:
    """One JSON POST outside the timed path (document registration)."""
    status, raw = connection.exchange(post_wire(path, json.dumps(payload).encode("utf-8")))
    if status != 200:
        raise RuntimeError(f"POST {path} answered {status}: {raw[:200]!r}")
    return json.loads(raw)
