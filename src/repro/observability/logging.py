"""Structured logging for the serving stack.

Runtime output in ``src/`` goes through here instead of bare ``print`` (the
ruff ``T201`` gate enforces that); the CLI keeps printing because stdout *is*
its interface.  Lines are ``key=value`` structured text on stderr::

    2026-08-08T12:00:00Z level=info logger=repro.service.server request method=POST path=/query status=200

Level comes from ``REPRO_LOG_LEVEL`` (default ``info``); the handler writes to
stderr so servers started by the smoke harness keep stdout clean for banners.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import TextIO

__all__ = ["StructuredLogger", "get_logger"]

_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _configured_level() -> int:
    return _LEVELS.get(os.environ.get("REPRO_LOG_LEVEL", "info").strip().lower(), 20)


def _format_value(value: object) -> str:
    text = str(value)
    if text == "" or any(ch in text for ch in ' "='):
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return text


class StructuredLogger:
    """A tiny key=value logger; one line per event, thread-safe."""

    _lock = threading.Lock()

    def __init__(self, name: str, stream: "TextIO | None" = None):
        self.name = name
        self._stream = stream

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if _LEVELS[level] < _configured_level():
            return
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        parts = [stamp, f"level={level}", f"logger={self.name}", event]
        parts.extend(f"{key}={_format_value(value)}" for key, value in fields.items())
        line = " ".join(parts)
        stream = self._stream if self._stream is not None else sys.stderr
        with self._lock:
            stream.write(line + "\n")
            stream.flush()

    def debug(self, event: str, **fields: object) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._emit("error", event, fields)


_loggers: dict[str, StructuredLogger] = {}
_loggers_lock = threading.Lock()


def get_logger(name: str) -> StructuredLogger:
    with _loggers_lock:
        logger = _loggers.get(name)
        if logger is None:
            logger = StructuredLogger(name)
            _loggers[name] = logger
        return logger
