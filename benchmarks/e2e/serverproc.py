"""Parent side of the server child: spawn, address hand-back, usage, stop."""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

from benchmarks.e2e import ROOT

#: Seconds any single read from the child's pipe may take.
PIPE_TIMEOUT_S = 60.0


class ServerChildError(RuntimeError):
    """The child exited, stalled, or said something unparseable."""


class ServerChild:
    """One ``benchmarks.e2e.server_child`` process and its control pipe."""

    def __init__(self, db_path: str, log_path: str):
        self._log = open(log_path, "wb")
        self._buffer = b""
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.server_child", db_path],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            bufsize=0,
        )
        try:
            ready = self._read_message()
            self.tcp: tuple[str, int] = (ready["tcp"][0], ready["tcp"][1])
            self.http: tuple[str, int] = (ready["http"][0], ready["http"][1])
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self._proc.pid

    def _read_message(self) -> dict:
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + PIPE_TIMEOUT_S
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise ServerChildError(
                    f"server child silent for {PIPE_TIMEOUT_S:.0f} s"
                )
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ServerChildError(
                    f"server child exited early (status {self._proc.poll()})"
                )
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        try:
            return json.loads(line)
        except ValueError as exc:
            raise ServerChildError(f"bad line from server child: {line!r}") from exc

    def usage(self) -> dict:
        """The child's CPU seconds and peak RSS so far."""
        self._proc.stdin.write(b"usage\n")
        return self._read_message()

    def stop(self) -> dict:
        """Stop the servers, wait for the process, return its final usage."""
        try:
            self._proc.stdin.write(b"stop\n")
            self._proc.stdin.close()
            final = self._read_message()
            self._proc.wait(timeout=PIPE_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self._close_pipes()
        if self._proc.returncode != 0:
            raise ServerChildError(
                f"server child exited with status {self._proc.returncode}"
            )
        return final

    def kill(self) -> None:
        """Make sure the process is gone (failure path; idempotent)."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self._proc.stdin, self._proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()
        if not self._log.closed:
            self._log.close()
