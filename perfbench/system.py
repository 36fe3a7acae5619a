"""Processes and machine readings: the harness handle, /proc, noise."""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class HarnessError(RuntimeError):
    """The server-side harness failed, died or stopped answering."""


class Harness:
    """One server-side harness process and everything it forks.

    The harness runs in its own session, so its forked shard workers
    share its process group: :meth:`stop` ends the whole group and
    :meth:`survivors` finds any member still alive.
    """

    def __init__(
        self,
        workload: str,
        seed: int,
        run_dir: Path,
        mode: str,
        trace: bool,
    ) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "harness.py"),
                "--workload", workload, "--seed", str(seed),
                "--run-dir", str(run_dir), "--mode", mode,
                "--trace", "1" if trace else "0",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
            env=env,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read_lines, daemon=True)
        self._reader.start()

    def _read_lines(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def read(self, timeout: float) -> Dict[str, object]:
        """The next protocol message; raises if the harness died or hangs."""
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise HarnessError(f"harness silent for {timeout:.0f}s") from None
        if line is None:
            raise HarnessError(f"harness exited with code {self.proc.wait()}")
        message = json.loads(line)
        if "error" in message:
            raise HarnessError(f"harness failed: {message['error']}")
        return message

    def call(self, command: Dict[str, object], timeout: float = 60.0) -> Dict[str, object]:
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise HarnessError(f"harness not listening: {exc}") from exc
        return self.read(timeout)

    def kill(self) -> None:
        """SIGKILL the harness's whole process group (a crash) and reap it."""
        _signal_group(self.pgid, signal.SIGKILL)
        self.proc.wait(timeout=30)
        self._close_pipes()

    def stop(self) -> List[int]:
        """Quit gracefully, else SIGTERM the group; SIGKILL what is left.

        Returns the group's processes still alive after the graceful
        stop — a harness that did not exit, or workers it left behind —
        and waits until the SIGKILL has ended them.
        """
        if self.proc.poll() is None:
            try:
                self.call({"cmd": "quit"}, timeout=30.0)
                self.proc.wait(timeout=30)
            except (HarnessError, subprocess.TimeoutExpired):
                _signal_group(self.pgid, signal.SIGTERM)
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    pass
        left = self.survivors()
        if left:
            _signal_group(self.pgid, signal.SIGKILL)
            self.proc.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while self.survivors() and time.monotonic() < deadline:
                time.sleep(0.05)
        self._close_pipes()
        return left

    def survivors(self) -> List[int]:
        """Live processes of this harness's group (zombies excluded)."""
        return group_members(self.pgid)

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def group_members(pgid: int) -> List[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process so far (0 if gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MiB (0 if gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def steal_ticks() -> int:
    """Machine-wide steal ticks since boot (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def reference_loop_s() -> float:
    """Wall time of a fixed CPU-bound pure-Python loop (noise context)."""
    start = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value * value % 7
    return time.perf_counter() - start
