"""Process hygiene: every daemon the benchmark starts is stopped with it.

Each daemon runs in its own session (so its process-pool workers share its
process group), asks the kernel to kill it when the benchmark process dies
(``daemon_main.py`` sets ``PR_SET_PDEATHSIG``), and is tracked here until
:meth:`Fleet.stop_all` has killed its whole group and reaped it.  The
benchmark calls ``stop_all`` from a ``finally`` block, from its SIGTERM /
SIGINT handlers and from its own run deadline.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Fleet:
    """The daemons of one benchmark run."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self._procs: "list[subprocess.Popen]" = []
        self._serial = 0

    def spawn(self, *daemon_args: str, role: str = "daemon") -> "tuple[subprocess.Popen, str]":
        """Start ``daemon_main.py`` and wait until it is listening.

        Returns the process and its bound address.  Sockets and ports are
        unique per run: Unix sockets live in the run directory, TCP daemons
        bind port 0 and report the port the kernel chose.
        """
        self._serial += 1
        ready = self.run_dir / f"{role}-{self._serial}.ready"
        log = open(self.run_dir / f"{role}-{self._serial}.log", "wb")
        env = dict(os.environ)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        try:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "daemon_main.py"), "--ready", str(ready),
                 "--role", role, *daemon_args],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                env=env,
                start_new_session=True,
            )
        finally:
            log.close()
        self._procs.append(proc)
        deadline = time.monotonic() + 60.0
        while not ready.exists():
            if proc.poll() is not None:
                raise RuntimeError(
                    f"{role} daemon exited with code {proc.returncode} before "
                    f"listening; see {self.run_dir}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"{role} daemon did not start listening within 60 s")
            time.sleep(0.005)
        return proc, ready.read_text(encoding="utf-8").strip()

    def stop(self, proc: subprocess.Popen, grace: float = 5.0) -> None:
        """Wait up to ``grace`` s for an exit, then SIGTERM, then SIGKILL the group."""
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            _signal_group(proc, signal.SIGTERM)
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                pass
        # The group outlives its leader when pool workers linger.
        _signal_group(proc, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 5.0
        while _group_alive(proc) and time.monotonic() < deadline:
            time.sleep(0.01)
        if proc in self._procs:
            self._procs.remove(proc)

    def stop_all(self) -> None:
        """Kill every daemon still tracked, with its process group, and reap it."""
        for proc in list(self._procs):
            self.stop(proc, grace=0.0)


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _group_alive(proc: subprocess.Popen) -> bool:
    """Whether any process of the daemon's group still exists."""
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (VmHWM) of ``pid`` and all its live descendants, in MB."""
    children: "dict[int, list[int]]" = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    total_kb = 0
    todo = [pid]
    while todo:
        current = todo.pop()
        todo.extend(children.get(current, []))
        try:
            for line in Path(f"/proc/{current}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0
