"""Run one prediction daemon for the benchmark (a child process of run.py).

Builds a :class:`repro.service.PredictionDaemon` from the command line,
serves it on ``--listen`` and writes the bound address to ``--ready`` once
it accepts connections.  The daemon CLI cannot set explicit DL parameters,
which the ``store-scan`` and ``open-loop`` workloads need, hence this entry
point.  With ``--probe-dir`` the layer probes are installed before the
daemon starts and each process writes its records there when it ends:
the daemon itself on shutdown or SIGTERM, its process-pool workers when
the pool shuts down.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/daemon_main.py --listen tcp:127.0.0.1:0 --ready r.txt \\
        --executor thread --explicit-parameters
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import os
import signal
import sys
from pathlib import Path

from common import explicit_parameters

#: Workers per daemon: one per CPU of the 2-CPU host the load is sized for.
WORKERS = 2


def _die_with_parent() -> None:
    """Ask Linux to SIGKILL this daemon if the benchmark process dies."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def _listening(listener) -> bool:
    """True once the listener is bound: a socket file, or a resolved port."""
    if listener is None:
        return False
    address = listener.address
    if address.scheme == "unix":
        return Path(address.path).exists()
    return address.port != 0


async def _serve(args, recorder) -> None:
    from repro.service import PredictionDaemon

    options: dict = {}
    if args.executor == "cluster":
        options["workers"] = args.worker
    daemon = PredictionDaemon(
        parameters=explicit_parameters() if args.explicit_parameters else None,
        executor=args.executor,
        executor_options=options,
        max_workers=WORKERS,
    )
    loop = asyncio.get_running_loop()
    if recorder is not None:
        def on_term() -> None:
            recorder.dump()
            os._exit(0)

        loop.add_signal_handler(signal.SIGTERM, on_term)
    task = loop.create_task(daemon.serve(args.listen))
    while not _listening(daemon.listener):
        if task.done():
            await task
            return
        await asyncio.sleep(0.01)
    ready = Path(args.ready)
    tmp = ready.with_suffix(".tmp")
    tmp.write_text(str(daemon.listener.address), encoding="utf-8")
    os.replace(tmp, ready)
    await task


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--listen", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--executor", default="thread")
    parser.add_argument("--worker", action="append", default=[])
    parser.add_argument("--explicit-parameters", action="store_true")
    parser.add_argument("--probe-dir", default=None)
    parser.add_argument("--role", default="daemon")
    args = parser.parse_args(argv)
    _die_with_parent()
    recorder = None
    if args.probe_dir:
        import probes

        recorder = probes.Recorder(args.probe_dir, args.role)
        probes.install(recorder)
    asyncio.run(_serve(args, recorder))
    if recorder is not None:
        recorder.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
