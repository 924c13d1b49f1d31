"""Peak resident memory of this process and its children over a window."""

from __future__ import annotations

import os
import threading


def _status_kb(pid, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def children(pid) -> list[int]:
    """Direct child processes of ``pid``."""
    out: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
        except (OSError, ValueError):
            continue
    return out


def descendants_hwm_kb(pid: int) -> int:
    """Summed high-water marks of the live descendants of ``pid``."""
    total, todo = 0, children(pid)
    while todo:
        p = todo.pop()
        total += _status_kb(p, "VmHWM:")
        todo.extend(children(p))
    return total


class PeakRss:
    """Context manager measuring peak RSS in MB while it is open.

    The result is this process's high-water mark, reset on entry (Linux
    ``clear_refs``), plus the largest sum of the high-water marks of the
    worker processes alive at one time, which a sampling thread reads.
    Each process's own mark is exact, so the figure does not depend on
    when a sample lands; pages a forked worker shares with this process
    count in both, as RSS counts them.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.peak_mb = 0.0
        self._children_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        pid = os.getpid()
        while not self._stop.wait(self.interval):
            self._children_kb = max(self._children_kb, descendants_hwm_kb(pid))

    def __enter__(self) -> "PeakRss":
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        own = _status_kb("self", "VmHWM:")
        self.peak_mb = (own + self._children_kb) / 1024.0
