"""The stamp every result carries: code version, host and start time."""

from __future__ import annotations

import datetime
import hashlib
import os
import platform
import socket
import subprocess
import sys
from pathlib import Path


def _git_hash(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """SHA-256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(root: Path, started: float) -> dict:
    import numpy

    return {
        "git": _git_hash(root),
        "src_sha256": _source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "host": socket.gethostname(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "argv": sys.argv[1:],
        "started": datetime.datetime.fromtimestamp(
            started, datetime.timezone.utc
        ).isoformat(),
    }
