"""Parallel execution configuration and loop partitioning.

Every parallel entry point in the library accepts a
:class:`ParallelConfig`.  It pins down three things:

- ``threads`` — the logical thread count *p*.  The vectorized engine uses
  it to partition iteration spaces exactly as a static OpenMP schedule
  would, and the cost model uses it to turn work accounting into
  simulated p-thread time.
- ``backend`` — ``"vectorized"`` (default; numpy kernels executing the
  parallel round structure), ``"serial"`` (straight-line reference
  implementations used for validation), or ``"process"``
  (``multiprocessing`` over shared memory; true parallelism, useful on
  multi-core hosts).
- ``seed`` — base seed for reproducible per-thread streams.

The module also provides the static chunk partitioner shared by all
parallel loops, equivalent to OpenMP's ``schedule(static)``.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.parallel.rng import generator_from_seed, spawn_generators

__all__ = [
    "ParallelConfig",
    "chunk_bounds",
    "chunk_views",
    "BACKENDS",
    "get_executor",
    "shutdown_executors",
]

BACKENDS = ("vectorized", "serial", "process")


@dataclass(frozen=True)
class ParallelConfig:
    """Execution configuration threaded through all parallel algorithms.

    Parameters
    ----------
    threads:
        Logical thread count *p* (≥ 1).  Partitions iteration spaces and
        parameterizes the cost model.  Defaults to 16, matching the
        single-node core count used throughout the paper's evaluation.
    backend:
        One of ``"vectorized"``, ``"serial"``, ``"process"``.
    seed:
        Base seed; ``None`` draws fresh entropy.
    shards:
        Shard count for the process backend's shared-memory hash table
        (rounded up to a power of two).  ``0`` (default) auto-sizes to
        ``max(8, 4 * threads)`` so shard ownership spreads evenly across
        the worker processes.
    processes:
        Physical worker-process count for the fused process pipeline.
        ``0`` (default) auto-clamps ``threads`` to the host core count.
        Distinct from ``threads``: the logical thread count pins down
        the reproducible partitioning (chunk seeds, shard geometry),
        while ``processes`` only decides how many OS processes execute
        it — results are identical for any value.
    max_worker_restarts:
        Fault-tolerance budget of the process backend's supervised pool:
        how many dead or hung workers may be respawned (with their batch
        rolled back and deterministically replayed) before the run
        degrades to the bitwise-identical vectorized backend.
    batch_deadline:
        Optional per-batch wall-clock deadline in seconds for the
        supervised pool.  A batch exceeding it marks its workers as hung;
        they are SIGKILLed and recovered like dead workers.  ``None``
        (default) disables the deadline (worker *death* is still
        detected by the liveness probe).  Set it well above the
        worst-case batch time for the workload.
    faults:
        Deterministic fault-injection plan for tests and drills (see
        :mod:`repro.parallel.faultinject`); empty string (default) means
        the plan comes from the ``REPRO_FAULTS`` environment variable,
        if set.  Production runs leave both unset.
    store:
        Backing store for the big per-run arrays (edge endpoints, packed
        table keys, swapped flags): ``"ram"`` (plain arrays, the
        historical layout), ``"mmap"`` (spill-file-backed arrays; graphs
        larger than RAM page through a bounded window), or ``"auto"``
        (default; spill exactly when the estimated working set exceeds
        ``memory_budget_bytes``).  The store only moves bytes — outputs
        are bitwise-identical across stores for the same seed/config.
    memory_budget_bytes:
        Approximate RAM budget for a run's persistent arrays.  ``0``
        (default) means unlimited (``"auto"`` never spills).  A positive
        budget drives the ``"auto"`` store choice, the windowed-swap
        window size, and hash-table spill (see
        :func:`repro.core.storage.plan_storage`).
    verify:
        Integrity-verification tier (see :mod:`repro.verify`): ``"off"``
        (default; no added checks), ``"cheap"`` (O(m) invariant checks at
        phase boundaries, canary words, spill-window CRCs), or ``"full"``
        (additionally proves simplicity via sorted packed keys and
        table-vs-edge-array consistency after every registration).
        Verification never changes outputs — it only detects corruption
        and triggers the typed quarantine/repair paths.
    """

    threads: int = 16
    backend: str = "vectorized"
    seed: object = None
    shards: int = 0
    processes: int = 0
    max_worker_restarts: int = 2
    batch_deadline: float | None = None
    faults: str = ""
    store: str = "auto"
    memory_budget_bytes: int = 0
    verify: str = "off"

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.shards < 0:
            raise ValueError(f"shards must be >= 0, got {self.shards}")
        if self.processes < 0:
            raise ValueError(f"processes must be >= 0, got {self.processes}")
        if self.max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.batch_deadline is not None and self.batch_deadline <= 0:
            raise ValueError(
                f"batch_deadline must be positive or None, got {self.batch_deadline}"
            )
        if self.store not in ("auto", "ram", "mmap"):
            raise ValueError(
                f"store must be one of ('auto', 'ram', 'mmap'), got {self.store!r}"
            )
        if self.memory_budget_bytes < 0:
            raise ValueError(
                f"memory_budget_bytes must be >= 0, got {self.memory_budget_bytes}"
            )
        # literal tuple rather than repro.verify's VERIFY_TIERS: this
        # module must stay importable without the verification layer
        if self.verify not in ("off", "cheap", "full"):
            raise ValueError(
                f"verify must be one of ('off', 'cheap', 'full'), got {self.verify!r}"
            )

    def generator(self) -> np.random.Generator:
        """A single generator derived from :attr:`seed`."""
        return generator_from_seed(self.seed)

    def thread_generators(self) -> list[np.random.Generator]:
        """One independent generator per logical thread."""
        return spawn_generators(self.seed, self.threads)

    def with_seed(self, seed) -> "ParallelConfig":
        """Copy of this config with a different seed."""
        return replace(self, seed=seed)

    def with_threads(self, threads: int) -> "ParallelConfig":
        """Copy of this config with a different thread count."""
        return replace(self, threads=threads)


def chunk_bounds(n: int, chunks: int) -> np.ndarray:
    """Boundaries of a static partition of ``range(n)`` into ``chunks``.

    Returns an int64 array of length ``chunks + 1`` with
    ``bounds[k] <= bounds[k+1]``; chunk ``k`` owns
    ``range(bounds[k], bounds[k+1])``.  The first ``n % chunks`` chunks get
    one extra element, matching OpenMP's static schedule.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    base, extra = divmod(n, chunks)
    sizes = np.full(chunks, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(chunks + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def chunk_views(array: np.ndarray, chunks: int) -> Iterator[np.ndarray]:
    """Yield the per-chunk views of ``array`` under the static schedule."""
    bounds = chunk_bounds(len(array), chunks)
    for k in range(chunks):
        yield array[bounds[k] : bounds[k + 1]]


# -- persistent process-pool runtime -------------------------------------
#
# Spinning up a ProcessPoolExecutor costs a fork + pipe setup per worker;
# paying that on every kernel call swamps the kernels themselves.  The
# registry below keeps one executor alive per worker count, shared by all
# process-backend entry points, created on first use and torn down at
# interpreter exit (or explicitly via shutdown_executors, which the tests
# use to assert lifecycle behavior).

_EXECUTORS: dict[int, ProcessPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def get_executor(workers: int) -> ProcessPoolExecutor:
    """Return the persistent process pool for ``workers`` workers.

    The pool is created lazily, cached per worker count, and reused by
    every subsequent call — ``backend="process"`` kernels across a whole
    run share the same OS processes.  A pool that died (e.g. a worker was
    killed) is replaced transparently.
    """
    workers = max(1, min(int(workers), os.cpu_count() or 1))
    with _EXECUTORS_LOCK:
        pool = _EXECUTORS.get(workers)
        if pool is not None and getattr(pool, "_broken", False):
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers)
            _EXECUTORS[workers] = pool
        return pool


def shutdown_executors() -> None:
    """Tear down every cached process pool (also runs at exit)."""
    with _EXECUTORS_LOCK:
        pools = list(_EXECUTORS.values())
        _EXECUTORS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_executors)
