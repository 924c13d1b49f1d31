"""Out-of-core scale benchmark and its synthetic dataset generator.

The paper's scaling claims are exercised on graphs whose working set
dwarfs RAM; CI boxes have neither the memory nor the hours.  This module
provides the tracked middle ground:

- :func:`scale_dataset` — a *deterministic* (seeded PCG64, closed
  parameters) power-law degree distribution sized by a target edge
  count, so the benchmark's input is reproducible bit-for-bit across
  machines and sessions without shipping data files;
- :func:`scale_benchmark` — the same generation+swap pipeline run three
  ways: all in RAM, forced through the mmap backing store, and under an
  artificially tiny ``memory_budget_bytes`` that makes the storage
  planner spill.  Outputs must be bitwise-identical across all three (the
  out-of-core engine's core invariant); throughput and the peak mapped
  footprint land in ``BENCH_scale.json`` via the CLI, next to
  ``BENCH_suite.json`` in the repo's perf-trajectory record.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ExperimentResult, Timer
from repro.core.generate import generate_graph
from repro.datasets.synthetic import sampled_powerlaw
from repro.graph.degree import DegreeDistribution
from repro.parallel.runtime import ParallelConfig

__all__ = ["SCALE_SCHEMA", "scale_dataset", "scale_benchmark"]

#: the BENCH_scale.json layout version (bump on breaking payload changes)
SCALE_SCHEMA = 1


def scale_dataset(
    target_edges: int,
    *,
    gamma: float = 2.0,
    seed: int = 97,
) -> DegreeDistribution:
    """Deterministic synthetic power-law distribution sized by edge count.

    Draws a truncated discrete power law (exponent ``gamma``, support
    ``[2, ~sqrt(n)]``) from a fixed PCG64 stream, so the same
    ``(target_edges, gamma, seed)`` triple yields the same distribution
    on every machine.  The realized edge count lands near (not exactly
    on) ``target_edges`` — the draw is i.i.d. and parity-repaired — and
    the result is guaranteed graphical: the hub cap is halved and the
    draw retried until Erdős–Gallai passes (power-law draws under a
    ``sqrt(n)`` cap virtually always pass on the first try).
    """
    if target_edges < 8:
        raise ValueError("target_edges must be >= 8")
    n = max(64, int(target_edges) // 3)
    d_max = max(4, int(round(n ** 0.5)))
    for _ in range(8):
        dist = sampled_powerlaw(n, gamma, d_min=2, d_max=d_max, seed=seed)
        if dist.is_graphical():
            return dist
        d_max = max(4, d_max // 2)  # pragma: no cover - hub-heavy corner
    raise ValueError(  # pragma: no cover - unreachable for sane inputs
        f"could not realize a graphical power law for target_edges={target_edges}"
    )


def scale_benchmark(
    *,
    target_edges: int = 20_000,
    swap_iterations: int = 1,
    threads: int = 8,
    backend: str = "vectorized",
    budget_bytes: int = 1 << 16,
    seed: int = 5,
    dataset_seed: int = 97,
) -> ExperimentResult:
    """RAM vs mmap vs budget-spilled pipeline on a synthetic power law.

    Three full ``generate_graph`` runs over the same
    :func:`scale_dataset` instance and seed:

    ``ram``
        the historical in-memory path (baseline);
    ``mmap``
        every big per-run array forced onto the mmap backing store;
    ``auto-tiny-budget``
        ``store="auto"`` under a ``budget_bytes`` budget small enough
        that the planner must spill.

    The ram run is the reference; both out-of-core runs must reproduce
    its edge arrays bit-for-bit, and must actually map bytes (a spill
    that silently stayed in RAM is an error, not a fast run).
    ``series["bench"]`` carries the payload the CLI writes as
    ``BENCH_scale.json`` (layout ``SCALE_SCHEMA`` = 1)::

        {"benchmark": "scale", "schema": 1, "backend": b, "threads": p,
         "swap_iterations": k, "seed": s, "dataset": {...},
         "entries": [{"store", "memory_budget_bytes", "edges",
                      "total_seconds", "phase_seconds": {phase: sec},
                      "edges_per_s", "bytes_mapped_peak", "rss_peak"},
                     ...]}
    """
    from repro.obs import RunTrace

    dist = scale_dataset(target_edges, seed=dataset_seed)
    variants = (
        ("ram", "ram", 0),
        ("mmap", "mmap", 0),
        ("auto-tiny-budget", "auto", int(budget_bytes)),
    )
    result = ExperimentResult(
        name="scale",
        description=(
            f"out-of-core scale benchmark: ram vs mmap vs tiny budget, "
            f"~{target_edges} edges, backend={backend}, p={threads}, "
            f"{swap_iterations} swap iteration(s)"
        ),
        columns=["store", "budget_bytes", "seconds", "edges", "edges_per_s",
                 "bytes_mapped_peak"],
    )
    entries: list[dict] = []
    reference = None
    for label, store, budget in variants:
        config = ParallelConfig(
            threads=threads, backend=backend, seed=seed,
            store=store, memory_budget_bytes=budget,
        )
        with RunTrace() as tr:
            with Timer() as t:
                out, report = generate_graph(
                    dist, swap_iterations=swap_iterations, config=config
                )
            hist = tr.metrics.histograms.get("store.bytes_mapped")
            bytes_peak = float(hist.max) if hist is not None and hist.count else 0.0
            rss_peak = float(tr.metrics.gauges.get("mem.rss_peak", 0.0))
        if reference is None:
            reference = out
        elif not np.array_equal(out.u, reference.u) or not np.array_equal(
            out.v, reference.v
        ):
            raise AssertionError(
                f"{label}: out-of-core run diverged from the in-RAM reference"
            )
        if label != "ram" and bytes_peak <= 0:
            raise AssertionError(
                f"{label}: expected the mapped backing store to engage"
            )
        total = t.seconds
        entry = {
            "store": label,
            "config_store": store,
            "memory_budget_bytes": budget,
            "edges": int(report.edges_generated),
            "total_seconds": total,
            "phase_seconds": dict(report.phase_seconds),
            "edges_per_s": report.edges_generated / total if total > 0 else 0.0,
            "bytes_mapped_peak": bytes_peak,
            "rss_peak": rss_peak,
        }
        entries.append(entry)
        result.add(label, budget, total, entry["edges"], entry["edges_per_s"],
                   bytes_peak)
    result.series["bench"] = {
        "benchmark": "scale",
        "schema": SCALE_SCHEMA,
        "backend": backend,
        "threads": threads,
        "swap_iterations": swap_iterations,
        "seed": seed,
        "dataset": {
            "generator": "scale_dataset",
            "target_edges": int(target_edges),
            "seed": int(dataset_seed),
            "n": int(dist.n),
            "m": int(dist.m),
            "d_max": int(dist.d_max),
            "classes": int(dist.n_classes),
        },
        "entries": entries,
    }
    return result
