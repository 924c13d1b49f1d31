"""Shared experiment plumbing: timing, method dispatch, table rendering."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.generate import generate_graph
from repro.core.swap import SwapStats, swap_edges
from repro.generators.bernoulli import bernoulli_chung_lu
from repro.generators.chung_lu import chung_lu_om, erased_chung_lu
from repro.generators.havel_hakimi import havel_hakimi_graph
from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList
from repro.parallel.runtime import ParallelConfig

__all__ = [
    "Timer",
    "ExperimentResult",
    "format_table",
    "GENERATORS",
    "generate_with_method",
    "uniform_reference",
    "compare_backends",
    "pipeline_benchmark",
    "suite_benchmark",
]


class Timer:
    """Context-manager wall-clock timer."""

    def __enter__(self) -> "Timer":
        self.seconds = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0


@dataclass
class ExperimentResult:
    """A named table of rows produced by one experiment driver."""

    name: str
    description: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    series: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        """Append one row (must match ``columns``)."""
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(list(values))

    def render(self) -> str:
        """Aligned plain-text rendering (what the CLI prints)."""
        return f"== {self.name}: {self.description}\n" + format_table(
            self.columns, self.rows
        )


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or 0 < abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(columns: list[str], rows: list[list]) -> str:
    """Render rows as an aligned monospace table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


#: generator label -> callable(dist, config) -> EdgeList, as compared in
#: Figures 3-5: the O(m) Chung-Lu multigraph, its erased projection, the
#: Bernoulli edge-skip Chung-Lu, and our full pipeline's edge generator.
GENERATORS = {
    "CL O(m)": lambda dist, config: chung_lu_om(dist, config),
    "O(m) simple": lambda dist, config: erased_chung_lu(dist, config),
    "O(n^2) edgeskip": lambda dist, config: bernoulli_chung_lu(dist, config),
    "ours": lambda dist, config: generate_graph(
        dist, swap_iterations=0, config=config
    )[0],
}


def generate_with_method(
    method: str,
    dist: DegreeDistribution,
    config: ParallelConfig,
    *,
    swap_iterations: int = 0,
    stats: SwapStats | None = None,
) -> EdgeList:
    """Run one named generator, optionally followed by swap iterations."""
    if method not in GENERATORS:
        raise KeyError(f"unknown method {method!r}; available: {list(GENERATORS)}")
    graph = GENERATORS[method](dist, config)
    if swap_iterations > 0:
        graph = swap_edges(graph, swap_iterations, config, stats=stats)
    return graph


def uniform_reference(
    dist: DegreeDistribution,
    config: ParallelConfig,
    *,
    swap_iterations: int = 32,
) -> EdgeList:
    """The paper's uniform sample: Havel–Hakimi + many swap iterations."""
    return swap_edges(havel_hakimi_graph(dist), swap_iterations, config)


def compare_backends(
    graph: EdgeList,
    iterations: int,
    *,
    threads: int = 4,
    seed: int = 0,
    backends: tuple[str, ...] = ("serial", "vectorized", "process"),
    space: str = "simple",
) -> ExperimentResult:
    """Run :func:`swap_edges` under each backend and tabulate the results.

    All backends see the same seed, so degree sequences and (by the
    TestAndSet membership-semantics argument in ``docs/parallel-model.md``)
    the output graphs themselves are identical — what differs is
    wall-clock and the contention accounting.  ``series`` carries the
    per-backend seconds plus ``"speedup_process_vs_serial"`` when both
    backends ran.
    """
    result = ExperimentResult(
        name="backend-comparison",
        description=f"m={graph.m} edges, {iterations} iterations, p={threads}",
        columns=["backend", "seconds", "accept_rate", "swapped_frac",
                 "table_attempts", "table_failures"],
    )
    seconds: dict[str, float] = {}
    reference_keys = None
    for backend in backends:
        config = ParallelConfig(threads=threads, backend=backend, seed=seed)
        stats = SwapStats()
        with Timer() as t:
            out = swap_edges(graph, iterations, config, stats=stats, space=space)
        seconds[backend] = t.seconds
        result.add(backend, t.seconds, stats.acceptance_rate,
                   stats.swapped_fraction, stats.table_attempts,
                   stats.table_failures)
        from repro.parallel.hashtable import pack_edges

        keys = np.sort(pack_edges(out.u, out.v))
        if reference_keys is None:
            reference_keys = keys
        elif not np.array_equal(keys, reference_keys):
            raise AssertionError(
                f"backend {backend!r} diverged from {backends[0]!r}"
            )
    result.series["seconds"] = seconds
    if "process" in seconds and "serial" in seconds and seconds["process"] > 0:
        result.series["speedup_process_vs_serial"] = (
            seconds["serial"] / seconds["process"]
        )
    return result


def pipeline_benchmark(
    dist: DegreeDistribution,
    *,
    dataset: str = "synthetic",
    swap_iterations: int = 1,
    threads: int = 8,
    seed: int = 5,
    warmup: bool = True,
) -> ExperimentResult:
    """Fused vs phased end-to-end pipeline under ``backend="process"``.

    Runs :func:`~repro.core.generate.generate_graph` twice with the same
    seed — once through the fused arena+pool pipeline, once through the
    phased composition — verifies the outputs are bitwise-identical, and
    tabulates per-phase wall seconds and edge throughput.  ``series["bench"]``
    carries the machine-readable payload the CLI dumps as
    ``BENCH_pipeline.json`` (the repo's perf-trajectory record).
    """
    from repro.parallel.mp_backend import available_workers

    config = ParallelConfig(threads=threads, backend="process", seed=seed)
    if warmup:
        # fork + import costs land on a throwaway run, not the measurement
        generate_graph(dist, swap_iterations=min(swap_iterations, 1), config=config)
        generate_graph(
            dist, swap_iterations=min(swap_iterations, 1), config=config,
            pipeline=False,
        )

    runs: dict[str, dict] = {}
    outputs = {}
    for mode, pipeline in (("fused", True), ("phased", False)):
        with Timer() as t:
            out, report = generate_graph(
                dist, swap_iterations=swap_iterations, config=config,
                pipeline=pipeline,
            )
        outputs[mode] = out
        total = t.seconds
        runs[mode] = {
            "total_seconds": total,
            "phase_seconds": dict(report.phase_seconds),
            "edges": int(report.edges_generated),
            "edges_per_s": report.edges_generated / total if total > 0 else 0.0,
            "fused": bool(report.fused),
        }
    if not np.array_equal(outputs["fused"].u, outputs["phased"].u) or not np.array_equal(
        outputs["fused"].v, outputs["phased"].v
    ):
        raise AssertionError("fused pipeline diverged from the phased composition")

    result = ExperimentResult(
        name="pipeline",
        description=(
            f"fused vs phased end-to-end pipeline, {dataset}, "
            f"p={threads}, {swap_iterations} swap iteration(s)"
        ),
        columns=["mode", "seconds", "probabilities", "edge_generation", "swap",
                 "edges", "edges_per_s"],
    )
    for mode in ("fused", "phased"):
        r = runs[mode]
        result.add(
            mode, r["total_seconds"],
            r["phase_seconds"].get("probabilities", 0.0),
            r["phase_seconds"].get("edge_generation", 0.0),
            r["phase_seconds"].get("swap", 0.0),
            r["edges"], r["edges_per_s"],
        )
    speedup = (
        runs["phased"]["total_seconds"] / runs["fused"]["total_seconds"]
        if runs["fused"]["total_seconds"] > 0
        else float("inf")
    )
    result.series["bench"] = {
        "benchmark": "pipeline",
        "dataset": dataset,
        "backend": "process",
        "threads": threads,
        "workers": available_workers(threads),
        "swap_iterations": swap_iterations,
        "seed": seed,
        "edges": runs["fused"]["edges"],
        "fused": runs["fused"],
        "phased": runs["phased"],
        "speedup_fused_vs_phased": speedup,
    }
    result.series["speedup_fused_vs_phased"] = speedup
    return result


#: the BENCH_suite.json layout version (bump on breaking payload changes)
SUITE_SCHEMA = 2


def suite_benchmark(
    dists: dict[str, DegreeDistribution],
    *,
    backends: tuple[str, ...] = ("vectorized", "process"),
    swap_iterations: int = 1,
    threads: int = 8,
    seed: int = 5,
    warmup: bool = True,
) -> ExperimentResult:
    """The tracked performance suite: datasets × backends.

    Runs the full :func:`~repro.core.generate.generate_graph` pipeline
    for every combination and records per-phase wall seconds and edge
    throughput.  (Backends are *not* compared to each other: generation's
    space splitting is backend-dependent, so their RNG streams — and thus
    their equally-valid samples — differ.)

    ``series["bench"]`` carries the machine-readable payload the CLI
    writes as ``BENCH_suite.json``; the committed copy at the repo root
    is the baseline the perf-regression gate
    (``tests/bench/test_perf_regression.py``) compares against.  Layout
    (``SUITE_SCHEMA`` = 2)::

        {"benchmark": "suite", "schema": 2, "threads": p, "workers": w,
         "swap_iterations": k, "seed": s,
         "entries": [{"dataset", "backend", "edges",
                      "total_seconds", "phase_seconds": {phase: sec},
                      "edges_per_s"}, ...]}
    """
    from repro.parallel.mp_backend import available_workers

    entries: list[dict] = []
    result = ExperimentResult(
        name="suite",
        description=(
            f"performance suite: {len(dists)} dataset(s) × {len(backends)} "
            f"backend(s), p={threads}, {swap_iterations} swap iteration(s)"
        ),
        columns=["dataset", "backend", "seconds", "edges", "edges_per_s"],
    )
    for dataset, dist in dists.items():
        for backend in backends:
            config = ParallelConfig(threads=threads, backend=backend, seed=seed)
            if warmup:
                generate_graph(
                    dist, swap_iterations=min(swap_iterations, 1), config=config
                )
            with Timer() as t:
                _, report = generate_graph(
                    dist, swap_iterations=swap_iterations, config=config
                )
            total = t.seconds
            entry = {
                "dataset": dataset,
                "backend": backend,
                "edges": int(report.edges_generated),
                "total_seconds": total,
                "phase_seconds": dict(report.phase_seconds),
                "edges_per_s": (
                    report.edges_generated / total if total > 0 else 0.0
                ),
            }
            entries.append(entry)
            result.add(
                dataset, backend, total, entry["edges"], entry["edges_per_s"]
            )
    result.series["bench"] = {
        "benchmark": "suite",
        "schema": SUITE_SCHEMA,
        "threads": threads,
        "workers": available_workers(threads),
        "swap_iterations": swap_iterations,
        "seed": seed,
        "entries": entries,
    }
    return result
