"""The benchmark's workloads.

Each workload runs ``setup()`` several times (the last set-up is kept),
then ``measure(seconds, trace, tally)``, then ``close()``.  ``measure``
returns the end-to-end metrics when ``trace`` is false and the per-layer
metrics when it is true.  Every workload uses ``threads=2`` and never
starts more than two worker threads or processes.

Per-layer numbers come from spans the benchmark records around its own
calls into each layer's public functions; nothing inside the library is
instrumented.  A layer a workload does not run reports 0, which is the
prediction for that layer there: no work and no change.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from repro import ParallelConfig, SwapStats, generate_graph, swap_edges
from repro.core.checkpoint import CheckpointStore
from repro.core.edge_skip import generate_edges, prepare_spaces
from repro.core.probabilities import generate_probabilities
from repro.datasets import catalog
from repro.graph.io import load_edge_list, save_edge_list
from repro.parallel.hashtable import ConcurrentEdgeHashTable, pack_edges
from repro.parallel.mp_backend import PipelineWorkerPool
from repro.parallel.permutation import PermutationStats, parallel_permutation
from repro.verify import IntegrityError, verify_graph

import checks
from rss import PeakRss
from spans import Tracer

THREADS = 2
#: untraced/traced call pairs in a traced run; the tracing overhead is the
#: ratio of their medians
TRACE_PAIRS = 2


def derive_seeds(seed: int, k: int) -> list[int]:
    """``k`` independent 32-bit seeds drawn from the run's ``--seed``."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(k)]


class TracedCheckpointStore(CheckpointStore):
    """A checkpoint store that records a span and the bytes of each save.

    ``swap_edges`` accepts a store object in place of a directory, so the
    benchmark sees every snapshot the swap chain writes without touching
    the library.
    """

    def __init__(self, directory, tracer: Tracer) -> None:
        super().__init__(directory)
        self.tracer = tracer
        self.count = 0
        self.bytes = 0

    def save(self, phase, **kwargs) -> int:
        with self.tracer.span("core.checkpoint.save"):
            seq = super().save(phase, **kwargs)
        self.count += 1
        self.bytes += sum(
            p.stat().st_size for p in self.directory.glob(f"snap-{seq:08d}*")
        )
        return seq


def _clear_dir(path: Path) -> None:
    CheckpointStore(path).clear()
    shutil.rmtree(path, ignore_errors=True)


def probe_layers(tr: Tracer, out, config: ParallelConfig, work: Path,
                 tally: checks.Tally) -> dict:
    """Time the swap chain's building blocks on the workload's output.

    The permutation, the TestAndSet table, the verifier and a checkpoint
    save each run once over the output's ``m`` edges, so their cost is
    measured at the workload's own size.
    """
    metrics = {}
    pstats = PermutationStats()
    with tr.span("parallel.permutation.parallel_permutation") as sp:
        parallel_permutation(out.u, config, stats=pstats)
    metrics.update({
        "permutation.s": sp.seconds,
        "permutation.rounds": pstats.rounds,
        "permutation.attempts": pstats.attempts,
        "permutation.retry_overhead": pstats.retry_overhead,
    })

    keys = pack_edges(out.u, out.v)
    table = ConcurrentEdgeHashTable(len(keys))
    with tr.span("parallel.hashtable.test_and_set") as sp:
        present = table.test_and_set(keys)
    tally.op([] if not present.any() else
             ["TestAndSet found a duplicate key in a simple output"])
    metrics.update({
        "tas.s": sp.seconds,
        "tas.keys_per_s": len(keys) / sp.seconds,
        "tas.failure_rate": table.stats.failures / max(table.stats.attempts, 1),
    })

    for tier in ("cheap", "full"):
        problems = []
        with tr.span("verify.verify_graph", tier=tier) as sp:
            try:
                verify_graph(out.u, out.v, out.n, tier=tier)
            except IntegrityError as exc:
                problems = [f"verify_graph({tier}): {exc}"]
        tally.op(problems)
        metrics[f"verify.{tier}_s"] = sp.seconds

    probe_dir = work / "probe-checkpoint"
    store = CheckpointStore(probe_dir)
    with tr.span("core.checkpoint.save", probe=True) as sp:
        store.save("swap", arrays={"u": out.u, "v": out.v}, fingerprint="probe")
    _clear_dir(probe_dir)
    metrics["checkpoint.save_s"] = sp.seconds
    return metrics


def swap_metrics(stats: SwapStats) -> dict:
    return {
        "swap.proposed": stats.proposed,
        "swap.accepted": stats.accepted,
        "swap.acceptance_rate": stats.acceptance_rate,
        "swap.rejected_duplicate": stats.rejected_duplicate,
        "swap.rejected_self_loop": stats.rejected_self_loop,
        "swap.permutation_rounds": stats.permutation_rounds,
        "swap.table_failure_rate": (
            stats.table_failures / stats.table_attempts
            if stats.table_attempts else 0.0
        ),
    }


def median_self_seconds(tr: Tracer, name: str, roots) -> float:
    """Median over ``roots`` of the self time of ``name`` spans under each."""
    return statistics.median(
        sum(tr.self_seconds(s) for s in tr.named(name) if s.parent == r.id)
        for r in roots)


def unattributed_frac(tr: Tracer, roots) -> float:
    return statistics.median(tr.self_seconds(r) / r.seconds for r in roots)


def traced_generation(tr: Tracer, dist, config: ParallelConfig,
                      swap_iterations: int):
    """Algorithm IV.1 as three public calls, one span each.

    ``generate_graph`` runs exactly these calls for the phased
    composition, so the output is the same bits for the same seed.
    """
    with tr.span("pipeline") as root:
        with tr.span("core.probabilities.generate_probabilities"):
            probs = generate_probabilities(dist)
        with tr.span("core.edge_skip.generate_edges"):
            edges = generate_edges(probs.P, dist, config)
        stats = SwapStats()
        with tr.span("core.swap.swap_edges"):
            out = swap_edges(edges, swap_iterations, config, stats=stats)
    return out, root, stats


def generation_layers(tr: Tracer, roots, dist, out, stats) -> dict:
    """Probability, edge-skip and swap metrics of traced generations."""
    edge_s = median_self_seconds(tr, "core.edge_skip.generate_edges", roots)
    return {
        "probabilities.s": median_self_seconds(
            tr, "core.probabilities.generate_probabilities", roots),
        "probabilities.classes": len(dist.degrees),
        "edge_skip.s": edge_s,
        "edge_skip.edges_per_s": out.m / edge_s,
        "swap.s": median_self_seconds(tr, "core.swap.swap_edges", roots),
        "trace.unattributed_frac": unattributed_frac(tr, roots),
        **swap_metrics(stats),
    }


class BatchWorkload:
    """One user-visible call repeated for the run's measuring time."""

    name: str

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def call(self):
        """The timed user-visible operation; returns ``(graph, info)``."""
        raise NotImplementedError

    def check(self, out, info) -> list[str]:
        raise NotImplementedError

    def after_call(self) -> None:
        """Clean-up after a timed call, outside the timing."""

    def quality(self, out, info) -> dict:
        raise NotImplementedError

    def traced_call(self, tr: Tracer):
        """The call with a span around each public function it makes;
        returns the output and the span comparable with the untraced call."""
        raise NotImplementedError

    def layers(self, tr: Tracer, tally: checks.Tally, out) -> dict:
        """Per-layer metrics from the spans of the traced calls, plus the
        probes, which run on the workload's output ``out``."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _timed_call(self):
        t0 = time.perf_counter()
        out, info = self.call()
        wall = time.perf_counter() - t0
        self.after_call()
        return out, info, wall

    def measure(self, seconds: float, trace: bool, tally: checks.Tally) -> dict:
        if trace:
            return self._measure_traced(tally)
        walls = []
        first = None
        t_start = time.perf_counter()
        with PeakRss() as rss:
            while True:
                out, info, wall = self._timed_call()
                walls.append(wall)
                problems = self.check(out, info)
                if first is None:
                    first = (out, info)
                else:
                    problems += checks.same_graph_problems(
                        first[0], out, self.name)
                tally.op(problems)
                del out
                elapsed = time.perf_counter() - t_start
                if len(walls) >= 2 and elapsed + statistics.median(walls) > seconds:
                    break
        wall = statistics.median(walls)
        self.calls = walls
        return {
            "wall_s": wall,
            "edges_per_s": first[0].m / wall,
            "peak_rss_mb": rss.peak_mb,
            **self.quality(*first),
        }

    def _measure_traced(self, tally: checks.Tally) -> dict:
        """Untraced and traced calls in alternation, then the layers."""
        tr = self.spans = Tracer(f"{self.name}-{self.seed}-{time.time_ns()}")
        untraced, traced = [], []
        first = None
        for _ in range(TRACE_PAIRS):
            out, info, wall = self._timed_call()
            untraced.append(wall)
            tally.op(self.check(out, info))
            first = out if first is None else first
            out, span = self.traced_call(tr)
            traced.append(span.seconds)
            tally.op(checks.same_graph_problems(first, out, "traced call"))
        self.untraced_wall = statistics.median(untraced)
        metrics = self.layers(tr, tally, first)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / self.untraced_wall - 1.0)
        return metrics


class GenerateWorkload(BatchWorkload):
    """``generate_graph`` on the LiveJournal twin (n = 205,000)."""

    name = "lj-generate"
    scale = 0.05
    backend = "vectorized"
    swap_iterations = 3

    def setup(self) -> None:
        self.dist = catalog.load("LiveJournal", self.scale)
        self.config = ParallelConfig(
            threads=THREADS, backend=self.backend, seed=self.seed)
        # warm-up: imports inside the library, and the process pool spawn
        # for the process backend, on a small input
        generate_graph(catalog.load("as20"), swap_iterations=1,
                       config=self.config)

    def call(self):
        out, report = generate_graph(
            self.dist, swap_iterations=self.swap_iterations, config=self.config)
        return out, {
            "expected_edges": report.probabilities.total_expected_edges,
            "swapped_fraction": report.swap_stats.swapped_fraction,
        }

    def check(self, out, info) -> list[str]:
        return (checks.simple_problems(out.u, out.v, self.dist.n)
                + checks.edge_count_problems(out.m, info["expected_edges"]))

    def quality(self, out, info) -> dict:
        return {
            "degree_l1_error": checks.degree_l1_error(
                out.u, out.v, self.dist.n, self.dist.degrees, self.dist.counts),
            "swapped_fraction": info["swapped_fraction"],
        }

    def traced_call(self, tr):
        out, root, self.last_stats = traced_generation(
            tr, self.dist, self.config, self.swap_iterations)
        return out, root

    def layers(self, tr, tally, out):
        metrics = generation_layers(
            tr, tr.named("pipeline"), self.dist, out, self.last_stats)
        metrics.update(self._prepare(tr))
        metrics.update(probe_layers(tr, out, self.config, self.work, tally))
        return metrics

    def _prepare(self, tr) -> dict:
        probs = generate_probabilities(self.dist)
        with tr.span("core.edge_skip.prepare_spaces") as sp:
            table = prepare_spaces(probs.P, self.dist, self.config)
        return {"edge_skip.prepare_s": sp.seconds,
                "edge_skip.spaces": len(table["end"])}


class GenerateProcessWorkload(GenerateWorkload):
    """The same call on the process backend's fused pipeline."""

    name = "lj-generate-process"
    backend = "process"
    swap_iterations = 1

    def traced_call(self, tr):
        # the fused pipeline is one public call; the phased composition in
        # layers() shows the phases
        with tr.span("core.generate.generate_graph") as span:
            out, _ = generate_graph(
                self.dist, swap_iterations=self.swap_iterations,
                config=self.config)
        return out, span

    def layers(self, tr, tally, out):
        phased, root, stats = traced_generation(
            tr, self.dist, self.config, self.swap_iterations)
        tally.op(checks.same_graph_problems(
            out, phased, "phased process composition"))
        metrics = generation_layers(tr, [root], self.dist, out, stats)
        metrics.update({
            "process.edge_skip_s": metrics["edge_skip.s"],
            "process.swap_s": metrics["swap.s"],
            "process.phased_s": root.seconds,
            "process.fused_saving_s": root.seconds - self.untraced_wall,
        })
        with tr.span("parallel.mp_backend.PipelineWorkerPool") as sp:
            pool = PipelineWorkerPool(THREADS, config=self.config)
        pool.close()
        metrics["process.spawn_s"] = sp.seconds
        metrics.update(self._prepare(tr))
        metrics.update(probe_layers(tr, out, self.config, self.work, tally))
        return metrics


class RandomizeWorkload(BatchWorkload):
    """Load an edge list from disk and randomize it (Algorithm III.1)."""

    name = "wikitalk-randomize"
    iterations = 10
    checkpoint_every = 5

    def setup(self) -> None:
        input_seed, run_seed = derive_seeds(self.seed, 2)
        self.dist = catalog.load("WikiTalk", 0.25)
        graph, _ = generate_graph(
            self.dist, swap_iterations=0,
            config=ParallelConfig(threads=THREADS, seed=input_seed))
        self.path = self.work / "wikitalk.txt"
        save_edge_list(graph, self.path)
        self.input_degrees = checks.degree_sequence(graph.u, graph.v, graph.n)
        self.config = ParallelConfig(
            threads=THREADS, seed=run_seed, verify="cheap")
        self.ckpt_dir = self.work / "checkpoints"
        # warm-up: the same call on a small file
        small = self.work / "warmup.txt"
        g, _ = generate_graph(catalog.load("as20"), swap_iterations=0,
                              config=self.config)
        save_edge_list(g, small)
        swap_edges(load_edge_list(small), 2, self.config,
                   checkpoint_dir=self.ckpt_dir, checkpoint_every=1)
        _clear_dir(self.ckpt_dir)

    def call(self):
        graph = load_edge_list(self.path)
        stats = SwapStats()
        out = swap_edges(graph, self.iterations, self.config, stats=stats,
                         checkpoint_dir=self.ckpt_dir,
                         checkpoint_every=self.checkpoint_every)
        return out, {"swapped_fraction": stats.swapped_fraction}

    def after_call(self) -> None:
        _clear_dir(self.ckpt_dir)

    def check(self, out, info) -> list[str]:
        problems = checks.simple_problems(out.u, out.v, self.dist.n)
        if not np.array_equal(
                checks.degree_sequence(out.u, out.v, self.dist.n),
                self.input_degrees):
            problems.append("degree sequence not preserved")
        return problems

    def quality(self, out, info) -> dict:
        return {
            # swaps preserve degrees, so this is the error of the input file
            # against the twin distribution it was drawn from
            "degree_l1_error": checks.degree_l1_error(
                out.u, out.v, self.dist.n, self.dist.degrees, self.dist.counts),
            "swapped_fraction": info["swapped_fraction"],
        }

    def traced_call(self, tr):
        self.store = TracedCheckpointStore(self.ckpt_dir, tr)
        self.last_stats = SwapStats()
        with tr.span("pipeline") as root:
            with tr.span("graph.io.load_edge_list"):
                graph = load_edge_list(self.path)
            with tr.span("core.swap.swap_edges"):
                out = swap_edges(graph, self.iterations, self.config,
                                 stats=self.last_stats,
                                 checkpoint_dir=self.store,
                                 checkpoint_every=self.checkpoint_every)
        _clear_dir(self.ckpt_dir)
        return out, root

    def layers(self, tr, tally, out):
        roots = tr.named("pipeline")
        load_s = median_self_seconds(tr, "graph.io.load_edge_list", roots)
        size = self.path.stat().st_size
        metrics = {
            "io.load_s": load_s,
            "io.bytes": size,
            "io.mb_per_s": size / 1e6 / load_s,
            "swap.s": median_self_seconds(tr, "core.swap.swap_edges", roots),
            "checkpoint.count": self.store.count,
            "checkpoint.bytes": self.store.bytes,
            "trace.unattributed_frac": unattributed_frac(tr, roots),
            **swap_metrics(self.last_stats),
        }
        metrics.update(probe_layers(tr, out, self.config, self.work, tally))
        # the swap chain's own saves rather than the probe's
        metrics["checkpoint.save_s"] = statistics.median(
            s.seconds for s in tr.named("core.checkpoint.save")
            if not s.attrs.get("probe"))
        return metrics


BATCH_WORKLOADS = (GenerateWorkload, GenerateProcessWorkload, RandomizeWorkload)
