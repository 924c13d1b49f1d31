"""Cross-backend differential harness for the swap engine.

Runs :func:`repro.core.swap.swap_edges` under every backend — the
``serial`` one-key-at-a-time reference, the default ``vectorized``
engine, and the ``process`` backend (real worker processes against the
sharded shared-memory table) — over a matrix of graphs × null-model
spaces × thread counts, and asserts:

- **identical degree sequences** (swaps preserve degrees exactly, so
  every backend must return the input's degree sequence);
- **per-space simplicity invariants** (no loops / no multi-edges in the
  spaces that forbid them, defects never created in the others);
- **exact output equality** — TestAndSet verdicts are pure set
  membership with first-occurrence semantics, which is schedule
  independent, so for a fixed seed all three backends must produce the
  *same graph*, not merely statistically similar ones;
- **statistically indistinguishable acceptance rates** across seeds (the
  weaker guarantee the paper's evaluation relies on, asserted separately
  so it keeps holding even if exact equality is ever relaxed).

The CI process-backend job widens the thread matrix via the
``REPRO_TEST_THREADS`` environment variable.
"""

import os

import numpy as np
import pytest

from repro.core.swap import SwapStats, swap_edges
from repro.graph.edgelist import EdgeList
from repro.parallel.hashtable import pack_edges
from repro.parallel.runtime import BACKENDS, ParallelConfig

SPACES = ("simple", "loopy", "multigraph", "loopy_multigraph")

THREAD_MATRIX = [1, 2, 4]
_extra = int(os.environ.get("REPRO_TEST_THREADS", "0"))
if _extra and _extra not in THREAD_MATRIX:
    THREAD_MATRIX.append(_extra)


def simple_graph(seed: int, n: int = 60, m: int = 150) -> EdgeList:
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, 3 * m)
    v = rng.integers(0, n, 3 * m)
    keep = u != v
    g = EdgeList(u[keep], v[keep], n).simplify()
    return EdgeList(g.u[:m], g.v[:m], n)


def defective_graph(seed: int) -> EdgeList:
    """A multigraph with self loops and duplicate edges."""
    g = simple_graph(seed, n=40, m=90)
    u = np.concatenate([g.u, g.u[:6], [1, 2, 3]])
    v = np.concatenate([g.v, g.v[:6], [1, 2, 3]])
    return EdgeList(u, v, g.n)


GRAPHS = {
    "simple": simple_graph(0),
    "defective": defective_graph(1),
}


def sorted_keys(g: EdgeList) -> np.ndarray:
    return np.sort(pack_edges(g.u, g.v))


class TestBackendEquivalence:
    """serial ≡ vectorized ≡ process over the invariant matrix."""

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("threads", THREAD_MATRIX)
    def test_outputs_identical(self, graph_name, space, threads):
        graph = GRAPHS[graph_name]
        outputs = {}
        for backend in BACKENDS:
            config = ParallelConfig(threads=threads, backend=backend, seed=97)
            outputs[backend] = swap_edges(graph, 3, config, space=space)
        ref = outputs["vectorized"]
        for backend, out in outputs.items():
            np.testing.assert_array_equal(
                out.u, ref.u, err_msg=f"{backend} diverged ({graph_name}/{space})"
            )
            np.testing.assert_array_equal(
                out.v, ref.v, err_msg=f"{backend} diverged ({graph_name}/{space})"
            )

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("space", SPACES)
    def test_degrees_and_space_invariants(self, graph_name, space):
        graph = GRAPHS[graph_name]
        for backend in BACKENDS:
            config = ParallelConfig(threads=2, backend=backend, seed=5)
            out = swap_edges(graph, 4, config, space=space)
            np.testing.assert_array_equal(
                graph.degree_sequence(), out.degree_sequence()
            )
            # defects can only be destroyed, never created
            if space in ("simple", "loopy"):
                assert out.count_multi_edges() <= graph.count_multi_edges()
            if space in ("simple", "multigraph"):
                assert out.count_self_loops() <= graph.count_self_loops()
            if space == "simple" and graph.is_simple():
                assert out.is_simple()

    def test_acceptance_rates_statistically_indistinguishable(self):
        """Across seeds, mean acceptance per backend agrees closely."""
        graph = GRAPHS["simple"]
        rates = {b: [] for b in BACKENDS}
        for seed in range(6):
            for backend in BACKENDS:
                stats = SwapStats()
                swap_edges(
                    graph, 2,
                    ParallelConfig(threads=2, backend=backend, seed=seed),
                    stats=stats,
                )
                rates[backend].append(stats.acceptance_rate)
        means = {b: np.mean(r) for b, r in rates.items()}
        for backend in BACKENDS:
            assert abs(means[backend] - means["vectorized"]) < 0.02, means

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("space", SPACES)
    def test_shards_identical_on_all_backends(self, graph_name, space):
        """The shard count is a pure execution choice: every backend's
        output (and result-contract stats) must match its default-shard
        run."""
        graph = GRAPHS[graph_name]
        for backend in BACKENDS:
            outs, stats = {}, {}
            for shards in (0, 64):
                stats[shards] = SwapStats()
                outs[shards] = swap_edges(
                    graph, 3,
                    ParallelConfig(
                        threads=2, backend=backend, seed=97, shards=shards
                    ),
                    stats=stats[shards], space=space,
                )
            np.testing.assert_array_equal(
                outs[64].u, outs[0].u,
                err_msg=f"{backend} shards diverged ({graph_name}/{space})",
            )
            np.testing.assert_array_equal(
                outs[64].v, outs[0].v,
                err_msg=f"{backend} shards diverged ({graph_name}/{space})",
            )
            assert stats[64] == stats[0]

    def test_maintained_keys_match_repacked_registration(self, monkeypatch):
        """The swap chain's maintained key array (permuted alongside the
        edges and patched per accepted swap, never re-packed wholesale)
        must register exactly the keys a from-scratch
        ``pack_edges(u, v)`` of the current edges would.

        Checked directly: a spy table captures every iteration's
        registration batch (the first TestAndSet after each clear) and
        compares it against a fresh pack of the edges current at that
        point — the input graph for iteration 0, the previous
        iteration's end-of-round callback snapshot afterwards."""
        from repro.core import swap as swap_mod

        captured: list = []
        edges_at: dict[int, tuple] = {}

        class SpyTable(swap_mod.ConcurrentEdgeHashTable):
            def clear(self):
                captured.append("clear")
                super().clear()

            def test_and_set(self, keys):
                captured.append(np.array(keys, copy=True))
                return super().test_and_set(keys)

        monkeypatch.setattr(swap_mod, "ConcurrentEdgeHashTable", SpyTable)
        graph = GRAPHS["simple"]
        swap_edges(
            graph, 6,
            ParallelConfig(threads=2, backend="vectorized", seed=41),
            callback=lambda it, g: edges_at.setdefault(it, (g.u, g.v)),
        )
        registrations = []
        after_clear = False
        for item in captured:
            if isinstance(item, str):
                after_clear = True
                continue
            if after_clear:
                registrations.append(item)
            after_clear = False
        assert len(registrations) == 6
        for it, reg in enumerate(registrations):
            # registration keys at iteration `it` pack the edges as they
            # stood entering the round: the input graph at it=0, the end
            # of round it-1 (the callback snapshot, which is in the same
            # permuted order the maintained array tracks) afterwards
            u, v = (graph.u, graph.v) if it == 0 else edges_at[it - 1]
            np.testing.assert_array_equal(
                reg, pack_edges(u, v),
                err_msg=f"maintained keys drifted at iteration {it}",
            )

    def test_process_contention_stats_recorded(self):
        """The process run reports per-iteration table activity."""
        graph = GRAPHS["simple"]
        stats = SwapStats()
        swap_edges(
            graph, 2,
            ParallelConfig(threads=2, backend="process", seed=3),
            stats=stats,
        )
        assert stats.table_attempts > 0
        assert 0 <= stats.table_failures <= stats.table_attempts

    def test_process_backend_multigraph_simplification(self):
        """Section VIII-A behavior survives the process engine."""
        graph = GRAPHS["defective"]
        out = swap_edges(
            graph, 20, ParallelConfig(threads=2, backend="process", seed=8)
        )
        assert out.count_self_loops() <= graph.count_self_loops()
        assert out.count_multi_edges() < graph.count_multi_edges()
