"""Cross-store differential matrix: ram vs mmap must be bitwise-identical.

The out-of-core engine's contract is that the backing store changes
*where* bytes live, never what they are: for a fixed seed and config,
the mmap-backed run of every phase — fused and phased, on every backend
— reproduces the in-RAM run's edge arrays bit for bit.  The matrix here
is the enforcement: (serial | vectorized | process) × (fused | phased) ×
(ram | mmap forced | auto under a tiny budget), all compared against the
ram baseline of the same cell.
"""

import os

import numpy as np
import pytest

from repro.core.generate import generate_graph
from repro.graph.degree import DegreeDistribution
from repro.parallel.runtime import ParallelConfig


@pytest.fixture(autouse=True)
def _isolated_spill_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill"))


def _dist():
    return DegreeDistribution(degrees=[1, 2, 3, 6], counts=[90, 60, 30, 6])


STORES = (
    ("ram", 0),
    ("mmap", 0),
    ("auto", 1 << 13),  # tiny budget: auto must resolve to mmap + spill
)


class TestCrossStoreMatrix:
    @pytest.mark.parametrize("backend", ["serial", "vectorized", "process"])
    @pytest.mark.parametrize("pipeline", [True, False],
                             ids=["fused", "phased"])
    def test_store_never_changes_the_graph(self, backend, pipeline):
        dist = _dist()
        baseline = None
        for store, budget in STORES:
            cfg = ParallelConfig(
                threads=2, backend=backend, seed=5,
                store=store, memory_budget_bytes=budget,
            )
            out, report = generate_graph(
                dist, swap_iterations=2, config=cfg, pipeline=pipeline,
            )
            if baseline is None:
                baseline = out
                continue
            np.testing.assert_array_equal(
                np.asarray(out.u), np.asarray(baseline.u),
                err_msg=f"{backend}/{'fused' if pipeline else 'phased'}/"
                        f"{store}: u diverged from the ram baseline",
            )
            np.testing.assert_array_equal(
                np.asarray(out.v), np.asarray(baseline.v),
                err_msg=f"{backend}/{'fused' if pipeline else 'phased'}/"
                        f"{store}: v diverged from the ram baseline",
            )

    def test_mmap_run_leaves_no_spill_files(self, tmp_path):
        """Release-on-return settles the disk debt before the run ends."""
        dist = _dist()
        cfg = ParallelConfig(threads=2, backend="vectorized", seed=5,
                             store="mmap")
        generate_graph(dist, swap_iterations=1, config=cfg)
        spill = tmp_path / "spill"
        leftovers = (
            [f for f in os.listdir(spill) if f.endswith(".bin")]
            if spill.is_dir() else []
        )
        assert leftovers == []

    def test_process_count_never_changes_the_graph_under_mmap(self):
        """The worker-process count reshapes execution, never results —
        including on a store-backed run."""
        dist = _dist()
        outs = []
        for processes in (1, 2):
            cfg = ParallelConfig(
                threads=2, backend="process", seed=5, processes=processes,
                store="mmap",
            )
            out, _ = generate_graph(dist, swap_iterations=2, config=cfg)
            outs.append(out)
        np.testing.assert_array_equal(np.asarray(outs[0].u), np.asarray(outs[1].u))
        np.testing.assert_array_equal(np.asarray(outs[0].v), np.asarray(outs[1].v))

    @pytest.mark.parametrize("backend", ["vectorized", "process"])
    def test_resume_crosses_stores(self, tmp_path, backend):
        """A checkpoint taken by an mmap-backed run resumes correctly on
        a RAM-backed config (and vice versa) — stores are execution
        detail, like backends."""
        dist = _dist()
        ref, _ = generate_graph(
            dist, swap_iterations=4,
            config=ParallelConfig(threads=2, backend=backend, seed=9),
        )

        class Stop(Exception):
            pass

        def bail(it, g):
            if it == 1:
                raise Stop()

        ckpt = tmp_path / "ckpt"
        mmap_cfg = ParallelConfig(threads=2, backend=backend, seed=9,
                                  store="mmap")
        with pytest.raises(Stop):
            generate_graph(
                dist, swap_iterations=4, config=mmap_cfg,
                checkpoint_dir=ckpt, checkpoint_every=1, callback=bail,
            )
        ram_cfg = ParallelConfig(threads=2, backend=backend, seed=9,
                                 store="ram")
        out, report = generate_graph(
            dist, swap_iterations=4, config=ram_cfg,
            checkpoint_dir=ckpt, checkpoint_every=1, resume_from=ckpt,
        )
        assert report.resumed
        np.testing.assert_array_equal(np.asarray(out.u), np.asarray(ref.u))
        np.testing.assert_array_equal(np.asarray(out.v), np.asarray(ref.v))
