"""Out-of-core backing stores: planning, spill lifecycle, and durability.

What must hold:

- the storage planner (`select_store` / `plan_storage`) spills exactly
  when a positive memory budget cannot hold the working set, and never
  otherwise;
- mmap-backed arrays, appenders, and windowed kernels produce values
  identical to their RAM counterparts (the bitwise story's foundation);
- spill files follow the pid-stamped manifest discipline: created under
  the spill dir, reaped only when their owner is dead — never out from
  under a live run, even when the reaper races it from another process;
- a SIGKILLed mmap-backed durable run resumes bitwise-identically (the
  checkpoint raw payload mode round-trips mapped arrays);
- under an artificially tiny ``memory_budget_bytes`` the engine
  actually engages the spill path (property-tested over budgets).
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import storage
from repro.core.checkpoint import CheckpointStore
from repro.core.generate import generate_graph
from repro.core.storage import (
    ArrayAppender,
    MmapStore,
    RamStore,
    SPILL_PREFIX,
    copy_into,
    create_spill_file,
    generation_working_set_bytes,
    open_store,
    permute_into,
    reap_stale_spill,
    StoragePlan,
    plan_storage,
    select_store,
    swap_working_set_bytes,
    total_bytes_mapped,
)
from repro.graph.degree import DegreeDistribution
from repro.parallel.runtime import ParallelConfig

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(autouse=True)
def _isolated_spill_dir(tmp_path, monkeypatch):
    """Point the spill dir at a per-test directory (and verify cleanup)."""
    d = tmp_path / "spill"
    monkeypatch.setenv("REPRO_SPILL_DIR", str(d))
    yield d


def _dist():
    return DegreeDistribution(degrees=[1, 2, 3, 6], counts=[60, 40, 20, 4])


class TestSelection:
    def test_explicit_kinds_pass_through(self):
        assert select_store("ram", 10**9, 1) == "ram"
        assert select_store("mmap", 1, 10**9) == "mmap"

    def test_auto_spills_only_over_budget(self):
        assert select_store("auto", 100, 0) == "ram"  # no budget: unlimited
        assert select_store("auto", 100, 200) == "ram"
        assert select_store("auto", 201, 200) == "mmap"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="store must be one of"):
            select_store("disk", 1, 1)

    def test_config_validates_store_fields(self):
        with pytest.raises(ValueError, match="store"):
            ParallelConfig(store="floppy")
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ParallelConfig(memory_budget_bytes=-1)

    def test_plan_storage_auto_budget(self):
        cfg = ParallelConfig(store="auto", memory_budget_bytes=1 << 10)
        plan = plan_storage(cfg, working_set_bytes=1 << 20)
        assert isinstance(plan, StoragePlan)
        assert plan.store == "mmap" and plan.window > 0
        roomy = plan_storage(
            ParallelConfig(store="auto", memory_budget_bytes=1 << 30),
            working_set_bytes=1 << 20,
        )
        assert roomy.store == "ram" and roomy.window == 0

    def test_plan_storage_table_spill(self):
        cfg = ParallelConfig(store="auto", memory_budget_bytes=1 << 12)
        plan = plan_storage(
            cfg, working_set_bytes=1 << 11, table_bytes=1 << 13
        )
        assert plan.table_spill
        no_budget = plan_storage(
            ParallelConfig(store="mmap"), working_set_bytes=1 << 11,
            table_bytes=1 << 13,
        )
        assert not no_budget.table_spill  # spill needs a budget to exceed

    def test_working_set_estimates_scale_linearly(self):
        assert generation_working_set_bytes(10) == 10 * 16
        assert swap_working_set_bytes(10) == 10 * 25 * 2


class TestStores:
    def test_ram_store_plain_arrays(self):
        st_ = open_store("ram")
        a = st_.empty("x", 8, np.int64)
        assert isinstance(a, np.ndarray) and not isinstance(a, np.memmap)
        assert st_.bytes_mapped == 0

    def test_mmap_store_creates_and_releases_spill_files(self, _isolated_spill_dir):
        st_ = open_store("mmap")
        a = st_.empty("x", 100, np.int64)
        a[:] = np.arange(100)
        files = [f for f in os.listdir(_isolated_spill_dir) if f.endswith(".bin")]
        manifests = [f for f in os.listdir(_isolated_spill_dir) if f.endswith(".json")]
        assert len(files) == 1 and len(manifests) == 1
        assert st_.bytes_mapped == 800
        assert total_bytes_mapped() >= 800
        st_.release()
        # paths are gone, the mapping stays valid (deleted-but-open)
        assert [f for f in os.listdir(_isolated_spill_dir) if f.endswith(".bin")] == []
        assert np.array_equal(np.asarray(a), np.arange(100))
        with pytest.raises(RuntimeError, match="released"):
            st_.empty("y", 4, np.int64)

    def test_duplicate_names_rejected(self):
        st_ = open_store("mmap")
        st_.empty("x", 4, np.int64)
        with pytest.raises(ValueError, match="already holds"):
            st_.empty("x", 4, np.int64)
        st_.release()

    def test_open_store_rejects_auto(self):
        with pytest.raises(ValueError, match="resolve 'auto' first"):
            open_store("auto")

    @pytest.mark.parametrize("kind", ["ram", "mmap"])
    def test_appender_roundtrip(self, kind):
        st_ = open_store(kind)
        app = st_.appender("z", np.int64)
        app.append(np.arange(5))
        app.append([])
        app.append(np.arange(5, 12))
        out = app.finish()
        assert np.array_equal(np.asarray(out), np.arange(12))
        with pytest.raises(RuntimeError, match="finished"):
            app.append([1])
        st_.release()

    @pytest.mark.parametrize("kind", ["ram", "mmap"])
    def test_empty_appender_yields_empty_array(self, kind, _isolated_spill_dir):
        st_ = open_store(kind)
        out = st_.appender("z", np.int64).finish()
        assert len(out) == 0 and out.dtype == np.int64
        st_.release()
        leftovers = (
            [f for f in os.listdir(_isolated_spill_dir) if f.endswith(".bin")]
            if _isolated_spill_dir.is_dir() else []
        )
        assert leftovers == []

    def test_windowed_kernels_match_fancy_indexing(self):
        rng = np.random.default_rng(7)
        src = rng.integers(0, 1000, 257)
        order = rng.permutation(257)
        for window in (1, 16, 256, 257, 10_000):
            dst = np.empty_like(src)
            permute_into(dst, src, order, window)
            np.testing.assert_array_equal(dst, src[order])
            cp = np.empty_like(src)
            copy_into(cp, src, window)
            np.testing.assert_array_equal(cp, src)

    def test_windowed_kernels_validate_lengths(self):
        with pytest.raises(ValueError, match="length"):
            copy_into(np.empty(3), np.empty(4))
        with pytest.raises(ValueError, match="equal length"):
            permute_into(np.empty(3), np.empty(4), np.arange(4))


class TestReapStaleSpill:
    def _fake_dead_store(self, d, pid):
        """Spill file + manifest stamped with a (dead) pid."""
        path = os.path.join(d, f"{SPILL_PREFIX}{pid}-0-beef.bin")
        with open(path, "wb") as fh:
            fh.write(b"\0" * 8)
        manifest = os.path.join(d, f"{SPILL_PREFIX}{pid}-0.json")
        with open(manifest, "w") as fh:
            json.dump({"pid": pid, "files": [path]}, fh)
        return path, manifest

    def test_dead_owner_reaped_live_owner_kept(self, _isolated_spill_dir):
        d = str(_isolated_spill_dir)
        os.makedirs(d, exist_ok=True)
        dead_file, dead_manifest = self._fake_dead_store(d, 2**22 + 12345)
        live = MmapStore()
        arr = live.empty("keep", 16, np.int64)
        arr[:] = 7
        removed = reap_stale_spill()
        assert dead_file in removed
        assert not os.path.exists(dead_file)
        assert not os.path.exists(dead_manifest)
        # the live store's file and manifest survived
        assert os.path.exists(live.path_of("keep"))
        assert np.array_equal(np.asarray(arr), np.full(16, 7))
        live.release()

    def test_orphan_bin_without_manifest_reaped_by_name(self, _isolated_spill_dir):
        d = str(_isolated_spill_dir)
        os.makedirs(d, exist_ok=True)
        orphan = os.path.join(d, f"{SPILL_PREFIX}{2**22 + 999}-3-cafe.bin")
        open(orphan, "wb").close()
        foreign = os.path.join(d, "unrelated.bin")
        open(foreign, "wb").close()
        removed = reap_stale_spill()
        assert orphan in removed and not os.path.exists(orphan)
        assert os.path.exists(foreign)  # never touch foreign names

    def test_manifest_only_lists_spill_names(self, _isolated_spill_dir, tmp_path):
        """A (malicious or corrupt) manifest cannot direct deletions
        outside the spill naming scheme."""
        d = str(_isolated_spill_dir)
        os.makedirs(d, exist_ok=True)
        victim = tmp_path / "precious.txt"
        victim.write_text("data")
        manifest = os.path.join(d, f"{SPILL_PREFIX}{2**22 + 77}-0.json")
        with open(manifest, "w") as fh:
            json.dump({"pid": 2**22 + 77, "files": [str(victim)]}, fh)
        reap_stale_spill()
        assert victim.exists()
        assert not os.path.exists(manifest)

    def test_reap_races_live_run(self, _isolated_spill_dir):
        """A reaper running concurrently with a live out-of-core run must
        not collect that run's spill files; after the run dies (SIGKILL,
        so no cleanup), the same sweep collects them."""
        d = str(_isolated_spill_dir)
        script = textwrap.dedent(
            """
            import sys, time
            import numpy as np
            from repro.core.storage import MmapStore
            store = MmapStore()
            arr = store.empty("held", 64, np.int64)
            arr[:] = 1
            print("ready", flush=True)
            time.sleep(60)  # parent SIGKILLs us mid-hold
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_SPILL_DIR=d)
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            live_bins = [f for f in os.listdir(d) if f.endswith(".bin")]
            assert live_bins, "child created no spill file"
            # race: reap while the owner is alive — nothing may vanish
            assert reap_stale_spill() == []
            assert sorted(f for f in os.listdir(d) if f.endswith(".bin")) == sorted(live_bins)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        # owner is gone without cleanup: now the sweep collects everything
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            reap_stale_spill()
            if not [f for f in os.listdir(d) if f.startswith(SPILL_PREFIX)]:
                break
            time.sleep(0.2)
        assert [f for f in os.listdir(d) if f.startswith(SPILL_PREFIX)] == []

    def test_shm_reap_stale_includes_spill_sweep(self, _isolated_spill_dir):
        from repro.parallel.shm import reap_stale

        d = str(_isolated_spill_dir)
        os.makedirs(d, exist_ok=True)
        orphan = os.path.join(d, f"{SPILL_PREFIX}{2**22 + 31}-0-dead.bin")
        open(orphan, "wb").close()
        removed = reap_stale()
        assert orphan in removed and not os.path.exists(orphan)


class TestCheckpointRawPayload:
    def test_big_arrays_use_raw_layout_and_roundtrip(self, tmp_path):
        st_ = CheckpointStore(tmp_path)
        big = np.arange(3_000_000, dtype=np.int64)
        st_.save("swap", swap_round=2, arrays={"u": big, "v": big[::-1].copy()},
                 fingerprint="fp")
        names = os.listdir(tmp_path)
        assert any(n.endswith(".raw") for n in names)
        assert not any(n.endswith(".npz") for n in names)
        snap = st_.load_latest("fp")
        assert isinstance(snap.arrays["u"], np.memmap)
        assert snap.arrays["u"].mode == "r"
        np.testing.assert_array_equal(np.asarray(snap.arrays["u"]), big)
        np.testing.assert_array_equal(np.asarray(snap.arrays["v"]), big[::-1])

    def test_mapped_arrays_force_raw_even_when_small(self, tmp_path):
        store = open_store("mmap")
        arr = store.empty("u", 32, np.int64)
        arr[:] = np.arange(32)
        st_ = CheckpointStore(tmp_path)
        st_.save("swap", arrays={"u": arr}, fingerprint="fp")
        assert any(n.endswith(".raw") for n in os.listdir(tmp_path))
        snap = st_.load_latest("fp")
        np.testing.assert_array_equal(np.asarray(snap.arrays["u"]), np.arange(32))
        store.release()

    def test_small_ram_arrays_keep_npz_layout(self, tmp_path):
        st_ = CheckpointStore(tmp_path)
        st_.save("swap", arrays={"u": np.arange(8)}, fingerprint="fp")
        assert any(n.endswith(".npz") for n in os.listdir(tmp_path))
        assert not any(n.endswith(".raw") for n in os.listdir(tmp_path))

    def test_truncated_raw_payload_falls_back(self, tmp_path):
        st_ = CheckpointStore(tmp_path)
        store = open_store("mmap")
        arr = store.empty("u", 64, np.int64)
        arr[:] = 1
        st_.save("swap", swap_round=1, arrays={"u": arr}, fingerprint="fp")
        arr[:] = 2
        st_.save("swap", swap_round=2, arrays={"u": arr}, fingerprint="fp")
        store.release()
        newest_raw = sorted(f for f in os.listdir(tmp_path) if f.endswith(".raw"))[-1]
        data = (tmp_path / newest_raw).read_bytes()
        (tmp_path / newest_raw).write_bytes(data[:-8])
        snap = st_.load_latest("fp")
        assert snap.swap_round == 1  # fell back past the torn snapshot
        np.testing.assert_array_equal(np.asarray(snap.arrays["u"]), np.full(64, 1))

    def test_prune_and_clear_remove_raw_files(self, tmp_path):
        st_ = CheckpointStore(tmp_path, keep=2)
        store = open_store("mmap")
        arr = store.empty("u", 16, np.int64)
        for round_ in range(4):
            arr[:] = round_
            st_.save("swap", swap_round=round_, arrays={"u": arr},
                     fingerprint="fp")
        raws = [f for f in os.listdir(tmp_path) if f.endswith(".raw")]
        assert len(raws) == 2  # pruned to keep=2
        st_.clear()
        assert [f for f in os.listdir(tmp_path) if f.startswith("snap-")] == []
        store.release()


DRILL_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.core.generate import generate_graph
    from repro.graph.degree import DegreeDistribution
    from repro.parallel.runtime import ParallelConfig
    from repro.parallel.shm import reap_stale

    ckpt_dir, out_path = sys.argv[1], sys.argv[2]
    reap_stale()  # collect artifacts stranded by the killed incarnation
    dist = DegreeDistribution(degrees=[1, 2, 3, 6], counts=[60, 40, 20, 4])
    cfg = ParallelConfig(
        seed=42, threads=2, backend="vectorized",
        store="mmap", memory_budget_bytes=1 << 12,
    )
    out, report = generate_graph(
        dist, swap_iterations=6, config=cfg,
        checkpoint_dir=ckpt_dir, checkpoint_every=1, resume_from=ckpt_dir,
    )
    np.savez(out_path, u=np.asarray(out.u), v=np.asarray(out.v))
    """
)


class TestMmapSigkillResume:
    """SIGKILL an mmap-backed durable run; the resume must match bit for bit."""

    def test_sigkilled_mmap_run_resumes_bitwise_identical(self, tmp_path,
                                                          _isolated_spill_dir):
        dist = _dist()
        ref, _ = generate_graph(
            dist, swap_iterations=6,
            config=ParallelConfig(seed=42, threads=2, backend="vectorized"),
        )
        env = dict(os.environ, PYTHONPATH=SRC,
                   REPRO_SPILL_DIR=str(_isolated_spill_dir))
        ckpt = tmp_path / "store"
        out_path = tmp_path / "out.npz"
        argv = [sys.executable, "-c", DRILL_SCRIPT, str(ckpt), str(out_path)]
        first = subprocess.run(
            argv, env=dict(env, REPRO_FAULTS="parentkill:checkpoint:2"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
        )
        assert first.returncode == -signal.SIGKILL, (
            f"driver survived the parentkill drill: rc={first.returncode}")
        assert not out_path.exists()
        assert any(f.endswith(".json") for f in os.listdir(ckpt)), (
            "no durable snapshot before the kill")
        second = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert second.returncode == 0, second.stderr.decode()
        with np.load(out_path) as data:
            np.testing.assert_array_equal(data["u"], np.asarray(ref.u))
            np.testing.assert_array_equal(data["v"], np.asarray(ref.v))
        # the killed incarnation's spill files are reapable afterwards
        reap_stale_spill()
        assert [f for f in os.listdir(_isolated_spill_dir)
                if f.startswith(SPILL_PREFIX)] == []


class TestTinyBudgetProperty:
    @settings(max_examples=10, deadline=None)
    @given(budget=st.integers(min_value=1, max_value=1 << 12),
           seed=st.integers(min_value=0, max_value=2**20))
    def test_tiny_budget_engages_spill_and_preserves_output(self, budget, seed):
        """Any positive budget below the working set must spill — and the
        spilled run must equal the unconstrained RAM run bit for bit."""
        from repro.obs import RunTrace

        dist = _dist()
        ram_cfg = ParallelConfig(threads=2, backend="vectorized", seed=seed)
        ref, _ = generate_graph(dist, swap_iterations=1, config=ram_cfg)
        assert swap_working_set_bytes(ref.m) > budget  # premise of the test
        tiny_cfg = ParallelConfig(
            threads=2, backend="vectorized", seed=seed,
            store="auto", memory_budget_bytes=budget,
        )
        with RunTrace() as tr:
            out, _ = generate_graph(dist, swap_iterations=1, config=tiny_cfg)
            hist = tr.metrics.histograms.get("store.bytes_mapped")
            peak = float(hist.max) if hist is not None and hist.count else 0.0
        assert peak > 0, "spill did not engage under a tiny budget"
        np.testing.assert_array_equal(np.asarray(out.u), np.asarray(ref.u))
        np.testing.assert_array_equal(np.asarray(out.v), np.asarray(ref.v))
