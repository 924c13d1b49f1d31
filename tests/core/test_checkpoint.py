"""Crash-consistent checkpoint/resume tests.

The durability tentpole's invariants:

- a resumed run is **bitwise-identical** to an uninterrupted run with the
  same seed — on the serial, vectorized, and process backends, and when
  resuming a checkpoint taken on a *different* backend (the degradation
  ladder direction);
- checkpoint writes are atomic: a snapshot truncated at any byte is
  detected by its checksum and the previous snapshot is used instead;
- the parent-SIGKILL fault drill (`parentkill` specs fired by the driver
  itself after a durable write) proves the whole story end to end in a
  real subprocess;
- stale-checkpoint GC never touches a live or resumable store.
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

from repro.core.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    reap_stale_checkpoints,
    run_fingerprint,
)
from repro.core.generate import generate_graph
from repro.core.swap import SwapStats, swap_edges
from repro.graph.degree import DegreeDistribution, NonGraphicalError
from repro.graph.edgelist import EdgeList
from repro.parallel.runtime import ParallelConfig

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _graph(seed=0, n=120, m=360) -> EdgeList:
    rng = np.random.default_rng(seed)
    return EdgeList(
        rng.integers(0, n, m).astype(np.int64),
        rng.integers(0, n, m).astype(np.int64),
        n,
    )


def _drop_newest(directory, k=1) -> None:
    """Simulate a crash by removing the newest k snapshot pairs."""
    snaps = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
    for fn in snaps[-k:]:
        os.unlink(os.path.join(directory, fn))
        os.unlink(os.path.join(directory, fn[:-5] + ".npz"))


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        seq = store.save(
            "swap",
            swap_round=3,
            arrays={"u": np.arange(5), "flag": np.asarray([True, False])},
            meta={"rng_state": {"k": 1}},
            fingerprint="fp",
        )
        snap = store.load_latest()
        assert snap is not None and snap.seq == seq
        assert snap.phase == "swap" and snap.swap_round == 3
        assert snap.fingerprint == "fp"
        np.testing.assert_array_equal(snap.arrays["u"], np.arange(5))
        assert snap.meta["rng_state"] == {"k": 1}

    def test_empty_store_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "missing").load_latest() is None

    def test_invalid_phase_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="phase"):
            CheckpointStore(tmp_path).save("warmup")

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for r in range(5):
            store.save("swap", swap_round=r, arrays={"u": np.arange(r + 1)})
        snaps = sorted(f for f in os.listdir(tmp_path) if f.endswith(".json"))
        assert len(snaps) == 2
        assert store.load_latest().swap_round == 4

    def test_seq_continues_across_instances(self, tmp_path):
        CheckpointStore(tmp_path).save("swap", swap_round=1)
        seq = CheckpointStore(tmp_path).save("swap", swap_round=2)
        assert seq == 1
        assert CheckpointStore(tmp_path).load_latest().swap_round == 2

    def test_truncation_at_any_byte_falls_back(self, tmp_path):
        """Acceptance criterion: corrupt the newest payload at *every*
        truncation length; the previous snapshot must always win."""
        store = CheckpointStore(tmp_path, keep=3)
        store.save("swap", swap_round=1, arrays={"u": np.arange(4)})
        store.save("swap", swap_round=2, arrays={"u": np.arange(8)})
        payload = (tmp_path / "snap-00000001.npz").read_bytes()
        for cut in range(len(payload)):
            (tmp_path / "snap-00000001.npz").write_bytes(payload[:cut])
            snap = store.load_latest()
            assert snap is not None and snap.swap_round == 1, f"cut={cut}"
        # restore and confirm the newest wins again
        (tmp_path / "snap-00000001.npz").write_bytes(payload)
        assert store.load_latest().swap_round == 2

    def test_corrupt_manifest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("swap", swap_round=1)
        store.save("swap", swap_round=2)
        (tmp_path / "snap-00000001.json").write_text("{not json")
        assert store.load_latest().swap_round == 1

    def test_version_mismatch_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("swap", swap_round=1)
        store.save("swap", swap_round=2)
        path = tmp_path / "snap-00000001.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 999
        path.write_text(json.dumps(manifest))
        assert store.load_latest().swap_round == 1

    def test_fingerprint_mismatch_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("swap", fingerprint="runA")
        with pytest.raises(CheckpointMismatchError):
            store.load_latest(fingerprint="runB")

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for _ in range(3):
            store.save("swap", arrays={"u": np.arange(10)})
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]

    def test_unwritable_directory_raises_checkpoint_error(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permission bits")
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, 0o500)
        try:
            store = CheckpointStore(target)
            with pytest.raises((CheckpointError, PermissionError)):
                store.save("swap")
        finally:
            os.chmod(target, 0o700)

    def test_clear_removes_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("swap")
        store.clear()
        assert store.load_latest() is None


class TestRunFingerprint:
    def test_deterministic_and_order_free(self):
        assert run_fingerprint(a=1, b="x") == run_fingerprint(b="x", a=1)

    def test_sensitive_to_values(self):
        assert run_fingerprint(seed=1) != run_fingerprint(seed=2)


class TestSwapResume:
    @pytest.mark.parametrize("backend", ["serial", "vectorized", "process"])
    def test_resume_bitwise_identical(self, tmp_path, backend):
        g = _graph()
        cfg = ParallelConfig(seed=42, threads=2, backend=backend)
        ref_stats = SwapStats()
        ref = swap_edges(g, 8, cfg, stats=ref_stats)

        d = tmp_path / backend
        ckpt_stats = SwapStats()
        out = swap_edges(
            g, 8, cfg, stats=ckpt_stats, checkpoint_dir=d, checkpoint_every=2
        )
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.v, ref.v)
        assert ckpt_stats == ref_stats

        _drop_newest(d, 2)  # crash after round 4 of 8
        res_stats = SwapStats()
        res = swap_edges(g, 8, cfg, stats=res_stats, resume_from=d)
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
        assert res_stats == ref_stats

    @pytest.mark.parametrize("take_shards,resume_shards", [(0, 64), (64, 0)])
    def test_cross_shards_resume(self, tmp_path, take_shards, resume_shards):
        """The shard count is an execution knob, not run identity: a
        checkpoint taken under the default shard geometry resumes mid-run
        under 64 shards (and back) bit for bit — the fingerprint must
        exclude it."""
        g = _graph(seed=5)
        ref = swap_edges(g, 6, ParallelConfig(seed=21, threads=2, backend="process"))
        swap_edges(
            g,
            6,
            ParallelConfig(
                seed=21, threads=2, backend="process", shards=take_shards
            ),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        _drop_newest(tmp_path, 1)
        out_stats = SwapStats()
        out = swap_edges(
            g,
            6,
            ParallelConfig(
                seed=21, threads=2, backend="process", shards=resume_shards
            ),
            stats=out_stats,
            resume_from=tmp_path,
        )
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.v, ref.v)

    @pytest.mark.parametrize(
        "take,resume", [("process", "vectorized"), ("vectorized", "serial")]
    )
    def test_cross_backend_resume(self, tmp_path, take, resume):
        """A checkpoint taken on one backend resumes on another — the
        degradation-ladder direction — bit for bit."""
        g = _graph(seed=3)
        ref = swap_edges(g, 6, ParallelConfig(seed=9, threads=2, backend=take))
        swap_edges(
            g,
            6,
            ParallelConfig(seed=9, threads=2, backend=take),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        _drop_newest(tmp_path, 1)
        out = swap_edges(
            g,
            6,
            ParallelConfig(seed=9, threads=2, backend=resume),
            resume_from=tmp_path,
        )
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.v, ref.v)

    def test_resume_from_every_retained_round(self, tmp_path):
        g = _graph(seed=5)
        cfg = ParallelConfig(seed=1, threads=2)
        ref = swap_edges(g, 6, cfg)
        swap_edges(g, 6, cfg, checkpoint_dir=tmp_path, checkpoint_every=1)
        store = CheckpointStore(tmp_path)
        rounds = sorted(
            {store._decode(s, p).swap_round for s, p in store._manifests()}
        )
        assert rounds  # keep=3 retains the last few rounds
        for r in rounds:
            snap = next(
                store._decode(s, p)
                for s, p in sorted(store._manifests())
                if store._decode(s, p).swap_round == r
            )
            out = swap_edges(g, 6, cfg, resume_from=snap)
            np.testing.assert_array_equal(out.u, ref.u)

    def test_resume_finished_run_is_noop_replay(self, tmp_path):
        g = _graph(seed=6)
        cfg = ParallelConfig(seed=2, threads=2)
        ref = swap_edges(g, 4, cfg, checkpoint_dir=tmp_path, checkpoint_every=1)
        out = swap_edges(g, 4, cfg, resume_from=tmp_path)
        np.testing.assert_array_equal(out.u, ref.u)

    def test_wrong_run_raises_mismatch(self, tmp_path):
        g = _graph(seed=7)
        swap_edges(
            g,
            4,
            ParallelConfig(seed=1, threads=2),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        with pytest.raises(CheckpointMismatchError):
            swap_edges(
                g, 4, ParallelConfig(seed=99, threads=2), resume_from=tmp_path
            )

    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            swap_edges(_graph(), 2, ParallelConfig(seed=1), checkpoint_every=2)

    def test_empty_store_resume_starts_fresh(self, tmp_path):
        g = _graph(seed=8)
        cfg = ParallelConfig(seed=3, threads=2)
        ref = swap_edges(g, 3, cfg)
        out = swap_edges(g, 3, cfg, resume_from=tmp_path)
        np.testing.assert_array_equal(out.u, ref.u)

    def test_callback_not_replayed_for_finished_rounds(self, tmp_path):
        g = _graph(seed=9)
        cfg = ParallelConfig(seed=4, threads=2)
        swap_edges(g, 6, cfg, checkpoint_dir=tmp_path, checkpoint_every=2)
        _drop_newest(tmp_path, 1)  # newest retained round is now 4
        seen = []
        swap_edges(
            g, 6, cfg, resume_from=tmp_path, callback=lambda it, _: seen.append(it)
        )
        assert seen == [4, 5]


class TestGenerateResume:
    def test_phase_snapshots_and_done_short_circuit(self, tmp_path, small_dist):
        cfg = ParallelConfig(seed=11, threads=2)
        ref, ref_report = generate_graph(small_dist, swap_iterations=4, config=cfg)
        out, report = generate_graph(
            small_dist,
            swap_iterations=4,
            config=cfg,
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        np.testing.assert_array_equal(out.u, ref.u)
        assert not report.resumed
        assert CheckpointStore(tmp_path).load_latest().phase == "done"

        res, res_report = generate_graph(
            small_dist, swap_iterations=4, config=cfg, resume_from=tmp_path
        )
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
        assert res_report.resumed
        assert res_report.swap_stats == report.swap_stats

    def test_mid_swap_resume(self, tmp_path, small_dist):
        cfg = ParallelConfig(seed=12, threads=2)
        ref, ref_report = generate_graph(small_dist, swap_iterations=6, config=cfg)
        generate_graph(
            small_dist,
            swap_iterations=6,
            config=cfg,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
        )
        _drop_newest(tmp_path, 2)  # lose 'done' and the last swap round
        res, report = generate_graph(
            small_dist,
            swap_iterations=6,
            config=cfg,
            resume_from=tmp_path,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
        )
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
        assert report.resumed
        assert report.swap_stats == ref_report.swap_stats

    def test_process_checkpoint_resumes_on_vectorized(self, tmp_path, small_dist):
        pcfg = ParallelConfig(seed=13, threads=2, backend="process")
        ref, _ = generate_graph(small_dist, swap_iterations=4, config=pcfg)
        _, report = generate_graph(
            small_dist,
            swap_iterations=4,
            config=pcfg,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
        )
        assert report.fused
        _drop_newest(tmp_path, 2)
        res, res_report = generate_graph(
            small_dist,
            swap_iterations=4,
            config=ParallelConfig(seed=13, threads=2),
            resume_from=tmp_path,
        )
        assert res_report.resumed
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)

    def test_non_graphical_rejected_at_boundary(self):
        with pytest.raises(NonGraphicalError, match="not graphical"):
            generate_graph(DegreeDistribution([3], [2]), config=ParallelConfig(seed=1))


DRILL_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.core.swap import swap_edges
    from repro.graph.edgelist import EdgeList
    from repro.parallel.runtime import ParallelConfig
    from repro.parallel.shm import reap_stale

    backend, ckpt_dir, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
    reap_stale()  # collect segments stranded by the killed incarnation
    rng = np.random.default_rng(0)
    n, m = 120, 360
    g = EdgeList(
        rng.integers(0, n, m).astype(np.int64),
        rng.integers(0, n, m).astype(np.int64),
        n,
    )
    cfg = ParallelConfig(seed=42, threads=2, backend=backend)
    out = swap_edges(
        g, 6, cfg, checkpoint_dir=ckpt_dir, checkpoint_every=1,
        resume_from=ckpt_dir,
    )
    np.savez(out_path, u=out.u, v=out.v)
    """
)


class TestParentKillDrill:
    """SIGKILL the driver mid-swap; the resumed run must match bit for bit."""

    def _run_drill(self, tmp_path, backend, faults):
        env = dict(os.environ, PYTHONPATH=SRC)
        ckpt = tmp_path / "store"
        out_path = tmp_path / "out.npz"
        argv = [
            sys.executable,
            "-c",
            DRILL_SCRIPT,
            backend,
            str(ckpt),
            str(out_path),
        ]
        # No pipe capture on the kill run: orphaned pool workers inherit
        # stdout/stderr and would keep the pipes open past the SIGKILL.
        first = subprocess.run(
            argv,
            env=dict(env, REPRO_FAULTS=faults),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        assert (
            first.returncode == -signal.SIGKILL
        ), f"driver survived the parentkill drill: rc={first.returncode}"
        assert not out_path.exists()
        snaps = [f for f in os.listdir(ckpt) if f.endswith(".json")]
        assert snaps, "no durable snapshot before the kill"
        second = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert second.returncode == 0, second.stderr.decode()
        self._assert_orphans_exit(str(ckpt))
        with np.load(out_path) as data:
            return data["u"].copy(), data["v"].copy()

    @staticmethod
    def _assert_orphans_exit(marker, timeout=20.0):
        """Pool workers orphaned by the SIGKILL must notice the
        reparenting and exit on their own within the poll interval."""
        deadline = time.monotonic() + timeout
        while True:
            alive = []
            for pid in os.listdir("/proc"):
                if not pid.isdigit() or pid == str(os.getpid()):
                    continue
                try:
                    with open(f"/proc/{pid}/cmdline", "rb") as fh:
                        cmdline = fh.read()
                except OSError:
                    continue
                if marker.encode() in cmdline:
                    alive.append(pid)
            if not alive:
                return
            if time.monotonic() > deadline:
                raise AssertionError(f"orphaned drill workers survive: {alive}")
            time.sleep(0.5)

    @pytest.mark.parametrize("backend", ["serial", "vectorized", "process"])
    def test_sigkilled_run_resumes_bitwise_identical(self, tmp_path, backend):
        g = _graph()
        ref = swap_edges(g, 6, ParallelConfig(seed=42, threads=2, backend=backend))
        u, v = self._run_drill(tmp_path, backend, "parentkill:checkpoint:2")
        np.testing.assert_array_equal(u, ref.u)
        np.testing.assert_array_equal(v, ref.v)

    def test_kill_after_first_checkpoint(self, tmp_path):
        g = _graph()
        ref = swap_edges(g, 6, ParallelConfig(seed=42, threads=2))
        u, v = self._run_drill(tmp_path, "vectorized", "parentkill:checkpoint:0")
        np.testing.assert_array_equal(u, ref.u)
        np.testing.assert_array_equal(v, ref.v)


class TestReapStaleCheckpoints:
    def test_dead_tmp_removed_live_tmp_kept(self, tmp_path):
        dead = tmp_path / f".tmp-999999999-aa.npz"
        dead.write_bytes(b"half")
        live = tmp_path / f".tmp-{os.getpid()}-bb.npz"
        live.write_bytes(b"half")
        removed = reap_stale_checkpoints(tmp_path)
        assert str(dead) in removed
        assert not dead.exists() and live.exists()

    def test_done_store_of_dead_pid_reaped(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.save("done", arrays={"u": np.arange(3)})
        manifest_path = tmp_path / "run" / "snap-00000000.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["pid"] = 999999999
        manifest_path.write_text(json.dumps(manifest))
        removed = reap_stale_checkpoints(tmp_path)
        assert removed and not (tmp_path / "run").exists()

    def test_done_store_of_live_pid_kept(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.save("done")  # stamped with this (live) pid
        assert reap_stale_checkpoints(tmp_path) == []
        assert store.load_latest() is not None

    def test_mid_swap_store_of_dead_pid_kept(self, tmp_path):
        """A crashed run's store is the resume source — never reaped."""
        store = CheckpointStore(tmp_path / "run")
        store.save("swap", swap_round=3, arrays={"u": np.arange(3)})
        manifest_path = tmp_path / "run" / "snap-00000000.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["pid"] = 999999999
        manifest_path.write_text(json.dumps(manifest))
        assert reap_stale_checkpoints(tmp_path) == []
        assert store.load_latest().swap_round == 3

    def test_missing_root_is_noop(self, tmp_path):
        assert reap_stale_checkpoints(tmp_path / "nope") == []
