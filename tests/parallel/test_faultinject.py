"""Fault-injection drills for the supervised process pipeline.

Every recovery path of the process backend is exercised deterministically
here: worker SIGKILL before and midway through a batch (generation, edge
registration, and swap TestAndSet), hung workers reaped by the per-batch
deadline, restart-budget exhaustion degrading to the vectorized backend,
and injected shared-memory failures.  The invariant asserted throughout
is the tentpole's: recovery is **bitwise-invisible** — a faulted run's
output equals the fault-free run's for the same seed — and no
``repro``-prefixed shared-memory segment outlives its run.
"""

import glob
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core.generate import generate_graph
from repro.core.swap import SwapStats, swap_edges
from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList
from repro.parallel.faultinject import (
    FaultPlan,
    FaultSpec,
    parse_plan,
)
from repro.parallel.runtime import ParallelConfig


def _assert_no_repro_segments():
    """No repro-prefixed segment owned by this process remains in /dev/shm."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return
    leaked = glob.glob(f"/dev/shm/repro_{os.getpid()}_*")
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def _ring(m=400, n=400):
    u = np.arange(m, dtype=np.int64)
    v = (u + 1) % n
    return EdgeList(u, v, n)


def _swap_cfg(**kw):
    kw.setdefault("threads", 2)
    kw.setdefault("backend", "process")
    kw.setdefault("seed", 7)
    return ParallelConfig(**kw)


@pytest.fixture
def baseline_swap():
    """Fault-free process-backend swap run to compare faulted runs against."""
    graph = _ring()
    stats = SwapStats()
    out = swap_edges(graph, 3, _swap_cfg(), stats=stats)
    _assert_no_repro_segments()
    return graph, out, stats


class TestPlanParsing:
    def test_empty_yields_none(self):
        assert parse_plan("") is None
        assert parse_plan(None) is None

    def test_kill_spec(self):
        plan = parse_plan("kill:w0:tas:1")
        assert plan.specs == (FaultSpec("kill", 0, "tas", 1),)
        assert plan.shm_failures == 0

    def test_repeat_and_wildcards(self):
        plan = parse_plan("hang:w*:gen:0:x3,shm:2")
        assert plan.specs == (FaultSpec("hang", -1, "gen", 0, times=3),)
        assert plan.shm_failures == 2

    def test_multiple_specs(self):
        plan = parse_plan("kill:w0:tas:0, killmid:w1:insert:2")
        assert len(plan.specs) == 2
        assert plan.specs[1] == FaultSpec("killmid", 1, "insert", 2)

    @pytest.mark.parametrize(
        "bad",
        ["explode:w0:tas:0", "kill:0:tas:0", "kill:w0:tas", "kill:w0:tas:-1",
         "kill:w0:tas:0:3", "shm:1:2"],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError):
            parse_plan(bad)

    def test_after_respawn_disarms_single_shot(self):
        plan = FaultPlan((FaultSpec("kill", 0, "tas", 0),), 0)
        assert not plan.after_respawn(0)
        # other workers' specs survive
        plan = FaultPlan((FaultSpec("kill", 1, "tas", 0),), 0)
        assert plan.after_respawn(0).specs == plan.specs

    def test_after_respawn_decrements_repeats(self):
        plan = FaultPlan((FaultSpec("kill", 0, "tas", 0, times=3),), 0)
        assert plan.after_respawn(0).specs[0].times == 2

    def test_spec_matching(self):
        s = FaultSpec("kill", 1, "tas", 2)
        assert s.matches(1, "tas", 2)
        assert not s.matches(0, "tas", 2)
        assert not s.matches(1, "gen", 2)
        assert not s.matches(1, "tas", 1)
        assert FaultSpec("kill", -1, "*", 0).matches(5, "insert", 0)


class TestSwapRecovery:
    """SIGKILL/hang mid-swap: replay must be bitwise-invisible."""

    def _run(self, graph, faults, **cfg_kw):
        stats = SwapStats()
        out = swap_edges(graph, 3, _swap_cfg(faults=faults, **cfg_kw), stats=stats)
        _assert_no_repro_segments()
        return out, stats

    def test_kill_before_tas_batch(self, baseline_swap):
        graph, expect, _ = baseline_swap
        out, stats = self._run(graph, "kill:w0:tas:2")
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert not stats.degraded
        assert [f.kind for f in stats.faults] == ["died"]

    def test_kill_mid_tas_batch_rolls_back(self, baseline_swap):
        """Half-executed TAS batch: journal rollback, then exact replay."""
        graph, expect, expect_stats = baseline_swap
        out, stats = self._run(graph, "killmid:w1:tas:1")
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert stats.faults and not stats.degraded
        # contention accounting is restored exactly too (compare=False
        # fields excluded: equality is the paper-reported counters)
        assert stats == expect_stats

    def test_kill_mid_registration_insert(self, baseline_swap):
        """Iteration-1 registration killed midway: rollback + replay."""
        graph, expect, _ = baseline_swap
        # registration happens via the pool's tas path in swap_edges
        # (phase 1 uses the same engine); kill its very first batch
        out, stats = self._run(graph, "killmid:w0:tas:0")
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert stats.faults

    def test_hung_worker_reaped_by_deadline(self, baseline_swap):
        graph, expect, _ = baseline_swap
        t0 = time.monotonic()
        out, stats = self._run(graph, "hang:w0:tas:1", batch_deadline=1.5)
        assert time.monotonic() - t0 < 60, "deadline did not fire"
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert [f.kind for f in stats.faults] == ["hung"]
        assert not stats.degraded

    def test_repeated_kills_within_budget(self, baseline_swap):
        graph, expect, _ = baseline_swap
        out, stats = self._run(graph, "kill:w0:tas:0:x2", max_worker_restarts=2)
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert len(stats.faults) == 2 and not stats.degraded

    def test_budget_exhaustion_degrades_bitwise_identical(self, baseline_swap):
        graph, expect, _ = baseline_swap
        out, stats = self._run(graph, "kill:w0:tas:0:x9", max_worker_restarts=2)
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert stats.degraded
        assert len(stats.faults) >= 3  # two recoveries + the fatal one

    def test_injected_shm_failure_degrades(self, baseline_swap):
        graph, expect, _ = baseline_swap
        out, stats = self._run(graph, "shm:1")
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert stats.degraded
        assert [f.kind for f in stats.faults] == ["shm"]

    def test_worker_error_reply_propagates(self):
        """An injected exception (not a death) surfaces as RuntimeError —
        supervision only absorbs faults, never programming errors."""
        graph = _ring()
        with pytest.raises(RuntimeError, match="injected worker fault"):
            swap_edges(graph, 3, _swap_cfg(faults="error:w0:tas:1"))
        _assert_no_repro_segments()


class TestGenerationRecovery:
    """Faults during the fused pipeline's gen/insert/swap phases."""

    def _dist(self):
        return DegreeDistribution([1, 2, 3, 6], [40, 24, 10, 4])

    def _cfg(self, **kw):
        kw.setdefault("threads", 2)
        kw.setdefault("backend", "process")
        kw.setdefault("seed", 11)
        # pin the OS-process count: the host may have fewer cores than
        # the workers the fault plans target (results are identical for
        # any value — only the fault-injection topology needs it fixed)
        kw.setdefault("processes", 2)
        return ParallelConfig(**kw)

    @pytest.fixture
    def baseline_gen(self):
        out, report = generate_graph(
            self._dist(), swap_iterations=3, config=self._cfg()
        )
        assert report.fused and not report.degraded
        _assert_no_repro_segments()
        return out, report

    def _run(self, faults, **cfg_kw):
        out, report = generate_graph(
            self._dist(), swap_iterations=3, config=self._cfg(faults=faults, **cfg_kw)
        )
        _assert_no_repro_segments()
        return out, report

    def test_kill_during_generation_chunk(self, baseline_gen):
        expect, _ = baseline_gen
        out, report = self._run("kill:w1:gen:0")
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.fused and not report.degraded
        assert [f.kind for f in report.faults] == ["died"]
        assert report.faults[0].op == "gen"

    def test_kill_after_gen_completed_before_ack(self, baseline_gen):
        """Gen chunk finished but reply lost with the worker: the replay
        rewrites the same shm slices bit for bit."""
        expect, _ = baseline_gen
        out, report = self._run("killmid:w0:gen:0")
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.fused and not report.degraded

    def test_kill_mid_insert_registration(self, baseline_gen):
        """Zero-rebuild handoff killed mid-insert: journal rollback keeps
        the table state exact for the replay.

        The pipeline serves registration through the fused ``bindins``
        message, which aliases ``insert`` for fault plans — old plans
        keep firing, and the recorded op names the fused message.
        """
        expect, _ = baseline_gen
        out, report = self._run("killmid:w0:insert:0")
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.fused and not report.degraded
        assert report.faults and report.faults[0].op == "bindins"

    def test_kill_during_fused_swap(self, baseline_gen):
        expect, _ = baseline_gen
        out, report = self._run("kill:w0:tas:1")
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.fused and not report.degraded

    def test_exhaustion_degrades_pipeline_to_phased(self, baseline_gen):
        expect, _ = baseline_gen
        out, report = self._run("kill:w0:gen:0:x9", max_worker_restarts=1)
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.degraded and not report.fused
        assert report.faults

    def test_shm_failure_degrades_pipeline(self, baseline_gen):
        expect, _ = baseline_gen
        out, report = self._run("shm:1")
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.degraded and not report.fused
        # two rungs of the ladder each hit the injected failure: the fused
        # attempt, then the phased swap phase (which drops to vectorized)
        assert [f.kind for f in report.faults] == ["shm", "shm"]


class TestReaper:
    def test_reaps_segment_of_dead_process(self):
        """A segment whose name-stamped owner pid is gone gets unlinked."""
        from repro.parallel import shm as shm_mod

        child = os.fork()
        if child == 0:  # pragma: no cover - child process
            # leak deliberately: no close/unlink, no atexit (os._exit)
            arr = shm_mod.SharedArray((64,), np.int64)
            os.write(1, arr.descriptor.name.encode() + b"\n")
            os._exit(0)
        os.waitpid(child, 0)
        stale = [
            os.path.basename(p)
            for p in glob.glob(f"/dev/shm/repro_{child}_*")
        ]
        assert stale, "child did not leak a segment"
        reaped = shm_mod.reap_stale()
        assert set(stale) <= set(reaped)
        assert not glob.glob(f"/dev/shm/repro_{child}_*")

    def test_manifest_of_dead_pid_reaped(self, tmp_path, monkeypatch):
        """Arena manifests stamped with a dead pid trigger segment unlink
        even for segments the name scan alone wouldn't attribute."""
        from repro.parallel import shm as shm_mod

        monkeypatch.setenv("REPRO_SHM_MANIFEST_DIR", str(tmp_path))
        child = os.fork()
        if child == 0:  # pragma: no cover - child process
            arena = shm_mod.PipelineArena()
            arena.allocate("x", (32,), np.int64)
            os._exit(0)
        os.waitpid(child, 0)
        manifests = list(tmp_path.glob("repro-shm-*.json"))
        assert manifests, "child arena wrote no manifest"
        listed = json.loads(manifests[0].read_text())["segments"]
        assert listed
        reaped = shm_mod.reap_stale(manifest_dir=str(tmp_path))
        assert set(listed) <= set(reaped)
        assert not list(tmp_path.glob("repro-shm-*.json"))

    def test_live_segments_survive(self):
        from repro.parallel import shm as shm_mod

        arr = shm_mod.SharedArray((16,), np.int64)
        try:
            shm_mod.reap_stale()
            arr.array[0] = 42  # still mapped and writable
            assert os.path.exists(f"/dev/shm/{arr.descriptor.name}")
        finally:
            arr.close()
        _assert_no_repro_segments()

    def test_reaper_racing_concurrent_live_run(self):
        """reap_stale running *while* another process is mid-run must not
        touch the live run's segments — only the dead leftovers."""
        from repro.parallel import shm as shm_mod

        # a live "run": child creates a segment and blocks until released
        live_parent = os.getpid()
        r_live, w_live = os.pipe()
        r_ready, w_ready = os.pipe()
        live = os.fork()
        if live == 0:  # pragma: no cover - child process
            import select

            arr = shm_mod.SharedArray((64,), np.int64)
            os.write(w_ready, b"x")
            # hold the segment until the parent says so — but never
            # outlive a parent that died before releasing us
            for _ in range(60):
                if select.select([r_live], [], [], 1.0)[0]:
                    break
                if os.getppid() != live_parent:
                    break
            arr.close()
            os._exit(0)
        os.read(r_ready, 1)
        try:
            live_segs = set(
                os.path.basename(p) for p in glob.glob(f"/dev/shm/repro_{live}_*")
            )
            assert live_segs, "live child created no segment"

            # a dead "run": child leaks a segment and exits.  Unregister
            # from the resource tracker first so the leak is
            # deterministic — a SIGKILLed run performs no cleanup either,
            # but a tracker forked inside *this* child would unlink the
            # segment at exit and race the assertions below.
            dead = os.fork()
            if dead == 0:  # pragma: no cover - child process
                from multiprocessing import resource_tracker

                arr = shm_mod.SharedArray((64,), np.int64)
                try:
                    resource_tracker.unregister(arr._shm._name, "shared_memory")
                except Exception:
                    pass
                os._exit(0)
            os.waitpid(dead, 0)
            dead_segs = set(
                os.path.basename(p) for p in glob.glob(f"/dev/shm/repro_{dead}_*")
            )
            assert dead_segs, "dead child leaked no segment"

            # several reapers race each other against the live run
            import threading

            results = []
            threads = [
                threading.Thread(target=lambda: results.append(shm_mod.reap_stale()))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            reaped = [name for r in results for name in r]
            # dead leftovers collected exactly once, live segments untouched
            assert set(reaped) >= dead_segs
            assert len(reaped) == len(set(reaped))
            assert not (set(reaped) & live_segs)
            for name in live_segs:
                assert os.path.exists(f"/dev/shm/{name}")
        finally:
            os.write(w_live, b"x")
            os.waitpid(live, 0)
            for fd in (r_live, w_live, r_ready, w_ready):
                os.close(fd)
        # once the live run ends (cleanly closing its segment), a final
        # sweep finds nothing left to do
        assert not glob.glob(f"/dev/shm/repro_{live}_*")
        _assert_no_repro_segments()


class TestCloseEscalation:
    def test_close_kills_stopped_worker(self):
        """A SIGSTOPped worker can't honor terminate(); close must
        escalate to SIGKILL instead of hanging teardown."""
        from repro.parallel.hashtable import ShardedEdgeHashTable
        from repro.parallel.mp_backend import SwapWorkerPool

        table = ShardedEdgeHashTable(1024, workers_hint=2)
        pool = SwapWorkerPool(table, 2, capacity=1024)
        with table:
            pool.test_and_set(np.arange(10, dtype=np.int64))
            victim = pool._procs[0]
            os.kill(victim.pid, signal.SIGSTOP)
            t0 = time.monotonic()
            pool.close()
            assert time.monotonic() - t0 < 30
            assert not victim.is_alive()
        _assert_no_repro_segments()
