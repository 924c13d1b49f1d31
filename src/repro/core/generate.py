"""End-to-end generation from a degree distribution (Algorithm IV.1).

``GenerateGraph({D, N})`` composes the three phases:

1. ``P  ← GenerateProbabilities({D, N})``   (Section IV-A)
2. ``E  ← GenerateEdges(P, {D, N})``        (Section IV-B)
3. ``E' ← SwapEdges(E)``                    (Section III-A)

Two compositions exist:

- **phased** (default for the vectorized/serial backends): each phase is
  a cold call; ``swap_edges`` re-ingests the edge list into a fresh hash
  table and spins up its own worker pool.
- **fused** (default for ``backend="process"``): a
  :class:`~repro.parallel.shm.PipelineArena` holds every cross-phase
  shared-memory buffer, one
  :class:`~repro.parallel.mp_backend.PipelineWorkerPool` survives from
  GenerateEdges through all swap iterations, and generation workers
  insert edges into the sharded hash table themselves — the swap phase
  starts with a fully populated table (its iteration-0 build step is
  deleted).  The fused output is bitwise-identical to the phased path
  for a fixed seed; see ``docs/parallel-model.md``.

:func:`generate_graph` returns the final edge list together with a
:class:`GenerationReport` carrying per-phase wall times (Figure 6), the
work/span cost model (scaling studies), and the swap statistics
(Section VIII-C).
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.checkpoint import as_store, run_fingerprint
from repro.core.edge_skip import fused_chunk_sample, generate_edges, prepare_spaces
from repro.core.probabilities import ProbabilityResult, generate_probabilities
from repro.core.storage import (
    generation_working_set_bytes,
    open_store,
    plan_storage,
    swap_working_set_bytes,
)
from repro.core.swap import (
    SwapStats,
    _maybe_span,
    _stats_from_meta,
    _stats_to_meta,
    _SwapCheckpointer,
    fused_swap_loop,
    swap_edges,
)
from repro.graph.degree import (
    DegreeDistribution,
    NonGraphicalError,
    graphicality_violation,
)
from repro.graph.edgelist import EdgeList
from repro.obs import trace as obs_trace
from repro.obs.metrics import record_memory_stats, record_table_stats
from repro.obs.mixing import MixingProbe
from repro.parallel import faultinject
from repro.parallel.cost_model import CostModel
from repro.parallel.hashtable import (
    ShardedEdgeHashTable,
    effective_shard_count,
    estimate_table_nbytes,
)
from repro.parallel.mp_backend import PipelineWorkerPool, available_workers
from repro.parallel.rng import spawn_generators
from repro.parallel.runtime import ParallelConfig, chunk_bounds
from repro.parallel.shm import PipelineArena
from repro.verify import IntegrityError, verify_graph

__all__ = ["GenerationReport", "generate_graph", "generation_fingerprint"]


def generation_fingerprint(
    dist, swap_iterations, config, probability_kwargs=None
) -> str:
    """Resume-compatibility fingerprint of a :func:`generate_graph` run.

    One fingerprint covers every phase's snapshots: it pins the degree
    distribution, seed, logical thread count, swap budget, and the
    probability-heuristic options — but not the backend or process
    count, so a run checkpointed on one backend resumes on any other.
    The serving layer (:mod:`repro.serve`) uses the same digest as its
    content-addressed result-cache key: two requests share a fingerprint
    exactly when an uninterrupted run would produce bitwise-identical
    output for both.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dist.degrees).tobytes())
    h.update(np.ascontiguousarray(dist.counts).tobytes())
    return run_fingerprint(
        kind="generate",
        dist_sha256=h.hexdigest(),
        swap_iterations=int(swap_iterations),
        seed=repr(config.seed),
        threads=int(config.threads),
        probability_kwargs=repr(sorted((probability_kwargs or {}).items())),
    )


def _merge_phase_seconds(base: dict, tail: dict) -> dict:
    """Per-phase sum of two timing dicts (cumulative accounting)."""
    out = {str(k): float(s) for k, s in base.items()}
    for k, s in tail.items():
        out[str(k)] = out.get(str(k), 0.0) + float(s)
    return out


def _sample_memory() -> None:
    """Sample the memory gauges at a phase boundary (traced runs only).

    ``mem.rss_peak`` and ``store.bytes_mapped`` land in the run's metrics
    registry and hence in the ``metrics.snapshot`` trace tail.
    """
    tr = obs_trace.current()
    if tr is not None:
        record_memory_stats(tr.metrics)


@dataclass
class GenerationReport:
    """Everything measured during one :func:`generate_graph` run."""

    dist: DegreeDistribution
    probabilities: ProbabilityResult
    swap_stats: SwapStats
    cost: CostModel
    #: wall seconds per phase — of *this process's* execution only; on a
    #: resumed run that is the replayed tail (see
    #: :attr:`prior_phase_seconds` / :attr:`cumulative_phase_seconds`)
    phase_seconds: dict = field(default_factory=dict)
    edges_generated: int = 0
    #: true end-to-end wall time measured around this :func:`generate_graph`
    #: call — on a resumed run, the tail only
    wall_seconds: float | None = None
    #: cumulative per-phase seconds banked by the interrupted run(s) this
    #: one resumed from (restored from the checkpoint); empty on a fresh run
    prior_phase_seconds: dict = field(default_factory=dict)
    #: whether the fused process pipeline executed this run
    fused: bool = False
    #: the fused pipeline fell back down the degradation ladder mid-run
    #: (worker-restart budget exhausted, or shared memory unavailable):
    #: phased process generation, with the swap phase degrading further to
    #: the vectorized engine if its own pool also fails.  Every rung is
    #: bitwise-identical — the output is unaffected, only the execution path
    degraded: bool = False
    #: FaultEvent records: every supervised worker recovery, plus the
    #: final degradation trigger when :attr:`degraded` is set
    faults: list = field(default_factory=list)
    #: this run resumed from a crash-consistent checkpoint (its
    #: ``phase_seconds``/``wall_seconds``/``cost`` cover only the replayed
    #: tail; ``cumulative_*`` fold in the interrupted attempts' spend; the
    #: edge list and swap statistics are those of the full run)
    resumed: bool = False

    @property
    def total_seconds(self) -> float:
        """End-to-end wall time of this call (the tail, when resumed)."""
        if self.wall_seconds is not None:
            return self.wall_seconds
        return sum(self.phase_seconds.values())

    @property
    def cumulative_phase_seconds(self) -> dict:
        """Per-phase seconds summed over every attempt of this run.

        Prior attempts' spend (restored from the checkpoint) plus this
        call's tail.  A resumed process re-executes some work — e.g. it
        recomputes probabilities before loading a swap snapshot — and
        that spend is real, so phases may be counted once per attempt.
        """
        return _merge_phase_seconds(self.prior_phase_seconds, self.phase_seconds)

    @property
    def cumulative_seconds(self) -> float:
        """Total seconds across every attempt: banked prior + this call."""
        return sum(self.prior_phase_seconds.values()) + self.total_seconds


def generate_graph(
    dist: DegreeDistribution,
    *,
    swap_iterations: int = 10,
    config: ParallelConfig | None = None,
    probabilities: ProbabilityResult | None = None,
    probability_kwargs: dict | None = None,
    callback=None,
    mixing_every: int = 0,
    pipeline: bool | None = None,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume_from=None,
) -> tuple[EdgeList, GenerationReport]:
    """Generate a simple uniformly random graph from ``{D, N}``.

    Parameters
    ----------
    dist:
        Target degree distribution.
    swap_iterations:
        Full double-edge-swap passes after generation.  The paper
        observes ~10 iterations suffice for all edges to swap and the
        attachment probabilities to reach steady state; 0 returns the
        biased (but simple) edge-skip output directly.
    probabilities:
        Pre-computed :class:`ProbabilityResult` to reuse across runs.
    probability_kwargs:
        Forwarded to :func:`~repro.core.probabilities.generate_probabilities`.
    callback:
        Forwarded to :func:`~repro.core.swap.swap_edges` (per-iteration
        snapshots for mixing studies).
    mixing_every:
        When > 0, sample swap-chain mixing diagnostics every that many
        iterations (see :mod:`repro.obs.mixing`); the trajectory lands in
        ``report.swap_stats.mixing`` and is bitwise-identical across
        backends for a fixed seed.
    pipeline:
        Fused-pipeline selection for ``backend="process"``: ``None``
        (default) runs the fused pipeline automatically, ``False``
        forces the phased composition (the differential tests compare
        the two), ``True`` requests fused explicitly.  Other backends
        always run phased; the outputs are bitwise-identical either
        way.
    checkpoint_dir:
        Directory (or :class:`~repro.core.checkpoint.CheckpointStore`)
        receiving crash-consistent snapshots at phase boundaries
        (probabilities → edges → swap → done) and, with
        ``checkpoint_every > 0``, every that-many swap iterations.
    checkpoint_every:
        Mid-swap snapshot cadence in iterations (0 = phase boundaries
        only).
    resume_from:
        Checkpoint store/directory of an interrupted run with the same
        inputs and seed; completed phases are skipped and the swap chain
        re-enters at the snapshotted round.  The resumed output is
        bitwise-identical to an uninterrupted run; fingerprint
        mismatches raise
        :class:`~repro.core.checkpoint.CheckpointMismatchError`.

    Raises
    ------
    NonGraphicalError
        If the degree distribution fails the Erdős–Gallai test — no
        simple graph realizes it, so the request is rejected at the
        boundary with the first violated prefix named instead of
        failing obscurely mid-sampling.

    Returns
    -------
    (EdgeList, GenerationReport)
    """
    config = config or ParallelConfig()
    tr = obs_trace.current()
    if tr is None:
        return _generate(
            dist, swap_iterations, config, probabilities, probability_kwargs,
            callback, mixing_every, pipeline, checkpoint_dir, checkpoint_every,
            resume_from,
        )
    with tr.span(
        "generate", backend=config.backend, threads=config.threads,
        n=dist.n, swap_iterations=swap_iterations,
    ) as root:
        out, report = _generate(
            dist, swap_iterations, config, probabilities, probability_kwargs,
            callback, mixing_every, pipeline, checkpoint_dir, checkpoint_every,
            resume_from,
        )
        root.set(
            fused=report.fused, degraded=report.degraded,
            resumed=report.resumed, edges=report.edges_generated,
        )
        tr.metrics.set_gauge("generate.edges", report.edges_generated)
        return out, report


def _generate(
    dist: DegreeDistribution,
    swap_iterations: int,
    config: ParallelConfig,
    probabilities: ProbabilityResult | None,
    probability_kwargs: dict | None,
    callback,
    mixing_every: int,
    pipeline: bool | None,
    checkpoint_dir,
    checkpoint_every: int,
    resume_from,
) -> tuple[EdgeList, GenerationReport]:
    """The untraced body of :func:`generate_graph` (same contract)."""
    violation = graphicality_violation(dist.expand())
    if violation is not None:
        raise NonGraphicalError(
            f"degree distribution is not graphical: {violation}"
        )
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    store = as_store(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_every and store is None:
        raise ValueError("checkpoint_every requires checkpoint_dir")
    fingerprint = ""
    resume_snap = None
    if store is not None or resume_from is not None:
        faultinject.arm_from(config)
        fingerprint = generation_fingerprint(
            dist, swap_iterations, config, probability_kwargs
        )
        if resume_from is not None:
            resume_snap = as_store(resume_from).load_latest(
                fingerprint=fingerprint
            )
    cost = CostModel()
    phase_seconds: dict[str, float] = {}
    # cumulative spend the interrupted run(s) banked in the snapshot; the
    # tail's own timings stay separate so the report can show both
    prior_phase_seconds: dict[str, float] = {}
    if resume_snap is not None:
        prior_phase_seconds = {
            str(k): float(s)
            for k, s in (resume_snap.meta.get("phase_seconds") or {}).items()
        }
    wall0 = time.perf_counter()

    t0 = time.perf_counter()
    with _maybe_span("phase:probabilities"):
        if probabilities is None:
            probabilities = generate_probabilities(
                dist, cost=cost, **(probability_kwargs or {})
            )
    phase_seconds["probabilities"] = time.perf_counter() - t0
    if cost.phases and cost.phases[-1].name == "probabilities":
        cost.phases[-1].seconds = phase_seconds["probabilities"]
    _sample_memory()

    if resume_snap is not None and resume_snap.phase == "done":
        # the interrupted run had already finished and snapshotted its
        # result; hand it back without regenerating anything
        out = EdgeList(
            np.ascontiguousarray(resume_snap.arrays["u"], dtype=np.int64),
            np.ascontiguousarray(resume_snap.arrays["v"], dtype=np.int64),
            dist.n,
        )
        swap_stats = _stats_from_meta(resume_snap.meta.get("stats"))
        return out, GenerationReport(
            dist=dist,
            probabilities=probabilities,
            swap_stats=swap_stats,
            cost=cost,
            phase_seconds=phase_seconds,
            edges_generated=int(resume_snap.meta.get("edges_generated", out.m)),
            wall_seconds=time.perf_counter() - wall0,
            prior_phase_seconds=prior_phase_seconds,
            resumed=True,
        )

    if store is not None and resume_snap is None:
        # phase snapshots are written only on a fresh run: a resumed run
        # must never let an earlier-phase snapshot outrank (and prune)
        # the later-phase one it is resuming from
        store.save(
            "probabilities",
            arrays={"P": probabilities.P},
            meta={"phase_seconds": dict(phase_seconds)},
            fingerprint=fingerprint,
        )

    want_fused = pipeline if pipeline is not None else True
    if resume_snap is not None:
        # resume always takes the phased composition: it is
        # bitwise-identical to the fused pipeline, and the phased
        # swap path owns mid-chain re-entry
        want_fused = False
    degraded = False
    run_faults: list = []
    if want_fused and config.backend == "process":
        from repro.parallel import shm
        from repro.parallel.mp_backend import PoolFaultError

        faultinject.arm_from(config)
        fused = None
        if shm.HAVE_SHM:
            # attempt-local accumulators: a mid-pipeline fault must not
            # leave half an attempt's phases behind in the caller's cost
            # model before the vectorized fallback re-runs from scratch
            attempt_cost = CostModel()
            attempt_phases: dict[str, float] = {}
            try:
                fused = _generate_fused(
                    dist, swap_iterations, config, probabilities, callback,
                    attempt_cost, attempt_phases, store=store,
                    checkpoint_every=checkpoint_every, fingerprint=fingerprint,
                    mixing_every=mixing_every,
                    timing_base=dict(phase_seconds),
                )
            except PoolFaultError as exc:
                degraded = True
                run_faults = list(exc.faults)
            except IntegrityError:
                # detected corruption inside the fused attempt: quarantine
                # the arena and replay on the phased rung below (resuming
                # from the newest validated snapshot when one exists)
                degraded = True
                run_faults = [faultinject.FaultEvent(-1, "integrity")]
            except OSError:
                degraded = True
                run_faults = [faultinject.FaultEvent(-1, "shm")]
            finally:
                faultinject.disarm_shm_faults()
        else:
            degraded = True
            run_faults = [faultinject.FaultEvent(-1, "unavailable")]
        if fused is not None:
            out, swap_stats, edges_m, pool_faults = fused
            cost.merge(attempt_cost)
            phase_seconds.update(attempt_phases)
            if store is not None:
                store.save(
                    "done",
                    arrays={"u": out.u, "v": out.v},
                    meta={
                        "stats": _stats_to_meta(swap_stats),
                        "edges_generated": int(edges_m),
                        "phase_seconds": dict(phase_seconds),
                    },
                    fingerprint=fingerprint,
                )
            return out, GenerationReport(
                dist=dist,
                probabilities=probabilities,
                swap_stats=swap_stats,
                cost=cost,
                phase_seconds=phase_seconds,
                edges_generated=edges_m,
                wall_seconds=time.perf_counter() - wall0,
                fused=True,
                degraded=swap_stats.degraded,
                faults=pool_faults + list(swap_stats.faults),
            )
        # degradation ladder, step 1: fall through to the *phased*
        # composition below with the process config intact.  Phased
        # generation runs on the independent ProcessPoolExecutor path
        # (no shared memory, pure chunk kernels replayed inline if that
        # pool breaks too), which reproduces the fused edge stream bit
        # for bit; swap_edges owns step 2 of the ladder (supervised
        # process pool -> vectorized engine, also bitwise-identical).
        # Snapshots the failed fused attempt wrote at its boundaries are
        # durable and correct — continue from the newest instead of
        # regenerating from scratch.
        if store is not None:
            resume_snap = store.load_latest(fingerprint=fingerprint)

    resuming = resume_snap is not None and resume_snap.phase in ("edges", "swap")
    # expected edge count (half the total degree) sizes the generation
    # phase's storage plan before any edge exists
    expected_m = int(np.dot(dist.degrees, dist.counts)) // 2
    gen_plan = plan_storage(
        config,
        working_set_bytes=generation_working_set_bytes(expected_m),
        phase="generation",
    )
    gen_store = None
    if gen_plan.store == "mmap" and not resuming:
        gen_store = open_store("mmap")
        tr = obs_trace.current()
        if tr is not None:
            tr.event(
                "tune.replan", phase="storage", store="mmap",
                window=gen_plan.window, table_spill=False,
                edges=expected_m, reason=gen_plan.reason,
            )
    t0 = time.perf_counter()
    with _maybe_span("phase:edge_generation", resumed=resuming):
        if resuming:
            edges = EdgeList(
                np.ascontiguousarray(resume_snap.arrays["u"], dtype=np.int64),
                np.ascontiguousarray(resume_snap.arrays["v"], dtype=np.int64),
                dist.n,
            )
        else:
            edges = generate_edges(
                probabilities.P, dist, config, cost=cost, store=gen_store
            )
    phase_seconds["edge_generation"] = time.perf_counter() - t0
    if cost.phases and cost.phases[-1].name == "edge_generation":
        cost.phases[-1].seconds = phase_seconds["edge_generation"]
    _sample_memory()
    if config.verify != "off" and edges.m:
        # phase-boundary check: endpoint bounds only — the edge-skip
        # output's simplicity and the degree contract are the swap
        # phase's invariants, asserted there
        verify_graph(
            edges.u, edges.v, dist.n, tier=config.verify,
            check_loops=False, check_duplicates=False, label="edges",
        )
    if store is not None and not resuming:
        store.save(
            "edges",
            arrays={"u": edges.u, "v": edges.v},
            meta={"phase_seconds": dict(phase_seconds)},
            fingerprint=fingerprint,
        )

    t0 = time.perf_counter()
    swap_stats = SwapStats()
    with _maybe_span("phase:swap"):
        swap_kwargs = dict(
            cost=cost,
            callback=callback,
            mixing_every=mixing_every,
            checkpoint_dir=store,
            checkpoint_every=checkpoint_every,
            _fingerprint=fingerprint or None,
            # mid-swap snapshots bank cumulative spend: the prior runs'
            # plus this tail's earlier phases
            _timing_base=_merge_phase_seconds(prior_phase_seconds, phase_seconds),
        )
        try:
            out = swap_edges(
                edges,
                swap_iterations,
                config,
                stats=swap_stats,
                resume_from=(
                    resume_snap
                    if resume_snap is not None and resume_snap.phase == "swap"
                    else None
                ),
                **swap_kwargs,
            )
        except IntegrityError:
            if store is None:
                raise
            # quarantine-and-repair: the whole attempt's in-memory state
            # is suspect, but its durable snapshots were validated before
            # being written (and are digest-checked at load) — replay
            # once from the newest one.  A second detection propagates.
            tr = obs_trace.current()
            if tr is not None:
                tr.event("integrity.swap_retry", fingerprint=fingerprint)
                tr.metrics.inc("integrity.repairs")
            degraded = True
            run_faults = run_faults + [faultinject.FaultEvent(-1, "integrity")]
            swap_stats = SwapStats()
            out = swap_edges(
                edges,
                swap_iterations,
                config,
                stats=swap_stats,
                resume_from=store,
                **swap_kwargs,
            )
    phase_seconds["swap"] = time.perf_counter() - t0
    _sample_memory()
    if gen_store is not None:
        # the swap phase owns its own store-backed copies (and the
        # "edges" snapshot is durable), so the generation spill files can
        # be settled now; `edges`'s mappings stay valid until GC
        gen_store.release()
    if store is not None:
        store.save(
            "done",
            arrays={"u": out.u, "v": out.v},
            meta={
                "stats": _stats_to_meta(swap_stats),
                "edges_generated": edges.m,
                "phase_seconds": _merge_phase_seconds(
                    prior_phase_seconds, phase_seconds
                ),
            },
            fingerprint=fingerprint,
        )

    report = GenerationReport(
        dist=dist,
        probabilities=probabilities,
        swap_stats=swap_stats,
        cost=cost,
        phase_seconds=phase_seconds,
        edges_generated=edges.m,
        wall_seconds=time.perf_counter() - wall0,
        prior_phase_seconds=prior_phase_seconds,
        degraded=degraded or swap_stats.degraded,
        faults=run_faults + list(swap_stats.faults),
        resumed=resume_snap is not None,
    )
    return out, report


def _generate_fused(
    dist: DegreeDistribution,
    swap_iterations: int,
    config: ParallelConfig,
    probabilities: ProbabilityResult,
    callback,
    cost: CostModel,
    phase_seconds: dict,
    store=None,
    checkpoint_every: int = 0,
    fingerprint: str = "",
    mixing_every: int = 0,
    timing_base: dict | None = None,
) -> tuple[EdgeList, SwapStats, int, list] | None:
    """Fused process-parallel composition of GenerateEdges + SwapEdges.

    One :class:`PipelineArena` owns every cross-phase shared-memory
    buffer; one :class:`PipelineWorkerPool` spawn serves generation,
    edge registration, and all swap iterations.  Generation workers
    write edges into the arena *and* group their packed keys by owning
    worker, so the swap phase's table is populated by a zero-rebuild
    handoff (each worker inserts its own shards' keys in global edge
    order, reproducing the phased registration's per-shard batches bit
    for bit).

    Reproducibility is pinned to ``config.threads`` (chunk seeds, chunk
    bounds, shard geometry); ``config.processes`` only chooses how many
    OS processes execute the plan.  Returns ``None`` when a degenerate
    input (``<= 1`` sample space, zero edges) takes a different inline
    code path in the phased composition — the caller then falls back so
    outputs stay bitwise-identical.
    """
    # phase spans are managed through an ExitStack (not `with` blocks)
    # because the phase boundaries straddle this function's early-return
    # and cleanup structure; the stack is re-closed in the finally so an
    # abandoned attempt still records its partial phase span
    obs_spans = contextlib.ExitStack()
    t0 = time.perf_counter()
    obs_spans.enter_context(_maybe_span("phase:edge_generation", fused=True))
    spaces = prepare_spaces(probabilities.P, dist, config)
    n_spaces = len(spaces["p"])
    if n_spaces <= 1:
        # the phased process path samples <= 1 space inline with the
        # config generator's stream; keep that exact stream by falling back
        obs_spans.close()
        return None
    offsets = dist.class_offsets(config)
    p_threads = config.threads
    bounds = chunk_bounds(n_spaces, p_threads)
    seeds = [int(g.integers(0, 2**63)) for g in spawn_generators(config.seed, p_threads)]
    jobs = [
        (int(bounds[k]), int(bounds[k + 1]), seeds[k])
        for k in range(p_threads)
        if bounds[k + 1] > bounds[k]
    ]
    n_owners = config.processes or available_workers(config.threads)
    n_shards = effective_shard_count(config.shards or None, config.threads)

    # per-chunk buffer capacity: expectation plus six-sigma Poisson slack
    expect = [
        float((spaces["p"][lo:hi] * spaces["end"][lo:hi]).sum()) for lo, hi, _ in jobs
    ]
    caps = np.asarray(
        [int(e + 6.0 * np.sqrt(e + 1.0) + 64.0) for e in expect], dtype=np.int64
    )
    chunk_off = np.zeros(len(jobs) + 1, dtype=np.int64)
    np.cumsum(caps, out=chunk_off[1:])

    # /dev/shm capacity preflight: the whole-run footprint is known up
    # front (generation buffers now, table + exchange buffers later, with
    # the buffer capacity bounding the edge count), so an undersized
    # /dev/shm degrades to the phased no-shm composition here — via the
    # ShmCapacityError(OSError) ladder — instead of dying on ENOSPC
    # halfway through a run
    cap_total = int(chunk_off[-1])
    footprint = cap_total * 24 + len(jobs) * n_owners * 8
    if swap_iterations > 0:
        footprint += estimate_table_nbytes(
            2 * cap_total + 16, n_shards, config.threads
        )
        footprint += cap_total * 9  # tas key + flag exchange buffers

    arena = PipelineArena()
    pool = None
    table = None
    run_store = None
    try:
        arena.preflight(footprint, label="fused pipeline arena")
        gen_edges_buf = arena.allocate("gen_edges", (int(chunk_off[-1]), 2), np.int64)
        gen_keys_buf = arena.allocate("gen_keys", (int(chunk_off[-1]),), np.int64)
        gen_counts_buf = arena.allocate(
            "gen_counts", (len(jobs), n_owners), np.int64, fill=0
        )
        gen_static = dict(spaces)
        gen_static.update(
            offsets=offsets, counts=dist.counts, n_shards=n_shards, n_owners=n_owners
        )
        pool = PipelineWorkerPool(n_owners, gen_static=gen_static, config=config)
        replies = pool.generate(
            [
                (
                    "gen", c, lo, hi, seed,
                    gen_edges_buf.descriptor, gen_keys_buf.descriptor,
                    gen_counts_buf.descriptor, int(chunk_off[c]), int(caps[c]),
                )
                for c, (lo, hi, seed) in enumerate(jobs)
            ]
        )
        chunk_k = np.zeros(len(jobs), dtype=np.int64)
        fixes: dict[int, tuple] = {}
        for tag, c, k in replies:
            chunk_k[c] = k
            if tag == "overflow":
                fixes[c] = ()
        for c in fixes:
            # the six-sigma slack overflowed (vanishingly rare): the kernel
            # is deterministic in its seed, so regenerate in the parent and
            # stage the keys in a dedicated arena buffer
            lo, hi, seed = jobs[c]
            pairs_c, keys_c, owner_counts = fused_chunk_sample(
                lo, hi, seed, gen_static, n_shards, n_owners
            )
            xbuf = arena.allocate(f"fix_keys_{c}", (len(keys_c),), np.int64)
            xbuf.array[:] = keys_c
            gen_counts_buf.array[c] = owner_counts
            fixes[c] = (pairs_c, xbuf)
        # assemble the final edge arrays in chunk order — exactly the
        # phased process path's concatenation order
        parts = []
        for c in range(len(jobs)):
            if c in fixes:
                parts.append(fixes[c][0])
            else:
                off = int(chunk_off[c])
                parts.append(gen_edges_buf.array[off : off + int(chunk_k[c])])
        m = int(sum(len(p) for p in parts))
        if m == 0:
            return None  # the phased path handles the empty graph's bookkeeping
        # the assembled u/v persist through every swap iteration, so they
        # are sized by the swap working set for the storage plan
        splan = plan_storage(
            config,
            working_set_bytes=swap_working_set_bytes(m),
            table_bytes=(
                estimate_table_nbytes(2 * m + 16, n_shards, config.threads)
                if swap_iterations > 0
                else 0
            ),
            phase="fused",
        )
        if splan.store == "mmap":
            tr = obs_trace.current()
            if tr is not None:
                tr.event(
                    "tune.replan", phase="storage", store="mmap",
                    window=splan.window, table_spill=splan.table_spill,
                    edges=m, reason=splan.reason,
                )
            run_store = open_store("mmap")
            u = run_store.empty("fused_u", m, np.int64)
            v = run_store.empty("fused_v", m, np.int64)
            off = 0
            for part in parts:
                k = len(part)
                u[off : off + k] = part[:, 0]
                v[off : off + k] = part[:, 1]
                off += k
        else:
            pairs = np.concatenate(parts, axis=0)
            u = pairs[:, 0].copy()
            v = pairs[:, 1].copy()
        cost.add(
            "edge_generation",
            work=float(m + n_spaces),
            # the class-scan + log-depth span estimate can exceed the
            # op count on tiny samples; the span is bounded by the work
            depth=min(
                float(m + n_spaces),
                float(dist.n_classes + np.log2(max(dist.n, 2))),
            ),
        )
        obs_spans.close()
        phase_seconds["edge_generation"] = time.perf_counter() - t0
        if cost.phases and cost.phases[-1].name == "edge_generation":
            cost.phases[-1].seconds = phase_seconds["edge_generation"]
        _sample_memory()
        if store is not None:
            store.save(
                "edges",
                arrays={"u": u, "v": v},
                meta={"phase_seconds": dict(phase_seconds)},
                fingerprint=fingerprint,
            )

        t0 = time.perf_counter()
        obs_spans.enter_context(_maybe_span("phase:swap", fused=True))
        swap_stats = SwapStats()
        swap_callback = callback
        if mixing_every:
            # sample values are computed eagerly, so handing the probe
            # views of the arrays the swap loop mutates in place is safe
            probe = MixingProbe(EdgeList(u, v, dist.n), every=mixing_every)
            swap_callback = probe.callback(callback)
            swap_stats.mixing = probe.trajectory
        if swap_iterations > 0:
            # the table is sized from the now-known edge count with the
            # same geometry the phased path would use (workers_hint is the
            # logical thread count, so per-shard layouts match bit for bit)
            table = ShardedEdgeHashTable(
                2 * m + 16,
                n_shards=n_shards,
                workers_hint=config.threads,
                arena=arena,
                spill=splan.table_spill,
            )
            tas_keys = arena.allocate("tas_keys", (m,), np.int64)
            tas_flags = arena.allocate("tas_flags", (m,), np.uint8)
            # zero-rebuild handoff: worker w inserts its own key groups,
            # concatenated in chunk order == global edge order, so the
            # swap loop starts with the table registered for iteration 0
            spans: list[list] = [[] for _ in range(n_owners)]
            for c in range(len(jobs)):
                if c in fixes:
                    desc, off = fixes[c][1].descriptor, 0
                else:
                    desc, off = gen_keys_buf.descriptor, int(chunk_off[c])
                for w in range(n_owners):
                    kw = int(gen_counts_buf.array[c, w])
                    if kw:
                        spans[w].append((desc, off, off + kw))
                    off += kw
            # fused bind+insert: one message round instead of the former
            # bind barrier followed by an insert round
            pool.bind_insert(table, tas_keys, tas_flags, spans)
            ckpt = None
            if store is not None and checkpoint_every:
                ckpt_degrees = None
                if config.verify != "off":
                    ckpt_degrees = np.bincount(u, minlength=dist.n) + np.bincount(
                        v, minlength=dist.n
                    )
                ckpt = _SwapCheckpointer(
                    store, checkpoint_every, fingerprint, swap_iterations,
                    timing_base=_merge_phase_seconds(
                        timing_base or {}, phase_seconds
                    ),
                    verify=config.verify, n_vertices=dist.n,
                    degrees=ckpt_degrees,
                )
            u, v = fused_swap_loop(
                u, v, swap_iterations, config, table, pool.test_and_set,
                n_vertices=dist.n, stats=swap_stats, cost=cost,
                callback=swap_callback, checkpointer=ckpt,
                store=run_store, window=splan.window,
            )
            tr = obs_trace.current()
            if tr is not None:
                record_table_stats(tr.metrics, table)
        obs_spans.close()
        phase_seconds["swap"] = time.perf_counter() - t0
        _sample_memory()
        return EdgeList(u, v, dist.n), swap_stats, m, list(pool.faults)
    finally:
        obs_spans.close()
        if pool is not None:
            pool.close()
        if table is not None:
            table.close()
        arena.close()
        if run_store is not None:
            # settle the spill-file debt (idempotent); the mappings
            # behind the returned arrays stay valid
            run_store.release()
