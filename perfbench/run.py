"""Benchmark entry point.

Run one workload in a fresh process::

    python3 perfbench/run.py --workload lj-generate --seed 1 --seconds 10 --trace 0

or every workload, each in its own fresh process, with a summary table::

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; the names and units are those of
``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, with a stamp of the code version and host, and the spans of a
traced run are also written under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def stale_artifacts(work: Path) -> set[str]:
    """Paths the library's own reporters call stale: shared-memory
    segments, spill files and checkpoint stores whose owner is gone."""
    from repro.core.checkpoint import report_stale_checkpoints
    from repro.core.storage import report_stale_spill
    from repro.parallel.shm import report_stale

    found = report_stale() + report_stale_spill()
    found += report_stale_checkpoints(work)
    return {a["path"] for a in found}


def import_seconds() -> float:
    """Median time to import the library in a fresh interpreter.

    One in-process import cannot be repeated, and its time moves with
    which core the process starts on, so it is taken from several fresh
    interpreters instead."""
    code = ("import time; t = time.perf_counter(); "
            "import numpy, repro, repro.serve; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def make_workload(name: str, seed: int, work: Path):
    from openloop import ServeWorkload
    from workloads import BATCH_WORKLOADS

    classes = {cls.name: cls for cls in (*BATCH_WORKLOADS, ServeWorkload)}
    return classes[name](seed, work)


def run_one(args, spec) -> int:
    started = time.time()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = OUT_DIR / f"work-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # every file the program writes stays inside the checkout
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    # the BLAS library would start a thread per core in every process; one
    # keeps each workload within its two worker threads or processes
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["REPRO_SPILL_DIR"] = str(work / "spill")
    os.environ["REPRO_SHM_MANIFEST_DIR"] = str(work / "shm-manifests")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return _run(args, spec, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec, work: Path, started: float) -> int:
    import checks
    import hostinfo
    import rss

    import_s = import_seconds()
    wl = make_workload(args.workload, args.seed, work)
    tally = checks.Tally()
    before = stale_artifacts(work)
    setup_reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_reps.append(time.perf_counter() - t0)
    try:
        values = wl.measure(args.seconds, bool(args.trace), tally)
    finally:
        wl.close()
    if not args.trace:
        values["setup_s"] = import_s + statistics.median(setup_reps)

    stale = sorted(stale_artifacts(work) - before)
    tally.op([f"stale artifact left behind: {p}" for p in stale])
    stop_processes()
    leftover = rss.children(os.getpid())
    tally.op([f"child process {pid} still running" for pid in leftover])

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        # a layer the workload does not run did no work there
        value = values.pop(m["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if values:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(values)}")

    stamp = hostinfo.stamp(ROOT, started)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
        "import_s": import_s, "setup_reps_s": setup_reps,
        "calls": getattr(wl, "calls", None), "metrics": metrics,
        "failures": tally.reasons,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    base = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}"
    base.with_suffix(".json").write_text(json.dumps(record, indent=1))
    spans = getattr(wl, "spans", None)
    if spans is not None:
        spans.write(base.with_suffix(".spans.jsonl"))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"stamp={json.dumps(stamp)}")
    for name, m in metrics.items():
        print(f"{args.workload:20s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:20s} {'failed_frac':28s} "
          f"{tally.failed / tally.attempted:>16.6g} fraction "
          f"({tally.failed}/{tally.attempted})")
    for reason in tally.reasons[:20]:
        print(f"# failed: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def stop_processes() -> None:
    """Stop the process pools the library keeps for reuse, then
    multiprocessing's resource tracker, and wait for each to end, so the
    run leaves no process behind."""
    from multiprocessing import resource_tracker

    from repro.parallel.runtime import shutdown_executors

    shutdown_executors()
    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()


def run_all(args, spec) -> int:
    """Each workload in a fresh process, so memory and set-up cost do not
    carry over from one workload to the next."""
    failed = False
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            failed = True
            continue
        print("\n".join(lines[:-1]))
        failed |= not json.loads(lines[-1])["correct"]
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
