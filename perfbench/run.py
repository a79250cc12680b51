"""polylearn benchmark: seeded public-API workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload kolp-desk --seed 1 --seconds 24 --trace 0

A run generates its inputs from ``--seed`` in a child process (the set-up,
repeated ``SETUP_REPS`` times on the same seed and reported as a median),
loads them, then runs the workload's fixed job list in passes until the next
pass would end after ``--seconds``.  Keeping the set-up out of the job
process makes ``peak_rss_mb`` the jobs' own peak: LkP generation holds
several copies of its data at once.  Every job's output is checked; a job that
raises or fails a check counts as failed and never stops the run.

``--trace 0`` runs untraced passes and prints the end-to-end metrics.
``--trace 1`` runs each job untraced and then traced, cycling through the job
list, and prints the per-layer metrics: spans recorded here, around the calls
into each polylearn module, give each layer's time per job.  Traced ``kolp``
jobs call the pipeline's public stages one by one and must reproduce the
untraced ``kolp_run`` estimates bit for bit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every job's latency and checks, set-up times, spans) is written
as JSON under ``--out`` (default ``perfbench/results``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SOLVER_WARNING = "hull-distance solver"
SETUP_REPS = 3
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "learner.random_probes_s": "s",
    "oracles.subset_smoothing.query_us": "us",
    "oracles.queries": "count",
    "kolp.svd_project_s": "s",
    "kolp.prune_to_k_s": "s",
    "kolp.prune_attempts": "count",
    "kolp.dedup_answers": "count",
    "datagen.validate_s": "s",
    "datagen.validate_solves_per_s": "1/s",
    "geometry.hausdorff_s": "s",
    "geometry.hausdorff_solves": "count",
    "kolp.audit_projected_oracle_s": "s",
    "softhull.find_soft_envelope_s": "s",
    "softhull.found_ratio": "ratio",
    "geometry.solver_warnings": "count",
    "rsh.estimate_s": "s",
    "rsh.trials_per_s": "1/s",
    "rsh.separate_s": "s",
    "rsh.separate_queries": "count",
    "oracles.exact.query_us": "us",
    "oracles.noisy.query_us": "us",
    "oracles.needle.query_us": "us",
    "oracles.find_consistent_needles_s": "s",
    "datagen.gen_lkp_s": "s",
    "job.uncovered_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """In-memory spans of one job (name, job label, parent, start, end, solver warnings)."""

    on = True

    def __init__(self, job):
        self.job = job
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "job": self.job, "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            rec["start"] = time.perf_counter()
            try:
                yield
            finally:
                rec["end"] = time.perf_counter()
                self._open.pop()
                rec["solver_warnings"] = sum(str(w.message).startswith(SOLVER_WARNING) for w in caught)

    def totals(self) -> dict[str, float]:
        """Seconds per span name (top-level and nested alike)."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def covered(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def warnings_seen(self) -> int:
        return sum(s["solver_warnings"] for s in self.spans)


class NoTrace:
    """Tracing off: spans are shared no-op contexts."""

    on = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def pin_malloc_mmap_threshold(nbytes: int = 32 * 1024 * 1024) -> int | None:
    """Fix glibc's mmap threshold at its dynamic ceiling; returns it, or None if not glibc.

    glibc starts at 128 KiB and raises the threshold after large frees, so
    when it rises depends on the allocation order.  That made peak RSS bimodal
    across seeds (229 or 247-256 MB on kolp-desk).  Fixing it at the 32 MiB that
    the dynamic threshold can reach keeps the default's speed: pinning 128 KiB
    instead mapped every 800 KB per-query array afresh and slowed kolp-wide
    jobs by about 10%.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    M_MMAP_THRESHOLD = -3
    return nbytes if mallopt(M_MMAP_THRESHOLD, nbytes) == 1 else None


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, scipy, nproc: int, mmap_threshold: int | None) -> dict:
    return {
        "nproc": nproc,
        "malloc_mmap_threshold": mmap_threshold,
        "cpu_count": os.cpu_count(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_child(wl, params, seed: int, trace: bool, path: Path) -> None:
    """Set up ``SETUP_REPS`` times on the same seed and pickle the last inputs to ``path``."""
    times, gen_lkp, spans = [], [], []
    jobs = None
    for _ in range(SETUP_REPS):
        jobs = None  # release the previous inputs before building new ones
        tr = Tracer(job="setup") if trace else NoTrace()
        t0 = time.perf_counter()
        jobs = wl.setup(seed, params, tr)
        times.append(time.perf_counter() - t0)
        if trace:
            gen_lkp.append(tr.totals().get("datagen.gen_lkp", 0.0))
            spans.extend(tr.spans)
    setup = {"jobs": jobs, "setup_s": times, "gen_lkp_s": gen_lkp, "spans": spans, "peak_rss_mb": peak_rss_mb()}
    with open(path, "wb") as f:
        pickle.dump(setup, f, protocol=5)


def run_setup(argv: list[str], label: str) -> dict:
    """Run ``setup_child`` in a fresh interpreter with the same arguments and load what it wrote."""
    BUILD.mkdir(exist_ok=True)
    path = BUILD / f"setup-{label}-{os.getpid()}.pkl"
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-to", str(path)]
    try:
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        with open(path, "rb") as f:
            return pickle.load(f)
    finally:
        path.unlink(missing_ok=True)


def run_job(wl, job, i: int, traced: bool, ref, label: int):
    """Run and check one job; returns its record, its output (None on error) and its spans.

    ``label`` is the record's ``seq``: the pass number in untraced runs, the
    run number in traced ones.
    """
    tr = Tracer(job=label) if traced else NoTrace()
    rec = {"seq": label, "kind": "traced" if traced else "plain", "job": i, "checks": {}}
    out = None
    t0 = time.perf_counter()
    try:
        out = wl.run(job, tr)
        rec["latency_s"] = time.perf_counter() - t0
        rec["checks"] = wl.check(job, out, ref, traced)
        if traced:
            layers = wl.layers(job, out, ref, tr.totals())
            layers["geometry.solver_warnings"] = tr.warnings_seen()
            layers["job.uncovered_s"] = rec["latency_s"] - tr.covered()
            rec["layers"] = layers
    except Exception:  # a failing job is counted, never raised out of the run
        rec.setdefault("latency_s", time.perf_counter() - t0)
        rec["error"] = traceback.format_exc()
        out = None
    rec["ok"] = "error" not in rec and bool(rec["checks"]) and all(rec["checks"].values())
    return rec, out, tr.spans if traced else []


def run_passes(wl, jobs, seconds: float):
    """Untraced passes over the whole job list until the next one would end after ``seconds``."""
    records, walls = [], []
    start = time.perf_counter()
    while True:
        done = [run_job(wl, job, i, False, None, len(walls))[0] for i, job in enumerate(jobs)]
        records += done
        walls.append(sum(r["latency_s"] for r in done))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return records, walls


def run_pairs(wl, jobs, seconds: float):
    """Each job untraced then traced, cycling through the list, until time is up.

    Adjacent runs of the same job see the same machine state, so their ratio
    is the tracing overhead; the untraced output is the traced run's reference.
    """
    records, spans, pairs = [], [], []
    start = time.perf_counter()
    while True:
        n = len(pairs)
        i = n % len(jobs)
        plain, out, _ = run_job(wl, jobs[i], i, False, None, 2 * n)
        traced, _, job_spans = run_job(wl, jobs[i], i, True, out, 2 * n + 1)
        records += [plain, traced]
        spans += job_spans
        pairs.append(plain["latency_s"] + traced["latency_s"])
        if time.perf_counter() - start + statistics.median(pairs) > seconds:
            return records, spans


def per_layer(records) -> dict[str, float]:
    traced = [r["layers"] for r in records if "layers" in r]
    metrics = {}
    for name in PER_LAYER_UNITS:
        values = [layers[name] for layers in traced if name in layers]
        # A layer the workload does not exercise reads 0.
        metrics[name] = float(statistics.median(values)) if values else 0.0
    total = {k: sum(r["latency_s"] for r in records if r["kind"] == k) for k in ("plain", "traced")}
    metrics["trace.overhead"] = total["traced"] / total["plain"] - 1.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny input sizes (smoke test)")
    ap.add_argument("--out", type=Path, default=HERE / "results", help="directory for the full record")
    ap.add_argument("--setup-to", type=Path, help=argparse.SUPPRESS)  # the set-up child's output file
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # BLAS threads (one per usable CPU) and the allocator are fixed before numpy loads.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    mmap_threshold = pin_malloc_mmap_threshold()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import polylearn
    except ImportError as exc:
        print(f"perfbench: cannot import polylearn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(polylearn.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: polylearn imported from {polylearn.__file__}, not this checkout", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    params = wl.tiny if args.tiny else wl.full
    trace = bool(args.trace)
    if args.setup_to:
        setup_child(wl, params, args.seed, trace, args.setup_to)
        return 0

    setup = run_setup(argv, f"{args.workload}-seed{args.seed}")
    jobs = setup["jobs"]
    if trace:
        records, spans = run_pairs(wl, jobs, args.seconds)
        walls = None
    else:
        records, walls = run_passes(wl, jobs, args.seconds)
        spans = []
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    plain = [r["latency_s"] for r in records if r["kind"] == "plain"]
    if trace:
        metrics = per_layer(records)
        metrics["datagen.gen_lkp_s"] = float(statistics.median(setup["gen_lkp_s"]))
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup["setup_s"]),
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(plain),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "params": params,
        "environment": environment(np, scipy, nproc, mmap_threshold),
        "setup_s": setup["setup_s"],
        "setup_peak_rss_mb": setup["peak_rss_mb"],
        "pass_wall_s": walls,
        "job_samples": len(plain),
        "jobs": records,
        "spans": setup["spans"] + spans,
        "result": result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    for r in records:
        if not r["ok"]:
            print(f"job {r['job']} ({r['kind']}, seq {r['seq']}) failed: "
                  f"{r.get('error') or r['checks']}", file=sys.stderr)
    print(f"{args.workload}: {len(plain)} untraced job samples, {failed}/{attempted} jobs failed; "
          f"record in {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
