"""One benchmark run: its jobs, their checks, and the metrics they give.

Imported only after run.py has pinned the BLAS thread count and put this
checkout's src/ first on the import path.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_JOBS = 3
# cheap set-ups are repeated on their own until this much set-up time is
# measured, so that setup_s is a median of many samples
SETUP_SAMPLE_S = 2.0

END_TO_END = {          # name -> unit, in the order printed
    "setup_s": "s",
    "wall_s": "s",
    "agent_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "bits_per_component": "bits",
}
PER_LAYER = {
    "graphs.build_combination_s": "s",
    "graphs.combination_alloc_mb": "MB",
    "graphs.validate_combination_s": "s",
    "analysis.spectral_report_s": "s",
    "graphs.topology_s": "s",
    "graphs.subspace_s": "s",
    "cli.load_config_s": "s",
    "cli.build_setup_s": "s",
    "streams.cells": "count",
    "streams.stream_s": "s",
    "streams.us_per_cell": "us",
    "quantizers.batch_calls": "count",
    "quantizers.message_calls": "count",
    "quantizers.quantize_s": "s",
    "learning.step_calls": "count",
    "learning.step_self_s": "s",
    "learning.run_calls": "count",
    "learning.driver_self_s": "s",
    "graphs.compute_wopt_s": "s",
    "codec.symbols": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def environment(threads, nproc, seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


class Ledger:
    """Operations attempted and failed: config runs and invariant checks."""

    def __init__(self):
        self.checks = []

    def add(self, where, items):
        self.checks.extend(replace(c, where=where) for c in items)

    @property
    def failed(self):
        return [c for c in self.checks if not c.ok]

    def summary(self) -> dict:
        """check name -> [passed, attempted]"""
        out = {}
        for c in self.checks:
            counts = out.setdefault(c.name, [0, 0])
            counts[0] += c.ok
            counts[1] += 1
        return out


class Run:
    """The jobs of one benchmark run, their checks and codec statistics."""

    def __init__(self, wl, references):
        self.wl = wl
        self.references = references
        self.ledger = Ledger()
        self.jobs = []
        self.attempts = 0
        self.codec = {}               # seed -> symbols coded in its checks

    def job(self, seed, tracer=None):
        """Run one job and check it; a job that raises is one failed
        operation and returns None."""
        self.attempts += 1
        try:
            if tracer is None:
                job = workloads.run_job(self.wl, seed)
            else:
                with tracer.patched():
                    job = workloads.run_job(self.wl, seed, span=tracer.span)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.ledger.add(f"job {self.attempts} seed {seed}", [
                checks.Check("job completes", False, f"{type(exc).__name__}: {exc}")])
            return None
        self._check(job)
        self.jobs.append(job)
        return job

    def quality(self, seed) -> tuple:
        """Mean steady MSD and mean steady bits per component over the
        configs of the first job at seed; both repeat exactly for a seed."""
        job = next(j for j in self.jobs if j.seed == seed)
        steady = [workloads.steady(out) for out in job.outputs]
        return (statistics.fmean(m for m, _ in steady),
                statistics.fmean(b for _, b in steady))

    def _check(self, job):
        tag = f"job {self.attempts} seed {job.seed}"
        add = functools.partial(self.ledger.add, tag)
        add(checks.check_outputs(job.outputs))
        got = [checks.output_digests(out) for out in job.outputs]
        earlier = [j for j in self.jobs if j.seed == job.seed]
        if job.seed == self.references["seed"]:
            add(checks.compare_digests("reference digests", got,
                                       self.references["configs"]))
        elif earlier:
            first = [checks.output_digests(out) for out in earlier[0].outputs]
            add(checks.compare_digests("repeat digests", got, first))
        if earlier:
            return
        s = job.setup
        add(checks.check_combination(s.comb.a, s.top, s.basis))
        symbols = 0
        for spec in s.specs:
            if spec.kind in ("uniform", "anq"):
                check, coded = checks.check_codec(
                    spec, *checks.sample_messages(spec, job.seed))
                add([check])
                symbols += coded
        self.codec[job.seed] = symbols


def run_untraced(run, seed, seconds) -> dict:
    """Closed loop of jobs, the first at the reference seed; then extra set-ups
    while the set-up sample is short. Returns the end-to-end metrics."""
    t0 = time.perf_counter()
    run.job(run.references["seed"])
    while True:
        elapsed = time.perf_counter() - t0
        if run.attempts >= MIN_JOBS and elapsed * (1 + 1 / run.attempts) > seconds:
            break
        run.job(seed)
    if not any(j.seed == seed for j in run.jobs):
        return None
    setups = [j.setup_s for j in run.jobs]
    while sum(setups) < SETUP_SAMPLE_S:
        t1 = time.perf_counter()
        workloads.build(run.wl, seed)
        setups.append(time.perf_counter() - t1)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(j.wall_s for j in run.jobs),
        # work completed over simulation time, summed across jobs: short
        # simulations (about 1 s on baseline) each catch the host's swings
        "agent_iters_per_s": sum(workloads.agent_iterations(j.setup) for j in run.jobs)
        / sum(j.sim_s for j in run.jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bits_per_component": run.quality(seed)[1],
    }


def run_traced(run, seed, run_id) -> dict:
    """Reference job, one untraced and one traced job at seed. Returns the
    per-layer metrics of the traced job and writes its spans."""
    run.job(run.references["seed"])
    plain = run.job(seed)
    tracer = tracing.Tracer(run.wl.name, run_id)
    traced = run.job(seed, tracer)
    if plain is None or traced is None:
        return None
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans_{run.wl.name}_seed{seed}.npz")
    layers = tracer.layers()

    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return layers.get(name, (0, 0.0, 0.0))[1]

    cells = calls("streams.stream")
    return {
        "graphs.build_combination_s": self_s("graphs.build_combination"),
        "graphs.combination_alloc_mb":
            tracer.alloc_peak.get("graphs.build_combination", 0) / 2**20,
        "graphs.validate_combination_s": self_s("graphs.validate_combination"),
        "analysis.spectral_report_s": self_s("analysis.spectral_report"),
        "graphs.topology_s": self_s("graphs.topology"),
        "graphs.subspace_s": self_s("graphs.subspace"),
        "cli.load_config_s": self_s("cli.load_config"),
        "cli.build_setup_s": self_s("cli.build_setup"),
        "streams.cells": cells,
        "streams.stream_s": self_s("streams.stream"),
        "streams.us_per_cell": 1e6 * self_s("streams.stream") / cells if cells else 0.0,
        "quantizers.batch_calls": calls("quantizers.batch"),
        "quantizers.message_calls": calls("quantizers.message"),
        "quantizers.quantize_s":
            self_s("quantizers.batch") + self_s("quantizers.message"),
        "learning.step_calls": calls("learning.step"),
        "learning.step_self_s": self_s("learning.step"),
        "learning.run_calls": calls("learning.run"),
        "learning.driver_self_s": self_s("learning.run") + self_s("analysis.sweep"),
        "graphs.compute_wopt_s": self_s("graphs.compute_wopt"),
        "codec.symbols": run.codec[seed],
        "trace.spans": len(tracer.start),
        "trace.overhead_s": traced.wall_s - plain.wall_s,
    }


def measure(wl, seed, seconds, trace, threads, references=None) -> dict:
    """Run one workload and return its record: environment, resolved
    parameters, jobs, checks and metrics (None when no job at seed ran).
    threads is (BLAS threads, nproc) as run.pin_blas_threads returns it;
    references defaults to the digests kept in references.json."""
    if references is None:
        references = checks.load_references()[wl.name]
    run = Run(wl, references)
    run_id = f"{wl.name}-{seed}-{time.time_ns()}"
    if trace:
        metrics, units = run_traced(run, seed, run_id), PER_LAYER
    else:
        metrics, units = run_untraced(run, seed, seconds), END_TO_END
    record = {
        "workload": wl.name, "run_id": run_id, "trace": int(trace),
        "environment": environment(*threads, seed),
        "reference_seed": references["seed"],
        "jobs": [{"seed": j.seed, "setup_s": j.setup_s, "sim_s": j.sim_s,
                  "wall_s": j.wall_s} for j in run.jobs],
        "checks": [vars(c) for c in run.ledger.checks],
        "check_summary": run.ledger.summary(),
        "attempted": len(run.ledger.checks),
        "failed": len(run.ledger.failed),
        "metrics": None,
    }
    if metrics is not None:
        s = next(j for j in run.jobs if j.seed == seed).setup
        msd, _ = run.quality(seed)
        record["parameters"] = workloads.parameters(wl, s)
        record["spectral_report"] = vars(s.report)
        record["gamma_bound"] = s.gamma_bound
        record["steady_msd_db"] = 10 * math.log10(msd)
        record["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in metrics.items()}
    return record


def save(record) -> Path:
    OUT.mkdir(exist_ok=True)
    seed = record["environment"]["workload_seed"]
    path = OUT / f"BENCH_{record['workload']}_seed{seed}_trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path
