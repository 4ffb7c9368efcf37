"""subspaceq benchmark: run one named workload and print its metrics.

    python3 benchmarks/run.py --workload baseline --seed 5 --seconds 30 --trace 0

Run from the repository root. Workloads (see workloads.py and
BENCHMARK.json): baseline, rd-sweep, wide-mixed.

Load is a closed loop of batch jobs in this one process: each job goes from
the INI config to a validated network (set-up) and then runs every
simulation of the workload (result), with workers=1. The first job runs at
the reference seed, the one the workload's config names, and is checked
against the SHA-256 digests in references.json; it counts in the timings
too. The following jobs run at --seed, each repeat checked against the
first. Jobs continue while the next one is expected to end within
--seconds, and at least MIN_JOBS run. setup_s and wall_s are medians over
jobs (cheap set-ups are repeated on their own so that setup_s has enough
samples); agent_iters_per_s is all simulated work over all simulation time.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced and one
traced job at --seed after the reference job and prints the per-layer
metrics of the traced one, with the wall-time difference as the tracing
overhead; the spans are written to benchmarks/out/ when the run ends.

Every line but the last is a human-readable report; the last line is one
JSON object with correct, attempted, failed and metrics. Exit code 0 when a
result was printed, 1 when none could be (the library under src/ does not
import, or no job at --seed completed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the simulation loop is single-threaded anyway, and a
# second BLAS thread waits on whatever else shares the machine, which makes
# set-up times swing from run to run.
BLAS_THREADS = 1


def pin_blas_threads() -> tuple:
    """Fix the BLAS thread count, never above the processors this process
    may use; must run before numpy is imported. Returns (threads, nproc)."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads, nproc


def import_library():
    """Import subspaceq from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import subspaceq
    except ImportError as exc:
        raise SystemExit(f"cannot import subspaceq from {src}: {exc}") from None
    if Path(subspaceq.__file__).resolve().parent.parent != src:
        raise SystemExit(f"subspaceq resolved to {subspaceq.__file__}, not {src}")


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads = pin_blas_threads()
    import_library()
    os.chdir(ROOT)        # configs name their files relative to the root
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    record = harness.measure(workloads.WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), threads)
    for c in record["checks"]:
        if not c["ok"]:
            print(f"FAIL {c['where']}: {c['name']} {c['detail']}".rstrip())
    if record["metrics"] is None:
        print(f"no job at seed {args.seed} completed; no result", file=sys.stderr)
        return 1
    path = harness.save(record)

    env = record["environment"]
    print(f"workload {record['workload']}  seed {args.seed}  reference seed "
          f"{record['reference_seed']}  jobs {len(record['jobs'])}  workers 1  "
          f"blas threads {env['blas_threads']} of nproc {env['nproc']}  "
          f"({env['blas']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"python {env['python']})")
    for name, m in record["metrics"].items():
        print(f"{name:32s} {_fmt(m['value'])} {m['unit']}")
    print(f"{'steady_msd_db':32s} {_fmt(record['steady_msd_db'])} dB")
    for name, (passed, total) in record["check_summary"].items():
        print(f"check {name:38s} {passed}/{total} passed")
    failed, attempted = record["failed"], record["attempted"]
    print(f"{'failed_frac':32s} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} operations)")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
