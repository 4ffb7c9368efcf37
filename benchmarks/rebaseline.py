"""Rewrite references.json: the digests of every workload at its default seed.

    python3 benchmarks/rebaseline.py [workload ...]

Run only for a deliberate change to the bits a workload produces (a new
stream discipline, a different summation order, a changed workload), as its
own change that says why.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(argv=None) -> int:
    threads, _ = run.pin_blas_threads()
    run.import_library()
    os.chdir(run.ROOT)
    import checks
    import workloads

    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    refs = checks.load_references() if checks.REFERENCES.exists() else {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        job = workloads.run_job(wl, wl.default_seed)
        refs[name] = {
            "seed": wl.default_seed,
            # dense products in set-up round differently with the BLAS thread count
            "blas_threads": threads,
            "parameters": workloads.parameters(wl, job.setup),
            "configs": [checks.output_digests(out) for out in job.outputs],
        }
        print(f"{name}: {len(job.outputs)} configs at seed {wl.default_seed}")
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
