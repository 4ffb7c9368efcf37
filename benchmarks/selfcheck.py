"""Quick self-check of the benchmark itself, at a tiny size.

    python3 benchmarks/selfcheck.py

Runs every workload shrunk to a few agents or grid points, in both modes,
and confirms that every metric BENCHMARK.json names is emitted, that the
traced counts match the workload exactly, and that each check can fail:
a corrupted reference digest, a broken combination matrix, a diverged
result and a miscounted message each show up as failures. Exit code 0 when
all of that holds.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import run

# shrunk workloads; every run keeps the 500-iteration steady window
TINY = {
    "baseline": {"n": 10, "topology_file": None, "connectivity": 0.8},
    "rd-sweep": {"sweep_values": (0.004, 0.4)},
    "wide-mixed": {"n": 16, "connectivity": 0.4},
}
TINY_SEED = 3


def main() -> int:
    threads = run.pin_blas_threads()
    run.import_library()
    os.chdir(run.ROOT)
    import numpy as np
    from subspaceq import codec

    import checks
    import harness
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for name, shrink in TINY.items():
        wl = workloads.WORKLOADS[name]
        wl = replace(wl, overrides={**wl.overrides, **shrink, "iterations": 500})
        ref_job = workloads.run_job(wl, wl.default_seed)
        refs = {"seed": wl.default_seed,
                "configs": [checks.output_digests(o) for o in ref_job.outputs]}

        rec = harness.measure(wl, TINY_SEED, 0, False, threads, refs)
        expect(rec["metrics"] is not None and set(rec["metrics"]) == end_to_end,
               f"{name}: every end-to-end metric emitted")
        expect(rec["failed"] == 0, f"{name}: no failed operation")

        rec = harness.measure(wl, TINY_SEED, 0, True, threads, refs)
        m = {k: v["value"] for k, v in (rec["metrics"] or {}).items()}
        expect(set(m) == per_layer, f"{name}: every per-layer metric emitted")
        expect(rec["failed"] == 0, f"{name}: no failed operation when traced")
        p = rec["parameters"]
        cells = 2 * p["runs"] * p["iterations"] * p["n"] * p["configs"]
        expect(m.get("streams.cells") == cells, f"{name}: streams.cells == {cells}")
        if name == "wide-mixed":
            expect(m.get("quantizers.batch_calls") == 0, f"{name}: no batch calls")
        else:
            expect(m.get("quantizers.message_calls") == 0, f"{name}: no message calls")

        bad = json.loads(json.dumps(refs))
        key = next(iter(bad["configs"][0]))
        digest = bad["configs"][0][key]
        bad["configs"][0][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
        rec = harness.measure(wl, wl.default_seed, 0, False, threads, bad)
        expect(any("reference digests" in c["name"] and not c["ok"]
                   for c in rec["checks"]),
               f"{name}: a corrupted reference digest fails")

    # each invariant check can fail
    s = ref_job.setup
    a = s.comb.a.copy()
    a[0, 0] += 1e-3
    got = checks.check_combination(a, s.top, s.basis)
    expect(not got[0].ok, "a combination matrix off its subspace fails")
    far = next(j for j in range(s.top.n) if j not in s.top.neighborhoods[0])
    l = s.exp.l
    a = s.comb.a.copy()
    a[0, far * l] = 1e-300
    got = checks.check_combination(a, s.top, s.basis)
    expect(not got[1].ok, "a nonzero off-neighbourhood block fails")

    out = ref_job.outputs[0]
    diverged = replace(out, diverged=True, diverged_at=10)
    expect(not checks.check_outputs([diverged])[0].ok, "a diverged result fails")
    nan = replace(out, msd=np.where(np.arange(out.msd.size) == 5, np.nan, out.msd))
    expect(not checks.check_outputs([nan])[0].ok, "a non-finite result fails")
    other = [{k: v[::-1] for k, v in checks.output_digests(out).items()}]
    expect(not checks.compare_digests("repeat", [checks.output_digests(out)],
                                      other)[0].ok,
           "a repeat that differs from the first job fails")

    base = workloads.WORKLOADS["baseline"]
    q = workloads.build(replace(base, overrides=TINY["baseline"]), TINY_SEED).specs[0]
    messages, costs = checks.sample_messages(q, TINY_SEED)
    expect(checks.check_codec(q, messages, costs)[0].ok, "the codec sample passes")
    wrong = [replace(messages[0], bit_cost=messages[0].bit_cost + 1.0)] + messages[1:]
    expect(not checks.check_codec(q, wrong, costs)[0].ok,
           "a message charged off its symbol count fails")
    expect(not checks.check_codec(q, messages, costs + 1.0)[0].ok,
           "a batched cost off the symbol count fails")
    decode = codec.decode_sequence
    codec.decode_sequence = lambda stream: []
    try:
        lossy = checks.check_codec(q, messages, costs)[0]
    finally:
        codec.decode_sequence = decode
    expect(not lossy.ok, "a stream that does not decode to its indices fails")

    print(f"{len(problems)} problems" if problems else "self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
