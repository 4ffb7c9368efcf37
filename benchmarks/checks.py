"""Correctness checks the benchmark applies to every job, from outside.

Each check is one operation toward failed / attempted. Digests freeze the
exact bits a workload produces at its default seed; the invariant checks
mirror ``subspaceq verify`` and the codec's exact cost accounting.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from subspaceq import codec, graphs, learning, quantizers

REFERENCES = Path(__file__).resolve().parent / "references.json"
CODEC_SAMPLE = 32    # messages per index-scheme spec in the codec round trip


@dataclass(frozen=True)
class Check:
    name: str             # the kind of check; the report groups by it
    ok: bool
    detail: str = ""
    where: str = ""       # job and seed, filled in by the run


def _digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def output_digests(output) -> dict:
    """SHA-256 of a RunResult's msd, bits and chi_sq, or of one sweep row."""
    if isinstance(output, learning.RunResult):
        return {"msd": _digest(output.msd), "bits": _digest(output.bits),
                "chi_sq": _digest(output.chi_sq)}
    row = np.array([output.param_value, output.rate_bits, output.msd,
                    output.msd_db, float(output.diverged)])
    return {"row": _digest(row)}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def compare_digests(label, got: list, expected: list) -> list:
    """One check per config: its digests equal the expected ones."""
    if len(got) != len(expected):
        return [Check(label, False,
                      f"{len(got)} configs against {len(expected)} expected")]
    return [Check(label, g == e, f"config {i}" + (
                  "" if g == e else f" differs in {sorted(k for k in e if g.get(k) != e[k])}"))
            for i, (g, e) in enumerate(zip(got, expected))]


def check_outputs(outputs) -> list:
    """Every config result is finite and did not diverge."""
    checks = []
    for i, out in enumerate(outputs):
        if isinstance(out, learning.RunResult):
            ok = (not out.diverged and np.all(np.isfinite(out.msd))
                  and np.all(np.isfinite(out.bits)) and np.all(np.isfinite(out.chi_sq)))
        else:
            ok = not out.diverged and np.isfinite([out.rate_bits, out.msd]).all()
        checks.append(Check("finite, not diverged", bool(ok), f"config {i}"))
    return checks


def check_combination(a, top, basis) -> list:
    """validate_combination within TOL_CONSTRAINT with rho < 1, and every
    off-neighbourhood block of A exactly zero."""
    try:
        res = graphs.validate_combination(a, top, basis)
        ok = res["residual"] <= graphs.TOL_CONSTRAINT and res["rho"] < 1.0
        detail = f"residual {res['residual']:.3e}, rho {res['rho']:.6f}"
    except (graphs.InfeasibleConstraints, graphs.SpectralViolation) as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    n = top.n
    l = a.shape[0] // n
    outside = np.ones((n, n), dtype=bool)
    for k, nb in enumerate(top.neighborhoods):
        outside[k, list(nb)] = False
    blocks = a.reshape(n, l, n, l).transpose(0, 2, 1, 3)
    zero = not np.any(blocks[outside])
    return [Check("subspace constraints and contraction", bool(ok), detail),
            Check("off-neighbourhood blocks zero", bool(zero))]


def sample_messages(spec, seed, count=CODEC_SAMPLE) -> tuple:
    """Messages of an index-scheme spec on inputs spread over four decades,
    and the bit costs quantize_batch charges for the same inputs and draws."""
    rng = np.random.default_rng([seed, count])
    xs = 10.0 ** rng.uniform(-3.0, 1.0, (count, 1)) * rng.standard_normal((count, spec.dim))
    keys = rng.integers(2**63, size=count)
    messages = [quantizers.quantize(spec, x, np.random.default_rng(k))
                for x, k in zip(xs, keys)]
    us = np.stack([np.random.default_rng(k).random(spec.dim) for k in keys])
    return messages, quantizers.quantize_batch(spec, xs, us)[0]


def check_codec(spec, messages, batch_costs) -> tuple:
    """Round trip each message through the codec: decode(coded_stream(msg))
    returns the indices, and the bit cost the loop charges, on the
    per-message and on the batched path, is exactly log2(3) x symbols.
    Returns (check, symbols coded)."""
    bad, symbols = 0, 0
    for msg, batch_cost in zip(messages, batch_costs):
        stream = quantizers.coded_stream(msg)
        decoded = codec.decode_sequence(stream)
        symbols += len(stream.symbols)
        exact = codec.BITS_PER_SYMBOL * len(stream.symbols)
        bad += not (decoded == msg.indices.tolist() and stream.bit_cost == exact
                    and msg.bit_cost == exact and batch_cost == exact)
    check = Check("codec round trip", bad == 0, quantizers.spec_string(spec) + (
                  f": {bad} of {len(messages)} messages wrong" if bad else ""))
    return check, symbols
