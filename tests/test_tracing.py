"""The benchmark tracer's contract with the library.

benchmarks/tracing.py wraps library functions by name, at the attribute the
caller looks up at call time. A rename under src/ must fail here, not only in
a traced benchmark run, and every round of the recursion must pass through
the one traced step. Every name a module exports in __all__ must exist too.
"""

import importlib
import pkgutil
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import subspaceq
from subspaceq import graphs, learning, quantizers, streams
from subspaceq.learning import DataModel, RunConfig
from test_streams import rejected_cells

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # executed from its source, so nothing is written next to it
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_boundary_exists(tracing):
    for owner, attr, _ in tracing.BOUNDARIES:
        assert attr in owner.__dict__, f"{owner.__name__} has no {attr}"


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # "from subspaceq.<module> import *" and misleads a reader
    modules = [subspaceq] + [
        importlib.import_module(f"subspaceq.{info.name}")
        for info in pkgutil.iter_modules(subspaceq.__path__)
        if not info.name.startswith("_")]
    assert len(modules) == 8
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


@pytest.mark.parametrize("entry", ["run"])
def test_every_round_is_one_traced_step(tracing, entry):
    n, l, runs, iterations = 4, 2, 2, 3
    top = graphs.build_topology(n, 1.0, seed=1)
    basis = graphs.subspace_consensus(n, l)
    comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
    models = [DataModel(2.0, 0.1, np.full(l, 0.5)) for _ in range(n)]
    cfg = RunConfig(mu=0.05, gamma=0.8, iterations=iterations, runs=runs,
                    quantizer=quantizers.uniform(0.1, l))
    tracer = tracing.Tracer("contract", 0)
    with tracer.patched():
        getattr(learning, entry)(cfg, models, basis, comb)
    assert tracer.layers()["learning.step"][0] == runs * iterations


def test_every_stream_cell_is_one_traced_stream_call(tracing, monkeypatch):
    # StreamField.draws' array Philox generates each agent's GRADIENT cell
    # and each reader's QUANTIZE cell once a repetition for all the stacked
    # configs, and no round past the run's last; stream() serves each randc
    # row's QUANTIZE cell and each GRADIENT cell with a word that the
    # ziggurat's fast path rejects, one traced call apiece
    n, l, runs, iterations = 4, 2, 2, 3
    top = graphs.build_topology(n, 1.0, seed=1)
    basis = graphs.subspace_consensus(n, l)
    comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
    models = [DataModel(2.0, 0.1, np.full(l, 0.5)) for _ in range(n)]
    mixes = ([quantizers.randc(1, l), quantizers.uniform(0.1, l),
              quantizers.gossip(0.5, l), quantizers.qsgd(4, l)],
             [quantizers.identity(l), quantizers.uniform(0.2, l),
              quantizers.randc(2, l), quantizers.identity(l)])
    configs = [RunConfig(mu=0.05, gamma=0.8, iterations=iterations, runs=runs,
                         quantizer=mix) for mix in mixes]
    generated = Counter()
    philox = streams._philox

    def recording(schedule, even, odd):
        # a cell's first block has counter word 0 equal to 1, and counter
        # word 1 names its lane
        first = even[0] == 1
        key = tuple(schedule[0].ravel().tolist())
        generated.update((key, p, i, k) for p, i, k in
                         zip(odd[0][first].tolist(), odd[1][first].tolist(),
                             even[1][first].tolist()))
        return philox(schedule, even, odd)

    monkeypatch.setattr(streams, "_philox", recording)
    tracer = tracing.Tracer("contract", 0)
    with tracer.patched():
        learning.run(configs, models, basis, comb)
    fields = [streams.StreamField(0, rep) for rep in range(runs)]
    rejected = sum(len(rejected_cells(f._key, iterations, range(n), l + 1))
                   for f in fields)
    randc_rows = 2
    assert tracer.layers()["streams.stream"][0] == (runs * iterations * randc_rows
                                                    + rejected)
    keys = [tuple(f._key.tolist()) for f in fields]
    assert generated == Counter(
        {(key, p, i, k): 1 for key in keys for i in range(iterations)
         for p, readers in ((streams.GRADIENT, range(n)),
                            (streams.QUANTIZE, (1, 2, 3)))
         for k in readers})
