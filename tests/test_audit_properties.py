"""Generated-input properties of the audit mode, run(debug=True).

Audit mode keeps every agent's replicas of its neighbors' reconstruction
states in the neighbor table that mixing reads. The replicas must never
change a drawn bit, and a replica that drifts must be caught.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from subspaceq import graphs, learning, quantizers
from subspaceq.learning import DataModel, NetworkState, RunConfig
from subspaceq.streams import StreamField

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

# uniform(1e-20) leaves the exact index range in round 0, and mu = 1.5
# passes DIVERGENCE_LIMIT within a few dozen rounds
SPECS = [
    lambda l: quantizers.identity(l),
    lambda l: quantizers.uniform(0.1, l),
    lambda l: quantizers.uniform(1e-20, l),
    lambda l: quantizers.anq(0.5, 0.01, l),
    lambda l: quantizers.anq(4.0, 0.02, l),
    lambda l: quantizers.randc(1, l),
    lambda l: quantizers.gossip(0.6, l),
    lambda l: quantizers.qsgd(4, l),
]


@st.composite
def networks(draw):
    """(models, basis, comb) on a connected graph of at most 8 agents: a
    factored consensus matrix, its dense copy, or a dense subspace fit."""
    n = draw(st.integers(2, 8))
    l = draw(st.integers(1, 3))
    # a random spanning tree keeps the graph connected; chords add cycles
    edges = {(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    top = graphs.build_topology(n, sorted(edges))
    kind = draw(st.sampled_from(["factored", "dense-copy", "lsq"]))
    if kind == "lsq":
        basis = graphs.subspace_smooth(top, draw(st.integers(1, n - 1)), l,
                                       weight=0.1)
        try:
            comb = graphs.build_combination(top, basis, mode="subspace-lsq")
        except (graphs.InfeasibleConstraints, graphs.SpectralViolation):
            reject()    # the pattern admits no contracting fit
    else:
        basis = graphs.subspace_consensus(n, l)
        comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
        if kind == "dense-copy":
            comb = graphs.CombinationMatrix(comb.a, top, comb.block_dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    models = [DataModel(rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.2),
                        rng.normal(0.4, 1.0, l)) for _ in range(n)]
    return models, basis, comb


def quantizer_for(draw, n, l):
    """One spec for every agent, or a per-agent mix."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SPECS))(l)
    return [spec(l) for spec in draw(st.lists(st.sampled_from(SPECS),
                                              min_size=n, max_size=n))]


@st.composite
def audited_batches(draw):
    models, basis, comb = draw(networks())
    n, l = len(models), models[0].dim
    shared = dict(iterations=draw(st.integers(1, 60)),
                  runs=draw(st.integers(1, 2)), seed=draw(st.integers(0, 99)),
                  on_divergence="flag")
    configs = [RunConfig(mu=draw(st.sampled_from([0.01, 0.05, 0.2, 1.5])),
                         gamma=draw(st.sampled_from([0.3, 0.8, 1.0])),
                         quantizer=quantizer_for(draw, n, l), **shared)
               for _ in range(draw(st.integers(1, 4)))]
    return configs, models, basis, comb


@SETTINGS
@given(audited_batches())
def test_audit_mode_changes_no_bit(batch):
    configs, models, basis, comb = batch
    plain = learning.run(configs, models, basis, comb)
    audited = learning.run(configs, models, basis, comb, debug=True)
    for got, want in zip(audited, plain, strict=True):
        for field in ("msd", "bits", "chi_sq"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert (got.diverged_at, got.runs_used) == (want.diverged_at, want.runs_used)


@SETTINGS
@given(st.data())
def test_a_drifted_replica_raises_state_desync(data):
    models, basis, comb = data.draw(networks())
    n, l = len(models), models[0].dim
    specs = RunConfig(mu=0.05, gamma=0.8, iterations=1,
                      quantizer=quantizer_for(data.draw, n, l)).specs_for(n)
    index, mix = learning._neighbor_blocks(comb, n, l)
    plan = learning._Plan(learning._model_arrays(models),
                          learning._schemes(specs, n), index)
    state = NetworkState(n, l, width=index.shape[1])
    streams = StreamField(data.draw(st.integers(0, 99)), 0)
    rounds = data.draw(st.integers(1, 5))
    for i in range(rounds):
        learning.step(state, models, specs, 0.05, 0.8, mix, streams, i,
                      debug=True, _plan=plan)
    state.check_consistency(index)

    # any real neighbor's slot, the agent's own included
    r = data.draw(st.integers(0, n - 1))
    m = data.draw(st.integers(0, comb.topology.degree(r) - 1))
    t = data.draw(st.integers(0, l - 1))
    state.copies[r, m, t] = np.nextafter(state.copies[r, m, t], np.inf)
    with pytest.raises(learning.StateDesync,
                       match=f"row {r}'s replica of row {index[r, m]} drifted"):
        state.check_consistency(index)
    # a NaN survives the next update, so the round's own audit sees it
    state.copies[r, m, t] = np.nan
    with pytest.raises(learning.StateDesync):
        learning.step(state, models, specs, 0.05, 0.8, mix, streams, rounds,
                      debug=True, _plan=plan)
