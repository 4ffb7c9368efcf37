"""Generated-input properties of the batched driver.

Audit mode, run(debug=True), keeps every agent's replicas of its neighbors'
reconstruction states in the neighbor table that mixing reads. The replicas
must never change a drawn bit, and a replica that drifts must be caught. A
list of configs run as one stack must give each config what a run of it
alone gives, divergence included.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from subspaceq import graphs, learning, quantizers
from subspaceq.learning import DataModel, NetworkState, RunConfig
from subspaceq.streams import StreamField
from test_learning import assert_matches_hand_recursion

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
    factored consensus matrix, its blocks gathered from its dense view, or a
    subspace fit."""
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
            comb = graphs.CombinationMatrix.from_dense(comb.a, top,
                                                       comb.block_dims)
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
@given(audited_batches())
def test_a_gathered_dense_view_is_the_same_matrix(batch):
    # the table read back from the dense view: the same bits, the same run
    configs, models, basis, comb = batch
    copy = graphs.CombinationMatrix.from_dense(comb.a, comb.topology,
                                               comb.block_dims)
    assert copy.a.tobytes() == comb.a.tobytes()
    for got, want in zip(learning.run(configs, models, basis, copy),
                         learning.run(configs, models, basis, comb), strict=True):
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
    index = comb.index
    plan = learning._plan(models, specs, 0.05, 0.8, index,
                          learning._mixing_weights(comb.weights, l))
    state = NetworkState(n, l, width=index.shape[1])
    streams = StreamField(data.draw(st.integers(0, 99)), 0)
    rounds = data.draw(st.integers(1, 5))
    for i in range(rounds):
        learning.step(state, plan, streams, i, debug=True)
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
        learning.step(state, plan, streams, rounds, debug=True)


# ---------------------------------------------------------------------------
# the least-squares fit against the round written out per agent

@st.composite
def smooth_fits(draw):
    """(models, basis, comb): the subspace-lsq fit over a subspace_smooth
    basis on a small-world graph (ring lattice and random shortcuts) or a
    ring with random chords, of at most 12 agents."""
    n = draw(st.integers(4, 12))
    l = draw(st.sampled_from([1, 2, 3, 5]))
    ring = [(k, (k + 1) % n) for k in range(n)]
    if draw(st.booleans()):
        lattice = [(k, (k + 2) % n) for k in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        extra = lattice + draw(st.lists(st.sampled_from(pairs), max_size=3))
    else:
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              min_size=1, max_size=n // 2))
    top = graphs.build_topology(n, [(i + 1, j + 1) for i, j in ring + extra])
    basis = graphs.subspace_smooth(top, draw(st.integers(1, 2)), l, weight=0.1)
    try:
        comb = graphs.build_combination(top, basis, mode="subspace-lsq")
    except (graphs.InfeasibleConstraints, graphs.SpectralViolation):
        reject()    # the pattern admits no contracting fit
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    models = [DataModel(rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.2),
                        rng.normal(0.4, 1.0, l)) for _ in range(n)]
    return models, basis, comb


@settings(derandomize=True, max_examples=40, deadline=None)
@given(smooth_fits(), st.data())
def test_smooth_fits_match_the_hand_recursion(fit, data):
    # the fit's table per coordinate runs as the dense A it stands for
    models, basis, comb = fit
    n, l = len(models), models[0].dim
    assert comb.weights.shape == comb.index.shape + (l,)
    # every scheme but uniform(1e-20), which leaves the exact range
    specs = SPECS[:2] + SPECS[3:]
    config = RunConfig(mu=data.draw(st.sampled_from([0.01, 0.05, 0.2])),
                       gamma=data.draw(st.sampled_from([0.5, 0.9, 1.0])),
                       iterations=data.draw(st.integers(1, 40)),
                       runs=data.draw(st.integers(1, 2)),
                       seed=data.draw(st.integers(0, 99)),
                       quantizer=[spec(l) for spec in data.draw(
                           st.lists(st.sampled_from(specs), min_size=n,
                                    max_size=n))])
    result = learning.run(config, models, basis, comb,
                          debug=data.draw(st.booleans()))
    assert_matches_hand_recursion(result, basis, comb.a, models)


# ---------------------------------------------------------------------------
# batched equals separate

@st.composite
def any_spec(draw, l):
    """One spec of any scheme; uniform cells reach down past the IndexRange
    edge, anq spans omega in [0, 4]."""
    kind = draw(st.sampled_from(quantizers.KINDS))
    if kind == "uniform":
        return quantizers.uniform(10.0 ** draw(st.floats(-20, 0)), l)
    if kind == "anq":
        return quantizers.anq(draw(st.floats(0, 4)), draw(st.floats(0.005, 0.1)), l)
    if kind == "randc":
        return quantizers.randc(draw(st.integers(1, l)), l)
    if kind == "gossip":
        return quantizers.gossip(draw(st.floats(0.1, 1)), l)
    if kind == "sparsifier":
        return quantizers.sparsifier(draw(st.floats(0.1, 1)), l)
    if kind == "qsgd":
        return quantizers.qsgd(draw(st.integers(1, 8)), l)
    return quantizers.identity(l)


@st.composite
def config_lists(draw):
    models, basis, comb = draw(networks())
    n, l = len(models), models[0].dim
    shared = dict(iterations=draw(st.integers(1, 60)),
                  runs=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)),
                  on_divergence="flag")
    configs = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            quantizer = draw(any_spec(l))
        else:
            quantizer = draw(st.lists(any_spec(l), min_size=n, max_size=n))
        configs.append(RunConfig(mu=draw(st.sampled_from([0.01, 0.05, 0.2, 1.5])),
                                 gamma=draw(st.floats(0.1, 1.0)),
                                 quantizer=quantizer, **shared))
    return configs, models, basis, comb


@SETTINGS
@given(config_lists())
def test_batched_configs_equal_separate_runs(batch):
    configs, models, basis, comb = batch
    alone = [learning.run(c, models, basis, comb) for c in configs]
    for got, want in zip(learning.run(configs, models, basis, comb), alone,
                         strict=True):
        for field in ("msd", "bits", "chi_sq"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert (got.diverged_at, got.runs_used) == (want.diverged_at, want.runs_used)

    # under "raise" the batch raises what the first diverging config raises
    raising = [replace(c, on_divergence="raise") for c in configs]
    first = next((c for c, r in zip(raising, alone) if r.diverged), None)
    if first is None:
        learning.run(raising, models, basis, comb)
        return
    with pytest.raises(learning.NonFinite) as want:
        learning.run(first, models, basis, comb)
    with pytest.raises(learning.NonFinite) as got:
        learning.run(raising, models, basis, comb)
    assert got.value.iteration == want.value.iteration
    assert type(got.value.__cause__) is type(want.value.__cause__)
