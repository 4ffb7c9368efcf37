"""Tests for the quantized decentralized learning recursion."""

import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from subspaceq import graphs, learning, quantizers, streams
from subspaceq.learning import DataModel, NetworkState, RunConfig
from subspaceq.streams import GRADIENT, QUANTIZE, StreamField
from test_streams import rejected_cells


def make_network(n, l, connectivity=1.0, seed=7, mode="subspace-lsq",
                 p_vectors=2, weight=0.1):
    top = graphs.build_topology(n, connectivity, seed=seed)
    if mode == "consensus-metropolis":
        basis = graphs.subspace_consensus(n, l)
    else:
        basis = graphs.subspace_smooth(top, p_vectors, l, weight=weight)
    comb = graphs.build_combination(top, basis, mode=mode)
    return top, basis, comb


def make_models(n, l, seed=42):
    rng = np.random.default_rng(seed)
    wstar = rng.normal(0.4, 1.0, (n, l))
    return [DataModel(rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.2), wstar[k])
            for k in range(n)]


# ---------------------------------------------------------------------------
# configuration and model validation

def test_data_model_validation():
    DataModel(1.0, 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        DataModel(0.0, 0.1, np.zeros(3))
    with pytest.raises(ValueError):
        DataModel(1.0, -0.1, np.zeros(3))
    assert DataModel(1.0, 0.1, np.zeros(4)).dim == 4


@pytest.mark.parametrize("sigma_u_sq, sigma_v_sq, w_star", [
    (float("nan"), 0.1, [0.0, 1.0]),
    (np.inf, 0.1, [0.0, 1.0]),
    (1.0, float("nan"), [0.0, 1.0]),
    (1.0, np.inf, [0.0, 1.0]),
    (1.0, 0.1, [0.0, float("nan")]),
    (1.0, 0.1, [np.inf, 1.0]),
])
def test_non_finite_data_models_are_rejected(sigma_u_sq, sigma_v_sq, w_star):
    # caught here, not as NonFinite from the recursion at iteration 1
    with pytest.raises(ValueError, match="finite"):
        DataModel(sigma_u_sq, sigma_v_sq, np.array(w_star))


@pytest.mark.parametrize("mu", [float("nan"), np.inf])
def test_non_finite_step_size_is_rejected(mu):
    with pytest.raises(ValueError, match="step size"):
        RunConfig(mu=mu, gamma=0.5, iterations=10)


def test_run_config_validation():
    good = dict(mu=0.01, gamma=0.5, iterations=10, runs=2)
    RunConfig(**good)
    with pytest.raises(ValueError):
        RunConfig(**{**good, "mu": 0.0})
    with pytest.raises(ValueError):
        RunConfig(**{**good, "gamma": 0.0})
    with pytest.raises(ValueError):
        RunConfig(**{**good, "gamma": 1.2})
    with pytest.raises(ValueError):
        RunConfig(**{**good, "iterations": 0})
    with pytest.raises(ValueError):
        RunConfig(**{**good, "on_divergence": "ignore"})


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "seed must be >= 0"),
    ("seed", 1.5, "seed must be an integer"),
    ("iterations", 2.5, "iterations must be an integer"),
    ("runs", 1.5, "runs must be an integer"),
    ("runs", 2.0, "runs must be an integer"),
])
def test_run_config_rejects_negative_or_fractional_counts(field, value, message):
    # before: accepted here, then a numpy ValueError or TypeError from run
    with pytest.raises(ValueError, match=message):
        RunConfig(**{"mu": 0.01, "gamma": 0.5, "iterations": 10, field: value})
    RunConfig(mu=0.01, gamma=0.5, iterations=np.int64(10), seed=np.uint32(3))


def test_specs_for_broadcast_and_mismatch():
    sp = quantizers.identity(3)
    cfg = RunConfig(mu=0.01, gamma=1.0, iterations=1, quantizer=sp)
    assert cfg.specs_for(4) == [sp] * 4
    cfg = RunConfig(mu=0.01, gamma=1.0, iterations=1, quantizer=[sp, sp])
    with pytest.raises(ValueError, match="per agent"):
        cfg.specs_for(3)


@pytest.mark.parametrize("quantizer", [
    None, "uniform:delta=0.1", 3,
    [quantizers.identity(2), "identity", quantizers.identity(2)]],
    ids=["none", "str", "int", "str-element"])
def test_specs_for_names_a_missing_or_wrong_quantizer(quantizer):
    # not a bare TypeError, nor a length check that counts characters
    cfg = RunConfig(mu=0.01, gamma=0.5, iterations=3, quantizer=quantizer)
    with pytest.raises(ValueError, match="must be a QuantizerSpec"):
        cfg.specs_for(3)
    top, basis, comb = make_network(3, 2, mode="consensus-metropolis")
    with pytest.raises(ValueError, match="must be a QuantizerSpec"):
        learning.run(cfg, make_models(3, 2), basis, comb)


@pytest.mark.parametrize("entry", ["run"])
def test_run_rejects_mismatched_shapes(entry):
    top, basis, comb = make_network(4, 2)
    models = make_models(4, 2)
    go = getattr(learning, entry)
    cfg = RunConfig(mu=0.01, gamma=0.9, iterations=5,
                    quantizer=quantizers.identity(3))
    with pytest.raises(ValueError, match="quantizer 0 has dim 3"):
        go(cfg, models, basis, comb)
    cfg = RunConfig(mu=0.01, gamma=0.9, iterations=5,
                    quantizer=quantizers.identity(2))
    bad = models[:3] + [DataModel(2.0, 0.1, np.zeros(3))]
    with pytest.raises(ValueError, match="block dimension"):
        go(cfg, bad, basis, comb)


def test_run_names_a_combination_matrix_of_another_size():
    # a factored matrix mixes every coordinate alike, so one built for
    # l = 2 would otherwise run models of dimension 3
    top, _, comb = make_network(5, 2, mode="consensus-metropolis")
    cfg = RunConfig(mu=0.01, gamma=0.9, iterations=5,
                    quantizer=quantizers.identity(3))
    with pytest.raises(ValueError, match="blocks of size 2, the models dimension 3"):
        learning.run(cfg, make_models(5, 3), graphs.subspace_consensus(5, 3), comb)
    cfg = RunConfig(mu=0.01, gamma=0.9, iterations=5,
                    quantizer=quantizers.identity(2))
    with pytest.raises(ValueError, match="has 5 agents, the models 6"):
        learning.run(cfg, make_models(6, 2), graphs.subspace_consensus(6, 2), comb)


# ---------------------------------------------------------------------------
# gradient oracle

def test_gradient_mean_matches_quadratic_risk():
    # E[-u (d - u^T w)] = R_u (w - w_star) with R_u = sigma_u_sq I
    model = DataModel(1.7, 0.3, np.array([0.5, -1.2, 0.8]))
    w = np.array([1.0, 0.2, -0.4])
    rng = np.random.default_rng(123)
    draws = 200_000
    acc = np.zeros(3)
    sq = np.zeros(3)
    for _ in range(draws):
        g = learning.sample_gradient(model, w, rng)
        acc += g
        sq += g * g
    mean = acc / draws
    se = np.sqrt((sq / draws - mean**2) / draws)
    expect = model.sigma_u_sq * (w - model.w_star)
    assert np.all(np.abs(mean - expect) <= 4 * se + 1e-12)


def test_gradient_zero_at_optimum_without_noise():
    model = DataModel(2.0, 0.0, np.array([0.3, -0.7]))
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = learning.sample_gradient(model, model.w_star, rng)
        assert np.all(g == 0.0)


def test_gradient_scalar_case():
    model = DataModel(1.0, 0.5, np.array([2.0]))
    rng = np.random.default_rng(9)
    draws = 100_000
    vals = np.array([learning.sample_gradient(model, np.array([0.0]), rng)[0]
                     for _ in range(draws)])
    se = vals.std() / np.sqrt(draws)
    assert abs(vals.mean() - 1.0 * (0.0 - 2.0)) <= 4 * se


# ---------------------------------------------------------------------------
# one round against a hand computation

def test_two_agent_step_by_hand():
    n, l = 2, 1
    top, basis, comb = make_network(n, l, mode="consensus-metropolis")
    su = [1.5, 2.5]
    sv = [0.2, 0.1]
    ws = [0.8, -0.4]
    models = [DataModel(su[k], sv[k], np.array([ws[k]])) for k in range(n)]
    mu, gamma, seed = 0.1, 0.7, 31
    specs = [quantizers.identity(1)] * 2
    blocks = comb.a.reshape(n, l, n, l).transpose(0, 2, 1, 3)
    a = comb.a  # scalar entries, l = 1
    plan = learning._plan(models, specs, mu, gamma,
                          np.broadcast_to(np.arange(n), (n, n)), blocks)

    state = NetworkState(n, l)
    streams = StreamField(seed, 0)

    # hand trajectory with the same draws
    w_hand = [0.0, 0.0]
    phi_hand = [0.0, 0.0]
    for i in range(2):
        check = StreamField(seed, 0)
        psi = []
        for k in range(n):
            z = check.stream(i, k, GRADIENT).standard_normal(2)
            u = np.sqrt(su[k]) * z[0]
            v = np.sqrt(sv[k]) * z[1]
            d = u * ws[k] + v
            psi.append(w_hand[k] + mu * u * (d - u * w_hand[k]))
        chi = [psi[k] - phi_hand[k] for k in range(n)]
        phi_hand = [phi_hand[k] + chi[k] for k in range(n)]
        w_hand = [(1 - gamma) * phi_hand[k]
                  + gamma * (a[k, 0] * phi_hand[0] + a[k, 1] * phi_hand[1])
                  for k in range(n)]
        learning.step(state, plan, streams, i)
        assert np.max(np.abs(state.w[:, 0] - np.array(w_hand))) < 1e-12
        assert np.max(np.abs(state.phi[:, 0] - np.array(phi_hand))) < 1e-12


# ---------------------------------------------------------------------------
# structural invariants of the recursion

def test_identity_gamma_one_equals_unquantized_consensus():
    # identity quantizer makes phi track psi exactly, so gamma = 1 reduces the
    # round to w <- A psi, the plain combine-after-adapt recursion
    n, l = 5, 2
    top, basis, comb = make_network(n, l, mode="consensus-metropolis")
    models = make_models(n, l)
    cfg = RunConfig(mu=0.02, gamma=1.0, iterations=400, runs=1,
                    quantizer=quantizers.identity(l), seed=77)
    res = learning.run(cfg, models, basis, comb)

    arrays = learning._model_arrays(models)
    a = graphs.metropolis_weights(top)
    w = np.zeros((n, l))
    streams = StreamField(77, 0)
    for i in range(400):
        psi = learning._draw_psi(w, arrays, cfg.mu, streams, i)
        w = a @ psi
    wopt = res.w_opt
    msd = np.sum((w - wopt) ** 2) / n
    assert abs(msd - res.msd[-1]) < 1e-12 * max(1.0, msd)


def test_additive_noise_form_at_gamma_one():
    # with gamma = 1 the round is w = A (psi - z) for the realized
    # quantization error z; check on the logged trace with a coarse quantizer
    n, l = 4, 3
    top, basis, comb = make_network(n, l, p_vectors=2)
    models = make_models(n, l)
    spec = quantizers.anq(0.5, 0.05, l)
    specs = [spec] * n
    blocks = comb.a.reshape(n, l, n, l).transpose(0, 2, 1, 3)
    plan = learning._plan(models, specs, 0.05, 1.0,
                          np.broadcast_to(np.arange(n), (n, n)), blocks)
    state = NetworkState(n, l)
    streams = StreamField(3, 0)
    for i in range(20):
        trace = {}
        learning.step(state, plan, streams, i, trace=trace)
        assert np.max(np.abs(trace["z"])) > 0  # quantization actually active
        y = trace["psi"] - trace["z"]
        w_expect = np.einsum("kjst,jt->ks", blocks, y)
        scale = max(1.0, np.max(np.abs(w_expect)))
        assert np.max(np.abs(trace["w"] - w_expect)) < 1e-13 * scale


def test_replica_consistency_and_desync_detection():
    n, l = 6, 2
    top, basis, comb = make_network(n, l, connectivity=0.5, seed=11,
                                    mode="consensus-metropolis")
    models = make_models(n, l)
    cfg = RunConfig(mu=0.02, gamma=0.8, iterations=200, runs=1,
                    quantizer=quantizers.anq(0.5, 0.05, l), seed=19)
    learning.run(cfg, models, basis, comb, debug=True)  # no StateDesync

    # a dense view mixes over the full (n, n) index, so the replica table
    # is n wide and copies[k, j] is agent k's replica of agent j
    index = np.broadcast_to(np.arange(n), (n, n))
    state = NetworkState(n, l, width=n)
    streams = StreamField(19, 0)
    blocks = comb.a.reshape(n, l, n, l).transpose(0, 2, 1, 3)
    plan = learning._plan(models, cfg.specs_for(n), 0.02, 0.8, index, blocks)
    for i in range(5):
        learning.step(state, plan, streams, i, debug=True)
    state.check_consistency(index)
    k = 0
    j = next(iter(top.neighborhoods[k] - {k}))
    state.copies[k, j, 0] += 1e-9
    with pytest.raises(learning.StateDesync, match=f"row {k}'s replica of row {j}"):
        state.check_consistency(index)
    # the table width comes from the index, never from a flag
    with pytest.raises(TypeError):
        NetworkState(n, l, replicas=True)
    with pytest.raises(TypeError):
        NetworkState(n, l, True)
    # an option passed positionally after the iteration binds to nothing
    with pytest.raises(TypeError):
        learning.step(state, plan, streams, 5, True)


def _dense_combine(comb, phi):
    # every agent mixes the replicas it keeps of its neighbors, zeros elsewhere
    n = comb.topology.n
    l = phi.shape[1]
    blocks = np.ascontiguousarray(
        comb.a.reshape(n, l, n, l).transpose(0, 2, 1, 3))
    mask = np.zeros((n, n))
    for k, nb in enumerate(comb.topology.neighborhoods):
        mask[k, list(nb)] = 1.0
    copies = mask[:, :, None] * phi[None]
    return np.einsum("kjst,kjt->ks", blocks, copies)


@pytest.mark.parametrize("mode", ["consensus-metropolis", "subspace-lsq"])
def test_neighbor_combine_equals_dense_einsum_bitwise(mode):
    # a star with a tail: degrees 2 to 5, so most rows need padding
    n, l = 7, 3
    top = graphs.build_topology(n, [(1, 2), (1, 3), (1, 4), (1, 5), (5, 6),
                                    (6, 7), (2, 3)])
    if mode == "consensus-metropolis":
        basis = graphs.subspace_consensus(n, l)
    else:
        top = graphs.build_topology(n, 0.5, seed=2)   # degrees 3 to 6
        basis = graphs.subspace_smooth(top, 2, l, weight=0.1)
    comb = graphs.build_combination(top, basis, mode=mode)
    index, mix = comb.index, comb.weights
    # a factored A mixes scalar weights W[k, j], the fit l x l blocks
    assert mix.shape == ((n, index.shape[1]) if comb.factored
                         else (n, index.shape[1], l, l))
    degrees = [top.degree(k) for k in range(n)]
    assert min(degrees) < index.shape[1] == max(degrees)
    blocks = comb.a.reshape(n, l, n, l).transpose(0, 2, 1, 3)
    for k in range(n):
        real = index[k, :degrees[k]]
        assert list(real) == sorted(top.neighborhoods[k])
        assert np.all(index[k, degrees[k]:] == k)
        assert np.all(mix[k, degrees[k]:] == 0.0)
        held = comb.matrix[k, real] if comb.factored else blocks[k, real]
        assert np.array_equal(mix[k, :degrees[k]], held)
    # both mix per coordinate, as step does
    weights = learning._mixing_weights(mix, l)
    assert weights.shape == (n, index.shape[1], l)
    rng = np.random.default_rng(0)
    for _ in range(100):
        # 16 decades of magnitude
        phi = rng.standard_normal((n, l)) * 10.0 ** rng.uniform(-8, 8)
        got = np.einsum("kmt,kmt->kt", weights, phi[index])
        assert np.array_equal(got, _dense_combine(comb, phi))


def test_run_keeps_replicas_only_in_audit_mode(monkeypatch):
    n, l = 5, 2
    top, basis, comb = make_network(n, l, connectivity=0.6, seed=4,
                                    mode="consensus-metropolis")
    models = make_models(n, l)
    cfg = RunConfig(mu=0.02, gamma=0.8, iterations=120, runs=1,
                    quantizer=quantizers.uniform(0.05, l), seed=6)
    seen = []
    real_step = learning.step

    def spy(state, *args, **kwargs):
        seen.append(state.copies is not None)
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(learning, "step", spy)
    plain = learning.run(cfg, models, basis, comb)
    assert seen and not any(seen)
    seen.clear()
    audited = learning.run(cfg, models, basis, comb, debug=True)
    assert seen and all(seen)
    assert np.array_equal(plain.msd, audited.msd)
    assert np.array_equal(plain.bits, audited.bits)
    with pytest.raises(ValueError, match="replicas"):
        NetworkState(n, l).check_consistency(np.broadcast_to(np.arange(n), (n, n)))


def test_audit_replicas_scale_with_the_neighbor_table():
    # consensus at n = 1,000 and l = 5 (widest neighborhood about 23): one
    # dense (n, n, l) replica array alone is 40 MB, the neighbor table 1 MB
    n, l = 1000, 5
    top, basis, comb = make_network(n, l, connectivity=0.01, seed=7,
                                    mode="consensus-metropolis")
    models = make_models(n, l)
    cfg = RunConfig(mu=0.02, gamma=0.8, iterations=3, runs=1,
                    quantizer=quantizers.anq(0.5, 0.05, l), seed=3)
    tracemalloc.start()
    try:
        audited = learning.run(cfg, models, basis, comb, debug=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"audited run peaked at {peak / 1e6:.1f} MB"
    _assert_same_result(audited, learning.run(cfg, models, basis, comb))


def test_equal_specs_take_the_batched_path(monkeypatch):
    # one quantize_batch call per round whenever all specs share a scheme,
    # equal or not
    n, l, iters, runs = 5, 2, 30, 2
    top, basis, comb = make_network(n, l, mode="consensus-metropolis")
    models = make_models(n, l)
    calls = []
    real_batch = quantizers.quantize_batch

    def counting(*args):
        calls.append(args[0])
        return real_batch(*args)

    monkeypatch.setattr(quantizers, "quantize_batch", counting)
    copies = [quantizers.anq(0.25, 0.01, l) for _ in range(n)]
    cfg = RunConfig(mu=0.02, gamma=0.8, iterations=iters, runs=runs,
                    quantizer=copies, seed=4)
    by_list = learning.run(cfg, models, basis, comb)
    assert len(calls) == iters * runs
    calls.clear()
    shared = learning.run(RunConfig(mu=0.02, gamma=0.8, iterations=iters,
                                    runs=runs, quantizer=copies[0], seed=4),
                          models, basis, comb)
    assert len(calls) == iters * runs
    assert np.array_equal(by_list.msd, shared.msd)
    assert np.array_equal(by_list.bits, shared.bits)
    calls.clear()
    mixed = copies[:-1] + [quantizers.anq(0.25, 0.02, l)]
    learning.run(RunConfig(mu=0.02, gamma=0.8, iterations=iters, runs=runs,
                           quantizer=mixed, seed=4), models, basis, comb)
    assert len(calls) == iters * runs


def test_one_batch_call_per_scheme_and_quantize_only_for_randc(monkeypatch):
    # rows are grouped by scheme across configs and agents: each round makes
    # one quantize_batch call per scheme present, and quantize (with its
    # reconstruct) runs only for randc rows
    top, basis, comb = _batch_network()
    l = 3
    batches, messages = [], []
    real_batch = quantizers.quantize_batch

    def counting_batch(specs, *args):
        batches.append({s.kind for s in specs})
        return real_batch(specs, *args)

    def counting(real):
        def call(spec, *args):
            messages.append((real.__name__, spec.kind))
            return real(spec, *args)
        return call

    monkeypatch.setattr(quantizers, "quantize_batch", counting_batch)
    for name in ("quantize", "reconstruct"):
        monkeypatch.setattr(quantizers, name, counting(getattr(quantizers, name)))
    cycle = [quantizers.randc(2, l), quantizers.gossip(0.6, l),
             quantizers.sparsifier([0.9, 0.5, 0.3], l), quantizers.qsgd(4, l),
             quantizers.anq(0.0, 0.05, l), quantizers.anq(0.5, 0.01, l)]
    configs = [RunConfig(mu=0.02, gamma=0.8, iterations=20, runs=2, seed=4,
                         quantizer=q)
               for q in (cycle, quantizers.uniform(0.1, l), quantizers.identity(l),
                         quantizers.anq(0.25, 0.01, l), cycle[::-1])]
    models = make_models(6, l)
    batched = learning.run(configs, models, basis, comb)
    kinds = ["identity", "uniform", "anq", "gossip", "sparsifier", "qsgd"]
    assert batches == [{kind} for kind in kinds] * (2 * 20)
    # randc holds agent 0 of the first config and agent 5 of the last
    assert messages == [("quantize", "randc"), ("reconstruct", "randc")] * (2 * 2 * 20)
    monkeypatch.undo()
    for cfg, got in zip(configs, batched):
        _assert_same_result(got, learning.run(cfg, models, basis, comb))


def test_innovation_energy_scales_with_mu_squared():
    # steady E||chi||^2 tracks mu^2; halving mu should shrink it close to 4x
    n, l = 5, 2
    top, basis, comb = make_network(n, l)
    models = make_models(n, l)
    ratios = []
    for mu in (0.02, 0.01):
        spec = quantizers.anq(0.25, mu / np.sqrt(2 * l), l)
        cfg = RunConfig(mu=mu, gamma=0.9, iterations=1500, runs=3,
                        quantizer=spec, seed=5)
        res = learning.run(cfg, models, basis, comb)
        ratios.append(learning.steady_mean(res.chi_sq.mean(axis=1)))
    ratio = ratios[0] / ratios[1]
    assert 2.0 < ratio < 6.0


def test_steady_msd_monotone_in_mu():
    n, l = 5, 2
    top, basis, comb = make_network(n, l)
    models = make_models(n, l)
    steady = []
    for mu in (0.004, 0.016):
        cfg = RunConfig(mu=mu, gamma=0.9, iterations=2500, runs=3,
                        quantizer=quantizers.identity(l), seed=8)
        res = learning.run(cfg, models, basis, comb)
        steady.append(learning.steady_mean(res.msd))
    assert steady[1] > steady[0]


def test_bit_exact_determinism():
    n, l = 4, 2
    top, basis, comb = make_network(n, l)
    models = make_models(n, l)
    cfg = RunConfig(mu=0.02, gamma=0.9, iterations=150, runs=2,
                    quantizer=quantizers.anq(0.25, 0.01, l), seed=101)
    r1 = learning.run(cfg, models, basis, comb)
    r2 = learning.run(cfg, models, basis, comb)
    assert np.array_equal(r1.msd, r2.msd)
    assert np.array_equal(r1.bits, r2.bits)
    assert np.array_equal(r1.chi_sq, r2.chi_sq)
    r3 = learning.run(RunConfig(mu=0.02, gamma=0.9, iterations=150, runs=2,
                                quantizer=quantizers.anq(0.25, 0.01, l),
                                seed=102), models, basis, comb)
    assert not np.array_equal(r1.msd, r3.msd)


def test_divergence_guard_raises_with_iteration():
    n, l = 4, 2
    top, basis, comb = make_network(n, l)
    models = make_models(n, l)
    cfg = RunConfig(mu=50.0, gamma=1.0, iterations=400, runs=1,
                    quantizer=quantizers.identity(l), seed=3)
    with pytest.raises(learning.NonFinite) as exc:
        learning.run(cfg, models, basis, comb)
    assert 1 <= exc.value.iteration <= 400
    assert str(exc.value.iteration) in str(exc.value)


def test_divergence_flag_mode():
    n, l = 4, 2
    top, basis, comb = make_network(n, l)
    models = make_models(n, l)
    cfg = RunConfig(mu=50.0, gamma=1.0, iterations=400, runs=3,
                    quantizer=quantizers.identity(l), seed=3,
                    on_divergence="flag")
    res = learning.run(cfg, models, basis, comb)
    assert res.diverged and res.diverged_at is not None
    assert res.runs_used == 1
    assert np.all(np.isinf(res.msd[res.diverged_at + 1:]))
    assert np.isfinite(res.msd[: res.diverged_at]).all()


def _index_range_run(entry, policy):
    """A diverging fine uniform arm whose level indices reach
    quantizers.MAX_INDEX in round 5, before |w| passes DIVERGENCE_LIMIT."""
    top, basis, comb = make_network(6, 3, connectivity=0.6, seed=5,
                                    mode="consensus-metropolis")
    cfg = RunConfig(mu=50.0, gamma=1.0, iterations=20, runs=3,
                    quantizer=quantizers.uniform(1e-3, 3), seed=17,
                    on_divergence=policy)
    return getattr(learning, entry)(cfg, make_models(6, 3), basis, comb)


@pytest.mark.parametrize("entry", ["run"])
def test_index_range_is_flagged_as_divergence(entry):
    res = _index_range_run(entry, "flag")
    assert res.diverged and res.diverged_at == 6 and res.runs_used == 1
    assert np.isfinite(res.msd[:6]).all() and np.isinf(res.msd[6:]).all()
    for series in (res.bits, res.chi_sq):
        assert np.isfinite(series[:5]).all() and np.isnan(series[5:]).all()


@pytest.mark.parametrize("entry", ["run"])
def test_index_range_raises_nonfinite(entry):
    with pytest.raises(learning.NonFinite) as exc:
        _index_range_run(entry, "raise")
    assert exc.value.iteration == 6
    assert isinstance(exc.value.__cause__, quantizers.IndexRange)


OVERFLOW_SPECS = {
    "identity": quantizers.identity(3),
    "uniform": quantizers.uniform(0.02, 3),
    "anq": quantizers.anq(0.5, 0.01, 3),
    "randc": quantizers.randc(2, 3),
    "gossip": quantizers.gossip(0.6, 3),
    "sparsifier": quantizers.sparsifier(0.5, 3),
    "qsgd": quantizers.qsgd(4, 3),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", [1.7e308, 1e200])
@pytest.mark.parametrize("kind", quantizers.KINDS)
def test_every_scheme_diverges_quietly_in_an_overflowing_round(kind, mu):
    # the first round's innovation leaves the float range; randc used to
    # raise a bare ValueError from quantize, and the round printed overflow
    # and invalid-value warnings for rows the divergence policy reports
    top, basis, comb = make_network(6, 3, connectivity=0.6, seed=5,
                                    mode="consensus-metropolis")
    models = [DataModel(m.sigma_u_sq, m.sigma_v_sq, 100 * m.w_star)
              for m in make_models(6, 3)]
    cfg = RunConfig(mu=mu, gamma=0.8, iterations=10, runs=2, seed=3,
                    quantizer=OVERFLOW_SPECS[kind], on_divergence="flag")
    res = learning.run(cfg, models, basis, comb)
    assert res.diverged and res.diverged_at == 1 and res.runs_used == 1
    with pytest.raises(learning.NonFinite) as exc:
        learning.run(RunConfig(**{**vars(cfg), "on_divergence": "raise"}),
                     models, basis, comb)
    assert exc.value.iteration == 1


def test_nonfinite_survives_pickling():
    err = pickle.loads(pickle.dumps(learning.NonFinite(6)))
    assert err.iteration == 6
    assert str(err) == "iterate exceeded the divergence guard at iteration 6"
    custom = pickle.loads(pickle.dumps(learning.NonFinite(3, "state blew up")))
    assert (custom.iteration, str(custom)) == (3, "state blew up at iteration 3")


# ---------------------------------------------------------------------------
# configurations as an array axis

def _batch_network():
    # the golden consensus network; at mu = 0.4 some anq arms diverge
    return make_network(6, 3, connectivity=0.6, seed=5,
                        mode="consensus-metropolis")


def _batch_grid(policy="flag"):
    l = 3
    shared = dict(mu=0.4, gamma=0.8, iterations=500, runs=2, seed=11,
                  on_divergence=policy)
    quantizer_grid = [
        quantizers.anq(0.25, 0.01, l),
        # agent by agent: every selection scheme and two index specs;
        # passes DIVERGENCE_LIMIT in run 1
        [quantizers.randc(2, l), quantizers.gossip(0.6, l),
         quantizers.sparsifier(0.5, l), quantizers.qsgd(4, l),
         quantizers.uniform(0.5, l), quantizers.anq(0.5, 0.01, l)],
        quantizers.uniform(0.5, l),
        quantizers.anq(1.0, 0.01, l),     # passes DIVERGENCE_LIMIT, run 1
        quantizers.identity(l),
        quantizers.anq(0.0, 0.05, l),     # omega = 0: the linear map
        quantizers.uniform(1e-20, l),     # IndexRange in round 0
        quantizers.anq(4.0, 0.02, l),     # passes DIVERGENCE_LIMIT, run 2
        [quantizers.randc(1, l), quantizers.uniform(1e-20, l)] * 3,
        quantizers.identity(l, b_hp=16),
    ]
    configs = [RunConfig(quantizer=q, **shared) for q in quantizer_grid]
    # step size and mixing parameter may differ within a batch
    configs.append(RunConfig(**{**shared, "mu": 0.3, "gamma": 1.0,
                                "quantizer": quantizers.anq(0.25, 0.01, l)}))
    return configs


def _assert_same_result(got, want):
    for field in ("msd", "bits", "chi_sq", "w_opt"):
        assert np.array_equal(getattr(got, field), getattr(want, field),
                              equal_nan=True), field
    assert (got.diverged, got.diverged_at, got.runs_used) == \
        (want.diverged, want.diverged_at, want.runs_used)
    assert got.config == want.config


def test_batched_configs_equal_separate_runs_bitwise():
    top, basis, comb = _batch_network()
    models = make_models(6, 3)
    configs = _batch_grid()
    batched = learning.run(configs, models, basis, comb)
    assert len(batched) == len(configs)
    for cfg, got in zip(configs, batched):
        _assert_same_result(got, learning.run(cfg, models, basis, comb))
    diverged = {k: (r.diverged_at, r.runs_used)
                for k, r in enumerate(batched) if r.diverged}
    assert diverged == {1: (155, 1), 3: (427, 1), 6: (1, 1), 7: (431, 2),
                        8: (1, 1)}
    # the audit mode keeps and checks replicas of every config's network
    audited = learning.run(configs[:4], models, basis, comb, debug=True)
    for got, want in zip(audited, batched):
        _assert_same_result(got, want)


def test_factored_run_equals_dense_run_bitwise(monkeypatch):
    # the per-coordinate combine of A = W kron I_l against the l x l block
    # combine of the same matrix held dense
    top, basis, comb = _batch_network()
    dense = graphs.CombinationMatrix.from_dense(comb.a, comb.topology,
                                                comb.block_dims)
    assert comb.factored and not dense.factored
    models = make_models(6, 3)
    grid = _batch_grid()
    # 1 and 3 pass DIVERGENCE_LIMIT, 6 leaves the exact range in round 0
    stacked = [grid[k] for k in (0, 1, 3, 6, 10)]
    cases = [(grid[0], False), (stacked, False), (stacked[:3], True)]
    with monkeypatch.context() as blocks:
        blocks.setattr(learning, "_mixing_weights", lambda weights, l: weights)
        want = [learning.run(cfg, models, basis, dense, debug=debug)
                for cfg, debug in cases]

    def dense_read(self):
        raise AssertionError("the factored run read the dense matrix")

    monkeypatch.setattr(graphs.CombinationMatrix, "a", property(dense_read))
    got = [learning.run(cfg, models, basis, comb, debug=debug)
           for cfg, debug in cases]
    _assert_same_result(got[0], want[0])
    assert [r.diverged_at for r in want[1]] == [None, 155, 427, 1, None]
    for results_got, results_want in zip(got[1:], want[1:]):
        for g, w in zip(results_got, results_want, strict=True):
            _assert_same_result(g, w)


def test_batch_draws_each_cell_once(monkeypatch):
    # each agent's GRADIENT and QUANTIZE cells are one cell apiece of
    # StreamField.draws' array Philox, once a repetition for all five
    # configs; stream() draws only the GRADIENT cells with a word that the
    # ziggurat's fast path rejects, found from the tables
    top, basis, comb = _batch_network()
    cells, steps, generated = [], [], Counter()
    real_stream, real_step, real_philox = (StreamField.stream, learning.step,
                                           streams._philox)

    def counting_stream(self, *args):
        cells.append((self.run, *args))
        return real_stream(self, *args)

    def counting_step(*args, **kwargs):
        steps.append(1)
        return real_step(*args, **kwargs)

    def counting_philox(schedule, even, odd):
        first = even[0] == 1        # a cell's first block
        key = tuple(schedule[0].ravel().tolist())
        generated.update((key, p, i, k) for p, i, k in
                         zip(odd[0][first].tolist(), odd[1][first].tolist(),
                             even[1][first].tolist()))
        return real_philox(schedule, even, odd)

    monkeypatch.setattr(StreamField, "stream", counting_stream)
    monkeypatch.setattr(learning, "step", counting_step)
    monkeypatch.setattr(streams, "_philox", counting_philox)
    # the selection schemes cycled over agents read the same uniforms
    cycled = [quantizers.gossip(0.5, 3), quantizers.sparsifier([0.2, 0.7, 1.0], 3),
              quantizers.qsgd(3, 3)] * 2
    configs = [RunConfig(mu=0.02, gamma=0.8, iterations=30, runs=2, seed=4,
                         quantizer=q)
               for q in (quantizers.uniform(0.1, 3), quantizers.anq(0.5, 0.01, 3),
                         quantizers.identity(3), cycled, quantizers.uniform(0.2, 3))]
    learning.run(configs, make_models(6, 3), basis, comb)
    assert len(steps) == 2 * 30
    fields = [StreamField(4, rep) for rep in range(2)]
    keys = [tuple(f._key.tolist()) for f in fields]
    assert generated == Counter({(key, p, i, k): 1 for key in keys
                                 for p in (GRADIENT, QUANTIZE)
                                 for i in range(30) for k in range(6)})
    rejected = [(rep, i, k, GRADIENT) for rep in range(2)
                for i, k in rejected_cells(fields[rep]._key, 30, range(6), 4)]
    assert rejected and Counter(cells) == Counter(rejected)


def test_batch_raises_the_first_diverging_config():
    top, basis, comb = _batch_network()
    models = make_models(6, 3)
    grid = _batch_grid("raise")
    # sequential runs would raise in grid[1] (round 155) before reaching
    # grid[6], which leaves the exact range in round 0
    with pytest.raises(learning.NonFinite) as exc:
        learning.run(grid, models, basis, comb)
    assert exc.value.iteration == 155 and exc.value.__cause__ is None
    with pytest.raises(learning.NonFinite) as exc:
        learning.run([grid[0], grid[6], grid[3]], models, basis, comb)
    assert exc.value.iteration == 1
    assert isinstance(exc.value.__cause__, quantizers.IndexRange)
    # a flagged config ahead of the raising one does not stop the batch
    flagged = RunConfig(**{**vars(grid[3]), "on_divergence": "flag"})
    with pytest.raises(learning.NonFinite) as exc:
        learning.run([flagged, grid[6]], models, basis, comb)
    assert exc.value.iteration == 1


def test_nan_iterate_below_the_limit_diverges_its_config_alone(monkeypatch):
    # a NaN iterate passes no |w| <= DIVERGENCE_LIMIT test, so round i
    # diverges the config through its non-finite deviation, not a round later
    # through the quantizer's index range
    top, basis, comb = _batch_network()
    models = make_models(6, 3)
    grid = _batch_grid()
    configs = [grid[k] for k in (0, 2, 4, 5)]
    want = [learning.run(cfg, models, basis, comb) for cfg in configs]
    poisoned, at = 1, 40
    real_step = learning.step

    def nan_step(state, *args, **kwargs):
        out = real_step(state, *args, **kwargs)
        if args[2] == at and state.n == len(configs) * 6:
            state.w[poisoned * 6:(poisoned + 1) * 6] = np.nan
        return out

    monkeypatch.setattr(learning, "step", nan_step)
    got = learning.run(configs, models, basis, comb)
    bad = got[poisoned]
    assert bad.diverged and bad.diverged_at == at + 1 and bad.runs_used == 1
    assert np.isfinite(bad.msd[:at + 1]).all() and np.isinf(bad.msd[at + 2:]).all()
    assert np.isfinite(bad.bits[:at + 1]).all() and np.isnan(bad.bits[at + 1:]).all()
    for k, (g, w) in enumerate(zip(got, want)):
        if k != poisoned:
            _assert_same_result(g, w)
    with pytest.raises(learning.NonFinite) as exc:
        learning.run([RunConfig(**{**vars(c), "on_divergence": "raise"})
                      for c in configs], models, basis, comb)
    assert exc.value.iteration == at + 1 and exc.value.__cause__ is None


@pytest.mark.parametrize("field, value", [("seed", 12), ("runs", 3),
                                          ("iterations", 499)])
def test_batch_rejects_configs_that_do_not_share_draws(field, value):
    top, basis, comb = _batch_network()
    first = _batch_grid()[0]
    other = RunConfig(**{**vars(first), field: value})
    with pytest.raises(learning.BatchMismatch, match="seed, runs and iterations"):
        learning.run([first, other], make_models(6, 3), basis, comb)


# ---------------------------------------------------------------------------
# the recursion by hand

def hand_recursion(models, a, cfg):
    """msd and chi_sq of run under the identity quantizer, written out per
    agent from the recursion itself: psi_k from sample_gradient on
    stream(i, k, GRADIENT), phi = psi, and
    w_k = (1 - gamma) phi_k + gamma sum_j a[k, j] phi_j with the scalar
    weights a. The deviation reference is the variance-weighted average of
    the targets, the consensus optimum."""
    n, l = len(models), models[0].dim
    su = np.array([m.sigma_u_sq for m in models])
    wbar = np.average([m.w_star for m in models], axis=0, weights=su)
    msd = np.zeros(cfg.iterations + 1)
    chi_sq = np.zeros((cfg.iterations, n))
    for rep in range(cfg.runs):
        streams = StreamField(cfg.seed, rep)
        w, phi = np.zeros((n, l)), np.zeros((n, l))
        msd[0] += np.sum((w - wbar) ** 2) / n
        for i in range(cfg.iterations):
            psi = np.array([
                w[k] - cfg.mu * learning.sample_gradient(
                    models[k], w[k], streams.stream(i, k, GRADIENT))
                for k in range(n)])
            chi_sq[i] += np.sum((psi - phi) ** 2, axis=1)
            phi = psi       # the identity quantizer sends chi as it is
            w = np.array([(1 - cfg.gamma) * phi[k]
                          + cfg.gamma * sum(a[k, j] * phi[j] for j in range(n))
                          for k in range(n)])
            msd[i + 1] += np.sum((w - wbar) ** 2) / n
    return msd / cfg.runs, chi_sq / cfg.runs


def test_diffusion_on_a_hand_built_matrix_matches_a_hand_recursion():
    # an asymmetric pattern (a_01 != 0 = a_10), rows of unequal width, so
    # that the table pads, and a zero diagonal entry (a_22): agent 2 mixes
    # only its neighbors' states
    a = np.array([[0.5, 0.5, 0.0, 0.0],
                  [0.0, 0.2, 0.3, 0.5],
                  [0.6, 0.0, 0.0, 0.4],
                  [0.0, 0.0, 0.1, 0.9]])
    n, l = 4, 2
    top = graphs.build_topology(n, [(1, 2), (2, 3), (2, 4), (1, 3), (3, 4)])
    comb = graphs.CombinationMatrix.from_dense(np.kron(a, np.eye(l)), top,
                                               (l,) * n)
    models = make_models(n, l)
    cfg = RunConfig(mu=0.05, gamma=0.7, iterations=40, runs=2,
                    quantizer=quantizers.identity(l), seed=19)
    res = learning.run(cfg, models, graphs.subspace_consensus(n, l), comb)
    msd, chi_sq = hand_recursion(models, a, cfg)
    assert np.max(np.abs(res.msd - msd)) < 1e-12 * max(1.0, msd.max())
    assert np.max(np.abs(res.chi_sq - chi_sq)) < 1e-12 * max(1.0, chi_sq.max())
    assert np.all(res.bits == l * 32)


# ---------------------------------------------------------------------------
# helpers and output format

def test_steady_mean_window():
    x = np.arange(1000.0)
    assert learning.steady_mean(x) == pytest.approx(np.mean(x[-500:]))
    assert learning.steady_mean(x, window=10) == pytest.approx(994.5)
    with pytest.raises(ValueError, match="steady window"):
        learning.steady_mean(x[:100])


def test_metrics_csv_roundtrip(tmp_path):
    n, l = 3, 2
    top, basis, comb = make_network(n, l)
    models = make_models(n, l)
    cfg = RunConfig(mu=0.02, gamma=0.9, iterations=20, runs=1,
                    quantizer=quantizers.anq(0.25, 0.01, l), seed=13)
    res = learning.run(cfg, models, basis, comb)

    path = tmp_path / "metrics.csv"
    learning.save_metrics_csv(path, res, version="0.1.0", seed=13)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "seed=13" in lines[0]
    assert lines[1] == "iter,msd,msd_db,avg_bits_per_component"
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert data.shape == (21, 4)
    assert np.array_equal(data[:, 0], np.arange(21))
    assert np.allclose(data[:, 1], res.msd, rtol=1e-9)
    assert np.allclose(data[1:, 3], res.rate, rtol=1e-9)
    assert data[0, 3] == 0

    per = tmp_path / "metrics_agents.csv"
    learning.save_metrics_csv(per, res, version="0.1.0", seed=13, per_agent=True)
    header = per.read_text().splitlines()[1].split(",")
    assert len(header) == 4 + 2 * n
    data = np.loadtxt(per, delimiter=",", skiprows=2)
    assert np.allclose(data[1:, 4:4 + n], res.bits, rtol=1e-9)
    assert np.allclose(data[1:, 4 + n:], res.chi_sq, rtol=1e-9)
