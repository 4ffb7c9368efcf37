"""End-to-end acceptance checks at the tolerances the project commits to.

Each test prints one PASS/FAIL line with the measured values, so running
pytest with -s (or reading the -v test names) gives a one-line verdict per
check. The Monte-Carlo bundle shared by the step-size scaling, bit-rate,
and per-agent bound checks is computed once per session.

The mixing-parameter dichotomy check for the compander scheme is expected to
fail and is left failing on purpose: in the differential loop a faithful
compander never realizes its worst-case noise budget, so the full-mixing arm
degrades gracefully instead of diverging. The companion test right below it
demonstrates the same dichotomy with a scheme whose relative-noise budget is
realized exactly.
"""

import math
import time

import numpy as np
import pytest

from subspaceq import analysis, codec, graphs, learning, quantizers
from subspaceq.learning import DataModel, RunConfig
from subspaceq.streams import setup_rng
from test_learning import hand_recursion

L_VEC = 5
MU0 = 0.003


def report(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def small_world(n, lattice_m, shortcut_q, seed):
    """Ring lattice plus random shortcuts; connected by construction."""
    rng = np.random.default_rng(seed)
    edges = {
        (min(k, (k + d) % n), max(k, (k + d) % n))
        for k in range(n)
        for d in range(1, lattice_m + 1)
    }
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < shortcut_q:
                edges.add((i, j))
    return graphs.build_topology(n, [(a + 1, b + 1) for a, b in edges])


def smoothed_models(top, n, l, seed=31):
    rng = np.random.default_rng(seed)
    raw = rng.normal(0.4, 1.0, n * l)
    w = graphs.smooth_signal(graphs.laplacian(top, 0.1), raw=raw,
                             tau=3.0, l=l).reshape(n, l)
    return [DataModel(rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.2), w[k])
            for k in range(n)]


def consensus_network(n, l, connectivity=1.0):
    top = graphs.build_topology(n, connectivity, seed=0)
    basis = graphs.subspace_consensus(n, l)
    comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
    return top, basis, comb


@pytest.fixture(scope="session")
def mc_bundle():
    """Fifty-run Monte-Carlo sweep over five step sizes on a 20-agent network.

    Compander scheme with omega=0.25 and eta = mu / sqrt(2 L); iteration
    counts shrink as mu grows because convergence speeds up while the steady
    window stays the last 500 iterations.
    """
    top, basis, comb = consensus_network(20, L_VEC)
    models = smoothed_models(top, 20, L_VEC)
    schedule = {0.25: 3500, 0.5: 2000, 1.0: 1400, 2.0: 900, 4.0: 700}
    out = {}
    t0 = time.time()
    for f, iters in schedule.items():
        mu = f * MU0
        spec = quantizers.anq(0.25, mu / math.sqrt(2 * L_VEC), L_VEC)
        cfg = RunConfig(mu=mu, gamma=0.88, iterations=iters, runs=50,
                        quantizer=spec, seed=5)
        out[f] = learning.run(cfg, models, basis, comb)
    out["elapsed"] = time.time() - t0
    out["eta"] = {f: f * MU0 / math.sqrt(2 * L_VEC) for f in schedule}
    return out


def test_quantizer_moment_contracts():
    # seven schemes, twenty fixed inputs spread over three dimensions,
    # 1e5 draws each: empirical bias and MSE must sit inside the Property-1
    # budget up to four standard errors
    t0 = time.time()
    draws = 10**5
    mags = [0.01, 0.1, 0.5, 1.0, 5.0, 25.0, 100.0]
    counts = {1: 7, 5: 7, 64: 6}
    worst_bias = 0.0
    worst_margin = np.inf
    cells = 0
    for dim, n_inputs in counts.items():
        rng_x = setup_rng(401, dim)
        inputs = []
        for mag in mags[:n_inputs]:
            v = rng_x.normal(size=dim)
            inputs.append(mag * v / np.linalg.norm(v))
        schemes = [
            quantizers.identity(dim),
            quantizers.uniform(0.05, dim),
            quantizers.anq(0.25, 0.01, dim),
            quantizers.randc(min(3, dim), dim),
            quantizers.gossip(0.5, dim),
            quantizers.sparsifier(0.3, dim),
            quantizers.qsgd(2, dim),
        ]
        for spec in schemes:
            budget = quantizers.noise_budget(spec)
            for x in inputs:
                mom = quantizers.empirical_moments(
                    spec, x, setup_rng(402, cells), draws)
                z = np.abs(mom["mean_err"]) - 4.0 * mom["se_mean"]
                worst_bias = max(worst_bias, float(np.max(z)))
                # a slack relative to cap, as quantizer-test states it:
                # gossip(0.5) meets its budget with equality in every draw,
                # and at a cap of 1e4 one float spacing exceeds 1e-12
                cap = budget.beta_sq * float(x @ x) + budget.sigma_sq
                worst_margin = min(worst_margin, (1.0 + 1e-12) * cap
                                   + 4.0 * mom["se_mse"] - mom["mse"])
                cells += 1
    elapsed = time.time() - t0
    ok = worst_bias <= 1e-12 and worst_margin >= 0.0 and elapsed < 60.0
    assert report(ok, "quantizer moment contracts",
                  f"{cells} cells, worst bias excess {worst_bias:.2e}, "
                  f"worst budget margin {worst_margin:.3e}, {elapsed:.1f}s")


def test_compander_error_bound():
    # the tight deterministic cap (omega ||x|| + sqrt(L) eta)^2 holds for the
    # empirical MSE across ten parameter/input triples
    t0 = time.time()
    triples = [(0.1, 0.005), (0.1, 0.02), (0.25, 0.005), (0.25, 0.02),
               (0.5, 0.01), (0.5, 0.05), (1.0, 0.005), (1.0, 0.02),
               (2.0, 0.01), (2.0, 0.05)]
    rng_x = setup_rng(403, 0)
    worst = np.inf
    for i, (omega, eta) in enumerate(triples):
        x = rng_x.normal(scale=[0.05, 0.3, 1.0, 4.0, 20.0][i % 5], size=L_VEC)
        spec = quantizers.anq(omega, eta, L_VEC)
        mom = quantizers.empirical_moments(spec, x, setup_rng(404, i), 10**5)
        cap = (omega * np.linalg.norm(x) + math.sqrt(L_VEC) * eta) ** 2
        worst = min(worst, cap + 4.0 * mom["se_mse"] - mom["mse"])
    elapsed = time.time() - t0
    ok = worst >= -1e-12
    assert report(ok, "compander tight error bound",
                  f"10 triples, worst margin {worst:.3e}, {elapsed:.1f}s")


def test_ternary_codec_contract():
    t0 = time.time()
    rng = setup_rng(405, 0)
    cost_unit = math.log2(3)
    for _ in range(10**4):
        length = int(rng.integers(0, 9))
        ints = [int(s * (2 ** rng.integers(0, 24) - rng.integers(0, 4)))
                for s in rng.choice([-1, 1], size=length)]
        stream = codec.encode_sequence(ints)
        assert codec.decode_sequence(stream) == ints
        digits = sum(len(codec.encode_integer(n)) for n in ints)
        assert stream.bit_cost == cost_unit * (digits + len(ints))
    # worked examples: the reference stream and the two class mappings
    s = codec.encode_sequence([7, -10, 2, 0])
    ok = (s.symbols == "111p0101p10pp"
          and codec.decode_sequence(s) == [7, -10, 2, 0]
          and [codec.partition_index(n) for n in (7, -10, 2, 0)] == [3, 4, 2, 0]
          and codec.encode_integer(-7) == "000"
          and codec.encode_integer(-10) == "0101"
          and codec.decode_sequence("000p") == [-7]
          and codec.decode_sequence("0101p") == [-10])
    elapsed = time.time() - t0
    assert report(ok, "ternary codec contract",
                  f"1e4 round-trips exact, termwise costs exact, "
                  f"worked stream verified, {elapsed:.1f}s")


def test_combination_construction_ensembles():
    t0 = time.time()
    worst_res = 0.0
    worst_rho = 0.0
    for n, m, q in ((10, 3, 0.2), (20, 5, 0.1)):
        for seed in range(10):
            top = small_world(n, m, q, seed)
            basis = graphs.subspace_smooth(top, 2, 2, weight=1.0)
            comb = graphs.build_combination(top, basis, mode="subspace-lsq")
            u = basis.u
            res = max(float(np.max(np.abs(comb.a @ u - u))),
                      float(np.max(np.abs(u.T @ comb.a - u.T))))
            rho = graphs.spectral_radius(comb.a - graphs.projector(basis))
            worst_res = max(worst_res, res)
            worst_rho = max(worst_rho, rho)
    # fully connected graph: the fit must return the projector itself
    top = graphs.build_topology(10, 1.0, seed=0)
    basis = graphs.subspace_smooth(top, 2, 2, weight=1.0)
    comb = graphs.build_combination(top, basis, mode="subspace-lsq")
    gap = float(np.max(np.abs(comb.a - graphs.projector(basis))))
    elapsed = time.time() - t0
    ok = worst_res <= 1e-8 and worst_rho < 1.0 and gap <= 1e-8 and elapsed < 60.0
    assert report(ok, "combination matrix ensembles",
                  f"20 graphs: residual {worst_res:.2e}, "
                  f"max contraction {worst_rho:.4f}, complete-graph gap "
                  f"{gap:.2e}, {elapsed:.1f}s")


def test_consensus_reduction_equivalence():
    # shared seeds, identity quantizer, full mixing: the subspace recursion
    # on a consensus basis must match the scalar-weight recursion written
    # out per agent
    n = 10
    top = graphs.build_topology(n, 0.5, seed=3)
    basis = graphs.subspace_consensus(n, L_VEC)
    comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
    models = smoothed_models(top, n, L_VEC)
    cfg = RunConfig(mu=MU0, gamma=1.0, iterations=1000, runs=1,
                    quantizer=quantizers.identity(L_VEC), seed=7)
    full = learning.run(cfg, models, basis, comb)
    msd, _ = hand_recursion(models, graphs.metropolis_weights(top), cfg)
    gap = float(np.max(np.abs(full.msd - msd)))
    # the identity quantizer sends every component at full precision
    same_bits = bool(np.array_equal(
        full.bits, np.full((cfg.iterations, n), L_VEC * 32.0)))
    ok = gap <= 1e-12 and same_bits
    assert report(ok, "consensus reduction equivalence",
                  f"1000 iterations, max MSD deviation {gap:.2e}, "
                  f"bit streams identical: {same_bits}")


@pytest.mark.slow
def test_step_size_msd_scaling(mc_bundle):
    s = {f: learning.steady_mean(mc_bundle[f].msd_db) for f in (1.0, 2.0, 4.0)}
    d1 = s[2.0] - s[1.0]
    d2 = s[4.0] - s[2.0]
    ok = (2.0 <= d1 <= 4.0 and 2.0 <= d2 <= 4.0
          and mc_bundle["elapsed"] < 600.0)
    assert report(ok, "steady MSD step-size scaling",
                  f"doubling gaps {d1:.2f} dB and {d2:.2f} dB "
                  f"(target 3.0 +/- 1.0), bundle {mc_bundle['elapsed']:.0f}s")


@pytest.mark.slow
def test_bit_rate_boundedness(mc_bundle):
    rates = {f: learning.steady_mean(mc_bundle[f].rate)
             for f in (0.25, 0.5, 1.0)}
    lo, hi = min(rates.values()), max(rates.values())
    spread = (hi - lo) / lo
    ok = (spread < 0.15 and all(2.2 <= r <= 3.6 for r in rates.values())
          and mc_bundle["elapsed"] < 600.0)
    assert report(ok, "bit-rate boundedness in the step size",
                  f"steady rates {lo:.3f}..{hi:.3f} bits/component "
                  f"(target 2.9 +/- 0.7), spread {100 * spread:.1f}%")


def test_qsgd_fixed_rate():
    top, basis, comb = consensus_network(6, L_VEC)
    models = smoothed_models(top, 6, L_VEC)
    cfg = RunConfig(mu=MU0, gamma=0.88, iterations=200, runs=1,
                    quantizer=quantizers.qsgd(2, L_VEC, b_hp=32), seed=11)
    res = learning.run(cfg, models, basis, comb)
    ok = bool(np.all(res.bits == 42.0)) and bool(np.all(res.rate == 8.4))
    assert report(ok, "fixed per-message rate",
                  "s=2, L=5, 32-bit header: 42 bits/message = 8.4 "
                  "bits/component exactly")


@pytest.mark.slow
def test_rate_distortion_tradeoff():
    t0 = time.time()
    top, basis, comb = consensus_network(10, L_VEC)
    models = smoothed_models(top, 10, L_VEC)
    template = RunConfig(mu=MU0, gamma=0.1, iterations=1500, runs=6,
                         quantizer=quantizers.identity(L_VEC), seed=23)
    deltas = np.geomspace(0.004, 0.4, 10)
    uni = analysis.rate_distortion_sweep(
        template, models, basis, comb,
        [(d, quantizers.uniform(d, L_VEC)) for d in deltas])
    rates = [p.rate_bits for p in uni]
    msds = [p.msd_db for p in uni]
    rate_mono = all(rates[i + 1] <= rates[i] + 1e-9 for i in range(9))
    msd_mono = all(msds[i + 1] >= msds[i] - 0.5 for i in range(9))
    # compander curves must stay weakly above-right of the uniform curve
    # wherever the rates overlap; 1 dB absorbs Monte-Carlo and
    # interpolation noise on the flat part of the rate axis
    ur, um = np.array(rates)[::-1], np.array(msds)[::-1]
    worst = 0.0
    for omega in (0.1, 0.5, 1.0):
        pts = analysis.rate_distortion_sweep(
            template, models, basis, comb,
            [(d, quantizers.anq(omega, d / 2.0, L_VEC)) for d in deltas])
        for p in pts:
            if ur[0] <= p.rate_bits <= ur[-1]:
                ref = float(np.interp(p.rate_bits, ur, um))
                worst = min(worst, p.msd_db - ref)
    elapsed = time.time() - t0
    ok = rate_mono and msd_mono and worst >= -1.0 and elapsed < 900.0
    assert report(ok, "rate-distortion tradeoff",
                  f"10-step sweep monotone (rate {rate_mono}, msd {msd_mono}), "
                  f"compander offset >= {worst:.2f} dB at matched rates, "
                  f"{elapsed:.0f}s")


def _dichotomy(basis, comb, models, spec, beta_sq, seed):
    rep = analysis.spectral_report(comb, basis)
    small = 0.5 * analysis.gamma_bound(rep, beta_sq)
    out = {}
    for gamma in (small, 1.0):
        cfg = RunConfig(mu=MU0, gamma=gamma, iterations=5000, runs=2,
                        quantizer=spec, seed=seed, on_divergence="flag")
        res = learning.run(cfg, models, basis, comb)
        steady = (np.inf if res.diverged
                  else learning.steady_mean(res.msd_db))
        out[gamma] = (res.diverged, steady)
    return small, out[small], out[1.0]


def test_mixing_parameter_dichotomy_compander():
    # Expected to fail, and kept failing deliberately. The half-bound arm is
    # stable as required, but a faithful compander in the differential loop
    # never realizes its beta^2 budget: the quantization error is shaped by
    # the tracking feedback and the full-mixing arm slope-overloads into a
    # bounded wander (observed ceiling about +18.5 dB over the small arm
    # across ring sizes 10..30, omega 1..16, and a dozen seeds) instead of
    # diverging or losing the required 20 dB.
    t0 = time.time()
    n = 20
    edges = [(k + 1, (k + 1) % n + 1) for k in range(n)]
    top = graphs.build_topology(n, edges, seed=0)
    basis = graphs.subspace_consensus(n, L_VEC)
    comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
    models = smoothed_models(top, n, L_VEC)
    omega = 10.0
    spec = quantizers.anq(omega, MU0 / math.sqrt(2 * L_VEC), L_VEC)
    beta_sq = quantizers.noise_budget(spec).beta_sq
    small, (d0, s0), (d1, s1) = _dichotomy(basis, comb, models, spec,
                                           beta_sq, seed=17)
    elapsed = time.time() - t0
    gap = s1 - s0
    ok = (not d0) and (d1 or gap >= 20.0) and elapsed < 300.0
    assert report(ok, "mixing-parameter dichotomy (compander)",
                  f"beta^2={beta_sq:.0f}, gamma={small:.2e} stable at "
                  f"{s0:+.2f} dB; gamma=1 diverged={d1}, {s1:+.2f} dB, "
                  f"gap {gap:+.1f} dB (needs divergence or >= 20), "
                  f"{elapsed:.0f}s")


def test_mixing_parameter_dichotomy_realized_budget():
    # same property with a scheme whose relative budget is realized exactly:
    # the rescaled random sparsifier has E||q||^2 = (1/q_s - 1) ||x||^2, so
    # the multiplicative loop at full mixing genuinely runs away while the
    # half-bound arm stays put on the same seeds
    t0 = time.time()
    top, basis, comb = consensus_network(10, L_VEC)
    models = smoothed_models(top, 10, L_VEC)
    spec = quantizers.sparsifier(0.2, L_VEC)
    beta_sq = quantizers.noise_budget(spec).beta_sq
    small, (d0, s0), (d1, s1) = _dichotomy(basis, comb, models, spec,
                                           beta_sq, seed=17)
    elapsed = time.time() - t0
    ok = (not d0) and d1 and elapsed < 300.0
    assert report(ok, "mixing-parameter dichotomy (realized budget)",
                  f"beta^2={beta_sq:.0f}, gamma={small:.4f} stable at "
                  f"{s0:+.2f} dB over 5000 iterations; gamma=1 "
                  f"diverged={d1}, {elapsed:.0f}s")


@pytest.mark.slow
def test_per_agent_rate_bound(mc_bundle):
    worst = np.inf
    for f in (1.0, 2.0, 4.0):
        res = mc_bundle[f]
        eta = mc_bundle["eta"][f]
        for k in range(res.bits.shape[1]):
            measured = learning.steady_mean(res.bits[:, k])
            chi_ms = float(np.mean(res.chi_sq[-500:, k]))
            cap = analysis.rate_upper_bound(0.25, eta, chi_ms, L_VEC)
            worst = min(worst, cap - measured)
    ok = worst >= 0.0
    assert report(ok, "per-agent rate upper bound",
                  f"all 60 agent/step-size cells below the cap, "
                  f"tightest margin {worst:.2f} bits/message")


@pytest.mark.slow
def test_innovation_power_scaling(mc_bundle):
    chi1 = np.mean(mc_bundle[1.0].chi_sq[-500:], axis=0)
    chi2 = np.mean(mc_bundle[0.5].chi_sq[-500:], axis=0)
    ratio = float(np.mean(chi1 / chi2))
    ok = 2.0 <= ratio <= 6.0
    assert report(ok, "innovation power scaling",
                  f"agent-averaged steady ratio {ratio:.2f} "
                  f"(target 4 +/- 50%)")
