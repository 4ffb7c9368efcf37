"""Why the mixing parameter exists.

With a quantizer whose error is proportional to its input, full mixing
(gamma = 1) feeds reconstruction errors straight back into the next round's
differential inputs and the loop runs away. Throttling the combination step
below the spectral bound keeps the same quantizer stable on the same seeds.
"""

import numpy as np

from subspaceq import analysis, graphs, learning, quantizers
from subspaceq.learning import DataModel, RunConfig

n, l = 10, 5
top = graphs.build_topology(n, 1.0, seed=0)
basis = graphs.subspace_consensus(n, l)
comb = graphs.build_combination(top, basis, mode="consensus-metropolis")

rng = np.random.default_rng(31)
raw = rng.normal(0.4, 1.0, n * l)
targets = graphs.smooth_signal(graphs.laplacian(top, 0.1), raw=raw,
                               tau=3.0, l=l).reshape(n, l)
models = [DataModel(rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.2), targets[k])
          for k in range(n)]

spec = quantizers.sparsifier(0.2, l)
beta_sq = quantizers.noise_budget(spec).beta_sq
rep = analysis.spectral_report(comb, basis)
bound = analysis.gamma_bound(rep, beta_sq)
print(f"sparsifier keeps 20% of coordinates: beta^2 = {beta_sq:.0f}")
print(f"spectral mixing bound: gamma < {bound:.4f}\n")

# both mixing parameters advance together in one run over a list of configs
gammas = (0.5 * bound, 1.0)
configs = [RunConfig(mu=0.003, gamma=gamma, iterations=3000, runs=1,
                     quantizer=spec, seed=17, on_divergence="flag")
           for gamma in gammas]
for gamma, res in zip(gammas, learning.run(configs, models, basis, comb)):
    if res.diverged:
        print(f"gamma = {gamma:.4f}: diverged at iteration {res.diverged_at}")
        head = res.msd_db[:res.diverged_at]
        marks = ", ".join(f"{v:+.1f}" for v in head[:: max(1, len(head) // 8)])
        print(f"  last finite MSDs (dB): {marks}")
    else:
        print(f"gamma = {gamma:.4f}: stable, steady MSD "
              f"{learning.steady_mean(res.msd_db):.2f} dB")
