"""The named benchmark workloads and the job each one runs.

A job is what one user of the simulator waits for: from an INI config to a
validated network with its spectral report (set-up), then every simulation
the config asks for (result). Jobs go through the entry points the CLI uses,
one after another in this process, with workers=1.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from subspaceq import analysis, cli, learning, quantizers
from subspaceq.learning import RunConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class Workload:
    """A config file plus the run-length and quantizer choices laid over it.

    overrides replace fields of the loaded cli.Experiment (after load_config
    has validated the file). quantizer_cycle, when set, gives agent k the
    spec quantizer_cycle[k % len]; otherwise every agent shares the config's
    quantizer. sweep runs the [sweep] grid the way cmd_rate_distortion
    builds it instead of one learning.run per step size.
    """

    name: str
    config: Path
    overrides: dict = field(default_factory=dict)
    quantizer_cycle: tuple = ()
    sweep: bool = False

    def experiment(self, seed=None):
        exp = cli.load_config(str(self.config), seed_override=seed)
        return replace(exp, **self.overrides)

    @property
    def default_seed(self) -> int:
        """The seed the config file itself names; references are kept at it."""
        return self.experiment().seed


# Run lengths keep at least learning.STEADY_WINDOW (500) iterations, because
# the steady metrics average the trailing window.
WORKLOADS = {
    w.name: w for w in (
        # the only workload on the general-subspace least-squares path
        Workload("baseline", ROOT / "configs" / "baseline.ini",
                 {"iterations": 600, "runs": 1}),
        # many short learning.run calls on the batched quantize path
        Workload("rd-sweep", ROOT / "configs" / "rate_distortion.ini",
                 {"iterations": 500, "runs": 1}, sweep=True),
        # n=200, per-agent quantize/reconstruct for every selection scheme
        Workload("wide-mixed", HERE / "wide_mixed.ini",
                 quantizer_cycle=("randc:c=2", "gossip:q=0.5",
                                  "sparsifier:q=0.5", "qsgd:s=4")),
    )
}


@dataclass
class Setup:
    exp: object
    top: object
    basis: object
    comb: object
    models: list
    report: object
    gamma_bound: float
    configs: list        # one RunConfig per learning.run, or the sweep grid
    specs: list          # distinct quantizer specs, in first-use order


@dataclass
class Job:
    seed: int
    setup: Setup
    outputs: list        # RunResult per config, or SweepPoint per grid value
    setup_s: float
    sim_s: float

    @property
    def wall_s(self):
        return self.setup_s + self.sim_s


def _specs(wl, exp, mu):
    texts = wl.quantizer_cycle or (exp.quantizer_text,)
    specs = [cli.resolve_quantizer(t, mu, exp.l, exp.b_hp) for t in texts]
    if not wl.quantizer_cycle:
        return specs[0]
    return [specs[k % len(specs)] for k in range(exp.n)]


def build(wl: Workload, seed: int) -> Setup:
    """Set-up: config to a validated network with its spectral report."""
    exp = wl.experiment(seed)
    top, basis, comb, models = cli.build_setup(exp)
    report = analysis.spectral_report(comb, basis)
    if wl.sweep:
        configs = [point for _, points in cli._sweep_grid(exp) for point in points]
        specs = [spec for _, spec in configs]
    else:
        configs = [RunConfig(mu=mu, gamma=exp.gamma, iterations=exp.iterations,
                             runs=exp.runs, quantizer=_specs(wl, exp, mu),
                             seed=exp.seed)
                   for mu in exp.mus]
        specs = [sp for c in configs for sp in c.specs_for(exp.n)]
    specs = list(dict.fromkeys(specs))
    beta_sq = max(quantizers.noise_budget(sp).beta_sq for sp in specs)
    bound = analysis.gamma_bound(report, beta_sq)
    return Setup(exp, top, basis, comb, models, report, bound, configs, specs)


def simulate(wl: Workload, s: Setup) -> list:
    """Result: every simulation the config asks for, one after another."""
    exp = s.exp
    if wl.sweep:
        template = RunConfig(mu=exp.mus[0], gamma=exp.gamma,
                             iterations=exp.iterations, runs=exp.runs,
                             quantizer=quantizers.identity(exp.l),
                             seed=exp.seed, on_divergence="flag")
        return analysis.rate_distortion_sweep(template, s.models, s.basis,
                                              s.comb, s.configs)
    return [learning.run(cfg, s.models, s.basis, s.comb) for cfg in s.configs]


def _no_span(name):
    return nullcontext()


def run_job(wl: Workload, seed: int, span=_no_span) -> Job:
    """One closed-loop job: set-up, then result. span(name) brackets each
    phase when the job is traced."""
    with span("bench.job"):
        t0 = time.perf_counter()
        with span("bench.setup"):
            s = build(wl, seed)
        t1 = time.perf_counter()
        with span("bench.simulate"):
            outputs = simulate(wl, s)
        t2 = time.perf_counter()
    return Job(seed, s, outputs, t1 - t0, t2 - t1)


def steady(output) -> tuple:
    """(steady MSD, steady bits per component) of one config's result."""
    if isinstance(output, learning.RunResult):
        return (float(learning.steady_mean(output.msd)),
                float(learning.steady_mean(output.rate)))
    return output.msd, output.rate_bits


def agent_iterations(s: Setup) -> int:
    """runs x iterations x agents x configs completed by one job."""
    exp = s.exp
    return exp.runs * exp.iterations * exp.n * len(s.configs)


def parameters(wl: Workload, s: Setup) -> dict:
    """Every resolved workload parameter, for the run record."""
    exp = s.exp
    return {
        "config": str(wl.config.relative_to(ROOT)),
        "n": exp.n, "l": exp.l,
        "topology": exp.topology_file or f"random connectivity={exp.connectivity}",
        "basis": ("consensus" if exp.combination == "consensus-metropolis"
                  else f"smooth p_vectors={exp.p_vectors}"),
        "combination": exp.combination,
        "quantizers": [quantizers.spec_string(sp) for sp in s.specs],
        "quantizer_assignment": ("cycled over agents" if wl.quantizer_cycle
                                 else "shared by all agents"),
        "mu": list(exp.mus), "gamma": exp.gamma,
        "iterations": exp.iterations, "runs": exp.runs,
        "configs": len(s.configs),
        "workers": 1,
        "seed": exp.seed,
    }
