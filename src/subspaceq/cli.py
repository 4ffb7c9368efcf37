"""Configuration-driven command line front end.

Subcommands: run (Monte-Carlo learning curves, one metrics CSV per step
size), verify (build the network and report every combination-matrix check),
rate-distortion (steady-state sweep CSV across quantizer grids), and
quantizer-test (Monte-Carlo contract report for one scheme).

Configs are flat INI files; every value is validated against the library
preconditions before anything runs, and failures name the offending
section.key. Exit codes: 0 success, 1 config error, 2 contract or validation
failure, 3 divergence detected.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analysis, graphs, learning, quantizers
from .learning import DataModel, RunConfig
from .quantizers import _number
from .streams import setup_rng

ETA_AUTO = "eta=auto"

# setup-rng labels for the independent one-off draws
_LABEL_VARIANCES = 1
_LABEL_TARGETS = 2

__all__ = ["ConfigError", "Experiment", "load_config", "build_setup", "main"]


class ConfigError(Exception):
    """Invalid or missing configuration value; message names section.key."""


@dataclass(frozen=True)
class Experiment:
    """Fully validated experiment description: one field per _CONFIG row,
    log_range setting sweep_values."""

    n: int
    connectivity: float | None
    topology_file: str | None
    seed: int
    combination: str
    l: int
    p_vectors: int
    tau: float
    su_range: tuple
    sv_range: tuple
    lap_weight: float
    mus: tuple
    gamma: float
    iterations: int
    runs: int
    quantizer_text: str
    b_hp: int
    out_dir: str
    per_agent: bool
    sweep_schemes: tuple = ()
    sweep_values: tuple = ()


_REQUIRED = object()


def _field(cp, section, key, conv, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"{section}.{key}: required")
        return default
    try:    # interpolation returns a value without '%' as it is, at twice the cost
        raw = cp.get(section, key, raw=True)
        return conv((cp.get(section, key) if "%" in raw else raw).strip())
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc


def _floats(raw):
    vals = tuple(float(t) for t in raw.split(",") if t.strip())
    if not vals:
        raise ValueError("empty list")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"values must be finite, got {raw!r}")
    return vals


def _names(raw):
    return tuple(t.strip() for t in raw.split(",") if t.strip())


def _range_pair(raw):
    vals = _floats(raw)
    if len(vals) != 2 or not vals[0] <= vals[1]:
        raise ValueError("need 'low, high' with low <= high")
    return vals


def _bool(raw):
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


class _Key(NamedTuple):
    """One INI key: the Experiment field it fills, its converter, its
    default (_REQUIRED if none), its own checks as (predicate, message)
    pairs, a message being text or a function of the value, and whether
    cmd_run's manifest lists the field."""

    section: str
    key: str
    field: str
    conv: Callable
    default: object = _REQUIRED
    checks: tuple = ()
    manifest: bool = True


_COUNT = ((lambda v: v >= 1, "must be >= 1"),)

# every key load_config reads, in the order it reads them; any other section
# or key is a config error, so that a typo cannot fall back to a default
# unnoticed. Rules that read several keys follow the loop in load_config.
_CONFIG = (
    _Key("network", "n", "n", int, checks=_COUNT),
    _Key("network", "connectivity", "connectivity", float, None,
         ((lambda v: v is None or 0.0 < v <= 1.0, "must be in (0, 1]"),)),
    _Key("network", "topology_file", "topology_file", str, None),
    _Key("network", "seed", "seed", int,   # checked after --seed applies
         checks=((lambda v: v >= 0, "must be >= 0"),), manifest=False),
    _Key("network", "combination", "combination", str, "subspace-lsq",
         ((lambda v: v in ("subspace-lsq", "consensus-metropolis"),
           lambda v: f"unknown mode {v!r}"),)),
    _Key("model", "l", "l", int, checks=_COUNT),
    _Key("model", "p_vectors", "p_vectors", int, 2),
    _Key("model", "tau", "tau", float, 3.0,
         ((lambda v: 0 <= v < math.inf, "must be >= 0 and finite"),)),
    _Key("model", "sigma_u_sq", "su_range", _range_pair,
         checks=((lambda v: v[0] > 0, "lower bound must be > 0"),)),
    _Key("model", "sigma_v_sq", "sv_range", _range_pair,
         checks=((lambda v: v[0] >= 0, "must be >= 0"),)),
    _Key("model", "laplacian_weight", "lap_weight", float, 0.1,
         ((lambda v: 0 < v < math.inf, "must be > 0 and finite"),)),
    _Key("algorithm", "mu", "mus", _floats, manifest=False, checks=(
        (lambda v: all(m > 0 for m in v), "every value must be > 0"),
        (lambda v: len(set(v)) == len(v), lambda v: "step size "
         f"{_number(next(m for i, m in enumerate(v) if m in v[:i]))} is repeated"))),
    _Key("algorithm", "gamma", "gamma", float,
         checks=((lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),)),
    _Key("algorithm", "iterations", "iterations", int, checks=_COUNT),
    _Key("algorithm", "runs", "runs", int, 1, _COUNT),
    _Key("algorithm", "quantizer", "quantizer_text", str),
    _Key("algorithm", "b_hp", "b_hp", int, 32, _COUNT),
    _Key("output", "directory", "out_dir", str, "out", manifest=False),
    _Key("output", "per_agent", "per_agent", _bool, False),
    _Key("sweep", "schemes", "sweep_schemes", _names, (), manifest=False),
    _Key("sweep", "values", "sweep_values", _floats, (), manifest=False),
    # not a field: it sets sweep_values
    _Key("sweep", "log_range", "log_range", _floats, None, manifest=False),
)
_KEYS = {section: {k.key for k in _CONFIG if k.section == section}
         for section in {k.section for k in _CONFIG}}


def load_config(path, seed_override=None, out_override=None) -> Experiment:
    """Parse and validate an INI experiment file."""
    # no default section: configparser would copy the keys of a [DEFAULT]
    # section into every section, so it is read as a section like any other
    # (and rejected as unknown)
    cp = configparser.ConfigParser(default_section="")
    try:    # a repeated section or key, or a key before any section
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"{section}: unknown section")
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")

    overrides = {"seed": seed_override, "out_dir": out_override}
    values = {}
    for section, key, field, conv, default, checks, _ in _CONFIG:
        value = _field(cp, section, key, conv, default)
        if overrides.get(field) is not None:
            value = overrides[field]
        for ok, message in checks:
            if not ok(value):
                raise ConfigError(f"{section}.{key}: " + (
                    message(value) if callable(message) else message))
        values[field] = value

    if values["topology_file"] is None and values["connectivity"] is None:
        raise ConfigError("network.connectivity: required without topology_file")
    if values["topology_file"] is not None and values["connectivity"] is not None:
        raise ConfigError("network.connectivity: set either this or topology_file")
    n = values["n"]
    if (values["combination"] == "subspace-lsq" and n > 1
            and not 1 <= values["p_vectors"] < n):
        raise ConfigError("model.p_vectors: must be in [1, n)")
    try:
        resolve_quantizer(values["quantizer_text"], values["mus"][0],
                          values["l"], values["b_hp"])
    except quantizers.SpecError as exc:
        raise ConfigError(f"algorithm.quantizer: {exc}") from exc

    log_range = values.pop("log_range")
    if log_range is not None:
        if values["sweep_values"]:
            raise ConfigError("sweep.log_range: set either this or sweep.values")
        if len(log_range) != 3:
            raise ConfigError("sweep.log_range: need 'lo, hi, count'")
        lo, hi, cnt = log_range
        if not (0 < lo < hi and cnt >= 2 and cnt == int(cnt)):
            raise ConfigError("sweep.log_range: need 0 < lo < hi and an "
                              "integer count >= 2")
        values["sweep_values"] = tuple(np.geomspace(lo, hi, int(cnt)))
    if values["sweep_schemes"] and not values["sweep_values"]:
        raise ConfigError("sweep.values: required when schemes are set")
    if any(not x > 0 for x in values["sweep_values"]):
        raise ConfigError("sweep.values: step-size grid must be > 0")
    return Experiment(**values)


def resolve_quantizer(text, mu, l, b_hp):
    """Parse a selection string, filling eta=auto with mu / sqrt(2 l)."""
    if ETA_AUTO in text:
        eta = mu / math.sqrt(2.0 * l)
        text = text.replace(ETA_AUTO, f"eta={eta:.17g}")
    return quantizers.parse_spec(text, l, b_hp)


def build_setup(exp: Experiment):
    """Topology, basis, combination matrix, and per-agent data models.

    A single-agent network has no proper subspace (the basis type requires
    P < M), so n = 1 returns basis and combination as None; cmd_run then uses
    the scalar recursion with A = 1, which is plain stochastic gradient
    descent.
    """
    if exp.n == 1:
        top = basis = comb = None
    else:
        if exp.topology_file is not None:
            try:    # relative to the working directory, not to the config
                top = graphs.load_topology(exp.topology_file, exp.n)
            except OSError as exc:
                raise ConfigError(
                    f"network.topology_file: cannot read {exp.topology_file}: "
                    f"{exc.strerror or exc}") from exc
        else:
            top = graphs.build_topology(exp.n, exp.connectivity, seed=exp.seed)
        if exp.combination == "consensus-metropolis":
            basis = graphs.subspace_consensus(exp.n, exp.l)
        else:
            basis = graphs.subspace_smooth(top, exp.p_vectors, exp.l,
                                           weight=exp.lap_weight)
        comb = graphs.build_combination(top, basis, mode=exp.combination)

    var_rng = setup_rng(exp.seed, _LABEL_VARIANCES)
    su = var_rng.uniform(*exp.su_range, exp.n)
    sv = var_rng.uniform(*exp.sv_range, exp.n)
    target_rng = setup_rng(exp.seed, _LABEL_TARGETS)
    raw = target_rng.normal(0.4, 1.0, exp.n * exp.l)
    if top is None:
        w_star = raw.reshape(exp.n, exp.l)
    else:
        lap = graphs.laplacian(top, exp.lap_weight)
        w_star = graphs.smooth_signal(lap, raw=raw, tau=exp.tau, l=exp.l)
        w_star = w_star.reshape(exp.n, exp.l)
    models = [DataModel(su[k], sv[k], w_star[k]) for k in range(exp.n)]
    return top, basis, comb, models


def _run_job(args):
    models, basis, comb, configs = args
    if basis is None:
        return [learning.run_diffusion(c, models, np.ones((1, 1))) for c in configs]
    return learning.run(configs, models, basis, comb)


def _chunks(items, parts):
    """items in at most `parts` contiguous chunks of nearly equal length."""
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    starts = [p * size + min(p, extra) for p in range(parts + 1)]
    return [items[a:b] for a, b in zip(starts, starts[1:])]


def _map_chunks(fn, args, items, workers):
    """fn((*args, chunk)) over contiguous chunks of items, one process per
    chunk (in this process when there is one chunk); the chunks' results
    are concatenated in order. Each chunk runs as one batch, so the results
    do not depend on the number of workers."""
    jobs = [(*args, chunk) for chunk in _chunks(items, workers)]
    if len(jobs) <= 1:
        parts = [fn(j) for j in jobs]
    else:   # the pool starts every process it may use at its first submit
        with ProcessPoolExecutor(max_workers=len(jobs)) as ex:
            parts = list(ex.map(fn, jobs))
    return [r for part in parts for r in part]


def _mu_tag(mu):
    return _number(mu).replace(".", "p").replace("-", "m")


def cmd_run(exp: Experiment, workers=1) -> int:
    top, basis, comb, models = build_setup(exp)
    out = Path(exp.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    configs = [RunConfig(mu=mu, gamma=exp.gamma, iterations=exp.iterations,
                         runs=exp.runs, seed=exp.seed,
                         quantizer=resolve_quantizer(exp.quantizer_text, mu,
                                                     exp.l, exp.b_hp))
               for mu in exp.mus]
    results = _map_chunks(_run_job, (models, basis, comb), configs, workers)

    files = []
    for mu, res in zip(exp.mus, results):
        path = out / f"metrics_mu{_mu_tag(mu)}.csv"
        learning.save_metrics_csv(path, res, version=__version__, seed=exp.seed,
                                  per_agent=exp.per_agent)
        files.append(path.name)
        tail = learning.steady_mean(res.msd_db) \
            if res.msd.shape[0] > learning.STEADY_WINDOW else res.msd_db[-1]
        print(f"mu={_number(mu)}: wrote {path} (msd {tail:.2f} dB, "
              f"rate {res.rate[-1]:.2f} bits/component)")

    manifest = out / "manifest.txt"
    with open(manifest, "w") as fh:
        fh.write(f"# subspaceq {__version__}\n")
        fh.write(f"seed = {exp.seed}\n")
        for k in _CONFIG:
            if k.manifest:
                fh.write(f"{k.field} = {getattr(exp, k.field)}\n")
        fh.write(f"mus = {', '.join(map(_number, exp.mus))}\n")
        for cfg in configs:
            fh.write(f"quantizer[mu={_number(cfg.mu)}] = "
                     f"{quantizers.spec_string(cfg.quantizer)}\n")
        fh.write("sigma_u_sq = " + ", ".join(f"{m.sigma_u_sq:.17g}" for m in models) + "\n")
        fh.write("sigma_v_sq = " + ", ".join(f"{m.sigma_v_sq:.17g}" for m in models) + "\n")
        fh.write("files = " + ", ".join(files) + "\n")
    print(f"manifest: {manifest}")
    return 0


def cmd_verify(exp: Experiment) -> int:
    try:
        top, basis, comb, models = build_setup(exp)
    except (graphs.NotConnected, graphs.InvalidEdgeList,
            graphs.InfeasibleConstraints, graphs.SpectralViolation) as exc:
        print(f"FAIL construction: {type(exc).__name__}: {exc}")
        return 2
    if basis is None:
        print("PASS single-agent network: combination matrix is the scalar 1")
        return 0

    if comb.factored:
        res, rho = comb.minor_spectrum.residual, comb.minor_spectrum.rho
    else:
        checks = graphs.validate_combination(comb.matrix, top, basis)
        res, rho = checks["residual"], checks["rho"]
    ok = True
    line = "PASS" if res <= graphs.TOL_CONSTRAINT else "FAIL"
    ok &= res <= graphs.TOL_CONSTRAINT
    print(f"{line} subspace constraints: max residual {res:.3e}")
    line = "PASS" if rho < 1.0 else "FAIL"
    ok &= rho < 1.0
    print(f"{line} complement contraction: rho {rho:.6f}")

    # every table slot holding a weight, W[k, j] or a block, names a neighbour
    held = comb.weights.reshape(*comb.index.shape, -1).any(axis=2)
    pattern_ok = all(set(row[keep].tolist()) <= nb for row, keep, nb
                     in zip(comb.index, held, top.neighborhoods))
    ok &= pattern_ok
    detail = "off-neighborhood blocks all zero" if pattern_ok else "nonzero block found"
    print(f"{'PASS' if pattern_ok else 'FAIL'} sparsity pattern: {detail}")

    rep = analysis.spectral_report(comb, basis)
    print(f"spectral report: rho_j={rep.rho_j:.6f} "
          f"rho_i_minus_j={rep.rho_i_minus_j:.6f} "
          f"v1={rep.v1:.6f} v2={rep.v2:.6f}")
    spec = resolve_quantizer(exp.quantizer_text, exp.mus[0], exp.l, exp.b_hp)
    beta_sq = quantizers.noise_budget(spec).beta_sq
    bound = analysis.gamma_bound(rep, beta_sq)
    print(f"gamma_bound: {bound:.6g} (beta_sq={beta_sq:.6g}, "
          f"configured gamma={exp.gamma:g})")
    if exp.gamma > bound:
        print("note: configured gamma exceeds the sufficient bound")
    return 0 if ok else 2


def _sweep_grid(exp: Experiment):
    """(scheme, [(v, spec), ...]) per sweep scheme over the grid values v:
    uniform takes delta = v, "anq:omega=<f>" takes eta = v / 2, identity
    takes nothing."""
    values, l, b_hp = exp.sweep_values, exp.l, exp.b_hp
    grids = []
    for scheme in exp.sweep_schemes:
        if scheme == "uniform":
            specs = [quantizers.uniform(v, l, b_hp) for v in values]
        elif scheme.startswith("anq:"):
            # the scheme names omega; its string is parsed once, at values[0]
            omega = quantizers.parse_spec(f"{scheme},eta={values[0] / 2.0:.17g}",
                                          l, b_hp).omega
            specs = [quantizers.anq(omega, v / 2.0, l, b_hp) for v in values]
        elif scheme == "identity":
            specs = [quantizers.identity(l, b_hp) for v in values]
        else:
            raise ConfigError(f"sweep.schemes: cannot sweep scheme {scheme!r}")
        grids.append((scheme, list(zip(values, specs))))
    return grids


def _sweep_job(args):
    template, models, basis, comb, points = args
    return analysis.rate_distortion_sweep(template, models, basis, comb, points)


def cmd_rate_distortion(exp: Experiment, workers=1) -> int:
    if not exp.sweep_schemes or not exp.sweep_values:
        raise ConfigError("sweep.schemes: required for rate-distortion")
    if exp.n == 1:
        raise ConfigError("network.n: rate-distortion sweeps need n >= 2")
    if len(exp.mus) > 1:
        raise ConfigError("algorithm.mu: rate-distortion sweeps one step "
                          f"size, got {len(exp.mus)}")
    if exp.iterations < learning.STEADY_WINDOW:
        raise ConfigError(f"algorithm.iterations: must be >= {learning.STEADY_WINDOW}, "
                          "the steady window each sweep point averages")
    grids = _sweep_grid(exp)     # a scheme it cannot sweep fails before set-up
    top, basis, comb, models = build_setup(exp)
    out = Path(exp.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    mu = exp.mus[0]
    template = RunConfig(mu=mu, gamma=exp.gamma, iterations=exp.iterations,
                         runs=exp.runs, quantizer=quantizers.identity(exp.l),
                         seed=exp.seed, on_divergence="flag")
    flat = _map_chunks(_sweep_job, (template, models, basis, comb),
                       [point for _, points in grids for point in points],
                       workers)

    curves = {}
    i = 0
    for scheme, points in grids:
        curves[scheme] = flat[i:i + len(points)]
        i += len(points)

    path = out / "rate_distortion.csv"
    with open(path, "w") as fh:
        fh.write(f"# subspaceq {__version__} seed={exp.seed}\n")
        fh.write("scheme,param_value,rate_bits,msd,msd_db,diverged_flag\n")
        for scheme, pts in curves.items():
            for p in pts:
                fh.write(f"{scheme},{p.param_value:.10g},{p.rate_bits:.10g},"
                         f"{p.msd:.10g},{p.msd_db:.10g},{int(p.diverged)}\n")
    print(f"wrote {path} ({sum(len(p) for p in curves.values())} rows)")

    if "uniform" in curves and len(curves) > 1:
        base = [(p.rate_bits, p.msd_db) for p in curves["uniform"]
                if not p.diverged]
        base.sort()
        rates = [r for r, _ in base]
        msds = [m for _, m in base]
        for scheme, pts in curves.items():
            if scheme == "uniform":
                continue
            above = total = 0
            for p in pts:
                if p.diverged or not rates or not rates[0] <= p.rate_bits <= rates[-1]:
                    continue
                ref = float(np.interp(p.rate_bits, rates, msds))
                total += 1
                above += p.msd_db >= ref - 0.5
            if total:
                print(f"dominance: {scheme} at or above the uniform curve at "
                      f"{above}/{total} matched rates")
    return 0


def _canned_inputs(dim, rng):
    base = [np.zeros(dim), np.linspace(-1.0, 2.0, dim),
            rng.normal(0.0, 1.0, dim)]
    return base + [100.0 * base[1], 0.01 * base[1]]


def cmd_quantizer_test(spec_text, trials, dim, b_hp, seed) -> int:
    if seed < 0:
        print("config error: --seed: must be >= 0", file=sys.stderr)
        return 1
    rng = setup_rng(seed, 3)
    try:    # SpecError, a trial count below 1, an input out of exact range
        spec = quantizers.parse_spec(spec_text, dim, b_hp)
        inputs = _canned_inputs(dim, rng)
        moments = [quantizers.empirical_moments(spec, x, rng, trials) for x in inputs]
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    budget = quantizers.noise_budget(spec)
    failures = 0
    print(f"scheme {quantizers.spec_string(spec)}  dim={dim}  trials={trials}")
    print(f"declared budget: beta_sq={budget.beta_sq:.6g} "
          f"sigma_sq={budget.sigma_sq:.6g}")
    for idx, (x, mom) in enumerate(zip(inputs, moments)):
        cap = budget.beta_sq * float(x @ x) + budget.sigma_sq
        # a component that rounded the same way in every trial shows no
        # spread; judge its bias by the standard error the budget allows
        se = np.where(mom["se_mean"] > 0, mom["se_mean"], math.sqrt(cap / trials))
        bias_ok = bool(np.all(np.abs(mom["mean_err"]) <= 4 * se + 1e-12))
        # a slack relative to cap: mse equals cap up to rounding where every
        # draw's error norm is the budget itself (sparsifier and gossip at
        # q = 0.5), and at a cap of 1e5 an absolute 1e-12 is below float
        # spacing
        mse_ok = mom["mse"] <= (1.0 + 1e-12) * cap + 4 * mom["se_mse"]
        failures += (not bias_ok) + (not mse_ok)
        print(f"input {idx}: |x|={np.linalg.norm(x):.4g} "
              f"mse={mom['mse']:.6g} cap={cap:.6g} "
              f"bias {'PASS' if bias_ok else 'FAIL'} "
              f"mse {'PASS' if mse_ok else 'FAIL'}")
    if failures:
        print(f"{failures} contract violations", file=sys.stderr)
        return 2
    print("all contract checks passed")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="subspaceq",
        description="decentralized subspace-constrained learning simulator")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("run", "verify", "rate-distortion"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name != "verify":    # verify writes nothing and runs nothing
            p.add_argument("--workers", type=int, default=1)
            p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)

    qt = sub.add_parser("quantizer-test")
    qt.add_argument("spec")
    qt.add_argument("--trials", type=int, default=100_000)
    qt.add_argument("--dim", type=int, default=5)
    qt.add_argument("--b-hp", type=int, default=32)
    qt.add_argument("--seed", type=int, default=0)

    args = ap.parse_args(argv)

    if args.command == "quantizer-test":
        return cmd_quantizer_test(args.spec, args.trials, args.dim,
                                  args.b_hp, args.seed)

    try:
        if args.command == "verify":
            return cmd_verify(load_config(args.config, seed_override=args.seed))
        if args.workers < 1:
            raise ConfigError("--workers: must be >= 1")
        exp = load_config(args.config, seed_override=args.seed,
                          out_override=args.out)
        if args.command == "run":
            return cmd_run(exp, workers=args.workers)
        return cmd_rate_distortion(exp, workers=args.workers)
    except (ConfigError, quantizers.SpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (graphs.NotConnected, graphs.InvalidEdgeList,
            graphs.InfeasibleConstraints, graphs.SpectralViolation,
            analysis.DefectiveMatrix) as exc:
        print(f"validation failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except learning.NonFinite as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
