"""Differentially quantized decentralized learning over streaming regression.

Each round an agent takes a stochastic gradient step, quantizes the change
against a reconstruction state phi that every neighbor replicates, broadcasts
the integer message, and mixes the replicated states through the combination
matrix. Only the quantized innovation crosses a link, so sender and receivers
apply the identical state update and stay bit-for-bit synchronized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quantizers
from .graphs import CombinationMatrix, SubspaceBasis, compute_wopt
from .streams import GRADIENT, QUANTIZE, StreamField

DIVERGENCE_LIMIT = 1e12
STEADY_WINDOW = 500

__all__ = [
    "DataModel",
    "RunConfig",
    "NetworkState",
    "RunResult",
    "NonFinite",
    "StateDesync",
    "sample_gradient",
    "step",
    "run",
    "run_diffusion",
    "steady_mean",
    "save_metrics_csv",
]


class NonFinite(RuntimeError):
    """An iterate left the finite range; carries the iteration index."""

    def __init__(self, iteration, message="iterate exceeded the divergence guard"):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration


class StateDesync(AssertionError):
    """A replicated reconstruction state drifted from its owner's copy."""


@dataclass(frozen=True)
class DataModel:
    """Per-agent streaming regression source d = u^T w_star + v."""

    sigma_u_sq: float
    sigma_v_sq: float
    w_star: np.ndarray

    def __post_init__(self):
        if not self.sigma_u_sq > 0:
            raise ValueError("regressor variance must be positive")
        if self.sigma_v_sq < 0:
            raise ValueError("noise variance must be nonnegative")
        object.__setattr__(self, "w_star", np.asarray(self.w_star, dtype=float))

    @property
    def dim(self) -> int:
        return self.w_star.size


@dataclass(frozen=True)
class RunConfig:
    mu: float
    gamma: float
    iterations: int
    runs: int = 1
    quantizer: object = None      # QuantizerSpec or per-agent sequence
    seed: int = 0
    on_divergence: str = "raise"  # or "flag"

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("step size must be positive")
        if not 0 < self.gamma <= 1:
            raise ValueError("mixing parameter must be in (0, 1]")
        if self.iterations < 1 or self.runs < 1:
            raise ValueError("iterations and runs must be positive")
        if self.on_divergence not in ("raise", "flag"):
            raise ValueError("on_divergence must be 'raise' or 'flag'")

    def specs_for(self, n):
        q = self.quantizer
        if isinstance(q, quantizers.QuantizerSpec):
            return [q] * n
        q = list(q)
        if len(q) != n:
            raise ValueError(f"need one quantizer spec per agent, got {len(q)} for {n}")
        return q


class NetworkState:
    """Mutable per-repetition state: estimates, reconstruction states, and,
    in audit mode, the replicated copies each agent keeps of its neighbors.

    copies[k, j] is agent k's replica of agent j's phi (k keeps one of itself
    too). Every replica equals phi by construction, so the copies exist only
    when ``replicas`` is set, as run(debug=True) does; step then updates them
    and mixes from them, and check_consistency audits them. Entries for
    non-neighbors stay at their initial zeros and are never read, because
    the combination matrix is exactly zero off the neighborhood pattern.
    """

    def __init__(self, n, l, replicas=False):
        self.n = n
        self.l = l
        self.w = np.zeros((n, l))
        self.phi = np.zeros((n, l))
        self.copies = np.zeros((n, n, l)) if replicas else None

    def check_consistency(self, neighbor_mask):
        if self.copies is None:
            raise ValueError("no replicas to check; build with replicas=True")
        for k in range(self.n):
            for j in np.flatnonzero(neighbor_mask[k]):
                if not np.array_equal(self.copies[k, j], self.phi[j]):
                    raise StateDesync(f"agent {k}'s replica of agent {j} drifted")


@dataclass
class RunResult:
    """Monte-Carlo averaged trajectories; msd[0] is the pre-run deviation."""

    msd: np.ndarray            # (T+1,)
    bits: np.ndarray           # (T, N) per-agent message bits, MC-averaged
    chi_sq: np.ndarray         # (T, N) per-agent ||chi||^2, MC-averaged
    w_opt: np.ndarray          # (N, L)
    diverged: bool = False
    diverged_at: int | None = None
    runs_used: int = 0
    config: RunConfig | None = None

    @property
    def msd_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.msd)

    @property
    def rate(self) -> np.ndarray:
        """Network-average bits per vector component each iteration, (T,)."""
        return self.bits.mean(axis=1) / self.w_opt.shape[1]


def steady_mean(series, window=STEADY_WINDOW):
    """Mean over the trailing steady-state window."""
    series = np.asarray(series)
    if series.shape[0] < window:
        raise ValueError(f"series shorter than the {window}-sample steady window")
    return series[-window:].mean(axis=0)


def sample_gradient(model: DataModel, w, rng) -> np.ndarray:
    """One-draw stochastic gradient of the quadratic risk at w.

    Draws u ~ N(0, sigma_u_sq I), v ~ N(0, sigma_v_sq), observation
    d = u^T w_star + v, and returns -u (d - u^T w). Unbiased for
    R_u (w - w_star) by construction.
    """
    l = model.dim
    z = rng.standard_normal(l + 1)
    u = np.sqrt(model.sigma_u_sq) * z[:l]
    v = np.sqrt(model.sigma_v_sq) * z[l]
    d = u @ model.w_star + v
    return -u * (d - u @ w)


def _model_arrays(models):
    sqrt_su = np.sqrt([m.sigma_u_sq for m in models])[:, None]
    sqrt_sv = np.sqrt([m.sigma_v_sq for m in models])
    w_star = np.stack([m.w_star for m in models])
    return sqrt_su, sqrt_sv, w_star


def _draw_psi(w, arrays, mu, streams, iteration):
    """Adaptation phase for the whole network: per-agent gradient draws from
    each agent's own stream, arithmetic stacked. Row k matches
    w[k] - mu * sample_gradient(models[k], w[k], stream) to rounding order."""
    sqrt_su, sqrt_sv, w_star = arrays
    n, l = w.shape
    z = np.empty((n, l + 1))
    for k in range(n):
        z[k] = streams.stream(iteration, k, GRADIENT).standard_normal(l + 1)
    u = sqrt_su * z[:, :l]
    d = np.einsum("kl,kl->k", u, w_star) + sqrt_sv * z[:, l]
    err = d - np.einsum("kl,kl->k", u, w)
    return w + mu * u * err[:, None]


def _shared_batch_spec(specs):
    """The spec all agents share when it has a stacked quantize path, else
    None. Specs compare by value, so equal but distinct objects share."""
    first = specs[0]
    if first.kind in quantizers.BATCH_KINDS and all(s == first for s in specs):
        return first
    return None


def _quantize_all(specs, shared, chi, streams, iteration):
    """Broadcast phase: quantize every agent's innovation against its own
    stream. Uses the stacked elementwise path for the spec all agents share
    (``shared``, from _shared_batch_spec; bit-identical to the per-agent
    path), falls back to per-agent messages when it is None."""
    n, l = chi.shape
    if shared is not None:
        if shared.kind == "identity":
            return quantizers.quantize_batch(shared, chi)
        us = np.empty((n, l))
        for k in range(n):
            us[k] = streams.stream(iteration, k, QUANTIZE).random(l)
        return quantizers.quantize_batch(shared, chi, us)
    bits = np.empty(n)
    delta = np.empty((n, l))
    for k in range(n):
        rng = streams.stream(iteration, k, QUANTIZE)
        msg = quantizers.quantize(specs[k], chi[k], rng)
        bits[k] = msg.bit_cost
        delta[k] = quantizers.reconstruct(specs[k], msg)
    return bits, delta


@dataclass(frozen=True)
class _Plan:
    """What stays fixed across the rounds of one run."""

    arrays: tuple                 # _model_arrays(models)
    shared: quantizers.QuantizerSpec | None   # _shared_batch_spec(specs)
    nb_index: np.ndarray          # (n, d) agent indices matching the blocks


def step(state: NetworkState, models, specs, mu, gamma, blocks, streams,
         iteration, neighbor_mask=None, debug=False, trace=None, _plan=None):
    """One synchronous round of the three-phase recursion, in place.

    (a) psi_k = w_k - mu * gradient draw; (b) quantize chi_k = psi_k - phi_k,
    add the reconstruction to phi_k and, in audit mode, to every replica of
    phi_k in the network (the identical float operation on both sides);
    (c) mix: w_k = (1 - gamma) phi_k + gamma * sum_j A_kj phi_j. blocks is
    the combination matrix viewed as (n, n, l, l); run passes instead each
    agent's neighbor blocks (n, d_max, l, l) with their agent indices in its
    plan. streams is the StreamField of the enclosing Monte-Carlo
    repetition. Returns (per-agent message bits, per-agent ||chi||^2).
    """
    n = state.n
    if _plan is None:
        _plan = _Plan(_model_arrays(models), _shared_batch_spec(specs),
                      np.broadcast_to(np.arange(n), (n, n)))

    psi = _draw_psi(state.w, _plan.arrays, mu, streams, iteration)
    chi = psi - state.phi
    bits, delta = _quantize_all(specs, _plan.shared, chi, streams, iteration)

    state.phi += delta
    if state.copies is None:
        heard = state.phi[_plan.nb_index]
    else:
        if neighbor_mask is None:
            neighbor_mask = np.ones((n, n))
        state.copies += neighbor_mask[:, :, None] * delta[None, :, :]
        if debug:
            state.check_consistency(neighbor_mask)
        heard = state.copies[np.arange(n)[:, None], _plan.nb_index]

    mixed = np.einsum("kmst,kmt->ks", blocks, heard)
    state.w = (1.0 - gamma) * state.phi + gamma * mixed

    if trace is not None:
        trace["psi"] = psi
        trace["z"] = psi - state.phi      # realized quantization error
        trace["phi"] = state.phi.copy()
        trace["w"] = state.w.copy()
    return bits, np.einsum("kl,kl->k", chi, chi)


def _neighbor_blocks(comb: CombinationMatrix, n, l):
    """Each agent's neighbors in ascending order as an (n, d_max) index,
    padded at the end with the agent itself, and the matching blocks of A as
    (n, d_max, l, l), zero at the padding. A factored A = W kron I_l gives
    the blocks W[k, j] I_l, the same numbers np.kron computes."""
    nbhd = [sorted(nb) for nb in comb.topology.neighborhoods]
    d_max = max(len(nb) for nb in nbhd)
    index = np.array([nb + [k] * (d_max - len(nb)) for k, nb in enumerate(nbhd)])
    real = np.arange(d_max) < np.array([len(nb) for nb in nbhd])[:, None]
    rows = np.arange(n)[:, None]
    if comb.factored:
        weights = np.where(real, comb.matrix[rows, index], 0.0)
        return index, weights[:, :, None, None] * np.eye(l)
    blocks = comb.matrix.reshape(n, l, n, l).transpose(0, 2, 1, 3)[rows, index]
    return index, np.where(real[:, :, None, None], blocks, 0.0)


def _neighbor_mask(topology):
    mask = np.zeros((topology.n, topology.n))
    for k, nb in enumerate(topology.neighborhoods):
        mask[k, list(nb)] = 1.0
    return mask


def _monte_carlo(config: RunConfig, models, prepare, replicas=False) -> RunResult:
    """The Monte-Carlo loop that run and run_diffusion share.

    Checks that all agents share one block dimension l and that every
    quantizer spec has dim l, then calls prepare(n, l, specs). It returns
    the deviation reference w_opt (n, l) and the round function
    round_(state, streams, i), which advances the NetworkState by round i in
    place and returns (per-agent message bits, per-agent ||chi||^2). Every
    repetition starts from w = phi = 0 with its own StreamField.

    Round i diverges when the deviation leaves the finite range or |w| passes
    DIVERGENCE_LIMIT after it, or when it raises quantizers.IndexRange (a
    level index beyond exact arithmetic); either way diverged_at = i + 1.
    on_divergence="raise" raises NonFinite(i + 1). "flag" stops the
    Monte-Carlo loop and averages what the repetitions recorded, with msd
    inf and bits and chi_sq NaN past the last completed round.
    """
    n = len(models)
    l = models[0].dim
    if any(m.dim != l for m in models):
        raise ValueError("all agents must share one block dimension")
    specs = config.specs_for(n)
    for k, s in enumerate(specs):
        if s.dim != l:
            raise ValueError(f"quantizer {k} has dim {s.dim}, agents have {l}")
    w_opt, round_ = prepare(n, l, specs)

    t_iters = config.iterations
    msd_acc = np.zeros(t_iters + 1)
    bits_acc = np.zeros((t_iters, n))
    chi_acc = np.zeros((t_iters, n))
    diverged_at = None

    for rep in range(config.runs):
        streams = StreamField(config.seed, rep)
        state = NetworkState(n, l, replicas=replicas)
        msd_acc[0] += np.sum((state.w - w_opt) ** 2) / n
        for i in range(t_iters):
            try:
                bits, chi_sq = round_(state, streams, i)
            except quantizers.IndexRange as exc:
                diverged_at, completed, cause = i + 1, i, exc
                break
            bits_acc[i] += bits
            chi_acc[i] += chi_sq
            dev = np.sum((state.w - w_opt) ** 2) / n
            msd_acc[i + 1] += dev
            if not np.isfinite(dev) or np.max(np.abs(state.w)) > DIVERGENCE_LIMIT:
                diverged_at, completed, cause = i + 1, i + 1, None
                break
        if diverged_at is not None:
            if config.on_divergence == "raise":
                raise NonFinite(diverged_at) from cause
            break

    runs_done = rep + 1
    msd = msd_acc / runs_done
    bits_avg = bits_acc / runs_done
    chi_avg = chi_acc / runs_done
    if diverged_at is not None:
        msd[completed + 1:] = np.inf
        bits_avg[completed:] = np.nan
        chi_avg[completed:] = np.nan
    return RunResult(msd=msd, bits=bits_avg, chi_sq=chi_avg, w_opt=w_opt,
                     diverged=diverged_at is not None, diverged_at=diverged_at,
                     runs_used=runs_done, config=config)


def run(config: RunConfig, models, basis: SubspaceBasis, comb: CombinationMatrix,
        debug=False) -> RunResult:
    """Monte-Carlo execution of the quantized subspace recursion.

    Starts every repetition from w = phi = 0, draws gradients and quantizer
    randomness from counter-based streams keyed by (repetition, iteration,
    agent), and averages MSD, message bits, and innovation energy across
    repetitions. MSD(i) = (1/N) sum_k ||w_opt_k - w_k,i||^2. Each round
    mixes only the neighbor blocks of A. debug=True is the audit mode: every
    agent keeps replicas of its neighbors' states, mixes from them, and they
    are checked against the owners' states every 100 iterations.
    """
    def prepare(n, l, specs):
        if basis.u.shape[0] != n * l:
            raise ValueError("basis ambient dimension does not match the models")
        covs = [m.sigma_u_sq for m in models]
        w_star = np.concatenate([m.w_star for m in models])
        w_opt = compute_wopt(basis, covs, w_star).reshape(n, l)

        nb_index, nb_blocks = _neighbor_blocks(comb, n, l)
        plan = _Plan(_model_arrays(models), _shared_batch_spec(specs), nb_index)
        neighbor_mask = _neighbor_mask(comb.topology) if debug else None

        def round_(state, streams, i):
            return step(state, models, specs, config.mu, config.gamma,
                        nb_blocks, streams, i, neighbor_mask,
                        debug=debug and i % 100 == 0, _plan=plan)
        return w_opt, round_

    return _monte_carlo(config, models, prepare, replicas=debug)


def run_diffusion(config: RunConfig, models, a_scalar) -> RunResult:
    """Standalone scalar-weight diffusion recursion with quantized exchange.

    Implements the consensus special case directly: psi_k = w_k - mu grad;
    phi grows by the reconstructed innovation; w_k = (1 - gamma) phi_k +
    gamma sum_j a_kj phi_j with scalar weights and no basis machinery.
    Randomness follows the same stream discipline as run, so the two
    recursions see identical draws and their trajectories can be compared
    round for round. The deviation reference is the variance-weighted
    network average of the local targets, replicated at every agent.
    """
    a_scalar = np.asarray(a_scalar, dtype=float)

    def prepare(n, l, specs):
        if a_scalar.shape != (n, n):
            raise ValueError("scalar combination matrix has the wrong shape")
        weights = np.array([m.sigma_u_sq for m in models])
        wbar = np.average(np.stack([m.w_star for m in models]), axis=0,
                          weights=weights)
        arrays = _model_arrays(models)
        shared = _shared_batch_spec(specs)
        mu, gamma = config.mu, config.gamma

        def round_(state, streams, i):
            psi = _draw_psi(state.w, arrays, mu, streams, i)
            chi = psi - state.phi
            bits, delta = _quantize_all(specs, shared, chi, streams, i)
            state.phi += delta
            state.w = (1.0 - gamma) * state.phi + gamma * (a_scalar @ state.phi)
            return bits, np.einsum("kl,kl->k", chi, chi)
        return np.tile(wbar, (n, 1)), round_

    return _monte_carlo(config, models, prepare)


def save_metrics_csv(path, result: RunResult, version, seed, per_agent=False):
    """Metrics CSV: iter, msd, msd_db, avg_bits_per_component; the '#' header
    records the tool version and the resolved master seed."""
    n = result.bits.shape[1]
    rate = result.rate
    with open(path, "w") as fh:
        fh.write(f"# subspaceq {version} seed={seed}\n")
        cols = "iter,msd,msd_db,avg_bits_per_component"
        if per_agent:
            cols += "," + ",".join(f"bits_agent_{k + 1}" for k in range(n))
            cols += "," + ",".join(f"chi_sq_agent_{k + 1}" for k in range(n))
        fh.write(cols + "\n")
        msd_db = result.msd_db
        for i in range(result.msd.shape[0]):
            row = [str(i), f"{result.msd[i]:.10g}", f"{msd_db[i]:.10g}"]
            row.append(f"{rate[i - 1]:.10g}" if i >= 1 else "0")
            if per_agent:
                if i >= 1:
                    row += [f"{result.bits[i - 1, k]:.10g}" for k in range(n)]
                    row += [f"{result.chi_sq[i - 1, k]:.10g}" for k in range(n)]
                else:
                    row += ["0"] * (2 * n)
            fh.write(",".join(row) + "\n")
