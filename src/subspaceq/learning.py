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
    "BatchMismatch",
    "StateDesync",
    "sample_gradient",
    "step",
    "run",
    "run_diffusion",
    "steady_mean",
    "save_metrics_csv",
]


class NonFinite(RuntimeError):
    """An iterate left the finite range; carries the iteration index. Both
    constructor arguments stay in args, so the error pickles intact across
    worker processes."""

    def __init__(self, iteration, message="iterate exceeded the divergence guard"):
        super().__init__(iteration, message)
        self.iteration = iteration
        self.message = message

    def __str__(self):
        return f"{self.message} at iteration {self.iteration}"


class BatchMismatch(ValueError):
    """Configs run as one batch differ in seed, runs or iterations."""


class StateDesync(AssertionError):
    """A replicated reconstruction state drifted from its owner's copy."""


@dataclass(frozen=True)
class DataModel:
    """Per-agent streaming regression source d = u^T w_star + v."""

    sigma_u_sq: float
    sigma_v_sq: float
    w_star: np.ndarray

    def __post_init__(self):
        if not 0 < self.sigma_u_sq < np.inf:
            raise ValueError("regressor variance must be positive and finite")
        if not 0 <= self.sigma_v_sq < np.inf:
            raise ValueError("noise variance must be nonnegative and finite")
        object.__setattr__(self, "w_star", np.asarray(self.w_star, dtype=float))
        if not np.isfinite(self.w_star).all():
            raise ValueError("target w_star must be finite")

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
        if not 0 < self.mu < np.inf:
            raise ValueError("step size must be positive and finite")
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
        if not (isinstance(q, (list, tuple))
                and all(isinstance(s, quantizers.QuantizerSpec) for s in q)):
            raise ValueError("quantizer must be a QuantizerSpec or a list of "
                             f"one QuantizerSpec per agent, got {q!r:.80}")
        if len(q) != n:
            raise ValueError(f"need one quantizer spec per agent, got {len(q)} for {n}")
        return list(q)


class NetworkState:
    """Mutable per-repetition state: estimates, reconstruction states, and,
    in audit mode, the replicas each row keeps of its neighbors' states.

    They live in the (rows, width) neighbor table that mixing reads, in
    O(rows * width * l) memory: copies[r, m] is row r's replica of row
    index[r, m]'s phi; a padding slot replicates row r, at weight 0. Every
    replica equals phi by construction, so the copies exist only when a
    width is given, as run(debug=True) does; step then updates them and
    mixes from them, and check_consistency audits them.
    """

    def __init__(self, n, l, *, width=None):
        self.n = n
        self.l = l
        self.w = np.zeros((n, l))
        self.phi = np.zeros((n, l))
        self.copies = None if width is None else np.zeros((n, width, l))

    def check_consistency(self, index):
        """Raise StateDesync unless copies[r, m] equals phi[index[r, m]]."""
        if self.copies is None or self.copies.shape[:2] != np.shape(index):
            raise ValueError("no replicas laid out as this index")
        drift = np.any(self.copies != np.take(self.phi, index, axis=0), axis=2)
        if drift.any():
            r, m = np.argwhere(drift)[0]
            raise StateDesync(f"row {r}'s replica of row {index[r, m]} drifted")


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
    w[k] - mu * sample_gradient(models[k], w[k], stream) to rounding order.
    w may stack copies of the network as consecutive blocks of n rows, with
    mu a scalar or a matching column; each agent's cell is drawn once, and
    its u and d broadcast over the copies."""
    sqrt_su, sqrt_sv, w_star = arrays
    n, l = w_star.shape
    z = np.empty((n, l + 1))
    for k in range(n):
        z[k] = streams.stream(iteration, k, GRADIENT).standard_normal(l + 1)
    u = sqrt_su * z[:, :l]
    d = np.einsum("kl,kl->k", u, w_star) + sqrt_sv * z[:, l]
    blocks = w.reshape(-1, n, l)
    if np.ndim(mu):
        mu = mu.reshape(-1, n, 1)
    err = d - np.einsum("kl,ckl->ck", u, blocks)
    return (blocks + mu * u * err[..., None]).reshape(w.shape)


def _schemes(specs, n):
    """The quantize work of a stack whose row r is agent r % n's, quantized
    by specs[r]: (kind, rows, their agents, their specs) for each scheme
    present, the specs but randc's as a quantizers._SpecRows with its
    parameter columns; and the agents whose QUANTIZE uniforms they read.
    The rows of a scheme but randc that fill one range are a slice, which
    reads and writes them without a gather."""
    kinds = np.array([s.kind for s in specs])
    schemes = []
    for kind in sorted(set(kinds), key=quantizers.KINDS.index):
        rows = np.flatnonzero(kinds == kind)
        chosen = [specs[r] for r in rows]
        at = rows
        if kind != "randc" and rows[-1] - rows[0] == rows.size - 1:
            at = slice(int(rows[0]), int(rows[-1]) + 1)
        schemes.append((kind, at, rows % n, chosen if kind == "randc"
                        else quantizers._SpecRows(chosen)))
    readers = np.flatnonzero(~np.isin(kinds, ("identity", "randc"))) % n
    return schemes, np.unique(readers).tolist()


def _flagged_batch(specs, xs, us):
    """quantizers.quantize_batch over rows, where a row with a level index
    beyond the exact range gets NaN cost and a zero update on its own."""
    try:
        return quantizers.quantize_batch(specs, xs, us)
    except quantizers.IndexRange as exc:
        ok = ~exc.rows
        costs, recon = np.full(xs.shape[0], np.nan), np.zeros(xs.shape)
        if ok.any():
            costs[ok], recon[ok] = quantizers.quantize_batch(
                [s for s, keep in zip(specs, ok) if keep], xs[ok], us[ok])
        return costs, recon


def _quantize_all(work, chi, streams, iteration, n):
    """Broadcast phase: quantize every row's innovation against its agent's
    stream, bit-identical to quantizing agent by agent. work is _schemes of
    the stack. Each agent's uniforms are drawn once for all its rows; each
    scheme but randc is one quantize_batch call, and randc rows quantize one
    by one. A row whose level index would leave the exact range gets NaN."""
    schemes, readers = work
    bits = np.empty(chi.shape[0])
    delta = np.empty(chi.shape)
    us = np.empty((n, chi.shape[1]))
    for k in readers:
        us[k] = streams.stream(iteration, k, QUANTIZE).random(chi.shape[1])
    for kind, rows, agents, specs in schemes:
        if kind == "randc":
            for r, k, spec in zip(rows.tolist(), agents.tolist(), specs):
                msg = quantizers.quantize(spec, chi[r],
                                          streams.stream(iteration, k, QUANTIZE))
                bits[r] = msg.bit_cost
                delta[r] = quantizers.reconstruct(spec, msg)
        else:   # identity ignores the (undrawn) uniforms of its agents
            bits[rows], delta[rows] = _flagged_batch(
                specs, chi[rows], np.take(us, agents, axis=0))
    return bits, delta


@dataclass(frozen=True)
class _Plan:
    """What stays fixed across the rounds of one batch of configs."""

    arrays: tuple                 # _model_arrays(models)
    work: tuple                   # _schemes of the stacked rows
    nb_index: np.ndarray          # (rows, d) row indices matching the mixing


def step(state: NetworkState, models, specs, mu, gamma, blocks, streams,
         iteration, *, debug=False, trace=None, _plan=None):
    """One synchronous round of the three-phase recursion, in place.

    (a) psi_k = w_k - mu * gradient draw; (b) quantize chi_k = psi_k - phi_k,
    add the reconstruction to phi_k and, in audit mode, to every replica of
    phi_k in the network (the identical float operation on both sides);
    (c) mix: w_k = (1 - gamma) phi_k + gamma * sum_j A_kj phi_j. blocks is
    the combination matrix viewed as (n, n, l, l); run passes instead what
    _neighbor_blocks gives, with the agent indices in its plan: for
    A = W kron I_l each agent's neighbor weights (n, d_max), mixed with l
    multiply-adds per neighbor, else its neighbor blocks (n, d_max, l, l),
    mixed with l^2. The batched driver stacks several configs' networks in
    one state, as blocks of n rows with mu and gamma as matching columns,
    and its plan groups their rows by quantizer scheme (_schemes), one
    quantize_batch call per scheme but randc; without a plan, specs are the
    agents' specs and the index is the full (n, n) one. Audit replicas
    (state.copies) are laid out as the index; debug=True checks them.
    streams is the StreamField of the enclosing Monte-Carlo repetition.
    Returns (per-row message bits, per-row ||chi||^2); bits are NaN where a
    level index left the exact range.
    """
    n = state.n
    if _plan is None:
        _plan = _Plan(_model_arrays(models), _schemes(list(specs), n),
                      np.broadcast_to(np.arange(n), (n, n)))

    psi = _draw_psi(state.w, _plan.arrays, mu, streams, iteration)
    chi = psi - state.phi
    bits, delta = _quantize_all(_plan.work, chi, streams, iteration, len(models))

    state.phi += delta
    if state.copies is None:
        heard = np.take(state.phi, _plan.nb_index, axis=0)
    else:
        state.copies += np.take(delta, _plan.nb_index, axis=0)
        if debug:
            state.check_consistency(_plan.nb_index)
        heard = state.copies

    if blocks.ndim == 2:
        mixed = np.einsum("km,kmt->kt", blocks, heard)
    else:
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
    padded at the end with the agent itself, and what A holds for them, zero
    at the padding. A factored A = W kron I_l gives the scalar weights
    W[k, j] as (n, d_max) and never reads A; a dense A gives its blocks as
    (n, d_max, l, l). Mixing the weights adds the same products in the same
    neighbor order as mixing the blocks W[k, j] I_l, whose other terms are
    0 * phi = +-0, so both give the same bits."""
    nbhd = [sorted(nb) for nb in comb.topology.neighborhoods]
    d_max = max(len(nb) for nb in nbhd)
    index = np.array([nb + [k] * (d_max - len(nb)) for k, nb in enumerate(nbhd)])
    real = np.arange(d_max) < np.array([len(nb) for nb in nbhd])[:, None]
    rows = np.arange(n)[:, None]
    if comb.factored:
        return index, np.where(real, comb.matrix[rows, index], 0.0)
    blocks = comb.matrix.reshape(n, l, n, l).transpose(0, 2, 1, 3)[rows, index]
    return index, np.where(real[:, :, None, None], blocks, 0.0)


@dataclass(frozen=True)
class _Batch:
    """The live configs of a batch, stacked as consecutive blocks of n rows."""

    count: int
    mu: np.ndarray                # (rows, 1)
    gamma: np.ndarray             # (rows, 1)
    specs: list                   # each row's quantizer spec
    work: tuple                   # _schemes of the rows


def _stack(configs, specs, live, n):
    """The _Batch of the configs at indices live (specs[b] holding config
    b's per-agent specs), in this order."""
    def column(values):
        return np.repeat(values, n)[:, None]

    rows = [s for b in live for s in specs[b]]
    return _Batch(len(live), column([configs[b].mu for b in live]),
                  column([configs[b].gamma for b in live]), rows, _schemes(rows, n))


def _monte_carlo(configs, models, prepare, width=None) -> list:
    """The Monte-Carlo loop that run and run_diffusion share; one RunResult
    per config.

    The configs must share seed, runs and iterations (else BatchMismatch),
    so that they consume the same stream cells: each round draws every cell
    once for all of them. Checks that all agents share one block dimension l
    and that every quantizer spec has dim l, then calls prepare(n, l). It
    returns the deviation reference w_opt (n, l) and rounds(batch), which
    gives for a _Batch the round function round_(state, streams, i): it
    advances the stacked NetworkState by round i in place and returns
    (per-row message bits, per-row ||chi||^2). Configs stack in list order,
    their rows grouped by quantizer scheme (_schemes) for the quantize
    phase. Every repetition starts from w = phi = 0 with its own StreamField.

    Divergence is per config. Round i diverges a config when its deviation
    leaves the finite range or its |w| passes DIVERGENCE_LIMIT after it, or
    when one of its rows' level indices would leave the exact range (NaN
    bits, from quantizers.IndexRange); either way diverged_at = i + 1, and the
    config leaves the stack while the others go on. Its Monte-Carlo loop
    stops there: its result averages what its repetitions recorded, with msd
    inf and bits and chi_sq NaN past the last completed round. At the end,
    the lowest-index diverged config whose on_divergence is "raise" raises
    NonFinite(diverged_at), as separate calls in order would have.
    """
    configs = list(configs)
    first = configs[0]
    if any((c.seed, c.runs, c.iterations) != (first.seed, first.runs, first.iterations)
           for c in configs):
        raise BatchMismatch("configs run as one batch must share seed, runs "
                            "and iterations")
    n = len(models)
    l = models[0].dim
    if any(m.dim != l for m in models):
        raise ValueError("all agents must share one block dimension")
    specs = [c.specs_for(n) for c in configs]
    for config_specs in specs:
        for k, s in enumerate(config_specs):
            if s.dim != l:
                raise ValueError(f"quantizer {k} has dim {s.dim}, agents have {l}")
    w_opt, rounds = prepare(n, l)

    count, t_iters = len(configs), first.iterations
    msd_acc = np.zeros((count, t_iters + 1))
    bits_acc = np.zeros((count, t_iters, n))
    chi_acc = np.zeros((count, t_iters, n))
    diverged_at = [None] * count
    completed = [t_iters] * count
    causes = [None] * count
    runs_done = [first.runs] * count
    dev0 = np.sum((np.zeros((n, l)) - w_opt) ** 2) / n

    for rep in range(first.runs):
        live = [b for b in range(count) if diverged_at[b] is None]
        if not live:
            break
        streams = StreamField(first.seed, rep)
        state = NetworkState(len(live) * n, l, width=width)
        round_ = rounds(_stack(configs, specs, live, n))
        where = slice(None) if len(live) == count else np.array(live)
        msd_acc[where, 0] += dev0
        for i in range(t_iters):
            bits, chi_sq = round_(state, streams, i)
            m = len(live)
            bits, chi_sq = bits.reshape(m, n), chi_sq.reshape(m, n)
            dev = np.sum(((state.w.reshape(m, n, l) - w_opt) ** 2).reshape(m, -1),
                         axis=1) / n
            # a diverging config's rows from here on are overwritten below
            bits_acc[where, i] += bits
            chi_acc[where, i] += chi_sq
            msd_acc[where, i + 1] += dev
            # |w| <= DIVERGENCE_LIMIT keeps dev finite, and a NaN fails it
            if (np.abs(state.w).max() <= DIVERGENCE_LIMIT
                    and not np.isnan(bits).any()):
                continue
            lost = np.isnan(bits).any(axis=1)
            broke = lost | ~np.isfinite(dev) | (
                np.max(np.abs(state.w.reshape(m, -1)), axis=1) > DIVERGENCE_LIMIT)
            for j in np.flatnonzero(broke):
                b = live[j]
                diverged_at[b], runs_done[b] = i + 1, rep + 1
                completed[b] = i if lost[j] else i + 1
                if lost[j]:
                    causes[b] = quantizers.IndexRange(
                        f"a level index would reach 2**53 in round {i}")
            stay = np.flatnonzero(~broke)
            live = [live[j] for j in stay]
            if not live:
                break
            _keep_configs(state, stay, n)
            round_ = rounds(_stack(configs, specs, live, n))
            where = np.array(live)

    # averaged in place; each result holds views of its config's rows
    divisor = np.array(runs_done, dtype=float)
    msd_acc /= divisor[:, None]
    bits_acc /= divisor[:, None, None]
    chi_acc /= divisor[:, None, None]
    results = []
    for b, config in enumerate(configs):
        if diverged_at[b] is not None and config.on_divergence == "raise":
            raise NonFinite(diverged_at[b]) from causes[b]
        msd, bits_avg, chi_avg = msd_acc[b], bits_acc[b], chi_acc[b]
        if diverged_at[b] is not None:
            msd[completed[b] + 1:] = np.inf
            bits_avg[completed[b]:] = np.nan
            chi_avg[completed[b]:] = np.nan
        results.append(RunResult(
            msd=msd, bits=bits_avg, chi_sq=chi_avg, w_opt=w_opt,
            diverged=diverged_at[b] is not None, diverged_at=diverged_at[b],
            runs_used=runs_done[b], config=config))
    return results


def _keep_configs(state: NetworkState, stay, n):
    """Shrink a stacked state, in place, to the configs at positions stay."""
    rows = (np.asarray(stay)[:, None] * n + np.arange(n)).ravel()
    state.n = rows.size
    state.w, state.phi = state.w[rows], state.phi[rows]
    if state.copies is not None:
        state.copies = state.copies[rows]


def run(config, models, basis: SubspaceBasis, comb: CombinationMatrix,
        debug=False):
    """Monte-Carlo execution of the quantized subspace recursion.

    Starts every repetition from w = phi = 0, draws gradients and quantizer
    randomness from counter-based streams keyed by (repetition, iteration,
    agent), and averages MSD, message bits, and innovation energy across
    repetitions. MSD(i) = (1/N) sum_k ||w_opt_k - w_k,i||^2. Each round
    mixes only each agent's neighbors: with the scalar weights W when comb
    is factored (A = W kron I_l), else with the l x l blocks of A.
    debug=True is the audit mode: every agent keeps replicas of its
    neighbors' states in the neighbor table, mixes from them, and they are
    checked against the owners' states every 100 iterations.

    config may also be a sequence of RunConfigs that share seed, runs and
    iterations (else BatchMismatch); the call then returns a list with one
    RunResult per config. Draws are keyed by repetition, iteration and
    agent, never by config, so such configs consume the same draws: they
    advance together, each round drawing every stream cell once and
    quantizing each scheme's rows in one stacked call, and every result
    is bit-identical to a run of its config alone. A config that diverges
    stops alone; see _monte_carlo for the divergence policy of a batch.
    """
    configs = [config] if isinstance(config, RunConfig) else list(config)

    def prepare(n, l):
        if basis.u.shape[0] != n * l:
            raise ValueError("basis ambient dimension does not match the models")
        covs = [m.sigma_u_sq for m in models]
        w_star = np.concatenate([m.w_star for m in models])
        w_opt = compute_wopt(basis, covs, w_star).reshape(n, l)

        nb_index, nb_mix = _neighbor_blocks(comb, n, l)
        arrays = _model_arrays(models)

        def rounds(batch):
            m = batch.count
            index = (nb_index + n * np.arange(m)[:, None, None]).reshape(m * n, -1)
            blocks = np.concatenate([nb_mix] * m)
            plan = _Plan(arrays, batch.work, index)

            def round_(state, streams, i):
                return step(state, models, batch.specs, batch.mu, batch.gamma,
                            blocks, streams, i, debug=debug and i % 100 == 0,
                            _plan=plan)
            return round_
        return w_opt, rounds

    width = max(map(len, comb.topology.neighborhoods)) if debug else None
    results = _monte_carlo(configs, models, prepare, width)
    return results[0] if isinstance(config, RunConfig) else results


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

    def prepare(n, l):
        if a_scalar.shape != (n, n):
            raise ValueError("scalar combination matrix has the wrong shape")
        weights = np.array([m.sigma_u_sq for m in models])
        wbar = np.average(np.stack([m.w_star for m in models]), axis=0,
                          weights=weights)
        arrays = _model_arrays(models)

        def rounds(batch):
            def round_(state, streams, i):
                psi = _draw_psi(state.w, arrays, batch.mu, streams, i)
                chi = psi - state.phi
                bits, delta = _quantize_all(batch.work, chi, streams, i, n)
                state.phi += delta
                state.w = ((1.0 - batch.gamma) * state.phi
                           + batch.gamma * (a_scalar @ state.phi))
                return bits, np.einsum("kl,kl->k", chi, chi)
            return round_
        return np.tile(wbar, (n, 1)), rounds

    return _monte_carlo([config], models, prepare)[0]


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
