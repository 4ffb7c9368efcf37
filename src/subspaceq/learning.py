"""Differentially quantized decentralized learning over streaming regression.

Each round an agent takes a stochastic gradient step, quantizes the change
against a reconstruction state phi that every neighbor replicates, broadcasts
the integer message, and mixes the replicated states through the combination
matrix. Only the quantized innovation crosses a link, so sender and receivers
apply the identical state update and stay bit-for-bit synchronized.
"""

from __future__ import annotations

import numbers
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
    "steady_mean",
    "save_metrics_csv",
]


class NonFinite(RuntimeError):
    """An iterate left the finite range; carries the iteration index. Both
    constructor arguments stay in args, so the error pickles intact."""

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
        for name in ("iterations", "runs", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}")
        if self.iterations < 1 or self.runs < 1:
            raise ValueError("iterations and runs must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    mu a scalar or a matching column; each agent's cell is drawn once, all
    read from one StreamField.draws call, and its u and d broadcast over the
    copies."""
    sqrt_su, sqrt_sv, w_star = arrays
    n, l = w_star.shape
    z = streams.draws(GRADIENT, iteration, range(n), l + 1)
    u = sqrt_su * z[:, :l]
    d = np.einsum("kl,kl->k", u, w_star) + sqrt_sv * z[:, l]
    blocks = w.reshape(-1, n, l)
    if np.ndim(mu):
        mu = mu.reshape(-1, n, 1)
    err = d - np.einsum("kl,ckl->ck", u, blocks)
    return (blocks + mu * u * err[..., None]).reshape(w.shape)


def _span(index):
    """An integer index array as a slice when it counts up by one from its
    first entry, which reads and writes without a gather."""
    if np.array_equal(index, np.arange(index[0], index[0] + index.size)):
        return slice(int(index[0]), int(index[0]) + index.size)
    return index


def _schemes(specs, n):
    """The quantize work of a stack whose row r is agent r % n's, quantized
    by specs[r]: (kind, rows, source, their specs) for each scheme present,
    the specs but randc's as a quantizers._SpecRows with its parameter
    columns; and the agents whose QUANTIZE uniforms the stack reads, the
    readers. source is the rows' agents for randc, None for identity, and
    for the other schemes the rows' positions among the readers. Rows and
    positions that fill one range in order are a slice (_span)."""
    kinds = np.array([s.kind for s in specs])
    readers = np.unique(
        np.flatnonzero(~np.isin(kinds, ("identity", "randc"))) % n)
    schemes = []
    for kind in sorted(set(kinds), key=quantizers.KINDS.index):
        rows = np.flatnonzero(kinds == kind)
        chosen = [specs[r] for r in rows]
        if kind == "randc":
            schemes.append((kind, rows, rows % n, chosen))
            continue
        source = (None if kind == "identity"
                  else _span(np.searchsorted(readers, rows % n)))
        schemes.append((kind, _span(rows), source, quantizers._SpecRows(chosen)))
    return schemes, readers.tolist()


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


def _quantize_all(work, chi, streams, iteration):
    """Broadcast phase: quantize every row's innovation against its agent's
    stream, bit-identical to quantizing agent by agent. work is _schemes of
    the stack. Each reader's uniforms are drawn once for all its rows, all
    read from one StreamField.draws call, and each scheme takes its rows of
    them at once; each scheme but randc is one quantize_batch call, and
    randc rows quantize one by one. A row whose level index would leave the
    exact range gets NaN; a randc row that is not finite is carried
    unquantized at its message cost, so that the round diverges as a
    non-finite row of any other scheme does."""
    schemes, readers = work
    bits = np.empty(chi.shape[0])
    delta = np.empty(chi.shape)
    us = streams.draws(QUANTIZE, iteration, readers, chi.shape[1])
    for kind, rows, source, specs in schemes:
        if kind == "randc":
            finite = np.isfinite(chi[rows]).all(axis=1).tolist()
            for r, k, spec, ok in zip(rows.tolist(), source.tolist(), specs,
                                      finite):
                if not ok:      # carried as it is, for the |w| test to flag
                    bits[r], delta[r] = quantizers._randc_cost(spec), chi[r]
                    continue
                msg = quantizers.quantize(spec, chi[r],
                                          streams.stream(iteration, k, QUANTIZE))
                bits[r] = msg.bit_cost
                delta[r] = quantizers.reconstruct(spec, msg)
        else:   # identity takes no uniforms
            bits[rows], delta[rows] = _flagged_batch(
                specs, chi[rows], None if source is None else us[source])
    return bits, delta


def _mixing_weights(weights, l):
    """The weights step mixes for a neighbor table of scalar weights,
    (n, d), or of l x l blocks, (n, d, l, l). Scalar weights, and blocks
    that are all diagonal, become (n, d, l) weights per coordinate: A mixes
    each coordinate of the neighbors' states alone, as A = W kron I_l does
    and as the least-squares fit over a V kron I_l basis does, whose
    off-diagonal entries are exactly zero. Blocks with a nonzero
    off-diagonal entry stay blocks."""
    if weights.ndim == 2:
        return np.repeat(weights[:, :, None], l, axis=2)
    if weights[:, :, ~np.eye(l, dtype=bool)].any():
        return weights
    return np.diagonal(weights, axis1=2, axis2=3).copy()


@dataclass(frozen=True)
class _Plan:
    """What stays fixed across the rounds of one stack: count networks of n
    agents as consecutive blocks of n rows."""

    arrays: tuple                 # _model_arrays(models)
    mu: np.ndarray                # (rows, 1)
    gamma: np.ndarray             # (rows, 1)
    work: tuple                   # _schemes of the rows
    index: np.ndarray             # (rows, d) neighbor rows
    mix: np.ndarray               # weights of index: (rows, d, l) or (rows, d, l, l)


def _plan(models, specs, mu, gamma, index, mix, count=1):
    """The plan of count stacked networks over models. specs holds each
    row's quantizer spec; mu and gamma are one value per network, or one for
    all. index and mix describe one network, as a CombinationMatrix holds
    them, and are tiled over the stack: an (n, d) index of neighbor agents
    with weights as _mixing_weights gives them, (n, d, l) per coordinate or
    (n, d, l, l) blocks."""
    n = len(models)

    def column(values):
        return np.repeat(np.broadcast_to(values, (count,)), n)[:, None]

    index = (index + n * np.arange(count)[:, None, None]).reshape(count * n, -1)
    return _Plan(_model_arrays(models), column(mu), column(gamma),
                 _schemes(list(specs), n), index, np.concatenate([mix] * count))


def step(state: NetworkState, plan: _Plan, streams, iteration, *, debug=False,
         trace=None):
    """One synchronous round of the three-phase recursion, in place.

    (a) psi_k = w_k - mu * gradient draw; (b) quantize chi_k = psi_k - phi_k,
    add the reconstruction to phi_k and, in audit mode, to every replica of
    phi_k in the network (the identical float operation on both sides);
    (c) mix: w_k = (1 - gamma) phi_k + gamma * sum_j A_kj phi_j. Everything
    fixed over the rounds comes from plan (_plan): the models, mu and gamma
    columns, the rows grouped by quantizer scheme (_schemes, one
    quantize_batch call per scheme but randc), and the neighbor table that
    mixes. Per-coordinate weights, (rows, d, l), mix each coordinate of the
    neighbors' states alone, with l multiply-adds per neighbor; l x l
    neighbor blocks, (rows, d, l, l), kept only where _mixing_weights finds
    a nonzero off-diagonal entry, take l^2. The draws come from streams,
    the StreamField of the enclosing Monte-Carlo repetition: each agent's
    GRADIENT cell and the QUANTIZE cells of the agents that read them from
    the array Philox of StreamField.draws, and each randc row's through
    stream(). Audit replicas (state.copies) are laid out as
    the index; debug=True checks them. Returns (per-row message bits,
    per-row ||chi||^2); bits are NaN where a level index left the exact
    range.
    """
    psi = _draw_psi(state.w, plan.arrays, plan.mu, streams, iteration)
    chi = psi - state.phi
    bits, delta = _quantize_all(plan.work, chi, streams, iteration)

    state.phi += delta
    if state.copies is None:
        heard = np.take(state.phi, plan.index, axis=0)
    else:
        state.copies += np.take(delta, plan.index, axis=0)
        if debug:
            state.check_consistency(plan.index)
        heard = state.copies
    if plan.mix.ndim == 3:
        mixed = np.einsum("kmt,kmt->kt", plan.mix, heard)
    else:
        mixed = np.einsum("kmst,kmt->ks", plan.mix, heard)
    state.w = (1.0 - plan.gamma) * state.phi + plan.gamma * mixed

    if trace is not None:
        trace["psi"] = psi
        trace["z"] = psi - state.phi      # realized quantization error
        trace["phi"] = state.phi.copy()
        trace["w"] = state.w.copy()
    return bits, np.einsum("kl,kl->k", chi, chi)


def _check_batch(configs, models):
    """Raise unless configs can run as one batch over models: they share
    seed, runs and iterations (else BatchMismatch), so that they consume the
    same stream cells; all agents share one block dimension l; and every
    quantizer spec has dim l. Returns (n, l)."""
    first = configs[0]
    if any((c.seed, c.runs, c.iterations) != (first.seed, first.runs, first.iterations)
           for c in configs):
        raise BatchMismatch("configs run as one batch must share seed, runs "
                            "and iterations")
    n = len(models)
    l = models[0].dim
    if any(m.dim != l for m in models):
        raise ValueError("all agents must share one block dimension")
    for config_specs in [c.specs_for(n) for c in configs]:
        for k, s in enumerate(config_specs):
            if s.dim != l:
                raise ValueError(f"quantizer {k} has dim {s.dim}, agents have {l}")
    return n, l


@np.errstate(over="ignore", invalid="ignore")
def _monte_carlo(configs, models, w_opt, index, mix, debug=False) -> list:
    """The Monte-Carlo loop of run; one RunResult per config, of configs
    that passed _check_batch.

    It takes the deviation reference w_opt (n, l) and the neighbor table of
    one network, index and mix as _plan takes them. Every round is one step call on the stacked NetworkState: configs
    stack in list order, each round drawing every stream cell once for all
    of them, and every repetition starts from w = phi = 0 with its own
    StreamField, told the number of rounds.
    With debug, each row keeps replicas of its neighbors' states in the
    table of index, checked every 100 rounds.

    Divergence is per config. Round i diverges a config when its deviation
    leaves the finite range or its |w| passes DIVERGENCE_LIMIT after it, or
    when one of its rows' level indices would leave the exact range (NaN
    bits, from quantizers.IndexRange); either way diverged_at = i + 1, and the
    config leaves the stack while the others go on. Its Monte-Carlo loop
    stops there: its result averages what its repetitions recorded, with msd
    inf and bits and chi_sq NaN past the last completed round. At the end,
    the lowest-index diverged config whose on_divergence is "raise" raises
    NonFinite(diverged_at), as separate calls in order would have. The
    rounds run with floating-point overflow and invalid-operation warnings
    off: the divergence policy reports every row that produces them.
    """
    n, l = w_opt.shape
    specs = [c.specs_for(n) for c in configs]
    width = index.shape[1] if debug else None

    def stack(live):
        return _plan(models, [s for b in live for s in specs[b]],
                     [configs[b].mu for b in live],
                     [configs[b].gamma for b in live], index, mix, len(live))

    first = configs[0]
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
        streams = StreamField(first.seed, rep, t_iters)
        state = NetworkState(len(live) * n, l, width=width)
        plan = stack(live)
        where = slice(None) if len(live) == count else np.array(live)
        msd_acc[where, 0] += dev0
        for i in range(t_iters):
            bits, chi_sq = step(state, plan, streams, i,
                                debug=debug and i % 100 == 0)
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
            plan = stack(live)
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
    mixes only each agent's neighbors, per coordinate when A mixes each
    coordinate alone: a factored comb (A = W kron I_l), and blocks that are
    all diagonal, as the least-squares fit over a V kron I_l basis gives.
    Blocks with a nonzero off-diagonal entry mix as l x l blocks. comb must
    be built for the models' agent count and block size, as basis must
    (else ValueError).
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
    n, l = _check_batch(configs, models)
    if basis.u.shape[0] != n * l:
        raise ValueError("basis ambient dimension does not match the models")
    if comb.topology.n != n:
        raise ValueError(f"combination matrix has {comb.topology.n} agents, "
                         f"the models {n}")
    if any(d != l for d in comb.block_dims):
        raise ValueError(f"combination matrix has blocks of size "
                         f"{comb.block_dims[0]}, the models dimension {l}")
    covs = [m.sigma_u_sq for m in models]
    w_star = np.concatenate([m.w_star for m in models])
    w_opt = compute_wopt(basis, covs, w_star).reshape(n, l)
    results = _monte_carlo(configs, models, w_opt, comb.index,
                           _mixing_weights(comb.weights, l), debug)
    return results[0] if isinstance(config, RunConfig) else results


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
