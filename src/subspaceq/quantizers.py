"""Randomized quantizers and compression operators with declared noise budgets.

Every scheme is unbiased and satisfies a mean-square error bound of the form

    E || x - Q(x) ||^2  <=  beta_sq * ||x||^2 + sigma_sq,

with the (beta_sq, sigma_sq) pair reported by :func:`noise_budget`. Two schemes
(uniform and the adaptive nonuniform compander) emit signed level indices that
feed the variable-rate codec; the remainder (coordinate selection, gossip,
per-coordinate sparsifier, normalized low-precision levels) emit values plus
side information with a high-precision-word bit accounting.

Randomness enters only through caller-supplied generators, so identical spec,
input, and stream state reproduce identical payloads bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import codec

__all__ = [
    "QuantizerSpec",
    "NoiseBudget",
    "QuantizedMessage",
    "SpecError",
    "DegenerateCell",
    "IndexRange",
    "SchemeMismatch",
    "identity",
    "uniform",
    "anq",
    "randc",
    "gossip",
    "sparsifier",
    "qsgd",
    "parse_spec",
    "spec_string",
    "randomized_round",
    "quantize",
    "quantize_batch",
    "reconstruct",
    "noise_budget",
    "coded_stream",
    "index_bit_lengths",
    "sample_errors",
    "empirical_moments",
]

KINDS = ("identity", "uniform", "anq", "randc", "gossip", "sparsifier", "qsgd")
# schemes whose per-row work is pure elementwise arithmetic (quantize_batch)
BATCH_KINDS = ("identity", "uniform", "anq")
# level indices stay below this magnitude, where float64 holds every integer
# and index_bit_lengths is exact
MAX_INDEX = 2**53


class SpecError(ValueError):
    """Invalid quantizer parameters or selection string."""


class DegenerateCell(ValueError):
    """Randomized rounding hit a zero-width quantization cell."""


class IndexRange(ValueError):
    """A level index would reach MAX_INDEX in magnitude (a cell far too fine
    for the input), beyond exact index and bit-cost arithmetic. ``rows``
    marks the input vectors concerned (shape of the input without its last
    axis), when the raiser knows them."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


class SchemeMismatch(ValueError):
    """Message reconstructed with a spec it was not produced by."""


@dataclass(frozen=True)
class QuantizerSpec:
    kind: str
    dim: int
    b_hp: int = 32
    delta: float | None = None
    omega: float | None = None
    eta: float | None = None
    c: int | None = None
    q: float | None = None
    qs: tuple | None = None
    s: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown scheme {self.kind!r}")
        if self.dim < 1:
            raise SpecError("dim must be >= 1")
        if self.b_hp < 1:
            raise SpecError("b_hp must be >= 1")
        k = self.kind
        if k == "uniform" and not (self.delta is not None and self.delta > 0):
            raise SpecError("uniform needs delta > 0")
        if k == "anq":
            if self.omega is None or self.omega < 0:
                raise SpecError("anq needs omega >= 0")
            if not (self.eta is not None and self.eta > 0):
                raise SpecError("anq needs eta > 0")
        if k == "randc" and not (self.c is not None and 1 <= self.c <= self.dim):
            raise SpecError("randc needs 1 <= c <= dim")
        if k == "gossip" and not (self.q is not None and 0 < self.q <= 1):
            raise SpecError("gossip needs 0 < q <= 1")
        if k == "sparsifier":
            if not self.qs or len(self.qs) != self.dim:
                raise SpecError("sparsifier needs one probability per coordinate")
            if not all(0 < qj <= 1 for qj in self.qs):
                raise SpecError("sparsifier needs 0 < q_j <= 1")
        if k == "qsgd" and not (self.s is not None and self.s >= 1):
            raise SpecError("qsgd needs integer s >= 1")


@dataclass(frozen=True)
class NoiseBudget:
    beta_sq: float
    sigma_sq: float


@dataclass(frozen=True)
class QuantizedMessage:
    kind: str
    dim: int
    bit_cost: float
    indices: np.ndarray | None = None   # signed levels, codec-bound schemes
    values: np.ndarray | None = None    # already-unbiased estimates
    coords: np.ndarray | None = None    # selected coordinates (randc, sparsifier)
    norm: float | None = None           # qsgd side information
    signs: np.ndarray | None = None
    levels: np.ndarray | None = None


# ---------------------------------------------------------------------------
# spec constructors and the selection-string grammar

def identity(dim, b_hp=32):
    return QuantizerSpec("identity", dim, b_hp)


def uniform(delta, dim, b_hp=32):
    return QuantizerSpec("uniform", dim, b_hp, delta=float(delta))


def anq(omega, eta, dim, b_hp=32):
    return QuantizerSpec("anq", dim, b_hp, omega=float(omega), eta=float(eta))


def randc(c, dim, b_hp=32):
    return QuantizerSpec("randc", dim, b_hp, c=int(c))


def gossip(q, dim, b_hp=32):
    return QuantizerSpec("gossip", dim, b_hp, q=float(q))


def sparsifier(qs, dim, b_hp=32):
    qs = tuple(float(v) for v in np.atleast_1d(qs))
    if len(qs) == 1:
        qs = qs * dim
    return QuantizerSpec("sparsifier", dim, b_hp, qs=qs)


def qsgd(s, dim, b_hp=32):
    return QuantizerSpec("qsgd", dim, b_hp, s=int(s))


def parse_spec(text, dim, b_hp=32) -> QuantizerSpec:
    """Parse a scheme selection string.

    Grammar: "identity", "uniform:delta=<f>", "anq:omega=<f>,eta=<f>",
    "randc:c=<int>", "gossip:q=<f>", "sparsifier:q=<f-list>", "qsgd:s=<int>".
    """
    text = text.strip()
    name, _, rest = text.partition(":")
    try:
        if name == "identity":
            if rest:
                raise SpecError("identity takes no parameters")
            return identity(dim, b_hp)
        if name == "sparsifier":
            key, _, value = rest.partition("=")
            if key != "q" or not value:
                raise SpecError("expected sparsifier:q=<f-list>")
            return sparsifier([float(v) for v in value.split(",")], dim, b_hp)
        params = {}
        if rest:
            for item in rest.split(","):
                key, _, value = item.partition("=")
                if not value:
                    raise SpecError(f"malformed parameter {item!r}")
                params[key.strip()] = value.strip()
        if name == "uniform":
            return uniform(float(params.pop("delta")), dim, b_hp)
        if name == "anq":
            return anq(float(params.pop("omega")), float(params.pop("eta")), dim, b_hp)
        if name == "randc":
            return randc(int(params.pop("c")), dim, b_hp)
        if name == "gossip":
            return gossip(float(params.pop("q")), dim, b_hp)
        if name == "qsgd":
            return qsgd(int(params.pop("s")), dim, b_hp)
    except SpecError:
        raise
    except (KeyError, ValueError) as exc:
        raise SpecError(f"cannot parse {text!r}: {exc}") from None
    raise SpecError(f"unknown scheme in {text!r}")


def spec_string(spec: QuantizerSpec) -> str:
    """Inverse of parse_spec, for manifests and CSV headers."""
    k = spec.kind
    if k == "identity":
        return "identity"
    if k == "uniform":
        return f"uniform:delta={spec.delta:g}"
    if k == "anq":
        return f"anq:omega={spec.omega:g},eta={spec.eta:g}"
    if k == "randc":
        return f"randc:c={spec.c}"
    if k == "gossip":
        return f"gossip:q={spec.q:g}"
    if k == "sparsifier":
        return "sparsifier:q=" + ",".join(f"{v:g}" for v in spec.qs)
    return f"qsgd:s={spec.s}"


# ---------------------------------------------------------------------------
# randomized rounding and the companding nonlinearities

def randomized_round(x_j, g, h, rng) -> int:
    """Two-point unbiased rounding of a scalar.

    Picks n in {m, m+1} with m = floor(g(x_j)) and
    P[n = m] = (y_{m+1} - x_j) / (y_{m+1} - y_m) where y_m = h(m), which makes
    E[h(n)] = x_j exactly.
    """
    m = int(math.floor(g(x_j)))
    y0, y1 = h(m), h(m + 1)
    width = y1 - y0
    if width <= 0:
        raise DegenerateCell(f"cell [{y0}, {y1}] has nonpositive width")
    p_up = min(max((x_j - y0) / width, 0.0), 1.0)
    return m + (rng.random() < p_up)


def compander_forward(t, omega, eta):
    """Logarithmic compression map; linear t/(2 eta) in the omega -> 0 limit."""
    t = np.asarray(t, dtype=float)
    if omega == 0.0:
        return t / (2.0 * eta)
    return np.sign(t) * np.log1p((omega / eta) * np.abs(t)) / (2.0 * math.asinh(omega))


def compander_inverse(t, omega, eta):
    """Expansion map, exact inverse of compander_forward."""
    t = np.asarray(t, dtype=float)
    if omega == 0.0:
        return 2.0 * eta * t
    return np.sign(t) * (eta / omega) * np.expm1(2.0 * np.abs(t) * math.asinh(omega))


def _floor_index(t):
    """floor(t) as int64 level indices, and a mask of the vectors (along the
    last axis) in which floor(t) or floor(t) + 1 would reach MAX_INDEX in
    magnitude. Those vectors' indices are zeroed before the cast, so that
    the rest of a stack still rounds exactly."""
    m = np.floor(t)
    inside = (m > -MAX_INDEX) & (m < MAX_INDEX - 1)
    if inside.all():
        return m.astype(np.int64), np.zeros(m.shape[:-1], dtype=bool)
    return np.where(inside, m, 0.0).astype(np.int64), ~inside.all(axis=-1)


def _index_range(bad):
    return IndexRange(f"{int(np.sum(bad))} vector(s) need a level index beyond "
                      f"the exact range (|n| < 2**53)", rows=bad)


def _is_linear(spec):
    """uniform, or anq with omega = 0, whose compander t / (2 eta) is the
    uniform map with delta = 2 eta."""
    return spec.kind == "uniform" or spec.omega == 0.0


def _index_maps(specs):
    """Forward map g and level-to-value map y of uniform or anq specs; level
    n stands for the value y(n), and g(x) lies in [m, m + 1) for the cell
    [y(m), y(m + 1)) that holds x.

    The specs must all be linear (_is_linear) or all logarithmic. One spec
    gives maps of any array. m specs give maps of an (m, n, L) stack, spec j
    mapping stack j, with their parameters held as (m, 1, 1) columns; every
    element goes through its own spec's operations in the same order, so
    the results equal those of the single-spec maps bit for bit."""
    def col(values):
        return values[0] if len(values) == 1 else np.array(values)[:, None, None]

    if _is_linear(specs[0]):
        d = col([s.delta if s.kind == "uniform" else 2.0 * s.eta for s in specs])
        return (lambda t: t / d), (lambda m: d * m)
    ratio = col([s.omega / s.eta for s in specs])
    scale = col([2.0 * math.asinh(s.omega) for s in specs])
    spread = col([s.eta / s.omega for s in specs])
    half = col([math.asinh(s.omega) for s in specs])

    # compander_forward and compander_inverse, with columns for parameters
    def g(t):
        return np.sign(t) * np.log1p(ratio * np.abs(t)) / scale

    def y(m):
        m = np.asarray(m, dtype=float)
        return np.sign(m) * spread * np.expm1(2.0 * np.abs(m) * half)
    return g, y


def _round_indices(x, g, y, u):
    """Vectorized two-point rounding of x through the maps of _index_maps;
    u are uniform draws shaped like x, or a stack of such rows, one rounding
    of x per row. Returns the level indices and the _floor_index mask of
    vectors out of the exact range."""
    m, bad = _floor_index(g(x))
    y0 = y(m)
    width = y(m + 1) - y0
    if np.any(width <= 0):
        raise DegenerateCell("nonpositive cell width")
    p_up = np.clip((x - y0) / width, 0.0, 1.0)
    return m + (u < p_up), bad


def _round_stack(specs, xs, us):
    """Level indices, reconstructions and out-of-range mask of an (m, n, L)
    stack whose specs all take the linear map or all the logarithmic one."""
    g, y = _index_maps(specs)
    idx, bad = _round_indices(xs, g, y, us)
    return idx, y(idx), bad


def _qsgd_levels(x, norm, s, u):
    """qsgd's unbiased rounding of s |x| / norm onto the levels 0..s; u as
    for _round_indices."""
    t = s * np.abs(x) / norm
    m = np.floor(t).astype(np.int64)
    return m + (u < t - m)


def index_bit_lengths(indices) -> np.ndarray:
    """Vectorized codeword length ceil(log2(|n|+1)); exact for |n| < 2**53."""
    mag = np.abs(np.asarray(indices)).astype(np.float64)
    return np.frexp(mag)[1]


def _ceil_log2(n: int) -> int:
    return (int(n) - 1).bit_length()


def _variable_rate_cost(indices):
    """Codec cost of each vector of level indices along the last axis."""
    lengths = index_bit_lengths(indices)
    return codec.BITS_PER_SYMBOL * (lengths.shape[-1] + lengths.sum(axis=-1)).astype(float)


# ---------------------------------------------------------------------------
# the schemes

def quantize(spec: QuantizerSpec, x, rng) -> QuantizedMessage:
    """Quantize an L-vector, accounting the realized bit cost.

    Index schemes (uniform, anq) charge the variable-rate cost of the realized
    level indices. Selection schemes charge the realized emission: the gossip
    message costs L*b_hp only when the vector is actually sent, the sparsifier
    charges (b_hp + ceil(log2 L)) per selected coordinate; the expectations of
    both match the schemes' declared average budgets. A zero-norm qsgd input
    degenerates to an exact zero message costing only the norm word.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise SpecError(f"input shape {x.shape} does not match dim {spec.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizer input must be finite")
    L, k = spec.dim, spec.kind

    if k == "identity":
        return QuantizedMessage(k, L, float(L * spec.b_hp), values=x.copy())

    if k in ("uniform", "anq"):
        n, bad = _round_indices(x, *_index_maps([spec]), rng.random(L))
        if bad:
            raise _index_range(bad)
        return QuantizedMessage(k, L, float(_variable_rate_cost(n)), indices=n)

    if k == "randc":
        coords = rng.permutation(L)[: spec.c]
        values = np.zeros(L)
        values[coords] = (L / spec.c) * x[coords]
        cost = float(spec.c * (spec.b_hp + _ceil_log2(L)))
        return QuantizedMessage(k, L, cost, values=values, coords=np.sort(coords))

    if k == "gossip":
        sent = rng.random() < spec.q
        values = x / spec.q if sent else np.zeros(L)
        return QuantizedMessage(k, L, float(L * spec.b_hp) if sent else 0.0, values=values)

    if k == "sparsifier":
        qs = np.asarray(spec.qs)
        mask = rng.random(L) < qs
        values = np.where(mask, x / qs, 0.0)
        cost = float(mask.sum() * (spec.b_hp + _ceil_log2(L)))
        return QuantizedMessage(k, L, cost, values=values, coords=np.flatnonzero(mask))

    # qsgd
    s = spec.s
    norm = float(np.linalg.norm(x))
    cost = float(spec.b_hp + L * (1 + _ceil_log2(s)))
    if norm == 0.0:
        return QuantizedMessage(
            k, L, float(spec.b_hp), norm=0.0,
            signs=np.zeros(L, dtype=np.int8), levels=np.zeros(L, dtype=np.int64),
        )
    levels = _qsgd_levels(x, norm, s, rng.random(L))
    signs = np.sign(x).astype(np.int8)
    return QuantizedMessage(k, L, cost, norm=norm, signs=signs, levels=levels)


def quantize_batch(spec: QuantizerSpec, xs, us=None):
    """Quantize a stack of vectors with one shared index-scheme spec.

    xs has shape (n, L). For uniform and anq, us must hold the n rows of
    uniform draws, each obtained from that row's own generator via
    rng.random(L) -- exactly what quantize would have consumed -- so the
    result is bit-identical to quantizing row by row. identity takes no
    randomness. Returns (bit_costs (n,), reconstructions (n, L)).

    spec may also be a sequence of m specs of one scheme. xs and us are then
    (m, n, L) stacks, spec j quantizes xs[j] with the draws us[j], and the
    results have shapes (m, n) and (m, n, L), stack j bit-identical to
    quantize_batch(spec[j], xs[j], us[j]); anq specs with omega = 0 take the
    linear map, the others the logarithmic one.

    Only the schemes whose per-row work is pure elementwise arithmetic are
    supported; selection schemes keep the per-vector path. A level index
    beyond the exact range raises IndexRange, whose rows mark the vectors
    concerned.
    """
    one = isinstance(spec, QuantizerSpec)
    specs = [spec] if one else list(spec)
    xs = np.asarray(xs, dtype=float)
    if one:
        xs = xs[None]
        us = None if us is None else np.asarray(us, dtype=float)[None]
    if xs.ndim != 3 or xs.shape[0] != len(specs):
        raise SpecError(f"input shape {xs.shape[one:]} does not fit "
                        f"{len(specs)} spec(s)")
    L = xs.shape[-1]
    for s in specs:
        if L != s.dim:
            raise SpecError(f"row length {L} does not match dim {s.dim}")
    k = specs[0].kind
    if any(s.kind != k for s in specs):
        raise SchemeMismatch("a stack of specs takes one scheme")
    if k not in BATCH_KINDS:
        raise SchemeMismatch(f"no batch path for scheme {k!r}")
    if k == "identity":
        costs = np.array([float(L * s.b_hp) for s in specs])[:, None]
        costs, recon = np.repeat(costs, xs.shape[1], axis=1), xs.copy()
    else:
        us = np.asarray(us, dtype=float)
        if us.shape != xs.shape:
            raise SpecError("need one uniform draw per entry")
        linear = np.array([_is_linear(s) for s in specs])
        if linear.all() or not linear.any():
            idx, recon, bad = _round_stack(specs, xs, us)
        else:
            idx = np.empty(xs.shape, dtype=np.int64)
            recon = np.empty(xs.shape)
            bad = np.empty(xs.shape[:2], dtype=bool)
            for part in (linear, ~linear):
                idx[part], recon[part], bad[part] = _round_stack(
                    [s for s, p in zip(specs, part) if p], xs[part], us[part])
        if bad.any():
            raise _index_range(bad[0] if one else bad)
        costs = _variable_rate_cost(idx)
    return (costs[0], recon[0]) if one else (costs, recon)


def reconstruct(spec: QuantizerSpec, msg: QuantizedMessage) -> np.ndarray:
    """Map a message back to its unbiased estimate of the input."""
    if msg.kind != spec.kind or msg.dim != spec.dim:
        raise SchemeMismatch(f"message {msg.kind}/{msg.dim} vs spec {spec.kind}/{spec.dim}")
    k = spec.kind
    if k in ("uniform", "anq"):
        return _index_maps([spec])[1](msg.indices)
    if k == "qsgd":
        if msg.norm == 0.0:
            return np.zeros(spec.dim)
        return msg.norm * msg.signs * msg.levels / spec.s
    return msg.values.copy()


def noise_budget(spec: QuantizerSpec) -> NoiseBudget:
    """Declared (beta_sq, sigma_sq) error-bound coefficients."""
    L, k = spec.dim, spec.kind
    if k == "identity":
        return NoiseBudget(0.0, 0.0)
    if k == "uniform":
        return NoiseBudget(0.0, L * spec.delta**2 / 4.0)
    if k == "anq":
        return NoiseBudget(2.0 * spec.omega**2, 2.0 * L * spec.eta**2)
    if k == "randc":
        return NoiseBudget(L / spec.c - 1.0, 0.0)
    if k == "gossip":
        return NoiseBudget(1.0 / spec.q - 1.0, 0.0)
    if k == "sparsifier":
        return NoiseBudget(1.0 / min(spec.qs) - 1.0, 0.0)
    return NoiseBudget(min(L / spec.s**2, math.sqrt(L) / spec.s), 0.0)


def coded_stream(msg: QuantizedMessage) -> codec.CodedStream:
    """Materialize the variable-rate symbol stream of an index message."""
    if msg.indices is None:
        raise SchemeMismatch("only index payloads have a symbol stream")
    return codec.encode_sequence(msg.indices.tolist())


# ---------------------------------------------------------------------------
# Monte-Carlo contract machinery

def sample_errors(spec: QuantizerSpec, x, rng, draws: int) -> np.ndarray:
    """(draws, L) matrix of quantization errors x - Q(x), fully vectorized."""
    x = np.asarray(x, dtype=float)
    L, k = spec.dim, spec.kind
    if k == "identity":
        return np.zeros((draws, L))
    if k in ("uniform", "anq"):
        g, y = _index_maps([spec])
        idx, bad = _round_indices(x, g, y, rng.random((draws, L)))
        if bad.any():
            raise _index_range(bad)
        return x - y(idx)
    if k == "randc":
        keys = rng.random((draws, L))
        coords = np.argpartition(keys, spec.c - 1, axis=1)[:, : spec.c]
        recon = np.zeros((draws, L))
        np.put_along_axis(recon, coords, (L / spec.c) * x[coords], axis=1)
        return x - recon
    if k == "gossip":
        sent = rng.random(draws) < spec.q
        return x - sent[:, None] * (x / spec.q)
    if k == "sparsifier":
        qs = np.asarray(spec.qs)
        mask = rng.random((draws, L)) < qs
        return x - mask * (x / qs)
    # qsgd
    s = spec.s
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return np.zeros((draws, L))
    n = _qsgd_levels(x, norm, s, rng.random((draws, L)))
    return x - norm * np.sign(x) * n / s


def empirical_moments(spec: QuantizerSpec, x, rng, draws: int, chunk: int = 20000):
    """Streaming error moments over many draws.

    Returns a dict with componentwise mean error and its standard error, the
    mean squared norm error and its standard error.
    """
    x = np.asarray(x, dtype=float)
    L = spec.dim
    s1 = np.zeros(L)
    s2 = np.zeros(L)
    q1 = 0.0
    q2 = 0.0
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        err = sample_errors(spec, x, rng, b)
        s1 += err.sum(axis=0)
        s2 += (err**2).sum(axis=0)
        nsq = (err**2).sum(axis=1)
        q1 += nsq.sum()
        q2 += (nsq**2).sum()
        done += b
    mean = s1 / draws
    var = np.maximum(s2 / draws - mean**2, 0.0)
    mse = q1 / draws
    mse_var = max(q2 / draws - mse**2, 0.0)
    return {
        "mean_err": mean,
        "se_mean": np.sqrt(var / draws),
        "mse": mse,
        "se_mse": math.sqrt(mse_var / draws),
        "draws": draws,
    }
