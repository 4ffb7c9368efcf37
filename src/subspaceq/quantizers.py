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

# level indices stay below this magnitude, where float64 holds every integer
# and index_bit_lengths is exact
MAX_INDEX = 2**53
_TINY = np.finfo(float).tiny


class SpecError(ValueError):
    """Invalid quantizer parameters or selection string."""


class DegenerateCell(ValueError):
    """Randomized rounding hit a zero-width quantization cell."""


class IndexRange(ValueError):
    """A level index would reach MAX_INDEX in magnitude, or a cell is below
    the float spacing of its value: a cell far too fine for the input, beyond
    exact index and bit-cost arithmetic. ``rows`` marks the input vectors
    concerned (shape of the input without its last axis), when known."""

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
        k = self.kind
        if k not in _GRAMMAR:
            raise SpecError(f"unknown scheme {k!r}")
        if self.dim < 1:
            raise SpecError("dim must be >= 1")
        if self.b_hp < 1:
            raise SpecError("b_hp must be >= 1")
        # b_hp + ceil(log2 L), a selected coordinate's word, is at most L b_hp
        word = self.dim * self.b_hp
        if k == "uniform":
            if not (self.delta is not None and self.delta > 0):
                raise SpecError("uniform needs delta > 0")
            _check_finite_budget(self)
        elif k == "anq":
            if self.omega is None or self.omega < 0:
                raise SpecError("anq needs omega >= 0")
            if not (self.eta is not None and self.eta > 0):
                raise SpecError("anq needs eta > 0")
            _check_finite_budget(self)
        elif k == "randc":
            if not (self.c is not None and 1 <= self.c <= self.dim):
                raise SpecError("randc needs 1 <= c <= dim")
        elif k == "gossip":
            if not (self.q is not None and 0 < self.q <= 1):
                raise SpecError("gossip needs 0 < q <= 1")
        elif k == "sparsifier":
            if not self.qs or len(self.qs) != self.dim:
                raise SpecError("sparsifier needs one probability per coordinate")
            if not all(0 < qj <= 1 for qj in self.qs):
                raise SpecError("sparsifier needs 0 < q_j <= 1")
        elif k == "qsgd":
            if not (self.s is not None and 1 <= self.s < MAX_INDEX):
                raise SpecError("qsgd needs integer 1 <= s < 2**53")
            word = max(word, self.b_hp + self.dim * (1 + _ceil_log2(self.s)))
        if word >= MAX_INDEX:
            raise SpecError(f"b_hp = {self.b_hp} charges words of 2**53 bits or "
                            "more, beyond exact float arithmetic")


def _check_finite_budget(spec):
    """SpecError unless an index spec's parameters and its declared noise
    budget are finite; an infinite cell width reconstructs to NaN."""
    params = (spec.delta,) if spec.kind == "uniform" else (spec.omega, spec.eta)
    try:
        budget = noise_budget(spec)
        finite = all(map(math.isfinite, params + (budget.beta_sq, budget.sigma_sq)))
    except OverflowError:
        finite = False
    if not finite:
        raise SpecError(f"{spec_string(spec)} needs finite parameters and a "
                        "finite noise budget")


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
    qs = tuple(np.atleast_1d(np.asarray(qs, dtype=float)).tolist())
    if len(qs) == 1:
        qs = qs * dim
    return QuantizerSpec("sparsifier", dim, b_hp, qs=qs)


def qsgd(s, dim, b_hp=32):
    return QuantizerSpec("qsgd", dim, b_hp, s=int(s))


# the selection-string grammar: scheme -> its constructor and parameter keys,
# in argument order; a key names a QuantizerSpec field, but sparsifier's q is qs
_GRAMMAR = {"identity": (identity, ()), "uniform": (uniform, ("delta",)),
            "anq": (anq, ("omega", "eta")), "randc": (randc, ("c",)),
            "gossip": (gossip, ("q",)), "sparsifier": (sparsifier, ("q",)),
            "qsgd": (qsgd, ("s",))}
KINDS = tuple(_GRAMMAR)


def parse_spec(text, dim, b_hp=32) -> QuantizerSpec:
    """Parse "<scheme>" or "<scheme>:<key>=<value>,...", which names each of
    the scheme's _GRAMMAR keys once, in any order, and nothing else; the
    values convert through the scheme's constructor."""
    name, _, rest = text.strip().partition(":")
    try:
        make, keys = _GRAMMAR[name]
    except KeyError:
        raise SpecError(f"unknown scheme in {text!r}") from None
    args = [None] * len(keys)
    # sparsifier's one value is a comma list
    for item in ([rest] if name == "sparsifier" else rest.split(",")) if rest else ():
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise SpecError(f"{name} takes no parameter {key!r}: {text!r}")
        i = keys.index(key)
        if args[i] is not None:
            raise SpecError(f"repeated parameter {key!r}: {text!r}")
        args[i] = value = value.strip()
        if not value:
            raise SpecError(f"empty parameter {key!r}: {text!r}")
    if None in args:
        raise SpecError(f"missing parameter {keys[args.index(None)]!r}: {text!r}")
    args += dim, b_hp
    try:
        if name == "sparsifier":
            args[0] = [float(v) for v in args[0].split(",")]
        return make(*args)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"cannot parse {text!r}: {exc}") from None


def _number(v) -> str:
    """An int as it is; a float as :g where that reads back exactly, else repr."""
    if not isinstance(v, float):
        return str(v)
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def spec_string(spec: QuantizerSpec) -> str:
    """The string parse_spec reads back to spec; for manifests and headers."""
    k, keys = spec.kind, _GRAMMAR[spec.kind][1]
    values = ([",".join(map(_number, spec.qs))] if k == "sparsifier" else
              [_number(getattr(spec, key)) for key in keys])
    pairs = ",".join(f"{key}={value}" for key, value in zip(keys, values))
    return f"{k}:{pairs}" if pairs else k


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
    return _index_maps([anq(omega, eta, 1)])[0](np.asarray(t, dtype=float))


def compander_inverse(t, omega, eta):
    """Expansion map, exact inverse of compander_forward."""
    return _index_maps([anq(omega, eta, 1)])[1](np.asarray(t, dtype=float))


def _floor_levels(t):
    """floor(t) as float level indices, and a mask of the vectors (along the
    last axis) in which floor(t) or floor(t) + 1 would reach MAX_INDEX in
    magnitude. Those vectors' levels are zeroed, so that the rest of a stack
    still rounds exactly; every other level is an integer float64 holds
    exactly, as are its neighbors."""
    m = np.floor(t)
    m += 0.0        # -0.0 to +0.0, which the level 0 maps to
    inside = (m > -MAX_INDEX) & (m < MAX_INDEX - 1)
    if inside.all():
        return m, np.zeros(m.shape[:-1], dtype=bool)
    return np.where(inside, m, 0.0), ~inside.all(axis=-1)


def _index_range(bad):
    return IndexRange(f"{int(np.sum(bad))} vector(s) need a level index beyond "
                      f"the exact range (|n| < 2**53)", rows=bad)


def _is_linear(spec):
    """uniform, or anq with omega = 0, whose compander t / (2 eta) is the
    uniform map with delta = 2 eta."""
    return spec.kind == "uniform" or spec.omega == 0.0


def _column(values, shape=(1, 1)):
    """One spec's parameter as it is; m specs' as an (m,) + shape array that
    meets stack j of an (m, k, L) input (shape (1,) meets per-row costs)."""
    if len(values) == 1:
        return values[0]
    return np.array(values).reshape((len(values),) + shape)


def _index_maps(specs):
    """Forward map g and level-to-value map y of uniform or anq specs; level
    n stands for the value y(n), and g(x) lies in [m, m + 1) for the cell
    [y(m), y(m + 1)) that holds x.

    The specs must all be linear (_is_linear) or all logarithmic. m specs
    map an (m, k, L) stack, spec j stack j, through parameter _column's;
    every element goes through its own spec's operations in the same order,
    so the results equal those of the single-spec maps bit for bit."""
    if _is_linear(specs[0]):
        d = _column([s.delta if s.kind == "uniform" else 2.0 * s.eta for s in specs])
        return (lambda t: t / d), (lambda m: d * m)
    ratio = _column([s.omega / s.eta for s in specs])
    scale = _column([2.0 * math.asinh(s.omega) for s in specs])
    spread = _column([s.eta / s.omega for s in specs])
    half = _column([math.asinh(s.omega) for s in specs])

    # the compander and its inverse, with columns for parameters
    def g(t):
        return np.sign(t) * np.log1p(ratio * np.abs(t)) / scale

    def y(m):
        m = np.asarray(m, dtype=float)
        return np.sign(m) * spread * np.expm1(2.0 * np.abs(m) * half)
    return g, y


def _index_rows(specs):
    """(x, u) -> (level indices as floats, reconstructions, mask of the
    vectors out of the exact range or in a zero-width cell): two-point
    rounding of x on the uniforms u through the maps of uniform or anq
    specs. u is shaped like x, or stacks such rows, one rounding of x per
    row. A stack that mixes linear and logarithmic specs rounds each part
    through its maps."""
    linear = np.array([_is_linear(s) for s in specs])
    if linear.all() or not linear.any():
        g, y = _index_maps(specs)

        def rows(x, u):
            m, bad = _floor_levels(g(x))
            y0, y1 = y(m), y(m + 1.0)
            width = y1 - y0
            flat = width <= 0
            if flat.any():  # a cell below the float spacing of its value
                bad = bad | flat.any(axis=-1)
                width = np.where(flat, np.inf, width)
            p = x - y0
            p /= width
            up = u < np.minimum(np.maximum(p, 0.0, out=p), 1.0, out=p)
            return m + up, np.where(up, y1, y0), bad
        return rows
    parts = [(part, _index_rows([s for s, p in zip(specs, part) if p]))
             for part in (linear, ~linear)]

    def mixed(xs, us):
        idx = np.empty(xs.shape)
        recon = np.empty(xs.shape)
        bad = np.empty(xs.shape[:-1], dtype=bool)
        for part, rows in parts:
            idx[part], recon[part], bad[part] = rows(xs[part], us[part])
        return idx, recon, bad
    return mixed


def _kernel(specs):
    """The row kernel of specs of one scheme but randc, parameters built
    once: (xs, us) -> (per-row bit costs, reconstructions, payload parts).

    One spec quantizes every row of xs, m specs an (m, k, L) stack, spec j
    on stack j. us are the uniforms quantize consumes, shaped like xs or
    stacking rows against one x; gossip reads us[..., 0], identity none.
    parts are the level indices (as floats), sent flags, selection mask or
    (norm, signs, levels). An index beyond the exact range raises
    IndexRange."""
    k, L = specs[0].kind, specs[0].dim
    if any((s.kind, s.dim) != (k, L) for s in specs):
        raise SchemeMismatch("a stack of specs takes one scheme and dim")
    if k == "randc":
        raise SchemeMismatch("no batch path for scheme 'randc'")
    words = _column([float(L * s.b_hp) for s in specs], (1,))

    if k == "identity":
        return lambda xs, us: (np.zeros(xs.shape[:-1]) + words, xs.copy(), None)

    if k in ("uniform", "anq"):
        index_rows = _index_rows(specs)

        def rounded(xs, us):
            idx, recon, bad = index_rows(xs, us)
            if bad.any():
                raise _index_range(bad)
            return _variable_rate_cost(idx), recon, idx
        return rounded

    if k == "gossip":
        q = _column([s.q for s in specs])

        def gossiped(xs, us):
            sent = us[..., :1] < q
            return (np.where(sent[..., 0], words, 0.0),
                    np.where(sent, xs / q, 0.0), sent[..., 0])
        return gossiped

    if k == "sparsifier":
        qs = _column([np.asarray(s.qs) for s in specs], (1, L))
        per = _column([s.b_hp + _ceil_log2(L) for s in specs], (1,))

        def sparsified(xs, us):
            mask = us < qs
            return ((mask.sum(axis=-1) * per).astype(float),
                    np.where(mask, xs / qs, 0.0), mask)
        return sparsified

    # qsgd; a zero-norm row reconstructs to 0 and costs only the norm word
    s = _column([sp.s for sp in specs])
    norm_word = _column([float(sp.b_hp) for sp in specs], (1,))
    full = _column([float(sp.b_hp + L * (1 + _ceil_log2(sp.s))) for sp in specs],
                   (1,))

    def leveled(xs, us):
        norm = _norms(xs)
        zero = norm == 0.0
        # unbiased rounding of s |x| / norm onto the levels 0..s
        t = s * np.abs(xs) / np.where(zero, 1.0, norm)[..., None]
        levels = np.floor(t).astype(np.int64)
        levels = levels + (us < t - levels)
        signs = np.sign(xs).astype(np.int8)
        recon = norm[..., None] * signs * levels / s
        return np.where(zero, norm_word, full), recon, (norm, signs, levels)
    return leveled


def _norms(xs):
    """Euclidean norms along the last axis: np.sqrt(np.vecdot(x, x)) where
    the square sum is a normal float, else the norm of x / max|x| scaled
    back, so that no finite vector overflows to inf or underflows to 0."""
    rows = xs.reshape(-1, xs.shape[-1])
    with np.errstate(over="ignore"):
        sq = np.vecdot(rows, rows)
    norm = np.sqrt(sq)
    odd = ~((sq >= _TINY) & (sq < np.inf))
    if odd.any():
        big = np.abs(rows[odd]).max(axis=1)
        scaled = rows[odd] / np.where(big > 0.0, big, 1.0)[:, None]
        norm[odd] = big * np.sqrt(np.vecdot(scaled, scaled))
    return norm.reshape(xs.shape[:-1])


class _SpecRows(tuple):
    """Specs of one scheme for quantize_batch that keep their row kernel, so
    that repeated calls build the parameter columns once."""

    def __new__(cls, specs):
        rows = super().__new__(cls, specs)
        rows.kernel = _kernel(rows)
        return rows


def index_bit_lengths(indices) -> np.ndarray:
    """Vectorized codeword length ceil(log2(|n|+1)); exact for |n| < 2**53."""
    mag = np.abs(np.asarray(indices)).astype(np.float64, copy=False)
    return np.frexp(mag)[1]


def _ceil_log2(n: int) -> int:
    return (int(n) - 1).bit_length()


def _randc_cost(spec):
    """The bits of every randc message: c words with their positions."""
    return float(spec.c * (spec.b_hp + _ceil_log2(spec.dim)))


def _variable_rate_cost(indices):
    """Codec cost of each vector of level indices (integers or integer
    floats) along the last axis."""
    lengths = index_bit_lengths(indices)
    return codec.BITS_PER_SYMBOL * (lengths.shape[-1] + lengths.sum(axis=-1))


# ---------------------------------------------------------------------------
# the schemes

def _checked(spec, x):
    """x as a float L-vector, or SpecError / ValueError as quantize raises."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise SpecError(f"input shape {x.shape} does not match dim {spec.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("quantizer input must be finite")
    return x


def quantize(spec: QuantizerSpec, x, rng) -> QuantizedMessage:
    """Quantize an L-vector, accounting the realized bit cost.

    Index schemes (uniform, anq) charge the variable-rate cost of the realized
    level indices. Selection schemes charge the realized emission: the gossip
    message costs L*b_hp only when the vector is actually sent, the sparsifier
    charges (b_hp + ceil(log2 L)) per selected coordinate; the expectations of
    both match the schemes' declared average budgets. A zero-norm qsgd input
    degenerates to an exact zero message costing only the norm word.

    Every scheme but randc is the one-row call of the quantize_batch kernel,
    on rng.random() for gossip and rng.random(L) for the rest.
    """
    x = _checked(spec, x)
    L, k = spec.dim, spec.kind

    if k == "randc":
        coords = rng.permutation(L)[: spec.c]
        values = np.zeros(L)
        values[coords] = (L / spec.c) * x[coords]
        return QuantizedMessage(k, L, _randc_cost(spec), values=values,
                                coords=np.sort(coords))

    if k == "qsgd" and not x.any():     # draws nothing
        return QuantizedMessage(
            k, L, float(spec.b_hp), norm=0.0,
            signs=np.zeros(L, dtype=np.int8), levels=np.zeros(L, dtype=np.int64),
        )
    us = np.array([rng.random()]) if k == "gossip" else (
        None if k == "identity" else rng.random(L))
    cost, recon, parts = _kernel([spec])(x, us)
    cost = float(cost)
    if k in ("uniform", "anq"):
        return QuantizedMessage(k, L, cost, indices=parts.astype(np.int64))
    if k == "sparsifier":
        return QuantizedMessage(k, L, cost, values=recon, coords=np.flatnonzero(parts))
    if k == "qsgd":
        return QuantizedMessage(k, L, cost, norm=float(parts[0]), signs=parts[1],
                                levels=parts[2])
    return QuantizedMessage(k, L, cost, values=recon)


def quantize_batch(spec: QuantizerSpec, xs, us=None):
    """Quantize a stack of vectors with any scheme but randc, whose
    per-vector permutation has no batch form (SchemeMismatch).

    xs has shape (n, L). us must hold the n rows of uniform draws, each from
    that row's own generator via rng.random(L) -- what quantize consumes;
    gossip reads only the first column, as rng.random() equals
    rng.random(L)[0] -- so the result is bit-identical to quantizing row by
    row. identity takes no draws. Returns (bit_costs (n,), recons (n, L)).

    spec may also be a sequence of m specs of one scheme, spec j quantizing
    xs[j] with us[j], where xs is an (m, L) stack of rows or an (m, n, L)
    stack of stacks; results are shaped like xs without and with its last
    axis. A level index beyond the exact range raises IndexRange, whose
    rows mark the vectors concerned.
    """
    one = isinstance(spec, QuantizerSpec)
    specs = spec if isinstance(spec, _SpecRows) else _SpecRows([spec] if one else spec)
    xs = np.asarray(xs, dtype=float)
    shape = xs.shape
    if not (xs.ndim == 2 if one else
            xs.ndim in (2, 3) and shape[0] == len(specs)):
        raise SpecError(f"input shape {shape} does not fit {len(specs)} spec(s)")
    if shape[-1] != specs[0].dim:
        raise SpecError(f"row length {shape[-1]} does not match dim {specs[0].dim}")
    stack = (len(specs), -1, shape[-1])
    if specs[0].kind != "identity":
        if np.shape(us) != shape:
            raise SpecError("need one uniform draw per entry")
        us = np.asarray(us, dtype=float).reshape(stack)
    try:
        costs, recon, _ = specs.kernel(xs.reshape(stack), us)
    except IndexRange as exc:
        raise _index_range(exc.rows.reshape(shape[:-1])) from None
    return costs.reshape(shape[:-1]), recon.reshape(shape)


def reconstruct(spec: QuantizerSpec, msg: QuantizedMessage) -> np.ndarray:
    """Map a message back to its unbiased estimate of the input."""
    if msg.kind != spec.kind or msg.dim != spec.dim:
        raise SchemeMismatch(f"message {msg.kind}/{msg.dim} vs spec {spec.kind}/{spec.dim}")
    k = spec.kind
    if k in ("uniform", "anq"):
        return _index_maps([spec])[1](msg.indices)
    if k == "qsgd":
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
    """(draws, L) matrix of quantization errors x - Q(x), fully vectorized:
    every scheme but randc runs its quantize kernel on draws rows of
    uniforms against x."""
    x = _checked(spec, x)
    L, k = spec.dim, spec.kind
    if k == "randc":
        keys = rng.random((draws, L))
        coords = np.argpartition(keys, spec.c - 1, axis=1)[:, : spec.c]
        recon = np.zeros((draws, L))
        np.put_along_axis(recon, coords, (L / spec.c) * x[coords], axis=1)
        return x - recon
    if k == "identity" or (k == "qsgd" and not x.any()):
        return np.zeros((draws, L))
    us = rng.random((draws, 1 if k == "gossip" else L))
    return x - _kernel([spec])(x, us)[1]


# empirical_moments draws at most MOMENT_CHUNK_ROWS rows of errors at a time,
# fewer for long vectors, so that one chunk holds at most
# MOMENT_CHUNK_ROWS * MOMENT_CHUNK_DIM floats (10 MB); every dim up to
# MOMENT_CHUNK_DIM takes the full row count
MOMENT_CHUNK_ROWS = 20_000
MOMENT_CHUNK_DIM = 64


def empirical_moments(spec: QuantizerSpec, x, rng, draws: int):
    """Streaming error moments over many draws.

    Returns a dict with componentwise mean error and its standard error, the
    mean squared norm error and its standard error. The sums run on errors
    scaled by a power of two, so that no square over- or underflows.
    """
    if draws < 1:
        raise ValueError(f"need draws >= 1, got {draws}")
    x = np.asarray(x, dtype=float)
    L = spec.dim
    chunk = max(1, min(MOMENT_CHUNK_ROWS,
                       MOMENT_CHUNK_ROWS * MOMENT_CHUNK_DIM // L))
    s1 = np.zeros(L)
    d1 = np.zeros(L)
    d2 = np.zeros(L)
    shift = None
    q1 = 0.0
    q2 = 0.0
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        err = sample_errors(spec, x, rng, b)
        if shift is None:
            k = int(np.frexp(np.abs(err).max())[1])
            shift = np.ldexp(err[0], -k)
        err = np.ldexp(err, -k)
        s1 += err.sum(axis=0)
        # variance about the first draw: no cancellation when the errors
        # barely spread, and exactly 0 when every draw gives the same error
        dev = err - shift
        d1 += dev.sum(axis=0)
        d2 += (dev**2).sum(axis=0)
        nsq = (err**2).sum(axis=1)
        q1 += nsq.sum()
        q2 += (nsq**2).sum()
        done += b
    var = np.maximum(d2 / draws - (d1 / draws)**2, 0.0)
    mse = q1 / draws
    mse_var = max(q2 / draws - mse**2, 0.0)
    return {
        "mean_err": np.ldexp(s1 / draws, k),
        "se_mean": np.ldexp(np.sqrt(var / draws), k),
        "mse": np.ldexp(mse, 2 * k),
        "se_mse": float(np.ldexp(math.sqrt(mse_var / draws), 2 * k)),
        "draws": draws,
    }
