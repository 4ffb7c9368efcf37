import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspaceq import codec
from subspaceq import quantizers as qz


def stream(seed=0):
    return np.random.default_rng(seed)


def all_specs(L=5, b_hp=32):
    return [
        qz.identity(L, b_hp),
        qz.uniform(0.2, L, b_hp),
        qz.anq(0.25, 0.05, L, b_hp),
        qz.randc(2, L, b_hp),
        qz.gossip(0.5, L, b_hp),
        qz.sparsifier([0.9, 0.5, 0.25, 1.0, 0.75][:L], L, b_hp),
        qz.qsgd(2, L, b_hp),
    ]


# ---------------------------------------------------------------------------
# declared budgets (frozen values)

def test_budgets_frozen():
    assert qz.noise_budget(qz.identity(7)) == qz.NoiseBudget(0.0, 0.0)
    nb = qz.noise_budget(qz.uniform(0.2, 4))
    assert nb.beta_sq == 0.0 and abs(nb.sigma_sq - 0.04) < 1e-15
    nb = qz.noise_budget(qz.anq(0.25, 0.01, 5))
    assert nb.beta_sq == 0.125 and abs(nb.sigma_sq - 0.001) < 1e-18
    assert qz.noise_budget(qz.randc(2, 6)) == qz.NoiseBudget(2.0, 0.0)
    assert qz.noise_budget(qz.gossip(0.25, 3)) == qz.NoiseBudget(3.0, 0.0)
    assert qz.noise_budget(qz.sparsifier([0.5, 0.25, 1.0], 3)) == qz.NoiseBudget(3.0, 0.0)
    nb = qz.noise_budget(qz.qsgd(2, 5))
    assert nb.beta_sq == math.sqrt(5) / 2 and nb.sigma_sq == 0.0  # min(5/4, sqrt5/2)
    assert qz.noise_budget(qz.qsgd(1, 1)) == qz.NoiseBudget(1.0, 0.0)


def test_spec_validation():
    with pytest.raises(qz.SpecError):
        qz.uniform(0.0, 4)
    with pytest.raises(qz.SpecError):
        qz.anq(0.25, 0.0, 4)
    with pytest.raises(qz.SpecError):
        qz.randc(5, 4)
    with pytest.raises(qz.SpecError):
        qz.gossip(0.0, 4)
    with pytest.raises(qz.SpecError):
        qz.sparsifier([0.5, 0.0], 2)
    with pytest.raises(qz.SpecError):
        qz.qsgd(0, 4)
    with pytest.raises(qz.SpecError):
        qz.QuantizerSpec("other", 4)


NOT_FINITE = ["uniform:delta=inf", "uniform:delta=nan", "anq:omega=0.25,eta=inf",
              "anq:omega=0.25,eta=nan", "anq:omega=inf,eta=0.1",
              "anq:omega=nan,eta=0.1"]
# parameters whose declared budget leaves the float range: x**2 raises
# OverflowError at 1e200, and L * delta**2 / 4 is inf at 1e154
OVERFLOWING = ["uniform:delta=1e200", "uniform:delta=1e154",
               "anq:omega=1e200,eta=0.1", "anq:omega=0.25,eta=1e200",
               "anq:omega=0.25,eta=1e154"]


@pytest.mark.parametrize("text", NOT_FINITE + OVERFLOWING)
def test_spec_rejects_non_finite_or_overflowing_parameters(text):
    name, _, rest = text.partition(":")
    params = dict(item.split("=") for item in rest.split(","))
    with pytest.raises(qz.SpecError):
        qz.parse_spec(text, 5)
    with pytest.raises(qz.SpecError):
        if name == "uniform":
            qz.uniform(float(params["delta"]), 5)
        else:
            qz.anq(float(params["omega"]), float(params["eta"]), 5)


def test_spec_accepts_large_parameters_with_finite_budgets():
    for spec in (qz.uniform(1e150, 5), qz.anq(1e150, 1e150, 5)):
        budget = qz.noise_budget(spec)
        assert math.isfinite(budget.beta_sq) and math.isfinite(budget.sigma_sq)


def test_spec_bounds_every_word_cost_below_max_index():
    # the largest b_hp whose L * b_hp word is below 2**53, and one more
    top = (qz.MAX_INDEX - 1) // 5
    for make in (qz.identity, lambda L, b_hp: qz.uniform(0.1, L, b_hp),
                 lambda L, b_hp: qz.gossip(0.5, L, b_hp)):
        assert make(5, b_hp=top).b_hp == top
        with pytest.raises(qz.SpecError, match=r"2\*\*53"):
            make(5, b_hp=top + 1)
    # before: OverflowError from float(L * b_hp) in the kernel
    with pytest.raises(qz.SpecError):
        qz.parse_spec("uniform:delta=0.1", 5, b_hp=10**310)
    # at L = 1 the qsgd message, b_hp + 1 + ceil(log2 s), is the longest word
    qz.qsgd(2, 1, b_hp=qz.MAX_INDEX - 3)
    with pytest.raises(qz.SpecError):
        qz.qsgd(2, 1, b_hp=qz.MAX_INDEX - 2)
    # before: np.floor(t).astype(np.int64) wrapped and broke unbiasedness
    assert qz.qsgd(qz.MAX_INDEX - 1, 5).s == qz.MAX_INDEX - 1
    for s in (qz.MAX_INDEX, 10**300):
        with pytest.raises(qz.SpecError, match="qsgd"):
            qz.parse_spec(f"qsgd:s={s}", 5)


# ---------------------------------------------------------------------------
# selection-string grammar

def test_parse_spec_grammar():
    assert qz.parse_spec("identity", 4).kind == "identity"
    s = qz.parse_spec("uniform:delta=0.2", 4)
    assert (s.kind, s.delta) == ("uniform", 0.2)
    s = qz.parse_spec("anq:omega=0.25,eta=0.01", 5)
    assert (s.omega, s.eta) == (0.25, 0.01)
    assert qz.parse_spec("randc:c=3", 5).c == 3
    assert qz.parse_spec("gossip:q=0.5", 5).q == 0.5
    s = qz.parse_spec("sparsifier:q=0.5,0.25,1.0", 3)
    assert s.qs == (0.5, 0.25, 1.0)
    assert qz.parse_spec("sparsifier:q=0.5", 4).qs == (0.5,) * 4
    assert qz.parse_spec("qsgd:s=2", 5).s == 2


def test_parse_spec_roundtrip():
    for spec in all_specs():
        again = qz.parse_spec(qz.spec_string(spec), spec.dim, spec.b_hp)
        assert again == spec


def test_parse_spec_rejects_garbage():
    for text in ["foo", "uniform", "uniform:delta=x", "anq:omega=0.2",
                 "randc:c=", "identity:delta=1", "sparsifier:p=0.5"]:
        with pytest.raises(qz.SpecError):
            qz.parse_spec(text, 4)


# strings that :g already printed exactly keep their bytes
@pytest.mark.parametrize("text", [
    "identity", "uniform:delta=0.02", "uniform:delta=1e-05", "gossip:q=1",
    "gossip:q=0.5", "anq:omega=0.25,eta=0.1", "anq:omega=0,eta=2.5e+20",
    "randc:c=2", "sparsifier:q=0.5,0.25,1", "qsgd:s=4", "qsgd:s=9007199254740991"])
def test_spec_string_keeps_the_bytes_of_exact_short_strings(text):
    assert qz.spec_string(qz.parse_spec(text, 3)) == text


def test_parse_spec_takes_parameters_in_any_order_and_with_spaces():
    assert qz.parse_spec(" anq: eta = 0.1 , omega=0.25 ", 5) == qz.anq(0.25, 0.1, 5)
    assert qz.parse_spec("sparsifier:q= 0.5, 0.25 ,1", 3).qs == (0.5, 0.25, 1.0)


@pytest.mark.parametrize("text, message", [
    ("foo", "unknown scheme"),
    ("Uniform:delta=0.1", "unknown scheme"),
    ("uniform:delta=0.1,foo=2", "uniform takes no parameter 'foo'"),
    ("identity:delta=1", "identity takes no parameter 'delta'"),
    ("sparsifier:qs=0.5", "sparsifier takes no parameter 'qs'"),
    ("uniform:delta=0.1,", "uniform takes no parameter ''"),
    ("anq:omega=0.25,eta=0.01,eta=5", "repeated parameter 'eta'"),
    ("anq:eta=0.01,omega=0.25,omega=0.25", "repeated parameter 'omega'"),
    ("randc:c=2,c=2", "repeated parameter 'c'"),
    ("anq:omega=0.25", "missing parameter 'eta'"),
    ("uniform", "missing parameter 'delta'"),
    ("sparsifier", "missing parameter 'q'"),
    ("uniform:delta=", "empty parameter 'delta'"),
    ("qsgd:s= ", "empty parameter 's'"),
    ("sparsifier:q=", "empty parameter 'q'"),
    ("anq:omega,eta=0.1", "empty parameter 'omega'"),
    ("sparsifier:q=0.5,,1", "cannot parse"),
    ("randc:c=2.0", "cannot parse"),
])
def test_parse_spec_rejects_what_the_grammar_does_not_name(text, message):
    # before: the unknown and repeated cases parsed, the last value winning
    with pytest.raises(qz.SpecError, match=re.escape(message)):
        qz.parse_spec(text, 3)


# spec_string before it printed exact floats: every float as :g
G_FORM = {
    "identity": lambda s: "identity",
    "uniform": lambda s: f"uniform:delta={s.delta:g}",
    "anq": lambda s: f"anq:omega={s.omega:g},eta={s.eta:g}",
    "randc": lambda s: f"randc:c={s.c}",
    "gossip": lambda s: f"gossip:q={s.q:g}",
    "sparsifier": lambda s: "sparsifier:q=" + ",".join(f"{v:g}" for v in s.qs),
    "qsgd": lambda s: f"qsgd:s={s.s}",
}
# (0, 1] down to the smallest subnormal, and positive floats whose budgets
# stay finite (L delta**2 / 4 and 2 L eta**2 at L <= 6)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
POSITIVE = st.floats(min_value=5e-324, max_value=1e150)


@st.composite
def valid_specs(draw):
    dim, b_hp = draw(st.integers(1, 6)), draw(st.integers(1, 64))
    kind = draw(st.sampled_from(qz.KINDS))
    if kind == "uniform":
        return qz.uniform(draw(POSITIVE), dim, b_hp)
    if kind == "anq":
        return qz.anq(draw(st.floats(0.0, 1e150)), draw(POSITIVE), dim, b_hp)
    if kind == "randc":
        return qz.randc(draw(st.integers(1, dim)), dim, b_hp)
    if kind == "gossip":
        return qz.gossip(draw(UNIT), dim, b_hp)
    if kind == "sparsifier":
        return qz.sparsifier(draw(st.lists(UNIT, min_size=dim, max_size=dim)),
                             dim, b_hp)
    if kind == "qsgd":
        return qz.qsgd(draw(st.integers(1, qz.MAX_INDEX - 1)), dim, b_hp)
    return qz.identity(dim, b_hp)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(valid_specs())
def test_spec_string_round_trips_every_valid_spec(spec):
    # before: every float printed as :g, which keeps 6 digits
    text = qz.spec_string(spec)
    assert qz.parse_spec(text, spec.dim, spec.b_hp) == spec
    short = G_FORM[spec.kind](spec)
    if qz.parse_spec(short, spec.dim, spec.b_hp) == spec:
        assert text == short


def test_spec_string_prints_a_float_that_g_truncates_in_full():
    spec = qz.anq(0.25, 0.003 / math.sqrt(10.0), 5)
    assert qz.spec_string(spec) == "anq:omega=0.25,eta=0.0009486832980505137"
    assert qz.spec_string(qz.uniform(1 / 3, 2)) == "uniform:delta=0.3333333333333333"


# ---------------------------------------------------------------------------
# payloads and bit accounting

def test_identity_message():
    x = np.array([1.0, -2.0, 0.5])
    msg = qz.quantize(qz.identity(3), x, stream())
    assert np.array_equal(msg.values, x)
    assert msg.bit_cost == 3 * 32
    assert np.array_equal(qz.reconstruct(qz.identity(3), msg), x)


def test_uniform_zero_input_costs_only_parse_symbols():
    msg = qz.quantize(qz.uniform(0.2, 4), np.zeros(4), stream())
    assert np.array_equal(msg.indices, np.zeros(4, dtype=np.int64))
    assert msg.bit_cost == math.log2(3) * 4


def test_uniform_reconstruct_levels():
    spec = qz.uniform(0.5, 3)
    msg = qz.QuantizedMessage("uniform", 3, 0.0, indices=np.array([3, -1, 0]))
    assert np.allclose(qz.reconstruct(spec, msg), [1.5, -0.5, 0.0])


def test_anq_reconstruct_zero_index():
    spec = qz.anq(0.25, 0.01, 2)
    msg = qz.QuantizedMessage("anq", 2, 0.0, indices=np.zeros(2, dtype=np.int64))
    assert np.array_equal(qz.reconstruct(spec, msg), np.zeros(2))


def test_randc_full_selection_is_lossless():
    x = np.arange(1.0, 6.0)
    spec = qz.randc(5, 5)
    msg = qz.quantize(spec, x, stream())
    assert np.array_equal(msg.values, x)
    assert msg.bit_cost == 5 * (32 + 3)


def test_gossip_realized_cost():
    spec = qz.gossip(0.5, 4)
    rng = stream(3)
    costs, values = [], []
    for _ in range(200):
        msg = qz.quantize(spec, np.ones(4), rng)
        costs.append(msg.bit_cost)
        values.append(msg.values[0])
    costs = np.array(costs)
    assert set(costs.tolist()) == {0.0, 4 * 32.0}
    # average realized cost approaches q * L * b_hp
    assert abs(costs.mean() - 0.5 * 4 * 32) < 15
    assert set(np.round(values, 12).tolist()) == {0.0, 2.0}


def test_sparsifier_cost_and_scaling():
    spec = qz.sparsifier([1.0, 1.0, 1.0], 3)
    msg = qz.quantize(spec, np.array([1.0, 2.0, 3.0]), stream())
    assert np.array_equal(msg.values, [1.0, 2.0, 3.0])  # q_j = 1 keeps everything
    assert msg.bit_cost == 3 * (32 + 2)


def test_qsgd_cost_is_42_bits():
    spec = qz.qsgd(2, 5)
    msg = qz.quantize(spec, np.ones(5), stream())
    assert msg.bit_cost == 32 + 5 + 5 * 1  # 42
    assert msg.levels.max() <= 2 and msg.levels.min() >= 0


def test_qsgd_zero_norm_degenerates():
    spec = qz.qsgd(2, 5)
    msg = qz.quantize(spec, np.zeros(5), stream())
    assert msg.bit_cost == 32
    assert np.array_equal(qz.reconstruct(spec, msg), np.zeros(5))


def test_scheme_mismatch():
    msg = qz.quantize(qz.uniform(0.2, 3), np.ones(3), stream())
    with pytest.raises(qz.SchemeMismatch):
        qz.reconstruct(qz.anq(0.1, 0.1, 3), msg)
    with pytest.raises(qz.SchemeMismatch):
        qz.reconstruct(qz.uniform(0.2, 4), msg)


def test_variable_rate_cost_matches_codec_exactly():
    rng = stream(11)
    for spec in (qz.uniform(0.05, 6), qz.anq(0.3, 0.02, 6)):
        for _ in range(20):
            x = rng.standard_normal(6) * 3
            msg = qz.quantize(spec, x, rng)
            s = qz.coded_stream(msg)
            assert msg.bit_cost == s.bit_cost
            assert codec.decode_sequence(s) == msg.indices.tolist()


def test_index_bit_lengths_agree_with_codec():
    ns = np.array([0, 1, -1, 2, -3, 4, 7, -8, 255, -256, 2**40])
    got = qz.index_bit_lengths(ns)
    want = [codec.partition_index(int(n)) for n in ns]
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# rounding behavior

def test_grid_points_round_deterministically():
    rng = stream(5)
    d = 0.3
    spec = qz.uniform(d, 1)
    for m in [-4, -1, 0, 2, 7]:
        x = np.array([d * m])
        for _ in range(40):
            msg = qz.quantize(spec, x, rng)
            assert msg.indices[0] == m
    w, e = 0.4, 0.05
    spec = qz.anq(w, e, 1)
    for m in [-3, 0, 1, 5]:
        x = qz.compander_inverse(np.array([m]), w, e)
        for _ in range(40):
            msg = qz.quantize(spec, x, rng)
            assert msg.indices[0] == m


def test_randomized_round_frequency():
    # step 1, input 0.25: lower level kept with probability 0.75
    rng = stream(2)
    draws = 10**5
    hits = sum(qz.randomized_round(0.25, lambda t: t, lambda t: float(t), rng) == 0
               for _ in range(draws))
    p = hits / draws
    se = math.sqrt(0.75 * 0.25 / draws)
    assert abs(p - 0.75) < 3 * se


def test_randomized_round_unbiased_scalar():
    rng = stream(8)
    g = lambda t: t / 0.7
    h = lambda t: 0.7 * t
    draws = 10**5
    vals = np.array([0.7 * qz.randomized_round(0.33, g, h, rng) for _ in range(draws)])
    se = vals.std() / math.sqrt(draws)
    assert abs(vals.mean() - 0.33) < 4 * se


def test_degenerate_cell_raises():
    with pytest.raises(qz.DegenerateCell):
        qz.randomized_round(0.5, lambda t: t, lambda t: 0.0, stream())


def test_quantize_matches_scalar_round_on_dim_one():
    d = 0.4
    spec = qz.uniform(d, 1)
    for seed in range(10):
        a, b = stream(seed), stream(seed)
        msg = qz.quantize(spec, np.array([0.93]), a)
        n = qz.randomized_round(0.93, lambda t: t / d, lambda t: d * t, b)
        assert msg.indices[0] == n


# ---------------------------------------------------------------------------
# statistical contracts (quick versions; the full suite runs in acceptance)

def test_unbiasedness_and_variance_bound_quick():
    rng = stream(21)
    draws = 20000
    for spec in all_specs():
        nb = qz.noise_budget(spec)
        for x in (rng.standard_normal(spec.dim), 3 * rng.standard_normal(spec.dim)):
            mom = qz.empirical_moments(spec, x, stream(17), draws)
            assert np.all(np.abs(mom["mean_err"]) <= 4 * mom["se_mean"] + 1e-12), spec.kind
            bound = nb.beta_sq * float(x @ x) + nb.sigma_sq
            assert mom["mse"] <= bound + 4 * mom["se_mse"] + 1e-12, spec.kind


def test_anq_tight_bound_quick():
    rng = stream(33)
    for omega, eta in [(0.1, 0.02), (0.5, 0.1)]:
        spec = qz.anq(omega, eta, 4)
        x = rng.standard_normal(4)
        mom = qz.empirical_moments(spec, x, stream(9), 20000)
        tight = (omega * np.linalg.norm(x) + math.sqrt(4) * eta) ** 2
        assert mom["mse"] <= tight + 4 * mom["se_mse"]


def test_mc_mean_reconstruction_roundtrip():
    rng = stream(41)
    for spec in all_specs():
        x = rng.standard_normal(spec.dim)
        mom = qz.empirical_moments(spec, x, stream(13), 20000)
        assert np.all(np.abs(mom["mean_err"]) <= 4 * mom["se_mean"] + 1e-12)


def test_moments_of_errors_without_spread(monkeypatch):
    # every draw rounds x down to 0, so each error equals x: the standard
    # error is exactly 0, not the cancellation noise of s2 / n - mean^2
    spec = qz.anq(1e10, 0.1, 5)
    x = np.array([-0.05860464, -0.07625285, 0.299279, -0.81500751, 1.01070346])
    monkeypatch.setattr(qz, "MOMENT_CHUNK_ROWS", 300)
    mom = qz.empirical_moments(spec, x, stream(3), 1000)
    assert np.allclose(mom["mean_err"], x, rtol=1e-14, atol=0)
    assert np.array_equal(mom["se_mean"], np.zeros(5))
    # a spread survives the shift: one input, two chunk sizes, same moments
    spec = qz.uniform(0.2, 3)
    x = np.array([0.05, -0.31, 0.77])
    monkeypatch.setattr(qz, "MOMENT_CHUNK_ROWS", 20000)
    one = qz.empirical_moments(spec, x, stream(4), 5000)
    monkeypatch.setattr(qz, "MOMENT_CHUNK_ROWS", 999)
    two = qz.empirical_moments(spec, x, stream(4), 5000)
    assert np.all(one["se_mean"] > 0)
    assert np.allclose(one["se_mean"], two["se_mean"], rtol=1e-12, atol=0)
    errs = qz.sample_errors(spec, x, stream(4), 5000)
    assert np.allclose(one["se_mean"], errs.std(axis=0) / np.sqrt(5000), rtol=1e-12, atol=0)


@pytest.mark.parametrize("dim, rows", [(1, 20000), (5, 20000), (64, 20000),
                                       (65, 19692), (500, 2560),
                                       (2 * 10**6, 1)])
def test_moment_chunks_hold_a_bounded_number_of_floats(monkeypatch, dim, rows):
    # every dim up to 64 keeps 20,000-row chunks, so its draws and moments
    # stay as they were; longer vectors take fewer rows per chunk
    seen = []
    monkeypatch.setattr(qz, "sample_errors",
                        lambda spec, x, rng, b: seen.append(b) or np.ones((b, dim)))
    qz.empirical_moments(qz.uniform(0.2, dim), np.zeros(dim), stream(0), 2 * rows + 1)
    assert seen == [rows, rows, 1]


def test_moments_at_dim_500_peak_below_100_mb():
    # before: one 20,000-row chunk of errors at dim 500, and its squares,
    # peaked at 420 MB
    spec = qz.uniform(0.2, 500)
    x = np.linspace(-1.0, 2.0, 500)
    tracemalloc.start()
    try:
        qz.empirical_moments(spec, x, stream(8), 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


@pytest.mark.parametrize("make", [qz.qsgd, qz.randc, qz.gossip, qz.sparsifier])
def test_moments_stay_finite_and_exact_at_every_scale(make, monkeypatch):
    # before: at 2**531 (about 1e160) mse was inf and se_mean NaN; from
    # 2**266 se_mse was NaN, and at 2**-531 it underflowed to 0
    spec = make({"qsgd": 4, "randc": 2}.get(make.__name__, 0.5), 5)
    x = np.linspace(-1.0, 2.0, 5)
    monkeypatch.setattr(qz, "MOMENT_CHUNK_ROWS", 1000)
    ref = qz.empirical_moments(spec, x, stream(6), 3000)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    for k in (-1070, -1000, -531, -266, 266, 531, 1000):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # 2**2000 overflows
            got = qz.empirical_moments(spec, np.ldexp(x, k), stream(6), 3000)
            want = {key: np.ldexp(ref[key], p * k) for key, p in
                    (("mean_err", 1), ("se_mean", 1), ("mse", 2), ("se_mse", 2))}
        assert np.all(np.isfinite(got["mean_err"])), k
        assert np.all(np.isfinite(got["se_mean"])), k
        if np.isfinite(want["mse"]):
            assert np.isfinite(got["mse"]) and np.isfinite(got["se_mse"]), k
        for key, value in want.items():
            normal = (np.abs(value) >= tiny) & (np.abs(value) <= huge)
            np.testing.assert_allclose(np.asarray(got[key])[normal],
                                       np.asarray(value)[normal], rtol=1e-12,
                                       err_msg=f"{key} at 2**{k}")


def test_small_omega_limit_recovers_uniform_levels():
    # same index distribution as the uniform scheme with step 2*eta
    delta = 0.2
    x = np.array([0.07, -0.33, 0.51, 1.04, -0.88])
    draws = 10**5
    specs = [qz.uniform(delta, 5), qz.anq(1e-8, delta / 2, 5)]
    dists = []
    for spec, seed in zip(specs, (1, 2)):
        err = qz.sample_errors(spec, x, stream(seed), draws)
        if spec.kind == "uniform":
            n = np.rint((x - err) / delta).astype(int)
        else:
            n = np.rint(qz.compander_forward(x - err, spec.omega, spec.eta)).astype(int)
        dists.append(n)
    for j in range(5):
        a, b = dists[0][:, j], dists[1][:, j]
        lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
        pa = np.bincount(a - lo, minlength=hi - lo + 1) / draws
        pb = np.bincount(b - lo, minlength=hi - lo + 1) / draws
        tv = 0.5 * np.abs(pa - pb).sum()
        assert tv < 0.01


def test_payload_determinism_under_shared_stream_state():
    for spec in all_specs():
        x = np.linspace(-1.2, 2.3, spec.dim)
        m1 = qz.quantize(spec, x, stream(99))
        m2 = qz.quantize(spec, x, stream(99))
        assert m1.bit_cost == m2.bit_cost
        for f in ("indices", "values", "coords", "signs", "levels"):
            a, b = getattr(m1, f), getattr(m2, f)
            assert (a is None and b is None) or np.array_equal(a, b)
        assert np.array_equal(qz.reconstruct(spec, m1), qz.reconstruct(spec, m2))


def test_rejects_bad_input():
    with pytest.raises(qz.SpecError):
        qz.quantize(qz.identity(3), np.ones(4), stream())
    with pytest.raises(ValueError):
        qz.quantize(qz.uniform(0.1, 2), np.array([np.nan, 0.0]), stream())


@pytest.mark.parametrize("spec", all_specs(3), ids=lambda s: s.kind)
def test_sample_errors_checks_input_like_quantize(spec):
    with pytest.raises(qz.SpecError, match="does not match dim"):
        qz.sample_errors(spec, np.ones(4), stream(), 2)
    with pytest.raises(ValueError, match="finite"):
        qz.sample_errors(spec, np.array([1.0, np.nan, 0.0]), stream(), 2)
    with pytest.raises(ValueError, match="finite"):
        qz.sample_errors(spec, np.array([np.inf, 0.0, 0.0]), stream(), 2)
    assert qz.sample_errors(spec, np.ones(3), stream(), 2).shape == (2, 3)


class Canned:
    """A generator stand-in that serves one row of uniforms: random(m) its
    first m entries, random() its first."""

    def __init__(self, row):
        self.row = row

    def random(self, m=None):
        return self.row[0] if m is None else self.row[:m].copy()


def test_batch_matches_per_vector_path():
    # same uniform draws in, same indices and costs out, row by row
    rng = np.random.default_rng(61)
    for make in (lambda: qz.uniform(0.07, 5), lambda: qz.anq(0.4, 0.02, 5),
                 lambda: qz.anq(0.0, 0.05, 5), lambda: qz.identity(5),
                 lambda: qz.gossip(0.4, 5),
                 lambda: qz.sparsifier([0.9, 0.5, 0.25, 1.0, 0.05], 5),
                 lambda: qz.qsgd(3, 5), lambda: qz.qsgd(1, 5, b_hp=16)):
        spec = make()
        xs = rng.normal(0, 0.5, (12, 5))
        xs[4] = 0.0                       # qsgd's zero-norm message
        us = rng.random((12, 5))
        if spec.kind == "identity":
            costs, recon = qz.quantize_batch(spec, xs)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                costs, recon = qz.quantize_batch(spec, xs, us)
        for r in range(12):
            msg = qz.quantize(spec, xs[r], Canned(us[r]))
            assert costs[r] == msg.bit_cost
            assert np.array_equal(recon[r], qz.reconstruct(spec, msg))
        assert costs.shape == (12,) and recon.shape == xs.shape
        if spec.kind == "qsgd":
            assert costs[4] == spec.b_hp and not recon[4].any()


def test_qsgd_row_norm_matches_the_per_vector_norm():
    # every row's norm is the scalar np.linalg.norm(x) of the per-vector
    # reference, and the batch's costs and reconstructions equal quantize's
    # bit for bit, over inputs spanning 16 decades, on contiguous and on
    # gathered (strided) rows
    rng = np.random.default_rng(73)
    for L in (1, 2, 5, 17, 64):
        spec = qz.qsgd(4, L)
        xs = rng.standard_normal((800, L)) * 10.0 ** rng.uniform(-8, 8, (800, 1))
        us = rng.random(xs.shape)
        for rows in (slice(None), slice(None, None, 3)):
            costs, recon = qz.quantize_batch(spec, xs[rows], us[rows])
            for got_cost, got, x, u in zip(costs, recon, xs[rows], us[rows]):
                msg = qz.quantize(spec, x, Canned(u))
                assert msg.norm == np.linalg.norm(x)
                assert got_cost == msg.bit_cost
                assert np.array_equal(got, qz.reconstruct(spec, msg))


@pytest.mark.parametrize("decade", [160, 200, 300, -160, -200, -300])
def test_qsgd_stays_unbiased_where_the_square_sum_leaves_float_range(decade):
    # ||x||^2 overflows to inf above 10^154 and underflows below 10^-154;
    # before, the first reconstructed NaN and the second sent the zero
    # message while sample_errors reported no error at all
    spec = qz.qsgd(4, 5)
    v = np.array([0.3, -1.2, 0.05, 2.0, -0.7])
    x = v * 10.0 ** decade
    scale = np.linalg.norm(v) * 10.0 ** decade
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        msg = qz.quantize(spec, x, stream(1))
        costs, recon = qz.quantize_batch(spec, np.stack([x, -x]),
                                         stream(2).random((2, 5)))
        errors = qz.sample_errors(spec, x, stream(3), 20000) / scale
    assert msg.norm / scale == pytest.approx(1.0, rel=1e-15)
    assert 0 <= msg.levels.min() and msg.levels.max() <= spec.s
    assert np.isfinite(qz.reconstruct(spec, msg)).all()
    assert np.isfinite(recon).all() and np.all(costs == 32 + 5 * 3)
    se = errors.std(axis=0) / math.sqrt(errors.shape[0])
    assert np.all(np.abs(errors.mean(axis=0)) <= 4 * se)
    assert np.abs(errors).max() > 0.01      # not the zero-error degenerate case


def test_batch_of_spec_stacks_matches_each_spec():
    # one call over an (m, n, L) stack, spec j on stack j, with per-spec
    # parameter columns; anq mixes omega = 0 (linear) and omega > 0 stacks
    rng = np.random.default_rng(67)
    anqs = [qz.anq(w, e, 5) for w in (0.0, 0.1, 0.25, 1.0, 4.0)
            for e in (0.005, 0.02, 0.1, 0.5)]
    uniforms = [qz.uniform(d, 5) for d in (0.003, 0.07, 1.0)]
    identities = [qz.identity(5), qz.identity(5, b_hp=16)]
    gossips = [qz.gossip(q, 5) for q in (0.1, 0.5, 1.0)]
    sparsifiers = [qz.sparsifier([0.9, 0.5, 0.25, 1.0, 0.75], 5),
                   qz.sparsifier(0.3, 5, b_hp=8)]
    qsgds = [qz.qsgd(s, 5, b_hp=b) for s, b in ((1, 32), (4, 16), (16, 32))]
    for specs in (anqs, uniforms, identities, gossips, sparsifiers, qsgds):
        scale = rng.uniform(0.01, 10.0, (len(specs), 7, 1))
        xs = rng.normal(0, 0.5, (len(specs), 7, 5)) * scale
        us = rng.random(xs.shape)
        costs, recon = qz.quantize_batch(specs, xs, us)
        assert costs.shape == (len(specs), 7) and recon.shape == xs.shape
        for j, spec in enumerate(specs):
            want = qz.quantize_batch(spec, xs[j], us[j])
            assert np.array_equal(costs[j], want[0])
            assert np.array_equal(recon[j], want[1])


def test_batch_of_spec_stacks_names_out_of_range_vectors():
    # the omega = 0 stack has cells of width 2e-20
    specs = [qz.anq(0.25, 0.1, 2), qz.anq(0.0, 1e-20, 2), qz.anq(0.0, 0.1, 2)]
    xs = np.full((3, 4, 2), 0.5)
    xs[1, :2] = 0.0      # zero sits in the exact range at any cell width
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qz.IndexRange) as exc:
            qz.quantize_batch(specs, xs, np.full(xs.shape, 0.5))
    assert exc.value.rows.tolist() == [[False] * 4, [False, False, True, True],
                                       [False] * 4]
    with pytest.raises(qz.SchemeMismatch):
        qz.quantize_batch([qz.uniform(0.1, 2), qz.identity(2)], xs[:2], xs[:2])
    with pytest.raises(qz.SpecError):
        qz.quantize_batch(specs, xs[:2], xs[:2])


def test_batch_of_per_row_specs_matches_each_spec():
    # an (R, L) stack with one spec per row: spec j quantizes row j
    rng = np.random.default_rng(71)
    groups = [[qz.anq(w, e, 4) for w in (0.0, 0.5, 2.0) for e in (0.01, 0.1)],
              [qz.uniform(d, 4) for d in (0.01, 0.3)],
              [qz.gossip(q, 4) for q in (0.2, 0.9)],
              [qz.sparsifier(q, 4) for q in (0.1, 0.6)],
              [qz.qsgd(s, 4) for s in (2, 8)],
              [qz.identity(4, b_hp=b) for b in (8, 32)]]
    for group in groups:
        specs = group * 3
        xs = rng.normal(0, 1.0, (len(specs), 4))
        xs[1] = 0.0
        us = rng.random(xs.shape)
        costs, recon = qz.quantize_batch(specs, xs, us)
        assert costs.shape == (len(specs),) and recon.shape == xs.shape
        for j, spec in enumerate(specs):
            want = qz.quantize_batch(spec, xs[j:j + 1], us[j:j + 1])
            assert costs[j] == want[0][0]
            assert np.array_equal(recon[j], want[1][0])
    with pytest.raises(qz.IndexRange) as exc:
        qz.quantize_batch([qz.uniform(1.0, 2), qz.uniform(1e-20, 2)],
                          np.ones((2, 2)), np.full((2, 2), 0.5))
    assert exc.value.rows.tolist() == [False, True]


def test_batch_rejects_unsupported_schemes_and_shapes():
    with pytest.raises(qz.SchemeMismatch):
        qz.quantize_batch(qz.randc(2, 3), np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(qz.SpecError):
        qz.quantize_batch(qz.uniform(0.1, 3), np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(qz.SpecError):
        qz.quantize_batch(qz.uniform(0.1, 3), np.zeros((2, 3)), np.zeros((2, 2)))


def test_level_zero_reconstructs_to_positive_zero():
    # x / delta may round to -0.0, whose floor is the level -0.0; the kernel
    # still reconstructs +0.0 there, as reconstruct does from the message
    spec = qz.uniform(10.0, 3)
    x = np.array([-0.0, -5e-324, 0.0])
    want = qz.reconstruct(spec, qz.quantize(spec, x, stream()))
    _, recon = qz.quantize_batch(spec, x[None], np.full((1, 3), 0.5))
    assert not np.signbit(want).any()
    assert recon[0].tobytes() == want.tobytes()


def test_cell_below_float_spacing_raises_index_range():
    # with delta = 1e-20, x = 6.106e-5 has a level index under 2**53, yet
    # the float spacing at x (1.4e-20) exceeds the cell: the cell's edges
    # round to one value. That is a cell too fine for the input, not a
    # DegenerateCell that escapes on_divergence="flag".
    spec = qz.uniform(1e-20, 1)
    m = np.floor(6.106e-5 / 1e-20)
    assert m < qz.MAX_INDEX and 1e-20 * (m + 1.0) == 1e-20 * m
    with pytest.raises(qz.IndexRange) as exc:
        qz.quantize_batch(spec, [[1e-25], [6.106e-5], [0.0]],
                          np.full((3, 1), 0.5))
    assert exc.value.rows.tolist() == [False, True, False]
    with pytest.raises(qz.IndexRange):
        qz.quantize(spec, [6.106e-5], stream())


def test_index_beyond_exact_range_raises_named_error():
    # a cell far too fine for the input: the level index would pass 2**53,
    # where index_bit_lengths stops being exact, long before the int64 cast
    spec = qz.uniform(1e-8, 2)
    xs = np.array([[1e12, -3.0], [0.5, 0.25]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qz.IndexRange):
            qz.quantize(spec, xs[0], stream())
        with pytest.raises(qz.IndexRange):
            qz.quantize_batch(spec, xs, np.full(xs.shape, 0.5))
        with pytest.raises(qz.IndexRange):
            qz.sample_errors(spec, xs[0], stream(), 4)
        # the last representable cell still quantizes exactly
        edge = qz.uniform(1.0, 1)
        top = float(qz.MAX_INDEX - 2)
        msg = qz.quantize(edge, [top], stream())
        assert msg.indices[0] == qz.MAX_INDEX - 2
        assert qz.index_bit_lengths(msg.indices)[0] == 53
        with pytest.raises(qz.IndexRange):
            qz.quantize(edge, [top + 1.0], stream())
        low = qz.quantize(edge, [-top - 1.0], stream())
        assert low.indices[0] == -(qz.MAX_INDEX - 1)
        with pytest.raises(qz.IndexRange):
            qz.quantize(edge, [-top - 2.0], stream())
        # the batch path holds the same edges, with the same exact cost
        exact = codec.sequence_bit_cost([qz.MAX_INDEX - 2])
        assert msg.bit_cost == low.bit_cost == exact
        for x in (top, -top - 1.0):
            costs, recon = qz.quantize_batch(edge, [[x]], [[0.5]])
            assert costs[0] == exact and recon[0, 0] == x
        for x in (top + 1.0, -top - 2.0):
            with pytest.raises(qz.IndexRange) as exc:
                qz.quantize_batch(edge, [[0.5], [x]], [[0.5], [0.5]])
            assert exc.value.rows.tolist() == [False, True]
    # levels are floats inside the kernel, int64 in the message
    assert msg.indices.dtype == low.indices.dtype == np.int64
    anq_msg = qz.quantize(qz.anq(0.25, 0.05, 3), [0.3, -0.2, 0.0], stream())
    assert anq_msg.indices.dtype == np.int64
