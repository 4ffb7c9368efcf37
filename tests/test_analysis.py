"""Tests for spectral analysis and rate-distortion sweeps."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from subspaceq import analysis, cli, codec, graphs, learning, quantizers
from subspaceq.analysis import SpectralReport
from subspaceq.graphs import CombinationMatrix
from subspaceq.learning import RunConfig


def small_world(n, lattice_m, shortcut_q, seed):
    rng = np.random.default_rng(seed)
    edges = set()
    for k in range(n):
        for d in range(1, lattice_m + 1):
            edges.add(tuple(sorted((k, (k + d) % n))))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < shortcut_q:
                edges.add((i, j))
    return graphs.build_topology(n, [(i + 1, j + 1) for i, j in edges], seed=0)


# ---------------------------------------------------------------------------
# spectral_report

def test_projector_report_is_trivial():
    n, l = 6, 2
    basis = graphs.subspace_consensus(n, l)
    top = graphs.build_topology(n, 1.0, seed=1)
    comb = CombinationMatrix.from_dense(graphs.projector(basis), top,
                                        (l,) * n)
    rep = analysis.spectral_report(comb, basis)
    assert rep.rho_j == pytest.approx(0.0, abs=1e-12)
    assert rep.rho_i_minus_j == pytest.approx(1.0, abs=1e-12)
    assert rep.v1 == pytest.approx(1.0, abs=1e-10)
    assert rep.v2 == pytest.approx(1.0, abs=1e-10)


def test_single_agent_report_is_an_empty_complement():
    # P = M: no minor block, so both radii are 0 and the bound is 1; before,
    # gamma_bound divided by rho_{I-J}^2 = 0
    basis = graphs.subspace_consensus(1, 3)
    comb = graphs.build_combination(graphs.build_topology(1, 1.0), basis,
                                    mode="consensus-metropolis")
    rep = analysis.spectral_report(comb, basis)
    assert rep == SpectralReport(rho_j=0.0, rho_i_minus_j=0.0, v1=1.0, v2=1.0)
    for beta_sq in (0.0, 0.125, 200.0):
        assert analysis.gamma_bound(rep, beta_sq) == 1.0


def test_metropolis_block_matches_scalar_eigensolve():
    # rho_j of W (x) I must equal the second-largest |eigenvalue| of W itself
    n, l = 8, 3
    top = graphs.build_topology(n, 0.45, seed=21)
    w = graphs.metropolis_weights(top)
    basis = graphs.subspace_consensus(n, l)
    comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
    rep = analysis.spectral_report(comb, basis)
    eig = np.sort(np.abs(np.linalg.eigvalsh(w)))
    assert rep.rho_j == pytest.approx(eig[-2], abs=1e-10)
    assert rep.v1 == pytest.approx(1.0, abs=1e-8)
    assert rep.v2 == pytest.approx(1.0, abs=1e-8)


def test_symmetric_constrained_build_has_orthonormal_basis():
    top = small_world(10, 3, 0.2, seed=13)
    basis = graphs.subspace_smooth(top, 2, 2, weight=0.1)
    comb = graphs.build_combination(top, basis)
    assert np.allclose(comb.a, comb.a.T, atol=1e-9)
    rep = analysis.spectral_report(comb, basis)
    assert rep.rho_j < 1.0
    assert rep.v1 == pytest.approx(1.0, abs=1e-8)
    assert rep.v2 == pytest.approx(1.0, abs=1e-8)


def test_rho_matches_direct_spectral_radius():
    top = small_world(10, 3, 0.2, seed=29)
    basis = graphs.subspace_smooth(top, 3, 2, weight=0.1)
    comb = graphs.build_combination(top, basis)
    rep = analysis.spectral_report(comb, basis)
    direct = graphs.spectral_radius(comb.a - graphs.projector(basis))
    assert rep.rho_j == pytest.approx(direct, abs=1e-9)


def test_defective_minor_block_raises():
    # P_U + Q B Q^T with B a Jordan block is a valid combination matrix but
    # has no well-conditioned eigenbasis
    n, l = 3, 1
    basis = graphs.subspace_consensus(n, l)
    u = basis.u
    q = np.linalg.svd(u, full_matrices=True)[0][:, 1:]
    b = np.array([[0.5, 1.0], [0.0, 0.5]])
    a = graphs.projector(basis) + q @ b @ q.T
    top = graphs.build_topology(n, 1.0, seed=2)
    comb = CombinationMatrix.from_dense(a, top, (l,) * n)
    assert graphs.spectral_radius(a - graphs.projector(basis)) < 1
    with pytest.raises(analysis.DefectiveMatrix, match="condition number"):
        analysis.spectral_report(comb, basis)


def eigenbasis_report(comb, basis):
    """Oracle: eigenvalues and eigenvectors of J (eigh when J is symmetric,
    eig otherwise) and the SVD of the assembled eigenbasis V = [U | Q S]."""
    a, reduced = graphs.reduced_problem(comb, basis)
    u = reduced.u
    q = np.linalg.svd(u, full_matrices=True)[0][:, u.shape[1]:]
    j = q.T @ a @ q
    if np.allclose(j, j.T, rtol=0.0, atol=1e-12):
        lam, s = np.linalg.eigh(j)
        lam = lam.astype(complex)
    else:
        lam, s = np.linalg.eig(j)
        if np.iscomplexobj(s) and np.allclose(s.imag, 0.0):
            s = s.real
    sv = np.linalg.svd(np.hstack([u, q @ s]), compute_uv=False)
    return SpectralReport(rho_j=float(np.max(np.abs(lam))),
                          rho_i_minus_j=float(np.max(np.abs(1.0 - lam))),
                          v1=float(1.0 / sv[-1]), v2=float(sv[0]))


def symmetric_networks():
    for n, l, conn, seed in [(5, 2, 1.0, 0), (12, 3, 0.4, 6), (200, 5, 0.05, 7)]:
        top = graphs.build_topology(n, conn, seed=seed)
        basis = graphs.subspace_consensus(n, l)
        yield top, basis, graphs.build_combination(top, basis, mode="consensus-metropolis")
    top = small_world(10, 3, 0.2, seed=13)
    basis = graphs.subspace_smooth(top, 2, 2, weight=0.1)
    yield top, basis, graphs.build_combination(top, basis)


def test_symmetric_report_skips_the_eigenbasis(monkeypatch):
    for top, basis, comb in symmetric_networks():
        oracle = eigenbasis_report(comb, basis)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", None)      # no eigenvector solve
            rep = analysis.spectral_report(comb, basis)
        assert rep.v1 == 1.0 and rep.v2 == 1.0
        assert abs(oracle.v1 - 1.0) <= 1e-12 and abs(oracle.v2 - 1.0) <= 1e-12
        assert abs(rep.rho_j - oracle.rho_j) <= 1e-12
        assert abs(rep.rho_i_minus_j - oracle.rho_i_minus_j) <= 1e-12


def test_nonsymmetric_report_is_the_eigenbasis_route_bitwise():
    # P_U + Q M Q^T with M diagonalizable but far from symmetric
    n, l = 4, 1
    basis = graphs.subspace_consensus(n, l)
    q = np.linalg.svd(basis.u, full_matrices=True)[0][:, 1:]
    mix = np.array([[0.5, 0.3, 0.1], [0.0, -0.2, 0.4], [0.0, 0.0, 0.1]])
    a = graphs.projector(basis) + q @ mix @ q.T
    comb = CombinationMatrix.from_dense(a, graphs.build_topology(n, 1.0, seed=0),
                                        (l,) * n)
    rep = analysis.spectral_report(comb, basis)
    assert rep == eigenbasis_report(comb, basis)
    assert rep.v1 != 1.0


def recording(monkeypatch, calls):
    """Append the name of every eigensolver call to calls: numpy's by its
    bare name, scipy's as "scipy.<name>"."""
    solvers = [(np.linalg, name, name) for name in ("eigh", "eig", "eigvalsh", "eigvals")]
    solvers += [(scipy.linalg, name, f"scipy.{name}") for name in ("eigh", "eig")]
    for module, name, label in solvers:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _fn=fn, _label=label, **kw:
                            calls.append(_label) or _fn(*args, **kw))


def test_validation_solver_follows_exact_symmetry(monkeypatch):
    eigvals = np.linalg.eigvals
    lsq_top = small_world(10, 3, 0.2, seed=29)
    lsq_basis = graphs.subspace_smooth(lsq_top, 3, 2, weight=0.1)
    lsq = graphs.build_combination(lsq_top, lsq_basis)
    minor = lsq.a - graphs.projector(lsq_basis)
    assert not np.array_equal(minor, minor.T)
    calls = []
    recording(monkeypatch, calls)
    rho = graphs.validate_combination(lsq.a, lsq_top, lsq_basis)["rho"]
    assert calls == ["eigvals"]
    assert rho == float(np.max(np.abs(eigvals(minor))))

    for top, basis, comb in symmetric_networks():
        if not comb.factored:
            continue
        w, scalar = graphs.reduced_problem(comb, basis)
        calls.clear()
        rho = graphs.validate_combination(w, top, scalar)["rho"]
        assert calls == ["eigvalsh"]
        assert abs(rho - float(np.max(np.abs(eigvals(w - scalar.u @ scalar.u.T))))) <= 1e-12


def ring(n):
    return graphs.build_topology(n, [(k, k % n + 1) for k in range(1, n + 1)])


CONSENSUS_NETWORKS = {
    "complete": graphs.build_topology(6, 1.0, seed=0),      # J = 0
    "pair": graphs.build_topology(2, [(1, 2)]),
    "ring": ring(40),                                       # rho_j near 1
    "sparse": graphs.build_topology(60, 0.1, seed=4),
}


@pytest.mark.parametrize("name", CONSENSUS_NETWORKS)
def test_kept_spectrum_report_matches_the_complement_path(name):
    top = CONSENSUS_NETWORKS[name]
    l = 2
    basis = graphs.subspace_consensus(top.n, l)
    comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
    kept = analysis.spectral_report(comb, basis)
    complement = analysis.spectral_report(
        CombinationMatrix.from_dense(comb.a, top, comb.block_dims), basis)
    for key, value in vars(complement).items():
        assert abs(getattr(kept, key) - value) <= 1e-12, key
    assert kept.v1 == kept.v2 == 1.0
    if name == "ring":
        assert kept.rho_j > 0.99

    # rho is validation's number on W, bit for bit
    w, scalar = graphs.reduced_problem(comb, basis)
    checks = graphs.validate_combination(w, top, scalar)
    assert kept.rho_j == comb.minor_spectrum.rho == checks["rho"]
    assert comb.minor_spectrum.residual == checks["residual"]


CONSENSUS_INI = Path(__file__).resolve().parent.parent / "configs" / "msd_scaling.ini"


@pytest.mark.parametrize("connectivity", ["1.0", "0.3"])
def test_a_consensus_set_up_solves_one_eigenproblem(tmp_path, monkeypatch,
                                                    capsys, connectivity):
    path = tmp_path / "consensus.ini"
    path.write_text(CONSENSUS_INI.read_text().replace(
        "connectivity = 1.0", f"connectivity = {connectivity}"))
    exp = cli.load_config(str(path))
    calls = []
    recording(monkeypatch, calls)
    top, basis, comb, models = cli.build_setup(exp)
    analysis.gamma_bound(analysis.spectral_report(comb, basis), 1.0)
    assert calls == ["eigvalsh"]

    calls.clear()
    assert cli.cmd_verify(exp) == 0
    assert calls == ["eigvalsh"]
    assert "PASS complement contraction" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_combination_matrix_is_named(bad):
    # before: numpy's LinAlgError from the eigensolver, and with inf a
    # RuntimeWarning from the complement product Q^T A Q
    n = 6
    top = graphs.build_topology(n, 0.5, seed=3)
    basis = graphs.subspace_consensus(n, 1)
    comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
    w = comb.matrix
    w[2, 2] = bad
    match = r"entry \(2, 2\) is (nan|inf), not finite"
    with pytest.raises(graphs.InfeasibleConstraints, match=match):
        graphs.validate_combination(w, top, basis)
    weights = comb.weights.copy()
    weights[2, np.flatnonzero(comb.index[2] == 2)[0]] = bad
    factored = CombinationMatrix(top, comb.block_dims, comb.index, weights)
    dense = CombinationMatrix.from_dense(w, top, comb.block_dims)
    for kept_or_complement in (factored, dense):
        with pytest.raises(graphs.InfeasibleConstraints, match=match):
            analysis.spectral_report(kept_or_complement, basis)


def test_minor_contraction_controls_gamma_damped_spectrum():
    # sanity of the stability argument: |(1-g) + g*lam| <= 1 - g(1 - rho(J))
    # for every minor eigenvalue lam and every mixing parameter on a grid
    top = small_world(10, 3, 0.2, seed=31)
    basis = graphs.subspace_smooth(top, 2, 3, weight=0.1)
    comb = graphs.build_combination(top, basis)
    u = basis.u
    q = np.linalg.svd(u, full_matrices=True)[0][:, u.shape[1]:]
    lam = np.linalg.eigvals(q.T @ comb.a @ q)
    rho = np.max(np.abs(lam))
    for g in np.arange(0.1, 1.01, 0.1):
        lhs = np.max(np.abs((1.0 - g) + g * lam))
        assert lhs <= 1.0 - g * (1.0 - rho) + 1e-12


# ---------------------------------------------------------------------------
# gamma_bound

def test_gamma_bound_frozen_arithmetic():
    rep = SpectralReport(rho_j=0.5, rho_i_minus_j=0.5, v1=1.0, v2=1.0)
    assert analysis.gamma_bound(rep, 1.0) == pytest.approx(0.5 / (4 * 0.25))
    assert analysis.gamma_bound(rep, 1.0) == pytest.approx(0.5)


def test_gamma_bound_clips_and_validates():
    rep = SpectralReport(rho_j=0.9, rho_i_minus_j=1.9, v1=2.0, v2=3.0)
    assert analysis.gamma_bound(rep, 0.0) == 1.0
    tiny = analysis.gamma_bound(rep, 1e-9)
    assert tiny == 1.0  # huge raw bound, clipped
    with pytest.raises(ValueError):
        analysis.gamma_bound(rep, -0.1)


def test_spectral_report_holds_exactly_its_four_quantities():
    names = [f.name for f in dataclasses.fields(SpectralReport)]
    assert names == ["rho_j", "rho_i_minus_j", "v1", "v2"]


@pytest.mark.parametrize("rho_j, rho_i_minus_j", [(1.0, 0.0), (2.0, 1.0),
                                                  (float("nan"), 0.5)])
@pytest.mark.parametrize("beta_sq", [0.0, 1.0])
def test_gamma_bound_needs_a_contracting_minor_block(rho_j, rho_i_minus_j,
                                                     beta_sq):
    # before: ZeroDivisionError at rho_j = 1, rho_{I-J} = 0, and a negative
    # "bound" of -0.5 at rho_j = 2
    rep = SpectralReport(rho_j, rho_i_minus_j, 1.0, 1.0)
    with pytest.raises(graphs.SpectralViolation, match="rho_j"):
        analysis.gamma_bound(rep, beta_sq)


def test_gamma_bound_on_the_identity_raises_spectral_violation():
    n = 4
    basis = graphs.subspace_consensus(n, 1)
    top = graphs.build_topology(n, 1.0, seed=0)
    rep = analysis.spectral_report(
        CombinationMatrix.from_dense(np.eye(n), top, (1,) * n), basis)
    assert rep.rho_j == 1.0 and rep.rho_i_minus_j == 0.0
    with pytest.raises(graphs.SpectralViolation):
        analysis.gamma_bound(rep, 0.5)


_NAN = float("nan")
_PATH4 = graphs.build_topology(4, [(1, 2), (2, 3), (3, 4)])


@pytest.mark.parametrize("call", [
    lambda: analysis.gamma_bound(SpectralReport(0.5, 0.5, 1.0, 1.0), _NAN),
    lambda: analysis.rate_upper_bound(0.5, 0.02, _NAN, 5),
    lambda: graphs.laplacian(_PATH4, _NAN),
    lambda: graphs.laplacian(_PATH4, math.inf),
    lambda: graphs.smooth_signal(graphs.laplacian(_PATH4, 0.1), tau=_NAN, seed=0),
    lambda: graphs.smooth_signal(graphs.laplacian(_PATH4, 0.1), tau=math.inf, seed=0),
], ids=["gamma_bound-beta", "rate_bound-chi_ms", "laplacian-nan",
        "laplacian-inf", "smooth_signal-tau-nan", "smooth_signal-tau-inf"])
def test_non_finite_arguments_are_rejected(call):
    # a NaN fails every comparison, so it must not slip past a "< 0" guard
    # into a clipped bound or a NaN matrix
    with pytest.raises(ValueError):
        call()


def test_gamma_bound_monotone_in_noise_coefficient():
    rep = SpectralReport(rho_j=0.6, rho_i_minus_j=1.4, v1=1.2, v2=1.1)
    grid = [analysis.gamma_bound(rep, b) for b in np.linspace(0.0, 4.0, 25)]
    assert all(a >= b for a, b in zip(grid, grid[1:]))


def test_gamma_bound_on_projector_network_admits_large_mixing():
    # rho_j = 0 networks keep the full (0, 1] range for moderate noise
    n, l = 10, 2
    basis = graphs.subspace_consensus(n, l)
    top = graphs.build_topology(n, 1.0, seed=3)
    comb = CombinationMatrix.from_dense(graphs.projector(basis), top,
                                        (l,) * n)
    rep = analysis.spectral_report(comb, basis)
    beta_sq = quantizers.noise_budget(quantizers.anq(0.25, 0.01, l)).beta_sq
    assert analysis.gamma_bound(rep, beta_sq) == 1.0


# ---------------------------------------------------------------------------
# rate_upper_bound

def test_rate_bound_at_zero_input_energy():
    for m_k in (1, 5, 64):
        expect = 3.0 * codec.BITS_PER_SYMBOL * m_k
        assert analysis.rate_upper_bound(0.25, 0.01, 0.0, m_k) == pytest.approx(expect)


def test_rate_bound_monotone_in_input_energy():
    vals = [analysis.rate_upper_bound(0.5, 0.02, c, 5)
            for c in np.linspace(0.0, 10.0, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rate_bound_validates_parameters():
    with pytest.raises(ValueError):
        analysis.rate_upper_bound(0.0, 0.01, 1.0, 5)
    with pytest.raises(ValueError):
        analysis.rate_upper_bound(0.5, 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        analysis.rate_upper_bound(0.5, 0.01, -1.0, 5)


def test_measured_steady_rate_below_bound():
    # simulator output against the closed form, per agent
    n, l = 6, 2
    top = graphs.build_topology(n, 1.0, seed=7)
    basis = graphs.subspace_smooth(top, 2, l, weight=0.1)
    comb = graphs.build_combination(top, basis)
    rng = np.random.default_rng(11)
    models = [learning.DataModel(rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.2),
                                 rng.normal(0.4, 1.0, l)) for _ in range(n)]
    omega, mu = 0.25, 0.01
    eta = mu / np.sqrt(2 * l)
    cfg = RunConfig(mu=mu, gamma=0.9, iterations=1500, runs=2,
                    quantizer=quantizers.anq(omega, eta, l), seed=17)
    res = learning.run(cfg, models, basis, comb)
    for k in range(n):
        chi_ms = learning.steady_mean(res.chi_sq[:, k])
        bound = analysis.rate_upper_bound(omega, eta, chi_ms, l)
        measured = learning.steady_mean(res.bits[:, k])
        assert measured <= bound


# ---------------------------------------------------------------------------
# rate_distortion_sweep

def sweep_setup():
    n, l = 4, 2
    top = graphs.build_topology(n, 1.0, seed=19)
    basis = graphs.subspace_smooth(top, 2, l, weight=0.1)
    comb = graphs.build_combination(top, basis)
    rng = np.random.default_rng(23)
    models = [learning.DataModel(rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.2),
                                 rng.normal(0.4, 1.0, l)) for _ in range(n)]
    return models, basis, comb, l


def test_uniform_sweep_tradeoff_direction():
    models, basis, comb, l = sweep_setup()
    template = RunConfig(mu=0.02, gamma=0.9, iterations=1200, runs=2,
                         quantizer=quantizers.identity(l), seed=3)
    deltas = [0.002, 0.02, 0.2]
    grid = [(d, quantizers.uniform(d, l)) for d in deltas]
    pts = analysis.rate_distortion_sweep(template, models, basis, comb, grid)
    rates = [p.rate_bits for p in pts]
    msds = [p.msd for p in pts]
    assert rates[0] > rates[1] > rates[2]   # coarser cells, fewer bits
    assert msds[2] > msds[0]                # and more distortion
    assert not any(p.diverged for p in pts)


def test_identity_sweep_point_is_full_precision_baseline():
    models, basis, comb, l = sweep_setup()
    template = RunConfig(mu=0.02, gamma=0.9, iterations=800, runs=1,
                         quantizer=quantizers.identity(l), seed=5)
    pts = analysis.rate_distortion_sweep(
        template, models, basis, comb, [(0.0, quantizers.identity(l))])
    assert pts[0].rate_bits == pytest.approx(32.0)
    res = learning.run(template, models, basis, comb)
    assert pts[0].msd == pytest.approx(float(learning.steady_mean(res.msd)))


def test_sweep_flags_diverged_points():
    models, basis, comb, l = sweep_setup()
    template = RunConfig(mu=80.0, gamma=1.0, iterations=600, runs=1,
                         quantizer=quantizers.identity(l), seed=7)
    pts = analysis.rate_distortion_sweep(
        template, models, basis, comb,
        [(1.0, quantizers.identity(l)), (2.0, quantizers.identity(l))])
    assert all(p.diverged for p in pts)
    assert all(math.isinf(p.msd) for p in pts)
    assert all(math.isnan(p.rate_bits) for p in pts)


def test_sweep_rejects_empty_grid():
    models, basis, comb, l = sweep_setup()
    template = RunConfig(mu=0.02, gamma=0.9, iterations=600, runs=1,
                         quantizer=quantizers.identity(l), seed=3)
    with pytest.raises(ValueError, match="nonempty"):
        analysis.rate_distortion_sweep(template, models, basis, comb, [])


def test_sweep_rejects_a_run_shorter_than_the_steady_window(monkeypatch):
    models, basis, comb, l = sweep_setup()
    template = RunConfig(mu=0.02, gamma=0.9, iterations=learning.STEADY_WINDOW - 1,
                         runs=1, quantizer=quantizers.identity(l), seed=3)

    def no_run(*args, **kwargs):
        raise AssertionError("ran a sweep that cannot finish")

    monkeypatch.setattr(analysis, "run", no_run)
    with pytest.raises(ValueError, match="steady window"):
        analysis.rate_distortion_sweep(
            template, models, basis, comb, [(0.1, quantizers.uniform(0.1, l))])


@pytest.mark.parametrize("n, l, conn, seed", [(7, 3, 0.5, 2), (12, 5, 0.3, 8)])
def test_factored_consensus_matches_dense_general_path(n, l, conn, seed):
    top = graphs.build_topology(n, conn, seed=seed)
    basis = graphs.subspace_consensus(n, l)
    comb = graphs.build_combination(top, basis, mode="consensus-metropolis")
    assert comb.factored and comb.matrix.shape == (n, n)
    kron = np.kron(graphs.metropolis_weights(top), np.eye(l))
    assert np.array_equal(comb.a, kron)
    assert comb.a is not comb.a          # built on each read, never cached

    dense = CombinationMatrix.from_dense(kron, top, comb.block_dims)
    same, same_basis = graphs.reduced_problem(dense, basis)
    assert same.tobytes() == kron.tobytes() and same_basis is basis
    w, scalar = graphs.reduced_problem(comb, basis)
    # W is built from the stored neighbour table on each read, same bits
    assert np.array_equal(w, comb.matrix) and comb.matrix is not comb.matrix
    assert scalar.u.shape == (n, 1)
    got = graphs.validate_combination(w, top, scalar)
    ref = graphs.validate_combination(kron, top, basis)
    assert got.keys() == ref.keys()
    for key in ref:
        assert abs(got[key] - ref[key]) <= 1e-12, key

    fast = analysis.spectral_report(comb, basis)
    slow = analysis.spectral_report(dense, basis)
    for key, value in vars(slow).items():
        assert abs(getattr(fast, key) - value) <= 1e-12, key
