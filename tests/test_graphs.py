"""Tests for topologies, bases, combination matrices, and ground truth.

Library-backed pieces are cross-checked against hand-rolled oracles: a plain
BFS for connectivity, a Taylor-series matrix exponential for the heat kernel,
a weighted least squares route for the constrained optimum, and cvxpy for the
constrained combination fit.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from subspaceq import graphs
from subspaceq.graphs import (
    CONNECT_RETRY_BUDGET,
    CombinationMatrix,
    InfeasibleConstraints,
    InvalidEdgeList,
    NotConnected,
    SingularProjection,
    SpectralViolation,
    SubspaceBasis,
    build_combination,
    build_topology,
    compute_wopt,
    laplacian,
    load_topology,
    metropolis_weights,
    projector,
    save_topology,
    smooth_signal,
    spectral_radius,
    subspace_consensus,
    subspace_smooth,
    validate_combination,
)


def bfs_connected(weights):
    """Oracle: breadth-first search over the 0/1 adjacency."""
    n = weights.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        k = frontier.pop()
        for j in range(n):
            if weights[k, j] > 0 and j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def taylor_expm(mat, terms=30):
    """Oracle: scaling and squaring with an explicit Taylor series."""
    scale = 0
    while np.linalg.norm(mat / 2 ** scale, 1) > 0.5:
        scale += 1
    x = mat / 2 ** scale
    acc = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for k in range(1, terms):
        term = term @ x / k
        acc = acc + term
    for _ in range(scale):
        acc = acc @ acc
    return acc


# ---------------------------------------------------------------------------
# topologies


def test_random_topology_is_connected_and_symmetric():
    top = build_topology(12, 0.3, seed=7)
    assert top.n == 12
    assert bfs_connected(top.edge_weights)
    assert np.array_equal(top.edge_weights, top.edge_weights.T)
    assert np.all(np.diag(top.edge_weights) == 0)
    for k in range(12):
        assert k in top.neighborhoods[k]
        for j in top.neighborhoods[k]:
            if j != k:
                assert top.edge_weights[k, j] == 1.0
    # neighborhood sets and the indicator matrix describe the same graph
    assert sum(len(nb) - 1 for nb in top.neighborhoods) == top.edge_weights.sum()


def test_bfs_oracle_agrees_with_library_connectivity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        w = (rng.random((n, n)) < 0.25).astype(float)
        w = np.triu(w, 1)
        i, j = np.nonzero(w)
        w = w + w.T
        try:
            graphs._from_edges(n, i, j)
            connected = True
        except NotConnected:
            connected = False
        assert connected == bfs_connected(w)


def test_complete_graph():
    top = build_topology(6, 1.0, seed=0)
    assert all(len(nb) == 6 for nb in top.neighborhoods)
    assert top.edge_weights.sum() == 6 * 5


def test_retry_budget_exhaustion():
    with pytest.raises(NotConnected, match=str(CONNECT_RETRY_BUDGET)):
        build_topology(12, 0.001, seed=0)


def test_edge_list_and_file_roundtrip(tmp_path):
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
    top = build_topology(4, edges)
    assert top.neighborhoods[0] == frozenset({0, 1, 2, 3})
    assert top.neighborhoods[3] == frozenset({0, 2, 3})
    path = tmp_path / "edges.txt"
    save_topology(path, top)
    back = load_topology(path)
    assert back.n == 4
    assert np.array_equal(back.edge_weights, top.edge_weights)
    # each undirected edge appears exactly once in the file
    assert len(path.read_text().splitlines()) == len(edges)


def test_edge_list_errors():
    with pytest.raises(InvalidEdgeList):
        build_topology(4, [(1, 2), (2, 5)])
    with pytest.raises(InvalidEdgeList):
        build_topology(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        build_topology(4, [(1, 2), (3, 4)])


def loop_from_neighbor_sets(n, sets):
    """Oracle: the entry-by-entry fill of the link matrix and neighbourhoods."""
    w = np.zeros((n, n))
    for k, nb in enumerate(sets):
        for j in nb:
            if j != k:
                w[k, j] = 1.0
    ncomp, _ = connected_components(sp.csr_matrix(w + np.eye(n)), directed=False)
    if ncomp != 1:
        raise NotConnected(f"{ncomp} components")
    return tuple(frozenset(nb | {k}) for k, nb in enumerate(sets)), w


def loop_topology(n, connectivity, seed=None):
    """Oracle: every node pair visited in turn, as a plain Python loop."""
    if not isinstance(connectivity, list):
        rng = np.random.default_rng(seed)
        for _ in range(CONNECT_RETRY_BUDGET):
            iu = np.triu_indices(n, 1)
            draw = rng.random(len(iu[0])) < connectivity
            sets = [set() for _ in range(n)]
            for i, j, on in zip(*iu, draw):
                if on:
                    sets[i].add(int(j))
                    sets[j].add(int(i))
            try:
                return loop_from_neighbor_sets(n, sets)
            except NotConnected:
                continue
        raise NotConnected("retry budget")
    sets = [set() for _ in range(n)]
    for k, j in connectivity:
        if k != j:
            sets[k - 1].add(j - 1)
            sets[j - 1].add(k - 1)
    return loop_from_neighbor_sets(n, sets)


def loop_metropolis(top):
    """Oracle: Metropolis weights entry by entry, each row summed alone."""
    n = top.n
    a = np.zeros((n, n))
    for k in range(n):
        for j in top.neighborhoods[k]:
            if j != k:
                a[k, j] = 1.0 / max(top.degree(k), top.degree(j))
        a[k, k] = 1.0 - a[k].sum()
    return a


def ring_with_chords(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(k + 1, (k + 1) % n + 1) for k in range(n)]
    edges += [tuple(int(v) + 1 for v in rng.choice(n, 2, replace=False))
              for _ in range(n // 2)]
    return edges + [(3, 3), (2, 1)]      # a self-loop and a repeated edge


@pytest.mark.parametrize("n, connectivity, seed", [
    (2, 1.0, 0), (12, 0.3, 7), (40, 0.15, 3), (200, 0.05, 7), (1000, 0.01, 4),
    (60, "edges", 5), (1000, "edges", 6),
])
def test_topology_and_weights_equal_the_loop_oracles(n, connectivity, seed):
    if connectivity == "edges":
        connectivity = ring_with_chords(n, seed)
    top = build_topology(n, connectivity, seed=seed)
    sets, w = loop_topology(n, connectivity, seed)
    assert top.neighborhoods == sets
    assert all(type(j) is int for nb in top.neighborhoods for j in nb)
    assert np.array_equal(top.edge_weights, w)
    assert np.array_equal(metropolis_weights(top), loop_metropolis(top))


def test_edge_list_must_hold_pairs():
    with pytest.raises(InvalidEdgeList, match="pairs"):
        build_topology(3, [(1, 2, 3)])
    with pytest.raises(NotConnected):
        build_topology(3, [])


@pytest.mark.parametrize("connectivity", [1.0, [(1, 2), (2, 3)]],
                         ids=["probability", "edges"])
def test_agent_count_must_be_an_integer(connectivity):
    with pytest.raises(ValueError, match="agent count n must be an integer"):
        build_topology(3.5, connectivity)
    for n in (0, False):
        with pytest.raises(ValueError, match="need at least one agent"):
            build_topology(n, connectivity)


@pytest.mark.parametrize("connectivity", [0.3, []], ids=["probability", "edges"])
def test_one_agent_is_a_connected_topology(connectivity):
    # before: "need at least two agents"
    top = build_topology(1, connectivity, seed=4)
    assert top.n == 1 and top.links.shape == (2, 0)
    assert top.neighborhoods == (frozenset({0}),)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 40))
def test_connectivity_check_counts_components_as_csgraph(data, n):
    # a shuffled path with some links cut (long chains of pointers), plus
    # random chords and self-loops
    order = data.draw(st.permutations(range(1, n + 1)))
    cut = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    edges = [(a, b) for a, b, c in zip(order, order[1:], cut) if not c]
    edges += data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                                max_size=n // 2))
    w = np.zeros((n, n))
    for k, j in edges:
        w[k - 1, j - 1] = w[j - 1, k - 1] = 1.0
    ncomp, _ = connected_components(sp.csr_matrix(w), directed=False)
    if ncomp == 1:
        assert build_topology(n, edges).n == n
    else:
        with pytest.raises(NotConnected, match=f"^{ncomp} components$"):
            build_topology(n, edges)


def old_dense_set_up(top, l):
    """Reference: the dense 0/1 matrix, then the dense Metropolis formula and
    its Kronecker product, as the topology and matrix once stored them."""
    n = top.n
    w = np.zeros((n, n))
    for k, nb in enumerate(top.neighborhoods):
        w[k, sorted(nb - {k})] = 1.0
    deg = np.array([len(nb) for nb in top.neighborhoods])
    rows, cols = np.nonzero(w)
    a = np.zeros((n, n))
    a[rows, cols] = 1.0 / np.maximum(deg[rows], deg[cols])
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return w, a, np.kron(a, np.eye(l))


@pytest.mark.parametrize("n, connectivity, l", [
    (2, 1.0, 3), (30, 0.2, 2), (120, 1.0, 1), (1000, 0.01, 2),
])
def test_set_up_holds_tables_and_builds_dense_views_bitwise(n, connectivity, l):
    top = build_topology(n, connectivity, seed=4)
    comb = build_combination(top, subspace_consensus(n, l), "consensus-metropolis")
    w, a, kron = old_dense_set_up(top, l)
    assert np.array_equal(top.edge_weights, w)
    assert np.array_equal(metropolis_weights(top), a)
    assert np.array_equal(comb.matrix, a) and np.array_equal(comb.a, kron)
    # what is kept is the table: sorted neighbourhoods padded with the agent
    index, sizes = top.neighbor_index()
    assert np.array_equal(comb.index, index) and comb.weights.shape == index.shape
    for k, nb in enumerate(top.neighborhoods):
        assert index[k, :sizes[k]].tolist() == sorted(nb)
        assert np.all(index[k, sizes[k]:] == k)
        assert np.array_equal(comb.weights[k], np.where(
            np.arange(index.shape[1]) < sizes[k], a[k, index[k]], 0.0))


def test_a_combination_matrix_keeps_its_minor_spectrum_read_only():
    n = 8
    top = build_topology(n, 0.5, seed=1)
    comb = build_combination(top, subspace_consensus(n, 2), "consensus-metropolis")
    kept = comb.minor_spectrum
    assert kept is comb.minor_spectrum and kept.symmetric
    w = comb.matrix
    u = subspace_consensus(n, 1).u
    assert np.array_equal(kept.eigenvalues, np.linalg.eigvalsh(w - u @ u.T))
    copy = pickle.loads(pickle.dumps(comb))
    assert np.array_equal(copy.minor_spectrum.eigenvalues, kept.eigenvalues)
    for held in (comb, copy):
        for array in (held.index, held.weights, held.minor_spectrum.eigenvalues):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
    # the caller's arrays stay its own
    weights = comb.weights.copy()
    CombinationMatrix(top, comb.block_dims, comb.index, weights)
    assert weights.flags.writeable

    blocks = CombinationMatrix.from_dense(comb.a, top, comb.block_dims)
    with pytest.raises(ValueError, match="factored"):
        blocks.minor_spectrum


def test_consensus_set_up_keeps_no_dense_matrix():
    # n = 1,000: the dense W alone is 8 MB, the kept set-up a small part,
    # also once the neighbourhoods have been read and kept
    top = build_topology(1000, 0.01, seed=4)
    comb = build_combination(top, subspace_consensus(1000, 5), "consensus-metropolis")
    assert comb.matrix.nbytes == 8_000_000
    assert top.neighborhoods is top.neighborhoods
    assert len(pickle.dumps((top, comb))) < 2**20



# ---------------------------------------------------------------------------
# laplacians and bases


def test_path_laplacian_frozen_spectrum():
    top = build_topology(3, [(1, 2), (2, 3)])
    lap = laplacian(top, 1.0)
    assert np.array_equal(lap, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float))
    vals, vecs = np.linalg.eigh(lap)
    assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)
    second = vecs[:, 1]
    ref = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2)
    assert min(np.max(np.abs(second - ref)), np.max(np.abs(second + ref))) < 1e-12


def test_laplacian_psd_and_zero_rowsums():
    top = build_topology(9, 0.4, seed=11)
    lap = laplacian(top, 0.7)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    assert np.linalg.eigvalsh(lap)[0] > -1e-12


def test_consensus_basis_projects_to_block_average():
    basis = subspace_consensus(4, 3)
    assert basis.u.shape == (12, 3)
    assert basis.p == 3
    x = np.arange(12.0)
    avg = x.reshape(4, 3).mean(axis=0)
    assert np.allclose(projector(basis) @ x, np.tile(avg, 4), atol=1e-12)


def test_smooth_basis_contains_consensus_direction():
    top = build_topology(5, 0.6, seed=2)
    basis = subspace_smooth(top, 2, 3, weight=1.0)
    assert basis.u.shape == (15, 6)
    assert basis.p == 6
    # constant-across-agents signals sit in the span (eigenvalue-0 eigenvector)
    v = np.tile(np.array([0.3, -1.2, 0.5]), 5)
    assert np.allclose(projector(basis) @ v, v, atol=1e-10)
    with pytest.raises(ValueError):
        subspace_smooth(top, 5, 3, weight=1.0)


def test_basis_validation():
    with pytest.raises(ValueError, match="semi-unitary"):
        SubspaceBasis(np.ones((4, 2)), (2, 2), 2)
    with pytest.raises(ValueError, match="sum"):
        SubspaceBasis(np.eye(4)[:, :2], (2, 3), 2)
    with pytest.raises(ValueError, match="must not exceed"):
        SubspaceBasis(np.eye(4, 5), (2, 2), 5)
    # before: a NaN passed max|U^T U - I| > TOL_ORTHO, and
    # validate_combination failed later inside numpy with LinAlgError
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="semi-unitary"):
            SubspaceBasis(np.full((4, 1), bad), (1,) * 4, 1)


def test_a_single_agent_basis_is_its_whole_space():
    # P = M: U = I_l, an empty complement, and the Metropolis A = [1]
    basis = subspace_consensus(1, 3)
    assert basis.p == basis.m == 3
    assert np.array_equal(basis.u, np.eye(3))
    top = build_topology(1, 1.0)
    comb = build_combination(top, basis, mode="consensus-metropolis")
    assert comb.factored and np.array_equal(comb.matrix, [[1.0]])
    assert np.array_equal(comb.a, np.eye(3))
    assert comb.minor_spectrum.residual == 0.0 and comb.minor_spectrum.rho == 0.0


# ---------------------------------------------------------------------------
# combination matrices


def test_metropolis_frozen_path():
    top = build_topology(3, [(1, 2), (2, 3)])
    a = metropolis_weights(top)
    expected = np.array([[2 / 3, 1 / 3, 0], [1 / 3, 1 / 3, 1 / 3], [0, 1 / 3, 2 / 3]])
    assert np.allclose(a, expected, atol=1e-15)


def test_metropolis_doubly_stochastic_random():
    top = build_topology(11, 0.35, seed=5)
    a = metropolis_weights(top)
    assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(a >= 0)
    assert np.array_equal(a != 0, (top.edge_weights + np.eye(11)) != 0)


def test_consensus_metropolis_combination():
    top = build_topology(6, 0.5, seed=9)
    basis = subspace_consensus(6, 2)
    comb = build_combination(top, basis, mode="consensus-metropolis")
    assert np.allclose(comb.a, np.kron(metropolis_weights(top), np.eye(2)), atol=1e-15)
    report = validate_combination(comb.a, top, basis)
    assert report["residual"] <= 1e-12
    assert report["rho"] < 1.0
    smooth = subspace_smooth(top, 2, 2, weight=1.0)
    with pytest.raises(ValueError, match="consensus"):
        build_combination(top, smooth, mode="consensus-metropolis")


def small_world(n, lattice_m, shortcut_q, seed):
    """Ring lattice plus random shortcuts; connected by construction.

    Low Laplacian eigenvectors of this family stay spread out over the graph,
    which the subspace-lsq fit needs to contract the complement; degree-skewed
    ensembles localize them on weak spots and push rho(A - P_U) to 1.
    """
    rng = np.random.default_rng(seed)
    edges = {
        (min(k, (k + d) % n), max(k, (k + d) % n))
        for k in range(n)
        for d in range(1, lattice_m + 1)
    }
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < shortcut_q:
                edges.add((i, j))
    return build_topology(n, [(a + 1, b + 1) for a, b in edges])


def test_lsq_combination_invariants():
    top = small_world(10, 3, 0.2, seed=13)
    basis = subspace_smooth(top, 2, 2, weight=1.0)
    comb = build_combination(top, basis, mode="subspace-lsq")
    u = basis.u
    assert np.max(np.abs(comb.a @ u - u)) <= 1e-8
    assert np.max(np.abs(u.T @ comb.a - u.T)) <= 1e-8
    assert spectral_radius(comb.a - projector(basis)) < 1.0
    # off-pattern blocks are exactly zero, not merely small
    for k in range(10):
        for j in range(10):
            if j not in top.neighborhoods[k]:
                assert np.all(comb.a[2 * k:2 * k + 2, 2 * j:2 * j + 2] == 0.0)


def test_lsq_combination_too_sparse_raises():
    ring = build_topology(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    basis = subspace_smooth(ring, 2, 1, weight=1.0)
    with pytest.raises(SpectralViolation):
        build_combination(ring, basis, mode="subspace-lsq")


def test_lsq_combination_complete_graph_recovers_projector():
    top = build_topology(7, 1.0, seed=0)
    basis = subspace_smooth(top, 2, 2, weight=1.0)
    comb = build_combination(top, basis, mode="subspace-lsq")
    assert np.max(np.abs(comb.a - projector(basis))) <= 1e-8


def _dense_constraint_system(top, basis):
    """Oracle assembly of the equality constraints over free entries."""
    u = basis.u
    m, p = u.shape
    l = basis.block_dims[0]
    free = [
        (i, j)
        for k in range(top.n)
        for jblk in sorted(top.neighborhoods[k])
        for i in range(k * l, (k + 1) * l)
        for j in range(jblk * l, (jblk + 1) * l)
    ]
    nv = len(free)
    c = np.zeros((2 * m * p, nv))
    d = np.concatenate([u.ravel(), u.ravel()])
    for e, (i, j) in enumerate(free):
        for q in range(p):
            c[i * p + q, e] = u[j, q]
            c[m * p + j * p + q, e] = u[i, q]
    target = np.array([(u @ u.T)[i, j] for i, j in free])
    return free, c, d, target


def test_lsq_combination_matches_dense_pinv_oracle():
    top = small_world(10, 3, 0.2, seed=3)
    basis = subspace_smooth(top, 2, 1, weight=1.0)
    comb = build_combination(top, basis, mode="subspace-lsq")
    free, c, d, target = _dense_constraint_system(top, basis)
    lam = np.linalg.pinv(c @ c.T) @ (c @ target - d)
    a_free = target - c.T @ lam
    oracle = np.zeros((10, 10))
    for e, (i, j) in enumerate(free):
        oracle[i, j] = a_free[e]
    assert np.max(np.abs(comb.a - oracle)) < 1e-7


def test_lsq_combination_matches_cvxpy():
    cvxpy = pytest.importorskip("cvxpy")
    top = small_world(10, 3, 0.2, seed=5)
    basis = subspace_smooth(top, 2, 1, weight=1.0)
    comb = build_combination(top, basis, mode="subspace-lsq")
    u = basis.u
    n = top.n
    mask = np.array(
        [[1.0 if j in top.neighborhoods[k] else 0.0 for j in range(n)] for k in range(n)]
    )
    a_var = cvxpy.Variable((n, n))
    objective = cvxpy.Minimize(cvxpy.sum_squares(a_var - u @ u.T))
    constraints = [
        cvxpy.multiply(1 - mask, a_var) == 0,
        a_var @ u == u,
        u.T @ a_var == u.T,
    ]
    cvxpy.Problem(objective, constraints).solve()
    assert np.max(np.abs(comb.a - a_var.value)) < 1e-5


def test_validate_combination_errors():
    top = build_topology(4, 1.0, seed=0)
    basis = subspace_smooth(top, 2, 1, weight=1.0)
    # identity fixes the subspace but contracts nothing
    with pytest.raises(SpectralViolation):
        validate_combination(np.eye(4), top, basis)
    broken = projector(basis).copy()
    broken[0, 0] += 0.5
    with pytest.raises(InfeasibleConstraints):
        validate_combination(broken, top, basis)


def test_from_dense_rejects_a_weight_outside_the_neighbourhoods():
    # a ring's W with 0.2 moved onto the non-link (0, 3) stays doubly
    # stochastic and contracting, so it validates; but the table has no slot
    # for the weight, and row 0 would mix with weights summing to 0.8
    ring = build_topology(6, [(k, k % 6 + 1) for k in range(1, 7)])
    basis = subspace_consensus(6, 1)
    w = metropolis_weights(ring)
    w[0, 3] = w[3, 0] = 0.2
    w[0, 0] -= 0.2
    w[3, 3] -= 0.2
    assert validate_combination(w, ring, basis)["rho"] < 1.0
    with pytest.raises(ValueError, match=r"nonzero block \(0, 3\) outside"):
        CombinationMatrix.from_dense(w, ring, (1,) * 6)
    with pytest.raises(ValueError, match="one size"):
        CombinationMatrix.from_dense(np.eye(7), ring, (1,) * 5 + (2,))


def test_lsq_combination_needs_one_block_size():
    top = build_topology(3, 1.0, seed=0)
    basis = SubspaceBasis(np.full((4, 1), 0.5), (1, 2, 1), 1)
    with pytest.raises(ValueError, match="one block size"):
        build_combination(top, basis, mode="subspace-lsq")


# ---------------------------------------------------------------------------
# ground truth


def test_smooth_signal_matches_taylor_oracle():
    top = build_topology(6, 0.5, seed=4)
    lap = laplacian(top, 0.7)
    raw = np.random.default_rng(8).normal(size=12)
    out = smooth_signal(lap, raw, tau=1.3, l=2)
    kernel = taylor_expm(-1.3 * lap)
    assert np.max(np.abs(out - np.kron(kernel, np.eye(2)) @ raw)) < 1e-10


def test_smooth_signal_tau_zero_and_default_raw():
    top = build_topology(5, 0.6, seed=1)
    lap = laplacian(top, 1.0)
    raw = np.arange(10.0)
    assert np.allclose(smooth_signal(lap, raw, tau=0.0, l=2), raw, atol=1e-14)
    a = smooth_signal(lap, tau=2.0, l=3, seed=42)
    b = smooth_signal(lap, tau=2.0, l=3, seed=42)
    assert a.shape == (15,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, smooth_signal(lap, tau=2.0, l=3, seed=43))


def test_smooth_signal_dirichlet_energy_decreases_with_tau():
    top = build_topology(8, 0.4, seed=6)
    lap = laplacian(top, 1.0)
    raw = np.random.default_rng(0).normal(size=8)
    energies = [
        smooth_signal(lap, raw, tau=t, l=1) @ lap @ smooth_signal(lap, raw, tau=t, l=1)
        for t in (0.0, 0.5, 2.0, 5.0)
    ]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_wopt_consensus_is_variance_weighted_average():
    basis = subspace_consensus(3, 2)
    variances = [2.0, 0.5, 1.5]
    w_star = np.array([1.0, 0.0, 3.0, -1.0, 0.0, 2.0])
    w_opt = compute_wopt(basis, variances, w_star)
    blocks = w_star.reshape(3, 2)
    avg = np.average(blocks, axis=0, weights=variances)
    assert np.allclose(w_opt, np.tile(avg, 3), atol=1e-12)


def test_wopt_matches_weighted_lstsq_route():
    top = build_topology(6, 0.5, seed=3)
    basis = subspace_smooth(top, 2, 2, weight=1.0)
    rng = np.random.default_rng(10)
    covs = []
    for _ in range(6):
        b = rng.normal(size=(2, 2))
        covs.append(b @ b.T + 0.5 * np.eye(2))
    w_star = rng.normal(size=12)
    w_opt = compute_wopt(basis, covs, w_star)
    h = scipy.linalg.block_diag(*covs)
    root = np.linalg.cholesky(h)
    z, *_ = np.linalg.lstsq(root.T @ basis.u, root.T @ w_star, rcond=None)
    assert np.max(np.abs(w_opt - basis.u @ z)) < 1e-9
    # optimality: the H-weighted residual is orthogonal to the subspace
    assert np.max(np.abs(basis.u.T @ h @ (w_star - w_opt))) < 1e-9
    # feasibility: the optimum lies in the subspace
    assert np.linalg.norm(w_opt - projector(basis) @ w_opt) < 1e-10


def test_wopt_errors():
    basis = subspace_consensus(3, 1)
    with pytest.raises(ValueError, match="positive definite"):
        compute_wopt(basis, [1.0, -1.0, 1.0], np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        compute_wopt(basis, [np.eye(2)] * 3, np.zeros(3))
    top = build_topology(3, [(1, 2), (2, 3)])
    smooth = subspace_smooth(top, 2, 1, weight=1.0)
    with pytest.raises(SingularProjection):
        compute_wopt(smooth, [1e-20, 1e-20, 1.0], np.zeros(3))


def dense_h_wopt(basis, covariances, w_star):
    """Oracle: the optimum through the dense (nl)^2 block-diagonal H."""
    blocks = [np.asarray(r, dtype=float) * np.eye(d) if np.ndim(r) == 0 else r
              for r, d in zip(covariances, basis.block_dims)]
    h = scipy.linalg.block_diag(*blocks)
    u = basis.u
    return u @ np.linalg.solve(u.T @ h @ u, u.T @ h @ w_star)


def test_wopt_scalar_path_equals_the_dense_h_formula_bitwise():
    rng = np.random.default_rng(21)
    top = build_topology(30, 0.2, seed=2)
    bases = [subspace_consensus(30, 5), subspace_consensus(7, 1),
             subspace_smooth(top, 3, 2, weight=0.1), subspace_smooth(top, 1, 4, weight=1.0)]
    q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
    bases.append(SubspaceBasis(q, (1, 2, 3), 2))          # unequal blocks
    for basis in bases:
        n = len(basis.block_dims)
        for scale in (1e-3, 1.0, 1e4):
            variances = scale * rng.uniform(0.5, 2.5, n)
            w_star = rng.normal(size=basis.m)
            for covs in (list(variances), variances):
                assert np.array_equal(compute_wopt(basis, covs, w_star),
                                      dense_h_wopt(basis, variances, w_star))


def test_wopt_full_covariances_keep_the_block_diagonal_path():
    rng = np.random.default_rng(22)
    top = build_topology(8, 0.5, seed=1)
    basis = subspace_smooth(top, 2, 3, weight=0.1)
    covs = []
    for _ in range(8):
        b = rng.normal(size=(3, 3))
        covs.append(b @ b.T + 0.5 * np.eye(3))
    covs[2] = 1.7                                           # one scalar among matrices
    w_star = rng.normal(size=24)
    assert np.array_equal(compute_wopt(basis, covs, w_star),
                          dense_h_wopt(basis, covs, w_star))
    with pytest.raises(ValueError, match="covariance 1 is not positive definite"):
        compute_wopt(basis, [1.0, float("nan")] + [1.0] * 6, w_star)


def test_wopt_scalar_path_never_forms_the_dense_h():
    # at n = 1,000 and l = 5 the dense H alone is 5000^2 doubles, 200 MB
    basis = subspace_consensus(1000, 5)
    variances = np.random.default_rng(3).uniform(1.0, 2.0, 1000)
    w_star = np.random.default_rng(4).normal(size=5000)
    tracemalloc.start()
    try:
        compute_wopt(basis, list(variances), w_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_spectral_radius_nonsymmetric():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0
    assert abs(spectral_radius(np.array([[0.5, 0.5], [0.3, 0.7]])) - 1.0) < 1e-12
