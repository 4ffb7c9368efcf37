"""Topologies, subspace bases, combination matrices, and smooth targets.

The network is an undirected connected graph whose agents each hold a block of
the stacked parameter vector. A semi-unitary basis U spans the feasible
subspace; a combination matrix A mixes neighbor blocks while leaving Range(U)
invariant from both sides (A U = U, U^T A = U^T) and contracting everything
orthogonal to it (rho(A - U U^T) < 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

TOL_CONSTRAINT = 1e-8   # AU = U, U^T A = U^T residuals
TOL_ORTHO = 1e-10       # basis orthonormality
CONNECT_RETRY_BUDGET = 100

__all__ = [
    "Topology",
    "SubspaceBasis",
    "CombinationMatrix",
    "NotConnected",
    "InvalidEdgeList",
    "EigenFailure",
    "SpectralViolation",
    "InfeasibleConstraints",
    "SingularProjection",
    "build_topology",
    "save_topology",
    "load_topology",
    "laplacian",
    "subspace_consensus",
    "subspace_smooth",
    "metropolis_weights",
    "build_combination",
    "validate_combination",
    "reduced_problem",
    "smooth_signal",
    "compute_wopt",
    "projector",
    "spectral_radius",
    "save_matrix_csv",
]


class NotConnected(ValueError):
    """Graph has more than one connected component."""


class InvalidEdgeList(ValueError):
    """Edge list with out-of-range agent indices."""


class EigenFailure(RuntimeError):
    """Eigensolver did not converge."""


class SpectralViolation(ValueError):
    """rho(A - P_U) is not strictly below one."""


class InfeasibleConstraints(ValueError):
    """The sparsity pattern cannot satisfy the subspace constraints."""


class SingularProjection(ValueError):
    """U^T H U is singular; the constrained optimum is not unique."""


@dataclass(frozen=True, eq=False)
class Topology:
    n: int
    neighborhoods: tuple          # per-agent frozenset, always containing the agent
    edge_weights: np.ndarray      # symmetric 0/1 link indicator, zero diagonal

    def degree(self, k) -> int:
        return len(self.neighborhoods[k])


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    u: np.ndarray                 # M x P, semi-unitary
    block_dims: tuple
    p: int

    def __post_init__(self):
        m = self.u.shape[0]
        if sum(self.block_dims) != m:
            raise ValueError("block dimensions do not sum to the basis rows")
        if not self.p < m:
            raise ValueError("subspace dimension must be below the ambient one")
        gram = self.u.T @ self.u
        if np.max(np.abs(gram - np.eye(self.p))) > TOL_ORTHO:
            raise ValueError("basis is not semi-unitary")

    @property
    def m(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True, eq=False)
class CombinationMatrix:
    """Combination matrix A, held either dense or as its n x n factor.

    With ``factored`` set, ``matrix`` is the scalar weight matrix W and
    A = W kron I_l for the common block size l; the dense A is then never
    stored, and ``a`` builds it on every read.
    """

    matrix: np.ndarray            # M x M with block sparsity, or the factor W
    topology: Topology
    block_dims: tuple
    factored: bool = False

    @property
    def a(self) -> np.ndarray:
        """The dense M x M matrix (a new array each read when factored)."""
        if self.factored:
            return np.kron(self.matrix, np.eye(self.block_dims[0]))
        return self.matrix


# ---------------------------------------------------------------------------
# topologies

def _from_edges(n, i, j):
    """Topology of the undirected 0-indexed edges (i[e], j[e]); self-loops
    and repeated edges are allowed and ignored."""
    w = np.zeros((n, n))
    w[i, j] = 1.0
    w[j, i] = 1.0
    np.fill_diagonal(w, 0.0)
    ncomp, _ = connected_components(sp.csr_matrix(w + np.eye(n)), directed=False)
    if ncomp != 1:
        raise NotConnected(f"{ncomp} components")
    sets = tuple(frozenset(np.flatnonzero(row).tolist()) | {k}
                 for k, row in enumerate(w))
    return Topology(n, sets, w)


def build_topology(n, connectivity, seed=None) -> Topology:
    """Connected undirected topology with self-loops.

    ``connectivity`` is either an edge probability in (0, 1], in which case
    independent links are drawn and redrawn (up to a fixed retry budget) until
    the graph is connected, or an explicit edge list of 1-indexed pairs.
    """
    if n < 2:
        raise ValueError("need at least two agents")
    if np.isscalar(connectivity) and not isinstance(connectivity, (tuple, list)):
        prob = float(connectivity)
        if not 0 < prob <= 1:
            raise ValueError("edge probability must be in (0, 1]")
        rng = np.random.default_rng(seed)
        iu = np.triu_indices(n, 1)
        for _ in range(CONNECT_RETRY_BUDGET):
            draw = rng.random(len(iu[0])) < prob
            try:
                return _from_edges(n, iu[0][draw], iu[1][draw])
            except NotConnected:
                continue
        raise NotConnected(f"no connected draw in {CONNECT_RETRY_BUDGET} attempts")
    edges = np.array(connectivity, dtype=np.intp)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise InvalidEdgeList("edge list must hold (k, j) pairs")
    outside = (edges < 1) | (edges > n)
    if outside.any():
        k, j = edges[np.flatnonzero(outside.any(axis=1))[0]]
        raise InvalidEdgeList(f"edge ({k}, {j}) outside 1..{n}")
    return _from_edges(n, edges[:, 0] - 1, edges[:, 1] - 1)


def save_topology(path, topology: Topology):
    """Plain-text edge list, one 1-indexed "k l" pair per line, each edge once."""
    with open(path, "w") as fh:
        for k in range(topology.n):
            for j in sorted(topology.neighborhoods[k]):
                if j > k:
                    fh.write(f"{k + 1} {j + 1}\n")


def load_topology(path, n=None) -> Topology:
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            k, j = (int(t) for t in line.split())
            edges.append((k, j))
    if n is None:
        if not edges:
            raise InvalidEdgeList("empty edge list and no agent count given")
        n = max(max(k, j) for k, j in edges)
    return build_topology(n, edges)


def laplacian(topology: Topology, uniform_weight: float) -> np.ndarray:
    """Weighted graph Laplacian diag(C 1) - C with uniform link weight."""
    if not 0 < uniform_weight < np.inf:
        raise ValueError("weight must be positive and finite")
    c = uniform_weight * topology.edge_weights
    return np.diag(c.sum(axis=1)) - c


# ---------------------------------------------------------------------------
# subspace bases

def subspace_consensus(n, l) -> SubspaceBasis:
    """Consensus basis: every agent block constrained to a common value."""
    if n < 1 or l < 1:
        raise ValueError("need n >= 1 and l >= 1")
    u = np.kron(np.full((n, 1), 1.0 / np.sqrt(n)), np.eye(l))
    return SubspaceBasis(u, (l,) * n, l)


def subspace_smooth(topology: Topology, p_vectors, l, weight) -> SubspaceBasis:
    """Basis spanned by the lowest Laplacian eigenvectors, one block per agent.

    Columns are the p_vectors eigenvectors of the weighted Laplacian with the
    smallest eigenvalues, Kronecker-expanded by an identity of size l, so the
    subspace holds signals that vary smoothly across the graph.
    """
    if not 1 <= p_vectors < topology.n:
        raise ValueError("p_vectors must be in 1..n-1 to leave a contracted complement")
    lap = laplacian(topology, weight)
    try:
        _, vecs = scipy.linalg.eigh(lap)
    except scipy.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    u = np.kron(vecs[:, :p_vectors], np.eye(l))
    return SubspaceBasis(u, (l,) * topology.n, p_vectors * l)


def projector(basis: SubspaceBasis) -> np.ndarray:
    return basis.u @ basis.u.T


def spectral_radius(mat) -> float:
    """Largest eigenvalue modulus; the symmetric solver when mat == mat^T."""
    mat = np.asarray(mat)
    if np.array_equal(mat, mat.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


# ---------------------------------------------------------------------------
# combination matrices

def metropolis_weights(topology: Topology) -> np.ndarray:
    """Doubly stochastic scalar weights 1/max(|N_k|, |N_l|) off the diagonal."""
    deg = np.array([len(nb) for nb in topology.neighborhoods])
    rows, cols = np.nonzero(topology.edge_weights)
    a = np.zeros((topology.n, topology.n))
    a[rows, cols] = 1.0 / np.maximum(deg[rows], deg[cols])
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return a


def _block_slices(block_dims):
    offs = np.concatenate(([0], np.cumsum(block_dims)))
    return [slice(int(offs[k]), int(offs[k + 1])) for k in range(len(block_dims))]


def _is_consensus_basis(basis: SubspaceBasis) -> bool:
    l = basis.block_dims[0]
    if any(d != l for d in basis.block_dims) or basis.p != l:
        return False
    n = len(basis.block_dims)
    ref = np.kron(np.full((n, 1), 1.0 / np.sqrt(n)), np.eye(l))
    return np.allclose(basis.u, ref, atol=1e-12)


def _constrained_lsq(topology, basis):
    # minimize ||A - P_U||_F^2 over the free block entries subject to
    # A U = U and U^T A = U^T, via a lightly regularized sparse KKT system
    u = basis.u
    m, p = u.shape
    slices = _block_slices(basis.block_dims)
    free_rows, free_cols = [], []
    for k in range(topology.n):
        for j in sorted(topology.neighborhoods[k]):
            rk, cj = slices[k], slices[j]
            rr, cc = np.meshgrid(np.arange(rk.start, rk.stop),
                                 np.arange(cj.start, cj.stop), indexing="ij")
            free_rows.append(rr.ravel())
            free_cols.append(cc.ravel())
    free_rows = np.concatenate(free_rows)
    free_cols = np.concatenate(free_cols)
    nv = free_rows.size

    target = (u @ u.T)[free_rows, free_cols]

    # constraint rows: (row i, basis col q) then (col j, basis col q)
    rows, cols, vals = [], [], []
    d = np.empty(2 * m * p)
    for e in range(nv):
        i, j = free_rows[e], free_cols[e]
        # A U = U touches constraint block of row i
        rows.append(np.arange(i * p, (i + 1) * p))
        cols.append(np.full(p, e))
        vals.append(u[j])
        # U^T A = U^T touches constraint block of column j
        rows.append(m * p + np.arange(j * p, (j + 1) * p))
        cols.append(np.full(p, e))
        vals.append(u[i])
    C = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * m * p, nv),
    )
    d[: m * p] = u.ravel()
    d[m * p:] = u.ravel()

    # KKT with a tiny dual regularization; redundant constraints stay consistent
    eps = 1e-12
    kkt = sp.bmat([[sp.eye(nv), C.T], [C, -eps * sp.eye(2 * m * p)]], format="csc")
    rhs = np.concatenate([target, d])
    sol = sp.linalg.spsolve(kkt, rhs)
    a_free = sol[:nv]

    if np.max(np.abs(C @ a_free - d)) > TOL_CONSTRAINT:
        raise InfeasibleConstraints("sparsity pattern cannot hold the subspace fixed")
    a = np.zeros((m, m))
    a[free_rows, free_cols] = a_free
    return a


def validate_combination(a, topology, basis) -> dict:
    """Check the subspace eigen-conditions and the contraction off-subspace.

    Returns ``{"residual": ..., "rho": ...}``; raises InfeasibleConstraints if
    either A U = U or U^T A = U^T fails beyond tolerance, SpectralViolation if
    rho(A - P_U) is not strictly below one.
    """
    u = basis.u
    residual = max(np.max(np.abs(a @ u - u)), np.max(np.abs(u.T @ a - u.T)))
    if residual > TOL_CONSTRAINT:
        raise InfeasibleConstraints(f"subspace condition residual {residual:.3e}")
    rho = spectral_radius(a - u @ u.T)
    if rho >= 1.0 - 1e-6:
        raise SpectralViolation(f"rho(A - P_U) = {rho:.8f}")
    return {"residual": float(residual), "rho": rho}


def reduced_problem(comb: CombinationMatrix, basis: SubspaceBasis) -> tuple:
    """The (matrix, basis) pair on which to check a combination matrix.

    A factored consensus matrix W kron I_l is checked as W against the scalar
    consensus basis: the residuals are the same numbers and the spectrum of
    W kron I_l - P_U is that of W - 11^T/n, each eigenvalue repeated l times.
    A dense matrix is checked as it is, against its own basis.
    """
    if comb.factored:
        return comb.matrix, subspace_consensus(comb.topology.n, 1)
    return comb.matrix, basis


def build_combination(topology, basis, mode="subspace-lsq") -> CombinationMatrix:
    """Combination matrix with the topology's sparsity satisfying the
    subspace eigen-conditions.

    mode "consensus-metropolis" requires the consensus basis and keeps the
    doubly stochastic scalar weights W, factored (A = W kron I_l); mode
    "subspace-lsq" fits the closest dense matrix to the projector P_U over
    the sparsity pattern subject to A U = U and U^T A = U^T, for any basis.
    """
    if mode == "consensus-metropolis":
        if not _is_consensus_basis(basis):
            raise ValueError("consensus-metropolis needs the consensus basis")
        comb = CombinationMatrix(metropolis_weights(topology), topology,
                                 tuple(basis.block_dims), factored=True)
    elif mode == "subspace-lsq":
        comb = CombinationMatrix(_constrained_lsq(topology, basis), topology,
                                 tuple(basis.block_dims))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    matrix, checked = reduced_problem(comb, basis)
    validate_combination(matrix, topology, checked)
    return comb


# ---------------------------------------------------------------------------
# ground truth

def smooth_signal(lap, raw=None, tau=3.0, l=1, seed=None) -> np.ndarray:
    """Diffuse a stacked signal through the graph heat kernel expm(-tau L).

    With ``raw`` omitted, the per-agent blocks are drawn i.i.d. from
    N(0.4, 1) using ``seed``. tau = 0 returns the raw signal unchanged.
    """
    if not 0 <= tau < np.inf:
        raise ValueError("tau must be nonnegative and finite")
    lap = np.asarray(lap)
    n = lap.shape[0]
    if raw is None:
        raw = np.random.default_rng(seed).normal(0.4, 1.0, size=n * l)
    raw = np.asarray(raw, dtype=float)
    kernel = scipy.linalg.expm(-tau * lap)
    return (kernel @ raw.reshape(n, l)).ravel()


def _variance_diagonal(covariances, block_dims):
    """diag(H) when every covariance is a scalar variance, else None."""
    variances = [np.asarray(covariances[k], dtype=float) for k in range(len(block_dims))]
    if any(r.ndim != 0 for r in variances):
        return None
    variances = np.array(variances)
    bad = np.flatnonzero(~(variances > 0))
    if bad.size:
        raise ValueError(f"covariance {bad[0]} is not positive definite")
    return np.repeat(variances, block_dims)


def _expand_covariances(covariances, block_dims):
    blocks = []
    for k, d in enumerate(block_dims):
        r = covariances[k]
        r = np.asarray(r, dtype=float)
        if r.ndim == 0:
            r = float(r) * np.eye(d)
        if r.shape != (d, d):
            raise ValueError(f"covariance {k} has shape {r.shape}, expected ({d}, {d})")
        if not np.allclose(r, r.T):
            raise ValueError(f"covariance {k} is not symmetric")
        if np.linalg.eigvalsh(r)[0] <= 0:
            raise ValueError(f"covariance {k} is not positive definite")
        blocks.append(r)
    return blocks


def compute_wopt(basis: SubspaceBasis, covariances, w_star) -> np.ndarray:
    """Exact constrained optimum U (U^T H U)^{-1} U^T H w_star, H = diag(R_k).

    ``covariances`` is a sequence with one entry per agent, each either a
    scalar variance (isotropic block) or a full per-block matrix. With scalar
    variances alone H is diagonal and never formed: each entry of U^T H is
    one product, so scaling the columns of U^T gives u.T @ H bit for bit,
    laid out as the gemm's C-ordered result for the products that follow.
    """
    u = basis.u
    w_star = np.asarray(w_star, dtype=float)
    diag = _variance_diagonal(covariances, basis.block_dims)
    if diag is None:
        uth = u.T @ scipy.linalg.block_diag(
            *_expand_covariances(covariances, basis.block_dims))
    else:
        uth = np.ascontiguousarray(u.T * diag)
    g = uth @ u
    if np.linalg.cond(g) > 1e12:
        raise SingularProjection("U^T H U is numerically singular")
    return u @ np.linalg.solve(g, uth @ w_star)


# ---------------------------------------------------------------------------
# matrix export

def save_matrix_csv(path, mat, header=None):
    """Row-major CSV at full decimal precision, optional '#' header line."""
    mat = np.atleast_2d(np.asarray(mat))
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        for row in mat:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
