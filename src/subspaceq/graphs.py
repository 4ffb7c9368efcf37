"""Topologies, subspace bases, combination matrices, and smooth targets.

The network is an undirected connected graph whose agents each hold a block of
the stacked parameter vector. A semi-unitary basis U spans the feasible
subspace; a combination matrix A mixes neighbor blocks while leaving Range(U)
invariant from both sides (A U = U, U^T A = U^T) and contracting everything
orthogonal to it (rho(A - U U^T) < 1).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

TOL_CONSTRAINT = 1e-8   # AU = U, U^T A = U^T residuals
TOL_ORTHO = 1e-10       # basis orthonormality
CONNECT_RETRY_BUDGET = 100
_DENSE_BLOCK = 2**17    # entries per block of rows of a transient dense matrix

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
]


class NotConnected(ValueError):
    """Graph has more than one connected component."""


class InvalidEdgeList(ValueError):
    """Edge list with out-of-range agent indices or a malformed line."""


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
    """Undirected connected graph on agents 0..n-1, held as its edge list in
    O(edges) memory. The neighbourhoods are built on first read and kept;
    the dense 0/1 matrix (edge_weights) is built on every read. The
    simulation loop reads neither."""

    n: int
    links: np.ndarray             # (2, 2E): each edge as (k, j) and (j, k), by k then j

    @functools.cached_property
    def neighborhoods(self) -> tuple:
        """Per-agent frozenset of neighbours, always containing the agent."""
        cols = self.links[1].tolist()
        starts = np.searchsorted(self.links[0], np.arange(self.n + 1)).tolist()
        return tuple(frozenset(cols[starts[k]:starts[k + 1]]) | {k}
                     for k in range(self.n))

    def degree(self, k) -> int:
        return len(self.neighborhoods[k])

    @property
    def edge_weights(self) -> np.ndarray:
        """Symmetric 0/1 link indicator, zero diagonal; a new (n, n) array
        each read."""
        w = np.zeros((self.n, self.n))
        w[self.links[0], self.links[1]] = 1.0
        return w

    def neighbor_index(self) -> tuple:
        """Each agent's neighbourhood, the agent included, in ascending
        order as an (n, d_max) index padded at the end with the agent
        itself; and the neighbourhood sizes, (n,)."""
        n = self.n
        keys = np.concatenate([self.links[0] * n + self.links[1],
                               np.arange(n) * (n + 1)])
        keys.sort()
        rows, cols = np.divmod(keys, n)
        sizes = np.bincount(rows, minlength=n)
        index = np.repeat(np.arange(n)[:, None], sizes.max(), axis=1)
        index[rows, np.arange(keys.size) - (np.cumsum(sizes) - sizes)[rows]] = cols
        return index, sizes


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    u: np.ndarray                 # M x P, semi-unitary
    block_dims: tuple
    p: int

    def __post_init__(self):
        m = self.u.shape[0]
        if sum(self.block_dims) != m:
            raise ValueError("block dimensions do not sum to the basis rows")
        if not self.p <= m:
            raise ValueError("subspace dimension must not exceed the ambient one")
        gram = self.u.T @ self.u
        # a NaN fails the comparison, so it fails the check
        if not np.max(np.abs(gram - np.eye(self.p))) <= TOL_ORTHO:
            raise ValueError("basis is not semi-unitary")

    @property
    def m(self) -> int:
        return self.u.shape[0]


class MinorSpectrum(NamedTuple):
    """What the checks of a combination matrix A against a basis U read:
    the largest entry of A U - U and U^T A - U^T, and the eigenvalues of
    A - U U^T, from eigvalsh when that matrix equals its transpose exactly
    (``symmetric``), else from eigvals."""

    residual: float
    eigenvalues: np.ndarray
    symmetric: bool

    @property
    def rho(self) -> float:
        """rho(A - U U^T)."""
        return float(np.max(np.abs(self.eigenvalues)))


@dataclass(frozen=True, eq=False)
class CombinationMatrix:
    """Combination matrix A, held as its neighbour table in O(n d_max)
    memory, since block (k, j) of A is zero unless j neighbours k.

    ``index`` holds each agent's neighbours in ascending order, padded at
    the end with the agent itself to the largest neighbourhood size d_max,
    as Topology.neighbor_index gives it; ``weights`` holds A there, zero at
    the padding: the scalar W, (n, d_max), when A = W kron I_l
    (``factored``), else l x l blocks, (n, d_max, l, l). Both are stored as
    read-only views. ``matrix``, what checks read (W when factored, else
    A), and ``a``, the dense A, are new arrays on every read; a factored
    matrix keeps its ``minor_spectrum`` once read.
    """

    topology: Topology
    block_dims: tuple
    index: np.ndarray             # (n, d_max) neighbour agents
    weights: np.ndarray           # (n, d_max) W, or (n, d_max, l, l) blocks

    def __post_init__(self):
        for name in ("index", "weights"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __reduce__(self):
        # a copy is built through __init__, so its table is read-only too
        return type(self), (self.topology, self.block_dims, self.index,
                            self.weights)

    @property
    def factored(self) -> bool:
        return self.weights.ndim == 2

    @functools.cached_property
    def minor_spectrum(self) -> MinorSpectrum:
        """The checks of a factored W kron I_l, taken on W against the
        scalar consensus basis (see reduced_problem): one eigensolve of
        W - 11^T/n, on first read. ValueError for a matrix of blocks, whose
        spectrum depends on its basis."""
        if not self.factored:
            raise ValueError("only a factored combination matrix keeps its "
                             "minor spectrum")
        return _minor_spectrum(self.matrix,
                               subspace_consensus(self.topology.n, 1).u)

    @property
    def matrix(self) -> np.ndarray:
        """The n x n W when factored, else the dense M x M A."""
        table = _table_dense(self.topology.n, self.index, self.weights,
                             _real_slots(self.index))
        if self.factored:
            return table
        n, _, l, _ = table.shape
        return table.transpose(0, 2, 1, 3).reshape(n * l, n * l)

    @property
    def a(self) -> np.ndarray:
        """The dense M x M matrix."""
        if self.factored:
            return np.kron(self.matrix, np.eye(self.block_dims[0]))
        return self.matrix

    @classmethod
    def from_dense(cls, a, topology: Topology, block_dims) -> "CombinationMatrix":
        """The block table of a dense M x M matrix a with one block size;
        ValueError names the first nonzero block the table cannot hold."""
        n, l = topology.n, block_dims[0]
        if any(d != l for d in block_dims) or np.shape(a) != (n * l, n * l):
            raise ValueError("a dense combination matrix needs n blocks of one size")
        blocks = np.asarray(a, dtype=float).reshape(n, l, n, l).transpose(0, 2, 1, 3)
        outside = np.any(blocks != 0.0, axis=(2, 3)) & (
            topology.edge_weights + np.eye(n) == 0.0)
        if outside.any():
            k, j = np.argwhere(outside)[0]
            raise ValueError(f"nonzero block ({k}, {j}) outside the neighbourhoods")
        index, _ = topology.neighbor_index()
        real = _real_slots(index)[:, :, None, None]
        return cls(topology, tuple(block_dims), index,
                   np.where(real, blocks[np.arange(n)[:, None], index], 0.0))


def _real_slots(index) -> np.ndarray:
    """Mask of the slots of a neighbour table that name a neighbour: an
    agent's first slot holding itself is its own, later ones are padding."""
    own = index == np.arange(index.shape[0])[:, None]
    return ~own | (np.cumsum(own, axis=1) == 1)


def _table_dense(n, index, weights, slots) -> np.ndarray:
    """The dense (rows, n) array of scalars, or (rows, n, l, l) of blocks,
    holding weights[r, m] at column index[r, m] for the slots marked; a row
    marks distinct columns, so the one fancy assignment is well defined."""
    out = np.zeros((index.shape[0], n) + weights.shape[2:])
    r, m = np.nonzero(slots)
    out[r, index[r, m]] = weights[r, m]
    return out


# ---------------------------------------------------------------------------
# topologies

def _from_edges(n, i, j):
    """Topology of the undirected 0-indexed edges (i[e], j[e]); self-loops
    and repeated edges are allowed and ignored."""
    off = i != j
    i, j = i[off], j[off]
    keys = np.unique(np.concatenate([i * n + j, j * n + i]))
    links = np.stack(np.divmod(keys, n))
    ncomp = _components(n, links)
    if ncomp != 1:
        raise NotConnected(f"{ncomp} components")
    return Topology(n, links)


def _components(n, links) -> int:
    """Number of connected components of the graph on n agents with links
    (2, 2E), each edge in both directions. Every agent points to an agent
    of its component no higher than itself, a root to itself. Each round
    hooks every root onto the lowest root its members link to, then moves
    every pointer to its root; a round that moves nothing leaves one root
    per component, its lowest agent."""
    labels = np.arange(n)
    while True:
        low = labels.copy()
        np.minimum.at(low, labels[links[0]], labels[links[1]])
        while not np.array_equal(low[low], low):
            low = low[low]
        if np.array_equal(low, labels):
            return int(np.count_nonzero(labels == np.arange(n)))
        labels = low


def build_topology(n, connectivity, seed=None) -> Topology:
    """Connected undirected topology with self-loops.

    ``connectivity`` is either an edge probability in (0, 1], in which case
    independent links are drawn and redrawn (up to a fixed retry budget) until
    the graph is connected, or an explicit edge list of 1-indexed pairs.
    """
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"agent count n must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValueError("need at least one agent")
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
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                k, j = (int(t) for t in line.split())
            except ValueError:
                raise InvalidEdgeList(f"{path}, line {number}: expected two "
                                      f"integer agent indices, got {line!r}") from None
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
    c = np.zeros((topology.n, topology.n))
    c[topology.links[0], topology.links[1]] = uniform_weight
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


def _eigenvalues(mat) -> tuple:
    """(eigenvalues, symmetric): the symmetric solver when mat == mat^T
    exactly, else the general one."""
    symmetric = bool(np.array_equal(mat, mat.T))
    if symmetric:
        return np.linalg.eigvalsh(mat), symmetric
    return np.linalg.eigvals(mat), symmetric


def spectral_radius(mat) -> float:
    """Largest eigenvalue modulus; the symmetric solver when mat == mat^T."""
    return float(np.max(np.abs(_eigenvalues(np.asarray(mat))[0])))


# ---------------------------------------------------------------------------
# combination matrices

def metropolis_weights(topology: Topology) -> np.ndarray:
    """Doubly stochastic scalar weights 1/max(|N_k|, |N_l|) off the diagonal,
    dense (n, n)."""
    index, weights = _metropolis_table(topology)
    return _table_dense(topology.n, index, weights, _real_slots(index))


def _metropolis_table(topology: Topology) -> tuple:
    """The Metropolis weights as the table of a factored CombinationMatrix:
    (index, weights) over Topology.neighbor_index. Each diagonal weight is
    1 minus its dense row's off-diagonal sum: numpy sums a row pairwise,
    in an order set by the column positions, so the rows are built dense,
    a block of them at a time."""
    index, sizes = topology.neighbor_index()
    n = topology.n
    rows = np.arange(n)[:, None]
    off = index != rows       # the padding holds the agent itself
    weights = np.where(off, 1.0 / np.maximum(sizes[:, None], sizes[index]), 0.0)
    diag = np.empty(n)
    block = max(1, _DENSE_BLOCK // n)
    for start in range(0, n, block):
        part = slice(start, start + block)
        diag[part] = 1.0 - _table_dense(n, index[part], weights[part],
                                        off[part]).sum(axis=1)
    # an agent's first slot holding itself is its own; later ones are padding
    weights[rows[:, 0], np.argmax(index == rows, axis=1)] = diag
    return index, weights


def _is_consensus_basis(basis: SubspaceBasis) -> bool:
    l = basis.block_dims[0]
    if any(d != l for d in basis.block_dims) or basis.p != l:
        return False
    n = len(basis.block_dims)
    ref = np.kron(np.full((n, 1), 1.0 / np.sqrt(n)), np.eye(l))
    return np.allclose(basis.u, ref, atol=1e-12)


def _constrained_lsq(topology, basis):
    # minimize ||A - P_U||_F^2 over the blocks of the neighbour table,
    # row-major, subject to A U = U and U^T A = U^T, via a lightly
    # regularized sparse KKT system; scipy.sparse is imported on this path
    # only, so that a process that never fits does not load it (1.6 MB)
    import scipy.sparse as sp

    u = basis.u
    m, p = u.shape
    l = basis.block_dims[0]
    if any(d != l for d in basis.block_dims):
        raise ValueError("subspace-lsq needs one block size for every agent")
    index, _ = topology.neighbor_index()
    k, slot = np.nonzero(_real_slots(index))
    within_row, within_col = np.divmod(np.arange(l * l), l)
    free_rows = (k[:, None] * l + within_row).ravel()
    free_cols = (index[k, slot][:, None] * l + within_col).ravel()
    nv = free_rows.size

    target = (u @ u.T)[free_rows, free_cols]

    # entry e = (i, j) touches the constraint rows (i, q) of A U = U, then
    # the rows (j, q) of U^T A = U^T, for every basis column q
    cp = np.arange(p)
    rows = np.stack([free_rows[:, None] * p + cp,
                     m * p + free_cols[:, None] * p + cp], axis=1)
    vals = np.stack([u[free_cols], u[free_rows]], axis=1)
    entries = np.repeat(np.arange(nv), 2 * p)
    C = sp.csr_matrix((vals.ravel(), (rows.ravel(), entries)), shape=(2 * m * p, nv))
    d = np.concatenate([u.ravel(), u.ravel()])

    # KKT with a tiny dual regularization; redundant constraints stay consistent
    kkt = sp.bmat([[sp.eye(nv), C.T], [C, -1e-12 * sp.eye(2 * m * p)]], format="csc")
    a_free = sp.linalg.spsolve(kkt, np.concatenate([target, d]))[:nv]

    if np.max(np.abs(C @ a_free - d)) > TOL_CONSTRAINT:
        raise InfeasibleConstraints("sparsity pattern cannot hold the subspace fixed")
    weights = np.zeros(index.shape + (l, l))
    weights[k, slot] = a_free.reshape(-1, l, l)
    return index, weights


def _require_finite(a):
    """InfeasibleConstraints naming the first non-finite entry of a."""
    bad = ~np.isfinite(a)
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise InfeasibleConstraints(
            f"combination matrix entry ({k}, {j}) is {a[k, j]}, not finite")


def _minor_spectrum(a, u) -> MinorSpectrum:
    """The residual and spectrum every check of A against U reads; a
    non-finite A is rejected before any solve."""
    _require_finite(a)
    residual = max(np.max(np.abs(a @ u - u)), np.max(np.abs(u.T @ a - u.T)))
    lam, symmetric = _eigenvalues(a - u @ u.T)
    lam.flags.writeable = False
    return MinorSpectrum(float(residual), lam, symmetric)


def _checked(spectrum: MinorSpectrum) -> dict:
    """``{"residual": ..., "rho": ...}`` of a spectrum that passes the
    checks; a NaN fails each comparison, so it fails the checks."""
    residual = spectrum.residual
    if not residual <= TOL_CONSTRAINT:
        raise InfeasibleConstraints(f"subspace condition residual {residual:.3e}")
    rho = spectrum.rho
    if not rho < 1.0 - 1e-6:
        raise SpectralViolation(f"rho(A - P_U) = {rho:.8f}")
    return {"residual": residual, "rho": rho}


def validate_combination(a, topology, basis) -> dict:
    """Check the subspace eigen-conditions and the contraction off-subspace.

    Returns ``{"residual": ..., "rho": ...}``; raises InfeasibleConstraints if
    a has a non-finite entry or either A U = U or U^T A = U^T fails beyond
    tolerance, SpectralViolation if rho(A - P_U) is not strictly below one.
    """
    return _checked(_minor_spectrum(np.asarray(a), basis.u))


def reduced_problem(comb: CombinationMatrix, basis: SubspaceBasis) -> tuple:
    """The (matrix, basis) pair on which to check a combination matrix.

    A factored consensus matrix W kron I_l is checked as W against the scalar
    consensus basis: the residuals are the same numbers and the spectrum of
    W kron I_l - P_U is that of W - 11^T/n, each eigenvalue repeated l times.
    A matrix of l x l blocks is checked as the dense A, against its basis.
    InfeasibleConstraints names a non-finite entry.
    """
    matrix = comb.matrix
    _require_finite(matrix)
    if comb.factored:
        return matrix, subspace_consensus(comb.topology.n, 1)
    return matrix, basis


def build_combination(topology, basis, mode="subspace-lsq") -> CombinationMatrix:
    """Combination matrix with the topology's sparsity satisfying the
    subspace eigen-conditions.

    mode "consensus-metropolis" requires the consensus basis and keeps the
    doubly stochastic scalar weights W, factored (A = W kron I_l); mode
    "subspace-lsq" fits the l x l blocks closest to the projector P_U over
    the sparsity pattern subject to A U = U and U^T A = U^T, for any basis.
    """
    if mode == "consensus-metropolis":
        if not _is_consensus_basis(basis):
            raise ValueError("consensus-metropolis needs the consensus basis")
        comb = CombinationMatrix(topology, tuple(basis.block_dims),
                                 *_metropolis_table(topology))
    elif mode == "subspace-lsq":
        comb = CombinationMatrix(topology, tuple(basis.block_dims),
                                 *_constrained_lsq(topology, basis))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if comb.factored:
        _checked(comb.minor_spectrum)
    else:
        validate_combination(comb.matrix, topology, basis)
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
