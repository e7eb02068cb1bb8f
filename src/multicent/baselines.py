"""Linear eigenvector-based multiplex centralities.

Every measure here reduces node scoring to the Perron vector of some
non-negative matrix assembled from the layers: per-layer adjacency
matrices, the aggregate, influence-weighted layer mixtures, the
influence-weighted block matrix, or the supra-adjacency matrix (these two
are applied as operators; the first is built, only to check it, when W has a
zero or a product rounds to 0 or inf). They share one plain power-method
routine (uniform start, 1-norm normalization, no shifts or deflation) and
a common failure mode: on reducible matrices the dominant eigenvector is
not unique, so the score depends on the start.
That situation is detected and reported as ``degenerate_warning`` instead
of raising, because these measures are routinely computed on disconnected
data anyway; consumers decide how much to trust a flagged score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec  # B @ x into a given buffer: no public form
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator

from .errors import DimensionError, ValidationError
from .network import (
    InfluenceMatrix,
    MultiplexNetwork,
    _check_influence_side,
    _check_omega,
    _nonnegative_csr,
    _weighted_layer_sum,
    aggregate_matrix,
    connectivity,
    khatri_rao_influence,
    supra_adjacency,  # noqa: F401  the built matrix the supra operator applies
)

PERRON_TOL = 1e-10
PERRON_MAX_ITER = 10_000
PLATEAU_WINDOW = 50


@dataclass
class PerronResult:
    """Dominant eigenpair estimate from the power method.

    ``degenerate_warning`` is set when the matrix's graph is not strongly
    connected (the eigenvector is provably not unique) or when the residual
    plateaus above tolerance for a long window, which is the behavioral
    signature of a non-simple or non-dominant peripheral eigenvalue.
    """

    value: float
    vector: np.ndarray
    converged: bool
    degenerate_warning: bool
    iterations: int


@dataclass
class CentralityMatrix:
    """Per-context node scores, one 1-norm-normalized column per layer/context."""

    matrix: np.ndarray
    measure_name: str
    column_degenerate: tuple

    @property
    def degenerate_warning(self) -> bool:
        return any(self.column_degenerate)


@dataclass
class ScoreResult:
    """A single node score vector with its degeneracy flag."""

    measure_name: str
    scores: np.ndarray
    degenerate_warning: bool


def _checked_matrix(M, what: str = "matrix") -> tuple[sp.csr_array, bool]:
    """``M`` validated as a canonical CSR without stored zeros, and whether its
    graph is not strongly connected (its Perron vector is then not unique)."""
    M = _nonnegative_csr(M, what)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {M.shape}")
    if M.nnz == 0:
        raise ValidationError(f"{what} is identically zero")
    ncomp, _ = connected_components(M, directed=True, connection="strong")
    return M, bool(ncomp > 1)


def matrix_perron(M, tol: float = PERRON_TOL,
                  max_iter: int = PERRON_MAX_ITER) -> PerronResult:
    """Power iteration for the Perron pair of a non-negative square matrix.

    Starts from the uniform positive vector, renormalizes in the 1-norm
    each step, and stops once the eigen-residual ||Mv - value*v||_inf falls
    below ``tol * value``. The value estimate is the Rayleigh quotient.
    A residual that has not dropped by 1% over the last ``PLATEAU_WINDOW``
    steps is a plateau, and flags the result degenerate.

    A ``LinearOperator`` is applied unchecked; its flag then reports only the
    plateau and nilpotent cases, and the caller adds the structural one.
    """
    degenerate = False
    if not isinstance(M, LinearOperator):
        M, degenerate = _checked_matrix(M)

    n = M.shape[0]
    v, r = np.full(n, 1.0 / n), np.empty(n)  # each step overwrites both
    residuals: list[float] = []
    value = 0.0
    converged = False
    iterations = 0
    for k in range(1, max_iter + 1):
        iterations = k
        w = M @ v
        total = w.sum()
        if total == 0:
            # v is an exact eigenvector for eigenvalue 0 (nilpotent direction)
            value = 0.0
            converged = True
            degenerate = True
            break
        value = float(v @ w / (v @ v))
        np.subtract(w, np.multiply(v, value, out=r), out=r)  # w - value * v
        res = float(np.abs(r, out=r).max())
        residuals.append(res)
        if res <= tol * value:
            converged = True
            break
        if (len(residuals) > PLATEAU_WINDOW
                and res > tol * value
                and res > 0.99 * residuals[-PLATEAU_WINDOW - 1]):
            degenerate = True
        v = np.divide(w, total, out=v)
    return PerronResult(value=value, vector=v, converged=converged,
                        degenerate_warning=degenerate, iterations=iterations)


def layer_eigenvectors(net: MultiplexNetwork, tol: float = PERRON_TOL,
                       max_iter: int = PERRON_MAX_ITER) -> CentralityMatrix:
    """Column l = Perron vector of layer l alone; empty layers give zero columns."""
    return _perron_columns(net, net.layers, range(net.L), "layer_eigenvectors", tol, max_iter)


def _perron_columns(net, matrices, which, measure_name, tol, max_iter) -> CentralityMatrix:
    """Column l = Perron vector of matrix ``which[l]``; an empty one gives zeros, flagged."""
    cols, flags = [], []
    for A in matrices:
        pr = matrix_perron(A, tol=tol, max_iter=max_iter) if A.nnz else None
        cols.append(np.zeros(net.n) if pr is None else pr.vector)
        flags.append(pr is None or pr.degenerate_warning or not pr.converged)
    return CentralityMatrix(matrix=np.column_stack([cols[r] for r in which]),
                            measure_name=measure_name,
                            column_degenerate=tuple(flags[r] for r in which))


def _layer_products(net: MultiplexNetwork):
    """The block-diagonal product x -> [A_k x_k]_k, as an (L, n) array that
    each call overwrites. The block operators below also return buffers of
    their own, so a Perron step maps no fresh nL-vector, whose pages would all
    fault in again at every step."""
    B = sp.block_diag(net.layers, format="csr")
    P = np.empty((net.L, net.n))

    def products(x):
        P.fill(0.0)  # csr_matvec adds B @ x to P
        csr_matvec(*B.shape, B.indptr, B.indices, B.data, x, P.ravel())
        return P
    return products


def _supra_operator(net: MultiplexNetwork) -> LinearOperator:
    """x -> ``supra_adjacency(net) @ x``, as y_l = A_l x_l + sum_k x_k - x_l."""
    products, D = _layer_products(net), np.empty((net.L, net.n))

    def matvec(x):
        X = x.reshape(net.L, net.n)
        P = products(x)
        return np.add(P, np.subtract(X.sum(axis=0), X, out=D), out=P).ravel()
    return LinearOperator((net.L * net.n,) * 2, matvec=matvec, dtype=float)


def _influence_operator(net: MultiplexNetwork, W: InfluenceMatrix) -> LinearOperator:
    """x -> ``khatri_rao_influence(net, W) @ x``, as W @ [A_k x_k]_k."""
    products, out = _layer_products(net), np.empty((net.L, net.n))
    return LinearOperator((net.L * net.n,) * 2, dtype=float,
                          matvec=lambda x: np.matmul(W.W, products(x), out=out).ravel())


def _normalized(v: np.ndarray) -> np.ndarray:
    s = v.sum()
    return v / s if s > 0 else v.copy()


def layerwise_eigenvector_centrality(net: MultiplexNetwork, omega=None,
                                     tol: float = PERRON_TOL,
                                     max_iter: int = PERRON_MAX_ITER) -> ScoreResult:
    """Weighted sum over layers of the per-layer Perron vectors (Q omega)."""
    w = _check_omega(omega, net.L)
    Q = layer_eigenvectors(net, tol=tol, max_iter=max_iter)
    return ScoreResult(measure_name="eig_cen",
                       scores=_normalized(Q.matrix @ w),
                       degenerate_warning=Q.degenerate_warning)


def aggregate_eigenvector_centrality(net: MultiplexNetwork, omega=None,
                                     tol: float = PERRON_TOL,
                                     max_iter: int = PERRON_MAX_ITER) -> ScoreResult:
    """Perron vector of the weighted aggregate matrix sum_l omega_l A_l."""
    pr = matrix_perron(aggregate_matrix(net, omega), tol=tol, max_iter=max_iter)
    return ScoreResult(measure_name="agg_eig", scores=pr.vector,
                       degenerate_warning=pr.degenerate_warning or not pr.converged)


def local_heterogeneous_centrality(net: MultiplexNetwork, W: InfluenceMatrix,
                                   tol: float = PERRON_TOL,
                                   max_iter: int = PERRON_MAX_ITER) -> CentralityMatrix:
    """Column l = Perron vector of the influence mixture sum_k W[l,k] A_k.

    W = I reproduces the per-layer eigenvectors; W = all-ones makes every
    column the aggregate eigenvector. Equal rows share one solve.
    """
    _check_influence_side(net, W)
    if np.any(W.W.sum(axis=1) == 0):
        raise ValidationError("influence matrix has a zero row (empty layer mixture)")
    rows, which = np.unique(W.W, axis=0, return_inverse=True)
    mixtures = (_weighted_layer_sum(net, r) for r in rows)
    return _perron_columns(net, mixtures, which.ravel(), "local_het", tol, max_iter)


def _influence_reducible(net: MultiplexNetwork, W: InfluenceMatrix) -> bool:
    """Whether ``khatri_rao_influence(net, W)`` is not strongly connected.

    If ``W`` has no zero and no product ``W[l, k] * a`` with a weight ``a`` of
    layer k rounds to 0 or overflows (rounding is monotone, so the extreme
    values decide), block (l, k) has the pattern of A_k for every l. Then the
    matrix is irreducible exactly when every node has an edge in every layer
    and the aggregate is connected. Otherwise, or without edges, it is built.
    """
    _check_influence_side(net, W)
    used = [k for k, A in enumerate(net.layers) if A.nnz]
    if used and W.W.min() > 0:
        with np.errstate(over="ignore"):
            low = W.W[:, used].min(axis=0) * [net.layers[k].data.min() for k in used]
            high = W.W[:, used].max(axis=0) * [net.layers[k].data.max() for k in used]
        if np.all(low > 0) and np.all(np.isfinite(high)):
            return (any(np.any(np.diff(A.indptr) == 0) for A in net.layers)
                    or not connectivity(net).aggregate_connected)
    return _checked_matrix(khatri_rao_influence(net, W), "influence block matrix")[1]


def global_heterogeneous_centrality(net: MultiplexNetwork, W: InfluenceMatrix,
                                    tol: float = PERRON_TOL,
                                    max_iter: int = PERRON_MAX_ITER) -> CentralityMatrix:
    """Perron vector of the influence block matrix, reshaped to one column per layer.

    The matrix is applied as ``W @ [A_k v_k]_k``. It is built, only to check
    it, when ``W`` has a zero, the network no edge, or a product with a weight
    rounds to 0 or overflows.
    """
    reducible = _influence_reducible(net, W)
    pr = matrix_perron(_influence_operator(net, W), tol=tol, max_iter=max_iter)
    cols = np.column_stack([_normalized(f) for f in pr.vector.reshape(net.L, net.n)])
    flag = pr.degenerate_warning or reducible or not pr.converged
    return CentralityMatrix(matrix=cols, measure_name="global_het",
                            column_degenerate=(flag,) * net.L)


def versatility_centrality(net: MultiplexNetwork, omega=None,
                           tol: float = PERRON_TOL,
                           max_iter: int = PERRON_MAX_ITER) -> ScoreResult:
    """Node scores from the Perron vector of the supra-adjacency matrix.

    Applied as ``y_l = A_l v_l + sum_k v_k - v_l``, never built; the
    nL-vector is reshaped to one column per layer and aggregated with the
    weights ``omega`` (default all ones). Unique exactly when the aggregate
    graph is connected, which coincides with the supra-adjacency matrix
    being irreducible; otherwise the result is start-dependent and flagged.
    """
    w = _check_omega(omega, net.L)
    if net.L == 1 and net.layers[0].nnz == 0:
        raise ValidationError("matrix is identically zero")
    pr = matrix_perron(_supra_operator(net), tol=tol, max_iter=max_iter)
    F = pr.vector.reshape(net.L, net.n).T
    reducible = not connectivity(net).aggregate_connected
    return ScoreResult(measure_name="eig_ver", scores=_normalized(F @ w),
                       degenerate_warning=pr.degenerate_warning or reducible or not pr.converged)


def aggregate_degree_centrality(net: MultiplexNetwork) -> ScoreResult:
    """Total incident weight across layers, normalized to sum 1. Always well defined."""
    return ScoreResult(measure_name="agg_deg",
                       scores=_normalized(net.node_strengths),
                       degenerate_warning=False)

