"""Linear eigenvector-based multiplex centralities.

Every measure here reduces node scoring to the Perron vector of some
non-negative matrix assembled from the layers: per-layer adjacency
matrices, the aggregate, influence-weighted layer mixtures, the
influence-weighted block matrix, or the supra-adjacency matrix. They share
one plain power-method routine (uniform start, 1-norm normalization, no
shifts or deflation) and a common failure mode: on reducible matrices the
dominant eigenvector is not unique, so the score depends on the start.
That situation is detected and reported as ``degenerate_warning`` instead
of raising, because these measures are routinely computed on disconnected
data anyway; consumers decide how much to trust a flagged score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DimensionError, ValidationError
from .network import (
    InfluenceMatrix,
    MultiplexNetwork,
    _check_omega,
    _weighted_layer_sum,
    aggregate_matrix,
    khatri_rao_influence,
    supra_adjacency,
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


def matrix_perron(M, tol: float = PERRON_TOL, max_iter: int = PERRON_MAX_ITER,
                  plateau_window: int = PLATEAU_WINDOW) -> PerronResult:
    """Power iteration for the Perron pair of a non-negative square matrix.

    Starts from the uniform positive vector, renormalizes in the 1-norm
    each step, and stops once the eigen-residual ||Mv - value*v||_inf falls
    below ``tol * value``. The value estimate is the Rayleigh quotient.
    """
    M = sp.csr_array(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {M.shape}")
    if M.nnz:
        if not np.all(np.isfinite(M.data)):
            raise ValidationError("matrix has non-finite entries")
        if np.any(M.data < 0):
            raise ValidationError("matrix has negative entries")
    M = M.copy()
    M.eliminate_zeros()
    if M.nnz == 0:
        raise ValidationError("matrix is identically zero")

    ncomp, _ = connected_components(M, directed=True, connection="strong")
    degenerate = bool(ncomp > 1)

    n = M.shape[0]
    v = np.full(n, 1.0 / n)
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
        res = float(np.max(np.abs(w - value * v)))
        residuals.append(res)
        if res <= tol * value:
            converged = True
            break
        if (len(residuals) > plateau_window
                and res > tol * value
                and res > 0.99 * residuals[-plateau_window - 1]):
            degenerate = True
        v = w / total
    return PerronResult(value=value, vector=v, converged=converged,
                        degenerate_warning=degenerate, iterations=iterations)


def layer_eigenvectors(net: MultiplexNetwork, tol: float = PERRON_TOL,
                       max_iter: int = PERRON_MAX_ITER) -> CentralityMatrix:
    """Column l = Perron vector of layer l alone; empty layers give zero columns."""
    return _perron_columns(net, net.layers, "layer_eigenvectors", tol, max_iter)


def _perron_columns(net, matrices, measure_name, tol, max_iter) -> CentralityMatrix:
    """Column l = Perron vector of the l-th of the L matrices; an empty one
    gives a zero column flagged degenerate."""
    cols = np.zeros((net.n, net.L))
    flags = []
    for l, A in enumerate(matrices):
        if A.nnz == 0:
            flags.append(True)
            continue
        pr = matrix_perron(A, tol=tol, max_iter=max_iter)
        cols[:, l] = pr.vector
        flags.append(pr.degenerate_warning or not pr.converged)
    return CentralityMatrix(matrix=cols, measure_name=measure_name,
                            column_degenerate=tuple(flags))


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
    w = _check_omega(omega, net.L)
    pr = matrix_perron(aggregate_matrix(net, w), tol=tol, max_iter=max_iter)
    return ScoreResult(measure_name="agg_eig", scores=pr.vector,
                       degenerate_warning=pr.degenerate_warning or not pr.converged)


def local_heterogeneous_centrality(net: MultiplexNetwork, W: InfluenceMatrix,
                                   tol: float = PERRON_TOL,
                                   max_iter: int = PERRON_MAX_ITER) -> CentralityMatrix:
    """Column l = Perron vector of the influence mixture sum_k W[l,k] A_k.

    W = I reproduces the per-layer eigenvectors; W = all-ones makes every
    column the aggregate eigenvector.
    """
    if W.L != net.L:
        raise DimensionError(f"influence matrix side {W.L} does not match layer count {net.L}")
    if np.any(W.W.sum(axis=1) == 0):
        raise ValidationError("influence matrix has a zero row (empty layer mixture)")
    mixtures = (_weighted_layer_sum(net, W.W[l]) for l in range(net.L))
    return _perron_columns(net, mixtures, "local_het", tol, max_iter)


def global_heterogeneous_centrality(net: MultiplexNetwork, W: InfluenceMatrix,
                                    tol: float = PERRON_TOL,
                                    max_iter: int = PERRON_MAX_ITER) -> CentralityMatrix:
    """Perron vector of the influence block matrix, reshaped to one column per layer."""
    K = khatri_rao_influence(net, W)
    if K.nnz == 0:
        raise ValidationError("influence block matrix is identically zero")
    pr = matrix_perron(K, tol=tol, max_iter=max_iter)
    F = pr.vector.reshape((net.L, net.n)).T
    cols = np.column_stack([_normalized(f) for f in F.T])
    flag = pr.degenerate_warning or not pr.converged
    return CentralityMatrix(matrix=cols, measure_name="global_het",
                            column_degenerate=(flag,) * net.L)


def versatility_centrality(net: MultiplexNetwork, omega=None,
                           tol: float = PERRON_TOL,
                           max_iter: int = PERRON_MAX_ITER) -> ScoreResult:
    """Node scores from the Perron vector of the supra-adjacency matrix.

    The nL-vector is reshaped to one column per layer and aggregated with
    the weights ``omega`` (default all ones). Unique exactly when the
    aggregate graph is connected, which coincides with the supra-adjacency
    matrix being irreducible; otherwise the result is start-dependent and
    flagged.
    """
    w = _check_omega(omega, net.L)
    pr = matrix_perron(supra_adjacency(net), tol=tol, max_iter=max_iter)
    F = pr.vector.reshape((net.L, net.n)).T
    return ScoreResult(measure_name="eig_ver", scores=_normalized(F @ w),
                       degenerate_warning=pr.degenerate_warning or not pr.converged)


def aggregate_degree_centrality(net: MultiplexNetwork) -> ScoreResult:
    """Total incident weight across layers, normalized to sum 1. Always well defined."""
    return ScoreResult(measure_name="agg_deg",
                       scores=_normalized(net.node_strengths),
                       degenerate_warning=False)

