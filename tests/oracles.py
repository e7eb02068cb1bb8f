"""Independent brute-force reference implementations used only by tests.

Everything here works with explicit loops, dense tensors or einsum and
never touches the package's code paths, so agreement between the two
routes is meaningful. The exceptions are at the end: the per-layer products
as one product with a stacked or block-diagonal copy of the layers, a
reference for the products taken layer by layer; the power method as it ran
with a fresh ``M @ v`` per step, a reference for the buffered one; and the
matrix baselines, which run the package's power method on the built
supra-adjacency and influence block matrices, as a reference for the
operators that replace them.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from multicent import ValidationError, khatri_rao_influence, matrix_perron, supra_adjacency
from multicent.baselines import (
    PERRON_MAX_ITER,
    PERRON_TOL,
    PLATEAU_WINDOW,
    PerronResult,
    _checked_matrix,
)


def dense_tensor(net):
    """The (n, n, L) dense adjacency tensor of a network."""
    A = np.zeros((net.n, net.n, net.L))
    for l, layer in enumerate(net.layers):
        A[:, :, l] = layer.toarray()
    return A


def node_sums_dense(A, x, t):
    """sum_{j,l} A[i,j,l] x_j t_l by explicit loops."""
    n, _, L = A.shape
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            for l in range(L):
                acc += A[i, j, l] * x[j] * t[l]
        out[i] = acc
    return out


def layer_sums_dense(A, x):
    """sum_{i,j} A[i,j,l] x_i x_j by explicit loops."""
    n, _, L = A.shape
    out = np.zeros(L)
    for l in range(L):
        acc = 0.0
        for i in range(n):
            for j in range(n):
                acc += A[i, j, l] * x[i] * x[j]
        out[l] = acc
    return out


def update_dense(A, x, t, alpha, beta):
    s1 = node_sums_dense(A, x, t)
    s2 = layer_sums_dense(A, x)
    f1 = np.where(s1 > 0, s1 ** (1.0 / alpha), 0.0)
    f2 = np.where(s2 > 0, s2 ** (1.0 / beta), 0.0)
    return f1, f2


def fixed_point_dense(A, alpha, beta, tol=1e-12, max_iter=50000):
    """Naive dense power iteration to the normalized fixed point."""
    n, _, L = A.shape
    x = np.full(n, 1.0 / n)
    t = np.full(L, 1.0 / L)
    for _ in range(max_iter):
        f1, f2 = update_dense(A, x, t, alpha, beta)
        x_new = f1 / f1.sum()
        t_new = f2 / f2.sum()
        rx = np.linalg.norm(x_new - x) / np.linalg.norm(x_new)
        rt = np.linalg.norm(t_new - t) / np.linalg.norm(t_new)
        x, t = x_new, t_new
        if max(rx, rt) < tol:
            break
    return x, t


def hilbert_distance_dense(x, u):
    """Reference Hilbert distance via an explicit double loop over ratios."""
    sup = [i for i in range(len(x)) if x[i] > 0]
    best_xu = max(x[i] / u[i] for i in sup)
    best_ux = max(u[j] / x[j] for j in sup)
    return np.log(best_xu * best_ux)


def isim_bruteforce(order1, order2, K):
    """Top-K intersection similarity by rebuilding prefix sets at every k."""
    total = 0.0
    for k in range(1, K + 1):
        top1 = set(int(v) for v in order1[:k])
        top2 = set(int(v) for v in order2[:k])
        total += len(top1.symmetric_difference(top2)) / (2.0 * k)
    return total / K


def perron_dense(M):
    """Dominant eigenpair of a dense symmetric matrix via full diagonalization."""
    vals, vecs = np.linalg.eigh(np.asarray(M, dtype=float))
    idx = int(np.argmax(vals))
    v = vecs[:, idx]
    if v.sum() < 0:
        v = -v
    v = np.clip(v, 0.0, None)
    return float(vals[idx]), v / v.sum()


def load_edges_loop(text, n=None, L=None, symmetrize="mirror"):
    """Reference loader: edge-list text to per-layer CSR by per-record loops.

    Sums each direction's weights in a dict in file order, reconciles every
    pair when its first low-to-high record is reached (pairs listed only
    high-to-low come last), then inserts each edge at (i, j) and (j, i).
    Returns ``(layers, messages)``: the CSR matrices and the mirror-policy
    warning texts in order. Under ``error`` a clash raises ValidationError
    with the package's message. Expects valid, non-empty input.
    """
    records = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        w = float(parts[3]) if len(parts) == 4 else 1.0
        records.append((int(parts[0]), int(parts[1]), int(parts[2]), w))
    n = max(max(a, b) for _, a, b, _ in records) if n is None else n
    L = max(layer for layer, _, _, _ in records) if L is None else L

    directed = {}
    for layer, a, b, w in records:
        directed[(layer, a, b)] = directed.get((layer, a, b), 0.0) + w
    edges, messages = [], []
    for (layer, a, b), w_ab in directed.items():
        if a > b:
            continue
        w_ba = directed.get((layer, b, a))
        if a == b or w_ba is None or w_ab == w_ba:
            edges.append((layer, a, b, w_ab))
            continue
        if symmetrize == "error":
            raise ValidationError(f"asymmetric weights for nodes {a},{b} on layer "
                                  f"{layer}: {w_ab} vs {w_ba}")
        if symmetrize == "mirror":
            messages.append(f"unequal weights for nodes {a},{b} on layer {layer} "
                            f"({w_ab} vs {w_ba}); keeping the maximum")
        edges.append((layer, a, b, max(w_ab, w_ba)))
    for (layer, a, b), w_ab in directed.items():
        if a > b and (layer, b, a) not in directed:
            edges.append((layer, b, a, w_ab))

    rows, cols, vals = ([[] for _ in range(L)] for _ in range(3))
    for layer, i, j, w in edges:
        for r, c in ((i, j), (j, i)) if i != j else ((i, j),):
            rows[layer - 1].append(r - 1)
            cols[layer - 1].append(c - 1)
            vals[layer - 1].append(w)
    layers = [sp.coo_array((vals[l], (rows[l], cols[l])), shape=(n, n)).tocsr()
              for l in range(L)]
    return layers, messages


def weighted_sums_stacked(net, x, t):
    """The solver's ``(s1, s2)`` from one product with every layer stacked
    into one (L*n)-by-n CSR: each A_l x is a block of its rows."""
    Y = (sp.vstack(net.layers, format="csr") @ x).reshape(net.L, net.n)
    return Y.T @ t, Y @ x


def block_diagonal_products(net, x):
    """[A_k x_k]_k as an (L, n) array, from one product with the block-diagonal
    matrix of the layers."""
    return (sp.block_diag(net.layers, format="csr") @ x).reshape(net.L, net.n)


def supra_product(net, x):
    """``supra_adjacency(net) @ x`` as y_l = A_l x_l + sum_k x_k - x_l, its
    products taken from the block-diagonal matrix."""
    X = x.reshape(net.L, net.n)
    return (block_diagonal_products(net, x) + (X.sum(axis=0) - X)).ravel()


def influence_product(net, W, x):
    """``khatri_rao_influence(net, W) @ x`` as W @ [A_k x_k]_k, its products
    taken from the block-diagonal matrix."""
    return (W.W @ block_diagonal_products(net, x)).ravel()


def perron_reference(M, tol: float = PERRON_TOL,
                     max_iter: int = PERRON_MAX_ITER) -> PerronResult:
    """``matrix_perron`` with a fresh ``M @ v`` at every step."""
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


def versatility_on_matrix(net, **perron):
    """Versatility (all-ones layer weights) and its flag from the Perron
    vector of the built supra-adjacency matrix."""
    pr = matrix_perron(supra_adjacency(net), **perron)
    scores = pr.vector.reshape(net.L, net.n).sum(axis=0)
    return scores / scores.sum(), pr.degenerate_warning or not pr.converged


def global_het_on_matrix(net, W, **perron):
    """Global heterogeneous columns and their flag from the Perron vector of
    the built influence block matrix."""
    pr = matrix_perron(khatri_rao_influence(net, W), **perron)
    F = pr.vector.reshape(net.L, net.n).T
    sums = F.sum(axis=0)
    return F / np.where(sums > 0, sums, 1.0), pr.degenerate_warning or not pr.converged
