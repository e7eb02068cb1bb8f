"""Data model for undirected weighted multiplex networks.

A multiplex is a collection of L undirected graphs (the layers) sharing one
set of n nodes, with every node implicitly identified with its copies on the
other layers. Layers are stored as sparse symmetric non-negative matrices, the
one copy of the weights: products with all layers take them one at a time
(:func:`_products_into`). The aggregate and block matrices are built from them
here; the baselines apply the block matrices as operators instead.

External interfaces (edge records, permutations) use 1-based node and layer
indices, matching the common edge-list file convention. Everything stored on
a :class:`MultiplexNetwork` is 0-based.

Networks are never modified after construction: build one, then share it
freely across threads. A canonical CSR layer passed in is stored as given,
sharing the caller's arrays, so the caller must not write to it afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec  # A @ x into a given buffer: no public form
from scipy.sparse.csgraph import connected_components

from .errors import DimensionError, ValidationError


def _nonnegative_csr(mat, what: str) -> sp.csr_array:
    """``mat`` as a canonical CSR with finite non-negative entries and no stored
    zeros; entries stored twice count as their sum. A copy is made only to mend
    ``mat``, so the caller's arrays are never written."""
    A = sp.csr_array(mat)
    if not (A.has_canonical_format and np.all(A.data)):
        A = A.copy()
        A.sum_duplicates()
        A.eliminate_zeros()
    if not np.all(np.isfinite(A.data)):
        raise ValidationError(f"{what} has non-finite entries")
    if np.any(A.data < 0):
        raise ValidationError(f"{what} has negative entries")
    return A


def _as_layer_matrix(mat, n: int, which: int) -> sp.csr_array:
    """One layer as a validated CSR that is exactly symmetric."""
    A = _nonnegative_csr(mat, f"layer {which}")
    if A.shape != (n, n):
        raise DimensionError(f"layer {which}: expected shape ({n}, {n}), got {A.shape}")
    T = A.T.tocsr()  # canonical too, so equal arrays mean equal matrices
    if not all(np.array_equal(getattr(A, k), getattr(T, k))
               for k in ("indptr", "indices", "data")):
        raise ValidationError(f"layer {which}: matrix is not exactly symmetric")
    return A


def _products_into(matrices, xs, out):
    """Adds ``matrices[l] @ xs[l]`` to row l of ``out`` and returns ``out``, each row
    summed in the stored order that ``@`` sums it in. Integer data is cast to the
    float of ``out`` at every call, in a temporary the size of that matrix's data."""
    for A, x, y in zip(matrices, xs, out):
        csr_matvec(*A.shape, A.indptr, A.indices, A.data, x, y)
    return out


def _check_counts(n, L) -> None:
    for what, count in (("node", n), ("layer", L)):
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise ValidationError(f"{what} count must be a positive integer, got {count!r}")


@dataclass
class MultiplexNetwork:
    """An undirected weighted multiplex on n shared nodes and L layers.

    ``layers[l]`` is the n-by-n sparse symmetric adjacency matrix of layer l (0-based),
    and no stacked copy of the layers is kept. Weights are finite and strictly positive;
    structural zeros are never stored. Optional label lists must have lengths n and L.
    A canonical CSR layer passed in is stored as given, sharing its arrays.
    """

    n: int
    L: int
    layers: list
    node_labels: list | None = None
    layer_labels: list | None = None

    def __post_init__(self):
        _check_counts(self.n, self.L)
        if len(self.layers) != self.L:
            raise DimensionError(f"expected {self.L} layers, got {len(self.layers)}")
        self.layers = [_as_layer_matrix(A, self.n, l + 1) for l, A in enumerate(self.layers)]
        if self.node_labels is not None and len(self.node_labels) != self.n:
            raise DimensionError("node_labels length does not match node count")
        if self.layer_labels is not None and len(self.layer_labels) != self.L:
            raise DimensionError("layer_labels length does not match layer count")

    @cached_property
    def node_strengths(self) -> np.ndarray:
        """Total incident weight of each node summed over all layers (inf on overflow)."""
        with np.errstate(over="ignore"):
            return sum(A.sum(axis=1) for A in self.layers)

    @cached_property
    def layer_strengths(self) -> np.ndarray:
        """Total weight of each layer (sum over both endpoints, so edges count twice)."""
        return np.array([A.sum() for A in self.layers])

    @property
    def total_weight(self) -> float:
        return float(self.layer_strengths.sum())

    def edge_count(self) -> int:
        """Number of stored undirected edges (self-loops count once)."""
        return sum((A.nnz + np.count_nonzero(A.diagonal())) // 2 for A in self.layers)

    def __repr__(self):
        return (f"MultiplexNetwork(n={self.n}, L={self.L}, "
                f"edges={self.edge_count()})")


@dataclass
class InfluenceMatrix:
    """Square non-negative matrix of layer-on-layer influence weights."""

    W: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        if self.W.ndim != 2 or self.W.shape[0] != self.W.shape[1]:
            raise DimensionError(f"influence matrix must be square, got shape {self.W.shape}")
        if not np.all(np.isfinite(self.W)):
            raise ValidationError("influence matrix has non-finite entries")
        if np.any(self.W < 0):
            raise ValidationError("influence matrix has negative entries")

    @property
    def L(self) -> int:
        return self.W.shape[0]

    @classmethod
    def identity(cls, L: int) -> "InfluenceMatrix":
        return cls(np.eye(L))

    @classmethod
    def uniform(cls, L: int) -> "InfluenceMatrix":
        return cls(np.ones((L, L)))


def _check_influence_side(net: MultiplexNetwork, W: InfluenceMatrix) -> None:
    if W.L != net.L:
        raise DimensionError(f"influence matrix side {W.L} does not match layer count {net.L}")


@dataclass
class ConnectivityDiagnostics:
    """Structural facts that decide which centralities are well defined.

    A layer is connected only if its graph on the full shared node set is
    connected, so a layer that misses even one node (isolated there) is
    reported disconnected. For symmetric layers connectedness and strong
    connectedness coincide.
    """

    layer_connected: tuple
    aggregate_connected: bool
    isolated_nodes: tuple
    empty_layers: tuple


def group_pairs(n: int, L: int, layer, lo, hi):
    """The distinct 1-based int64 ``(layer, lo, hi)`` keys as three sorted
    columns, and each record's group id: its row in them. One int64 key is
    sorted while L*n**2 fits, else the rows of the three columns."""
    if int(L) * int(n) ** 2 < 2**63:
        keys, group = np.unique(((layer - 1) * n + lo - 1) * n + hi - 1, return_inverse=True)
        return (keys // n**2 + 1, keys // n % n + 1, keys % n + 1), group
    pairs, group = np.unique(np.stack((layer, lo, hi), axis=1), axis=0, return_inverse=True)
    return tuple(pairs.T), group.reshape(-1)


def _layer_matrix(n: int, lo, hi, w) -> sp.csr_array:
    """One layer's CSR from its distinct 0-based pairs lo <= hi, sorted by
    (lo, hi): each pair at (lo, hi) and, off the diagonal, at (hi, lo)."""
    off = np.flatnonzero(lo != hi)
    off = off[np.argsort(hi[off], kind="stable")]  # mirrored entries by (row, column)
    lo_m, hi_m = lo[off], hi[off]
    nnz = len(lo) + len(off)
    index = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(np.concatenate((lo, hi_m)), minlength=n), out=indptr[1:])
    # a row holds its mirrored entries (columns below the row) first, its upper
    # ones last: each is placed by rank among its kind from the row's start or end
    down = indptr[hi_m] + np.arange(len(off)) - np.searchsorted(hi_m, hi_m)
    up = indptr[lo + 1] + np.arange(len(lo)) - np.searchsorted(lo, lo, side="right")
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz)
    indices[down], data[down] = lo_m, w[off]
    indices[up], data[up] = hi, w
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def build_network(n: int, L: int, edges, node_labels=None,
                  layer_labels=None) -> MultiplexNetwork:
    """Assemble a multiplex from 1-based undirected edge records.

    ``edges`` is an (m, 4) array or a sequence of ``(layer, i, j, weight)``
    records with integer ``1 <= layer <= L`` and ``1 <= i, j <= n``. Each
    record inserts both (i, j) and (j, i); repeated records for the same
    layer and pair accumulate by summation, in record order. Self-loops are kept.
    """
    _check_counts(n, L)
    try:
        records = edges if isinstance(edges, np.ndarray) else list(edges)
        E = np.asarray(records, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"edges: expected (layer, i, j, weight) records ({exc})") from None
    E = E.reshape(0, 4) if E.shape == (0,) else E
    if E.shape[1:] != (4,):
        raise ValidationError(f"edges: expected (layer, i, j, weight) rows, got shape {E.shape}")
    layer, i, j, w = E.T
    checks = (
        (~((1 <= layer) & (layer <= L)), f"layer index out of range 1..{L}"),
        (~((1 <= i) & (i <= n) & (1 <= j) & (j <= n)), f"node index out of range 1..{n}"),
        (~np.isfinite(w), "non-finite weight"),
        (~(w > 0), "weight must be positive"),
        (np.any(E[:, :3] != np.floor(E[:, :3]), axis=1), "indices must be integers"),
    )
    failed = np.array([mask for mask, _ in checks])
    if failed.any():
        row = failed.any(axis=0).argmax()  # the first bad record, then its first problem
        problem = checks[failed[:, row].argmax()][1]
        entry = records[row].tolist() if isinstance(records, np.ndarray) else records[row]
        raise ValidationError(f"edge {entry!r}: {problem}")

    del failed, checks  # free the per-record arrays before the layers are built
    layer, i, j = E[:, :3].astype(np.int64).T
    (layer, lo, hi), group = group_pairs(n, L, layer, np.minimum(i, j), np.maximum(i, j))
    w = np.bincount(group, w, minlength=len(layer))  # repeats sum in record order
    del E, i, j, group
    bounds = np.searchsorted(layer, np.arange(1, L + 2))
    layers = [_layer_matrix(n, lo[a:b] - 1, hi[a:b] - 1, w[a:b])
              for a, b in zip(bounds[:-1], bounds[1:])]
    return MultiplexNetwork(n=n, L=L, layers=layers,
                            node_labels=node_labels, layer_labels=layer_labels)


def _check_omega(omega, L: int) -> np.ndarray:
    """Validated layer weights; ``None`` means all ones."""
    if omega is None:
        return np.ones(L)
    w = np.asarray(omega, dtype=float)
    if w.shape != (L,):
        raise DimensionError(f"layer weight vector must have length {L}, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("layer weights must be finite")
    if np.any(w <= 0):
        raise ValidationError("layer weights must be strictly positive")
    return w


def _check_strengths(net: MultiplexNetwork) -> None:
    """Rejects weights whose node strengths, and so their total, sum past the float range."""
    with np.errstate(over="ignore"):
        if not np.isfinite(net.total_weight):
            raise ValidationError("node strengths overflow the float range")


def _weighted_layer_sum(net: MultiplexNetwork, w) -> sp.csr_array:
    """sum_l w_l A_l over the layers whose weight is nonzero; an entry that
    overflows is rejected with the layers it sums."""
    used = np.flatnonzero(w)
    with np.errstate(over="ignore"):
        out = sum((w[l] * net.layers[l] for l in used), sp.csr_array((net.n, net.n)))
        if not np.all(np.isfinite(out.data)):
            raise ValidationError(f"the weighted sum of layer{'s' * (len(used) > 1)} "
                                  f"{', '.join(map(str, used + 1))} overflows the float range")
    return sp.csr_array(out)


def aggregate_matrix(net: MultiplexNetwork, omega) -> sp.csr_array:
    """Weighted sum of the layer matrices, sum_l omega_l A_l."""
    return _weighted_layer_sum(net, _check_omega(omega, net.L))


def supra_adjacency(net: MultiplexNetwork) -> sp.csr_array:
    """Block matrix with the layers on the diagonal and identity couplings elsewhere.

    Row/column index (l, i) maps to position l*n + i. Every pair of distinct
    layers is coupled by I_n, encoding the identification of node copies.
    For L = 1 this is just the single layer matrix.
    """
    coupling = sp.kron(np.ones((net.L, net.L)) - np.eye(net.L), sp.eye_array(net.n), format="csr")
    return sp.csr_array(sp.block_diag(net.layers, format="csr") + coupling)


def khatri_rao_influence(net: MultiplexNetwork, W: InfluenceMatrix) -> sp.csr_array:
    """Columnwise Khatri-Rao product of the influence matrix with the layer row.

    Block (l, k) of the result is ``W[l, k] * A_k``. With W = I this is the
    block diagonal of the layers (reducible no matter how dense the layers
    are); with W = all-ones every block row repeats (A_1, ..., A_L).
    """
    _check_influence_side(net, W)
    # an empty diagonal block where W[l, l] = 0 sizes block row and column l
    with np.errstate(over="ignore"):  # the caller's validator reports an inf
        blocks = [[W.W[l, k] * net.layers[k] if W.W[l, k] != 0
                   else (sp.csr_array((net.n, net.n)) if l == k else None)
                   for k in range(net.L)]
                  for l in range(net.L)]
    return sp.csr_array(sp.block_array(blocks, format="csr"))


def aggregate_connected(net: MultiplexNetwork) -> bool:
    """Whether the aggregate graph, with an edge wherever a layer has one, is connected
    (found from the layers' patterns, so that no sum of weights can overflow)."""
    return bool(connected_components(sum(A.astype(bool) for A in net.layers))[0] == 1)


def connectivity(net: MultiplexNetwork) -> ConnectivityDiagnostics:
    """Connectedness of each layer and of the aggregate, plus degenerate index sets."""
    layer_conn = [bool(connected_components(A, directed=False)[0] == 1) for A in net.layers]
    isolated = tuple(int(i) for i in np.flatnonzero(net.node_strengths == 0))
    empty = tuple(l for l, A in enumerate(net.layers) if A.nnz == 0)
    return ConnectivityDiagnostics(
        layer_connected=tuple(layer_conn),
        aggregate_connected=aggregate_connected(net),
        isolated_nodes=isolated,
        empty_layers=empty,
    )


def _check_permutation(perm: Sequence[int], size: int, what: str) -> np.ndarray:
    p = np.asarray(perm, dtype=int)
    if p.shape != (size,) or sorted(p.tolist()) != list(range(1, size + 1)):
        raise ValidationError(f"{what} is not a permutation of 1..{size}")
    return p - 1


def permute(net: MultiplexNetwork, sigma: Sequence[int],
            pi: Sequence[int]) -> MultiplexNetwork:
    """Relabel nodes by sigma and layers by pi (1-based one-line notation).

    Entry (i, j, l) of the result equals entry (sigma(i), sigma(j), pi(l))
    of the input, so scores of the relabelled network are the relabelled
    scores of the original.
    """
    s = _check_permutation(sigma, net.n, "node permutation")
    p = _check_permutation(pi, net.L, "layer permutation")
    P = sp.csr_array((np.ones(net.n), (np.arange(net.n), s)), shape=(net.n, net.n))
    new_layers = [sp.csr_array(P @ net.layers[p[l]] @ P.T) for l in range(net.L)]
    node_labels = ([net.node_labels[i] for i in s]
                   if net.node_labels is not None else None)
    layer_labels = ([net.layer_labels[l] for l in p]
                    if net.layer_labels is not None else None)
    return MultiplexNetwork(n=net.n, L=net.L, layers=new_layers,
                            node_labels=node_labels, layer_labels=layer_labels)
