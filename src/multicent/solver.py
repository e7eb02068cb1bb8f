"""Nonlinear coupled node/layer eigenvector centrality.

The measure scores nodes and layers simultaneously. With A the adjacency
tensor (A[i, j, l] = weight of edge (i, j) on layer l) and exponents
alpha, beta > 0, the score pair (x, t) solves

    sum_{j,l} A[i,j,l] x_j t_l = mu  * x_i**alpha      (one equation per node)
    sum_{i,j} A[i,j,l] x_i x_j = lam * t_l**beta       (one equation per layer)

for some positive scalars mu, lam. Raising the two weighted sums to the
powers 1/alpha and 1/beta gives an order-preserving update map whose
normalized version is iterated to a fixed point. Whenever 2/beta < alpha - 1
the normalized update is a strict contraction of the weighted product
Hilbert metric implemented below, with explicitly computable contraction
factor

    rho = (sqrt(8*alpha + beta) + sqrt(beta)) / (2 * alpha * sqrt(beta)),

so the fixed point exists, is unique among normalized non-negative pairs
with the structurally forced zero pattern, and the plain power iteration
converges to it; the report certifies the iteration count a priori, from
the uniform start, but carries no a posteriori error bound. No
connectivity assumption on the network is needed, which is the point: the
linear baselines in :mod:`multicent.baselines` all break on disconnected
data, this solver does not.

Isolated nodes and empty layers keep hard zero scores and stay in the
vectors so indices always align with the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    ParameterDomainError,
    SupportMismatchError,
    ValidationError,
)
from .network import MultiplexNetwork, _check_strengths, _products_into

_NORM_ORDS = {"euclidean": 2, "one": 1, "max": np.inf}


def contraction_gate_holds(alpha: float, beta: float) -> bool:
    """True when the exponents guarantee a unique solution: 2/beta < alpha - 1 and rho < 1."""
    return 2.0 / beta < alpha - 1.0 and contraction_factor(alpha, beta).rho < 1


@dataclass
class SolverParams:
    """Exponents and stopping configuration for the coupled power iteration.

    The gate 2/beta < alpha - 1 is enforced at construction unless
    ``unsafe_params`` is set; outside that region the fixed point need not
    be unique (the iteration may still be run for experimentation).
    """

    alpha: float
    beta: float
    tol: float = 1e-6
    max_iter: int = 1000
    stopping_norm: str = "euclidean"
    unsafe_params: bool = False

    def __post_init__(self):
        contraction_factor(self.alpha, self.beta)  # checks the exponents, also when unsafe
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValidationError(f"tol must be positive, got {self.tol!r}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValidationError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        if self.stopping_norm not in _NORM_ORDS:
            raise ValidationError(
                f"stopping_norm must be one of {sorted(_NORM_ORDS)}, got {self.stopping_norm!r}")
        if not self.unsafe_params and not contraction_gate_holds(self.alpha, self.beta):
            raise ParameterDomainError(
                f"exponents alpha={self.alpha}, beta={self.beta} violate 2/beta < alpha - 1; "
                "uniqueness is not guaranteed (pass unsafe_params=True to override)")


@dataclass
class NodeLayerScores:
    """A non-negative (node scores, layer scores) pair, each block summing to 1."""

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        for name, v in (("x", self.x), ("t", self.t)):
            if v.ndim != 1:
                raise ValidationError(f"{name} must be a 1-d vector")
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"{name} has non-finite entries")
            if np.any(v < 0):
                raise ValidationError(f"{name} has negative entries")


@dataclass
class ContractionData:
    """Homogeneity matrix, contraction factor, and metric weights of the update map.

    ``theta`` records how each output block scales when an input block is
    scaled: the node block is (1/alpha)-homogeneous in both inputs, the
    layer block is (2/beta)-homogeneous in the node scores and constant in
    the layer scores. ``rho`` is the Perron value of theta transposed and
    ``b = (alpha*rho, 1)`` the matching positive eigenvector, which is the
    optimal weighting of the product Hilbert metric.
    """

    theta: np.ndarray
    rho: float
    b: np.ndarray


@dataclass
class IterationBound:
    """A priori iteration count certificate for the uniform start."""

    k: int
    C: float
    rho: float
    uniform_start_exact: bool = False


@dataclass
class ConvergenceReport:
    iterations: int
    converged: bool
    node_residuals: list = field(default_factory=list)
    layer_residuals: list = field(default_factory=list)
    node_converged_at: int | None = None
    layer_converged_at: int | None = None
    rho: float = float("nan")
    a_priori_bound_k: int | None = None
    C: float | None = None
    node_eigenvalue: float = float("nan")
    layer_eigenvalue: float = float("nan")


def contraction_factor(alpha: float, beta: float) -> ContractionData:
    """Closed-form Lipschitz constant of the update in the weighted Hilbert metric.

    rho = (sqrt(8a + b) + sqrt(b)) / (2a sqrt(b)). Equals 1 exactly on the
    boundary 2/beta = alpha - 1 and drops below 1 inside the gate.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (np.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    rho = (math.sqrt(8 * alpha + beta) + math.sqrt(beta)) / (2 * alpha * math.sqrt(beta))
    theta = np.array([[1.0 / alpha, 1.0 / alpha],
                      [2.0 / beta, 0.0]])
    b = np.array([alpha * rho, 1.0])
    return ContractionData(theta=theta, rho=rho, b=b)


def _fractional_power(values: np.ndarray, exponent: float) -> np.ndarray:
    # exp(log(.)) on the positive part; 0**exponent is defined as 0.
    out = np.zeros_like(values, dtype=float)
    pos = values > 0
    out[pos] = np.exp(np.log(values[pos]) * exponent)
    return out


def _check_pair(net: MultiplexNetwork, x, t):
    """``(x, t)`` as float vectors sized to ``net``; NodeLayerScores checks the entries."""
    pair = NodeLayerScores(x=x, t=t)
    if pair.x.shape != (net.n,):
        raise ValidationError(f"node vector must have length {net.n}, got shape {pair.x.shape}")
    if pair.t.shape != (net.L,):
        raise ValidationError(f"layer vector must have length {net.L}, got shape {pair.t.shape}")
    return pair.x, pair.t


def _weighted_sums(net: MultiplexNetwork, x: np.ndarray, t: np.ndarray):
    """The two blocks of weighted sums feeding the update map.

    Returns (s1, s2) with s1_i = sum_{j,l} A[i,j,l] x_j t_l and
    s2_l = sum_{i,j} A[i,j,l] x_i x_j, from the Y with row l = A_l x: a fresh
    zeroed (L, n) array that the layers are multiplied into one at a time.
    """
    Y = _products_into(net.layers, [x] * net.L, np.zeros((net.L, net.n)))
    return Y.T @ t, Y @ x


def raw_update(net: MultiplexNetwork, x, t, alpha: float, beta: float):
    """Un-normalized update: weighted sums raised to the powers 1/alpha, 1/beta."""
    x, t = _check_pair(net, x, t)
    s1, s2 = _weighted_sums(net, x, t)
    return _fractional_power(s1, 1.0 / alpha), _fractional_power(s2, 1.0 / beta)


def normalized_update(net: MultiplexNetwork, x, t, alpha: float,
                      beta: float) -> NodeLayerScores:
    """One step of the power iteration: raw update with each block scaled to sum 1."""
    fx, ft = raw_update(net, x, t, alpha, beta)
    sx, st = fx.sum(), ft.sum()
    if sx == 0 or st == 0:
        raise DegenerateInputError(
            "update produced an identically zero block; the input pair has "
            "support disjoint from the network")
    return NodeLayerScores(x=fx / sx, t=ft / st)


def node_layer_centrality(net: MultiplexNetwork, params: SolverParams,
                          start: NodeLayerScores | None = None):
    """Run the coupled power iteration to the unique normalized score pair.

    Starts from the normalized all-ones pair unless ``start`` (strictly
    positive on both blocks) is given. Stops when both blockwise relative
    successive differences, measured in ``params.stopping_norm``, drop
    below ``params.tol``; exhausting ``max_iter`` returns a report with
    ``converged=False`` rather than raising.

    Returns ``(scores, report)``. The report records the residual history
    of each block, the first iteration at which each block individually met
    the tolerance, the contraction factor, the a priori iteration bound for
    the uniform start (when it applies), and the two map eigenvalues
    ``node_eigenvalue = ||raw node update||_1`` and
    ``layer_eigenvalue = ||raw layer update||_1`` at the returned pair.
    """
    _check_strengths(net)
    if net.total_weight == 0:
        raise ValidationError("network has no edges; scores are undefined")
    ordv = _NORM_ORDS[params.stopping_norm]
    uniform_start = start is None
    if uniform_start:
        x = np.full(net.n, 1.0 / net.n)
        t = np.full(net.L, 1.0 / net.L)
    else:
        x, t = _check_pair(net, start.x, start.t)
        if np.any(x <= 0) or np.any(t <= 0):
            raise ValidationError("start pair must be strictly positive on both blocks")
        x = x / x.sum()
        t = t / t.sum()

    cdata = contraction_factor(params.alpha, params.beta)
    node_res: list[float] = []
    layer_res: list[float] = []
    for _ in range(params.max_iter):
        nxt = normalized_update(net, x, t, params.alpha, params.beta)
        rx = float(np.linalg.norm(nxt.x - x, ordv) / np.linalg.norm(nxt.x, ordv))
        rt = float(np.linalg.norm(nxt.t - t, ordv) / np.linalg.norm(nxt.t, ordv))
        node_res.append(rx)
        layer_res.append(rt)
        x, t = nxt.x, nxt.t
        if max(rx, rt) < params.tol:
            break
    converged = max(node_res[-1], layer_res[-1]) < params.tol  # max_iter >= 1
    node_at, layer_at = (next((k for k, r in enumerate(res, 1) if r < params.tol), None)
                         for res in (node_res, layer_res))  # each block's first k below tol

    fx, ft = raw_update(net, x, t, params.alpha, params.beta)
    bound_k = bound_C = None
    if uniform_start and contraction_gate_holds(params.alpha, params.beta):
        bound = iteration_bound(net, params.alpha, params.beta, params.tol)
        bound_k, bound_C = bound.k, bound.C
    report = ConvergenceReport(
        iterations=len(node_res),
        converged=converged,
        node_residuals=node_res,
        layer_residuals=layer_res,
        node_converged_at=node_at,
        layer_converged_at=layer_at,
        rho=cdata.rho,
        a_priori_bound_k=bound_k,
        C=bound_C,
        node_eigenvalue=float(fx.sum()),
        layer_eigenvalue=float(ft.sum()),
    )
    return NodeLayerScores(x=x, t=t), report


def _log_ratio(v: np.ndarray) -> float:
    """ln(max v / min v) of a positive vector, from the logarithms when the
    quotient overflows."""
    with np.errstate(over="ignore"):
        q = v.max() / v.min()
    return math.log(q) if np.isfinite(q) else math.log(v.max()) - math.log(v.min())


def iteration_bound(net: MultiplexNetwork, alpha: float, beta: float,
                    eps: float) -> IterationBound:
    """Smallest k certifying max-norm error <= eps from the uniform start.

    The certificate constant is

        C = rho * ln(max node-strength ratio) + (1/beta) * ln(max layer-strength ratio)

    with ratios taken over the supported nodes/layers only; then any
    k >= (ln((1-rho) eps) - ln C) / ln rho suffices. When both strength
    profiles are uniform, C = 0 and the normalized all-ones pair already
    points at the fixed point, so k = 0.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be positive, got {eps!r}")
    cdata = contraction_factor(alpha, beta)
    # gate on the exact inequality: at the boundary rho is mathematically 1
    # even when floating-point evaluation lands a hair below
    if not contraction_gate_holds(alpha, beta):
        raise ParameterDomainError(
            f"contraction factor is >= 1 for alpha={alpha}, beta={beta}; "
            "no iteration bound exists")
    _check_strengths(net)
    if net.total_weight == 0:
        raise ValidationError("network has no edges")
    r = net.node_strengths
    s = net.layer_strengths
    C = cdata.rho * _log_ratio(r[r > 0]) + (1.0 / beta) * _log_ratio(s[s > 0])
    if C == 0:
        return IterationBound(k=0, C=0.0, rho=cdata.rho, uniform_start_exact=True)
    k = math.ceil((math.log((1 - cdata.rho) * eps) - math.log(C)) / math.log(cdata.rho))
    return IterationBound(k=max(0, k), C=C, rho=cdata.rho)


def hilbert_distance(x, u) -> float:
    """Projective Hilbert distance ln(max x/u) + ln(max u/x) over the common support.

    Defined only for vector pairs with identical zero patterns; invariant
    under positive rescaling of either argument.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != u.shape:
        raise SupportMismatchError(f"shape mismatch: {x.shape} vs {u.shape}")
    sx = x > 0
    su = u > 0
    if not np.array_equal(sx, su):
        raise SupportMismatchError("vectors have different supports")
    if not sx.any():
        raise SupportMismatchError("vectors are identically zero")
    ratio = x[sx] / u[sx]
    return float(np.log(ratio.max()) + np.log((1.0 / ratio).max()))


def product_metric(p: NodeLayerScores, q: NodeLayerScores, b) -> float:
    """Weighted sum b1*d(node blocks) + b2*d(layer blocks) of Hilbert distances."""
    b = np.asarray(b, dtype=float)
    if b.shape != (2,) or np.any(b <= 0):
        raise ValidationError("metric weights must be a positive 2-vector")
    return float(b[0] * hilbert_distance(p.x, q.x) + b[1] * hilbert_distance(p.t, q.t))


def eigen_residual(net: MultiplexNetwork, scores: NodeLayerScores,
                   alpha: float, beta: float):
    """How well a score pair satisfies the coupled eigen-system.

    Returns ``(mu, lam, res)``: the scalars that solve the node and layer
    equations best in the relative max norm over the supported entries, and
    the residual they achieve. ``res`` is the worst relative violation
    |lhs - scalar * score**exponent| / lhs over all supported equations;
    it is 0 exactly when the pair solves the system on its support.
    """
    x, t = _check_pair(net, scores.x, scores.t)
    if not (x > 0).any() or not (t > 0).any():
        raise ValidationError("scores must be nonzero on both blocks")
    s1, s2 = _weighted_sums(net, x, t)

    def best_scalar(lhs, powered):
        # minimize max_i |1 - scalar/ratio_i| over supported equations
        if np.any(lhs <= 0):
            return 0.0, float("inf")
        ratio = lhs / powered
        lo, hi = ratio.min(), ratio.max()
        scalar = 2.0 / (1.0 / lo + 1.0 / hi)
        res = float(np.max(np.abs(lhs - scalar * powered) / lhs))
        return float(scalar), res

    node_sup = x > 0
    layer_sup = t > 0
    mu, res_nodes = best_scalar(s1[node_sup], x[node_sup] ** alpha)
    lam, res_layers = best_scalar(s2[layer_sup], t[layer_sup] ** beta)
    return mu, lam, max(res_nodes, res_layers)
