"""Rankings and ranking-comparison analytics.

Scores become rankings by sorting non-increasingly with ties broken by
ascending index, so every ranking is deterministic. Two rankings are
compared either on raw scores (Pearson correlation) or on list prefixes
(top-K intersection similarity), and the exponent sweep tracks how the
nonlinear centrality ranking moves as the node exponent varies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, ValidationError
from .network import MultiplexNetwork
from .solver import ConvergenceReport, NodeLayerScores, SolverParams, node_layer_centrality


@dataclass
class Ranking:
    """Indices ordered best-first (0-based) plus the scores they came from."""

    order: np.ndarray
    scores: np.ndarray

    def positions(self) -> np.ndarray:
        """Rank position (0-based) of each index: positions[order[r]] == r."""
        pos = np.empty(len(self.order), dtype=int)
        pos[self.order] = np.arange(len(self.order))
        return pos


def rank(scores) -> Ranking:
    """Sort indices by descending score; equal scores keep ascending index order."""
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1:
        raise ValidationError("scores must be a 1-d vector")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores must be finite")
    order = np.argsort(-s, kind="stable")
    return Ranking(order=order, scores=s.copy())


def pearson(v1, v2) -> float:
    """Sample Pearson correlation of two raw score vectors."""
    a = np.asarray(v1, dtype=float)
    b = np.asarray(v2, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("vectors must be 1-d and of equal length")
    if len(a) < 2:
        raise ValidationError("need at least two entries")
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a @ a) * (b @ b))
    if denom == 0:
        raise ValidationError("correlation undefined: an argument has zero variance")
    return float(np.clip((a @ b) / denom, -1.0, 1.0))


def _isim_curve(order1: np.ndarray, order2: np.ndarray, K: int) -> np.ndarray:
    """Running mean over k = 1..K of |top-k symmetric difference| / (2k), that is
    of (2k - 2c_k) / (2k) with c_k the items whose later position is below k."""
    _, pos1, pos2 = np.intersect1d(order1[:K], order2[:K], assume_unique=True,
                                   return_indices=True)
    c = np.cumsum(np.bincount(np.maximum(pos1, pos2), minlength=K))
    k = np.arange(1, K + 1)
    return np.cumsum((2 * k - 2 * c) / (2 * k)) / k


def intersection_similarity(r1: Ranking, r2: Ranking, K: int) -> float:
    """Average over k <= K of the normalized top-k symmetric difference.

    0 exactly when the two orders agree on every prefix up to K, 1 when
    every prefix pair is disjoint.
    """
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValidationError(f"K must be a positive integer, got {K!r}")
    if K > len(r1.order) or K > len(r2.order):
        raise ValidationError(f"K={K} exceeds a ranking length")
    return float(_isim_curve(r1.order, r2.order, K)[-1])


def isim_curve(r1: Ranking, r2: Ranking) -> np.ndarray:
    """Intersection similarity at every K from 1 to the full length."""
    if len(r1.order) != len(r2.order):
        raise ValidationError("rankings must have equal length")
    return _isim_curve(r1.order, r2.order, len(r1.order))


@dataclass
class SweepEntry:
    alpha: float
    error: str | None = None
    scores: NodeLayerScores | None = None
    report: ConvergenceReport | None = None
    node_ranking: Ranking | None = None
    layer_ranking: Ranking | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    beta: float
    entries: list

    def iteration_counts(self) -> list:
        return [e.report.iterations if e.ok else None for e in self.entries]

    def _position_table(self, ranking: str) -> tuple:
        good = [e for e in self.entries if e.ok]
        alphas = np.array([e.alpha for e in good])
        if not good:
            return alphas, np.zeros((0, 0), dtype=int)
        pos = np.column_stack([getattr(e, ranking).positions() for e in good])
        return alphas, pos

    def node_position_table(self) -> tuple:
        """(alphas, positions) with positions[i, j] = 0-based rank of node i at alpha_j.

        This is the spaghetti-plot data: one line per node across the
        successful sweep entries.
        """
        return self._position_table("node_ranking")

    def layer_position_table(self) -> tuple:
        """Like :meth:`node_position_table`, for the layer rankings."""
        return self._position_table("layer_ranking")


def alpha_sweep(net: MultiplexNetwork, alphas, beta: float,
                tol: float = 1e-6, max_iter: int = 1000,
                stopping_norm: str = "euclidean",
                unsafe_params: bool = False) -> SweepResult:
    """Solve the nonlinear centrality for each exponent in ``alphas``.

    An exponent that fails the parameter gate is recorded as a failed entry
    and the sweep continues. Each successful entry carries scores, both
    rankings, and the full convergence report, so iteration counts can be
    compared across exponents.
    """
    entries = []
    for alpha in alphas:
        try:
            params = SolverParams(alpha=float(alpha), beta=float(beta), tol=tol,
                                  max_iter=max_iter, stopping_norm=stopping_norm,
                                  unsafe_params=unsafe_params)
        except ParameterDomainError as exc:
            entries.append(SweepEntry(alpha=float(alpha), error=str(exc)))
            continue
        scores, report = node_layer_centrality(net, params)
        entries.append(SweepEntry(
            alpha=float(alpha),
            scores=scores,
            report=report,
            node_ranking=rank(scores.x),
            layer_ranking=rank(scores.t),
        ))
    return SweepResult(beta=float(beta), entries=entries)
