"""Invariant checks on the files and text one workload pass produced.

The checks hold for any faithful implementation, so none of them pins a
golden vector: the start-dependent vectors of flagged linear baselines are
only checked for being non-negative and normalized. Library recomputations
run on a reference network built from the generator's canonical arrays,
not from the edge file, so they do not share the parser under test.

Every check is one operation; so is every CLI command, which fails when it
raises or exits with a code other than 0.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from multicent import (
    MultiplexNetwork,
    NodeLayerScores,
    connectivity,
    contraction_factor,
    eigen_residual,
    iteration_bound,
)
from workloads import ALPHA, ALPHA_LIST, BETA, COMPARE_MEASURES, TOL, TOP_K

SUM_TOL = 1e-9       # blocks and columns are normalized to sum 1
EXACT_TOL = 1e-12    # values recomputed with the same arithmetic


class CheckFailed(Exception):
    pass


@dataclass
class Reference:
    """What the checks compare against: canonical network and generator facts."""

    net: MultiplexNetwork
    facts: dict
    node_strength: np.ndarray
    layer_strength: np.ndarray


def load_reference(input_dir: Path) -> Reference:
    d = np.load(input_dir / "edges.npz")
    n, L = int(d["n"]), int(d["L"])
    order = np.argsort(d["layer"], kind="stable")
    layer, i, j, w = (d[k][order] for k in ("layer", "i", "j", "w"))
    bounds = np.searchsorted(layer, np.arange(1, L + 2))
    layers = []
    for l in range(L):
        s = slice(bounds[l], bounds[l + 1])
        A = sp.csr_array((w[s], (i[s] - 1, j[s] - 1)), shape=(n, n))
        layers.append(A + A.T)
    node_strength = np.bincount(i - 1, w, n) + np.bincount(j - 1, w, n)
    layer_strength = 2 * np.bincount(layer - 1, w, L)
    facts = json.loads((input_dir / "shape.json").read_text())
    return Reference(MultiplexNetwork(n=n, L=L, layers=layers), facts,
                     node_strength, layer_strength)


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines, f"{path.name} is empty")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def _column(rows, k, dtype=float) -> np.ndarray:
    return np.array([r[k] for r in rows], dtype=dtype)


@functools.lru_cache(maxsize=4)
def _score_file(path: Path, size: int):
    header, rows = _read_csv(path)
    _require(header == ["index", "label", "score", "rank"], f"{path.name}: header {header}")
    _require(len(rows) == size, f"{path.name}: {len(rows)} rows, expected {size}")
    index = _column(rows, 0, int)
    _require(np.array_equal(index, np.arange(1, size + 1)), f"{path.name}: index column")
    return _column(rows, 2), _column(rows, 3, int)


def _normalized(name: str, v: np.ndarray, support=None) -> None:
    _require(np.all(np.isfinite(v)) and np.all(v >= 0), f"{name}: negative or non-finite")
    _require(abs(v.sum() - 1.0) <= SUM_TOL, f"{name}: sums to {v.sum()!r}")
    if support is not None:
        _require(np.all(v[~support] == 0), f"{name}: nonzero score off the support")
        _require(np.all(v[support] > 0), f"{name}: zero score on the support")


def _ranks_follow_scores(name: str, scores: np.ndarray, ranks: np.ndarray) -> None:
    # documented tie rule: descending score, equal scores by ascending index
    order = np.lexsort((np.arange(len(scores)), -scores))
    expected = np.empty(len(scores), dtype=int)
    expected[order] = np.arange(1, len(scores) + 1)
    _require(np.array_equal(ranks, expected), f"{name}: rank column disagrees with scores")


def residual_limit(x: np.ndarray, t: np.ndarray, alpha: float, beta: float,
                   tol: float) -> float:
    """Largest eigen residual the stopping rule ``||step||_2 < tol ||x||_2`` permits.

    A step of relative 2-norm ``tol`` moves a supported entry by at most
    ``tol * ||x||_2 / x_i`` of itself, and a block's eigen residual is at most
    its exponent times the largest relative move. The factor 2 covers the
    next step's second-order terms.
    """
    def block(v, exponent):
        return exponent * tol * np.linalg.norm(v) / v[v > 0].min()
    return 2.0 * max(block(x, alpha), block(t, beta))


def check_centrality_scores(ref, out, result):
    x, _ = _score_file(out / "nodes.csv", ref.net.n)
    t, _ = _score_file(out / "layers.csv", ref.net.L)
    _normalized("nodes.csv", x, ref.node_strength > 0)
    _normalized("layers.csv", t, ref.layer_strength > 0)


def check_centrality_ranks(ref, out, result):
    for name, size in (("nodes.csv", ref.net.n), ("layers.csv", ref.net.L)):
        scores, ranks = _score_file(out / name, size)
        _ranks_follow_scores(name, scores, ranks)


def check_centrality_residual(ref, out, result):
    x, _ = _score_file(out / "nodes.csv", ref.net.n)
    t, _ = _score_file(out / "layers.csv", ref.net.L)
    _, _, res = eigen_residual(ref.net, NodeLayerScores(x=x, t=t), ALPHA, BETA)
    limit = residual_limit(x, t, ALPHA, BETA, TOL)
    _require(res <= limit, f"eigen residual {res!r} exceeds {limit!r}")
    return {"nonlinear_residual": res}


def check_centrality_report(ref, out, result):
    report = json.loads((out / "report.json").read_text())
    _require(report["converged"] is True, "report.json: not converged")
    k = report["a_priori_bound_k"]
    _require(k is not None and 1 <= report["iterations"] <= k,
             f"report.json: {report['iterations']} iterations, a priori bound {k}")


def _measures(ref, out):
    header, rows = _read_csv(out / "measures.csv")
    _require(header == ["index", "label", *COMPARE_MEASURES], f"measures.csv: header {header}")
    _require(len(rows) == ref.net.n, "measures.csv: row count")
    return {m: _column(rows, 2 + k) for k, m in enumerate(COMPARE_MEASURES)}


def _pairs():
    return [(a, b) for k, a in enumerate(COMPARE_MEASURES) for b in COMPARE_MEASURES[k + 1:]]


def check_compare_measures(ref, out, result):
    vectors = _measures(ref, out)
    for m, v in vectors.items():
        _normalized(f"measures.csv:{m}", v,
                    ref.node_strength > 0 if m in ("nonlinear", "agg_deg") else None)


def check_compare_agg_deg(ref, out, result):
    got = _measures(ref, out)["agg_deg"]
    want = ref.node_strength / ref.node_strength.sum()
    _require(np.max(np.abs(got - want)) <= EXACT_TOL * want.max(),
             "agg_deg differs from the normalized node strengths")


def check_compare_pearson(ref, out, result):
    vectors = _measures(ref, out)
    header, rows = _read_csv(out / "pearson.csv")
    _require(header == ["measure_a", "measure_b", "pearson"], "pearson.csv: header")
    _require([(r[0], r[1]) for r in rows] == _pairs(), "pearson.csv: pairs")
    for a, b, value in rows:
        want = np.corrcoef(vectors[a], vectors[b])[0, 1]
        got = float(value)
        _require(-1.0 <= got <= 1.0 and abs(got - want) <= SUM_TOL,
                 f"pearson {a},{b}: {got!r}, recomputed {want!r}")


def isim_oracle(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Intersection similarity at every K, from the two score vectors.

    With p, q the 0-based rank positions, the top-k sets share the indices
    with max(p, q) < k, and the top-k symmetric difference is 2k minus
    twice that.
    """
    n = len(s1)

    def positions(s):
        pos = np.empty(n, dtype=int)
        pos[np.lexsort((np.arange(n), -s))] = np.arange(n)
        return pos

    shared = np.cumsum(np.bincount(np.maximum(positions(s1), positions(s2)), minlength=n))
    k = np.arange(1, n + 1)
    return np.cumsum(1.0 - shared / k) / k


def check_compare_isim(ref, out, result):
    vectors = _measures(ref, out)
    n = ref.net.n
    header, rows = _read_csv(out / "isim.csv")
    _require(header == ["measure_a", "measure_b", "k", "isim"], "isim.csv: header")
    _require(len(rows) == n * len(_pairs()), "isim.csv: row count")
    at_k = {}
    for p, (a, b) in enumerate(_pairs()):
        block = rows[p * n:(p + 1) * n]
        _require(all((r[0], r[1]) == (a, b) for r in block), f"isim.csv: pair {a},{b}")
        _require(np.array_equal(_column(block, 2, int), np.arange(1, n + 1)),
                 f"isim.csv: k column of {a},{b}")
        got = _column(block, 3)
        _require(np.all((got >= 0) & (got <= 1)), f"isim {a},{b} outside [0, 1]")
        want = isim_oracle(vectors[a], vectors[b])
        _require(np.max(np.abs(got - want)) <= EXACT_TOL, f"isim {a},{b} differs from oracle")
        at_k[(a, b)] = got[TOP_K - 1]
    header, rows = _read_csv(out / "isim_at_k.csv")
    _require([(r[0], r[1], int(r[2])) for r in rows] == [(a, b, TOP_K) for a, b in _pairs()],
             "isim_at_k.csv: pairs")
    _require(all(float(r[3]) == at_k[(r[0], r[1])] for r in rows),
             "isim_at_k.csv disagrees with isim.csv")


def check_het(ref, out, result):
    name = out.name  # the output directory is named after the measure
    header, rows = _read_csv(out / f"{name}.csv")
    L = ref.net.L
    _require(header == ["index", "label"] + [f"layer{l + 1}" for l in range(L)],
             f"{name}.csv: header")
    _require(len(rows) == ref.net.n, f"{name}.csv: row count")
    M = np.array([r[2:] for r in rows], dtype=float)
    _require(np.all(np.isfinite(M)) and np.all(M >= 0), f"{name}: negative or non-finite")
    sums = M.sum(axis=0)
    bad = np.flatnonzero((sums != 0) & (np.abs(sums - 1) > SUM_TOL))
    _require(bad.size == 0, f"{name}: columns {bad[:5] + 1} do not sum to 1")


def check_sweep_converged(ref, out, result):
    header, rows = _read_csv(out / "sweep_iterations.csv")
    _require(header == ["alpha", "converged", "iterations", "error"], "sweep header")
    _require([float(r[0]) for r in rows] == list(ALPHA_LIST), "sweep alphas")
    for alpha, converged, iterations, error in rows:
        bound = iteration_bound(ref.net, float(alpha), BETA, TOL).k
        _require(converged == "True" and not error, f"sweep alpha {alpha} not converged")
        _require(1 <= int(iterations) <= bound,
                 f"sweep alpha {alpha}: {iterations} iterations, a priori bound {bound}")


def check_sweep_positions(ref, out, result):
    for which, size in (("node", ref.net.n), ("layer", ref.net.L)):
        header, rows = _read_csv(out / f"sweep_{which}_positions.csv")
        # one column per alpha; the header's number format is not part of the check
        _require(header[0] == "index" and len(header) == 1 + len(ALPHA_LIST),
                 f"{which} header")
        _require(len(rows) == size, f"sweep_{which}_positions.csv: row count")
        table = np.array(rows, dtype=int)
        _require(np.array_equal(table[:, 0], np.arange(1, size + 1)), f"{which} index")
        for c in range(1, table.shape[1]):
            _require(np.array_equal(np.sort(table[:, c]), np.arange(1, size + 1)),
                     f"{which} positions column {header[c]} is not a permutation")


def _fields(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def check_info(ref, out, result):
    diag = connectivity(ref.net)
    facts = ref.facts
    want = {
        "nodes": str(ref.net.n),
        "layers": str(ref.net.L),
        "undirected edges": str(ref.net.edge_count()),
        "isolated nodes": str(len(diag.isolated_nodes)),
        "empty layers": str(len(diag.empty_layers)),
        "connected layers": f"{sum(diag.layer_connected)} of {ref.net.L}",
        "aggregate": "connected" if diag.aggregate_connected else "disconnected",
    }
    generated = {
        "undirected edges": str(facts["edges"]),
        "isolated nodes": str(facts["isolated_nodes"]),
        "empty layers": str(facts["empty_layers"]),
        "connected layers": f"{facts['connected_layers']} of {facts['L']}",
    }
    _require(all(want[k] == v for k, v in generated.items()),
             f"library diagnostics {want} disagree with the generator's {generated}")
    got = _fields(result["stdout"])
    wrong = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    _require(not wrong, f"info output differs (got, want): {wrong}")


def check_bound(ref, out, result):
    text = result["stdout"]
    rho = re.search(r"rho = (\S+)", text)
    C = re.search(r"constant C = (\S+)", text)
    k = re.search(r": k = (\d+)", text)
    _require(rho and C and k, f"bound output unreadable: {text!r}")
    want = iteration_bound(ref.net, ALPHA, BETA, TOL)
    _require(float(rho.group(1)) == contraction_factor(ALPHA, BETA).rho, "bound: rho")
    _require(abs(float(C.group(1)) - want.C) <= EXACT_TOL * want.C, "bound: C")
    _require(int(k.group(1)) == want.k, f"bound: k = {k.group(1)}, recomputed {want.k}")


CHECKS = {
    "info": (check_info,),
    "bound": (check_bound,),
    "centrality": (check_centrality_scores, check_centrality_ranks,
                   check_centrality_residual, check_centrality_report),
    "compare": (check_compare_measures, check_compare_agg_deg, check_compare_pearson,
                check_compare_isim),
    "local_het": (check_het,),
    "global_het": (check_het,),
    "sweep": (check_sweep_converged, check_sweep_positions),
}


def check_pass(ref: Reference, commands, results, pass_dir: Path):
    """Run every check of one pass. Returns (attempted, failures, observations)."""
    attempted = 0
    failures = []
    observed: dict = {}
    for cmd, result in zip(commands, results):
        attempted += 1
        if result["error"] is not None or result["exit_code"] != 0:
            failures.append(f"{cmd.label}: exit code {result['exit_code']}, "
                            f"error {result['error']}")
        for check in CHECKS[cmd.label]:
            attempted += 1
            try:
                for k, v in (check(ref, pass_dir / cmd.label, result) or {}).items():
                    observed.setdefault(k, []).append(v)
            except Exception as exc:  # any broken output counts, and checking goes on
                failures.append(f"{cmd.label}/{check.__name__}: {type(exc).__name__}: {exc}")
    return attempted, failures, observed
