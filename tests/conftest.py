import os
from pathlib import Path

import numpy as np
import pytest

import multicent
from multicent import MultiplexNetwork, NodeLayerScores, build_network


def child_env():
    """The environment with this package's source first on PYTHONPATH, for
    tests that run a child process."""
    src = str(Path(multicent.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# Canonical small networks

def make_explanatory():
    """4 nodes, 2 layers: edge {1,2} on layer 1 and edge {3,4} on layer 2.

    Every node has exactly one incident edge, so all nodes (and both layers)
    are interchangeable; neither the layers nor the aggregate are connected.
    """
    return build_network(4, 2, [(1, 1, 2, 1.0), (2, 3, 4, 1.0)])


@pytest.fixture
def explanatory():
    return make_explanatory()


def make_ratio_e_net():
    """Single layer with node strengths (e, 1): strength ratio exactly e.

    A = [[e-1, 1], [1, 0]] gives row sums (e, 1) and one layer, so the
    certificate constant reduces to rho * ln(e) = rho.
    """
    e = float(np.e)
    A = np.array([[e - 1.0, 1.0], [1.0, 0.0]])
    return MultiplexNetwork(n=2, L=1, layers=[A])


# ---------------------------------------------------------------------------
# Random generators (plain functions so tests control their own seeds)

def random_positive_multiplex(rng, n, L, low=0.1, high=1.0):
    """Strictly positive symmetric layers (every entry, including diagonals)."""
    layers = []
    for _ in range(L):
        U = rng.uniform(low, high, (n, n))
        layers.append((U + U.T) / 2)
    return MultiplexNetwork(n=n, L=L, layers=layers)


def random_sparse_multiplex(rng, n, L, extra_edges_per_layer=None, weighted=True):
    """Sparse multiplex with a connected, non-bipartite aggregate.

    A random spanning path is scattered over random layers, one extra edge
    guarantees an odd cycle in the aggregate, each layer gets at least one
    edge, and the rest is uniform noise.
    """
    if extra_edges_per_layer is None:
        extra_edges_per_layer = max(2, n // 4)
    edges = {}

    def add(layer, i, j):
        if i == j:
            return
        a, b = (i, j) if i < j else (j, i)
        key = (layer, a, b)
        if key not in edges:
            w = rng.uniform(0.5, 1.5) if weighted else 1.0
            edges[key] = w

    order = rng.permutation(n) + 1
    for a, b in zip(order[:-1], order[1:]):
        add(int(rng.integers(1, L + 1)), int(a), int(b))
    # close a triangle so the aggregate has an odd cycle
    if n >= 3:
        add(int(rng.integers(1, L + 1)), int(order[0]), int(order[2]))
    for layer in range(1, L + 1):
        i, j = rng.choice(n, size=2, replace=False) + 1
        add(layer, int(i), int(j))
        for _ in range(extra_edges_per_layer):
            i, j = rng.choice(n, size=2, replace=False) + 1
            add(layer, int(i), int(j))
    return build_network(n, L, [(l, i, j, w) for (l, i, j), w in edges.items()])


def random_layerwise_connected_multiplex(rng, n, L):
    """Every layer individually connected and non-bipartite (own path + triangle)."""
    edges = {}
    for layer in range(1, L + 1):
        order = rng.permutation(n) + 1
        for a, b in zip(order[:-1], order[1:]):
            edges[(layer, min(a, b), max(a, b))] = float(rng.uniform(0.5, 1.5))
        a, b = int(order[0]), int(order[2])
        edges[(layer, min(a, b), max(a, b))] = float(rng.uniform(0.5, 1.5))
        for _ in range(n // 2):
            i, j = rng.choice(n, size=2, replace=False) + 1
            key = (layer, int(min(i, j)), int(max(i, j)))
            edges.setdefault(key, float(rng.uniform(0.5, 1.5)))
    return build_network(n, L, [(l, i, j, w) for (l, i, j), w in edges.items()])


def random_valid_exponents(rng):
    """Exponent pair inside the uniqueness gate with bounded contraction factor."""
    alpha = float(rng.uniform(2.5, 5.0))
    beta = float(rng.uniform(2.0, 3.0))
    assert 2.0 / beta < alpha - 1.0
    return alpha, beta


def random_score_pair(rng, n, L):
    x = rng.uniform(0.05, 1.0, n)
    t = rng.uniform(0.05, 1.0, L)
    return NodeLayerScores(x=x / x.sum(), t=t / t.sum())


# ---------------------------------------------------------------------------
# Optional datasets (never vendored; see scripts/fetch_datasets.py)

DATA_DIR = Path(os.environ.get("MULTICENT_DATA_DIR",
                               Path(__file__).resolve().parent.parent / "datasets"))

DATASET_FILES = {
    "euair": "EUAirTransportation_multiplex.edges",
    "london": "london_transport_multiplex.edges",
}


def find_dataset(name):
    """Path of a dataset edge file, or None when not downloaded."""
    fname = DATASET_FILES[name]
    direct = DATA_DIR / fname
    if direct.is_file():
        return direct
    if DATA_DIR.is_dir():
        hits = sorted(DATA_DIR.rglob(fname))
        if hits:
            return hits[0]
    return None


def require_dataset(name):
    path = find_dataset(name)
    if path is None:
        pytest.skip(f"dataset {name!r} not present under {DATA_DIR} "
                    "(run scripts/fetch_datasets.py)")
    return path


def assert_top_matches(ranking, expected_1based, rel_tie=1e-9):
    """Check a top-K list against a reference, tolerating swaps of tied scores.

    At each position the index must either match the reference or carry a
    score (numerically) equal to the reference index's score, since the
    deterministic tie-break rule here need not match whoever produced the
    reference list.
    """
    scores = ranking.scores
    ours = (ranking.order[:len(expected_1based)] + 1).tolist()
    for pos, expected in enumerate(expected_1based):
        got = ours[pos]
        if got == expected:
            continue
        s_got = scores[got - 1]
        s_exp = scores[expected - 1]
        assert s_got == pytest.approx(s_exp, rel=rel_tie), (
            f"position {pos + 1}: got node {got} (score {s_got!r}), expected "
            f"node {expected} (score {s_exp!r}); not a tie")
