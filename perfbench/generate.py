"""Seeded synthetic multiplex edge files, one generator per workload shape.

Each generator takes the seed as an argument and returns an :class:`EdgeFile`:
the canonical undirected edges (1-based, ``i < j``, one row per edge) and the
edge-list text the CLI reads, in which edges appear in a seeded order and
orientation. :func:`shape_facts` measures the facts a workload relies on
from the canonical arrays, and :func:`check_shape` fails when a seed breaks
one of them.

Only numpy and scipy are used; this module never imports ``multicent``, so
its facts are an independent check of what the library reads back.

Run as a script to write one workload's input before the measured process
starts::

    python3 perfbench/generate.py --shape euair --seed 1 --out DIR

which writes ``DIR/input.edges``, ``DIR/edges.npz`` (the canonical arrays)
and ``DIR/shape.json`` (the asserted facts).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


@dataclass
class EdgeFile:
    """Canonical edges plus the text that lists them."""

    n: int
    L: int
    layer: np.ndarray  # int64, 1-based
    i: np.ndarray      # int64, 1-based, i < j
    j: np.ndarray
    w: np.ndarray      # float64, the exact value of the written decimal
    text: str
    both_directions: int  # edges listed once in each direction

    @property
    def edges(self) -> int:
        return len(self.layer)


def _heavy_tailed_sizes(rng, total: int, parts: int, exponent: float) -> np.ndarray:
    """Split ``total`` into ``parts`` positive sizes proportional to k**-exponent, shuffled."""
    weights = np.arange(1, parts + 1, dtype=float) ** -exponent
    sizes = np.maximum(1, np.floor(total * weights / weights.sum())).astype(np.int64)
    sizes[0] += total - sizes.sum()
    return rng.permutation(sizes)


def _popularity_cdf(rng, n: int, exponent: float) -> np.ndarray:
    """Cumulative distribution of a Zipf-like popularity spread over shuffled nodes."""
    p = rng.permutation(np.arange(1, n + 1, dtype=float) ** -exponent)
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def _draw(rng, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


def _sample_layer_pairs(rng, n: int, size: int, cdf: np.ndarray):
    """``size`` distinct unordered pairs without self-loops, 0-based, ``i < j``.

    Pairs are kept in the order they were first drawn, so which pairs
    survive deduplication does not depend on their index order.
    """
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < size:
        draw = size - len(keys) + size // 4 + 16
        a, b = _draw(rng, cdf, draw), _draw(rng, cdf, draw)
        keep = a != b
        lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
        keys = np.concatenate([keys, lo * n + hi])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:size]
    return keys // n, keys % n


def _decimal_weights(rng, size: int):
    """Weights in [0.5, 5) with three decimals: (values, texts) that parse back exactly."""
    milli = rng.integers(500, 5000, size)
    texts = [f"{q}.{r:03d}" for q, r in zip((milli // 1000).tolist(), (milli % 1000).tolist())]
    return milli / 1000.0, texts


def _render(rng, layer, i, j, wtext, both_share: float):
    """Edge-list text: each edge in a random orientation, a share of them in both.

    Returns ``(text, both)``. Lines are shuffled; an edge listed in both
    directions carries the same weight text on both lines.
    """
    m = len(layer)
    flip = rng.random(m) < 0.5
    a = np.where(flip, j, i)
    b = np.where(flip, i, j)
    both = int(round(both_share * m))
    twice = rng.choice(m, size=both, replace=False) if both else np.empty(0, dtype=np.int64)
    rl = np.concatenate([layer, layer[twice]])
    ra = np.concatenate([a, b[twice]])
    rb = np.concatenate([b, a[twice]])
    idx = np.concatenate([np.arange(m), twice])
    order = rng.permutation(len(rl))
    rl, ra, rb, idx = (v[order].tolist() for v in (rl, ra, rb, idx))
    if wtext is None:
        lines = [f"{l} {x} {y}" for l, x, y in zip(rl, ra, rb)]
    else:
        lines = [f"{l} {x} {y} {wtext[k]}" for l, x, y, k in zip(rl, ra, rb, idx)]
    return "\n".join(lines) + "\n", both


def _random_multiplex(seed: int, n: int, L: int, m: int, layer_exponent: float,
                      node_exponent: float, both_share: float) -> EdgeFile:
    rng = np.random.default_rng(seed)
    sizes = _heavy_tailed_sizes(rng, m, L, layer_exponent)
    cdf = _popularity_cdf(rng, n, node_exponent)
    layer, i, j = [], [], []
    for l, size in enumerate(sizes.tolist(), start=1):
        lo, hi = _sample_layer_pairs(rng, n, size, cdf)
        layer.append(np.full(size, l, dtype=np.int64))
        i.append(lo + 1)
        j.append(hi + 1)
    layer, i, j = np.concatenate(layer), np.concatenate(i), np.concatenate(j)
    w, wtext = _decimal_weights(rng, m)
    text, both = _render(rng, layer, i, j, wtext, both_share)
    return EdgeFile(n=n, L=L, layer=layer, i=i, j=j, w=w, text=text, both_directions=both)


def euair(seed: int, n: int = 450, L: int = 37, m: int = 3500, isolated: int = 33,
          hubs: int = 40) -> EdgeFile:
    """EU-air-shaped multiplex: hub-and-spoke layers, unit weights, isolated nodes.

    Nodes are split at random into ``isolated`` nodes that no edge touches,
    ``hubs`` hub airports and spokes. Every edge joins a hub to a spoke, so
    each layer and the aggregate are bipartite, which is what makes the
    linear baselines' power iteration oscillate on this shape. Layer sizes
    are heavy-tailed; every hub and every spoke has at least one edge.
    Edges are listed once, without a weight field.
    """
    rng = np.random.default_rng(seed)
    roles = rng.permutation(n) + 1
    hub_ids = roles[isolated:isolated + hubs]
    spoke_ids = roles[isolated + hubs:]
    hub_cdf = _popularity_cdf(rng, hubs, 1.0)
    spoke_cdf = _popularity_cdf(rng, len(spoke_ids), 0.8)
    sizes = _heavy_tailed_sizes(rng, m, L, 0.9)

    layer_hubs = []
    for l, size in enumerate(sizes.tolist()):
        chosen = list(range(l, hubs, L))  # every hub serves at least one layer
        # enough hubs that sampling distinct hub-spoke pairs never runs dry
        want = min(hubs, max(len(chosen), math.ceil(size / 120),
                             math.ceil(2 * size / len(spoke_ids))))
        while len(chosen) < want:
            h = int(_draw(rng, hub_cdf, 1)[0])
            if h not in chosen:
                chosen.append(h)
        layer_hubs.append(chosen)

    pairs = [set() for _ in range(L)]

    def add(l, h, s):
        if (h, s) in pairs[l] or len(pairs[l]) >= sizes[l]:
            return False
        pairs[l].add((h, s))
        return True

    for l, chosen in enumerate(layer_hubs):  # one edge per hub of each layer
        for h in chosen:
            while not add(l, h, int(_draw(rng, spoke_cdf, 1)[0])):
                pass
    for s in rng.permutation(len(spoke_ids)).tolist():  # every spoke flies somewhere
        room = np.array([sizes[l] - len(pairs[l]) for l in range(L)], dtype=float)
        l = int(rng.choice(L, p=room / room.sum()))
        while not add(l, layer_hubs[l][int(rng.integers(len(layer_hubs[l])))], s):
            l = int(rng.choice(L, p=room / room.sum()))
    for l in range(L):  # fill each layer by hub and spoke popularity
        chosen = layer_hubs[l]
        while len(pairs[l]) < sizes[l]:
            add(l, chosen[int(rng.integers(len(chosen)))], int(_draw(rng, spoke_cdf, 1)[0]))

    layer, i, j = [], [], []
    for l in range(L):
        for h, s in sorted(pairs[l]):
            a, b = int(hub_ids[h]), int(spoke_ids[s])
            layer.append(l + 1)
            i.append(min(a, b))
            j.append(max(a, b))
    layer, i, j = (np.array(v, dtype=np.int64) for v in (layer, i, j))
    text, both = _render(rng, layer, i, j, None, 0.0)
    return EdgeFile(n=n, L=L, layer=layer, i=i, j=j, w=np.ones(len(layer)),
                    text=text, both_directions=both)


def large(seed: int, n: int = 200_000, L: int = 50, m: int = 1_000_000) -> EdgeFile:
    """Heavy-tailed weighted multiplex; 30% of the edges listed in both directions."""
    return _random_multiplex(seed, n, L, m, layer_exponent=1.0, node_exponent=0.75,
                             both_share=0.3)


def wide(seed: int, n: int = 50_000, L: int = 200, m: int = 200_000) -> EdgeFile:
    """Many sparse weighted layers, every edge listed once."""
    return _random_multiplex(seed, n, L, m, layer_exponent=0.5, node_exponent=0.75,
                             both_share=0.0)


def _bipartite(adj: sp.csr_array) -> bool:
    color = np.full(adj.shape[0], -1)
    for root in range(adj.shape[0]):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj.indices[adj.indptr[u]:adj.indptr[u + 1]].tolist():
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def shape_facts(ef: EdgeFile, bipartite: bool = False) -> dict:
    """Facts measured from the canonical arrays (and, for records, the text)."""
    n, L = ef.n, ef.L
    i0, j0 = ef.i - 1, ef.j - 1
    strength = np.bincount(i0, minlength=n) + np.bincount(j0, minlength=n)
    per_layer = np.bincount(ef.layer - 1, minlength=L)
    connected = 0
    for l in range(1, L + 1):
        sel = ef.layer == l
        if np.unique(np.concatenate([i0[sel], j0[sel]])).size < n:
            continue  # a layer that misses a node is disconnected on the full node set
        adj = sp.csr_array((np.ones(sel.sum()), (i0[sel], j0[sel])), shape=(n, n))
        connected += int(connected_components(adj, directed=False)[0] == 1)
    keys = (ef.layer * n + i0) * n + j0
    facts = {
        "n": n,
        "L": L,
        "edges": ef.edges,
        "distinct_edges": int(np.unique(keys).size),
        "records": ef.text.count("\n"),
        "both_direction_share": ef.both_directions / ef.edges,
        "isolated_nodes": int(np.count_nonzero(strength == 0)),
        "empty_layers": int(np.count_nonzero(per_layer == 0)),
        "connected_layers": connected,
        "self_loops": int(np.count_nonzero(i0 == j0)),
        "unit_weights": bool(np.all(ef.w == 1.0)),
    }
    if bipartite:
        agg = sp.csr_array((np.ones(ef.edges), (i0, j0)), shape=(n, n))
        facts["aggregate_bipartite"] = _bipartite(sp.csr_array(agg + agg.T))
    return facts


# name -> (generator, facts every seed must reproduce, whether to test bipartiteness)
SHAPES = {
    "euair": (euair, {"n": 450, "L": 37, "edges": 3500, "distinct_edges": 3500,
                      "records": 3500, "both_direction_share": 0.0,
                      "isolated_nodes": 33, "empty_layers": 0, "connected_layers": 0,
                      "self_loops": 0, "unit_weights": True,
                      "aggregate_bipartite": True}, True),
    "large": (large, {"n": 200_000, "L": 50, "edges": 1_000_000,
                      "distinct_edges": 1_000_000, "records": 1_300_000,
                      "both_direction_share": 0.3, "empty_layers": 0,
                      "connected_layers": 0, "self_loops": 0,
                      "unit_weights": False}, False),
    "wide": (wide, {"n": 50_000, "L": 200, "edges": 200_000,
                    "distinct_edges": 200_000, "records": 200_000,
                    "both_direction_share": 0.0, "empty_layers": 0,
                    "connected_layers": 0, "self_loops": 0,
                    "unit_weights": False}, False),
}


class ShapeError(AssertionError):
    """A generated multiplex lacks a fact its workload relies on."""


def check_shape(shape: str, facts: dict) -> None:
    expected = SHAPES[shape][1]
    wrong = {k: (facts.get(k), v) for k, v in expected.items() if facts.get(k) != v}
    if wrong:
        raise ShapeError(f"{shape}: shape facts differ (got, expected): {wrong}")


def save(ef: EdgeFile, facts: dict, out: Path) -> None:
    """Write ``input.edges``, ``edges.npz`` and ``shape.json`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "input.edges").write_text(ef.text, encoding="ascii")
    np.savez(out / "edges.npz", n=ef.n, L=ef.L, layer=ef.layer, i=ef.i, j=ef.j, w=ef.w)
    (out / "shape.json").write_text(json.dumps(facts, indent=1) + "\n")


def write(shape: str, seed: int, out: Path) -> dict:
    """Generate one shape, check its facts and save it into ``out``."""
    gen, _, bipartite = SHAPES[shape]
    ef = gen(seed)
    facts = shape_facts(ef, bipartite)
    check_shape(shape, facts)
    facts = {"shape": shape, "seed": seed, **facts}
    save(ef, facts, out)
    return facts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    try:
        write(args.shape, args.seed, args.out)
    except ShapeError as exc:
        print(f"generate: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
