#!/usr/bin/env python3
"""Compare all centrality measures on a multiplex edge-list file.

Computes the nonlinear node/layer centrality plus the four parameter-free
linear baselines, prints the pairwise Pearson table and the top-ranked
nodes per measure, and (optionally) writes the full comparison CSVs.

Without an input file a small random multiplex is generated so the script
is runnable out of the box:

    python scripts/run_measure_comparison.py
    python scripts/run_measure_comparison.py datasets/EUAirTransportation_multiplex.edges \
        --nodes 450 --layers 37 --out results/euair
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multicent import (  # noqa: E402
    InputError,
    SolverParams,
    build_network,
    isim_curve,
    node_layer_centrality,
    pearson,
    rank,
    write_scores,
)
from multicent.cli import EXIT_INPUT, NODE, _load_network, measure_table  # noqa: E402


def demo_network(seed=0, n=40, L=4):
    rng = np.random.default_rng(seed)
    edges = {}
    order = rng.permutation(n) + 1
    for a, b in zip(order[:-1], order[1:]):
        edges[(int(rng.integers(1, L + 1)), int(a), int(b))] = 1.0
    for _ in range(4 * n):
        l = int(rng.integers(1, L + 1))
        i, j = rng.choice(n, size=2, replace=False) + 1
        edges.setdefault((l, int(i), int(j)), float(rng.uniform(0.5, 2.0)))
    return build_network(n, L, [(l, i, j, w) for (l, i, j), w in edges.items()])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", nargs="?", help="multiplex edge-list file")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--layers", type=int, default=None)
    parser.add_argument("--alpha", type=float, default=2.1)
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for per-measure score CSVs")
    args = parser.parse_args()

    if args.input:
        net = _load_network(args.input, args.nodes, args.layers, "mirror")
    else:
        print("no input file given; using a generated 40-node demo multiplex")
        net = demo_network()

    print(f"network: {net.n} nodes, {net.L} layers, {net.edge_count()} edges")

    scores, report = node_layer_centrality(
        net, SolverParams(args.alpha, args.beta, tol=args.tol, max_iter=5000))
    status = "converged" if report.converged else "NOT converged"
    print(f"nonlinear solve: {status} in {report.iterations} iterations "
          f"(a priori bound: {report.a_priori_bound_k})")

    vectors = {"nonlinear": scores.x}
    for name, (fn, kind) in measure_table().items():
        if kind != NODE:
            continue
        res = fn(net, None)
        if res.degenerate_warning:
            print(f"note: {name} is not uniquely determined on this network")
        vectors[name] = res.scores

    names = list(vectors)
    width = max(len(n) for n in names) + 2
    print("\npairwise Pearson correlation:")
    print(" " * width + "".join(f"{n:>10}" for n in names))
    for a in names:
        row = "".join(f"{pearson(vectors[a], vectors[b]):>10.3f}" if a != b
                      else f"{'-':>10}" for b in names)
        print(f"{a:<{width}}" + row)

    top = min(args.top, net.n)
    print(f"\ntop {top} nodes (1-based indices):")
    for name in names:
        order = rank(vectors[name]).order[:top] + 1
        print(f"{name:<{width}}" + " ".join(f"{i:>4}" for i in order))

    rankings = {m: rank(vectors[m]) for m in names}
    print(f"\nintersection similarity vs nonlinear at K={top}:")
    for name in names[1:]:
        curve = isim_curve(rankings["nonlinear"], rankings[name])
        print(f"{name:<{width}}{curve[top - 1]:.3f}")

    print(f"\nlayer scores: {np.array2string(scores.t, precision=4)}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, vec in vectors.items():
            path = args.out / f"{name}.csv"
            path.write_text(write_scores(vec), encoding="utf-8")
        print(f"\nwrote per-measure CSVs to {args.out}/")


if __name__ == "__main__":
    try:
        main()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT)
