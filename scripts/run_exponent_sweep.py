#!/usr/bin/env python3
"""Sweep the node exponent and track rankings and iteration counts.

Reproduces the stability experiment: solve the nonlinear centrality for a
list of node exponents at fixed layer exponent, report how many iterations
each solve took (they shrink as the exponent grows, following the
contraction factor), and how much the node ranking moved relative to the
first exponent.

    python scripts/run_exponent_sweep.py INPUT.edges --alphas 2.1,2.5,2.7,3,4,5,10
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multicent import (  # noqa: E402
    InputError,
    alpha_sweep,
    contraction_factor,
    isim_curve,
    write_position_table,
)
from multicent.cli import EXIT_INPUT, _load_network  # noqa: E402


def float_list(text):
    return [float(a) for a in text.split(",") if a.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="multiplex edge-list file")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--layers", type=int, default=None)
    parser.add_argument("--alphas", type=float_list, default="2.1,2.5,2.7,3,4,5,10")
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--out", type=Path, default=None,
                        help="write rank-position tables (spaghetti data) here")
    args = parser.parse_args()

    net = _load_network(args.input, args.nodes, args.layers, "mirror")
    result = alpha_sweep(net, args.alphas, args.beta, tol=args.tol, max_iter=5000)

    print(f"{'alpha':>8} {'rho':>8} {'iters':>6} {'bound':>6} "
          f"{'isim@10 vs first':>18}")
    first = next((e for e in result.entries if e.ok), None)
    for e in result.entries:
        if not e.ok:
            print(f"{e.alpha:>8.3g} {'-':>8} {'-':>6} {'-':>6}  gate: {e.error}")
            continue
        rho = contraction_factor(e.alpha, result.beta).rho
        move = isim_curve(first.node_ranking, e.node_ranking)[min(9, net.n - 1)]
        bound = e.report.a_priori_bound_k
        print(f"{e.alpha:>8.3g} {rho:>8.4f} {e.report.iterations:>6} "
              f"{bound if bound is not None else '-':>6} {move:>18.4f}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for which, table in (("node", result.node_position_table()),
                             ("layer", result.layer_position_table())):
            path = args.out / f"sweep_{which}_positions.csv"
            path.write_text(write_position_table(table), encoding="utf-8")
        print(f"\nwrote rank-position tables to {args.out}/")


if __name__ == "__main__":
    try:
        main()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT)
