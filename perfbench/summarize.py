"""Spread of the end-to-end metrics over a set of run records.

    python3 perfbench/summarize.py perfbench/.work/records/*.json [--out FILE]

Groups untraced run records by workload and, for each end-to-end metric
that ``BENCHMARK.json`` lists, prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
distance as a share of the median, next to a third of the metric's bound.
``--out`` writes the summary plus the records themselves, which is how a
baseline under ``perfbench/results`` is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def summarize(records, spec) -> dict:
    out = {}
    for w in spec["workloads"]:
        runs = [r for r in records if r["workload"] == w["name"] and r["trace"] == 0]
        if len(runs) < 2:
            continue
        out[w["name"]] = {
            "seeds": [r["seed"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {m["name"]: {**spread([r["end_to_end"][m["name"]] for r in runs]),
                                    "bound": m["bound"]}
                        for m in spec["end_to_end"]},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="+", type=Path)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [json.loads(p.read_text()) for p in args.records]
    summary = summarize(records, spec)
    steady = True
    for name, s in summary.items():
        print(f"{name}: {len(s['seeds'])} runs, {s['failed']} of {s['attempted']} "
              "operations failed")
        for metric, m in s["metrics"].items():
            ok = metric == "setup_s" or m["spread"] < m["bound"] / 3
            steady &= ok
            print(f"  {metric:<12} median {m['median']:<10.5g} q1 {m['q1']:<10.5g} "
                  f"q3 {m['q3']:<10.5g} spread {m['spread']:.4f}  bound/3 "
                  f"{m['bound'] / 3:.4f} {'ok' if ok else 'WIDE'}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"summary": summary, "records": records},
                                       indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
