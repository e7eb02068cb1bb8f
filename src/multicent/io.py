"""Edge-list parsing and score/report serialization.

The edge-list format is the one the public multiplex datasets ship in:
whitespace-separated ``layer node node [weight]`` records, 1-based indices,
optional ``#`` comment lines, weight defaulting to 1. Undirected edges may
be listed once or twice; :func:`to_network` reconciles the two conventions
under an explicit policy.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .network import MultiplexNetwork, build_network
from .ranking import Ranking, rank
from .solver import ConvergenceReport

SYMMETRIZE_POLICIES = ("mirror", "max", "error")


@dataclass
class EdgeListDocument:
    """Parsed records plus the node/layer counts inferred from the indices."""

    records: tuple
    inferred_n: int
    inferred_L: int


def parse_multiplex_edges(text: str) -> EdgeListDocument:
    """Parse edge-list text into records, preserving 1-based indices.

    Accepts LF or CRLF line endings. Blank lines and lines starting with
    ``#`` are skipped. Each remaining line must have 3 or 4 fields:
    layer, node, node, and an optional positive weight.
    """
    records = []
    max_node = 0
    max_layer = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError(f"expected 3 or 4 fields, got {len(parts)}", lineno)
        try:
            layer, a, b = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer index in {line!r}", lineno) from None
        if len(parts) == 4:
            try:
                w = float(parts[3])
            except ValueError:
                raise ParseError(f"bad weight in {line!r}", lineno) from None
        else:
            w = 1.0
        if layer < 1 or a < 1 or b < 1:
            raise ValidationError(f"line {lineno}: indices must be positive (1-based)")
        if not np.isfinite(w):
            raise ValidationError(f"line {lineno}: weight must be finite")
        if w <= 0:
            raise ValidationError(f"line {lineno}: weight must be positive")
        records.append((layer, a, b, w))
        max_node = max(max_node, a, b)
        max_layer = max(max_layer, layer)
    return EdgeListDocument(records=tuple(records), inferred_n=max_node,
                            inferred_L=max_layer)


def to_network(doc: EdgeListDocument, n: int | None = None, L: int | None = None,
               symmetrize: str = "mirror", node_labels=None,
               layer_labels=None) -> MultiplexNetwork:
    """Materialize a document as an undirected multiplex.

    ``n``/``L`` override the inferred counts (they may only enlarge them).
    Since the files list an undirected edge either once or in both
    directions, the per-direction weights are first accumulated and then
    reconciled per unordered pair:

    - ``mirror`` (default): a single listed direction is mirrored; when both
      directions appear with equal weight they count as one edge; unequal
      weights take the maximum and emit a warning.
    - ``max``: like mirror, but unequal weights take the maximum silently.
    - ``error``: unequal weights for the two directions raise instead.
    """
    if symmetrize not in SYMMETRIZE_POLICIES:
        raise ValidationError(f"unknown symmetrize policy {symmetrize!r}")
    n_final = doc.inferred_n if n is None else n
    L_final = doc.inferred_L if L is None else L
    if n is not None and n < doc.inferred_n:
        raise ValidationError(f"node override {n} is below the largest index seen "
                              f"({doc.inferred_n})")
    if L is not None and L < doc.inferred_L:
        raise ValidationError(f"layer override {L} is below the largest index seen "
                              f"({doc.inferred_L})")
    if n_final < 1 or L_final < 1:
        raise ValidationError("cannot infer network size from an empty document; "
                              "pass explicit node and layer counts")

    directed: dict = {}
    for layer, a, b, w in doc.records:
        key = (layer, a, b)
        directed[key] = directed.get(key, 0.0) + w

    edges = []
    for (layer, a, b), w_ab in directed.items():
        if a > b:
            continue  # handled from the (b, a) side below
        if a == b:
            edges.append((layer, a, b, w_ab))
            continue
        w_ba = directed.get((layer, b, a))
        if w_ba is None:
            edges.append((layer, a, b, w_ab))
        elif w_ab == w_ba:
            edges.append((layer, a, b, w_ab))
        else:
            if symmetrize == "error":
                raise ValidationError(
                    f"asymmetric weights for nodes {a},{b} on layer {layer}: "
                    f"{w_ab} vs {w_ba}")
            if symmetrize == "mirror":
                warnings.warn(
                    f"unequal weights for nodes {a},{b} on layer {layer} "
                    f"({w_ab} vs {w_ba}); keeping the maximum", RuntimeWarning,
                    stacklevel=2)
            edges.append((layer, a, b, max(w_ab, w_ba)))
    # pairs listed only as (b, a) with a < b never hit the loop above
    for (layer, a, b), w_ab in directed.items():
        if a > b and (layer, b, a) not in directed:
            edges.append((layer, b, a, w_ab))
    return build_network(n_final, L_final, edges,
                         node_labels=node_labels, layer_labels=layer_labels)


def write_multiplex_edges(net: MultiplexNetwork) -> str:
    """Serialize a network back to edge-list text (each undirected edge once)."""
    lines = []
    for l, A in enumerate(net.layers, start=1):
        coo = A.tocoo()
        for i, j, w in sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())):
            if i <= j:
                lines.append(f"{l} {i + 1} {j + 1} {w!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def report_to_dict(report: ConvergenceReport) -> dict:
    """Plain-JSON view of a convergence report (None for inapplicable fields)."""
    d = asdict(report)
    d["node_residuals"] = [float(r) for r in d["node_residuals"]]
    d["layer_residuals"] = [float(r) for r in d["layer_residuals"]]
    return d


def write_scores(scores, ranking: Ranking | None = None, fmt: str = "csv",
                 labels=None, report: ConvergenceReport | None = None) -> str:
    """Serialize a score vector with ranks, optionally bundling the report.

    CSV columns are ``index,label,score,rank``; indices and ranks are
    1-based. Scores are written with ``repr`` so parsing them back is exact.
    JSON carries the same rows plus the report fields verbatim.
    """
    s = np.asarray(scores, dtype=float)
    if ranking is None:
        ranking = rank(s)
    pos = ranking.positions()
    if labels is None:
        labels = [str(i + 1) for i in range(len(s))]
    rows = [
        {"index": i + 1, "label": str(labels[i]), "score": float(s[i]),
         "rank": int(pos[i]) + 1}
        for i in range(len(s))
    ]
    if fmt == "csv":
        lines = ["index,label,score,rank"]
        lines += [f"{r['index']},{r['label']},{r['score']!r},{r['rank']}" for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {"scores": rows,
               "report": report_to_dict(report) if report is not None else None}
        return json.dumps(doc, indent=2) + "\n"
    raise ValidationError(f"unknown format {fmt!r}")


def write_position_table(table) -> str:
    """Serialize an ``(alphas, positions)`` sweep table as CSV.

    One row per node or layer (1-based index), one column per exponent,
    each cell the 1-based rank position at that exponent.
    """
    alphas, pos = table
    lines = ["index," + ",".join(repr(float(a)) for a in alphas)]
    for i in range(pos.shape[0]):
        lines.append(f"{i + 1}," + ",".join(str(p + 1) for p in pos[i]))
    return "\n".join(lines) + "\n"


def read_scores(text: str, fmt: str = "csv"):
    """Parse :func:`write_scores` output back into row dictionaries."""
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "index,label,score,rank":
            raise ParseError("missing score CSV header", 1)
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != 4:
                raise ParseError(f"expected 4 columns, got {len(parts)}", lineno)
            rows.append({"index": int(parts[0]), "label": parts[1],
                         "score": float(parts[2]), "rank": int(parts[3])})
        return rows
    if fmt == "json":
        return json.loads(text)["scores"]
    raise ValidationError(f"unknown format {fmt!r}")
