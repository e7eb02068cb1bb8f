"""Edge-list parsing and score/report serialization.

The edge-list format is the one the public multiplex datasets ship in:
whitespace-separated ``layer node node [weight]`` records, 1-based indices,
optional ``#`` comment lines, weight defaulting to 1. Undirected edges may
be listed once or twice; :func:`to_network` reconciles the two conventions
under an explicit policy.
"""

from __future__ import annotations

import json
import math
import warnings
from array import array
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .errors import ParseError, ValidationError
from .network import MultiplexNetwork, build_network, group_pairs
from .ranking import rank
from .solver import ConvergenceReport

SYMMETRIZE_POLICIES = ("mirror", "max", "error")


@dataclass
class EdgeListDocument:
    """``records``: the (m, 4) float array of ``layer, a, b, weight`` rows in
    file order, 1-based; plus the node/layer counts inferred from them."""

    records: np.ndarray
    inferred_n: int
    inferred_L: int


MAX_INDEX = 2**53  # the largest integer that the float64 records hold exactly

# Every character of a text the vectorized parser may read: digits, the signs,
# dot and exponent of a float, spaces, tabs and line ends. Any other character
# (a ``#`` comment, a vertical tab, an underscore, ``nan``, a non-ASCII digit or
# space) sends the text to the line loop, so what the vectorized parser accepts
# does not rest on how numpy tokenizes it.
_FAST_CHARS = b"0123456789 \t\n\r.eE+-"


def parse_multiplex_edges(text: str) -> EdgeListDocument:
    """Parse edge-list text into records, preserving 1-based indices.

    Accepts LF or CRLF line endings. Blank lines and lines starting with
    ``#`` are skipped. Each remaining line must have 3 or 4 fields:
    layer, node, node, and an optional positive weight. Indices must lie
    in 1..2**53.

    Plain numeric text is read in one vectorized pass; any other text, and
    any text that pass has doubts about, goes through the line loop, which
    raises every line-numbered error.
    """
    records = _parse_numeric(text)
    if records is None:
        records = _parse_lines(text)
    top = records.max(axis=0, initial=0.0)
    return EdgeListDocument(records=records, inferred_n=int(max(top[1], top[2])),
                            inferred_L=int(top[0]))


def _parse_numeric(text: str) -> np.ndarray | None:
    """The records of ``text`` read by ``np.loadtxt``, or None when in doubt.

    Returns an array only where the line loop would return the same bytes:
    the text holds only :data:`_FAST_CHARS`, every line has the field count
    of the first one, loadtxt neither raises nor warns, and every index and
    weight passes the loop's checks.
    """
    if not text.isascii() or text.encode("ascii").translate(None, _FAST_CHARS):
        return None
    fields = len(next(filter(str.strip, _lines(text)), "").split())
    if fields not in (3, 4):
        return None
    dtype = np.dtype([("layer", np.int64), ("a", np.int64), ("b", np.int64),
                      ("w", np.float64)][:fields])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(_lines(text), dtype=dtype, comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    indices = [table[name] for name in dtype.names[:3]]
    if any(col.min() < 1 or col.max() > MAX_INDEX for col in indices):
        return None
    if fields == 4 and not np.all((table["w"] > 0) & (table["w"] < np.inf)):
        return None
    records = np.ones((len(table), 4))
    for k, name in enumerate(dtype.names):
        records[:, k] = table[name]
    return records


def _lines(text: str):
    """``text.splitlines()`` as an iterator, split 1 MiB at a time to bound the memory."""
    ends = [0]
    while ends[-1] < len(text):
        ends.append(text.find("\n", ends[-1] + (1 << 20)) + 1 or len(text))
    return chain.from_iterable(text[a:b].splitlines() for a, b in zip(ends, ends[1:]))


def _parse_lines(text: str) -> np.ndarray:
    """The records of ``text``, line by line; raises at the first bad line."""
    flat = array("d")
    for lineno, raw in enumerate(_lines(text), start=1):
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
        try:
            w = float(parts[3]) if len(parts) == 4 else 1.0
        except ValueError:
            raise ParseError(f"bad weight in {line!r}", lineno) from None
        if layer < 1 or a < 1 or b < 1:
            raise ValidationError(f"line {lineno}: indices must be positive (1-based)")
        if max(layer, a, b) > MAX_INDEX:
            raise ValidationError(f"line {lineno}: indices must be at most 2**53")
        if not math.isfinite(w):
            raise ValidationError(f"line {lineno}: weight must be finite")
        if w <= 0:
            raise ValidationError(f"line {lineno}: weight must be positive")
        flat.extend((layer, a, b, w))
    return np.frombuffer(flat, dtype=float).reshape(-1, 4)


def to_network(doc: EdgeListDocument, n: int | None = None, L: int | None = None,
               symmetrize: str = "mirror", node_labels=None,
               layer_labels=None) -> MultiplexNetwork:
    """Materialize a document as an undirected multiplex.

    ``n``/``L`` override the inferred counts (they may only enlarge them).
    Since the files list an undirected edge either once or in both
    directions, the weights of each direction are first summed in file
    order and then reconciled per unordered pair:

    - ``mirror`` (default): a single listed direction is mirrored; when both
      directions appear with equal weight they count as one edge; unequal
      weights take the maximum and emit a warning.
    - ``max``: like mirror, but unequal weights take the maximum silently.
    - ``error``: unequal weights for the two directions raise instead.

    Warnings are emitted, and the ``error`` policy raises, in the order of
    each pair's first low-to-high record.
    """
    if symmetrize not in SYMMETRIZE_POLICIES:
        raise ValidationError(f"unknown symmetrize policy {symmetrize!r}")
    n_final = doc.inferred_n if n is None else n
    L_final = doc.inferred_L if L is None else L
    for what, given, seen in (("node", n, doc.inferred_n), ("layer", L, doc.inferred_L)):
        if given is not None and given < seen:
            raise ValidationError(f"{what} override {given} is below the largest index "
                                  f"seen ({seen})")
    if n_final < 1 or L_final < 1:
        raise ValidationError("cannot infer network size from an empty document; "
                              "pass explicit node and layer counts")

    layer, a, b = doc.records[:, :3].astype(np.int64).T
    pairs, group = group_pairs(n_final, L_final, layer, np.minimum(a, b), np.maximum(a, b))
    # a listed direction that is not low-to-high sums into w_ba, and an
    # unlisted one stays 0
    w, forward = doc.records[:, 3], a <= b
    del layer, a, b
    w_ab = np.bincount(group, np.where(forward, w, 0.0), minlength=len(pairs[0]))
    w_ba = np.bincount(group, np.where(forward, 0.0, w), minlength=len(pairs[0]))

    clash = np.flatnonzero((w_ab != w_ba) & (w_ab > 0) & (w_ba > 0))
    if len(clash) and symmetrize != "max":
        listed = np.flatnonzero(forward & np.isin(group, clash))
        _, first = np.unique(group[listed], return_index=True)
        for g in clash[np.argsort(listed[first])]:
            l, i, j = (int(col[g]) for col in pairs)
            both = f"{w_ab[g].item()} vs {w_ba[g].item()}"
            if symmetrize == "error":
                raise ValidationError(f"asymmetric weights for nodes {i},{j} on layer {l}: {both}")
            warnings.warn(f"unequal weights for nodes {i},{j} on layer {l} ({both}); "
                          "keeping the maximum", RuntimeWarning, stacklevel=2)
    del group, forward  # free the per-record arrays before the layers are built
    edges = np.column_stack((*pairs, np.maximum(w_ab, w_ba)))
    del pairs, w_ab, w_ba
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


def write_scores(scores, fmt: str = "csv", labels=None,
                 report: ConvergenceReport | None = None) -> str:
    """Serialize a score vector with its ranks, optionally bundling the report.

    CSV columns are ``index,label,score,rank``; indices and the ranks of
    :func:`rank` are 1-based. Scores are written with ``repr`` so parsing them
    back is exact. JSON carries the same rows plus the report fields verbatim.
    """
    s = np.asarray(scores, dtype=float)
    index = range(1, len(s) + 1)
    if labels is None:
        labels = index
    places = (rank(s).positions() + 1).tolist()
    if fmt == "csv":
        lines = ["index,label,score,rank"]
        lines += [f"{i},{label},{x!r},{p}"
                  for i, label, x, p in zip(index, labels, s.tolist(), places)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = [{"index": i, "label": str(label), "score": x, "rank": p}
                for i, label, x, p in zip(index, labels, s.tolist(), places)]
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
