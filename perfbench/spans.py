"""Spans around calls into each layer of the package, recorded from outside it.

:class:`Tracer` rebinds public functions of ``multicent`` in every namespace
that imports them (``multicent.cli.node_layer_centrality``,
``multicent.ranking.node_layer_centrality``, ...) to pass-through wrappers.
Each call then leaves a :class:`Span` with its name, start, end, parent and
pass id, plus counts read from its arguments and result. Spans stay in
memory until the run ends. :func:`summarize` turns one pass's spans into
the per-layer metrics, using self time (duration minus the time covered by
child spans) where a layer's own cost is wanted.

The package itself is untouched: uninstalling restores every original.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("io", "network", "solver", "baselines", "ranking", "cli")
CLI_COMMANDS = ("info", "bound", "centrality", "compare", "baseline")
BASELINE_MEASURES = ("eig_cen", "eig_ver", "agg_eig", "agg_deg", "local_het", "global_het")


def _parse_counts(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    # generated inputs are ASCII, so characters are bytes
    return {"records": len(result.records), "bytes": len(text)}


def _nnz(args, kwargs, result):
    return {"nnz": int(result.nnz)}


def _solve_counts(args, kwargs, result):
    return {"iterations": int(result[1].iterations)}


def _bound_counts(args, kwargs, result):
    return {"k": int(result.k)}


def _perron_counts(args, kwargs, result):
    # the power method only stops early when it converges, so an
    # unconverged result ran to max_iter
    return {"iterations": int(result.iterations), "converged": int(bool(result.converged))}


# (namespace, attribute, span name, counter). A namespace is a module or a
# class; a function imported into several modules is rebound in each one
# that calls it, so calls are seen whichever module makes them.
TARGETS = (
    ("multicent.cli", "parse_multiplex_edges", "io.parse", _parse_counts),
    ("multicent.cli", "to_network", "io.to_network", None),
    ("multicent.cli", "write_scores", "io.write", None),
    ("multicent.io", "build_network", "network.build", None),
    ("multicent.cli", "connectivity", "network.connectivity", None),
    ("multicent.network", "aggregate_matrix", "network.aggregate", None),
    ("multicent.baselines", "aggregate_matrix", "network.aggregate", None),
    ("multicent.baselines", "supra_adjacency", "network.supra", _nnz),
    ("multicent.baselines", "khatri_rao_influence", "network.khatri_rao", _nnz),
    ("multicent.cli", "node_layer_centrality", "solver.solve", _solve_counts),
    ("multicent.ranking", "node_layer_centrality", "solver.solve", _solve_counts),
    ("multicent.solver", "normalized_update", "solver.update", None),
    ("multicent.cli", "iteration_bound", "solver.bound", _bound_counts),
    ("multicent.solver", "iteration_bound", "solver.bound", _bound_counts),
    ("multicent.baselines", "matrix_perron", "baselines.perron", _perron_counts),
    ("multicent.cli", "layerwise_eigenvector_centrality", "baselines.eig_cen", None),
    ("multicent.cli", "versatility_centrality", "baselines.eig_ver", None),
    ("multicent.cli", "aggregate_eigenvector_centrality", "baselines.agg_eig", None),
    ("multicent.cli", "aggregate_degree_centrality", "baselines.agg_deg", None),
    ("multicent.cli", "local_heterogeneous_centrality", "baselines.local_het", None),
    ("multicent.cli", "global_heterogeneous_centrality", "baselines.global_het", None),
    ("multicent.cli", "alpha_sweep", "ranking.sweep", None),
    ("multicent.ranking:SweepResult", "node_position_table", "ranking.tables", None),
    ("multicent.ranking:SweepResult", "layer_position_table", "ranking.tables", None),
    ("multicent.cli", "rank", "ranking.rank", None),
    ("multicent.io", "rank", "ranking.rank", None),
    ("multicent.ranking", "rank", "ranking.rank", None),
    ("multicent.cli", "pearson", "ranking.pearson", None),
    ("multicent.cli", "isim_curve", "ranking.isim", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _namespace(path: str):
    """The module or class at ``module[:Class]``, or None when it is gone."""
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Records spans in memory; rebinds :data:`TARGETS` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        """A pass-through wrapper of ``fn`` that records one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.spans[idx].counts.update(count(args, kwargs, result))
                return result
            finally:
                self._close(idx)

        return traced

    def install(self, targets=TARGETS) -> None:
        """Rebind every target that exists; record the ones that do not."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for path, attr, name, count in targets:
            owner = _namespace(path)
            fn = None if owner is None else owner.__dict__.get(attr)
            if not callable(fn):
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, count))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def summarize(spans: list[Span], pass_id: int) -> dict:
    """Per-layer metrics of one traced pass.

    Each pass has one root span named ``pass``, whose children are the
    ``cli.<command>`` spans of the pass, whose descendants are the library
    spans. Times are inclusive unless the name says self time; the
    ``<layer>.self_s`` values plus ``cli.self_s`` (root and command self
    time: argument parsing and output formatting) add up to the pass.
    """
    rows = [(s, o) for s, o in zip(spans, self_times(spans)) if s.pass_id == pass_id]
    total: dict = {}
    self_s: dict = {}
    calls: dict = {}
    counts: dict = {}
    for s, o in rows:
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        self_s[s.name] = self_s.get(s.name, 0.0) + o
        calls[s.name] = calls.get(s.name, 0) + 1
        for k, v in s.counts.items():
            counts.setdefault(s.name, {}).setdefault(k, []).append(v)

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return sum(counts.get(name, {}).get(key, []))

    m = {
        "io.parse_s": self_s.get("io.parse", 0.0),
        "io.to_network_s": self_s.get("io.to_network", 0.0),
        "io.write_s": t("io.write"),
        "io.records": c("io.parse", "records"),
        "io.bytes": c("io.parse", "bytes"),
        "network.build_s": t("network.build"),
        "network.supra_s": t("network.supra"),
        "network.supra_nnz": c("network.supra", "nnz"),
        "network.khatri_rao_s": t("network.khatri_rao"),
        "network.khatri_rao_nnz": c("network.khatri_rao", "nnz"),
        "network.aggregate_s": t("network.aggregate"),
        "network.aggregate_calls": calls.get("network.aggregate", 0),
        "network.connectivity_s": t("network.connectivity"),
        "solver.solve_s": self_s.get("solver.solve", 0.0),
        "solver.update_s": t("solver.update"),
        "solver.updates": calls.get("solver.update", 0),
        "solver.iterations": c("solver.solve", "iterations"),
        "solver.bound_s": t("solver.bound"),
        "solver.a_priori_k": max(counts.get("solver.bound", {}).get("k", [0])),
    }
    m["solver.update_ms_per_call"] = (1e3 * m["solver.update_s"] / m["solver.updates"]
                                      if m["solver.updates"] else 0.0)
    for measure in BASELINE_MEASURES:
        m[f"baselines.{measure}_s"] = t(f"baselines.{measure}")
    perron_calls = calls.get("baselines.perron", 0)
    converged = c("baselines.perron", "converged")
    m.update({
        "baselines.perron_s": t("baselines.perron"),
        "baselines.perron_calls": perron_calls,
        "baselines.perron_iterations": c("baselines.perron", "iterations"),
        "baselines.perron_max_iter_hits": perron_calls - converged,
        "baselines.perron_converged_frac": converged / perron_calls if perron_calls else 0.0,
        "ranking.sweep_s": self_s.get("ranking.sweep", 0.0),
        "ranking.tables_s": t("ranking.tables"),
        "ranking.rank_s": t("ranking.rank"),
        "ranking.rank_calls": calls.get("ranking.rank", 0),
        "ranking.pearson_s": t("ranking.pearson"),
        "ranking.isim_s": t("ranking.isim"),
    })
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = t(f"cli.{command}")
    wall = sum(s.seconds for s, _ in rows if s.parent is None)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(o for s, o in rows if s.name.split(".")[0] == layer)
    m["cli.self_s"] += sum(o for s, o in rows if s.parent is None)
    for layer in LAYERS:
        m[f"{layer}.share"] = m[f"{layer}.self_s"] / wall if wall else 0.0
    m["trace.wall_s"] = wall
    return m


def summarize_passes(spans: list[Span]) -> dict:
    """Median of each per-layer metric over the traced passes in ``spans``."""
    per_pass = [summarize(spans, p) for p in sorted({s.pass_id for s in spans})]
    if not per_pass:
        return {}
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
