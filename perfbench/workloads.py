"""The benchmark's workloads: which shape one pass reads and which CLI commands it runs.

All workloads use the paper's exponents (alpha = 2.1, beta = 2), ``tol =
1e-6`` and the default ``mirror`` symmetrize policy. Node and layer counts
are passed explicitly because isolated nodes may include the largest index.
"""

from __future__ import annotations

from dataclasses import dataclass

from generate import SHAPES

ALPHA, BETA, TOL = 2.1, 2.0, 1e-6
ALPHA_LIST = (2.1, 2.5, 2.7, 3.0, 4.0, 5.0, 10.0)
COMPARE_MEASURES = ("nonlinear", "eig_ver", "eig_cen", "agg_eig", "agg_deg")
TOP_K = 10
INPUT, OUT = "{input}", "{out}"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``label`` names its output directory and its checks."""

    label: str
    argv: tuple

    @property
    def command(self) -> str:
        return self.argv[0]

    def args(self, input_path, out_dir) -> list:
        fill = {INPUT: str(input_path), OUT: str(out_dir)}
        return [fill.get(a, a) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    why: str
    commands: tuple


def commands(n: int, L: int, labels) -> tuple:
    """The commands named by ``labels``, for a multiplex of ``n`` nodes and ``L`` layers."""
    size = ("--nodes", str(n), "--layers", str(L))
    solver = ("--alpha", repr(ALPHA), "--beta", repr(BETA), "--tol", repr(TOL))
    table = {
        "info": ("info", INPUT, *size),
        "bound": ("bound", INPUT, *size, "--alpha", repr(ALPHA), "--beta", repr(BETA),
                  "--epsilon", repr(TOL)),
        "centrality": ("centrality", INPUT, *size, *solver, "-o", OUT),
        "compare": ("compare", INPUT, *size, *solver, "--measures",
                    ",".join(COMPARE_MEASURES), "--k", str(TOP_K), "-o", OUT),
        "local_het": ("baseline", INPUT, *size, "--measure", "local_het",
                      "--influence", "ones", "-o", OUT),
        "global_het": ("baseline", INPUT, *size, "--measure", "global_het",
                       "--influence", "ones", "-o", OUT),
        "sweep": ("centrality", INPUT, *size, "--alpha-list",
                  ",".join(repr(a) for a in ALPHA_LIST), "--beta", repr(BETA),
                  "--tol", repr(TOL), "-o", OUT),
    }
    return tuple(Command(label, table[label]) for label in labels)


def _commands_for(shape: str, labels) -> tuple:
    facts = SHAPES[shape][1]
    return commands(facts["n"], facts["L"], labels)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "euair_compare", "euair",
            "paper's comparison study on disconnected hub-and-spoke data: baselines, "
            "supra and Khatri-Rao builders dominate, loading is negligible",
            _commands_for("euair", ("info", "bound", "centrality", "compare", "local_het",
                                    "global_het", "sweep"))),
        Workload(
            "large_centrality", "large",
            "one solve on 1M weighted edges: parsing, reconciling and building the "
            "network dominate, then a 200k-row score write; no baseline runs",
            _commands_for("large", ("centrality",))),
        Workload(
            "wide_sweep", "wide",
            "seven solves of the alpha sweep on one loaded 200-layer network, "
            "where the L*n dense term of each update dominates",
            _commands_for("wide", ("sweep",))),
    )
}
