"""Command-line front end.

Subcommands mirror the library: ``centrality`` runs the nonlinear
node/layer solver (optionally sweeping the node exponent), ``baseline``
computes any of the linear eigenvector measures, ``compare`` emits pairwise
Pearson/intersection-similarity/scatter data for a set of measures,
``bound`` prints the a priori iteration certificate, and ``info`` prints
connectivity diagnostics.

Exit codes: 0 on success, 2 on input or parameter errors, 3 when an
iteration fails to converge (outputs are still written).
"""

from __future__ import annotations

import ctypes
import json
from itertools import combinations
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .baselines import (
    aggregate_degree_centrality,
    aggregate_eigenvector_centrality,
    global_heterogeneous_centrality,
    layerwise_eigenvector_centrality,
    local_heterogeneous_centrality,
    versatility_centrality,
)
from .errors import InputError, ParseError, ValidationError
from .io import (
    SYMMETRIZE_POLICIES,
    parse_multiplex_edges,
    report_to_dict,
    to_network,
    write_position_table,
    write_scores,
)
from .network import InfluenceMatrix, connectivity
from .ranking import alpha_sweep, isim_curve, pearson, rank
from .solver import (
    NodeLayerScores,
    SolverParams,
    contraction_factor,
    iteration_bound,
    node_layer_centrality,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

SOLVER, NODE, PER_LAYER = "solver", "node", "per-layer"


def measure_table() -> dict:
    """Every measure the CLI and the scripts compute: name -> (function, kind).

    ``solver``: ``fn(net, params)`` returns the nonlinear ``(scores, report)``;
    ``node``: ``fn(net, omega)`` returns a ScoreResult (``agg_deg`` takes no
    layer weights: ``omega`` is None); ``per-layer``: ``fn(net, influence)``
    returns a CentralityMatrix with one column per layer. Built on each call,
    so each entry is the function bound to its name in this module then.
    """
    return {
        "nonlinear": (node_layer_centrality, SOLVER),
        "eig_ver": (versatility_centrality, NODE),
        "eig_cen": (layerwise_eigenvector_centrality, NODE),
        "agg_eig": (aggregate_eigenvector_centrality, NODE),
        "agg_deg": (lambda net, omega: aggregate_degree_centrality(net), NODE),
        "local_het": (local_heterogeneous_centrality, PER_LAYER),
        "global_het": (global_heterogeneous_centrality, PER_LAYER),
    }


def _names(*kinds) -> list:
    return [name for name, (_, kind) in measure_table().items() if kind in kinds]


def _parse_option(ctx, param, value):
    """Turn a comma-separated list option or the --influence file into values.

    Malformed values are reported by click as a usage error (exit 2).
    ``--influence`` becomes a function of the layer count.
    """
    if value is None:
        return None
    try:
        if param.name == "influence":
            named = {"identity": InfluenceMatrix.identity, "ones": InfluenceMatrix.uniform}
            if value in named:
                return named[value]
            matrix = np.loadtxt(value, ndmin=2)
            return lambda L: InfluenceMatrix(matrix)
        items = [v.strip() for v in value.split(",") if v.strip()]
        if not items:
            raise click.BadParameter("the list has no items")
        if param.name == "measures":
            unknown = [m for m in items if m not in _names(SOLVER, NODE)]
            if unknown:
                raise click.BadParameter(f"unknown measures: {', '.join(unknown)}")
            return items
        return [float(v) for v in items]
    except (OSError, ValueError) as exc:
        raise click.BadParameter(str(exc)) from None


def _load_network(path, nodes, layers, symmetrize):
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None
    doc = parse_multiplex_edges(text)
    del text
    try:
        return to_network(doc, n=nodes, L=layers, symmetrize=symmetrize)
    except MemoryError:
        raise InputError(f"cannot allocate a network of {nodes or doc.inferred_n} nodes "
                         f"and {layers or doc.inferred_L} layers") from None


def _emit(output_dir, filename, text):
    if output_dir is None:
        click.echo(f"# {filename}")
        click.echo(text, nl=False)
    else:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(text, encoding="utf-8")


def _node_table(net, columns, rows):
    """CSV with one row per node: index, label, then one value per column."""
    labels = net.node_labels or [str(i + 1) for i in range(net.n)]
    lines = ["index,label," + ",".join(str(c) for c in columns)]
    for i, row in enumerate(rows):
        lines.append(f"{i + 1},{labels[i]}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _warned(name, result):
    """``result``, after a stderr warning when its scores are not unique."""
    if result.degenerate_warning:
        click.echo(f"warning: {name} scores are not uniquely determined "
                   "on this network", err=True)
    return result


def _network_options(f):
    f = click.option("--symmetrize", type=click.Choice(SYMMETRIZE_POLICIES),
                     default="mirror", show_default=True,
                     help="How to reconcile edges listed in both directions.")(f)
    f = click.option("--layers", "layers_override", type=int, default=None,
                     help="Layer count override (>= largest layer index in the file).")(f)
    f = click.option("--nodes", "nodes_override", type=int, default=None,
                     help="Node count override (>= largest node index in the file).")(f)
    return f


def _solver_options(f):
    f = click.option("--unsafe-params", is_flag=True,
                     help="Allow exponents outside the uniqueness region 2/beta < alpha-1.")(f)
    f = click.option("--stopping-norm", type=click.Choice(["euclidean", "one", "max"]),
                     default="euclidean", show_default=True)(f)
    f = click.option("--max-iter", type=int, default=1000, show_default=True)(f)
    f = click.option("--tol", type=float, default=1e-6, show_default=True)(f)
    f = click.option("--beta", type=float, default=2.0, show_default=True,
                     help="Layer exponent.")(f)
    f = click.option("--alpha", type=float, default=2.1, show_default=True,
                     help="Node exponent.")(f)
    return f


_output_option = click.option("-o", "--output", "output_dir", type=click.Path(file_okay=False),
                              default=None, help="Directory for output files (default: stdout).")
_format_option = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                              default="csv", show_default=True)


class _Main(click.Group):
    """The command group; the one place where rejected input becomes exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(EXIT_INPUT)


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="multicent")
def main():
    """Node and layer centrality for undirected multiplex networks."""
    # glibc raises its mmap threshold (mallopt -3) to the size of each freed
    # mmapped block, up to 32 MiB. Once a load has freed its first arrays of
    # records, later ones come from the brk heap, which keeps them resident
    # and fragmented after their free. Setting the threshold holds it at its
    # starting 128 KiB, so large arrays go back to the system when freed.
    try:
        ctypes.CDLL(None).mallopt(-3, 128 * 1024)
    except (AttributeError, OSError, TypeError):  # no glibc
        pass


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@_network_options
@_solver_options
@click.option("--alpha-list", default=None, callback=_parse_option,
              help="Comma-separated node exponents; runs the exponent sweep "
                   "instead of a single solve.")
@click.option("--random-start", "seed", type=click.IntRange(min=0), default=None, metavar="SEED",
              help="Start from a positive pair drawn with this seed instead of all ones.")
@_output_option
@_format_option
@click.pass_context
def centrality(ctx, input_path, nodes_override, layers_override, symmetrize,
               alpha, beta, tol, max_iter, stopping_norm, unsafe_params,
               alpha_list, seed, output_dir, fmt):
    """Nonlinear node/layer centrality of the multiplex in INPUT_PATH."""
    used = [opt for opt, on in (
        ("--alpha", ctx.get_parameter_source("alpha") is not ParameterSource.DEFAULT),
        ("--random-start", seed is not None), ("--format json", fmt == "json")) if on]
    if alpha_list is not None and used:
        raise click.UsageError(f"{used[0]} does not apply to --alpha-list, which sweeps "
                               "its own node exponents from the uniform start and writes CSV")
    net = _load_network(input_path, nodes_override, layers_override, symmetrize)
    if alpha_list is not None:
        result = alpha_sweep(net, alpha_list, beta, tol=tol, max_iter=max_iter,
                             stopping_norm=stopping_norm,
                             unsafe_params=unsafe_params)
        _write_sweep(result, output_dir)
        if not any(e.ok for e in result.entries):
            raise SystemExit(EXIT_INPUT)
        if any(e.ok and not e.report.converged for e in result.entries):
            raise SystemExit(EXIT_NO_CONVERGENCE)
        return
    params = SolverParams(alpha=alpha, beta=beta, tol=tol, max_iter=max_iter,
                          stopping_norm=stopping_norm, unsafe_params=unsafe_params)
    start = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        start = NodeLayerScores(x=rng.uniform(0.1, 1.0, net.n),
                                t=rng.uniform(0.1, 1.0, net.L))
    scores, report = node_layer_centrality(net, params, start=start)
    _emit(output_dir, f"nodes.{fmt}",
          write_scores(scores.x, fmt=fmt, labels=net.node_labels))
    _emit(output_dir, f"layers.{fmt}",
          write_scores(scores.t, fmt=fmt, labels=net.layer_labels))
    _emit(output_dir, "report.json",
          json.dumps(report_to_dict(report), indent=2) + "\n")
    if not report.converged:
        click.echo(f"warning: not converged after {report.iterations} iterations",
                   err=True)
        raise SystemExit(EXIT_NO_CONVERGENCE)


def _write_sweep(result, output_dir):
    lines = ["alpha,converged,iterations,error"]
    for e in result.entries:
        if e.ok:
            lines.append(f"{e.alpha!r},{e.report.converged},{e.report.iterations},")
        else:
            lines.append(f"{e.alpha!r},,,\"{e.error}\"")
    _emit(output_dir, "sweep_iterations.csv", "\n".join(lines) + "\n")
    _emit(output_dir, "sweep_node_positions.csv",
          write_position_table(result.node_position_table()))
    _emit(output_dir, "sweep_layer_positions.csv",
          write_position_table(result.layer_position_table()))


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@_network_options
@click.option("--measure", type=click.Choice(_names(NODE, PER_LAYER)), required=True)
@click.option("--omega", default=None, callback=_parse_option,
              help="Comma-separated positive layer weights (default: all ones).")
@click.option("--influence", default="ones", show_default=True, callback=_parse_option,
              help="Influence matrix for the heterogeneous measures: "
                   "'identity', 'ones', or a path to an LxL whitespace matrix.")
@_output_option
@_format_option
@click.pass_context
def baseline(ctx, input_path, nodes_override, layers_override, symmetrize,
             measure, omega, influence, output_dir, fmt):
    """One of the linear eigenvector-based centralities of INPUT_PATH."""
    fn, kind = measure_table()[measure]
    if omega is not None and (kind == PER_LAYER or measure == "agg_deg"):
        raise click.UsageError(f"--omega does not apply to {measure}, "
                               "which takes no layer weights")
    if kind == NODE and ctx.get_parameter_source("influence") is not ParameterSource.DEFAULT:
        raise click.UsageError(f"--influence does not apply to {measure}, "
                               "which takes no influence matrix")
    if fmt == "json" and kind == PER_LAYER:
        raise click.UsageError(f"--format json does not apply to {measure}, which writes CSV")
    net = _load_network(input_path, nodes_override, layers_override, symmetrize)
    if kind == NODE:
        res = _warned(measure, fn(net, omega))
        _emit(output_dir, f"{measure}.{fmt}",
              write_scores(res.scores, fmt=fmt, labels=net.node_labels))
        return
    cm = _warned(measure, fn(net, influence(net.L)))
    columns = net.layer_labels or [f"layer{l + 1}" for l in range(net.L)]
    _emit(output_dir, f"{measure}.csv", _node_table(net, columns, cm.matrix))


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@_network_options
@_solver_options
@click.option("--measures", default=",".join(_names(SOLVER, NODE)), show_default=True,
              callback=_parse_option,
              help="Comma-separated subset of: " + ", ".join(_names(SOLVER, NODE)))
@click.option("--k", "top_k", type=click.IntRange(min=1), default=None,
              help="Also emit the pairwise intersection similarity at this K "
                   "(at most the node count).")
@_output_option
def compare(input_path, nodes_override, layers_override, symmetrize,
            alpha, beta, tol, max_iter, stopping_norm, unsafe_params,
            measures, top_k, output_dir):
    """Pairwise ranking comparison of several measures on INPUT_PATH.

    A Pearson cell reads nan when a measure is constant on the network.
    """
    exit_code = EXIT_OK
    net = _load_network(input_path, nodes_override, layers_override, symmetrize)
    table = measure_table()
    vectors = {}
    for name in measures:
        fn, kind = table[name]
        if kind == SOLVER:
            params = SolverParams(alpha=alpha, beta=beta, tol=tol,
                                  max_iter=max_iter, stopping_norm=stopping_norm,
                                  unsafe_params=unsafe_params)
            scores, report = fn(net, params)
            if not report.converged:
                click.echo("warning: nonlinear solve did not converge", err=True)
                exit_code = EXIT_NO_CONVERGENCE
            vectors[name] = scores.x
        else:
            vectors[name] = _warned(name, fn(net, None)).scores

    rows = [[vectors[m][i] for m in measures] for i in range(net.n)]
    _emit(output_dir, "measures.csv", _node_table(net, measures, rows))

    pairs = list(combinations(measures, 2))
    lines = ["measure_a,measure_b,pearson"]
    for a, b in pairs:
        try:
            r = repr(pearson(vectors[a], vectors[b]))
        except ValidationError as exc:
            click.echo(f"warning: pearson {a},{b} is nan: {exc}", err=True)
            r = "nan"
        lines.append(f"{a},{b},{r}")
    _emit(output_dir, "pearson.csv", "\n".join(lines) + "\n")

    rankings = {m: rank(vectors[m]) for m in measures}
    top = None if top_k is None else min(top_k, net.n)
    lines = ["measure_a,measure_b,k,isim"]
    at_k = ["measure_a,measure_b,k,isim"]
    for a, b in pairs:
        curve = isim_curve(rankings[a], rankings[b])
        for k, val in enumerate(curve, start=1):
            lines.append(f"{a},{b},{k},{float(val)!r}")
        if top is not None:
            at_k.append(f"{a},{b},{top},{float(curve[top - 1])!r}")
    _emit(output_dir, "isim.csv", "\n".join(lines) + "\n")
    if top is not None:
        _emit(output_dir, "isim_at_k.csv", "\n".join(at_k) + "\n")
    if exit_code != EXIT_OK:
        raise SystemExit(exit_code)


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@_network_options
@click.option("--alpha", type=float, default=2.1, show_default=True)
@click.option("--beta", type=float, default=2.0, show_default=True)
@click.option("--epsilon", type=float, default=1e-6, show_default=True,
              help="Target max-norm accuracy of the certificate.")
def bound(input_path, nodes_override, layers_override, symmetrize,
          alpha, beta, epsilon):
    """A priori iteration-count certificate for the uniform start."""
    net = _load_network(input_path, nodes_override, layers_override, symmetrize)
    cdata = contraction_factor(alpha, beta)
    b = iteration_bound(net, alpha, beta, epsilon)
    click.echo(f"contraction factor rho = {cdata.rho!r}")
    click.echo(f"certificate constant C = {b.C!r}")
    click.echo(f"iterations for max-norm error <= {epsilon!r}: k = {b.k}")
    if b.uniform_start_exact:
        click.echo("note: node and layer strength profiles are uniform; the "
                   "normalized all-ones pair is already the fixed point")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@_network_options
def info(input_path, nodes_override, layers_override, symmetrize):
    """Size and connectivity summary of the multiplex in INPUT_PATH."""
    net = _load_network(input_path, nodes_override, layers_override, symmetrize)
    diag = connectivity(net)
    click.echo(f"nodes: {net.n}")
    click.echo(f"layers: {net.L}")
    click.echo(f"undirected edges: {net.edge_count()}")
    click.echo(f"isolated nodes: {len(diag.isolated_nodes)}")
    click.echo(f"empty layers: {len(diag.empty_layers)}")
    n_conn = sum(diag.layer_connected)
    click.echo(f"connected layers: {n_conn} of {net.L}")
    state = "connected" if diag.aggregate_connected else "disconnected"
    click.echo(f"aggregate: {state}")


if __name__ == "__main__":
    main()
