"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run the checks on the outputs of a small EU-air-shaped pass, so they
need the package sources under ``src/``.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import multicent.baselines  # noqa: E402
import multicent.cli  # noqa: E402
import multicent.solver  # noqa: E402
from checks import check_pass, isim_oracle, load_reference  # noqa: E402
from generate import SHAPES, ShapeError, check_shape, euair, large, save, shape_facts, wide  # noqa: E402
from multicent import MultiplexNetwork, SolverParams, build_network  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import commands  # noqa: E402

SMALL = {"n": 60, "L": 5, "m": 150, "isolated": 5, "hubs": 6}
LABELS = ("info", "bound", "centrality", "compare", "local_het", "global_het", "sweep")

GENERATORS = [
    pytest.param(lambda s: euair(s), id="euair"),
    pytest.param(lambda s: large(s, n=3000, L=6, m=12_000), id="large"),
    pytest.param(lambda s: wide(s, n=2000, L=20, m=4000), id="wide"),
]


@pytest.mark.parametrize("gen", GENERATORS)
def test_generator_is_byte_identical_per_seed(gen):
    a, b, c = gen(7), gen(7), gen(8)
    assert a.text == b.text
    for k in ("layer", "i", "j", "w"):
        assert np.array_equal(getattr(a, k), getattr(b, k))
    assert a.text != c.text


def test_written_files_are_byte_identical(tmp_path):
    from generate import write

    write("euair", 3, tmp_path / "a")
    write("euair", 3, tmp_path / "b")
    for name in ("input.edges", "shape.json", "edges.npz"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_euair_facts_hold_and_are_asserted():
    facts = shape_facts(euair(5), bipartite=True)
    check_shape("euair", facts)
    with pytest.raises(ShapeError, match="connected_layers"):
        check_shape("euair", {**facts, "connected_layers": 1})


def test_text_lists_the_canonical_edges():
    ef = large(2, n=3000, L=6, m=12_000)
    assert ef.both_directions == round(0.3 * ef.edges)
    rows = [line.split() for line in ef.text.splitlines()]
    assert len(rows) == ef.edges + ef.both_directions
    listed = {(int(l), min(int(a), int(b)), max(int(a), int(b))) for l, a, b, _ in rows}
    assert listed == set(zip(ef.layer.tolist(), ef.i.tolist(), ef.j.tolist()))


@pytest.fixture(scope="module")
def small_pass(tmp_path_factory):
    """A clean pass of every command over a small EU-air-shaped multiplex."""
    root = tmp_path_factory.mktemp("small")
    ef = euair(11, **SMALL)
    facts = shape_facts(ef, bipartite=True)
    assert facts["isolated_nodes"] == SMALL["isolated"] and facts["aggregate_bipartite"]
    save(ef, facts, root / "input")
    cmds = commands(SMALL["n"], SMALL["L"], LABELS)
    result = run_pass(multicent.cli.main, _workload(cmds), root / "input" / "input.edges",
                      root / "plain")
    return root, cmds, result


def _workload(cmds):
    from workloads import Workload

    return Workload("small", "euair", "test", cmds)


def _copy_pass(root, name):
    shutil.copytree(root / "plain", root / name)
    return root / name


def test_clean_pass_passes_every_check(small_pass):
    root, cmds, result = small_pass
    attempted, failures, observed = check_pass(load_reference(root / "input"), cmds,
                                               result["commands"], root / "plain")
    assert failures == []
    assert attempted == len(cmds) + 14
    assert len(observed["nonlinear_residual"]) == 1


def test_perturbed_nodes_csv_is_a_failure(small_pass):
    root, cmds, result = small_pass
    bad = _copy_pass(root, "perturbed")
    path = bad / "centrality" / "nodes.csv"
    lines = path.read_text().splitlines()
    idx, label, score, rank = lines[1].split(",")
    lines[1] = ",".join([idx, label, repr(float(score) * 1.001), rank])
    path.write_text("\n".join(lines) + "\n")
    _, failures, _ = check_pass(load_reference(root / "input"), cmds, result["commands"], bad)
    assert failures and all(f.startswith("centrality/") for f in failures)


def test_swapped_ranks_are_a_failure(small_pass):
    root, cmds, result = small_pass
    bad = _copy_pass(root, "ranks")
    path = bad / "centrality" / "layers.csv"
    lines = path.read_text().splitlines()
    first, second = lines[1].split(","), lines[2].split(",")
    first[3], second[3] = second[3], first[3]
    lines[1], lines[2] = ",".join(first), ",".join(second)
    path.write_text("\n".join(lines) + "\n")
    _, failures, _ = check_pass(load_reference(root / "input"), cmds, result["commands"], bad)
    assert [f.split(":")[0] for f in failures] == ["centrality/check_centrality_ranks"]


def test_wrong_exit_code_or_exception_is_a_failure(small_pass):
    root, cmds, result = small_pass
    ref = load_reference(root / "input")
    for change in ({"exit_code": 3}, {"exit_code": None, "error": "Traceback ..."}):
        results = [dict(r) for r in result["commands"]]
        results[2].update(change)
        attempted, failures, _ = check_pass(ref, cmds, results, root / "plain")
        assert len(failures) == 1 and failures[0].startswith("centrality: exit code")


def test_isim_oracle_matches_library():
    from multicent import isim_curve, rank

    rng = np.random.default_rng(0)
    a = rng.integers(0, 5, 40).astype(float)  # many ties
    b = rng.random(40)
    assert np.allclose(isim_oracle(a, b), isim_curve(rank(a), rank(b)), rtol=0, atol=1e-12)


def test_traced_pass_writes_identical_outputs(small_pass):
    root, cmds, result = small_pass
    original = multicent.cli.node_layer_centrality
    tracer = Tracer()
    tracer.pass_id = 1
    tracer.install()
    try:
        assert multicent.cli.node_layer_centrality is not original
        traced = run_pass(multicent.cli.main, _workload(cmds), root / "input" / "input.edges",
                          root / "traced", tracer)
    finally:
        tracer.uninstall()
    assert multicent.cli.node_layer_centrality is original
    assert tracer.missing == []
    assert [r["exit_code"] for r in traced["commands"]] == [0] * len(cmds)
    assert [r["stdout"] for r in traced["commands"]] == [r["stdout"] for r in result["commands"]]
    for path in sorted((root / "plain").rglob("*")):
        if path.is_file():
            twin = root / "traced" / path.relative_to(root / "plain")
            assert path.read_bytes() == twin.read_bytes(), path.name

    m = summarize(tracer.spans, 1)
    layers = ("io", "network", "solver", "baselines", "ranking", "cli")
    assert sum(m[f"{layer}.self_s"] for layer in layers) == pytest.approx(m["trace.wall_s"])
    assert m["baselines.perron_calls"] > 0 and m["solver.iterations"] > 0
    assert m["solver.updates"] == m["solver.iterations"]
    assert all(s.parent is None or s.parent < k for k, s in enumerate(tracer.spans))


def test_wrapped_functions_return_identical_results():
    net = build_network(4, 2, [(1, 1, 2, 1.0), (1, 2, 3, 2.0), (2, 3, 4, 1.0), (2, 1, 4, 3.0)])
    params = SolverParams(alpha=2.1, beta=2.0)

    def call():
        scores, report = multicent.cli.node_layer_centrality(net, params)
        perron = multicent.baselines.matrix_perron(net.layers[0])
        doc = multicent.cli.parse_multiplex_edges("1 1 2\n2 2 3 2.5\n")
        return scores, report, perron, doc, multicent.solver.normalized_update(
            net, np.full(4, 0.25), np.full(2, 0.5), 2.1, 2.0)

    plain = call()
    tracer = Tracer()
    tracer.install()
    try:
        traced = call()
    finally:
        tracer.uninstall()
    for p, t in zip(plain, traced):
        assert type(p) is type(t)
        for k, v in vars(p).items():
            w = getattr(t, k)
            assert np.array_equal(v, w) if isinstance(v, np.ndarray) else v == w
    assert {s.name for s in tracer.spans} >= {"solver.solve", "solver.update",
                                              "baselines.perron", "io.parse"}


def test_benchmark_json_metrics_are_emitted():
    from run import unit_of

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.pass_id = 0
    with tracer.span("pass"):
        pass
    emitted = set(summarize(tracer.spans, 0)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} <= emitted
    assert {m["name"] for m in spec["end_to_end"]} <= {"wall_s", "setup_s", "peak_rss_mb"}
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == unit_of(m["name"])
    assert {w["name"] for w in spec["workloads"]} == {"euair_compare", "large_centrality",
                                                       "wide_sweep"}
    assert set(SHAPES) == {"euair", "large", "wide"}


def test_reference_network_matches_the_parsed_file(tmp_path):
    from multicent import parse_multiplex_edges, to_network

    ef = large(4, n=500, L=4, m=2000)
    save(ef, shape_facts(ef), tmp_path)
    ref = load_reference(tmp_path).net
    parsed = to_network(parse_multiplex_edges(ef.text), n=ef.n, L=ef.L)
    assert isinstance(ref, MultiplexNetwork)
    for A, B in zip(ref.layers, parsed.layers):
        assert (A != B).nnz == 0
