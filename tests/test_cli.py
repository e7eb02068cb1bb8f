import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from multicent.cli import main

from conftest import child_env


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def explanatory_file(tmp_path):
    p = tmp_path / "explanatory.edges"
    p.write_text("1 1 2 1\n2 3 4 1\n", encoding="utf-8")
    return p


@pytest.fixture
def ratio_file(tmp_path):
    # node strengths differ, so convergence takes real iterations
    p = tmp_path / "ratio.edges"
    p.write_text("1 1 2 1\n1 1 3 1\n1 3 2 0.5\n1 1 4 2\n", encoding="utf-8")
    return p


class TestCentrality:
    def test_explanatory_scores(self, runner, explanatory_file, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(main, ["centrality", str(explanatory_file),
                                   "-o", str(out)])
        assert res.exit_code == 0, res.output
        node_rows = (out / "nodes.csv").read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[2]) for r in node_rows] == [0.25] * 4
        layer_rows = (out / "layers.csv").read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[2]) for r in layer_rows] == [0.5] * 2
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["a_priori_bound_k"] == 0

    def test_parameter_gate_exit_2(self, runner, explanatory_file):
        res = runner.invoke(main, ["centrality", str(explanatory_file),
                                   "--alpha", "2", "--beta", "2"])
        assert res.exit_code == 2
        assert "2/beta" in res.output

    def test_unsafe_flag_allows_boundary(self, runner, explanatory_file, tmp_path):
        res = runner.invoke(main, ["centrality", str(explanatory_file),
                                   "--alpha", "2", "--beta", "2",
                                   "--unsafe-params", "-o", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output

    def test_non_convergence_exit_3_report_written(self, runner, ratio_file, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(main, ["centrality", str(ratio_file),
                                   "--max-iter", "1", "-o", str(out)])
        assert res.exit_code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert (out / "nodes.csv").exists()

    def test_stdout_when_no_output_dir(self, runner, explanatory_file):
        res = runner.invoke(main, ["centrality", str(explanatory_file)])
        assert res.exit_code == 0
        assert "# nodes.csv" in res.output and "# report.json" in res.output

    def test_deterministic_outputs(self, runner, ratio_file, tmp_path):
        args = ["--random-start", "42"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(main, ["centrality", str(ratio_file),
                                       "-o", str(out)] + args)
            assert res.exit_code == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outs[0] == outs[1]

    def test_alpha_sweep(self, runner, ratio_file, tmp_path):
        out = tmp_path / "sweep"
        res = runner.invoke(main, ["centrality", str(ratio_file),
                                   "--alpha-list", "1.0,2.1,3.0",
                                   "-o", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "sweep_iterations.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,converged,iterations,error"
        assert len(lines) == 4
        assert "2/beta" in lines[1]  # alpha=1 fails the gate, sweep continues
        pos = (out / "sweep_node_positions.csv").read_text().strip().splitlines()
        assert len(pos) == 5  # header + 4 nodes
        assert pos[0] == "index,2.1,3.0"
        layer_pos = (out / "sweep_layer_positions.csv").read_text().splitlines()
        assert layer_pos[0] == "index,2.1,3.0"

    def test_missing_file_exit_2(self, runner):
        res = runner.invoke(main, ["centrality", "nope.edges"])
        assert res.exit_code == 2

    def test_json_format(self, runner, explanatory_file, tmp_path):
        out = tmp_path / "json_out"
        res = runner.invoke(main, ["centrality", str(explanatory_file),
                                   "--format", "json", "-o", str(out)])
        assert res.exit_code == 0
        doc = json.loads((out / "nodes.json").read_text())
        assert len(doc["scores"]) == 4


class TestBaseline:
    def test_agg_deg_uniform(self, runner, explanatory_file, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["baseline", str(explanatory_file),
                                   "--measure", "agg_deg", "-o", str(out)])
        assert res.exit_code == 0
        rows = (out / "agg_deg.csv").read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[2]) for r in rows] == [0.25] * 4

    def test_eig_ver_warning_on_stderr(self, runner, explanatory_file, tmp_path):
        res = runner.invoke(main, ["baseline", str(explanatory_file),
                                   "--measure", "eig_ver", "-o", str(tmp_path / "o")])
        assert res.exit_code == 0
        assert "not uniquely determined" in res.output

    def test_local_het_identity_matches_layer_eigenvectors(self, runner,
                                                           explanatory_file,
                                                           tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["baseline", str(explanatory_file),
                                   "--measure", "local_het",
                                   "--influence", "identity", "-o", str(out)])
        assert res.exit_code == 0
        rows = (out / "local_het.csv").read_text().strip().splitlines()
        assert rows[0] == "index,label,layer1,layer2"
        values = np.array([[float(v) for v in r.split(",")[2:]] for r in rows[1:]])
        np.testing.assert_allclose(values[:, 0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(values[:, 1], [0.0, 0.0, 0.5, 0.5], atol=1e-12)

    def test_influence_from_file(self, runner, explanatory_file, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("1 1\n1 1\n")
        res = runner.invoke(main, ["baseline", str(explanatory_file),
                                   "--measure", "global_het",
                                   "--influence", str(wfile),
                                   "-o", str(tmp_path / "o")])
        assert res.exit_code == 0

    def test_bad_omega_exit_2(self, runner, explanatory_file):
        res = runner.invoke(main, ["baseline", str(explanatory_file),
                                   "--measure", "eig_cen", "--omega", "1,0"])
        assert res.exit_code == 2


class TestCompare:
    def test_two_measures_single_pair(self, runner, ratio_file, tmp_path):
        out = tmp_path / "cmp"
        res = runner.invoke(main, ["compare", str(ratio_file),
                                   "--measures", "nonlinear,agg_deg",
                                   "-o", str(out)])
        assert res.exit_code == 0, res.output
        pear = (out / "pearson.csv").read_text().strip().splitlines()
        assert len(pear) == 2
        assert pear[1].startswith("nonlinear,agg_deg,")
        isim = (out / "isim.csv").read_text().strip().splitlines()
        assert len(isim) == 1 + 4  # header + K = 1..4 for one pair
        measures = (out / "measures.csv").read_text().strip().splitlines()
        assert measures[0] == "index,label,nonlinear,agg_deg"

    def test_duplicate_measure_gives_trivial_comparison(self, runner, ratio_file,
                                                        tmp_path):
        out = tmp_path / "dup"
        res = runner.invoke(main, ["compare", str(ratio_file),
                                   "--measures", "agg_deg,agg_deg",
                                   "-o", str(out)])
        assert res.exit_code == 0
        pear_row = (out / "pearson.csv").read_text().strip().splitlines()[1]
        assert float(pear_row.split(",")[2]) == pytest.approx(1.0)
        isim_rows = (out / "isim.csv").read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[3]) == 0.0 for r in isim_rows)

    def test_isim_at_k(self, runner, ratio_file, tmp_path):
        out = tmp_path / "k"
        res = runner.invoke(main, ["compare", str(ratio_file),
                                   "--measures", "nonlinear,agg_deg",
                                   "--k", "3", "-o", str(out)])
        assert res.exit_code == 0
        assert (out / "isim_at_k.csv").exists()

    def test_unknown_measure_rejected(self, runner, ratio_file):
        res = runner.invoke(main, ["compare", str(ratio_file),
                                   "--measures", "pagerank"])
        assert res.exit_code == 2
        assert "pagerank" in res.output

    def test_constant_measures_give_nan_pearson(self, runner, explanatory_file,
                                                tmp_path):
        # every measure is uniform on the explanatory example
        out = tmp_path / "flat"
        res = runner.invoke(main, ["compare", str(explanatory_file), "-o", str(out)])
        assert res.exit_code == 0, res.output
        assert res.exception is None
        rows = (out / "pearson.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 10  # five measures, ten pairs
        assert all(r.split(",")[2] == "nan" for r in rows[1:])
        assert "pearson nonlinear,eig_ver is nan" in res.stderr
        assert (out / "isim.csv").exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_nonpositive_k_rejected(self, runner, ratio_file, tmp_path, k):
        out = tmp_path / "k"
        res = runner.invoke(main, ["compare", str(ratio_file),
                                   "--measures", "nonlinear,agg_deg",
                                   "--k", k, "-o", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    def test_k_beyond_node_count_writes_k_used(self, runner, tmp_path):
        p = tmp_path / "five.edges"
        p.write_text("1 1 2 1\n1 2 3 2\n2 3 4 1\n2 4 5 3\n2 1 5 1\n")
        out = tmp_path / "k"
        res = runner.invoke(main, ["compare", str(p), "--measures", "nonlinear,agg_deg",
                                   "--k", "99", "-o", str(out)])
        assert res.exit_code == 0, res.output
        rows = (out / "isim_at_k.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[2] == "5"
        isim = (out / "isim.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[3] == isim[-1].split(",")[3]

    def test_nonlinear_non_convergence_exit_3(self, runner, ratio_file, tmp_path):
        out = tmp_path / "nc"
        res = runner.invoke(main, ["compare", str(ratio_file),
                                   "--measures", "nonlinear,agg_deg",
                                   "--max-iter", "1", "-o", str(out)])
        assert res.exit_code == 3
        assert (out / "pearson.csv").exists()  # outputs still written


class TestBound:
    def test_explanatory_zero_constant(self, runner, explanatory_file):
        res = runner.invoke(main, ["bound", str(explanatory_file)])
        assert res.exit_code == 0
        assert "C = 0.0" in res.output
        assert "k = 0" in res.output
        assert "already the fixed point" in res.output

    def test_boundary_params_exit_2(self, runner, explanatory_file):
        res = runner.invoke(main, ["bound", str(explanatory_file),
                                   "--alpha", "2", "--beta", "2"])
        assert res.exit_code == 2

    def test_nontrivial_certificate_matches_library(self, runner, ratio_file):
        res = runner.invoke(main, ["bound", str(ratio_file),
                                   "--alpha", "3", "--epsilon", "1e-6"])
        assert res.exit_code == 0
        assert "rho = 0.76" in res.output
        from multicent import iteration_bound, parse_multiplex_edges, to_network
        net = to_network(parse_multiplex_edges(ratio_file.read_text()))
        expected = iteration_bound(net, 3.0, 2.0, 1e-6)
        assert f"k = {expected.k}" in res.output
        assert f"C = {expected.C!r}" in res.output


class TestInfo:
    def test_explanatory_summary(self, runner, explanatory_file):
        res = runner.invoke(main, ["info", str(explanatory_file)])
        assert res.exit_code == 0
        assert "nodes: 4" in res.output
        assert "layers: 2" in res.output
        assert "isolated nodes: 0" in res.output
        assert "connected layers: 0 of 2" in res.output
        assert "aggregate: disconnected" in res.output

    def test_empty_file_with_overrides(self, runner, tmp_path):
        p = tmp_path / "empty.edges"
        p.write_text("# no edges\n")
        res = runner.invoke(main, ["info", str(p), "--nodes", "6", "--layers", "2"])
        assert res.exit_code == 0
        assert "isolated nodes: 6" in res.output

    def test_parse_error_exit_2(self, runner, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("1 2\n")
        res = runner.invoke(main, ["info", str(p)])
        assert res.exit_code == 2
        assert "line 1" in res.output


# -- exit-code contract: every input ends in 0, 2 or 3, never in a traceback

_edge = st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
                  st.sampled_from(["", " 1", " 2.5", " 0.5"]))
_list_tokens = st.lists(st.sampled_from(["2.1", "3", "1", "x", "", "-1", "inf"]),
                        min_size=1, max_size=3).map(",".join)
_measure_names = st.sampled_from(["nonlinear", "eig_ver", "eig_cen", "agg_eig", "agg_deg",
                                  "local_het", "global_het", "foo"])
_influence = st.sampled_from(["identity", "ones", "missing", "words", "square", "ragged"])
_INFLUENCE_FILES = {"words": "a b\nc d\n", "square": "1 1\n1 1\n", "ragged": "1 1\n1\n"}


@st.composite
def _argv(draw, d):
    edges = draw(st.lists(_edge, min_size=1, max_size=8))
    edge_file = d / "input.edges"
    edge_file.write_text("".join(f"{l} {i} {j}{w}\n" for l, i, j, w in edges))
    command = draw(st.sampled_from(["info", "bound", "centrality", "compare", "baseline"]))
    argv = [command, str(edge_file)]
    if command == "centrality" and draw(st.booleans()):
        argv += ["--alpha-list", draw(_list_tokens)]
    elif command == "compare":
        names = draw(st.lists(_measure_names, min_size=1, max_size=3))
        argv += ["--measures", ",".join(names)]
        if draw(st.booleans()):
            argv += ["--k", str(draw(st.integers(-1, 8)))]
    elif command == "baseline":
        argv += ["--measure", draw(_measure_names)]
        if draw(st.booleans()):
            argv += ["--omega", draw(_list_tokens)]
        source = draw(_influence)
        if source in _INFLUENCE_FILES:
            (d / source).write_text(_INFLUENCE_FILES[source])
        argv += ["--influence", source if source in ("identity", "ones") else str(d / source)]
    if command != "info":
        argv += ["-o", str(d / "out")]
    return argv


class TestExitCodes:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_input_exits_0_2_or_3(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            argv = data.draw(_argv(Path(tmp)))
            res = CliRunner().invoke(main, argv)
            assert res.exit_code in (0, 2, 3), (argv, res.output)
            assert res.exception is None or isinstance(res.exception, SystemExit), \
                (argv, res.output)

    def test_non_utf8_input_exit_2(self, runner, tmp_path):
        p = tmp_path / "latin1.edges"
        p.write_bytes(b"1 1 2 \xff\n")
        res = runner.invoke(main, ["info", str(p)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error:") and "byte offset 6" in res.stderr
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("index", ["9" * 20, "9" * 400], ids=["20-digits", "400-digits"])
    def test_index_too_large_exit_2(self, runner, tmp_path, index):
        p = tmp_path / "huge.edges"
        p.write_text(f"1 1 {index}\n")
        res = runner.invoke(main, ["info", str(p)])
        assert res.exit_code == 2
        assert res.stderr == "error: line 1: indices must be at most 2**53\n"
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("line, n, L", [("1 1 1000000000000000", 10**15, 1),
                                            ("1000000000000000 1 2", 2, 10**15)],
                             ids=["nodes", "layers"])
    def test_network_too_large_to_allocate_exit_2(self, runner, tmp_path, line, n, L):
        p = tmp_path / "huge.edges"
        p.write_text(line + "\n")
        res = runner.invoke(main, ["info", str(p)])
        assert res.exit_code == 2
        assert res.stderr == f"error: cannot allocate a network of {n} nodes and {L} layers\n"
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("measure", ["agg_deg", "local_het", "global_het"])
    def test_omega_for_unweighted_measure_exit_2(self, runner, explanatory_file, tmp_path,
                                                 measure):
        out = tmp_path / "o"
        res = runner.invoke(main, ["baseline", str(explanatory_file), "--measure", measure,
                                   "--omega", "5,1", "-o", str(out)])
        assert res.exit_code == 2
        assert f"--omega does not apply to {measure}" in res.stderr
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["centrality", "--alpha-list", ","],
        ["centrality", "--alpha-list", ""],
        ["compare", "--measures", ","],
        ["baseline", "--measure", "eig_cen", "--omega", " , "],
    ])
    def test_empty_list_exit_2(self, runner, explanatory_file, tmp_path, argv):
        out = tmp_path / "o"
        res = runner.invoke(main, [argv[0], str(explanatory_file), *argv[1:], "-o", str(out)])
        assert res.exit_code == 2
        assert "the list has no items" in res.stderr
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["centrality", "--alpha-list", "2.1,3", "--random-start", "7"], "--random-start"),
        # given at its default value, the option still counts as given
        (["centrality", "--alpha-list", "2.1,3", "--alpha", "2.1"], "--alpha"),
        (["centrality", "--alpha-list", "2.1,3", "--format", "json"], "--format json"),
        (["baseline", "--measure", "local_het", "--format", "json"], "--format json"),
        (["baseline", "--measure", "global_het", "--format", "json"], "--format json"),
        (["baseline", "--measure", "eig_cen", "--influence", "identity"], "--influence"),
        (["baseline", "--measure", "agg_deg", "--influence", "ones"], "--influence"),
    ])
    def test_ignored_option_exit_2_before_loading(self, runner, tmp_path, argv, option):
        # the input is not an edge list: loading it would fail with a parse error
        bad = tmp_path / "bad.edges"
        bad.write_text("not an edge list\n", encoding="utf-8")
        out = tmp_path / "o"
        res = runner.invoke(main, [argv[0], str(bad), *argv[1:], "-o", str(out)])
        assert res.exit_code == 2
        assert f"{option} does not apply to" in res.stderr
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--measure", "agg_eig", "--omega", "1e300"], "matrix has non-finite entries"),
        (["--measure", "local_het", "--influence", "W"], "matrix has non-finite entries"),
        (["--measure", "global_het", "--influence", "W"],
         "influence block matrix has non-finite entries"),
    ], ids=["agg_eig", "local_het", "global_het"])
    def test_overflowing_weights_exit_2_with_one_line(self, tmp_path, argv, message):
        # a child process, so that stderr holds every warning the user would see
        (tmp_path / "W").write_text("1e300\n", encoding="utf-8")
        (tmp_path / "big.edges").write_text("1 1 2 1e10\n", encoding="utf-8")
        res = subprocess.run([sys.executable, "-m", "multicent.cli", "baseline", "big.edges",
                              *argv], cwd=tmp_path, env=child_env(), capture_output=True,
                             text=True)
        assert res.returncode == 2
        assert res.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["compare", "--measures", "foo"],
        ["centrality", "--alpha-list", "2.1,x"],
        ["baseline", "--measure", "eig_cen", "--omega", "1,x"],
        ["baseline", "--measure", "global_het", "--influence", "/nonexistent"],
        ["compare", "--format", "json"],  # compare writes CSV only
        ["centrality", "--seed", "7"],  # the seed is the value of --random-start
        ["centrality", "--random-start", "-5"],  # numpy takes no negative seed
    ])
    def test_malformed_option_exit_2(self, runner, explanatory_file, argv):
        res = runner.invoke(main, [argv[0], str(explanatory_file), *argv[1:]])
        assert res.exit_code == 2
        assert "Traceback" not in res.output


# A child process so that no earlier command has set the allocator already.
FREED_ARRAY_RSS_KB = """
import sys
import numpy as np
from click.testing import CliRunner
from multicent.cli import main

assert CliRunner().invoke(main, ["info", sys.argv[1]]).exit_code == 0

def rss_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmRSS:"))

np.ones(1 << 21)  # 16 MiB, freed at once
before = rss_kb()
a = np.ones(1 << 21)
del a
print(rss_kb() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_freed_large_array_goes_back_to_the_system(explanatory_file):
    """After a command, a second 16 MiB array is still unmapped when freed
    instead of staying resident in the heap."""
    out = subprocess.run([sys.executable, "-c", FREED_ARRAY_RSS_KB, str(explanatory_file)],
                         env=child_env(), capture_output=True, text=True, check=True)
    assert int(out.stdout) < 4096
