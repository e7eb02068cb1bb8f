"""Smoke tests of the experiment scripts: each runs to the end and writes its files,
and rejected input ends in exit code 2 with one ``error:`` line."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(monkeypatch, name, argv):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    _load(name).main()


def test_measure_comparison_on_demo_network(monkeypatch, tmp_path, capsys):
    out = tmp_path / "cmp"
    _run(monkeypatch, "run_measure_comparison", ["--out", str(out)])
    assert "pairwise Pearson correlation" in capsys.readouterr().out
    names = ["nonlinear", "eig_ver", "eig_cen", "agg_eig", "agg_deg"]
    assert sorted(p.name for p in out.iterdir()) == sorted(f"{n}.csv" for n in names)
    rows = (out / "agg_deg.csv").read_text().strip().splitlines()
    assert rows[0] == "index,label,score,rank" and len(rows) == 1 + 40


def test_exponent_sweep_writes_position_tables(monkeypatch, tmp_path, capsys):
    edges = tmp_path / "small.edges"
    edges.write_text("1 1 2 1\n1 1 3 1\n1 3 2 0.5\n2 1 4 2\n2 4 5 1\n")
    out = tmp_path / "sweep"
    _run(monkeypatch, "run_exponent_sweep",
         [str(edges), "--alphas", "1,2.1,3", "--out", str(out)])
    assert "gate:" in capsys.readouterr().out  # alpha = 1 fails the gate
    node = (out / "sweep_node_positions.csv").read_text().splitlines()
    layer = (out / "sweep_layer_positions.csv").read_text().splitlines()
    assert node[0] == layer[0] == "index,2.1,3.0"
    assert len(node) == 1 + 5 and len(layer) == 1 + 2



@pytest.mark.parametrize("name", ["run_exponent_sweep", "run_measure_comparison"])
def test_input_error_exits_2_without_traceback(tmp_path, name):
    edges = tmp_path / "latin1.edges"
    edges.write_bytes(b"1 1 2 \xff\n")
    missing = tmp_path / "missing.edges"
    for path, message in ((edges, "not UTF-8 text: invalid start byte at byte offset 6"),
                          (missing, f"cannot read {missing}: No such file or directory")):
        res = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), str(path)],
                             capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stderr == f"error: {message}\n"


def test_malformed_alphas_exit_2(tmp_path):
    edges = tmp_path / "small.edges"
    edges.write_text("1 1 2\n")
    res = subprocess.run([sys.executable, str(SCRIPTS / "run_exponent_sweep.py"), str(edges),
                          "--alphas", "2.1,x"], capture_output=True, text=True)
    assert res.returncode == 2
    assert "invalid float_list value: '2.1,x'" in res.stderr and "Traceback" not in res.stderr
