"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload euair_compare --seed 1 --seconds 20 --trace 0

Steps, each in its own process so that one step's memory does not count
against another's:

1. ``generate.py`` writes the seeded edge file and its shape facts.
2. Fresh interpreters time ``import multicent.cli`` (``setup_s``).
3. ``worker.py`` runs passes of the workload's CLI commands for
   ``--seconds`` and reports its wall times and peak resident memory.
4. This process checks every pass's outputs (:mod:`checks`), prints every
   metric with its unit and sample count, writes a run record under
   ``perfbench/.work/records`` and, as the last line of standard output,
   the JSON result. ``--trace 0`` reports the end-to-end metrics that
   ``BENCHMARK.json`` lists, ``--trace 1`` the per-layer ones.

The package is imported from ``src/`` next to this directory; without it
the run fails before measuring anything. Child processes get one BLAS
thread, one client and a fixed hash seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, Span, summarize_passes
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 9
DEADLINE_S = 170  # every run must end within 180 s
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import multicent.cli; "
                 "print(repr(time.perf_counter() - t))")


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms_per_call", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_frac", "frac"), (".share", "frac")):
        if name.endswith(suffix):
            return unit
    return "count" if name != "nonlinear_residual" else "1"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def run_child(args, env, deadline, capture=False) -> str:
    proc = subprocess.run([sys.executable, *map(str, args)], env=env, cwd=ROOT,
                          timeout=deadline.left(), check=True, text=True,
                          stdout=subprocess.PIPE if capture else None)
    return proc.stdout


def measure_setup(env, deadline) -> list:
    run_child(["-c", "import multicent.cli"], env, deadline)  # writes bytecode once
    return [float(run_child(["-c", SETUP_SNIPPET], env, deadline, capture=True))
            for _ in range(SETUP_SAMPLES)]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = Deadline(DEADLINE_S)

    if not (SRC / "multicent" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC}/multicent", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    env = child_env()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        run_child([HERE / "generate.py", "--shape", workload.shape, "--seed", args.seed,
                   "--out", work / "input"], env, deadline)
        setup = measure_setup(env, deadline)
        run_child([HERE / "worker.py", "--workload", args.workload,
                   "--input", work / "input" / "input.edges", "--work", work,
                   "--seconds", args.seconds, "--trace", args.trace,
                   "--result", work / "worker.json"], env, deadline)
        worker = json.loads((work / "worker.json").read_text())
        report = evaluate(args, workload, work, setup, worker)
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: step failed: {exc}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: step ran out of time: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["run_s"] = time.monotonic() - started
    report["blas_threads"] = worker["blas_threads"]
    write_record(args, report, worker, setup)
    print_report(args, report)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["per_layer"] if args.trace else report["end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def evaluate(args, workload, work, setup, worker) -> dict:
    """Check every pass and reduce the samples to metrics."""
    sys.path.insert(0, str(SRC))
    import multicent
    from checks import check_pass, load_reference

    if Path(multicent.__file__).resolve().parent != SRC / "multicent":
        raise RuntimeError(f"imported multicent from {multicent.__file__}, not {SRC}")
    ref = load_reference(work / "input")
    attempted, failures, observed = 0, [], {}
    for p in worker["passes"]:
        a, f, o = check_pass(ref, workload.commands, p["commands"], Path(p["dir"]))
        attempted += a
        failures += f
        for k, v in o.items():
            observed.setdefault(k, []).extend(v)
    plain = [p["wall_s"] for p in worker["passes"] if not p["traced"]]
    traced = [p["wall_s"] for p in worker["passes"] if p["traced"]]
    residuals = observed.get("nonlinear_residual")
    end_to_end = {
        "wall_s": statistics.median(plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": worker["peak_rss_mb"],
        "ops_failed_frac": len(failures) / attempted,
        "nonlinear_residual": max(residuals) if residuals else None,
    }
    per_layer = {}
    if traced:
        per_layer = summarize_passes([Span(*s) for s in worker["spans"]])
        per_layer["trace.overhead_frac"] = statistics.median(traced) / end_to_end["wall_s"] - 1
        accounted = sum(per_layer[f"{layer}.self_s"] for layer in LAYERS)
        if abs(accounted - per_layer["trace.wall_s"]) > 1e-6 * per_layer["trace.wall_s"]:
            raise RuntimeError("layer self times do not add up to the traced pass")
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": {"wall_s": len(plain), "traced_passes": len(traced),
                    "setup_s": len(setup), "residual_checks": len(residuals or [])},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "facts": ref.facts,
        "missing_targets": worker["missing_targets"],
    }


def write_record(args, report, worker, setup) -> None:
    """Keep what later runs compare against: machine, versions, samples, metrics."""
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), **machine(),
        "blas_threads": report["blas_threads"],
        "blas_env": {k: child_env()[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "pass_wall_s": [{"traced": p["traced"], "wall_s": p["wall_s"]}
                        for p in worker["passes"]],
        "setup_s_samples": setup,
        **{k: report[k] for k in ("run_s", "end_to_end", "per_layer", "samples",
                                  "attempted", "failed", "facts", "missing_targets")},
        "failures": report["failures"][:50],
    }
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if worker["spans"]:
        with open(records / f"{stem}-spans.jsonl", "w") as f:
            for s in worker["spans"]:
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "pass_id",
                                             "counts"), s))) + "\n")


def print_report(args, report) -> None:
    n = report["samples"]
    e = report["end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} blas_threads={report['blas_threads']} "
          f"run_s={report['run_s']:.1f}")
    rows = [
        ("wall_s", e["wall_s"], f"median of {n['wall_s']} untraced passes"),
        ("setup_s", e["setup_s"], f"median of {n['setup_s']} fresh imports"),
        ("peak_rss_mb", e["peak_rss_mb"], "1 measured process"),
        ("ops_failed_frac", e["ops_failed_frac"],
         f"{report['failed']} of {report['attempted']} operations"),
        ("nonlinear_residual", e["nonlinear_residual"],
         f"max of {n['residual_checks']} nodes.csv/layers.csv pairs"
         if e["nonlinear_residual"] is not None else "no nodes.csv/layers.csv written"),
    ]
    for name, value, how in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>12} {unit_of(name):<6} {how}")
    if report["per_layer"]:
        print(f"  per layer, median of {n['traced_passes']} traced passes:")
        for name, value in report["per_layer"].items():
            print(f"  {name:<34} {value:>12.6g} {unit_of(name)}")
    if report["missing_targets"]:
        print(f"  not traced (absent): {', '.join(report['missing_targets'])}")
    for failure in report["failures"][:20]:
        print(f"  FAILED {failure}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
