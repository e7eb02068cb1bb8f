"""The measured process: one workload's passes, in-process through ``multicent.cli.main``.

A pass runs the workload's CLI commands one after another, each with its
own output directory, and ends when the last output file is written.
Passes repeat until ``--seconds`` have gone by. With ``--trace 1`` the
passes alternate between untraced and traced (wrappers from
:mod:`spans` installed), so both kinds run under the same conditions.

The result (per-pass wall times, per-command exit codes and captured text,
spans, peak resident memory) goes to ``--result`` as JSON; the outputs
stay on disk for the checks, which run in another process.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS


def run_command(main, argv) -> dict:
    """Invoke the CLI as its console script would; capture exit code and text."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="multicent")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a raising command is a failed operation; the pass goes on
            error = traceback.format_exc(limit=-3)
    return {"exit_code": code, "error": error, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:]}


def run_pass(main, workload, input_path: Path, pass_dir: Path, tracer=None) -> dict:
    results = []
    start = time.perf_counter()
    if tracer is None:
        for cmd in workload.commands:
            results.append(run_command(main, cmd.args(input_path, pass_dir / cmd.label)))
    else:
        with tracer.span("pass"):
            for cmd in workload.commands:
                with tracer.span(f"cli.{cmd.command}"):
                    results.append(run_command(main, cmd.args(input_path,
                                                              pass_dir / cmd.label)))
    return {"wall_s": time.perf_counter() - start, "traced": tracer is not None,
            "dir": str(pass_dir), "commands": results}


def blas_threads():
    """Thread count of the OpenBLAS numpy links against, when it can be asked."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--input", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    from multicent.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.pass_id = len(passes)
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(cli_main, workload, args.input,
                                   args.work / f"pass{len(passes)}",
                                   tracer if traced else None))
        finally:
            tracer.uninstall()
        done_kinds = len(passes) >= (2 if args.trace else 1)
        if done_kinds and time.perf_counter() - start >= args.seconds:
            break
    result = {
        "passes": passes,
        "spans": [dataclasses.astuple(s) for s in tracer.spans],
        "missing_targets": tracer.missing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
