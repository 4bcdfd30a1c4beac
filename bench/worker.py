"""One benchmark process: cold import, workload set-up, then timed passes.

Started by ``run.py`` as a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``.  It prints ``ready`` once the workload's inputs are built
(the parent times set-up up to that line), and with ``--setup-only`` exits
there.  Otherwise it runs passes until ``--seconds`` have gone by and prints
one JSON line with the pass times, check counts, peak RSS and, with
``--trace 1``, the per-layer metrics and span summary.
"""

import time

_T_START = time.perf_counter()
import numpy  # noqa: E402  (timed: numpy's import is part of the CLI's cold start)

_T_NUMPY = time.perf_counter()
import spinrsc.cli  # noqa: E402,F401

_T_CLI = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


def _blas() -> dict:
    """BLAS vendor from numpy's build config; thread count from the loaded library."""
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"vendor": config.get("name"), "version": config.get("version")}
    except (KeyError, TypeError) as exc:  # the config layout is numpy-version specific
        info = {"vendor": f"unknown ({exc.__class__.__name__})", "version": None}
    info["threads"] = None
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                info["threads"] = int(getter())
                return info
    return info


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "spinrsc_threads_env": os.environ.get("SPINRSC_THREADS"),
        "machine": platform.machine(),
    }


def _timed_pass(workload, checks, recorder=None):
    workload.reset()
    if recorder is None:
        start = time.perf_counter()
        out = workload.run_pass()
        elapsed = time.perf_counter() - start
    else:
        with spans.tracing(recorder):
            start = time.perf_counter()
            out = workload.run_pass()
            elapsed = time.perf_counter() - start
    workload.check(out, checks)
    return elapsed, out


def _serial_sweep(workload, checks):
    """The paper sweep once more on one worker, traced; only the traced run does this.

    ``SPINRSC_THREADS`` is the sweep's worker-count knob; where a later
    version has dropped it the sweep is serial anyway.
    """
    os.environ["SPINRSC_THREADS"] = "1"
    try:
        recorder = spans.Recorder()
        elapsed, out = _timed_pass(workload, checks, recorder)
    finally:
        del os.environ["SPINRSC_THREADS"]
    return elapsed, out, recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.work_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    workloads.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    checks = workloads.Checks()
    result = {"imports": {"numpy_s": _T_NUMPY - _T_START, "cli_s": _T_CLI - _T_START}}
    began = time.perf_counter()
    if not args.trace:
        times = []
        while len(times) < MIN_PASSES or time.perf_counter() - began < args.seconds:
            times.append(_timed_pass(workload, checks)[0])
        result["solve_s"] = times
    else:
        # Alternate untraced and traced passes: the difference of their
        # medians is the tracing overhead.
        plain, traced = [], []
        while len(traced) < 1 or time.perf_counter() - began < args.seconds:
            plain.append(_timed_pass(workload, checks)[0])
            recorder = spans.Recorder()
            elapsed, out = _timed_pass(workload, checks, recorder)
            traced.append(elapsed)
        layer = {}
        if isinstance(workload, workloads.PaperSweep):
            layer["optimize.sweep_workers"] = len(
                {s.thread for s in recorder.spans if s.name == "chain.decompose"})
            layer["optimize.sweep_serial_s"], out, recorder = _serial_sweep(workload, checks)
        else:
            layer["optimize.sweep_workers"] = 0
            layer["optimize.sweep_serial_s"] = 0.0
        layer.update(spans.layer_metrics(recorder.spans))
        layer["oracle.max_deviation"] = max(out.get("deviations", [0.0]))
        layer["cli.bytes_written"] = out["bytes"]
        layer["cli.numpy_import_s"] = _T_NUMPY - _T_START
        layer["cli.import_s"] = _T_CLI - _T_START
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result.update({
            "solve_s": plain,
            "traced_solve_s": traced,
            "layer": {name: {"value": layer[name], "unit": unit}
                      for name, unit in spans.UNITS.items()},
            "spans": spans.span_summary(recorder.spans),
            "untraced_targets": recorder.missing,
        })
    result.update({
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "spinrsc_file": spinrsc.cli.__file__,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
