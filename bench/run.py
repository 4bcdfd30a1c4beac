"""spinrsc benchmark: the paper's three computations, timed end to end.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Workloads are ``paper_sweep``, ``creation_map`` and ``oracle_check`` (see
``workloads.py`` for why each exists).  The package is taken from the
checkout's own ``src/`` directory; without it the run fails with exit code 2.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics:

- ``solve_s``: median wall seconds of one timed pass (the report line above
  it gives the sample count and quartiles);
- ``setup_s``: median seconds, over several fresh interpreters, from process
  start until the workload's inputs are ready.  This is the cold import of
  ``spinrsc.cli`` (numpy included), input generation and the first-call
  LAPACK warm-up;
- ``peak_rss_mb``: the worker process's peak resident set (``ru_maxrss``);
- ``pass_ratio``: correctness checks passed over checks attempted, i.e.
  ``1 - fail_ratio``, stated this way round so that it is never zero.

With ``--trace 1`` it holds the per-layer metrics of ``spans.py`` instead,
taken from one traced pass, plus the tracing overhead (traced minus untraced
median pass time).  Every result, with the environment and the span summary,
is also written to ``bench/out/results/``.

Each process this starts is waited for; the timed passes all run in one
worker process, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 5  # fresh interpreters whose set-up time is measured; the worker is one of them
DEADLINE_S = 170.0
WORKLOADS = ("paper_sweep", "creation_map", "oracle_check")


class BenchError(RuntimeError):
    pass


def _git_commit() -> str:
    """Commit of the checkout read from ``.git`` directly; checkouts without it say so."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _child_env() -> dict:
    env = dict(os.environ)
    # Timed runs use the sweep's default worker count.
    env.pop("SPINRSC_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(cmd: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds until it printed ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        ready = selector.select(timeout=max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, elapsed


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _wait(proc: subprocess.Popen, deadline: float) -> str:
    """Collect a started worker's remaining stdout; fail on a timeout or a non-zero exit."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return out


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def run(args) -> tuple[dict, dict]:
    """Run one workload; return the full report and the result line."""
    if not os.path.isfile(os.path.join(ROOT, "src", "spinrsc", "cli.py")):
        raise BenchError(f"no spinrsc sources under {os.path.join(ROOT, 'src')}")
    deadline = time.perf_counter() + DEADLINE_S
    work_dir = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    env = _child_env()

    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                proc, elapsed = _start(cmd + ["--setup-only"], env, deadline)
                _wait(proc, deadline)
                setups.append(elapsed)
        proc, elapsed = _start(cmd, env, deadline)
        setups.append(elapsed)
        worker = json.loads(_wait(proc, deadline).strip().splitlines()[-1])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not worker["spinrsc_file"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise BenchError(f"imported spinrsc from {worker['spinrsc_file']}, not the checkout")

    attempted, failed = worker["attempted"], worker["failed"]
    solve = worker["solve_s"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "spinrsc_threads_set_by_caller": "SPINRSC_THREADS" in os.environ,
        "environment": worker["environment"],
        "solve_s": {"median": statistics.median(solve), "quartiles": _quartiles(solve),
                    "samples": len(solve), "values": solve},
        "setup_s": {"median": statistics.median(setups), "samples": len(setups),
                    "values": setups},
        "imports": worker["imports"],
        "failures": worker["failures"],
    }
    if args.trace:
        report.update({k: worker[k] for k in ("traced_solve_s", "layer", "spans",
                                               "untraced_targets")})
        metrics = worker["layer"]
    else:
        metrics = {
            "solve_s": {"value": statistics.median(solve), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    report["metrics"] = metrics
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    with open(os.path.join(OUT, "results", name), "w") as handle:
        json.dump(report, handle, indent=1)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinrsc benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: report[k] for k in ("workload", "seed", "git_commit", "environment",
                                             "solve_s", "setup_s", "failures")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
