"""Alternating parent/change bench runs, appended to ``BENCH_<workload>.json``.

Usage, from anywhere inside a checkout:

    python3 tools/pairs.py PARENT [CHANGE] --workload oracle_check --pairs 10 --seconds 30 --seed 1

PARENT and CHANGE are git revisions.  Each is extracted with ``git archive |
tar -x`` into a temporary directory; without CHANGE the working tree stands
for it.  Pair i runs ``bench/run.py --seed SEED+i --trace 0`` once in each
tree, the parent first in even pairs and the change first in odd ones, and
reads each run's last stdout line.  The tool exits with 1, writing nothing,
as soon as a run reports ``"correct": false``, and with 2 if a run fails or
prints no result.

The entry holds both revisions, the host, every run's end-to-end metrics and,
for ``solve_s``, ``setup_s`` and ``peak_rss_mb`` (all lower is better), the
medians, quartiles and the number of pairs the change won.  It is appended to
the ``entries`` of ``--out`` (default ``BENCH_<workload>.json`` at the root of
the checkout), so the file is the trajectory.  Only the standard library is
used here; the bench itself needs numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_sweep", "creation_map", "oracle_check")
METRICS = ("solve_s", "setup_s", "peak_rss_mb")  # summarised, lower is better
# numpy's version and its BLAS build, as the bench's interpreter sees them
PROBE = (
    "import json, numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'), "
    "'blas_version': blas.get('version')}))"
)


class PairsError(RuntimeError):
    pass


class IncorrectRunError(PairsError):
    """A bench run whose checks failed: its timings say nothing."""


def _git(*args: str) -> str:
    result = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    if result.returncode != 0:
        raise PairsError(f"git {' '.join(args)}: {result.stderr.strip()}")
    return result.stdout.strip()


def _extract(rev: str, dest: str) -> None:
    """Write the tree of ``rev`` into ``dest`` through ``git archive | tar -x``."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or tar.returncode != 0:
        raise PairsError(f"could not extract {rev}")


def _host() -> dict:
    probe = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    if probe.returncode != 0:
        raise PairsError(f"numpy probe failed: {probe.stderr.strip()}")
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(affinity) if affinity else os.cpu_count(),
        **json.loads(probe.stdout),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
    }


def _run(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One bench run in ``tree``: its end-to-end metrics and verdict, from the last line."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise PairsError(f"bench failed in {tree} (exit code {result.returncode}): "
                         f"{result.stderr.strip()}")
    line = json.loads(lines[-1])
    run = {name: line["metrics"][name]["value"] for name in (*METRICS, "pass_ratio")}
    run.update(correct=line["correct"], attempted=line["attempted"], failed=line["failed"])
    return run


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summarise(pairs: list[dict]) -> dict:
    """Per metric: both sides' medians and quartiles, and the pairs the change won."""
    summary = {}
    for name in METRICS:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        summary[name] = {
            "parent_median": statistics.median(parent),
            "parent_quartiles": _quartiles(parent),
            "change_median": statistics.median(change),
            "change_quartiles": _quartiles(change),
            "change_over_parent": statistics.median(change) / statistics.median(parent) - 1.0,
            "wins": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return summary


def collect(args) -> dict:
    """Run the pairs and return the entry; raises ``PairsError`` on a failed run."""
    revisions = {"parent": _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent")}
        if args.change is None:
            trees["change"] = ROOT
            dirty = bool(_git("status", "--porcelain"))
            revisions["change"] = _git("rev-parse", "HEAD") + (" + working tree" if dirty else "")
        else:
            trees["change"] = os.path.join(tmp, "change")
            revisions["change"] = _git("rev-parse", "--verify", f"{args.change}^{{commit}}")
        for side, rev in revisions.items():
            if trees[side] != ROOT:
                os.mkdir(trees[side])
                _extract(rev, trees[side])
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = _run(trees[side], args.workload, seed, args.seconds)
                if run["correct"] is not True:
                    raise IncorrectRunError(f"{side} run of pair {i} reported correct: "
                                            f"{run['correct']} ({run['failed']} failed)")
                pair[side] = run
            print(f"pair {i}: solve_s parent {pair['parent']['solve_s']:.4f} "
                  f"change {pair['change']['solve_s']:.4f}", file=sys.stderr)
            pairs.append(pair)
    return {
        "workload": args.workload,
        "revisions": revisions,
        "host": _host(),
        "seconds": args.seconds,
        "pairs": pairs,
        "summary": summarise(pairs),
    }


def append(path: str, entry: dict) -> None:
    """Append ``entry`` to the ``entries`` of the trajectory file at ``path``."""
    trajectory = {"workload": entry["workload"], "entries": []}
    if os.path.exists(path):
        with open(path) as handle:
            trajectory = json.load(handle)
    trajectory["entries"].append(entry)
    with open(path, "w") as handle:
        json.dump(trajectory, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change bench pairs")
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("change", nargs="?", help="git revision of the change "
                        "(default: the working tree)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--out", help="trajectory file (default: BENCH_<workload>.json at the root)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    try:
        entry = collect(args)
    except PairsError as exc:
        print(f"pairs: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, IncorrectRunError) else 2
    path = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    append(path, entry)
    for name, stats in entry["summary"].items():
        print(f"{name}: {stats['parent_median']:.4g} -> {stats['change_median']:.4g} "
              f"({stats['change_over_parent']:+.1%}), change lower in "
              f"{stats['wins']} of {stats['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
