"""The three workloads: the paper's three computations, each with its checks.

Each workload builds its inputs from the seed when it is created (that is
set-up), runs one timed pass with ``run_pass`` and checks a pass's outputs
with ``check``, which is not timed.  The package is driven in-process through
``spinrsc.cli.main`` and public library functions, always looked up on the
module at call time so that the traced run can record spans around them.

Why each workload exists:

- ``paper_sweep``: the headline result, the sweep 4..130 over nn, all and
  all+v that gives the critical lengths.  It loads ``chain``, ``propagate``
  (one call over many times) and ``optimize`` (scan plus refine) and never
  touches ``rsc`` or ``oracle``.  Its inputs are fixed by the paper, so the
  seed does not change them.
- ``creation_map``: the creatable-region figure at the critical length
  n = 109, plus ``create_state`` and ``beta2_coverage`` at seeded points.
  Its time goes to ``rsc`` and to the CLI's CSV formatting; ``propagate``
  is called many times at one time t0 and ``optimize`` runs per protocol,
  not per chain length.
- ``oracle_check``: the correctness backstop, comparing the one-excitation
  amplitudes with the full 2^N-space oracle and sampling sender states.
  Nearly all of it is ``oracle`` work, which no other workload touches.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import spinrsc.chain as chain
import spinrsc.cli as cli
import spinrsc.optimize as optimize
import spinrsc.oracle as oracle
import spinrsc.propagate as propagate
import spinrsc.rsc as rsc

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Gates, written out here so that no change to the package can move them.
REFINE_TOL = 1e-8  # |dt0| per sweep row (ROADMAP item 2)
R_MAX_TOL = 1e-12  # |dr_max_sq| per sweep row (ROADMAP item 2)
REGION_TOL = 1e-15  # region CSV values against the reference (ROADMAP item 3)
STATE_TOL = 1e-12  # create_state reconstruction, lambda range, beta2 agreement
ORACLE_TOL = 1e-10  # |fast - full| amplitude deviation (acceptance criterion 5)
VACUUM_TOL = 1e-12  # |vacuum amplitude - 1|
CRITICAL = {0.5: {"nn": 34, "all": 37, "all+v": 109}, 0.9: {"nn": 6, "all": 4, "all+v": 17}}


class Checks:
    """Counts correctness checks attempted and failed; keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.bulk(1, 0 if ok else 1, what)

    def bulk(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what} ({failed} of {attempted})")


def _circular(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _read_sweep(path: str) -> dict:
    """Sweep CSV rows as {(n, model label): (t0, r_max_sq)}."""
    rows = {}
    with open(path) as handle:
        next(handle)
        for line in handle:
            n, model, t0, r = line.split(",")
            rows[(int(n), model)] = (float(t0), float(r))
    return rows


class PaperSweep:
    """``sweep --n-min 4 --n-max 130 --models nn,all,all+v`` and its critical lengths."""

    name = "paper_sweep"

    def __init__(self, seed: int, work_dir: str) -> None:
        self.csv = os.path.join(work_dir, "sweep.csv")
        self.argv = ["sweep", "--n-min", "4", "--n-max", "130",
                     "--models", "nn,all,all+v", "--out", self.csv]

    def reset(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csv)

    def run_pass(self) -> dict:
        code, _ = _run_cli(self.argv)
        rows = _read_sweep(self.csv)
        critical = {}
        for threshold in CRITICAL:
            for (n, model), (_, r) in rows.items():
                if r >= threshold - 1e-12 and n > critical.get((threshold, model), 0):
                    critical[(threshold, model)] = n
        return {"code": code, "rows": rows, "critical": critical,
                "bytes": os.path.getsize(self.csv)}

    def check(self, out: dict, checks: Checks) -> None:
        checks.add(out["code"] == 0, "sweep exit code")
        reference = _read_sweep(os.path.join(REFERENCE_DIR, "sweep.csv"))
        checks.add(out["rows"].keys() == reference.keys(), "sweep rows present")
        bad = [key for key, (t0, r) in reference.items()
               if key not in out["rows"]
               or not abs(out["rows"][key][0] - t0) <= REFINE_TOL
               or not abs(out["rows"][key][1] - r) <= R_MAX_TOL]
        checks.bulk(len(reference), len(bad), f"sweep rows off the reference, first {bad[:3]}")
        for threshold, expected in CRITICAL.items():
            for model, n_c in expected.items():
                got = out["critical"].get((threshold, model))
                checks.add(got == n_c, f"critical length {model} at {threshold}: {got} != {n_c}")


class CreationMap:
    """``region --n 109 --model all --with-v --step 0.005`` plus seeded creation calls."""

    name = "creation_map"
    N = 109
    CREATE_POINTS = 5000
    COVERAGE_POINTS = 20
    PHI_SAMPLES = 512
    COVERAGE_PROBES = 8  # phi2 samples per coverage point re-derived through create_state

    def __init__(self, seed: int, work_dir: str) -> None:
        rng = np.random.default_rng([seed, 1])
        self.csv = os.path.join(work_dir, "region.csv")
        self.argv = ["region", "--n", str(self.N), "--model", "all", "--with-v",
                     "--step", "0.005", "--out", self.csv]
        self.controls = [rsc.ControlParams(*map(float, row))
                         for row in rng.uniform(0.0, 1.0, size=(self.CREATE_POINTS, 4))]
        # alpha1 away from 0 and 1 keeps both the vacuum and the excitation
        # weight nonzero, so beta2 is defined along the whole phi2 turn
        self.coverage = [tuple(map(float, row)) for row in
                         rng.uniform((0.05, 0.0), (0.9, 1.0), size=(self.COVERAGE_POINTS, 2))]

    def reset(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csv)

    def run_pass(self) -> dict:
        code, _ = _run_cli(self.argv)
        dec = chain.chain_decomposition(chain.CouplingModel(chain.Coupling.ALL_NODE, self.N))
        protocol = optimize.optimal_protocol(dec, with_v=True)
        created = [rsc.create_state(protocol, dec, c) for c in self.controls]
        coverage = [rsc.beta2_coverage(protocol, dec, a1, a2, self.PHI_SAMPLES)
                    for a1, a2 in self.coverage]
        return {"code": code, "dec": dec, "protocol": protocol, "created": created,
                "coverage": coverage, "bytes": os.path.getsize(self.csv)}

    def check(self, out: dict, checks: Checks) -> None:
        checks.add(out["code"] == 0, "region exit code")
        got = np.loadtxt(self.csv, delimiter=",", skiprows=1, ndmin=2)
        ref = _region_reference()
        if got.shape != (ref["alpha"].shape[0], 5):
            checks.add(False, f"region shape {got.shape}")
        else:
            bad = ((got[:, :2] != ref["alpha"]).any(axis=1)
                   | ~(np.abs(got[:, 2] - ref["lam"]) <= REGION_TOL)
                   | ~(np.abs(got[:, 3] - ref["beta1"]) <= REGION_TOL)
                   | ~(_circular(got[:, 4], ref["beta2"]) <= REGION_TOL))
            checks.bulk(len(bad), int(bad.sum()), "region rows off the reference")

        bad = 0
        for rho, params in out["created"]:
            rebuilt = rsc.receiver_from_params(params)
            ok = (0.5 - STATE_TOL <= params.lam <= 1.0 + STATE_TOL
                  and float(np.max(np.abs(rho - rebuilt))) <= STATE_TOL)
            bad += not ok
        checks.bulk(len(out["created"]), bad, "create_state reconstruction or lambda range")

        dec, protocol = out["dec"], out["protocol"]
        stride = self.PHI_SAMPLES // self.COVERAGE_PROBES
        for (a1, a2), report in zip(self.coverage, out["coverage"]):
            ok = report.defined and report.beta2.shape == (self.PHI_SAMPLES,)
            if ok:
                for k in range(0, self.PHI_SAMPLES, stride):
                    c = rsc.ControlParams(a1, a2, 0.0, k / self.PHI_SAMPLES)
                    beta2 = rsc.create_state(protocol, dec, c)[1].beta2
                    ok &= bool(_circular(report.beta2, beta2).min() <= STATE_TOL)
            checks.add(ok, f"beta2 coverage at alpha=({a1:.3f}, {a2:.3f})")


def _region_reference() -> dict:
    with np.load(os.path.join(REFERENCE_DIR, "region_n109_step0.005.npz")) as data:
        ref = {key: data[key] for key in ("lam", "beta1", "beta2")}
    alphas = np.array([min(i * 0.005, 1.0) for i in range(201)])
    ref["alpha"] = np.column_stack([np.repeat(alphas, alphas.size), np.tile(alphas, alphas.size)])
    return ref


class OracleCheck:
    """One-excitation amplitudes against the full 2^N-space oracle, plus sampling."""

    name = "oracle_check"
    SIZES = (8, 9, 10)
    TIMES = 3  # seeded times per chain; the first goes through ``verify``
    SAMPLE_SIZES = (6, 20)
    SAMPLES = 1 << 20

    def __init__(self, seed: int, work_dir: str) -> None:
        rng = np.random.default_rng([seed, 2])
        self.chains = [(kind, n, [float(t) for t in rng.uniform(0.0, 3.0 * n, size=self.TIMES)])
                       for kind in chain.Coupling for n in self.SIZES]
        self.sample_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(self.SAMPLE_SIZES))]

    def reset(self) -> None:
        # A user's ``verify`` runs in a fresh process, so no pass may reuse
        # full-space spectra cached by an earlier one.
        cached = getattr(oracle, "_full_spectrum", None)
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()

    def run_pass(self) -> dict:
        deviations, vacuum, verify_codes = [], [], []
        for kind, n, times in self.chains:
            code, stdout = _run_cli(["verify", "--n", str(n), "--model", kind.value,
                                     "--t", repr(times[0])])
            verify_codes.append(code)
            deviations.append(float(stdout.split()[1]) if code == 0 else math.inf)
            model = chain.CouplingModel(kind, n)
            dec = chain.chain_decomposition(model)
            for t in times[1:]:
                for k in (n - 1, n):
                    for j in (1, 2):
                        fast = propagate.transition_amplitude(dec, k, j, t)
                        full = oracle.full_transition_amplitude(model, k, j, t)
                        deviations.append(abs(fast - full))
            vacuum += [oracle.full_transition_amplitude(model, 0, 0, t) for t in times]
        sampled = []
        for n, seed in zip(self.SAMPLE_SIZES, self.sample_seeds):
            dec = chain.chain_decomposition(chain.CouplingModel(chain.Coupling.ALL_NODE, n))
            protocol = optimize.optimal_protocol(dec, with_v=True)
            p = propagate.amplitude_matrix(dec, protocol.t0)
            best = oracle.sample_max_transfer(
                p, oracle.TransferMode.EXT_RECEIVER_NORM, self.SAMPLES, seed)
            sampled.append((n, p, best))
        return {"codes": verify_codes, "deviations": deviations, "vacuum": vacuum,
                "sampled": sampled, "bytes": 0}

    def check(self, out: dict, checks: Checks) -> None:
        checks.bulk(len(out["codes"]), sum(c != 0 for c in out["codes"]), "verify exit code")
        worst = max(out["deviations"])
        checks.bulk(len(out["deviations"]), sum(not d <= ORACLE_TOL for d in out["deviations"]),
                    f"oracle deviation above {ORACLE_TOL:g}, worst {worst:.3e}")
        checks.bulk(len(out["vacuum"]), sum(not abs(v - 1.0) <= VACUUM_TOL for v in out["vacuum"]),
                    "vacuum amplitude off 1")
        for n, p, best in out["sampled"]:
            # the singular-value bound, computed here independently of the package
            bound = float(np.linalg.svd(p, compute_uv=False)[0]) ** 2
            checks.add(best <= bound + STATE_TOL, f"sampled maximum above lambda+^2 at n={n}")


WORKLOADS = {w.name: w for w in (PaperSweep, CreationMap, OracleCheck)}


def warm_up() -> None:
    """First-call LAPACK/BLAS costs, paid once per process as part of set-up."""
    dec = chain.chain_decomposition(chain.CouplingModel(chain.Coupling.ALL_NODE, 8))
    propagate.amplitude_matrix(dec, 1.0)
