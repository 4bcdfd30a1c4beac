"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The sweep and oracle criteria also enforce their runtime budgets.
"""

import cmath
import math
import time
from pathlib import Path

import numpy as np
import pytest

from spinrsc import (
    Coupling,
    CouplingModel,
    SweepModel,
    TransferMode,
    amplitude_matrix,
    beta2_coverage,
    chain_decomposition,
    ControlParams,
    create_state,
    critical_length,
    full_transition_amplitude,
    optimal_protocol,
    region_grid,
    sample_max_transfer,
    transition_amplitude,
)
from spinrsc.optimize import _svd
from spinrsc.rsc import _arrivals, _extended_density

CRITICAL_HALF = {SweepModel.NN: 34, SweepModel.ALL_NO_V: 37, SweepModel.ALL_WITH_V: 109}
CRITICAL_NINE_TENTHS = {SweepModel.NN: 6, SweepModel.ALL_NO_V: 4, SweepModel.ALL_WITH_V: 17}
SWEEP_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "sweep.csv"


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def chain_109():
    dec = chain_decomposition(CouplingModel(Coupling.ALL_NODE, 109))
    return dec, optimal_protocol(dec, with_v=True)


def test_criterion_1_critical_lengths_at_one_half(full_sweep):
    rows, elapsed = full_sweep
    results = {c.model: c.n_critical for c in critical_length(rows, 0.5)}
    ok = results == CRITICAL_HALF and elapsed < 120.0 and len(rows) == 127 * 3
    print(f"  critical lengths at 1/2: {({m.value: v for m, v in results.items()})}, "
          f"sweep time {elapsed:.1f} s")
    _report(1, "critical lengths at threshold 1/2, sweep 4..130 under 2 min", ok)


def test_criterion_2_critical_lengths_at_nine_tenths(full_sweep):
    rows, _ = full_sweep
    results = {c.model: c.n_critical for c in critical_length(rows, 0.9)}
    print(f"  critical lengths at 0.9: {({m.value: v for m, v in results.items()})}")
    _report(2, "critical lengths at threshold 0.9", results == CRITICAL_NINE_TENTHS)


def test_sweep_rows_equal_the_reference_csv_byte_for_byte(full_sweep):
    """The fixture's rows, written as the CLI's ``sweep`` lines, are the reference file."""
    rows, _ = full_sweep
    lines = ["n,model,t0,r_max_sq"]
    lines += [f"{r.n},{r.model.value},{r.t0:.17g},{r.r_max_sq:.17g}" for r in rows]
    assert "".join(line + "\n" for line in lines).encode() == SWEEP_REFERENCE.read_bytes()


def test_criterion_3_dominance_monotonicity_linearity(full_sweep):
    rows, _ = full_sweep
    by = {(r.model, r.n): r for r in rows}
    dominance = all(
        by[(SweepModel.ALL_WITH_V, n)].r_max_sq >= by[(SweepModel.ALL_NO_V, n)].r_max_sq
        for n in range(4, 121)
    )
    monotone = True
    fits_ok = True
    for model in SweepModel:
        values = np.array([by[(model, n)].r_max_sq for n in range(4, 121)])
        monotone &= bool(np.all(np.diff(values) <= 1e-6))
        ns = np.arange(10, 121, dtype=float)
        t0s = np.array([by[(model, int(n))].t0 for n in ns])
        coef = np.polyfit(ns, t0s, 1)
        resid = t0s - np.polyval(coef, ns)
        r_sq = 1.0 - np.sum(resid**2) / np.sum((t0s - t0s.mean()) ** 2)
        fits_ok &= bool(r_sq > 0.99)
        print(f"  {model.value}: monotone={bool(np.all(np.diff(values) <= 1e-6))}, "
              f"t0 fit R^2={r_sq:.6f}")
    t0_rotated = np.array([by[(SweepModel.ALL_WITH_V, n)].t0 for n in range(10, 121)])
    arrival_increasing = bool(np.all(np.diff(t0_rotated) > 0.0))
    _report(3, "dominance, monotone decay, linear arrival time",
            dominance and monotone and fits_ok and arrival_increasing)


def test_criterion_4_optimal_pipeline_reaches_diagonal_state():
    ok = True
    for n in (10, 50, 109):
        dec = chain_decomposition(CouplingModel(Coupling.ALL_NODE, n))
        protocol = optimal_protocol(dec, with_v=True)
        # the control angles of the optimal sender: no vacuum weight, a = a_opt
        a1, a2 = protocol.a_opt.tolist()
        turns = [(cmath.phase(a) / (2.0 * math.pi)) % 1.0 for a in (a1, a2)]
        alpha2 = math.atan2(abs(a2), abs(a1)) / (0.5 * math.pi)
        rho, _ = create_state(protocol, dec, ControlParams(0.0, alpha2, *turns))
        target = np.diag([1.0 - protocol.r_max_sq, protocol.r_max_sq])
        deviation = float(np.max(np.abs(rho - target)))
        print(f"  n={n}: |rho - diag(1-R^2, R^2)| = {deviation:.2e}")
        ok &= deviation < 1e-10
    _report(4, "optimal protocol transfers both eigenvalues to the receiver", ok)


def test_criterion_5_oracle_equivalence_and_sampled_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(97)
    worst = 0.0
    for kind in Coupling:
        for n in range(4, 17):
            model = CouplingModel(kind, n)
            dec = chain_decomposition(model)
            for t in rng.uniform(0.0, 3.0 * n, size=5):
                for k in (n - 1, n):
                    for j in (1, 2):
                        fast = transition_amplitude(dec, k, j, float(t))
                        full = full_transition_amplitude(model, k, j, float(t))
                        worst = max(worst, abs(fast - full))
    reduction_ok = worst < 1e-10

    sampling_ok = True
    for n in (6, 20):
        dec = chain_decomposition(CouplingModel(Coupling.ALL_NODE, n))
        protocol = optimal_protocol(dec, with_v=True)
        p = amplitude_matrix(dec, protocol.t0)
        bound = float(np.linalg.svd(p, compute_uv=False)[0]) ** 2
        sampled = sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, 10**6, seed=1)
        gap = bound - sampled
        print(f"  n={n}: singular bound {bound:.8f}, best of 1e6 samples {sampled:.8f}")
        sampling_ok &= 0.0 <= gap < 1e-4
    elapsed = time.perf_counter() - start
    print(f"  worst full-space deviation {worst:.2e}, runtime {elapsed:.1f} s")
    _report(5, "full-space oracle agreement and sampled optimality under 3 min",
            reduction_ok and sampling_ok and elapsed < 180.0)


def test_criterion_6_region_coverage_at_critical_length(chain_109):
    dec, protocol = chain_109
    grid = region_grid(protocol, dec, 0.1)
    lams = [row.lam for row in grid]
    dec_nn = chain_decomposition(CouplingModel(Coupling.NEAREST_NEIGHBOR, 109))
    protocol_nn = optimal_protocol(dec_nn, with_v=False)
    grid_nn = region_grid(protocol_nn, dec_nn, 0.1)
    lams_nn = [row.lam for row in grid_nn]
    print(f"  all+v: min lam {min(lams):.6f}, max lam {max(lams):.6f}; "
          f"nn: min lam {min(lams_nn):.6f}")
    ok = min(lams) <= 0.52 and max(lams) >= 0.999 and min(lams_nn) > min(lams)
    _report(6, "creatable region extremes at the critical length", ok)


def test_criterion_7_property_bundle(chain_109):
    rng = np.random.default_rng(113)

    conservation_ok = True
    for _ in range(20):
        n = int(rng.integers(4, 24))
        kind = Coupling.ALL_NODE if rng.random() < 0.5 else Coupling.NEAREST_NEIGHBOR
        dec = chain_decomposition(CouplingModel(kind, n))
        t = float(rng.uniform(0.0, 4.0 * n))
        phases = np.exp(-1j * dec.energies * t)
        pmat = (dec.vectors * phases) @ dec.vectors.T
        conservation_ok &= bool(
            np.max(np.abs(np.sum(np.abs(pmat) ** 2, axis=0) - 1.0)) < 1e-10
        )

    dec6 = chain_decomposition(CouplingModel(Coupling.ALL_NODE, 6))
    protocol6 = optimal_protocol(dec6, with_v=True)
    densities_ok = True
    for _ in range(50):
        c = ControlParams(*rng.uniform(0.0, 1.0, size=4))
        a0, f, _ = _arrivals(protocol6.p, c.alpha1, c.alpha2, c.phi1, c.phi2)
        rho_ext = _extended_density(float(a0[0]), complex(f[0, 0, 0]), complex(f[0, 1, 0]))
        densities_ok &= bool(np.max(np.abs(rho_ext - rho_ext.conj().T)) < 1e-12)
        densities_ok &= bool(abs(np.trace(rho_ext).real - 1.0) < 1e-12)
        densities_ok &= bool(np.min(np.linalg.eigvalsh(rho_ext)) > -1e-12)
        rho, cp = create_state(protocol6, dec6, c)
        densities_ok &= bool(np.max(np.abs(rho - rho.conj().T)) < 1e-10)
        densities_ok &= bool(abs(np.trace(rho).real - 1.0) < 1e-10)
        densities_ok &= bool(np.min(np.linalg.eigvalsh(rho)) > -1e-10)
        densities_ok &= bool(0.5 - 1e-12 <= cp.lam <= 1.0 + 1e-12)

    svd_ok = True
    for _ in range(50):
        n = int(rng.integers(4, 40))
        kind = Coupling.ALL_NODE if rng.random() < 0.5 else Coupling.NEAREST_NEIGHBOR
        dec = chain_decomposition(CouplingModel(kind, n))
        p = amplitude_matrix(dec, float(rng.uniform(0.0, 4.0 * n)))
        u, v_svd, lam_minus, lam_plus = _svd(p)
        recon = v_svd.conj().T @ np.diag([lam_minus, lam_plus]) @ u
        svd_ok &= bool(np.max(np.abs(recon - p)) < 1e-10)

    dec10 = chain_decomposition(CouplingModel(Coupling.ALL_NODE, 10))
    protocol10 = optimal_protocol(dec10, with_v=True)
    coverage = beta2_coverage(protocol10, dec10, 0.5, 0.9, 100)
    coverage_ok = coverage.defined and coverage.max_gap <= 0.02

    print(f"  conservation={conservation_ok} densities={densities_ok} "
          f"svd_reconstruction={svd_ok} beta2_gap={coverage.max_gap:.4f}")
    _report(7, "randomised property suites",
            conservation_ok and densities_ok and svd_ok and coverage_ok)
