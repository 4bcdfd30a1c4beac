import cmath
import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrsc import (
    ControlParams,
    Coupling,
    CouplingModel,
    CreatableParams,
    amplitude_matrix,
    beta2_coverage,
    chain_decomposition,
    create_state,
    optimal_protocol,
    receiver_from_params,
    region_grid,
)
from spinrsc import propagate, rsc
from spinrsc.rsc import _extended_density, _reduce


@functools.lru_cache(maxsize=None)
def _dec(kind: Coupling, n: int):
    return chain_decomposition(CouplingModel(kind, n))


@functools.lru_cache(maxsize=None)
def _protocol(kind: Coupling, n: int, with_v: bool):
    return optimal_protocol(_dec(kind, n), with_v=with_v)


def _params(rho) -> CreatableParams:
    """The coordinates of a 2x2 receiver state, read as ``create_state`` reads them."""
    return CreatableParams(*rsc._coordinates(float(rho[1, 1].real), complex(rho[0, 1])))


@functools.lru_cache(maxsize=None)
def _region_109():
    """The benchmark's grid: n = 109, all-node coupling with v0, step 0.005."""
    dec = _dec(Coupling.ALL_NODE, 109)
    return region_grid(_protocol(Coupling.ALL_NODE, 109, True), dec, 0.005)


def _arrival(p, c: ControlParams) -> tuple[float, complex, complex]:
    """``(a0, f_nm1, f_n)`` of one control point: its vacuum amplitude and ``P (a1, a2)``."""
    a0, f, _ = rsc._arrivals(p, c.alpha1, c.alpha2, c.phi1, c.phi2)
    return float(a0[0]), complex(f[0, 0, 0]), complex(f[0, 1, 0])


def test_control_angles_map_to_amplitudes():
    eye = np.eye(2, dtype=complex)  # P = 1 passes the sender amplitudes through
    a0, a1, a2 = _arrival(eye, ControlParams(1.0, 0.3, 0.7, 0.2))
    assert a0 == pytest.approx(1.0, abs=1e-15)
    assert abs(a1) < 1e-15
    assert abs(a2) < 1e-15

    assert _arrival(eye, ControlParams(0.0, 0.0, 0.0, 0.9)) == (0.0, 1.0 + 0.0j, 0.0j)

    a0, a1, a2 = _arrival(eye, ControlParams(0.0, 1.0, 0.3, 0.25))
    assert a0 == 0.0
    assert abs(a1) < 1e-15
    assert a2 == pytest.approx(1.0j, abs=1e-15)


def test_vacuum_sender_is_stationary():
    p = amplitude_matrix(_dec(Coupling.ALL_NODE, 6), 3.0)
    a0, f_nm1, f_n = _arrival(p, ControlParams(1.0, 0.4, 0.3, 0.6))  # all weight on |0>
    assert a0 == 1.0
    assert abs(f_nm1) < 1e-15 and abs(f_n) < 1e-15


def test_arrivals_are_p_times_the_sender_amplitudes():
    p = amplitude_matrix(_dec(Coupling.ALL_NODE, 6), 3.0)
    _, f_nm1, f_n = _arrival(p, ControlParams(0.0, 0.0, 0.0, 0.0))  # a = (1, 0)
    assert (f_nm1, f_n) == pytest.approx((complex(p[0, 0]), complex(p[1, 0])), abs=1e-14)
    _, f_nm1, f_n = _arrival(p, ControlParams(0.0, 0.5, 0.0, 0.0))  # a = (1, 1) / sqrt(2)
    expected = (p[:, 0] + p[:, 1]) / math.sqrt(2.0)
    assert (f_nm1, f_n) == pytest.approx(tuple(expected.tolist()), abs=1e-14)
    eye = np.eye(2, dtype=complex)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = ControlParams(*rng.uniform(0.0, 1.0, size=4))
        a0, a1, a2 = _arrival(eye, c)
        assert _arrival(p, c) == pytest.approx((a0, *(p @ [a1, a2]).tolist()), abs=1e-14)


def test_create_state_maps_controls_through_the_documented_amplitudes():
    # with P = 1 and no rotation the receiver holds a2: rho_r[1, 1] = |a2|^2
    # and rho_r[0, 1] = a0 a2*, with a0, a2 as ControlParams documents them
    dec = _dec(Coupling.ALL_NODE, 6)
    identity = dataclasses.replace(_protocol(Coupling.ALL_NODE, 6, False), p=np.eye(2) + 0j)
    rng = np.random.default_rng(29)
    for alpha1, alpha2, phi1, phi2 in rng.uniform(0.0, 1.0, size=(50, 4)):
        a0 = math.sin(alpha1 * math.pi / 2)
        a2 = math.cos(alpha1 * math.pi / 2) * math.sin(alpha2 * math.pi / 2)
        a2 *= cmath.exp(2j * math.pi * phi2)
        rho, _ = create_state(identity, dec, ControlParams(alpha1, alpha2, phi1, phi2))
        expected = np.array([[1.0 - abs(a2) ** 2, a0 * a2.conjugate()],
                             [a0 * a2, abs(a2) ** 2]])
        assert np.max(np.abs(rho - expected)) < 1e-14


def test_control_params_range_validation():
    with pytest.raises(ValueError, match="alpha1"):
        ControlParams(-0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="phi2"):
        ControlParams(0.0, 0.0, 0.0, 1.5)


@given(
    alpha1=st.floats(0.0, 1.0),
    alpha2=st.floats(0.0, 1.0),
    phi1=st.floats(0.0, 1.0),
    phi2=st.floats(0.0, 1.0),
)
def test_control_states_are_normalised(alpha1, alpha2, phi1, phi2):
    a0, a1, a2 = _arrival(np.eye(2, dtype=complex), ControlParams(alpha1, alpha2, phi1, phi2))
    norm = a0**2 + abs(a1) ** 2 + abs(a2) ** 2
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_extended_density_pure_cases():
    rho = _extended_density(1.0, 0.0j, 0.0j)
    assert np.allclose(rho, np.diag([1.0, 0.0, 0.0, 0.0]))
    rho = _extended_density(0.0, 0.0j, 1.0 + 0.0j)
    assert np.allclose(rho, np.diag([0.0, 0.0, 1.0, 0.0]))


def test_extended_density_structure():
    a0, f_nm1, f_n = 0.6, 0.3 + 0.2j, -0.1 + 0.5j
    rho = _extended_density(a0, f_nm1, f_n)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(rho[3]) == 0.0)
    assert np.all(np.abs(rho[:, 3]) == 0.0)
    assert rho[0, 1] == pytest.approx(a0 * f_nm1.conjugate(), abs=1e-15)
    assert rho[1, 2] == pytest.approx(f_nm1 * f_n.conjugate(), abs=1e-15)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_extended_density_holds_the_transfer_probability():
    rho = _extended_density(0.6, 0.0j, 0.8j)
    assert 1.0 - rho[0, 0].real == pytest.approx(0.64)
    assert rho[1, 1] + rho[2, 2] == pytest.approx(0.64)


def test_extended_density_rejects_unphysical_amplitudes():
    with pytest.raises(ValueError, match="exceeds 1"):
        _extended_density(1.0, 0.5 + 0.0j, 0.0j)
    # a P that amplifies, so the arrival amplitudes outweigh the sender's
    loud = dataclasses.replace(_protocol(Coupling.ALL_NODE, 6, True), p=2.0 * np.eye(2) + 0j)
    dec = _dec(Coupling.ALL_NODE, 6)
    with pytest.raises(ValueError, match="exceeds 1"):
        create_state(loud, dec, ControlParams(0.5, 0.5, 0.0, 0.0))
    with pytest.raises(ValueError, match="exceeds 1"):
        region_grid(loud, dec, 0.25)
    with pytest.raises(ValueError, match="exceeds 1"):
        beta2_coverage(loud, dec, 0.5, 0.5, 8)
    # f = (a1 - a2, 0): the total 1/2 + (1 - cos(2 pi phi2)) / 2 first exceeds 1
    # at phi2 = 3/8, and coverage names that point and its total as create_state does
    mixing = dataclasses.replace(loud, p=np.array([[1.0, -1.0], [0.0, 0.0]]) + 0j)
    for k in range(3):
        create_state(mixing, dec, ControlParams(0.5, 0.5, 0.0, k / 8))
    with pytest.raises(ValueError) as first:
        create_state(mixing, dec, ControlParams(0.5, 0.5, 0.0, 3 / 8))
    with pytest.raises(ValueError) as coverage:
        beta2_coverage(mixing, dec, 0.5, 0.5, 8)
    assert str(coverage.value) == str(first.value)


def test_extended_density_eigenvalues_match_closed_form_at_optimum():
    protocol = _protocol(Coupling.ALL_NODE, 5, True)
    rho = _extended_density(0.0, *(protocol.p @ protocol.a_opt).tolist())
    eigs = np.sort(np.linalg.eigvalsh(rho))
    r_sq = protocol.r_max_sq
    expected = np.sort([0.0, 0.0, 1.0 - r_sq, r_sq])
    assert np.max(np.abs(eigs - expected)) < 1e-10


def test_extended_eigenvalues_match_direct_diagonalisation():
    # nonzero eigenvalues of the extended receiver in closed form:
    # (1 +- sqrt((1 - 2 r^2)^2 + 4 r^2 f0^2)) / 2 with r^2 the transfer probability
    rng = np.random.default_rng(31)
    dec = _dec(Coupling.ALL_NODE, 8)
    p = amplitude_matrix(dec, 9.0)
    for _ in range(200):
        a0, f_nm1, f_n = _arrival(p, ControlParams(*rng.uniform(0.0, 1.0, size=4)))
        rho = _extended_density(a0, f_nm1, f_n)
        eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
        r_sq = abs(f_nm1) ** 2 + abs(f_n) ** 2
        disc = math.sqrt((1.0 - 2.0 * r_sq) ** 2 + 4.0 * r_sq * a0**2)
        plus, minus = 0.5 * (1.0 + disc), 0.5 * (1.0 - disc)
        assert eigs[0] == pytest.approx(plus, abs=1e-10)
        assert eigs[1] == pytest.approx(minus, abs=1e-10)


def test_reduce_without_rotation_keeps_last_node():
    rho = _reduce(_extended_density(0.0, 0.0j, 1.0 + 0.0j), np.eye(4))
    assert np.allclose(rho, np.diag([0.0, 1.0]))


def test_reduce_with_optimal_rotation_diagonalises():
    protocol = _protocol(Coupling.ALL_NODE, 6, True)
    rho_ext = _extended_density(0.0, *(protocol.p @ protocol.a_opt).tolist())
    rho = _reduce(rho_ext, protocol.rotation)
    target = np.diag([1.0 - protocol.r_max_sq, protocol.r_max_sq])
    assert np.max(np.abs(rho - target)) < 1e-10


def test_reduce_matches_transformed_amplitude():
    # the receiver occupation equals |second component of v0 f|^2 and the
    # coherence is f0 times its conjugate
    protocol = _protocol(Coupling.ALL_NODE, 7, True)
    dec = _dec(Coupling.ALL_NODE, 7)
    rng = np.random.default_rng(41)
    for _ in range(50):
        c = ControlParams(*rng.uniform(0.0, 1.0, size=4))
        a0, f_nm1, f_n = _arrival(protocol.p, c)
        rho, _ = create_state(protocol, dec, c)
        g = protocol.v0 @ np.array([f_nm1, f_n])
        z = complex(g[1]).conjugate()
        assert rho[1, 1].real == pytest.approx(abs(z) ** 2, abs=1e-10)
        assert rho[0, 1] == pytest.approx(a0 * z, abs=1e-10)


def test_creatable_params_trivial_cases():
    cp = _params(np.diag([1.0, 0.0]).astype(complex))
    assert cp.lam == pytest.approx(1.0, abs=1e-14)
    assert cp.beta1 == 0.0
    assert cp.beta2 == 0.0

    # the maximally mixed state, with each signed zero of the coherence: the
    # CSV prints a -0.0 as "-0", so both betas must be +0.0
    for off in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
        cp = _params(np.array([[0.5, off], [off.conjugate(), 0.5]]))
        assert cp.lam == 0.5
        assert [math.copysign(1.0, x) for x in (cp.beta1, cp.beta2)] == [1.0, 1.0]
        assert (cp.beta1, cp.beta2) == (0.0, 0.0)


def test_creatable_params_balanced_coherent_state():
    # occupation 1/2 with maximal coherence: pure state, eigenvector tilted
    # half way, so lam = 1 and beta1 = 1/2
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    cp = _params(rho)
    assert cp.lam == pytest.approx(1.0, abs=1e-14)
    assert cp.beta1 == pytest.approx(0.5, abs=1e-14)


def test_creatable_params_reconstruction_random_states():
    rng = np.random.default_rng(53)
    for _ in range(300):
        r_z_sq = rng.uniform(0.0, 1.0)
        r0 = rng.uniform(0.0, math.sqrt(max(1.0 - r_z_sq, 0.0)))
        phase = cmath.exp(2j * math.pi * rng.uniform(0.0, 1.0))
        off = r0 * math.sqrt(r_z_sq) * phase
        rho = np.array([[1.0 - r_z_sq, off], [off.conjugate(), r_z_sq]])
        cp = _params(rho)
        assert 0.5 - 1e-12 <= cp.lam <= 1.0 + 1e-12
        assert np.max(np.abs(receiver_from_params(cp) - rho)) < 1e-10


@settings(max_examples=60)
@given(
    r_z_sq=st.floats(0.0, 1.0),
    r0_frac=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 1.0, exclude_max=True),
)
def test_creatable_params_reconstruction_property(r_z_sq, r0_frac, phase):
    r0 = r0_frac * math.sqrt(max(1.0 - r_z_sq, 0.0))
    off = r0 * math.sqrt(r_z_sq) * cmath.exp(2j * math.pi * phase)
    rho = np.array([[1.0 - r_z_sq, off], [off.conjugate(), r_z_sq]])
    cp = _params(rho)
    assert np.max(np.abs(receiver_from_params(cp) - rho)) < 1e-10


def test_creatable_lambda_equals_largest_eigenvalue():
    protocol = _protocol(Coupling.ALL_NODE, 6, True)
    dec = _dec(Coupling.ALL_NODE, 6)
    rng = np.random.default_rng(59)
    for _ in range(100):
        c = ControlParams(*rng.uniform(0.0, 1.0, size=4))
        rho, cp = create_state(protocol, dec, c)
        top = float(np.max(np.linalg.eigvalsh(rho)))
        assert cp.lam == pytest.approx(top, abs=1e-10)


def test_pipeline_states_are_physical():
    protocol = _protocol(Coupling.ALL_NODE, 6, True)
    dec = _dec(Coupling.ALL_NODE, 6)
    rng = np.random.default_rng(61)
    for _ in range(100):
        c = ControlParams(*rng.uniform(0.0, 1.0, size=4))
        rho, cp = create_state(protocol, dec, c)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10
        assert 0.5 - 1e-12 <= cp.lam <= 1.0 + 1e-12


def test_optimal_point_pinning():
    protocol = _protocol(Coupling.ALL_NODE, 20, True)
    dec = _dec(Coupling.ALL_NODE, 20)
    a1, a2 = protocol.a_opt.tolist()
    alpha2 = 2.0 / math.pi * math.atan2(abs(a2), abs(a1))
    phi1 = (cmath.phase(a1) / (2.0 * math.pi)) % 1.0
    phi2 = (cmath.phase(a2) / (2.0 * math.pi)) % 1.0
    rho, cp = create_state(protocol, dec, ControlParams(0.0, alpha2, phi1, phi2))
    assert rho[1, 1].real == pytest.approx(protocol.r_max_sq, abs=1e-10)
    assert cp.lam == pytest.approx(
        max(protocol.r_max_sq, 1.0 - protocol.r_max_sq), abs=1e-10
    )


def test_region_grid_apex_and_shape():
    protocol = _protocol(Coupling.ALL_NODE, 6, True)
    dec = _dec(Coupling.ALL_NODE, 6)
    rows = region_grid(protocol, dec, 0.1)
    assert len(rows) == 121
    # ordering: alpha1-major ascending
    assert rows[0].alpha1 == 0.0 and rows[0].alpha2 == 0.0
    assert rows[-1].alpha1 == 1.0 and rows[-1].alpha2 == 1.0
    for row in rows:
        if row.alpha1 == 1.0:  # vacuum stays put: region apex
            assert row.lam == pytest.approx(1.0, abs=1e-12)
            assert row.beta1 == 0.0
        assert 0.5 - 1e-12 <= row.lam <= 1.0 + 1e-12


@pytest.mark.two_blas_threads
def test_region_grid_rows_equal_create_state():
    # alpha1 = 0.005 holds the ill-conditioned band alpha2 ~ 0.40-0.435
    # (lam ~ 0.506), where an ulp in rho_r moves beta1 by ~1e-14
    protocol = _protocol(Coupling.ALL_NODE, 109, True)
    dec = _dec(Coupling.ALL_NODE, 109)
    rows = [row for row in _region_109() if row.alpha1 in (0.0, 0.005, 0.5, 1.0)]
    assert len(rows) == 4 * 201
    for row in rows:
        _, cp = create_state(protocol, dec, ControlParams(row.alpha1, row.alpha2, 0.0, 0.0))
        assert (row.lam, row.beta1, row.beta2) == (cp.lam, cp.beta1, cp.beta2)


@pytest.mark.two_blas_threads
def test_region_grid_equals_benchmark_reference():
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference"
    rows = _region_109()
    alphas = [min(i * 0.005, 1.0) for i in range(201)]
    assert [(r.alpha1, r.alpha2) for r in rows] == [(a1, a2) for a1 in alphas for a2 in alphas]
    with np.load(reference / "region_n109_step0.005.npz") as ref:
        for field in ("lam", "beta1", "beta2"):
            assert np.array_equal(np.array([getattr(r, field) for r in rows]), ref[field])


@pytest.mark.two_blas_threads
def test_coordinate_arrays_equal_the_scalar_coordinates():
    # the receiver states of the benchmark's grid, then hand-built states for
    # both early branches: no excitation (r_z_sq <= 1e-30) and no coherence
    protocol = _protocol(Coupling.ALL_NODE, 109, True)
    axis = _region_109().alphas
    rho = rsc._create_batch(protocol.p, protocol.rotation, axis[:, None], axis, 0.0, 0.0)
    r_z_sq, off = rho[:, 1, 1].real.tolist(), rho[:, 0, 1].tolist()
    r_z_sq += [0.0, -0.0, 5e-324, 1e-30, 1e-30, 0.0, 0.3, 0.3, 0.3, 0.5, 0.3, 0.3, 0.3]
    off += [0.1j, 0j, -0.2 + 0j, 0.3 - 0.1j, 0j, complex(-0.0, -0.0), 0j, complex(-0.0, 0.0),
            complex(0.0, -0.0), 0j, complex(-0.2, -0.0), complex(0.3, 1e-300), -1e-300j]
    got = rsc._coordinate_arrays(np.array(r_z_sq), np.array(off))
    expected = np.array([rsc._coordinates(r, c) for r, c in zip(r_z_sq, off)]).T
    assert np.array_equal(np.array(got).view(np.int64), expected.view(np.int64))


def test_region_grid_is_a_read_only_sequence_of_rows():
    grid = region_grid(_protocol(Coupling.ALL_NODE, 6, True), _dec(Coupling.ALL_NODE, 6), 0.25)
    rows = list(grid)
    assert len(grid) == len(rows) == 25 and grid.lam.shape == (5, 5)
    assert [grid[i] for i in range(-25, 25)] == rows + rows
    assert grid[7] == (0.25, 0.5, grid.lam[1, 2], grid.beta1[1, 2], grid.beta2[1, 2])
    for index in (25, -26):
        with pytest.raises(IndexError):
            grid[index]
    with pytest.raises(ValueError, match="read-only"):
        grid.lam[0, 0] = 0.0


def test_region_grid_step_validation():
    protocol = _protocol(Coupling.ALL_NODE, 6, True)
    dec = _dec(Coupling.ALL_NODE, 6)
    with pytest.raises(ValueError, match="step"):
        region_grid(protocol, dec, 0.0)
    with pytest.raises(ValueError, match="step"):
        region_grid(protocol, dec, 0.7)
    # 5e-324 makes 1 / step overflow to inf; 0.000999 is the first step past the cap
    for step in (1e-300, 5e-324, 1e-7, 0.000999):
        with pytest.raises(ValueError, match="too fine"):
            region_grid(protocol, dec, step)
    assert len(rsc._grid_values(1e-3)) ** 2 == rsc.MAX_GRID_POINTS


def test_rotation_extends_created_region_between_critical_lengths():
    # at n = 50 only the rotated variant still transfers more than half the
    # excitation, so only its region reaches down towards lam = 1/2
    dec = _dec(Coupling.ALL_NODE, 50)
    prot_v = _protocol(Coupling.ALL_NODE, 50, True)
    prot_plain = _protocol(Coupling.ALL_NODE, 50, False)
    assert prot_v.r_max_sq > 0.5 > prot_plain.r_max_sq
    with_v = region_grid(prot_v, dec, 0.05)
    without = region_grid(prot_plain, dec, 0.05)
    min_with = min(r.lam for r in with_v)
    min_without = min(r.lam for r in without)
    assert min_with < min_without
    # without the rotation the best receiver occupation caps the reachable lam
    assert min_without >= 1.0 - prot_plain.r_max_sq - 1e-10


def test_beta2_coverage_wraps_when_second_amplitude_dominates():
    protocol = _protocol(Coupling.ALL_NODE, 10, True)
    dec = _dec(Coupling.ALL_NODE, 10)
    report = beta2_coverage(protocol, dec, 0.5, 0.9, 100)
    assert report.defined
    assert np.all((report.beta2 >= 0.0) & (report.beta2 < 1.0))
    assert report.max_gap <= 0.02

    # a full turn of phi2 at alpha2 = 1 moves the phase uniformly
    report = beta2_coverage(protocol, dec, 0.5, 1.0, 100)
    assert report.max_gap <= 0.011


def test_beta2_coverage_does_not_wrap_at_balanced_angles():
    # with equal sender weights the static term dominates the swept one, so
    # the phase oscillates instead of wrapping; derived by direct sweep
    protocol = _protocol(Coupling.ALL_NODE, 10, True)
    dec = _dec(Coupling.ALL_NODE, 10)
    report = beta2_coverage(protocol, dec, 0.5, 0.5, 100)
    assert report.defined
    assert report.max_gap > 0.5


def test_results_that_hold_arrays_compare_by_identity_and_hash():
    # a field-wise == or hash would reach numpy arrays and raise
    def results():
        dec = chain_decomposition(CouplingModel(Coupling.ALL_NODE, 9))
        protocol = optimal_protocol(dec, with_v=True)
        grid = region_grid(protocol, dec, 0.25)
        return dec, protocol, beta2_coverage(protocol, dec, 0.5, 0.9, 100), grid

    for first, second in zip(results(), results()):
        assert first == first and first != second, type(first).__name__
        assert len({first, second, first}) == 2


def test_beta2_coverage_undefined_without_excitation():
    protocol = _protocol(Coupling.ALL_NODE, 10, True)
    dec = _dec(Coupling.ALL_NODE, 10)
    report = beta2_coverage(protocol, dec, 1.0, 0.3, 16)
    assert not report.defined
    assert report.beta2 is None
    assert report.max_gap is None


def test_beta2_coverage_undefined_without_vacuum_weight():
    # at alpha1 = 0 the coherence f0 g_N* is zero, so every created state
    # has beta2 = 0 whatever phi2 is
    protocol = _protocol(Coupling.ALL_NODE, 20, True)
    dec = _dec(Coupling.ALL_NODE, 20)
    for k in range(8):
        _, params = create_state(protocol, dec, ControlParams(0.0, 0.3, 0.0, k / 8))
        assert params.beta2 == 0.0
    report = beta2_coverage(protocol, dec, 0.0, 0.3, 8)
    assert not report.defined
    assert report.beta2 is None
    assert report.max_gap is None


def _old_sender(c: ControlParams) -> tuple[float, complex, complex]:
    """Sender amplitudes ``(a0, a1, a2)`` as the per-point path makes them."""
    half1 = 0.5 * math.pi * c.alpha1
    half2 = 0.5 * math.pi * c.alpha2
    a0 = math.sin(half1)
    a1 = math.cos(half1) * math.cos(half2) * cmath.exp(2j * math.pi * c.phi1)
    a2 = math.cos(half1) * math.sin(half2) * cmath.exp(2j * math.pi * c.phi2)
    return a0, a1, a2


def _scalar_beta2_coverage(protocol, dec, alpha1, alpha2, phi_samples):
    """The per-point coverage loop, kept as the reference for the batched one."""
    p = amplitude_matrix(dec, protocol.t0)
    betas = np.empty(phi_samples)
    for k in range(phi_samples):
        a0, a1, a2 = _old_sender(ControlParams(alpha1, alpha2, 0.0, k / phi_samples))
        f = p @ np.array([a1, a2], dtype=complex)
        g = protocol.v0 @ np.array([complex(f[0]), complex(f[1])])
        if a0 == 0.0 or abs(g[1]) <= 1e-12:
            return None
        betas[k] = (cmath.phase(complex(g[1])) / (2.0 * math.pi)) % 1.0
    betas.sort()
    return betas


@pytest.mark.parametrize("kind", list(Coupling))
@pytest.mark.parametrize("with_v", [False, True])
def test_beta2_coverage_equals_scalar_loop(kind, with_v):
    protocol = _protocol(kind, 20, with_v)
    dec = _dec(kind, 20)
    for alpha1 in (0.0, 0.005, 0.3, 0.7, 1.0):
        for alpha2 in (0.0, 0.2, 0.5, 1.0):
            report = beta2_coverage(protocol, dec, alpha1, alpha2, 97)
            expected = _scalar_beta2_coverage(protocol, dec, alpha1, alpha2, 97)
            if alpha1 in (0.0, 1.0):  # no vacuum weight, or no excitation
                assert expected is None
            if expected is None:
                assert not report.defined
            else:
                assert report.defined and np.array_equal(report.beta2, expected)


def test_coverage_takes_pow_squares_only_near_the_bound(monkeypatch):
    calls = []

    def counting_pow(x, y):
        calls.append(x)
        return pow(x, y)

    monkeypatch.setattr(rsc, "pow", counting_pow, raising=False)
    protocol, dec = _protocol(Coupling.ALL_NODE, 109, True), _dec(Coupling.ALL_NODE, 109)
    assert beta2_coverage(protocol, dec, 0.3, 0.6, 512).defined
    assert not calls
    grid = region_grid(protocol, dec, 0.25)
    assert len(calls) == 2 * len(grid)  # the |f|^2 that each state holds


def test_coverage_decides_near_the_bound_with_pow(monkeypatch):
    # at alpha1 = alpha2 = 0 the arrivals are P's first column, (c, 0), so
    # np.square gives the total c * c: just below the bound
    bound = 1.0 + rsc.CONSTRAINT_TOL
    c = math.sqrt(bound)
    while c * c > bound:
        c = math.nextafter(c, 0.0)
    protocol = dataclasses.replace(_protocol(Coupling.ALL_NODE, 6, True), p=c * np.eye(2) + 0j)
    dec = _dec(Coupling.ALL_NODE, 6)
    assert c * c > bound - 1e-15
    assert not beta2_coverage(protocol, dec, 0.0, 0.0, 8).defined
    create_state(protocol, dec, ControlParams(0.0, 0.0, 0.0, 0.0))

    def loud_pow(x, y):
        return pow(x, y) * (1.0 + 1e-12)

    monkeypatch.setattr(rsc, "pow", loud_pow, raising=False)
    total = 0.0 + (loud_pow(c, 2) + 0.0)
    message = f"invalid amplitude vector: f0^2 + |f_nm1|^2 + |f_n|^2 = {total!r} exceeds 1"
    with pytest.raises(ValueError) as raised:
        beta2_coverage(protocol, dec, 0.0, 0.0, 8)
    assert str(raised.value) == message


def test_beta2_coverage_sample_validation():
    protocol = _protocol(Coupling.ALL_NODE, 10, True)
    dec = _dec(Coupling.ALL_NODE, 10)
    for bad in (0, 2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="phi_samples"):
            beta2_coverage(protocol, dec, 0.0, 0.5, bad)
    report = beta2_coverage(protocol, dec, 0.3, 0.5, np.int64(7))
    assert report.beta2.shape == (7,)


def test_beta2_matches_creatable_params_when_vacuum_weight_present():
    protocol = _protocol(Coupling.ALL_NODE, 9, True)
    dec = _dec(Coupling.ALL_NODE, 9)
    rng = np.random.default_rng(67)
    for _ in range(25):
        c = ControlParams(
            float(rng.uniform(0.05, 0.7)),
            float(rng.uniform(0.1, 0.9)),
            0.0,
            float(rng.uniform(0.0, 1.0)),
        )
        _, f_nm1, f_n = _arrival(protocol.p, c)
        g = protocol.v0 @ np.array([f_nm1, f_n])
        if abs(g[1]) < 1e-8:
            continue
        _, cp = create_state(protocol, dec, c)
        beta2_direct = (cmath.phase(complex(g[1])) / (2.0 * math.pi)) % 1.0
        gap = abs(cp.beta2 - beta2_direct)
        assert min(gap, 1.0 - gap) <= 1e-12  # the two phases differ in the last bit at most


def test_receiver_from_params_is_density_matrix():
    cp = CreatableParams(lam=0.8, beta1=0.37, beta2=0.91)
    rho = receiver_from_params(cp)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    eigs = np.sort(np.linalg.eigvalsh(rho))
    assert eigs[1] == pytest.approx(0.8, abs=1e-12)


def _old_create_state(protocol, dec, controls):
    """The staged per-point path before the protocol owned P(t0) and its rotation, inlined.

    Control angles to sender amplitudes, ``f = P (a1, a2)``, the 4x4
    extended-receiver state filled entry by entry, ``diag(1, v0, 1)`` and
    the partial trace over node N-1.
    """
    a0, a1, a2 = _old_sender(controls)
    f = amplitude_matrix(dec, protocol.t0) @ np.array([a1, a2], dtype=complex)
    f_nm1, f_n = complex(f[0]), complex(f[1])
    occupied = abs(f_nm1) ** 2 + abs(f_n) ** 2
    assert a0**2 + occupied <= 1.0 + 1e-9
    rho_ext = np.zeros((4, 4), dtype=complex)
    rho_ext[0, 0] = 1.0 - occupied
    rho_ext[1, 1] = abs(f_nm1) ** 2
    rho_ext[2, 2] = abs(f_n) ** 2
    rho_ext[0, 1] = a0 * f_nm1.conjugate()
    rho_ext[0, 2] = a0 * f_n.conjugate()
    rho_ext[1, 2] = f_nm1 * f_n.conjugate()
    rho_ext[1, 0] = rho_ext[0, 1].conjugate()
    rho_ext[2, 0] = rho_ext[0, 2].conjugate()
    rho_ext[2, 1] = rho_ext[1, 2].conjugate()
    v0 = np.asarray(protocol.v0, dtype=complex)
    assert float(np.max(np.abs(v0 @ v0.conj().T - np.eye(2)))) <= 1e-8
    v = np.eye(4, dtype=complex)
    v[1:3, 1:3] = v0
    m = v @ rho_ext @ v.conj().T
    rho_r = np.array(
        [
            [m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
            [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]],
        ]
    )
    return rho_r, _params(rho_r)


def _bits(states):
    """int64 view of every ``(rho, params)`` pair, for bit-for-bit comparison."""
    rhos = np.array([rho for rho, _ in states])
    params = np.array([(cp.lam, cp.beta1, cp.beta2) for _, cp in states])
    return rhos.view(np.int64), params.view(np.int64)


@pytest.mark.two_blas_threads
@pytest.mark.parametrize(
    "kind, n, with_v",
    [(Coupling.ALL_NODE, 109, True), (Coupling.ALL_NODE, 37, False),
     (Coupling.NEAREST_NEIGHBOR, 20, False)],
)
def test_create_state_equals_the_old_per_point_path(kind, n, with_v):
    protocol, dec = _protocol(kind, n, with_v), _dec(kind, n)
    rng = np.random.default_rng([n, with_v])
    points = rng.uniform(0.0, 1.0, size=(5000, 4))
    edges = rng.uniform(0.0, 1.0, size=(40, 4))
    edges[:, 0] = np.repeat([0.0, 1.0], 20)  # no excitation weight, or no vacuum weight
    controls = [ControlParams(*map(float, row)) for row in np.vstack([points, edges])]
    new = _bits([create_state(protocol, dec, c) for c in controls])
    old = _bits([_old_create_state(protocol, dec, c) for c in controls])
    assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])


def test_creation_reads_p_and_rotation_from_the_protocol(monkeypatch):
    protocol, dec = _protocol(Coupling.ALL_NODE, 20, True), _dec(Coupling.ALL_NODE, 20)
    c = ControlParams(0.3, 0.6, 0.1, 0.8)
    expected = create_state(protocol, dec, c)

    def refuse(*args):
        raise AssertionError("P(t0) recomputed")

    # every single-time P, amplitude_matrix's included, goes through _p_stack
    monkeypatch.setattr(propagate, "_p_stack", refuse)
    rho, cp = create_state(protocol, dec, c)
    assert np.array_equal(rho, expected[0]) and cp == expected[1]
    assert len(region_grid(protocol, dec, 0.25)) == 25
    assert beta2_coverage(protocol, dec, 0.3, 0.6, 16).defined


def test_protocol_with_non_unitary_v0_is_refused_on_first_use():
    protocol, dec = _protocol(Coupling.ALL_NODE, 9, True), _dec(Coupling.ALL_NODE, 9)
    for bad_v0, message in (
        (np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex), "not unitary"),
        (np.eye(3, dtype=complex), "v0 must be 2x2"),
    ):
        bad = dataclasses.replace(protocol, v_svd=bad_v0)
        with pytest.raises(ValueError, match=message):
            create_state(bad, dec, ControlParams(0.3, 0.6, 0.1, 0.8))
        with pytest.raises(ValueError, match=message):
            region_grid(bad, dec, 0.25)
        with pytest.raises(ValueError, match=message):
            beta2_coverage(bad, dec, 0.3, 0.6, 16)
        with pytest.raises(ValueError, match=message):
            bad.rotation
