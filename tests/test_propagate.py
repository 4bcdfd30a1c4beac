import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrsc import (
    Coupling,
    CouplingModel,
    SpectralDecomposition,
    amplitude_matrix,
    chain_decomposition,
    lam_plus_sq,
    row_norm_sq,
    transition_amplitude,
)
from spinrsc import optimize
from spinrsc.optimize import SCAN_POINTS_PER_NODE
from spinrsc.oracle import full_transition_amplitude
from spinrsc.propagate import GRID_BLOCK, _weights, amplitude_grid

# frozen from the analytic spectral sum of the 4-site half-hopping chain:
# sum_m sqrt(2/5) sin(4 m pi/5) * sqrt(2/5) sin(m pi/5) * exp(-i cos(m pi/5) pi)
P41_N4_AT_PI = 0.4411609728809329j


@functools.lru_cache(maxsize=None)
def _dec(kind: Coupling, n: int):
    return chain_decomposition(CouplingModel(kind, n))


def test_zero_time_is_identity():
    dec = _dec(Coupling.NEAREST_NEIGHBOR, 5)
    for k in range(1, 6):
        for j in range(1, 6):
            expected = 1.0 if k == j else 0.0
            assert transition_amplitude(dec, k, j, 0.0) == pytest.approx(expected, abs=1e-12)


def test_end_to_end_amplitude_matches_analytic_sum():
    dec = _dec(Coupling.NEAREST_NEIGHBOR, 4)
    m = np.arange(1, 5)
    energies = np.cos(m * np.pi / 5.0)
    v4 = np.sqrt(2.0 / 5.0) * np.sin(4 * m * np.pi / 5.0)
    v1 = np.sqrt(2.0 / 5.0) * np.sin(m * np.pi / 5.0)
    analytic = complex(np.sum(v4 * v1 * np.exp(-1j * energies * np.pi)))
    got = transition_amplitude(dec, 4, 1, np.pi)
    assert got == pytest.approx(analytic, abs=1e-12)
    assert got == pytest.approx(P41_N4_AT_PI, abs=1e-12)


@pytest.mark.parametrize("kind", list(Coupling))
def test_amplitude_grid_matches_series(kind):
    dec = _dec(kind, 23)
    step, count = 0.05, 28 * GRID_BLOCK + 11  # ragged last block, t up to ~90
    grid = amplitude_grid(dec, step, count)
    assert grid.shape == (2, 2, count)
    single = np.stack([amplitude_matrix(dec, t) for t in step * np.arange(count)], axis=-1)
    assert np.max(np.abs(grid - single)) <= 1e-13


@pytest.mark.two_blas_threads
@pytest.mark.parametrize("kind", list(Coupling))
@pytest.mark.parametrize("n", [33, 34])
def test_amplitude_grid_prefix_is_bit_identical(kind, n):
    # a grid value depends on k alone, so a shorter grid is a prefix of the full window
    dec = _dec(kind, n)
    step = 0.05
    full = amplitude_grid(dec, step, 80 * n + 1)
    first_stage = SCAN_POINTS_PER_NODE * n + GRID_BLOCK
    for count in (1, GRID_BLOCK - 1, 5 * GRID_BLOCK + 7, first_stage, 32 * n):
        prefix = amplitude_grid(dec, step, count)
        assert prefix.shape == (2, 2, count)
        assert np.array_equal(prefix.view(np.int64), full[:, :, :count].view(np.int64))


def test_node_index_out_of_range():
    dec = _dec(Coupling.NEAREST_NEIGHBOR, 5)
    with pytest.raises(ValueError, match="node indices"):
        transition_amplitude(dec, 0, 1, 1.0)
    with pytest.raises(ValueError, match="node indices"):
        transition_amplitude(dec, 1, 6, 1.0)


def test_probability_conservation_at_fixed_time():
    for kind in Coupling:
        dec = _dec(kind, 7)
        for j in range(1, 8):
            total = sum(abs(transition_amplitude(dec, k, j, 1.7)) ** 2 for k in range(1, 8))
            assert total == pytest.approx(1.0, abs=1e-10)


def test_amplitude_matrix_zero_at_time_zero():
    for n in (4, 6, 9):
        p = amplitude_matrix(_dec(Coupling.ALL_NODE, n), 0.0)
        assert np.max(np.abs(p)) < 1e-12


def test_amplitude_matrix_columns_bounded_by_unitarity():
    dec = _dec(Coupling.NEAREST_NEIGHBOR, 6)
    for t in (0.3, 1.9, 7.4, 23.0):
        p = amplitude_matrix(dec, t)
        norms = np.sum(np.abs(p) ** 2, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)


def test_amplitude_matrix_agrees_with_full_space():
    model = CouplingModel(Coupling.ALL_NODE, 5)
    dec = _dec(Coupling.ALL_NODE, 5)
    p = amplitude_matrix(dec, 2.0)
    for row, k in enumerate((4, 5)):
        for col, j in enumerate((1, 2)):
            full = full_transition_amplitude(model, k, j, 2.0)
            assert abs(p[row, col] - full) < 1e-10


def test_amplitude_matrix_requires_disjoint_blocks():
    dec = SpectralDecomposition(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError, match="overlap"):
        amplitude_matrix(dec, 1.0)


@pytest.mark.two_blas_threads
def test_series_matches_single_time_calls():
    # the refine probes a series of times in one batch, each its own
    # (4, n) @ (n, 1) product of the chain's P weights, so batching
    # changes no bit against amplitude_matrix at each time
    for kind in Coupling:
        for n in (4, 9, 33, 109):
            dec = _dec(kind, n)
            weights = _weights(dec)
            ts = np.random.default_rng(n).uniform(0.0, 4.0 * n, size=120)
            for objective in (lam_plus_sq, row_norm_sq):
                # a zero-width bracket returns its probe at t itself; an objective
                # takes a (2, 2, T) stack (on a bare 2x2, lam_plus_sq's determinant
                # uses numpy's scalar complex multiply, which rounds differently)
                rows = [optimize._RefineRow(dec.energies, weights, objective, t, t) for t in ts]
                t0s, probed = zip(*optimize._refine(rows))
                direct = [objective(amplitude_matrix(dec, t)[:, :, None])[0] for t in ts]
                assert list(t0s) == ts.tolist()
                assert np.array_equal(
                    np.array(probed).view(np.int64), np.array(direct).view(np.int64)
                ), (kind, n, objective.__name__)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=14),
    t=st.floats(min_value=0.0, max_value=60.0),
    all_node=st.booleans(),
)
def test_probability_conservation_property(n, t, all_node):
    kind = Coupling.ALL_NODE if all_node else Coupling.NEAREST_NEIGHBOR
    dec = _dec(kind, n)
    phases = np.exp(-1j * dec.energies * t)
    pmat = (dec.vectors * phases) @ dec.vectors.T
    col_norms = np.sum(np.abs(pmat) ** 2, axis=0)
    assert np.max(np.abs(col_norms - 1.0)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    t=st.floats(min_value=0.0, max_value=40.0),
    all_node=st.booleans(),
)
def test_symmetry_and_time_reversal(n, t, all_node):
    kind = Coupling.ALL_NODE if all_node else Coupling.NEAREST_NEIGHBOR
    dec = _dec(kind, n)
    k, j = n - 1, 2
    forward = transition_amplitude(dec, k, j, t)
    assert abs(forward - transition_amplitude(dec, j, k, t)) < 1e-12
    assert abs(transition_amplitude(dec, k, j, -t) - forward.conjugate()) < 1e-12


def test_received_norm_never_exceeds_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        kind = Coupling.ALL_NODE if rng.random() < 0.5 else Coupling.NEAREST_NEIGHBOR
        dec = _dec(kind, n)
        t = float(rng.uniform(0.0, 4.0 * n))
        raw = rng.standard_normal(5)
        z = np.array([raw[1] + 1j * raw[2], raw[3] + 1j * raw[4]])
        a0 = abs(raw[0]) / np.sqrt(raw[0] ** 2 + np.sum(np.abs(z) ** 2))
        z /= np.sqrt(raw[0] ** 2 + np.sum(np.abs(z) ** 2))
        f = amplitude_matrix(dec, t) @ z  # the vacuum amplitude a0 is stationary
        assert a0**2 + np.sum(np.abs(f) ** 2) <= 1.0 + 1e-12
