import numpy as np
import pytest

from spinrsc import (
    Coupling,
    CouplingModel,
    EigensolverError,
    build_couplings,
    build_hamiltonian,
    chain_decomposition,
    spectral_decompose,
)


def test_all_node_couplings_decay_with_cubed_distance():
    d = build_couplings(CouplingModel(Coupling.ALL_NODE, 4))
    # 1-based nodes (1,3) and (1,4)
    assert d[0, 2] == pytest.approx(0.125, abs=0)
    assert d[0, 3] == pytest.approx(1.0 / 27.0, rel=1e-15)


def test_nearest_neighbor_couplings_are_adjacency():
    d = build_couplings(CouplingModel(Coupling.NEAREST_NEIGHBOR, 5))
    assert d[1, 3] == 0.0  # nodes 2 and 4
    assert d[2, 3] == 1.0  # nodes 3 and 4


def test_first_pair_coupling_is_exactly_one():
    for kind in Coupling:
        d = build_couplings(CouplingModel(kind, 7))
        assert d[0, 1] == 1.0


def test_short_chain_rejected():
    for n, message in ((3, "disjoint"), (5.5, "integer"), (6.0, "integer")):
        with pytest.raises(ValueError, match=message):
            CouplingModel(Coupling.ALL_NODE, n)
    assert CouplingModel(Coupling.ALL_NODE, np.int64(6)).n == 6


def test_coupling_kind_is_a_member_or_its_value():
    # a label once fell through build_couplings to the all-node chain
    for kind in Coupling:
        model = CouplingModel(kind.value, 6)
        assert model.kind is kind and model == CouplingModel(kind, 6)
        assert np.array_equal(build_couplings(model), build_couplings(CouplingModel(kind, 6)))
    for bad in ("NN", "nearest", 42, None):
        with pytest.raises(ValueError, match="Coupling"):
            CouplingModel(bad, 6)


def test_couplings_symmetric_zero_diagonal():
    for kind in Coupling:
        d = build_couplings(CouplingModel(kind, 9))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)


def test_nearest_neighbor_pattern_included_in_all_node():
    d_nn = build_couplings(CouplingModel(Coupling.NEAREST_NEIGHBOR, 8))
    d_all = build_couplings(CouplingModel(Coupling.ALL_NODE, 8))
    adjacent = np.abs(np.subtract.outer(range(8), range(8))) == 1
    assert np.array_equal(d_nn[adjacent], d_all[adjacent])
    assert np.all(d_nn[adjacent] == 1.0)


def test_hamiltonian_is_half_couplings():
    d = build_couplings(CouplingModel(Coupling.NEAREST_NEIGHBOR, 4))
    h = build_hamiltonian(d)
    off = np.diag(h, 1)
    assert np.all(off == 0.5)
    assert np.all(np.diag(h) == 0.0)
    assert np.array_equal(h, h.T)

    h_all = build_hamiltonian(build_couplings(CouplingModel(Coupling.ALL_NODE, 4)))
    assert h_all[0, 2] == 0.0625


def test_hamiltonian_input_validation():
    with pytest.raises(ValueError, match="square"):
        build_hamiltonian(np.zeros((2, 3)))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        build_hamiltonian(bad)
    with pytest.raises(ValueError, match="diagonal"):
        build_hamiltonian(np.eye(3))


def test_tridiagonal_spectrum_matches_analytic_cosines():
    # hopping 1/2 on an open 4-site chain: eigenvalues cos(m pi / 5)
    dec = chain_decomposition(CouplingModel(Coupling.NEAREST_NEIGHBOR, 4))
    m = np.arange(1, 5)
    expected = np.sort(np.cos(m * np.pi / 5.0))
    assert np.allclose(dec.energies, expected, atol=1e-10)
    assert dec.energies[3] == pytest.approx(0.809017, abs=1e-6)
    assert dec.energies[2] == pytest.approx(0.309017, abs=1e-6)


def test_decomposition_residual_and_orthogonality():
    for kind, n in [(Coupling.NEAREST_NEIGHBOR, 4), (Coupling.ALL_NODE, 10)]:
        model = CouplingModel(kind, n)
        h = build_hamiltonian(build_couplings(model))
        dec = spectral_decompose(h)
        assert np.max(np.abs(h @ dec.vectors - dec.vectors * dec.energies)) < 1e-10
        gram = dec.vectors.T @ dec.vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10
        assert np.all(np.diff(dec.energies) >= 0.0)


def test_spectral_reconstruction_over_supported_lengths():
    for kind in Coupling:
        for n in range(4, 121):
            model = CouplingModel(kind, n)
            h = build_hamiltonian(build_couplings(model))
            dec = chain_decomposition(model)
            recon = (dec.vectors * dec.energies) @ dec.vectors.T
            assert np.max(np.abs(recon - h)) < 1e-9
            assert np.trace(h) == 0.0


def _column_loop_gauge(vectors: np.ndarray) -> np.ndarray:
    """The sign gauge as spectral_decompose applied it column by column before vectorising."""
    vectors = vectors.copy()
    for m in range(vectors.shape[1]):
        col = vectors[:, m]
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        if lead < 0.0:
            vectors[:, m] = -col
    return vectors


def test_eigenvector_gauge_is_deterministic():
    # the vectorised sign flip gives the bits of the former column loop
    for kind in Coupling:
        for n in range(4, 41):
            h = build_hamiltonian(build_couplings(CouplingModel(kind, n)))
            vectors = spectral_decompose(h).vectors
            expected = _column_loop_gauge(np.linalg.eigh(h)[1])
            assert np.array_equal(vectors.view(np.int64), expected.view(np.int64))
            for m in range(n):
                col = vectors[:, m]
                assert col[np.abs(col) > 1e-12][0] > 0.0


def test_spectral_decompose_rejects_asymmetric():
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        spectral_decompose(bad)


def test_eigensolver_error_is_exported():
    assert issubclass(EigensolverError, Exception)
