import numpy as np
import pytest

from spinrsc import (
    Coupling,
    CouplingModel,
    EigensolverError,
    build_hamiltonian,
    chain_decomposition,
    sweep,
)
from spinrsc.cli import main
from spinrsc.propagate import _weights


def _couplings(model: CouplingModel) -> np.ndarray:
    """The coupling matrix d = 2 h; doubling a half is exact."""
    return 2 * build_hamiltonian(model)


def test_all_node_couplings_decay_with_cubed_distance():
    d = _couplings(CouplingModel(Coupling.ALL_NODE, 4))
    # 1-based nodes (1,3) and (1,4)
    assert d[0, 2] == pytest.approx(0.125, abs=0)
    assert d[0, 3] == pytest.approx(1.0 / 27.0, rel=1e-15)


def test_nearest_neighbor_couplings_are_adjacency():
    d = _couplings(CouplingModel(Coupling.NEAREST_NEIGHBOR, 5))
    assert d[1, 3] == 0.0  # nodes 2 and 4
    assert d[2, 3] == 1.0  # nodes 3 and 4


def test_first_pair_coupling_is_exactly_one():
    for kind in Coupling:
        d = _couplings(CouplingModel(kind, 7))
        assert d[0, 1] == 1.0


def test_short_chain_rejected():
    for n, message in ((3, "disjoint"), (5.5, "integer"), (6.0, "integer")):
        with pytest.raises(ValueError, match=message):
            CouplingModel(Coupling.ALL_NODE, n)
    assert CouplingModel(Coupling.ALL_NODE, np.int64(6)).n == 6


def test_coupling_kind_is_a_member_or_its_value():
    # a label once fell through the coupling builder to the all-node chain
    for kind in Coupling:
        model = CouplingModel(kind.value, 6)
        assert model.kind is kind and model == CouplingModel(kind, 6)
        assert np.array_equal(build_hamiltonian(model), build_hamiltonian(CouplingModel(kind, 6)))
    for bad in ("NN", "nearest", 42, None):
        with pytest.raises(ValueError, match="Coupling"):
            CouplingModel(bad, 6)


def test_couplings_symmetric_zero_diagonal():
    for kind in Coupling:
        d = _couplings(CouplingModel(kind, 9))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)


def test_nearest_neighbor_pattern_included_in_all_node():
    d_nn = _couplings(CouplingModel(Coupling.NEAREST_NEIGHBOR, 8))
    d_all = _couplings(CouplingModel(Coupling.ALL_NODE, 8))
    adjacent = np.abs(np.subtract.outer(range(8), range(8))) == 1
    assert np.array_equal(d_nn[adjacent], d_all[adjacent])
    assert np.all(d_nn[adjacent] == 1.0)


def test_hamiltonian_is_half_couplings():
    h = build_hamiltonian(CouplingModel(Coupling.NEAREST_NEIGHBOR, 4))
    off = np.diag(h, 1)
    assert np.all(off == 0.5)
    assert np.all(np.diag(h) == 0.0)
    assert np.array_equal(h, h.T)

    h_all = build_hamiltonian(CouplingModel(Coupling.ALL_NODE, 4))
    assert h_all[0, 2] == 0.0625


def test_hamiltonian_equals_the_dense_distance_formula():
    # build_hamiltonian lays one coupling per distance out as a Toeplitz matrix;
    # every sweep chain keeps the bits of the dense |i - j| ** -3 / 2 formula
    for n in range(4, 201):
        idx = np.arange(n, dtype=float)
        dist = np.abs(idx[:, None] - idx[None, :])
        nn = (dist == 1.0).astype(float) / 2.0
        np.fill_diagonal(dist, np.inf)
        for kind, dense in ((Coupling.NEAREST_NEIGHBOR, nn), (Coupling.ALL_NODE, dist**-3 / 2.0)):
            h = build_hamiltonian(CouplingModel(kind, n))
            assert h.dtype == dense.dtype and h.shape == dense.shape, (kind, n)
            assert h.tobytes() == dense.tobytes(), (kind, n)


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
        h = build_hamiltonian(model)
        dec = chain_decomposition(model)
        assert np.max(np.abs(h @ dec.vectors - dec.vectors * dec.energies)) < 1e-10
        gram = dec.vectors.T @ dec.vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10
        assert np.all(np.diff(dec.energies) >= 0.0)


def test_spectral_reconstruction_over_supported_lengths():
    for kind in Coupling:
        for n in range(4, 121):
            model = CouplingModel(kind, n)
            h = build_hamiltonian(model)
            dec = chain_decomposition(model)
            recon = (dec.vectors * dec.energies) @ dec.vectors.T
            assert np.max(np.abs(recon - h)) < 1e-9
            assert np.trace(h) == 0.0


def _column_loop_gauge(vectors: np.ndarray) -> np.ndarray:
    """The sign gauge as chain_decomposition applied it column by column before vectorising."""
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
            model = CouplingModel(kind, n)
            h = build_hamiltonian(model)
            vectors = chain_decomposition(model).vectors
            expected = _column_loop_gauge(np.linalg.eigh(h)[1])
            assert np.array_equal(vectors.view(np.int64), expected.view(np.int64))
            for m in range(n):
                col = vectors[:, m]
                assert col[np.abs(col) > 1e-12][0] > 0.0


def test_eigensolver_error_is_exported():
    assert issubclass(EigensolverError, Exception)


def test_eigensolver_residual_above_tolerance_is_an_error(monkeypatch, capsys):
    # a LAPACK result with one eigenvalue off by 1e-3 must not reach a row;
    # a rescaled eigenvector would still be an eigenvector, so shift a value
    eigh = np.linalg.eigh

    def skewed(h):
        energies, vectors = eigh(h)
        energies[0] += 1e-3
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(EigensolverError, match="eigendecomposition residual"):
        chain_decomposition(CouplingModel(Coupling.ALL_NODE, 9))
    with pytest.raises(EigensolverError, match="^n=9 model=all: eigendecomposition residual"):
        sweep([9], ["all"])
    assert main(["optimize", "--n", "9", "--model", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eigendecomposition residual ")
    assert captured.err.count("\n") == 1


def test_every_sweep_chain_is_mirror_symmetric():
    # a homogeneous chain commutes with the reflection k -> N+1-k, so every
    # eigenvector is even or odd and P[0, 0](t) = P[1, 1](t)
    for kind in Coupling:
        for n in range(4, 131):
            dec = chain_decomposition(CouplingModel(kind, n))
            weights = _weights(dec)
            assert np.max(np.abs(weights[0] - weights[3])) <= 1e-15, (kind, n)
            v, mirrored = dec.vectors, dec.vectors[::-1]
            even = np.max(np.abs(mirrored - v), axis=0)
            odd = np.max(np.abs(mirrored + v), axis=0)
            assert np.max(np.minimum(even, odd)) <= 1e-12, (kind, n)
