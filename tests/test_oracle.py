import warnings

import numpy as np
import pytest

from spinrsc import (
    ControlParams,
    Coupling,
    CouplingModel,
    TransferMode,
    amplitude_matrix,
    chain_decomposition,
    create_state,
    full_transition_amplitude,
    optimal_protocol,
    region_grid,
    sample_max_transfer,
    transition_amplitude,
)
from spinrsc import SpinRscError, oracle
from spinrsc.cli import main
from spinrsc.oracle import _apply, _basis_index, _coupled_pairs, _full_spectrum, _pair_plan
from spinrsc.rsc import _coordinates


def _total_z(n: int) -> np.ndarray:
    dim = 1 << n
    states = np.arange(dim)
    counts = np.array([bin(s).count("1") for s in states], dtype=float)
    return np.diag(counts - n / 2.0)


def test_full_hamiltonian_conserves_excitation_number():
    for kind in Coupling:
        model = CouplingModel(kind, 5)
        h = _strided_dense(model)
        assert np.max(np.abs(h - h.T)) == 0.0
        iz = _total_z(5)
        assert np.max(np.abs(h @ iz - iz @ h)) < 1e-10


def _node_couplings(model: CouplingModel) -> np.ndarray:
    """Couplings from node distance alone: ``|i - j|**-3``, or adjacency for nn."""
    dist = np.abs(np.subtract.outer(range(model.n), range(model.n))).astype(float)
    if model.kind is Coupling.NEAREST_NEIGHBOR:
        return (dist == 1.0).astype(float)
    return np.where(dist > 0.0, dist, np.inf) ** -3.0


def _kron_hamiltonian(model: CouplingModel) -> np.ndarray:
    """The chain Hamiltonian as a sum over pairs of d_ij (S^x S^x + S^y S^y).

    Each two-site term is a Kronecker product of 2x2 spin matrices with the
    identity on every other node (bit i is the i-th factor from the right).
    S^y is i times ``ky``, so S^y S^y = -ky ky and everything stays real.
    """
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    ky = np.array([[0.0, -0.5], [0.5, 0.0]])

    def two_site(op, i, j):
        factors = [np.eye(2)] * model.n
        factors[model.n - 1 - i] = op
        factors[model.n - 1 - j] = op
        out = factors[0]
        for factor in factors[1:]:
            out = np.kron(out, factor)
        return out

    d = _node_couplings(model)
    h = np.zeros((1 << model.n, 1 << model.n))
    for i in range(model.n):
        for j in range(i + 1, model.n):
            if d[i, j] != 0.0:
                h += d[i, j] * (two_site(sx, i, j) - two_site(ky, i, j))
    return h


def test_full_hamiltonian_equals_spin_operator_sum():
    for kind in Coupling:
        for n in range(4, 8):
            model = CouplingModel(kind, n)
            h = _strided_dense(model)
            assert h.dtype == np.float64 and h.shape == (1 << n, 1 << n)
            assert np.array_equal(h, _kron_hamiltonian(model))


def test_full_amplitude_size_cap():
    with pytest.raises(ValueError, match="n <= 18"):
        full_transition_amplitude(CouplingModel(Coupling.NEAREST_NEIGHBOR, 19), 18, 1, 1.0)


def _strided_apply(model: CouplingModel, v: np.ndarray) -> np.ndarray:
    v = np.array(v)  # a contiguous buffer of its own, as the Lanczos input is
    out = np.empty_like(v)
    _apply(_pair_plan(_coupled_pairs(model), model.n, v, out), v, out)
    return out


def _strided_dense(model: CouplingModel) -> np.ndarray:
    """The full H as a dense matrix: row s is the strided apply of |s> (H is real symmetric)."""
    return np.array([_strided_apply(model, unit) for unit in np.eye(1 << model.n)])


def _table_apply(model: CouplingModel, v: np.ndarray) -> np.ndarray:
    """H v by flip indices: gather the states whose bits i and j differ, scatter to partners.

    ``v`` may be a vector or a matrix of column vectors; ``np.eye(2^N)`` gives the dense H.
    """
    d = _node_couplings(model)
    states = np.arange(1 << model.n)
    out = np.zeros_like(v)
    for i in range(model.n):
        for j in range(i + 1, model.n):
            if d[i, j] != 0.0:
                flip = states[((states >> i) ^ (states >> j)) & 1 == 1]
                out[flip ^ ((1 << i) | (1 << j))] += d[i, j] / 2 * v[flip]
    return out


def test_matrix_free_apply_equals_dense_hamiltonian():
    rng = np.random.default_rng(5)
    for kind in Coupling:
        for n in (4, 7, 9):
            model = CouplingModel(kind, n)
            v = rng.standard_normal(1 << n)
            dense = _kron_hamiltonian(model) @ v
            assert np.max(np.abs(_strided_apply(model, v) - dense)) < 1e-14


def test_strided_apply_equals_table_apply_bit_for_bit():
    # same products, added into each entry in the same pair order
    rng = np.random.default_rng(23)
    for kind in Coupling:
        for n in (4, 7, 9, 10, 12):
            model = CouplingModel(kind, n)
            v = rng.standard_normal(1 << n)
            strided, table = _strided_apply(model, v), _table_apply(model, v)
            assert np.array_equal(strided.view(np.int64), table.view(np.int64)), (kind, n)


def test_a_krylov_space_still_open_after_n_vectors_is_an_error(monkeypatch, capsys):
    # a term that moves node 1's excitation into |1, 2> lets the space of
    # node 1 reach the two-excitation states, so n Lanczos vectors cannot hold it
    real_apply = oracle._apply

    def leaky_apply(plan, v, out):
        real_apply(plan, v, out)
        out[0b11] += 0.3 * v[0b01]
        out[0b01] += 0.3 * v[0b11]

    monkeypatch.setattr(oracle, "_apply", leaky_apply)
    _full_spectrum.cache_clear()
    try:
        for kind in Coupling:
            with pytest.raises(SpinRscError, match="did not close"):
                _full_spectrum(kind, 6, 1)
        assert main(["verify", "--n", "6", "--model", "all", "--t", "3.7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "did not close" in err
    finally:
        _full_spectrum.cache_clear()


def test_node_one_spans_the_one_excitation_sector():
    # every eigenvector of the one-excitation H has weight on node 1, so
    # node 1's Krylov space closes after exactly n vectors
    for kind in Coupling:
        for n in range(4, 15):
            evals, rows = _full_spectrum(kind, n, 1)
            assert evals.shape == (n,) and rows.shape == (n + 1, n), (kind, n)


def test_a_node_one_space_that_closes_early_is_an_error(monkeypatch, capsys):
    # an H that annihilates everything closes node 1's space after one vector
    monkeypatch.setattr(oracle, "_apply", lambda plan, v, out: out.fill(0.0))
    _full_spectrum.cache_clear()
    try:
        for kind in Coupling:
            with pytest.raises(SpinRscError, match="misses one-excitation states"):
                _full_spectrum(kind, 6, 1)
        assert main(["verify", "--n", "6", "--model", "all", "--t", "3.7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "misses one-excitation states" in err
    finally:
        _full_spectrum.cache_clear()


@pytest.mark.parametrize("kind", list(Coupling))
def test_verify_runs_one_lanczos_per_sector(kind, monkeypatch, capsys):
    # one apply per Lanczos vector: the n of node 1's space serve every
    # source in the one-excitation sector
    calls = []
    real_apply = oracle._apply

    def counting_apply(plan, v, out):
        calls.append(v.size)
        real_apply(plan, v, out)

    monkeypatch.setattr(oracle, "_apply", counting_apply)
    _full_spectrum.cache_clear()
    try:
        assert main(["verify", "--n", "9", "--model", kind.value, "--t", "3.7"]) == 0
    finally:
        _full_spectrum.cache_clear()
    assert len(calls) == 9
    assert capsys.readouterr().out.startswith("max_deviation ")


@pytest.mark.parametrize("kind", list(Coupling))
@pytest.mark.parametrize("n", [5, 8])
def test_every_source_and_target_matches_a_dense_propagator(kind, n):
    # one spectrum per sector serves all (n + 1)^2 pairs of nodes and the vacuum
    model = CouplingModel(kind, n)
    evals, evecs = np.linalg.eigh(_kron_hamiltonian(model))
    index = [_basis_index(node) for node in range(n + 1)]
    for t in (0.0, 1.7, 3.0 * n):
        u = (evecs[index] * np.exp(-1j * evals * t)) @ evecs[index].T
        for k in range(n + 1):
            for j in range(n + 1):
                full = full_transition_amplitude(model, k, j, t)
                assert abs(full - u[k, j]) <= 1e-12, (k, j, t)


def _embed(n: int, rows: np.ndarray) -> np.ndarray:
    """Columns of 2^N vectors that carry ``rows`` on the vacuum and one-excitation states."""
    vectors = np.zeros((1 << n, rows.shape[1]))
    vectors[[_basis_index(node) for node in range(n + 1)]] = rows
    return vectors


def test_krylov_eigenpairs_are_eigenpairs_of_the_full_hamiltonian():
    for kind in Coupling:
        model = CouplingModel(kind, 9)
        h = _table_apply(model, np.eye(1 << 9))
        spectrum = np.linalg.eigvalsh(h)
        for sector in (0, 1):
            evals, rows = _full_spectrum(kind, 9, sector)
            assert rows.shape == (10, evals.size)
            evecs = _embed(9, rows)
            # orthonormal as 2^N vectors: no weight lies off the kept states
            assert np.max(np.abs(evecs.T @ evecs - np.eye(evals.size))) < 1e-12
            assert np.max(np.abs(h @ evecs - evecs * evals)) < 1e-12
            assert all(np.min(np.abs(spectrum - e)) < 1e-12 for e in evals)


def test_sender_krylov_spaces_close_and_nothing_leaks():
    # H conserves excitation number, so the space of node 1 closes after
    # n Lanczos vectors; the loop observes the closure as a breakdown
    for kind in Coupling:
        for n in (6, 10):
            model = CouplingModel(kind, n)
            evals, rows = _full_spectrum(kind, n, 1)
            evecs = _embed(n, rows)
            # orthonormal eigenvectors of the full H that live on the kept states
            assert np.max(np.abs(evecs.T @ evecs - np.eye(evals.size))) < 1e-12
            assert np.max(np.abs(_table_apply(model, evecs) - evecs * evals)) < 1e-12
            for j in (1, 2):
                for t in (0.7, 2.3 * n, 3.0 * n, 250.0):
                    # exp(-i H t)|j> has unit norm, so what its kept part
                    # lacks of that norm has leaked to other states
                    psi = rows @ (rows[j] * np.exp(-1j * evals * t))
                    kept = np.vdot(psi, psi).real
                    assert abs(kept - 1.0) < 1e-12
                    assert 1.0 - kept <= 1e-13, (kind, n, j, t, 1.0 - kept)


def test_basis_index_convention():
    assert _basis_index(0) == 0
    assert _basis_index(1) == 1
    assert _basis_index(3) == 4


def test_full_amplitude_identity_at_zero_time():
    model = CouplingModel(Coupling.NEAREST_NEIGHBOR, 4)
    assert full_transition_amplitude(model, 3, 3, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(full_transition_amplitude(model, 3, 2, 0.0)) < 1e-12


def test_vacuum_is_stationary_in_full_space():
    for kind in Coupling:
        for n in (4, 10, 16):
            model = CouplingModel(kind, n)
            # H annihilates the vacuum, so its Krylov space closes at once
            assert _full_spectrum(kind, n, 0)[1].shape == (n + 1, 1)
            for t in (0.0, 1.3, 8.0, 3.0 * n):
                amp = full_transition_amplitude(model, 0, 0, t)
                assert abs(amp - 1.0) < 1e-12
                # and nothing leaks from the vacuum into excited states
                assert abs(full_transition_amplitude(model, n - 1, 0, t)) < 1e-12


def test_full_amplitude_node_label_validation():
    model = CouplingModel(Coupling.NEAREST_NEIGHBOR, 4)
    with pytest.raises(ValueError, match="node labels"):
        full_transition_amplitude(model, 5, 1, 0.5)


@pytest.mark.parametrize("k, j", [(2.5, 1), (4, 1.5), ("3", 1), (4, None)])
def test_non_integer_node_labels_are_value_errors(k, j):
    # both amplitude routes, so neither raises numpy's IndexError or a TypeError
    model = CouplingModel(Coupling.ALL_NODE, 5)
    with pytest.raises(ValueError, match="node labels must be integers"):
        full_transition_amplitude(model, k, j, 0.5)
    with pytest.raises(ValueError, match="node indices must be integers"):
        transition_amplitude(chain_decomposition(model), k, j, 0.5)


def test_numpy_integer_node_labels_are_accepted():
    model = CouplingModel(Coupling.ALL_NODE, 5)
    dec = chain_decomposition(model)
    k, j = np.int64(4), np.int32(1)
    expected = full_transition_amplitude(model, 4, 1, 0.5)
    assert full_transition_amplitude(model, k, j, 0.5) == expected
    assert transition_amplitude(dec, k, j, 0.5) == transition_amplitude(dec, 4, 1, 0.5)


def test_single_excitation_reduction_matches_full_space():
    rng = np.random.default_rng(13)
    for kind in Coupling:
        for n in (4, 5, 6):
            model = CouplingModel(kind, n)
            dec = chain_decomposition(model)
            for t in rng.uniform(0.0, 3.0 * n, size=3):
                for k in (n - 1, n):
                    for j in (1, 2):
                        fast = transition_amplitude(dec, k, j, float(t))
                        full = full_transition_amplitude(model, k, j, float(t))
                        assert abs(fast - full) < 1e-10


def _full_receiver_state(model: CouplingModel, t: float, c: ControlParams, v0) -> np.ndarray:
    """The created receiver state, computed in the full 2^N space.

    The sender ``a0|0> + a1|1> + a2|2>`` of the control angles evolves
    through the Lanczos rows of its two sectors, ``diag(1, v0, 1)`` acts
    on nodes N-1 and N (bits N-2 and N-1) and every node but N is traced out.
    """
    n = model.n
    half1, half2 = 0.5 * np.pi * c.alpha1, 0.5 * np.pi * c.alpha2
    sender = (
        np.sin(half1),
        np.cos(half1) * np.cos(half2) * np.exp(2j * np.pi * c.phi1),
        np.cos(half1) * np.sin(half2) * np.exp(2j * np.pi * c.phi2),
    )
    psi = np.zeros(1 << n, dtype=complex)
    kept = [_basis_index(node) for node in range(n + 1)]
    for j, amplitude in enumerate(sender):
        evals, rows = _full_spectrum(model.kind, n, min(j, 1))
        psi[kept] += amplitude * (rows @ (rows[j] * np.exp(-1j * evals * t)))
    # the two top bits, in _basis_index order, index the rows of a (4, 2^(N-2)) view:
    # 0 vacuum, 1 node N-1, 2 node N, 3 both
    assert (_basis_index(n - 1) >> (n - 2), _basis_index(n) >> (n - 2)) == (1, 2)
    rotation = np.eye(4, dtype=complex)
    rotation[1:3, 1:3] = v0
    # after the rotation, the top bit (node N) indexes the rows of a (2, 2^(N-1)) view
    by_last_node = (rotation @ psi.reshape(4, -1)).reshape(2, -1)
    return by_last_node @ by_last_node.conj().T


@pytest.mark.parametrize("kind", list(Coupling))
@pytest.mark.parametrize("n", [4, 7, 10])
@pytest.mark.parametrize("with_v", [False, True])
def test_created_states_match_the_full_space(kind, n, with_v):
    # the rotation and the partial trace are rebuilt from the oracle's own
    # basis, so a wrong v0 orientation, basis order or pairing shows here
    model = CouplingModel(kind, n)
    dec = chain_decomposition(model)
    protocol = optimal_protocol(dec, with_v=with_v)
    rng = np.random.default_rng(21)
    for controls in rng.random((20, 4)):
        c = ControlParams(*controls.tolist())
        full = _full_receiver_state(model, protocol.t0, c, protocol.v0)
        rho, _ = create_state(protocol, dec, c)
        assert np.max(np.abs(rho - full)) <= 1e-12, c
    grid = region_grid(protocol, 0.05)
    alphas = grid.alphas.tolist()
    for k in rng.choice(len(grid), size=20, replace=False):
        i, j = divmod(int(k), len(alphas))
        c = ControlParams(alphas[i], alphas[j], 0.0, 0.0)
        full = _full_receiver_state(model, protocol.t0, c, protocol.v0)
        lam, beta1, _ = _coordinates(float(full[1, 1].real), complex(full[0, 1]))
        assert abs(grid.lam[i, j] - lam) <= 1e-12, c
        assert abs(grid.beta1[i, j] - beta1) <= 1e-12, c


def test_specific_long_hop_agrees_with_full_space():
    model = CouplingModel(Coupling.ALL_NODE, 5)
    dec = chain_decomposition(model)
    fast = transition_amplitude(dec, 5, 1, 2.0)
    full = full_transition_amplitude(model, 5, 1, 2.0)
    assert abs(fast - full) < 1e-10


def test_sampling_trivial_cases():
    assert sample_max_transfer(np.zeros((2, 2)), TransferMode.EXT_RECEIVER_NORM, 100, 0) == 0.0
    best = sample_max_transfer(np.diag([0.3, 0.4]), TransferMode.EXT_RECEIVER_NORM, 10**5, 0)
    assert 0.16 - 1e-3 <= best <= 0.16


def test_sampling_modes_differ():
    p = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    ext = sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, 1000, 3)
    last = sample_max_transfer(p, TransferMode.LAST_NODE_ONLY, 1000, 3)
    assert ext == pytest.approx(0.25, abs=1e-12)  # any unit vector attains it
    assert last < ext


def test_sampling_deterministic_given_seed():
    p = np.array([[0.1, 0.2j], [0.3, 0.4]], dtype=complex)
    a = sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, 5000, 42)
    b = sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, 5000, 42)
    assert a == b


def test_sampling_validation():
    with pytest.raises(ValueError, match="samples"):
        sample_max_transfer(np.zeros((2, 2)), TransferMode.EXT_RECEIVER_NORM, 0, 0)
    p = np.full((2, 2), 0.1)
    numpy_ints = sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, np.int64(100), np.int32(4))
    assert numpy_ints == sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, 100, 4)


@pytest.mark.parametrize("samples, seed", [(2.5, 0), (100.0, 0), ("100", 0), (100, 1.5), (100, None)])
def test_sampling_wants_integer_samples_and_seed(samples, seed):
    p = np.full((2, 2), 0.1)
    with pytest.raises(ValueError, match="integers"):
        sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, samples, seed)


def test_sampling_mode_is_a_member_or_its_value():
    p = np.array([[0.6, 0.0], [0.0, 0.1]])
    for mode in TransferMode:
        assert sample_max_transfer(p, mode.value, 500, 8) == sample_max_transfer(p, mode, 500, 8)
    assert sample_max_transfer(p, "ext", 500, 8) > 0.3 > sample_max_transfer(p, "last", 500, 8)
    for bad in ("EXT", "first", None, 0):
        with pytest.raises(ValueError, match="TransferMode"):
            sample_max_transfer(p, bad, 500, 8)


def test_sampled_senders_are_haar_random():
    # p = lam e0 w^H gives |R a|^2 = lam^2 |w^H a|^2, which is U[0, 1] times lam^2 for
    # Haar senders, so (N + 1)(lam^2 - best) / lam^2 has mean 1 and standard deviation
    # about 1; a sender law that is not uniform on the Bloch sphere shifts the mean.
    rng = np.random.default_rng(41)
    lam, draws, seeds = 0.8, 200, 400
    scaled = []
    for seed in range(seeds):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = lam * np.outer([1.0, 0.0], (w / np.linalg.norm(w)).conj())
        best = sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, draws, seed)
        scaled.append((draws + 1) * (lam**2 - best) / lam**2)
    assert abs(np.mean(scaled) - 1.0) <= 5.0 * np.std(scaled) / np.sqrt(seeds)


@pytest.mark.parametrize("p", [np.full((3, 2), 0.1), np.full((2, 3), 0.1), np.full(4, 0.1)])
def test_sampling_rejects_a_p_that_is_not_2x2(p):
    for mode in TransferMode:
        with pytest.raises(ValueError, match="2x2"):
            sample_max_transfer(p, mode, 100, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.1, np.nan)])
def test_sampling_rejects_a_p_that_is_not_finite(bad):
    p = np.full((2, 2), 0.1, dtype=complex)
    p[1, 0] = bad
    for mode in TransferMode:
        with pytest.raises(ValueError, match="finite"):
            sample_max_transfer(p, mode, 100, 0)


@pytest.mark.parametrize("p, modes", [
    (np.full((2, 2), 1e200), list(TransferMode)),
    (np.diag([1e155, 1e155]), list(TransferMode)),
    # M is finite, but its lambda+^2 = 3.4e308 is not
    (np.full((2, 2), 9.2e153), [TransferMode.EXT_RECEIVER_NORM]),
])
def test_sampling_rejects_a_p_whose_transfer_overflows(p, modes):
    # P is finite; tier-1 turns any RuntimeWarning into an error
    errors = np.geterr()
    for mode in modes:
        with pytest.raises(ValueError, match="finite"):
            sample_max_transfer(p, mode, 100, 0)
    assert np.geterr() == errors


@pytest.mark.parametrize("c, full", [(1e150, True), (1e154, False)])
def test_sampling_a_large_p_stays_finite_and_bounded(c, full):
    # every entry c (lambda+^2 = 4 c^2, bottom row 2 c^2) or diag(c, c) (c^2 in
    # both modes); at diag(1e154, 1e154) the rejected points' (m11 - m00) s
    # overflows in the bottom-row mode
    p = np.full((2, 2), c) if full else np.diag([c, c])
    bounds = {TransferMode.EXT_RECEIVER_NORM: (4 if full else 1) * c**2,
              TransferMode.LAST_NODE_ONLY: (2 if full else 1) * c**2}
    for mode, bound in bounds.items():
        assert 0.99 * bound <= sample_max_transfer(p, mode, 1000, 0) <= bound


def _explicit_sampled_max(p: np.ndarray, mode: TransferMode, samples: int, seed: int) -> float:
    """``max |R a|^2`` over the sampler's disc draws, with complex unit senders formed."""
    r = p if mode is TransferMode.EXT_RECEIVER_NORM else p[1:]
    rng = np.random.default_rng(seed)
    best, remaining = 0.0, samples
    while remaining:
        u, v = 2.0 * rng.random((2, oracle.SAMPLE_CHUNK)) - 1.0
        inside = u**2 + v**2 < 1.0
        a1 = (u[inside] + 1j * v[inside])[:remaining]
        a = np.stack([np.sqrt(1.0 - np.abs(a1) ** 2), a1], axis=1)
        vals = np.sum(np.abs(a @ r.T) ** 2, axis=1)
        best = max(best, float(vals.max()))
        remaining -= len(a1)
    return best


def test_quadratic_form_equals_explicit_transfer_on_the_same_draws():
    rng = np.random.default_rng(29)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, v = rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal(2)
    rank_one = np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    for p in (g / np.linalg.norm(g, 2), rank_one, np.zeros((2, 2))):
        for mode in TransferMode:
            for samples in (1, 1000, 2 * oracle.SAMPLE_CHUNK + 123):
                got = sample_max_transfer(p, mode, samples, 31)
                want = _explicit_sampled_max(p, mode, samples, 31)
                assert abs(got - want) <= 1e-15, (mode, samples, got - want)


def _compress_sampled_max(p: np.ndarray, mode: TransferMode, samples: int, seed: int) -> float:
    """The real form on the kept points alone, gathered from each chunk with ``np.compress``."""
    r = p if mode is TransferMode.EXT_RECEIVER_NORM else p[1:]
    m = r.conj().T @ r
    m00, m11, re01, im01 = m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag
    rng = np.random.default_rng(seed)
    cand = np.empty((3, oracle.SAMPLE_CHUNK))  # rows u, v, s
    best, remaining = 0.0, samples
    while remaining:
        rng.random(out=cand[:2])
        cand[:2] *= 2.0
        cand[:2] -= 1.0
        np.add(cand[0] ** 2, cand[1] ** 2, out=cand[2])
        u, v, s = np.compress(cand[2] < 1.0, cand, 1)[:, :remaining]
        vals = m00 + (m11 - m00) * s + 2.0 * np.sqrt(1.0 - s) * (re01 * u - im01 * v)
        best = max(best, float(vals.max()))
        remaining -= len(vals)
    return best


@pytest.mark.parametrize("mode", list(TransferMode))
def test_in_place_sampler_equals_the_compress_loop(mode):
    rng = np.random.default_rng(37)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, v = rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal(2)
    for p in (g, g / np.linalg.norm(g, 2), np.outer(u, v), np.diag([0.3, 0.9]), np.zeros((2, 2))):
        for samples in (1, oracle.SAMPLE_CHUNK, 2 * oracle.SAMPLE_CHUNK + 123):
            seed = int(rng.integers(2**31))
            got = sample_max_transfer(p, mode, samples, seed)
            assert got == _compress_sampled_max(p, mode, samples, seed), (p, samples, seed)


class _DiscStub:
    """Draws for ``sample_max_transfer``: every chunk holds, at positions 0 and 1,
    s == 1 exactly (u = -1, v = 0) and s = 2 (u = v = -1), then eight kept points
    with u = 0 and v = j / 64 (s = j^2 / 4096, j = 1..8); all other draws give s = 2."""

    def random(self, out):
        out[...] = 0.0
        out[:, 0] = 0.0, 0.5
        out[0, 2:10] = 0.5
        out[1, 2:10] = 0.5 + np.arange(1, 9) / 128


def test_points_on_or_outside_the_circle_are_neither_counted_nor_evaluated(monkeypatch):
    # with p = diag(0, 1) a sender's value is s itself, so the point with s == 1
    # would give 1.0 if evaluated, and a counted rejection would end the search
    # one kept point early
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _DiscStub())
    p = np.diag([0.0, 1.0])
    for samples in range(1, 9):
        assert sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, samples, 0) == samples**2 / 4096
    assert sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, 20, 0) == 64 / 4096


def test_sampling_warns_nothing_and_keeps_the_error_state():
    before = np.geterr()
    p = np.array([[0.2, 0.5j], [0.7, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in TransferMode:
            sample_max_transfer(p, mode, 2 * oracle.SAMPLE_CHUNK + 123, 5)
    assert np.geterr() == before


def test_sampling_never_exceeds_largest_singular_value():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(4, 16))
        kind = Coupling.ALL_NODE if rng.random() < 0.5 else Coupling.NEAREST_NEIGHBOR
        dec = chain_decomposition(CouplingModel(kind, n))
        p = amplitude_matrix(dec, float(rng.uniform(0.0, 4.0 * n)))
        bound = float(np.linalg.svd(p, compute_uv=False)[0]) ** 2
        sampled = sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, 2000, int(rng.integers(1e6)))
        assert sampled <= bound + 1e-12
