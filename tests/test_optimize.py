import cmath
import csv
import functools
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from spinrsc import (
    Coupling,
    CouplingModel,
    DegenerateProtocolError,
    MaximumNotFoundError,
    SpectralDecomposition,
    SweepModel,
    TransferMode,
    amplitude_matrix,
    chain_decomposition,
    critical_length,
    lam_plus_sq,
    maximize_over_time,
    optimal_protocol,
    row_norm_sq,
    sample_max_transfer,
    sweep,
)
from spinrsc import optimize
from spinrsc.cli import main
from spinrsc.optimize import COARSE_STEP, SIGNIFICANCE_FLOOR, _svd
from spinrsc.propagate import _weights, amplitude_grid

GOLDEN = Path(__file__).resolve().parent / "golden"


@functools.lru_cache(maxsize=None)
def _dec(kind: Coupling, n: int):
    return chain_decomposition(CouplingModel(kind, n))


def _recon(u, v_svd, lam_minus, lam_plus) -> np.ndarray:
    """``v_svd^+ diag(lam_minus, lam_plus) u``, the matrix an SVD decomposes."""
    return v_svd.conj().T @ np.diag([lam_minus, lam_plus]) @ u


def _sender(u) -> np.ndarray:
    """The dominant right singular vector ``u^+ (0, 1)^T``, the optimal sender with V."""
    return u.conj().T @ np.array([0.0, 1.0])


def _closed_form_singular(p: np.ndarray) -> tuple[float, float]:
    """Independent closed form from polar data, phases in turns."""
    r = np.empty((2, 2))
    chi = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            z = complex(p[a, b])
            r[a, b], chi[a, b] = abs(z), cmath.phase(z) / (2.0 * math.pi)
    total = float((r**2).sum())
    q = total**2 - 4.0 * (
        r[0, 1] ** 2 * r[1, 0] ** 2
        + r[0, 0] ** 2 * r[1, 1] ** 2
        - 2.0
        * math.cos(2.0 * math.pi * (chi[0, 0] - chi[0, 1] - chi[1, 0] + chi[1, 1]))
        * r[0, 0]
        * r[0, 1]
        * r[1, 0]
        * r[1, 1]
    )
    root = math.sqrt(max(q, 0.0))
    return math.sqrt(max(0.5 * (total - root), 0.0)), math.sqrt(0.5 * (total + root))


def test_singular_values_trivial_cases():
    assert _svd(np.zeros((2, 2)))[2:] == (0.0, 0.0)
    _, _, lam_minus, lam_plus = _svd(np.diag([0.3, 0.4]))
    assert lam_minus == pytest.approx(0.3, abs=1e-14)
    assert lam_plus == pytest.approx(0.4, abs=1e-14)
    stack = np.stack([np.zeros((2, 2)), np.diag([0.3, 0.4])], axis=-1)
    assert np.allclose(lam_plus_sq(stack), [0.0, 0.16], rtol=0.0, atol=1e-14)


def test_singular_values_match_polar_closed_form():
    p = amplitude_matrix(_dec(Coupling.ALL_NODE, 6), 3.0)
    _, _, lam_minus, lam_plus = _svd(p)
    expected = _closed_form_singular(p)
    assert lam_minus == pytest.approx(expected[0], abs=1e-9)
    assert lam_plus == pytest.approx(expected[1], abs=1e-9)
    assert lam_plus_sq(p[:, :, None])[0] == pytest.approx(expected[1] ** 2, abs=1e-9)
    assert lam_minus**2 + lam_plus**2 == pytest.approx(
        float(np.sum(np.abs(p) ** 2)), abs=1e-10
    )


def test_svd_degenerate_scaled_identity():
    svd = _svd(0.5 * np.eye(2))
    assert svd[2:] == (0.5, 0.5)
    assert np.max(np.abs(_recon(*svd) - 0.5 * np.eye(2))) < 1e-12
    # fixed gauge resolves the degeneracy deterministically
    u, v_svd, _, _ = svd
    assert np.allclose(v_svd, np.eye(2))
    assert np.allclose(u, np.eye(2))


def test_svd_zero_matrix():
    u, v_svd, lam_minus, lam_plus = _svd(np.zeros((2, 2)))
    assert (lam_minus, lam_plus) == (0.0, 0.0)
    assert np.allclose(v_svd, np.eye(2))
    assert np.allclose(u, np.eye(2))


def test_svd_antidiagonal_column_norms():
    p = np.array([[0.0, 0.6], [0.8, 0.0]])
    u, _, _, lam_plus = _svd(p)
    assert lam_plus == pytest.approx(0.8, abs=1e-14)
    a = _sender(u)
    assert abs(a[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(a[1]) == pytest.approx(0.0, abs=1e-12)


def test_svd_reconstruction_and_sampling_bound_at_optimum():
    dec = _dec(Coupling.ALL_NODE, 5)
    t0, _ = maximize_over_time(dec, lam_plus_sq)
    p = amplitude_matrix(dec, t0)
    svd = _svd(p)
    assert np.max(np.abs(_recon(*svd) - p)) < 1e-10
    sampled = sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, 10**5, seed=2)
    assert sampled <= svd[3] ** 2 + 1e-6


def test_svd_reconstruction_unitarity_random_chains():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(4, 30))
        kind = Coupling.ALL_NODE if rng.random() < 0.5 else Coupling.NEAREST_NEIGHBOR
        p = amplitude_matrix(_dec(kind, n), float(rng.uniform(0.0, 4.0 * n)))
        u, v_svd, lam_minus, lam_plus = _svd(p)
        assert np.max(np.abs(_recon(u, v_svd, lam_minus, lam_plus) - p)) < 1e-10
        assert np.max(np.abs(v_svd @ v_svd.conj().T - np.eye(2))) < 1e-10
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-10
        assert 0.0 <= lam_minus <= lam_plus <= 1.0 + 1e-10


def test_v0_second_row_is_conjugated_arrival_direction():
    dec = _dec(Coupling.ALL_NODE, 9)
    t0, _ = maximize_over_time(dec, lam_plus_sq)
    p = amplitude_matrix(dec, t0)
    u, v_svd, _, _ = _svd(p)
    f_opt = p @ _sender(u)
    expected = f_opt.conj() / np.linalg.norm(f_opt)
    assert np.max(np.abs(v_svd[1] - expected)) < 1e-10


def test_optimal_sender_state_unitary_rows():
    a = _sender(_svd(np.diag([0.2, 0.7]))[0])
    assert abs(a[1]) == pytest.approx(1.0, abs=1e-12)

    a = _sender(_svd(np.array([[0.0, 0.2], [0.7, 0.0]]))[0])
    assert abs(a[0]) == pytest.approx(1.0, abs=1e-12)


def test_optimal_sender_state_degenerate_error(monkeypatch):
    # a P(t0) that reaches no receiver node has no optimal sender, with V or without
    monkeypatch.setattr(optimize, "amplitude_matrix", lambda dec, t: np.zeros((2, 2), complex))
    for with_v, message in ((True, "extended receiver"), (False, "receiver node")):
        with pytest.raises(DegenerateProtocolError, match=message):
            optimal_protocol(_dec(Coupling.ALL_NODE, 6), with_v=with_v)


def test_optimal_sender_beats_basis_columns_long_chain():
    dec = _dec(Coupling.ALL_NODE, 109)
    protocol = optimal_protocol(dec, with_v=True)
    p = amplitude_matrix(dec, protocol.t0)
    best = np.linalg.norm(p @ protocol.a_opt) ** 2
    assert best >= np.sum(np.abs(p[:, 0]) ** 2) - 1e-12
    assert best >= np.sum(np.abs(p[:, 1]) ** 2) - 1e-12
    assert best == pytest.approx(protocol.r_max_sq, abs=1e-10)


def test_rmax_no_v_values():
    # without the receiver-side unitary the best transfer is P's bottom-row norm
    stack = np.stack([np.zeros((2, 2)), np.array([[0.0, 0.0], [0.3, 0.4]])], axis=-1)
    assert np.allclose(row_norm_sq(stack), [0.0, 0.25], rtol=0.0, atol=1e-14)


def test_rmax_no_v_matches_sampling_oracle():
    dec = _dec(Coupling.ALL_NODE, 6)
    t0, value = maximize_over_time(dec, row_norm_sq)
    p = amplitude_matrix(dec, t0)
    best = row_norm_sq(p[:, :, None])[0]
    assert best == pytest.approx(value, abs=1e-12)
    sampled = sample_max_transfer(p, TransferMode.LAST_NODE_ONLY, 10**7, seed=0)
    assert 0.0 <= best - sampled < 1e-6


def test_first_maximum_basic_bounds():
    dec = _dec(Coupling.NEAREST_NEIGHBOR, 4)
    t0, value = maximize_over_time(dec, row_norm_sq)
    assert t0 > 0.0
    assert 0.0 < value <= 1.0


def test_constant_zero_objective_reports_no_maximum():
    dec = _dec(Coupling.NEAREST_NEIGHBOR, 4)
    with pytest.raises(MaximumNotFoundError, match="window"):
        maximize_over_time(dec, lambda ps: np.zeros(ps.shape[-1]))


def test_step_halving_self_consistency(monkeypatch):
    dec = _dec(Coupling.ALL_NODE, 20)
    t0_coarse, _ = maximize_over_time(dec, lam_plus_sq)
    monkeypatch.setattr(optimize, "COARSE_STEP", 0.01)
    t0_fine, _ = maximize_over_time(dec, lam_plus_sq)
    assert abs(t0_coarse - t0_fine) < 1e-6


def test_objective_series_row_norm_matches_matrix():
    dec = _dec(Coupling.ALL_NODE, 8)
    ts = np.array([1.0, 4.0, 9.0])
    values = row_norm_sq(np.stack([amplitude_matrix(dec, t) for t in ts], axis=-1))
    for i, t in enumerate(ts):
        p = amplitude_matrix(dec, t)
        assert values[i] == abs(p[1, 0]) ** 2 + abs(p[1, 1]) ** 2


def test_largest_singular_value_dominates_row_norm():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 30))
        kind = Coupling.ALL_NODE if rng.random() < 0.5 else Coupling.NEAREST_NEIGHBOR
        dec = _dec(kind, n)
        ts = rng.uniform(0.0, 4.0 * n, size=25)
        ps = np.stack([amplitude_matrix(dec, t) for t in ts], axis=-1)
        lam, row = lam_plus_sq(ps), row_norm_sq(ps)
        assert np.all(lam >= row - 1e-12)
        checked += ts.size


def test_transfer_quadratic_form_identity():
    # ||P a||^2 equals b^+ diag(lam^2) b with b = u a
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(4, 25))
        dec = _dec(Coupling.ALL_NODE, n)
        p = amplitude_matrix(dec, float(rng.uniform(0.0, 3.0 * n)))
        u, _, lam_minus, lam_plus = _svd(p)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        direct = float(np.linalg.norm(p @ a) ** 2)
        b = u @ a
        via_svd = float(lam_minus**2 * abs(b[0]) ** 2 + lam_plus**2 * abs(b[1]) ** 2)
        assert direct == pytest.approx(via_svd, abs=1e-10)


def test_gauge_independence_of_protocol():
    for kind, n in [(Coupling.ALL_NODE, 11), (Coupling.NEAREST_NEIGHBOR, 9)]:
        dec = _dec(kind, n)
        flipped = SpectralDecomposition(
            energies=dec.energies.copy(),
            vectors=dec.vectors * np.where(np.arange(n) % 2 == 0, -1.0, 1.0),
        )
        for objective in (lam_plus_sq, row_norm_sq):
            t0_a, val_a = maximize_over_time(dec, objective)
            t0_b, val_b = maximize_over_time(flipped, objective)
            assert abs(t0_a - t0_b) < 1e-10
            assert abs(val_a - val_b) < 1e-10


def test_gauge_independence_of_critical_lengths():
    rows_plain = []
    rows_flipped = []
    for n in range(4, 13):
        for model in (SweepModel.NN, SweepModel.ALL_WITH_V):
            dec = _dec(model.coupling, n)
            flipped = SpectralDecomposition(
                energies=dec.energies.copy(),
                vectors=-dec.vectors,
            )
            t0, value = maximize_over_time(dec, model.objective)
            t0f, valuef = maximize_over_time(flipped, model.objective)
            rows_plain.append((n, model, t0, value))
            rows_flipped.append((n, model, t0f, valuef))
    from spinrsc import SweepRow

    for threshold in (0.7, 0.9):
        plain = critical_length([SweepRow(*r) for r in rows_plain], threshold)
        flip = critical_length([SweepRow(*r) for r in rows_flipped], threshold)
        assert [(c.model, c.n_critical) for c in plain] == [
            (c.model, c.n_critical) for c in flip
        ]


def test_near_extremum_sibling_amplitude_is_negligible():
    # at the time maximising |p_N2| on a nearest-neighbour chain, the
    # amplitude arriving at node N-1 from the same source nearly vanishes
    for n in (10, 20, 30):
        dec = _dec(Coupling.NEAREST_NEIGHBOR, n)

        def last_from_second(ps):
            return np.abs(ps[1, 1]) ** 2

        t0, _ = maximize_over_time(dec, last_from_second)
        p = amplitude_matrix(dec, t0)
        ratio = abs(p[0, 1]) ** 2 / abs(p[1, 1]) ** 2
        assert ratio < 1e-2


def test_sweep_rows_and_dominance():
    ns = range(4, 21)
    rows = sweep(ns, [SweepModel.ALL_NO_V, SweepModel.ALL_WITH_V])
    assert len(rows) == 17 * 2
    by = {(r.model, r.n): r.r_max_sq for r in rows}
    for n in ns:
        assert by[(SweepModel.ALL_WITH_V, n)] >= by[(SweepModel.ALL_NO_V, n)] - 1e-10
    # deterministic ordering: n-major, model-minor
    assert [(r.n, r.model) for r in rows[:4]] == [
        (4, SweepModel.ALL_NO_V),
        (4, SweepModel.ALL_WITH_V),
        (5, SweepModel.ALL_NO_V),
        (5, SweepModel.ALL_WITH_V),
    ]


def test_sweep_repeated_model_gives_one_row_per_length():
    for ns in ([5, 6], [5, 6, 5]):
        rows = sweep(ns, [SweepModel.NN, SweepModel.ALL_NO_V, SweepModel.NN])
        assert [(r.n, r.model) for r in rows] == [
            (5, SweepModel.NN),
            (5, SweepModel.ALL_NO_V),
            (6, SweepModel.NN),
            (6, SweepModel.ALL_NO_V),
        ], ns


def test_protocol_and_sweep_share_the_variant_objective():
    # with the receiver-side unitary: lam_plus_sq; without it: row_norm_sq
    assert SweepModel.ALL_WITH_V.objective is lam_plus_sq
    assert SweepModel.ALL_NO_V.objective is row_norm_sq
    assert SweepModel.NN.objective is row_norm_sq
    dec = _dec(Coupling.ALL_NODE, 14)
    for with_v, objective in ((True, lam_plus_sq), (False, row_norm_sq)):
        protocol = optimal_protocol(dec, with_v=with_v)
        assert (protocol.t0, protocol.r_max_sq) == maximize_over_time(dec, objective)


def test_sweep_takes_model_labels():
    labelled = sweep(range(4, 6), ["nn", "all+v"])
    assert labelled == sweep(range(4, 6), [SweepModel.NN, SweepModel.ALL_WITH_V])
    assert [r.model for r in labelled[:2]] == [SweepModel.NN, SweepModel.ALL_WITH_V]
    with pytest.raises(ValueError, match="SweepModel"):
        sweep([4], ["nn", "all-v"])


def test_sweep_range_validation():
    with pytest.raises(ValueError, match="4, 200"):
        sweep([3], [SweepModel.NN])
    with pytest.raises(ValueError, match="4, 200"):
        sweep([201], [SweepModel.NN])
    # the lengths are checked as they are consumed, up to the first one out of range
    consumed = []

    def lengths():
        for n in range(4, 10**5):
            consumed.append(n)
            yield n

    with pytest.raises(ValueError, match="got 201"):
        sweep(lengths(), [SweepModel.NN])
    assert consumed[-1] == 201


def test_sweep_rejects_empty_input():
    with pytest.raises(ValueError, match="empty"):
        sweep([], [SweepModel.NN])
    with pytest.raises(ValueError, match="no models"):
        sweep([4], [])


def test_sweep_error_names_the_failing_chain(monkeypatch, tmp_path, capsys):
    # no transfer probability reaches 2, so the scan of the first chain finds no maximum
    monkeypatch.setattr(optimize, "SIGNIFICANCE_FLOOR", 2.0)
    with pytest.raises(MaximumNotFoundError) as info:
        sweep([4], ["all", "all+v"])
    assert str(info.value).startswith("n=4 model=all,all+v: ")
    argv = ["sweep", "--n-min", "4", "--n-max", "4", "--models", "all,all+v"]
    assert main([*argv, "--out", str(tmp_path / "sweep.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n=4 model=all,all+v: ") and err.count("\n") == 1


def test_sweep_rows_equal_single_model_searches():
    # all and all+v share one scan in the sweep; each must bracket exactly as
    # its own single-objective search does
    rows = sweep(range(4, 41), list(SweepModel))
    assert len(rows) == 37 * 3
    for row in rows:
        dec = _dec(row.model.coupling, row.n)
        assert (row.t0, row.r_max_sq) == maximize_over_time(dec, row.model.objective)


def test_peakless_first_stage_brackets_like_default_scan(monkeypatch):
    # one point per node and one grid block end the first stage before any
    # first peak, so every bracket comes from the whole-window second stage;
    # the first stage is a prefix of the whole window, so the brackets and
    # maxima equal the default scan's
    chains = [(kind, n) for kind in Coupling for n in (5, 16, 33)]
    expected = [maximize_over_time(_dec(kind, n), objective)
                for kind, n in chains for objective in (lam_plus_sq, row_norm_sq)]
    monkeypatch.setattr(optimize, "SCAN_POINTS_PER_NODE", 1)
    got = [maximize_over_time(_dec(kind, n), objective)
           for kind, n in chains for objective in (lam_plus_sq, row_norm_sq)]
    assert got == expected


@pytest.mark.two_blas_threads
def test_first_stage_holds_every_first_hit(monkeypatch):
    # The coarse scan's one output is the grid index k of each objective's
    # first hit, bracketed by points k - 1 and k + 1.  The grid's last bits
    # may change with the BLAS thread count or the grid's algebra; k may not.
    # scan_first_hits.csv holds k for n = 4..200, both couplings, as recorded
    # before the grid took its flat product and split phase tables.  Each hit
    # and its right neighbour lie in the first stage, so no chain scans twice.
    with open(GOLDEN / "scan_first_hits.csv", newline="") as f:
        expected = {(r["coupling"], int(r["n"]), r["objective"]): int(r["k"])
                    for r in csv.DictReader(f)}
    counts = []

    def grid(dec, step, count):
        counts.append(count)
        return amplitude_grid(dec, step, count)

    monkeypatch.setattr(optimize, "amplitude_grid", grid)
    objectives = [row_norm_sq, lam_plus_sq]
    got = {}
    for kind in Coupling:
        for n in range(4, 201):
            counts.clear()
            brackets = optimize._brackets(_dec(kind, n), objectives)
            assert len(counts) == 1, (kind, n, counts)
            for objective, (a, b) in zip(objectives, brackets):
                k = round(a / COARSE_STEP) + 1
                assert (a, b) == (COARSE_STEP * (k - 1), COARSE_STEP * (k + 1))
                assert k + 1 < counts[0], (kind, n, objective.__name__, k, counts[0])
                got[kind.value, n, objective.__name__] = k
    assert got == expected


def _scalar_golden_section(dec, objective, a, b):
    """The refine as it ran before the lock-step search: one time per evaluation."""

    def fn(t):
        return objective(amplitude_matrix(dec, t)[:, :, None])[0]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi_sq = 1.0 - inv_phi
    h = b - a
    c = a + inv_phi_sq * h
    d = a + inv_phi * h
    yc, yd = fn(c), fn(d)
    while h > optimize.REFINE_TOL:
        if yc > yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + inv_phi_sq * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + inv_phi * h
            yd = fn(d)
    t0 = 0.5 * (a + b)
    return t0, float(fn(t0))


@pytest.mark.two_blas_threads
def test_lock_step_refine_equals_scalar_golden_section():
    # Mixed chain lengths, both couplings and both objectives in one batch.
    # The bracket widths take 34, 29, 10 and 0 golden-section steps, so rows
    # of one chain length finish at different steps.
    widths = itertools.cycle([0.1, 0.01, 1e-6, 5e-9])
    searches = []
    for n in (4, 9, 37, 61):
        for kind in Coupling:
            dec = _dec(kind, n)
            for objective in (lam_plus_sq, row_norm_sq):
                a, b = optimize._brackets(dec, [objective])[0]
                mid, width = 0.5 * (a + b), next(widths)
                searches.append((dec, objective, mid - 0.5 * width, mid + 0.5 * width))
    rows = [optimize._RefineRow(dec.energies, _weights(dec), objective, a, b)
            for dec, objective, a, b in searches]
    expected = [_scalar_golden_section(*search) for search in searches]
    assert optimize._refine(rows) == expected
    assert optimize._refine(rows[::-1]) == expected[::-1]
    # rows of one chain length are not adjacent here, so each length has several runs
    assert optimize._refine(rows[::2] + rows[1::2]) == expected[::2] + expected[1::2]


@pytest.mark.two_blas_threads
def test_single_search_equals_scalar_golden_section():
    for kind in Coupling:
        for n in (4, 17, 34, 37, 109):
            dec = _dec(kind, n)
            for objective in (lam_plus_sq, row_norm_sq):
                a, b = optimize._brackets(dec, [objective])[0]
                expected = _scalar_golden_section(dec, objective, a, b)
                assert maximize_over_time(dec, objective) == expected


def test_significance_floor_margins(full_sweep):
    # Over the paper's sweep the floor lies at least 1.5 decades above every
    # coarse-grid local maximum before the accepted one, and every accepted
    # peak at least 2 decades above the floor.
    rows, _ = full_sweep
    earlier = 0.0
    for row in rows:
        dec = chain_decomposition(CouplingModel(row.model.coupling, row.n))
        stop = int(row.t0 / COARSE_STEP) + 3  # through the bracket around t0
        gs = row.model.objective(amplitude_grid(dec, COARSE_STEP, stop))
        left, mid, right = gs[:-2], gs[1:-1], gs[2:]
        maxima = mid[(mid >= left) & (mid > right)]
        first = int(np.argmax(maxima > SIGNIFICANCE_FLOOR))
        assert maxima[first] > SIGNIFICANCE_FLOOR, (row.n, row.model)
        earlier = max(earlier, float(maxima[:first].max(initial=0.0)))
    smallest_peak = min(row.r_max_sq for row in rows)
    assert math.log10(SIGNIFICANCE_FLOOR / earlier) >= 1.5
    assert math.log10(smallest_peak / SIGNIFICANCE_FLOOR) >= 2.0


def _assert_protocol_rebuilt_from(p: np.ndarray, protocol, label) -> None:
    """``a_opt``, ``v_svd`` and ``u`` of ``protocol`` from an independent P(t0)."""
    u, v_svd, _, _ = _svd(p)
    if protocol.with_v:
        a_opt = _sender(u)
    else:
        a_opt = p[1].conj() / np.linalg.norm(p[1])
    assert np.max(np.abs(a_opt - protocol.a_opt)) <= 1e-12, label
    assert np.max(np.abs(v_svd - protocol.v_svd)) <= 1e-12, label
    assert np.max(np.abs(u - protocol.u)) <= 1e-12, label


# The rows that decide the paper's critical lengths (34 / 37 / 109 at 1/2,
# 6 / 4 / 17 at 0.9), each with its threshold and whether it reaches it: the
# last length that does and the first that does not.
_DECIDING_ROWS = {
    (SweepModel.NN, 34): (0.5, True), (SweepModel.NN, 35): (0.5, False),
    (SweepModel.NN, 6): (0.9, True), (SweepModel.NN, 7): (0.9, False),
    (SweepModel.ALL_NO_V, 37): (0.5, True), (SweepModel.ALL_NO_V, 38): (0.5, False),
    (SweepModel.ALL_NO_V, 4): (0.9, True), (SweepModel.ALL_NO_V, 5): (0.9, False),
    (SweepModel.ALL_WITH_V, 109): (0.5, True), (SweepModel.ALL_WITH_V, 110): (0.5, False),
    (SweepModel.ALL_WITH_V, 17): (0.9, True), (SweepModel.ALL_WITH_V, 18): (0.9, False),
}


def _assert_decided_with_margin(model, n, certified, package):
    """A deciding row lies on its side of the threshold by 10^6 certified deviations."""
    if (model, n) not in _DECIDING_ROWS:
        return
    threshold, reached = _DECIDING_ROWS[model, n]
    margin = package - threshold
    assert (margin > 0.0) == reached, (model, n, margin)
    assert abs(margin) >= 1e6 * abs(certified - package), (model, n, margin)


def test_deciding_rows_first_fine_grid_peak_lies_in_the_coarse_bracket():
    # Rescanned at step 0.005, no deciding row hides a significant maximum
    # between coarse grid points before its bracket.  The largest earlier
    # fine-grid maximum of these rows measured 1.43e-9 (all, n = 37).
    step, earlier = 0.005, 0.0
    for model, n in _DECIDING_ROWS:
        dec = _dec(model.coupling, n)
        [(a, b)] = optimize._brackets(dec, [model.objective])
        gs = model.objective(amplitude_grid(dec, step, int(b / step) + 2))
        left, mid, right = gs[:-2], gs[1:-1], gs[2:]
        peaks = np.flatnonzero((mid >= left) & (mid > right))
        significant = peaks[mid[peaks] > SIGNIFICANCE_FLOOR]
        assert significant.size, (model, n)
        first = int(significant[0])
        assert a < step * (first + 1) < b, (model, n, a, step * (first + 1), b)
        earlier = max(earlier, float(mid[peaks[peaks < first]].max(initial=0.0)))
    assert earlier < 1e-3 * SIGNIFICANCE_FLOOR


def test_closed_form_lam_plus_sq_overshoots_the_svd_by_rounding_only(full_sweep):
    # lam_plus_sq's trace**2 - 4|det|**2 cancels near a perfect transfer, so it
    # exceeds lam_plus**2 by up to 1.24e-14 (nn, n = 4, r_max_sq = 1 + 1.18e-14);
    # the value is documented, not clipped, so the optimize goldens keep it.
    rows, _ = full_sweep
    checked = [
        (row.r_max_sq, _svd(amplitude_matrix(_dec(Coupling.ALL_NODE, row.n), row.t0))[3])
        for row in rows
        if row.model is SweepModel.ALL_WITH_V
    ]
    for n in range(4, 13):
        protocol = optimal_protocol(_dec(Coupling.NEAREST_NEIGHBOR, n), with_v=True)
        checked.append((protocol.r_max_sq, protocol.lam_plus))
    assert len(checked) == 127 + 9
    for r_max_sq, lam_plus in checked:
        assert abs(r_max_sq - lam_plus**2) <= 2e-14
        assert r_max_sq <= 1.0 + 2e-14


def test_nn_sweep_rows_match_the_closed_form_chain(full_sweep):
    # The nearest-neighbour chain has E_m = cos(m pi/(n+1)) and
    # v_km = sqrt(2/(n+1)) sin(k m pi/(n+1)) (Bose, PRL 91, 207901 (2003)),
    # so P(t) is rebuilt here without an eigensolver at the paper's lengths
    # and on both sides of each nn critical length.
    rows, _ = full_sweep
    lengths = (6, 7, 34, 35, 37, 109, 130)
    checked = [r for r in rows if r.model is SweepModel.NN and r.n in lengths]
    assert [r.n for r in checked] == list(lengths)
    for row in checked:
        angle = np.arange(1, row.n + 1) * math.pi / (row.n + 1)
        energies = np.cos(angle)
        modes = {
            k: math.sqrt(2.0 / (row.n + 1)) * np.sin(k * angle) for k in (1, 2, row.n - 1, row.n)
        }
        weights = np.array([modes[k] * modes[j] for k in (row.n - 1, row.n) for j in (1, 2)])

        def closed_form(t):
            return (weights @ np.exp(-1j * energies * t)).reshape(2, 2)

        def objective(t):
            return row_norm_sq(closed_form(t)[:, :, None])[0]

        peak = objective(row.t0)
        assert peak == pytest.approx(row.r_max_sq, abs=1e-12), row.n
        _assert_decided_with_margin(row.model, row.n, peak, row.r_max_sq)
        assert objective(row.t0 - 1e-4) < peak and objective(row.t0 + 1e-4) < peak, row.n
        # sweep rows carry no a_opt, so the protocol is built for this check
        protocol = optimal_protocol(_dec(Coupling.NEAREST_NEIGHBOR, row.n), with_v=False)
        _assert_protocol_rebuilt_from(closed_form(protocol.t0), protocol, row.n)


def test_high_threshold_critical_lengths():
    rows = sweep(range(4, 21), list(SweepModel))
    results = {c.model: c for c in critical_length(rows, 0.9)}
    assert results[SweepModel.NN].n_critical == 6
    assert results[SweepModel.ALL_NO_V].n_critical == 4
    assert results[SweepModel.ALL_WITH_V].n_critical == 17

    # the largest values from n = 5 on are 0.942, 0.899 and 0.997
    unattainable = critical_length([r for r in rows if r.n >= 5], 0.9999)
    assert all(c.n_critical is None for c in unattainable)


@pytest.mark.parametrize("threshold", [-1.0, 1.1, math.nan])
def test_critical_length_rejects_threshold_outside_unit_interval(threshold):
    rows = sweep([5], [SweepModel.NN])
    with pytest.raises(ValueError, match="threshold must lie in"):
        critical_length(rows, threshold)


def test_optimal_sender_certificate_across_sweep():
    for n in range(4, 41, 4):
        for model in SweepModel:
            dec = _dec(model.coupling, n)
            t0, _ = maximize_over_time(dec, model.objective)
            p = amplitude_matrix(dec, t0)
            u, _, _, lam_plus = _svd(p)
            achieved = float(np.linalg.norm(p @ _sender(u)) ** 2)
            assert achieved == pytest.approx(lam_plus**2, abs=1e-10)
            sampled = sample_max_transfer(
                p, TransferMode.EXT_RECEIVER_NORM, 10**4, seed=n
            )
            assert achieved >= sampled - 1e-9


def test_protocol_fields_consistent():
    dec = _dec(Coupling.ALL_NODE, 12)
    protocol = optimal_protocol(dec, with_v=True)
    assert protocol.r_max_sq == pytest.approx(protocol.lam_plus**2, abs=1e-10)
    assert protocol.a_opt.shape == (2,) and protocol.a_opt.dtype == complex
    assert np.sum(np.abs(protocol.a_opt) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(protocol.v0, protocol.v_svd)

    no_v = optimal_protocol(dec, with_v=False)
    p = amplitude_matrix(dec, no_v.t0)
    assert no_v.r_max_sq == pytest.approx(abs(p[1, 0]) ** 2 + abs(p[1, 1]) ** 2, abs=1e-12)
    assert np.allclose(no_v.v0, np.eye(2))
    # the no-V sender state maximises the receiver-node probability
    f_n = (p @ no_v.a_opt)[1]
    assert abs(f_n) ** 2 == pytest.approx(no_v.r_max_sq, abs=1e-10)


def test_protocol_owns_p_and_a_checked_read_only_rotation():
    for kind, n, with_v in ((Coupling.ALL_NODE, 12, True), (Coupling.ALL_NODE, 12, False),
                            (Coupling.NEAREST_NEIGHBOR, 9, True)):
        dec = _dec(kind, n)
        protocol = optimal_protocol(dec, with_v=with_v)
        expected = amplitude_matrix(dec, protocol.t0)
        assert np.array_equal(protocol.p.view(np.int64), expected.view(np.int64))
        rotation = protocol.rotation
        assert rotation is protocol.rotation  # built and checked once
        block = np.eye(4, dtype=complex)
        block[1:3, 1:3] = protocol.v0
        assert np.array_equal(rotation, block)
        for array in (protocol.p, rotation, protocol.u, protocol.v_svd, protocol.a_opt):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def test_protocol_v0_without_v_is_one_read_only_identity():
    protocol = optimal_protocol(_dec(Coupling.ALL_NODE, 9), with_v=False)
    assert protocol.v0 is protocol.v0
    assert not protocol.v0.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        protocol.v0[0, 0] = 5
    assert np.array_equal(protocol.v0, np.eye(2)) and protocol.v0.dtype == complex


def test_svd_v0_is_read_only_in_the_degenerate_case_too():
    u, v_svd, _, _ = _svd(np.zeros((2, 2)))
    assert not v_svd.flags.writeable and not u.flags.writeable


def _taylor_step(h: np.ndarray, psi: np.ndarray, dt: float, terms: int = 40) -> np.ndarray:
    """``exp(-i H dt) psi`` by its Taylor series, at most ``terms`` terms.

    The series stops early once a term has no entry above 1e-17, far below
    the rounding of the unit-norm columns (Al-Mohy & Higham's early exit).
    """
    term, total = psi, psi.copy()
    for k in range(1, terms + 1):
        term = (-1j * dt / k) * (h @ term)
        total += term
        if np.max(np.abs(term)) <= 1e-17:
            break
    return total


def _taylor_sender_columns(h: np.ndarray, t: float, piece: float = 0.5) -> np.ndarray:
    """``exp(-i H t)`` on the sender columns e_1, e_2, in steps no longer than ``piece``."""
    psi = np.zeros((h.shape[0], 2), dtype=complex)
    psi[0, 0] = psi[1, 1] = 1.0
    steps = max(1, math.ceil(t / piece))
    for _ in range(steps):
        psi = _taylor_step(h, psi, t / steps)
    return psi


def test_all_node_protocols_match_a_taylor_propagator():
    # An eigensolver-free P(t0) for the all-node rows at the paper's lengths:
    # exp(-i H t) is stepped in pieces of at most 0.5, where ||H dt|| <= 0.6
    # and 40 Taylor terms would leave a truncation error below 1e-40
    # (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)).  Both variants
    # share the propagation up to the earlier of their two times.  The lengths
    # lie on both sides of each all-node critical length.
    for n in (4, 5, 17, 18, 34, 37, 38, 109, 110, 130):
        idx = np.arange(n, dtype=float)
        dist = np.abs(idx[:, None] - idx[None, :])
        h = np.zeros((n, n), dtype=complex)
        h[dist > 0] = 0.5 * dist[dist > 0] ** -3.0
        dec = _dec(Coupling.ALL_NODE, n)
        protocols = {
            objective: optimal_protocol(dec, with_v=with_v)
            for with_v, objective in ((False, row_norm_sq), (True, lam_plus_sq))
        }
        start = min(protocol.t0 for protocol in protocols.values())
        psi = _taylor_sender_columns(h, start)
        for objective, protocol in protocols.items():
            offset = protocol.t0 - start
            ps = [_taylor_step(h, psi, offset + dt)[[-2, -1]] for dt in (-1e-4, 0.0, 1e-4)]
            assert np.max(np.abs(ps[1] - protocol.p)) <= 1e-12, (n, objective)
            _assert_protocol_rebuilt_from(ps[1], protocol, (n, objective))
            before, peak, after = objective(np.stack(ps, axis=-1))
            assert peak == pytest.approx(protocol.r_max_sq, abs=1e-12), (n, objective)
            assert before < peak and after < peak, (n, objective)
            model = SweepModel.ALL_WITH_V if protocol.with_v else SweepModel.ALL_NO_V
            _assert_decided_with_margin(model, n, peak, protocol.r_max_sq)
