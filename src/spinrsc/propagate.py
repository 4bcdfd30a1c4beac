"""Transition amplitudes and the 2x2 sender-to-receiver amplitude matrix.

The amplitude ``p_kj(t) = <k| exp(-i H t) |j>`` is a spectral sum over the
chain eigenpairs, so thousands of time samples reuse a single dense
eigensolve.  The 2x2 block from the sender nodes (1, 2) to the
extended-receiver nodes (N-1, N) is the matrix ``P``: a sender state with
excitation amplitudes ``(a1, a2)`` arrives as ``f = P (a1, a2)^T``, while the
vacuum amplitude ``f0`` stays equal to ``a0``.  This module alone knows
where the sender and the receiver sit: :func:`_weights` forms the ``(4, n)``
spectral weights of ``P`` from a decomposition, and :func:`_p_stack` lays out
every ``P``.  A single-time one, from :func:`amplitude_matrix` (protocol,
creation map, ``verify``) or the refine's probe, is one ``(4, n) @ (n, 1)``
product of the weights and the phases of that time, and a
uniform grid (:func:`amplitude_grid`) is one ``(4 B, n) @ (n, 64)`` product
of the weights times ``B`` block phases against one shared table.  Both
phase tables of a grid are products of two small exponential tables, so a
grid needs far fewer exponentials than points; its values may differ from
the single-time products in the last bits.
"""

from __future__ import annotations

import operator

import numpy as np

from .chain import SpectralDecomposition

GRID_BLOCK = 64  # grid points sharing one block phase in amplitude_grid
PHASE_SPLIT = 8  # fixed split j = PHASE_SPLIT q + r of a grid phase table's index

__all__ = [
    "transition_amplitude",
    "amplitude_grid",
    "amplitude_matrix",
]


def transition_amplitude(dec: SpectralDecomposition, k: int, j: int, t: float) -> complex:
    """Amplitude ``<k| exp(-i H t) |j>`` between single-excitation nodes.

    Node indices are 1-based like the chain nodes.
    """
    n = dec.n
    try:
        k, j = operator.index(k), operator.index(j)  # Python and numpy integers only
    except TypeError:
        raise ValueError(f"node indices must be integers, got k={k!r}, j={j!r}") from None
    if not (1 <= k <= n and 1 <= j <= n):
        raise ValueError(f"node indices must lie in 1..{n}, got k={k}, j={j}")
    w = dec.vectors[k - 1] * dec.vectors[j - 1]
    return complex(np.sum(w * np.exp(-1j * dec.energies * t)))


def _weights(dec: SpectralDecomposition) -> np.ndarray:
    """Spectral weights ``v[k, m] v[j, m]`` of the four P entries, shape ``(4, n)``.

    Rows are ``P[0, 0], P[0, 1], P[1, 0], P[1, 1]``: destinations (N-1, N),
    sources (1, 2).
    """
    if dec.n < 4:
        raise ValueError("sender and extended receiver overlap for n < 4")
    return dec.vectors[[-2, -2, -1, -1]] * dec.vectors[[0, 1, 0, 1]]


def _p_stack(runs) -> np.ndarray:
    """The ``(weights, phases)`` runs' products as the P stack, shape ``(2, 2, T)``.

    A run's ``weights @ phases`` holds one P matrix per 4 rows, its 4
    entries row-major: shape ``(..., 4, m)`` or ``(4 k, m)``.  Its time points
    run along the matrices, then the ``m`` columns, and run after run.
    """
    products = [(weights @ phases).reshape(-1, 4, phases.shape[-1]) for weights, phases in runs]
    ps = products[0] if len(products) == 1 else np.concatenate(products)
    return ps.swapaxes(0, -2).reshape(2, 2, -1)


def _phase_table(energies: np.ndarray, dt: float, count: int) -> np.ndarray:
    """``exp(-i E dt j)`` for ``0 <= j < count``, shape ``(count, n)``.

    Each phase is ``exp(-i E PHASE_SPLIT dt q) * exp(-i E dt r)`` for
    ``j = PHASE_SPLIT q + r``: ``ceil(count / PHASE_SPLIT) + PHASE_SPLIT``
    exponentials per eigenvalue.  The split is fixed, so a phase depends on
    ``j`` alone and a shorter table is a prefix of a longer one.
    """
    rows = -(-count // PHASE_SPLIT)
    coarse = np.exp(-1j * (PHASE_SPLIT * dt) * np.outer(np.arange(rows), energies))
    fine = np.exp(-1j * dt * np.outer(np.arange(PHASE_SPLIT), energies))
    return (coarse[:, None, :] * fine).reshape(-1, energies.shape[0])[:count]


def amplitude_grid(dec: SpectralDecomposition, step: float, count: int) -> np.ndarray:
    """``P(t)`` at ``t = step * k`` for ``0 <= k < count``, shape ``(2, 2, count)``.

    Grid points come in blocks of ``GRID_BLOCK``, and the phase of point ``j``
    in block ``b`` factors as ``exp(-i E step GRID_BLOCK b) * exp(-i E step j)``.
    The grid is one ``(4 B, n) @ (n, GRID_BLOCK)`` run of :func:`_p_stack`:
    the weights times each block phase, stacked, against one base table.
    Both tables come from :func:`_phase_table`, so ``B`` blocks cost
    ``n (ceil(B / 8) + 24)`` exponentials, and no ``n x T`` phase table is built.
    Under one BLAS thread a value depends on ``k`` alone, so a shorter grid is
    a prefix of a longer one bit for bit.  With more threads OpenBLAS may
    round a one-block product differently (two threads, some n >= 129);
    grids of two or more blocks were prefixes of longer ones in every case
    checked.
    """
    blocks = -(-count // GRID_BLOCK)
    block_phases = _phase_table(dec.energies, GRID_BLOCK * step, blocks)  # (B, n)
    base = _phase_table(dec.energies, step, GRID_BLOCK).T  # (n, 64)
    weights = (_weights(dec) * block_phases[:, None, :]).reshape(-1, dec.n)  # (4 B, n)
    return _p_stack([(weights, base)])[:, :, :count]


def amplitude_matrix(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """The 2x2 sender-to-extended-receiver transition matrix at time ``t``."""
    return _p_stack([(_weights(dec), np.exp(-1j * (t * dec.energies))[:, None])])[:, :, 0]
