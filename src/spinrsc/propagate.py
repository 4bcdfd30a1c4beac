"""Transition amplitudes and the 2x2 sender-to-receiver amplitude matrix.

The amplitude ``p_kj(t) = <k| exp(-i H t) |j>`` is a spectral sum over the
chain eigenpairs, so thousands of time samples reuse a single dense
eigensolve.  The 2x2 block from the sender nodes (1, 2) to the
extended-receiver nodes (N-1, N) is the matrix ``P``: a sender state with
excitation amplitudes ``(a1, a2)`` arrives as ``f = P (a1, a2)^T``, while the
vacuum amplitude ``f0`` stays equal to ``a0``.  Every single-time ``P``,
from :func:`amplitude_matrix` (protocol, creation map, ``verify``) or from
the refine's probe, is one ``(4, n) @ (n, 1)`` product of the weights the
decomposition owns and the phases of that time.  A uniform grid
(:func:`amplitude_grid`) factors its phases into block heads times one
shared table instead, so it needs far fewer complex exponentials than points.
"""

from __future__ import annotations

import operator

import numpy as np

from .chain import SpectralDecomposition

GRID_BLOCK = 64  # grid points sharing one block phase in amplitude_grid

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


def _p_stack(runs) -> np.ndarray:
    """``P`` for every phase row of the ``(weights, phases)`` runs, shape ``(2, 2, T)``.

    A run pairs ``(k, n)`` phases with one ``(4, n)`` weights array or a
    ``(k, 4, n)`` stack; each row is its own ``(4, n) @ (n, 1)`` product.
    """
    ps = np.concatenate([weights @ phases[:, :, None] for weights, phases in runs])
    return np.ascontiguousarray(ps.reshape(-1, 4).T).reshape(2, 2, -1)


def amplitude_grid(dec: SpectralDecomposition, step: float, count: int) -> np.ndarray:
    """``P(t)`` at ``t = step * k`` for ``0 <= k < count``, shape ``(2, 2, count)``.

    Grid points come in blocks of ``GRID_BLOCK``, and the phase of point ``j``
    in block ``b`` factors as ``exp(-i E step GRID_BLOCK b) * exp(-i E step j)``.
    Each block is one ``(4, n) @ (n, GRID_BLOCK)`` product of the weights
    times the block phase against a single base table, so ``B`` blocks cost
    ``n (B + GRID_BLOCK)`` exponentials instead of one per eigenvalue and grid
    point, and no ``n x T`` phase table is built.  A value depends on ``k``
    alone, so a shorter grid is a prefix of a longer one bit for bit.
    """
    blocks = -(-count // GRID_BLOCK)
    heads = step * (GRID_BLOCK * np.arange(blocks))
    block_phases = np.exp(-1j * np.outer(heads, dec.energies))  # (B, n)
    base = np.exp(-1j * step * np.outer(dec.energies, np.arange(GRID_BLOCK)))  # (n, 64)
    stack = (dec.weights * block_phases[:, None, :]) @ base  # (B, 4, GRID_BLOCK)
    return stack.transpose(1, 0, 2).reshape(2, 2, blocks * GRID_BLOCK)[:, :, :count]


def amplitude_matrix(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """The 2x2 sender-to-extended-receiver transition matrix at time ``t``."""
    return _p_stack([(dec.weights, np.exp(-1j * (t * dec.energies))[None])])[:, :, 0]
