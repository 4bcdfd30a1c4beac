"""Transition amplitudes and the sender-to-receiver amplitude map.

The amplitude ``p_kj(t) = <k| exp(-i H t) |j>`` is a spectral sum over the
chain eigenpairs, so thousands of time samples reuse a single dense
eigensolve.  The 2x2 block from the sender nodes (1, 2) to the
extended-receiver nodes (N-1, N) is the matrix ``P``: a sender state with
excitation amplitudes ``(a1, a2)`` arrives as ``f = P (a1, a2)^T``, while the
vacuum amplitude ``f0`` stays equal to ``a0``.  Every single-time ``P`` is
one ``(4, n) @ (n, 1)`` product of the weights the decomposition owns and
the phases of that time.  A uniform grid (:func:`amplitude_grid`) factors
its phases into block heads times one shared table instead, so it needs far
fewer complex exponentials than it has points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import SpectralDecomposition

NORM_TOL = 1e-12
GRID_BLOCK = 64  # grid points sharing one block phase in amplitude_grid

__all__ = [
    "transition_amplitude",
    "amplitude_series",
    "amplitude_grid",
    "amplitude_matrix",
    "SenderState",
    "FVector",
    "sender_to_f",
]


def transition_amplitude(dec: SpectralDecomposition, k: int, j: int, t: float) -> complex:
    """Amplitude ``<k| exp(-i H t) |j>`` between single-excitation nodes.

    Node indices are 1-based like the chain nodes.
    """
    n = dec.n
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


def amplitude_series(dec: SpectralDecomposition, ts) -> np.ndarray:
    """The matrix ``P(t)`` for every ``t`` in ``ts``, shape ``(2, 2, len(ts))``.

    Rows are the destinations (N-1, N), columns the sources (1, 2).  Each
    time makes the product :func:`amplitude_matrix` makes, so a column equals
    :func:`amplitude_matrix` at that time bit for bit.
    """
    return _p_stack([(dec.weights, np.exp(-1j * np.outer(ts, dec.energies)))])


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


@dataclass(frozen=True)
class SenderState:
    """Pure one-excitation state of the two sender nodes plus vacuum weight.

    ``a0`` is the real vacuum amplitude; ``a1`` and ``a2`` are the complex
    amplitudes of an excitation on nodes 1 and 2.
    """

    a0: float
    a1: complex
    a2: complex

    def __post_init__(self) -> None:
        if not 0.0 <= self.a0 <= 1.0:
            raise ValueError(f"a0 must lie in [0, 1], got {self.a0}")
        norm = self.a0**2 + abs(self.a1) ** 2 + abs(self.a2) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"sender state must be normalised, got |a|^2 = {norm!r}")

    @property
    def excitation(self) -> np.ndarray:
        """The column ``(a1, a2)`` that multiplies the P matrix."""
        return np.array([self.a1, self.a2], dtype=complex)


@dataclass(frozen=True)
class FVector:
    """Amplitudes that determine the extended-receiver state.

    ``f0`` equals the sender's vacuum amplitude (the vacuum is stationary);
    ``f_nm1`` and ``f_n`` are the excitation amplitudes on nodes N-1 and N.
    """

    f0: float
    f_nm1: complex
    f_n: complex

    @property
    def transfer_sq(self) -> float:
        """Probability of finding the excitation on the extended receiver."""
        return abs(self.f_nm1) ** 2 + abs(self.f_n) ** 2


def sender_to_f(p: np.ndarray, s: SenderState) -> FVector:
    """Propagate a sender state through ``P``: ``f = P (a1, a2)^T``, ``f0 = a0``."""
    f = np.asarray(p, dtype=complex) @ s.excitation
    return FVector(f0=s.a0, f_nm1=complex(f[0]), f_n=complex(f[1]))
