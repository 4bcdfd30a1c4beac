"""Brute-force cross checks: full Hilbert-space evolution and random sampling.

The full-space Hamiltonian is written straight into the bitmask basis of all
2^N states, with no reference to excitation-number structure, so agreement
with the spectral-sum amplitudes validates the single-excitation reduction
end to end.  Its build takes milliseconds at n = 10; the dense ``eigh`` is
the oracle's cost.  The sampling maximiser provides an independent lower
bound on the best transfer probability that the SVD route must dominate.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .chain import Coupling, CouplingModel, build_couplings

MAX_FULL_NODES = 12

__all__ = [
    "TransferMode",
    "basis_index",
    "full_hamiltonian",
    "full_transition_amplitude",
    "sample_max_transfer",
]


def basis_index(node: int) -> int:
    """Computational-basis index of |node>: 0 is the vacuum, node i sets bit i-1."""
    return 0 if node == 0 else 1 << (node - 1)


def full_hamiltonian(model: CouplingModel) -> np.ndarray:
    """Dense 2^N x 2^N chain Hamiltonian built from pairwise spin couplings."""
    if model.n > MAX_FULL_NODES:
        raise ValueError(
            f"full-space oracle is limited to n <= {MAX_FULL_NODES}, got {model.n}"
        )
    d = build_couplings(model)
    states = np.arange(1 << model.n)
    h = np.zeros((states.size, states.size))
    for i in range(model.n):
        for j in range(i + 1, model.n):
            # S^x S^x + S^y S^y swaps an excitation between bits i and j with
            # amplitude d_ij / 2; states whose two bits agree get nothing
            mask = (1 << i) | (1 << j)
            flip = states[((states >> i) ^ (states >> j)) & 1 == 1]
            h[flip ^ mask, flip] += d[i, j] / 2
    return h


@functools.lru_cache(maxsize=4)
def _full_spectrum(kind: Coupling, n: int):
    h = full_hamiltonian(CouplingModel(kind, n))
    return np.linalg.eigh(h)


def full_transition_amplitude(model: CouplingModel, k: int, j: int, t: float) -> complex:
    """Amplitude ``<k| exp(-i H t) |j>`` evaluated in the full 2^N space.

    ``k`` and ``j`` are single-excitation node labels, or 0 for the vacuum.
    """
    if not (0 <= k <= model.n and 0 <= j <= model.n):
        raise ValueError(f"node labels must lie in 0..{model.n}, got k={k}, j={j}")
    evals, evecs = _full_spectrum(model.kind, model.n)
    row = evecs[basis_index(k)]
    col = evecs[basis_index(j)]
    return complex(np.sum(row * col * np.exp(-1j * evals * t)))


class TransferMode(enum.Enum):
    """Which probability the sampling maximiser targets."""

    EXT_RECEIVER_NORM = "ext"  # ||P a||^2 over the last two nodes
    LAST_NODE_ONLY = "last"  # |(P a)_N|^2 on the last node alone


def sample_max_transfer(
    p: np.ndarray,
    mode: TransferMode,
    samples: int,
    seed: int,
) -> float:
    """Best transfer probability over Haar-random unit sender vectors.

    Vectors are drawn as pairs of complex Gaussians and normalised; the
    result is deterministic for a given seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    p = np.asarray(p, dtype=complex)
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = samples
    while remaining:
        m = min(remaining, 1 << 16)
        a = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        f = a @ p.T
        if mode is TransferMode.LAST_NODE_ONLY:
            vals = np.abs(f[:, 1]) ** 2
        else:
            vals = np.abs(f[:, 0]) ** 2 + np.abs(f[:, 1]) ** 2
        best = max(best, float(vals.max()))
        remaining -= m
    return best
