"""Brute-force cross checks: full Hilbert-space evolution and random sampling.

The full-space Hamiltonian acts on vectors over all 2^N bitmask basis
states, with no reference to excitation-number structure.  It is a table of
pair flips: for every coupled pair of nodes, the states whose two bits
differ, the partner states with the excitation swapped, and the matrix
element d_ij / 2.  ``full_transition_amplitude`` never forms the 2^N matrix.
It runs Lanczos from |j> with full reorthogonalisation until the Krylov
space closes (beta ~ 0), and on that invariant space
``exp(-i H t)|j> = V S exp(-i Lambda t) S^T e1`` holds exactly for every t.
H conserves excitation number, so the space of a one-excitation node closes
within n vectors and the vacuum's at one; the oracle observes that closure
rather than assuming it, so agreement with the spectral-sum amplitudes
validates the single-excitation reduction end to end.  ``full_hamiltonian``
writes the same table into a dense matrix for small n.  The sampling
maximiser provides an independent lower bound on the best transfer
probability that the SVD route must dominate.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .chain import Coupling, CouplingModel, build_couplings

MAX_FULL_NODES = 16
MAX_DENSE_NODES = 12
# Lanczos stops once the new residual falls below this fraction of |H v|.
# Closing residuals measure ~1e-31 for n <= 16; the genuine ones stay above 0.04.
BREAKDOWN_TOL = 1e-12

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


def _pair_flips(model: CouplingModel) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """``(flip, flip ^ mask, d_ij / 2)`` for every coupled pair of nodes i < j.

    S^x S^x + S^y S^y swaps an excitation between bits i and j with amplitude
    d_ij / 2; ``flip`` lists the states whose two bits differ, the only ones
    the term moves, and ``flip ^ mask`` where it moves them.
    """
    d = build_couplings(model)
    states = np.arange(1 << model.n)
    table = []
    for i in range(model.n):
        for j in range(i + 1, model.n):
            if d[i, j] != 0.0:
                mask = (1 << i) | (1 << j)
                flip = states[((states >> i) ^ (states >> j)) & 1 == 1]
                table.append((flip, flip ^ mask, d[i, j] / 2))
    return table


def full_hamiltonian(model: CouplingModel) -> np.ndarray:
    """Dense 2^N x 2^N chain Hamiltonian: the pair-flip table as a matrix."""
    if model.n > MAX_DENSE_NODES:
        raise ValueError(
            f"dense full-space Hamiltonian is limited to n <= {MAX_DENSE_NODES}, got {model.n}"
        )
    h = np.zeros((1 << model.n, 1 << model.n))
    for flip, partner, element in _pair_flips(model):
        h[partner, flip] += element
    return h


def _apply(table, v: np.ndarray) -> np.ndarray:
    """``H v`` for a full 2^N vector, one gather and scatter per pair."""
    out = np.zeros_like(v)
    for flip, partner, element in table:
        # a pair's partners are distinct, so the fancy ``+=`` adds every term
        out[partner] += element * v[flip]
    return out


@functools.lru_cache(maxsize=4)
def _full_spectrum(kind: Coupling, n: int, j: int):
    """Eigenpairs of the full H on the Krylov space of |j>, found by Lanczos.

    Returns ``(evals, evecs, weights)``: the columns of ``evecs`` (2^N x m)
    are eigenvectors of the full H with eigenvalues ``evals``, and
    ``weights`` are their components ``S^T e1`` along |j>.
    """
    table = _pair_flips(CouplingModel(kind, n))
    basis = np.zeros((1, 1 << n))  # rows: the orthonormal Lanczos vectors
    basis[0, basis_index(j)] = 1.0
    alphas, betas = [], []
    while True:
        w = _apply(table, basis[-1])
        scale = np.linalg.norm(w)
        alphas.append(basis[-1] @ w)
        for _ in range(2):  # full reorthogonalisation, twice
            w -= (basis @ w) @ basis
        beta = np.linalg.norm(w)
        if beta <= BREAKDOWN_TOL * scale or len(basis) == basis.shape[1]:
            break
        betas.append(beta)
        basis = np.vstack([basis, w / beta])
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    evals, s = np.linalg.eigh(tri)
    return evals, basis.T @ s, s[0]


def full_transition_amplitude(model: CouplingModel, k: int, j: int, t: float) -> complex:
    """Amplitude ``<k| exp(-i H t) |j>`` evaluated in the full 2^N space.

    ``k`` and ``j`` are single-excitation node labels, or 0 for the vacuum.
    """
    if model.n > MAX_FULL_NODES:
        raise ValueError(
            f"full-space oracle is limited to n <= {MAX_FULL_NODES}, got {model.n}"
        )
    if not (0 <= k <= model.n and 0 <= j <= model.n):
        raise ValueError(f"node labels must lie in 0..{model.n}, got k={k}, j={j}")
    evals, evecs, weights = _full_spectrum(model.kind, model.n, j)
    return complex(evecs[basis_index(k)] @ (weights * np.exp(-1j * evals * t)))


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
