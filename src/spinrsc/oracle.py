"""Brute-force cross checks: full Hilbert-space evolution and random sampling.

The full-space Hamiltonian acts on vectors over all 2^N bitmask basis
states, with no reference to excitation-number structure.  For every
coupled pair of nodes i < j it swaps an excitation between bits i and j
with the matrix element d_ij / 2.  ``_apply`` adds each such term through
strided views of the 2^N vector and is the one encoding of that action;
no dense 2^N x 2^N matrix is ever formed.
``full_transition_amplitude`` runs one Lanczos, with full
reorthogonalisation, per chain and excitation sector until its Krylov space
closes (beta ~ 0); on that invariant space ``exp(-i H t)`` is exact for
every t and every pair of nodes in the sector.  H conserves excitation
number: the vacuum's space closes at one vector, and node 1's is the whole
one-excitation sector, as every eigenvector has weight on node 1
(sin(pi m / (n + 1)) for nn; checked for all-node at every n accepted).
Closing before or after n vectors is an error, so agreement with the
spectral-sum amplitudes validates the single-excitation reduction end to
end.  Only the eigenvectors' rows on the vacuum and the n one-excitation
states are kept.  The sampling maximiser gives an independent lower bound
on the best transfer probability that the SVD route must dominate; it draws
senders from Marsaglia's unit disc and evaluates ``|R a|^2`` as a real form.
"""

from __future__ import annotations

import enum
import functools
import operator

import numpy as np

from .chain import Coupling, CouplingModel, build_hamiltonian
from .errors import SpinRscError

MAX_FULL_NODES = 18
# Lanczos stops once the new residual falls below this fraction of |H v|.
# From node 1, closing residuals measure <= 1e-31 for n <= 18 and the genuine ones >= 0.29.
BREAKDOWN_TOL = 1e-12
SAMPLE_CHUNK = 1 << 14  # candidate disc points drawn and evaluated at a time

__all__ = [
    "TransferMode",
    "full_transition_amplitude",
    "sample_max_transfer",
]


def _basis_index(node: int) -> int:
    """Computational-basis index of |node>: 0 is the vacuum, node i sets bit i-1."""
    return 0 if node == 0 else 1 << (node - 1)


def _coupled_pairs(model: CouplingModel) -> list[tuple[int, int, float]]:
    """``(i, j, h_ij)`` for every coupled pair of bits i < j.

    S^x S^x + S^y S^y swaps an excitation between bits i and j with
    amplitude h_ij = d_ij / 2 and leaves every other state alone.
    """
    h = build_hamiltonian(model)
    return [
        (i, j, h[i, j])
        for i in range(model.n)
        for j in range(i + 1, model.n)
        if h[i, j] != 0.0
    ]


def _apply(pairs, n: int, v: np.ndarray, out: np.ndarray) -> None:
    """Write ``H v`` into ``out`` for a full 2^N vector, through strided views.

    Viewed as ``(2^(n-1-j), 2, 2^(j-i-1), 2, 2^i)``, axis 1 is bit j and
    axis 3 is bit i, so a pair term moves ``[:, 0, :, 1, :]`` (excitation on
    i) into ``[:, 1, :, 0, :]`` and back.  No index array is formed.
    """
    out[:] = 0.0
    for i, j, element in pairs:
        shape = (1 << (n - 1 - j), 2, 1 << (j - i - 1), 2, 1 << i)
        src, dst = v.reshape(shape), out.reshape(shape)
        dst[:, 1, :, 0, :] += element * src[:, 0, :, 1, :]
        dst[:, 0, :, 1, :] += element * src[:, 1, :, 0, :]


@functools.lru_cache(maxsize=4)
def _full_spectrum(kind: Coupling, n: int, sector: int):
    """Eigenpairs of the full H on excitation sector 0 or 1, by one Lanczos.

    Sector 0 is the vacuum; sector 1 is the Krylov space of node 1.  Returns
    ``(evals, rows)``: ``rows[k]`` holds the eigenvectors' components along
    node k, 0 for the vacuum, so ``rows[j]`` weights any source j of the
    sector.  Raises ``SpinRscError`` unless node 1's space closes after
    exactly n vectors.
    """
    pairs, dim = _coupled_pairs(CouplingModel(kind, n)), 1 << n
    basis = np.zeros((n, dim))  # rows: the orthonormal Lanczos vectors
    basis[0, _basis_index(sector)] = 1.0
    w = np.empty(dim)  # the residual of the newest vector
    alphas, betas = [], []
    k = 1  # Lanczos vectors so far
    while True:
        _apply(pairs, n, basis[k - 1], w)
        scale = np.linalg.norm(w)
        alphas.append(basis[k - 1] @ w)
        for _ in range(2):  # full reorthogonalisation, twice
            w -= (basis[:k] @ w) @ basis[:k]
        beta = np.linalg.norm(w)
        if beta <= BREAKDOWN_TOL * scale:
            break
        if k == n:
            raise SpinRscError(f"Krylov space of |{sector}> did not close within {n} vectors")
        betas.append(beta)
        np.divide(w, beta, out=basis[k])
        k += 1
    if sector and k < n:
        raise SpinRscError(f"node 1's space misses one-excitation states: closed at {k} of {n}")
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    evals, s = np.linalg.eigh(tri)
    nodes = [_basis_index(node) for node in range(n + 1)]
    return evals, basis[:k, nodes].T @ s


def full_transition_amplitude(model: CouplingModel, k: int, j: int, t: float) -> complex:
    """Amplitude ``<k| exp(-i H t) |j>`` evaluated in the full 2^N space.

    ``k`` and ``j`` are single-excitation node labels, or 0 for the vacuum.
    """
    if model.n > MAX_FULL_NODES:
        raise ValueError(
            f"full-space oracle is limited to n <= {MAX_FULL_NODES}, got {model.n}"
        )
    try:
        k, j = operator.index(k), operator.index(j)  # Python and numpy integers only
    except TypeError:
        raise ValueError(f"node labels must be integers, got k={k!r}, j={j!r}") from None
    if not (0 <= k <= model.n and 0 <= j <= model.n):
        raise ValueError(f"node labels must lie in 0..{model.n}, got k={k}, j={j}")
    evals, rows = _full_spectrum(model.kind, model.n, min(j, 1))
    return complex(rows[k] @ (rows[j] * np.exp(-1j * evals * t)))


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
    """Best transfer probability ``|R a|^2`` over Haar-random unit sender vectors.

    ``R`` is ``p`` (a finite 2x2 matrix) for ``EXT_RECEIVER_NORM`` and its
    bottom row for ``LAST_NODE_ONLY``; ``mode`` may be a member or its value.
    Senders come from Marsaglia's disc: each chunk draws ``SAMPLE_CHUNK``
    points ``(u, v)`` uniform in [-1, 1)^2 (all u, then all v) from
    ``numpy.random.default_rng(seed)`` and keeps those with ``s = u^2 + v^2 < 1``,
    up to ``samples`` in all.  ``a = (sqrt(1 - s), u + i v)`` is a unit
    sender, Haar-random up to phase (``|a1|^2 = s`` is uniform on [0, 1],
    ``arg a1`` uniform and independent), and ``|R a|^2 = a^H M a`` with
    ``M = R^H R`` is the real form ``m00 + (m11 - m00) s + 2 sqrt(1 - s)
    (Re m01 u - Im m01 v)``.  The result is deterministic for a given seed.

    The form is evaluated in place on every candidate of a chunk, with the
    operations and their order of an evaluation on the kept points alone,
    so each kept value has the same bits.  A rejected candidate's value is
    NaN, which ``np.fmax`` skips: ``sqrt(1 - s)`` is NaN for ``s > 1``, and
    ``s == 1`` is set to NaN.  The last chunk stops at its last needed point.
    A ``p`` so large that ``M`` or a kept value overflows is a ``ValueError``.
    """
    try:
        samples, seed = operator.index(samples), operator.index(seed)
    except TypeError:
        raise ValueError(f"samples and seed must be integers, got {samples!r}, {seed!r}") from None
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    p = np.asarray(p, dtype=complex)
    if p.shape != (2, 2):
        raise ValueError(f"p must be a 2x2 matrix, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("p must be finite")
    r = p if TransferMode(mode) is TransferMode.EXT_RECEIVER_NORM else p[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        m = r.conj().T @ r
    if not np.isfinite(m).all():
        raise ValueError("p is too large: M = R^H R is not finite")
    m00, m11, re01, im01 = m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag
    rng = np.random.default_rng(seed)
    cand = np.empty((4, SAMPLE_CHUNK))  # rows u, v, s and sqrt(1 - s)
    inside = np.empty(SAMPLE_CHUNK, dtype=bool)
    best = 0.0
    remaining = samples
    # sqrt(1 - s) of every rejected point, and for a large M its (m11 - m00) s
    with np.errstate(over="ignore", invalid="ignore"):
        while remaining:
            rng.random(out=cand[:2])
            cand[:2] *= 2.0
            cand[:2] -= 1.0
            np.square(cand[:2], out=cand[2:])  # u^2 and v^2, as x ** 2 computes them
            np.add(cand[2], cand[3], out=cand[2])
            np.less(cand[2], 1.0, out=inside)
            count = int(np.count_nonzero(inside))
            stop = SAMPLE_CHUNK
            if count >= remaining:  # the last chunk ends at its remaining-th kept point
                stop = int(np.flatnonzero(inside)[remaining - 1]) + 1
                count = remaining
            u, v, s, w = cand[:, :stop]
            on_circle = inside[:stop]
            np.subtract(1.0, s, out=w)
            np.sqrt(w, out=w)  # NaN for s > 1
            np.equal(s, 1.0, out=on_circle)
            if on_circle.any():
                w[on_circle] = np.nan
            w *= 2.0  # from here s becomes the form's value
            u *= re01
            v *= im01
            u -= v
            w *= u
            s *= m11 - m00
            s += m00
            s += w
            best = max(best, float(np.fmax.reduce(s)))
            remaining -= count
    if not np.isfinite(best):
        raise ValueError("p is too large: |R a|^2 is not finite")
    return best
