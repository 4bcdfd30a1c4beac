"""One-excitation Hamiltonians of homogeneous chains and their spectra.

Couplings ``d`` are dimensionless, in units of the coupling between the
first two nodes, and time is measured in the matching inverse-energy unit.
Two coupling graphs are supported: nearest-neighbour only, and all-node
couplings decaying with the cube of the internode distance.  A validated
``CouplingModel`` names each chain, and the one matrix here is built from
one, so no function takes a raw matrix.

Restricted to the single-excitation sector, the XY chain Hamiltonian is the
real symmetric matrix ``h[k, j] = d[k, j] / 2`` with a zero diagonal, so
``h[0, 1] == 1/2``; the vacuum carries energy zero and never mixes in, so it
is not stored.  ``chain_decomposition`` is the one way from a model to its
spectrum.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError

RESIDUAL_TOL = 1e-10

__all__ = [
    "Coupling",
    "CouplingModel",
    "SpectralDecomposition",
    "build_hamiltonian",
    "chain_decomposition",
]


class Coupling(enum.Enum):
    """Which node pairs of the chain interact."""

    NEAREST_NEIGHBOR = "nn"
    ALL_NODE = "all"


@dataclass(frozen=True)
class CouplingModel:
    """A homogeneous chain: coupling kind (a ``Coupling`` or its value) plus chain length."""

    kind: Coupling
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", Coupling(self.kind))
        try:
            operator.index(self.n)  # Python and numpy integers only
        except TypeError:
            raise ValueError(f"chain length must be an integer, got {self.n!r}") from None
        if self.n < 4:
            raise ValueError(
                f"chain length must be at least 4 (got {self.n}): nodes 1, 2 and "
                "N-1, N must be disjoint"
            )


def build_hamiltonian(model: CouplingModel) -> np.ndarray:
    """One-excitation Hamiltonian of ``model``: half the coupling matrix, zero diagonal.

    All-node chains couple every pair with ``|i - j|**-3``; nearest-neighbour
    chains couple adjacent nodes with 1.  Either way ``h[0, 1] == 1/2`` exactly.
    The matrix is Toeplitz, ``h[i, j] = table[|i - j|]``, so each distance's
    coupling is computed once.
    """
    n = model.n
    dist = np.arange(n, dtype=float)
    if model.kind is Coupling.NEAREST_NEIGHBOR:
        table = (dist == 1.0) / 2.0
    else:
        dist[0] = np.inf  # no self-coupling: inf**-3 == 0
        table = dist**-3 / 2.0
    # h[i, j] is item n-1-i+j of (t[n-1], ..., t[1], t[0], t[1], ..., t[n-1])
    mirrored = np.concatenate([table[:0:-1], table])
    step = mirrored.itemsize
    h = np.ndarray((n, n), buffer=mirrored, offset=(n - 1) * step, strides=(-step, step))
    return h.copy()


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of the chain.

    ``vectors[:, m]`` is the eigenvector of ``energies[m]``.  All time evolution
    in the package runs through a decomposition.
    """

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.energies.shape[0]


def chain_decomposition(model: CouplingModel) -> SpectralDecomposition:
    """Spectral decomposition of the one-excitation Hamiltonian for ``model``.

    Eigenvalues come out ascending and every eigenvector is flipped so that
    its first non-negligible component is positive, which keeps emitted
    artifacts reproducible across runs.  Raises ``EigensolverError`` when
    the eigensolver's residual exceeds ``RESIDUAL_TOL``.
    """
    h = build_hamiltonian(model)
    energies, vectors = np.linalg.eigh(h)
    columns = np.arange(vectors.shape[1])
    lead = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), columns]
    vectors[:, lead < 0.0] *= -1.0
    residual = float(np.max(np.abs(h @ vectors - vectors * energies)))
    if residual > RESIDUAL_TOL:
        raise EigensolverError(
            f"eigendecomposition residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    energies.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralDecomposition(energies=energies, vectors=vectors)
