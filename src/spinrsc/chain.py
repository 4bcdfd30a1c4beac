"""Coupling matrices and one-excitation Hamiltonians for homogeneous chains.

Couplings are dimensionless, measured in units of the coupling between the
first two nodes, so ``d[0, 1] == 1`` by construction and time is measured in
the matching inverse-energy unit.  Two coupling graphs are supported:
nearest-neighbour only, and all-node couplings decaying with the cube of the
internode distance.  A validated ``CouplingModel`` names each chain, and
every matrix here is built from one, so no function takes a raw matrix.

Restricted to the single-excitation sector, the chain Hamiltonian is the
real symmetric matrix ``h[k, j] = d[k, j] / 2`` with a zero diagonal; the
vacuum carries energy zero and never mixes in, so it is not stored.
``chain_decomposition`` is the one way from a model to its spectrum.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError

RESIDUAL_TOL = 1e-10

__all__ = [
    "Coupling",
    "CouplingModel",
    "SpectralDecomposition",
    "build_couplings",
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
                f"chain length must be at least 4 (got {self.n}): sender nodes 1, 2 "
                "and extended-receiver nodes N-1, N must be disjoint"
            )


def build_couplings(model: CouplingModel) -> np.ndarray:
    """Dimensionless coupling matrix for ``model``.

    All-node chains couple every pair with ``|i - j|**-3``; nearest-neighbour
    chains couple adjacent nodes with 1.  Either way the diagonal is zero and
    ``d[0, 1] == 1`` exactly.
    """
    idx = np.arange(model.n, dtype=float)
    dist = np.abs(idx[:, None] - idx[None, :])
    if model.kind is Coupling.NEAREST_NEIGHBOR:
        return (dist == 1.0).astype(float)
    np.fill_diagonal(dist, np.inf)
    return dist**-3


def build_hamiltonian(model: CouplingModel) -> np.ndarray:
    """One-excitation Hamiltonian of ``model``: half the coupling matrix, zero diagonal."""
    return build_couplings(model) / 2.0


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of the chain.

    ``vectors[:, m]`` is the eigenvector of ``energies[m]``.  All time evolution
    in the package runs through a decomposition, which owns the P weights too.
    """

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.energies.shape[0]

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Spectral weights ``v[k, m] v[j, m]`` of the four P entries, shape ``(4, n)``.

        Rows are ``P[0, 0], P[0, 1], P[1, 0], P[1, 1]``: destinations (N-1, N),
        sources (1, 2).  Read-only, formed on first use and then kept.
        """
        if self.n < 4:
            raise ValueError("sender and extended receiver overlap for n < 4")
        w = self.vectors[[-2, -2, -1, -1]] * self.vectors[[0, 1, 0, 1]]
        w.flags.writeable = False
        return w


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
