#!/usr/bin/env python3
"""Build chain Hamiltonians and inspect the one-excitation spectrum.

The chain couples node pairs either nearest-neighbour only or all-to-all
with an inverse-cube falloff; the single-excitation Hamiltonian is half the
coupling matrix.  For the nearest-neighbour chain the spectrum is known in
closed form, which makes a nice sanity check of the eigensolver.
"""

import numpy as np

from spinrsc import (
    Coupling,
    CouplingModel,
    build_hamiltonian,
    chain_decomposition,
)


def main():
    n = 8
    for kind in Coupling:
        model = CouplingModel(kind, n)
        h = build_hamiltonian(model)
        d = 2 * h  # the couplings: h is half of them
        dec = chain_decomposition(model)
        print(f"--- {kind.value} chain, n = {n} ---")
        print(f"coupling of the first pair      d[1,2] = {d[0, 1]:.6f}")
        print(f"coupling across the whole chain d[1,{n}] = {d[0, n - 1]:.6f}")
        print(f"energies: {np.array2string(dec.energies, precision=4)}")
        residual = np.max(np.abs(h @ dec.vectors - dec.vectors * dec.energies))
        print(f"eigensolver residual: {residual:.2e}\n")

    # open chain with hopping 1/2: energies are cos(m pi / (n + 1))
    dec = chain_decomposition(CouplingModel(Coupling.NEAREST_NEIGHBOR, n))
    analytic = np.sort(np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    print("nearest-neighbour spectrum vs the analytic cosines:")
    print(f"max deviation: {np.max(np.abs(dec.energies - analytic)):.2e}")


if __name__ == "__main__":
    main()
