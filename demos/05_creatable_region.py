#!/usr/bin/env python3
"""Map the receiver states creatable through a chain at its critical length.

Sweeping the two sender angles over a grid (with both phases zero) and
running the full creation pipeline yields the (lam, beta1) coordinates of
every reachable receiver state.  At n = 109 the rotated all-node protocol
still reaches lam = 1/2 (any eigenvalue pair creatable) while the
nearest-neighbour chain has shrunk to a small cap near lam = 1.
"""

from spinrsc import (
    Coupling,
    CouplingModel,
    chain_decomposition,
    optimal_protocol,
    region_grid,
)


def summarise(label, grid):
    lam = grid.lam  # indexed [alpha1, alpha2]
    print(f"{label}: lam range [{lam.min():.4f}, {lam.max():.4f}] over {lam.size} grid points")
    print("  per alpha1 line (these are the solid line families of a region plot):")
    for alpha1, line in zip(grid.alphas, lam):
        print(f"    alpha1 = {alpha1:3.1f}: lam in [{line.min():.4f}, {line.max():.4f}]")


def main():
    n = 109
    dec = chain_decomposition(CouplingModel(Coupling.ALL_NODE, n))
    protocol = optimal_protocol(dec, with_v=True)
    print(f"all-node chain with receiver rotation, n = {n}, "
          f"R^2max = {protocol.r_max_sq:.6f}\n")
    summarise("all-node + rotation", region_grid(protocol, 0.1))

    dec_nn = chain_decomposition(CouplingModel(Coupling.NEAREST_NEIGHBOR, n))
    protocol_nn = optimal_protocol(dec_nn, with_v=False)
    print()
    summarise("nearest-neighbour", region_grid(protocol_nn, 0.1))
    print("\n(the CLI `spinrsc region` writes the same grid as CSV for plotting)")


if __name__ == "__main__":
    main()
