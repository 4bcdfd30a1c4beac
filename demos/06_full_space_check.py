#!/usr/bin/env python3
"""Cross-check the fast amplitudes against a brute-force simulation.

The package computes amplitudes in the (N+1)-dimensional single-excitation
basis.  Here the same numbers are recomputed in the full 2^N space.  Its
Hamiltonian acts on the bitmask basis of all 2^N states, one element d_ij / 2
for every state pair that swaps an excitation between nodes i and j, with no
excitation-number shortcut and no dense matrix.  Lanczos from the source
state runs until its Krylov space closes, which the small tridiagonal
eigensolve then evaluates exactly at every time.  The best sampled transfer
probability is then compared against the singular-value bound it can never
exceed.
"""

from spinrsc import (
    Coupling,
    CouplingModel,
    TransferMode,
    amplitude_matrix,
    chain_decomposition,
    full_transition_amplitude,
    optimal_protocol,
    sample_max_transfer,
    transition_amplitude,
)


def main():
    n = 6
    model = CouplingModel(Coupling.ALL_NODE, n)
    dec = chain_decomposition(model)

    worst = 0.0
    for t in (0.9, 3.3, 7.1):
        for k in (n - 1, n):
            for j in (1, 2):
                fast = transition_amplitude(dec, k, j, t)
                full = full_transition_amplitude(model, k, j, t)
                worst = max(worst, abs(fast - full))
    print(f"all-node n = {n}: worst |fast - full-space| amplitude deviation: {worst:.2e}")

    protocol = optimal_protocol(dec, with_v=True)
    p = amplitude_matrix(dec, protocol.t0)
    sampled = sample_max_transfer(p, TransferMode.EXT_RECEIVER_NORM, 10**6, seed=0)
    print(f"best of 1e6 random sender states: {sampled:.8f}")
    print(f"singular-value bound:             {protocol.r_max_sq:.8f}")
    print(f"gap (always >= 0):                {protocol.r_max_sq - sampled:.2e}")

    amp = full_transition_amplitude(model, 0, 0, 5.0)
    print(f"vacuum amplitude after evolving: {amp:.12f} (the vacuum is stationary)")


if __name__ == "__main__":
    main()
