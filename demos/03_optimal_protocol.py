#!/usr/bin/env python3
"""Derive the optimal transfer protocol for one chain.

The 2x2 transition matrix P maps sender amplitudes to arrival amplitudes on
the last two nodes.  Its singular value decomposition hands us everything at
once: the best sender state (dominant right singular vector), the best
transfer probability (largest singular value squared) and the receiver-side
unitary that afterwards concentrates the excitation on the last node.
"""

import cmath
import math

import numpy as np

from spinrsc import (
    ControlParams,
    Coupling,
    CouplingModel,
    chain_decomposition,
    create_state,
    optimal_protocol,
)


def main():
    n = 20
    dec = chain_decomposition(CouplingModel(Coupling.ALL_NODE, n))

    plain = optimal_protocol(dec, with_v=False)
    rotated = optimal_protocol(dec, with_v=True)
    print(f"all-node chain, n = {n}")
    print(f"best |f_N|^2 without receiver rotation: {plain.r_max_sq:.6f} at t0 = {plain.t0:.4f}")
    print(f"best transfer with receiver rotation:   {rotated.r_max_sq:.6f} at t0 = {rotated.t0:.4f}")

    a1, a2 = rotated.a_opt.tolist()
    print(f"optimal sender amplitudes: a1 = {a1:.4f}, a2 = {a2:.4f}")
    print(f"singular values of P(t0): {rotated.lam_minus:.6f}, {rotated.lam_plus:.6f}")

    # run the pipeline at the optimum: no vacuum weight and a = a_opt, whose
    # control angles are its weights' split and the phases in turns
    alpha2 = math.atan2(abs(a2), abs(a1)) / (0.5 * math.pi)
    phi1, phi2 = ((cmath.phase(a) / (2.0 * math.pi)) % 1.0 for a in (a1, a2))
    rho, _ = create_state(rotated, dec, ControlParams(0.0, alpha2, phi1, phi2))
    print("receiver state with the optimal sender and rotation:")
    print(np.array_str(rho.real, precision=6, suppress_small=True))
    print(f"expected diag(1 - R^2, R^2) with R^2 = {rotated.r_max_sq:.6f}")


if __name__ == "__main__":
    main()
