#!/usr/bin/env python3
"""Watch an excitation travel from the sender to the far end of the chain.

Prints the probability of finding the excitation on the last two nodes as a
function of time, given that it started on node 1.  The probability rises
sharply when the wavefront arrives, and the total over all nodes stays 1.
"""

import cmath
import math

import numpy as np

from spinrsc import (
    Coupling,
    CouplingModel,
    chain_decomposition,
    transition_amplitude,
)
from spinrsc.propagate import amplitude_grid


def main():
    n = 12
    dec = chain_decomposition(CouplingModel(Coupling.ALL_NODE, n))
    step, count = 2.0, 13  # t = 0, 2, ..., 2 n
    series = amplitude_grid(dec, step, count)

    print(f"all-node chain, n = {n}; excitation starts on node 1")
    print(f"{'t':>6}  {'|p_(N-1)1|^2':>12}  {'|p_N1|^2':>10}")
    for i, t in enumerate(step * np.arange(count)):
        p_nm1 = abs(series[0, 0, i]) ** 2
        p_n = abs(series[1, 0, i]) ** 2
        print(f"{t:6.1f}  {p_nm1:12.6f}  {p_n:10.6f}")

    t = 1.7
    total = sum(abs(transition_amplitude(dec, k, 1, t)) ** 2 for k in range(1, n + 1))
    print(f"\nprobability over all nodes at t = {t}: {total:.12f} (unitarity)")

    amp = transition_amplitude(dec, n, 1, 0.75 * n)
    r, chi = abs(amp), (cmath.phase(amp) / (2.0 * math.pi)) % 1.0
    print(f"polar form of p_N1 at t = {0.75 * n}: r = {r:.6f}, phase = {chi:.6f} turns")


if __name__ == "__main__":
    main()
