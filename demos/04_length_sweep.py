#!/usr/bin/env python3
"""Sweep chain lengths and find how far each model keeps its guarantees.

Three variants are compared: nearest-neighbour coupling, all-node coupling
without the receiver-side rotation, and all-node coupling with it.  Two
thresholds matter: 0.9 (high-probability transfer) and 0.5 (every receiver
eigenvalue creatable).  The default run up to n = 130 reproduces the
critical lengths 34 / 37 / 109 at threshold 0.5 and 6 / 4 / 17 at 0.9.
"""

import sys

from spinrsc import SweepModel, critical_length, sweep


def main(n_max: int = 130):
    rows = sweep(range(4, n_max + 1), list(SweepModel))
    print(f"{'n':>4}  " + "  ".join(f"{m.value:>10}" for m in SweepModel))
    by = {(r.model, r.n): r for r in rows}
    for n in range(4, n_max + 1, max(1, (n_max - 4) // 12)):
        cells = "  ".join(f"{by[(m, n)].r_max_sq:10.6f}" for m in SweepModel)
        print(f"{n:>4}  {cells}")

    for threshold in (0.9, 0.5):
        print(f"\nlargest n with best transfer probability >= {threshold}:")
        for result in critical_length(rows, threshold):
            label = "none in range" if result.n_critical is None else result.n_critical
            print(f"  {result.model.value:>6}: {label}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 130)
