"""Regenerate the reference artifacts the workloads check against.

Run from the repository root, only at a commit whose results are known good:

    PYTHONPATH=src python3 bench/make_reference.py

It writes ``bench/reference/sweep.csv`` (the CLI's sweep CSV, 4..130 over
nn, all, all+v) and ``bench/reference/region_n109_step0.005.npz`` (lambda,
beta1 and beta2 of the CLI's region CSV at n = 109, step 0.005).
"""

import os
import tempfile

import numpy as np

import spinrsc.cli as cli

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def main() -> None:
    os.makedirs(HERE, exist_ok=True)
    cli.main(["sweep", "--n-min", "4", "--n-max", "130", "--models", "nn,all,all+v",
              "--out", os.path.join(HERE, "sweep.csv")])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "region.csv")
        cli.main(["region", "--n", "109", "--model", "all", "--with-v", "--step", "0.005",
                  "--out", path])
        table = np.loadtxt(path, delimiter=",", skiprows=1)
    np.savez_compressed(os.path.join(HERE, "region_n109_step0.005.npz"),
                        lam=table[:, 2], beta1=table[:, 3], beta2=table[:, 4])


if __name__ == "__main__":
    main()
