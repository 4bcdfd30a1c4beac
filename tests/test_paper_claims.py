"""The paper's physics claims as checked facts, not only as artifact bits.

A receiver state whose node N is excited with probability p has its larger
eigenvalue ``lambda >= max(p, 1 - p)``, and ``p <= r_max_sq``: the SVD bound
with the receiver-side unitary V, the bottom-row norm without it.  So every
creatable state has ``lambda >= max(1/2, 1 - r_max_sq)``, a floor that ties
the region artifacts to the sweep's ``r_max_sq``, and the optimal sender
with no vacuum weight reaches ``lambda = max(r_max_sq, 1 - r_max_sq)``.

For nearest-neighbour chains V gains nothing: from n = 5 on, ``r_max_sq``
with and without it agree to rounding.  Only n = 4 differs.  This is why
the sweep has no ``nn+v`` model.
"""

import cmath
import csv
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from spinrsc import (
    ControlParams,
    Coupling,
    CouplingModel,
    SweepModel,
    chain_decomposition,
    create_state,
    lam_plus_sq,
    optimal_protocol,
)
from spinrsc import optimize, rsc

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# create_state accepts a sender norm up to 1 + CONSTRAINT_TOL, so a receiver
# excitation probability, and with it 1 - lambda, may exceed its bound by that much
FLOOR_TOL = rsc.CONSTRAINT_TOL


@functools.lru_cache(maxsize=None)
def _dec(kind: Coupling, n: int):
    return chain_decomposition(CouplingModel(kind, n))


@functools.lru_cache(maxsize=None)
def _protocol(kind: Coupling, n: int, with_v: bool):
    return optimal_protocol(_dec(kind, n), with_v=with_v)


def _floor(r_max_sq: float) -> float:
    return max(0.5, 1.0 - r_max_sq)


def _golden_lambdas(name: str) -> np.ndarray:
    with open(GOLDEN / name, newline="") as handle:
        return np.array([float(row["lambda"]) for row in csv.DictReader(handle)])


@pytest.mark.parametrize(
    "lambdas, kind, n, with_v",
    [
        (lambda: _golden_lambdas("region_nn_n20_step0.02.csv"), Coupling.NEAREST_NEIGHBOR, 20,
         False),
        (lambda: _golden_lambdas("region_all_n37_step0.02.csv"), Coupling.ALL_NODE, 37, False),
        (lambda: np.load(ROOT / "bench" / "reference" / "region_n109_step0.005.npz")["lam"],
         Coupling.ALL_NODE, 109, True),
    ],
    ids=["golden-nn-n20", "golden-all-n37", "bench-all+v-n109"],
)
def test_region_artifacts_respect_the_lambda_floor(lambdas, kind, n, with_v):
    lam = lambdas()
    floor = _floor(_protocol(kind, n, with_v).r_max_sq)
    assert lam.size > 2500
    assert lam.min() >= floor - FLOOR_TOL, (lam.min(), floor)


@pytest.mark.parametrize(
    "kind, n", [(Coupling.ALL_NODE, 17), (Coupling.ALL_NODE, 37), (Coupling.ALL_NODE, 109),
                (Coupling.NEAREST_NEIGHBOR, 34)],
)
@pytest.mark.parametrize("with_v", [False, True])
def test_optimal_sender_reaches_the_lambda_floor(kind, n, with_v):
    # the control angles of a_opt with no vacuum weight (alpha1 = 0) put the
    # excitation probability r_max_sq on node N and leave no coherence
    protocol = _protocol(kind, n, with_v)
    a1, a2 = protocol.a_opt.tolist()
    alpha2 = math.atan2(abs(a2), abs(a1)) / (0.5 * math.pi)
    phi1, phi2 = ((cmath.phase(a) / (2.0 * math.pi)) % 1.0 for a in (a1, a2))
    _, params = create_state(protocol, _dec(kind, n), ControlParams(0.0, alpha2, phi1, phi2))
    r = protocol.r_max_sq
    assert params.lam == pytest.approx(max(r, 1.0 - r), abs=1e-12)


def test_receiver_unitary_gains_nothing_for_nearest_neighbour_chains(full_sweep):
    rows, _ = full_sweep
    without = {row.n: row for row in rows if row.model is SweepModel.NN}
    assert list(without) == list(range(4, 131))
    # the SVD objective of every nn chain in one lock-step search, as sweep runs it
    searches = [
        search
        for n in without
        for search in optimize._refine_rows(
            chain_decomposition(CouplingModel(Coupling.NEAREST_NEIGHBOR, n)), [lam_plus_sq]
        )
    ]
    with_v = dict(zip(without, optimize._refine(searches)))
    gaps = {n: abs(with_v[n][1] / row.r_max_sq - 1.0) for n, row in without.items()}
    assert max(gap for n, gap in gaps.items() if n >= 5) <= 1e-12
    # n = 4 is the exception: V reaches 1 against 0.974 (2.7e-2 relative), 0.33 earlier
    assert gaps[4] > 1e-2
    assert with_v[4][0] < without[4].t0 - 0.3
