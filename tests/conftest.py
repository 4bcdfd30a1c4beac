"""Fixtures shared by several test modules."""

import time

import pytest

from spinrsc import SweepModel, sweep


@pytest.fixture(scope="session")
def full_sweep():
    """The paper's sweep n = 4..130 over every model, and its wall time in seconds."""
    start = time.perf_counter()
    rows = sweep(range(4, 131), list(SweepModel))
    elapsed = time.perf_counter() - start
    return rows, elapsed
