"""The package names the benchmark in ``bench/`` looks up still resolve.

``bench/spans.py`` wraps the functions in its ``TARGETS`` table and skips
any that are missing, so a renamed or deleted function would only show up
as a zero in a traced run.  ``bench/workloads.py`` calls the library names
listed here directly, with the argument shapes bound below.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

WORKLOAD_NAMES = [
    ("spinrsc.chain", "Coupling"),
    ("spinrsc.chain", "CouplingModel"),
    ("spinrsc.chain", "chain_decomposition"),
    ("spinrsc.cli", "main"),
    ("spinrsc.rsc", "ControlParams"),
    ("spinrsc.rsc", "create_state"),
    ("spinrsc.rsc", "beta2_coverage"),
    ("spinrsc.rsc", "receiver_from_params"),
    ("spinrsc.optimize", "optimal_protocol"),
    ("spinrsc.propagate", "amplitude_matrix"),
    ("spinrsc.propagate", "transition_amplitude"),
    ("spinrsc.oracle", "full_transition_amplitude"),
    ("spinrsc.oracle", "sample_max_transfer"),
]


def _span_targets():
    """``(module, attr)`` of every ``TARGETS`` entry, read from the source without running it."""
    tree = ast.parse(SPANS.read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    return [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]


def test_benchmark_names_resolve_to_callables():
    targets = _span_targets()
    assert targets
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in dict.fromkeys(targets + WORKLOAD_NAMES)
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_benchmark_call_signatures_still_bind():
    from spinrsc import optimize, oracle, propagate, rsc

    dec, protocol = object(), object()
    inspect.signature(optimize.optimal_protocol).bind(dec, with_v=True)
    inspect.signature(rsc.create_state).bind(protocol, dec, object())
    inspect.signature(rsc.beta2_coverage).bind(protocol, dec, 0.1, 0.2, 512)
    inspect.signature(propagate.amplitude_matrix).bind(dec, 1.0)
    inspect.signature(propagate.transition_amplitude).bind(dec, 8, 1, 1.0)
    inspect.signature(oracle.full_transition_amplitude).bind(object(), 8, 1, 1.0)
    inspect.signature(oracle.full_hamiltonian).bind(object())
    inspect.signature(oracle.sample_max_transfer).bind(
        object(), oracle.TransferMode.EXT_RECEIVER_NORM, 1 << 20, 7
    )


def test_full_hamiltonian_returns_the_array_the_build_span_measures():
    # the benchmark's oracle.build span reads ``result.nbytes``
    from spinrsc import chain, oracle

    h = oracle.full_hamiltonian(chain.CouplingModel(chain.Coupling.ALL_NODE, 4))
    assert isinstance(h, np.ndarray)
    assert h.nbytes == 16 * 16 * 8
