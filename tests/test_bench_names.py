"""The package names the benchmark in ``bench/`` looks up still resolve.

``bench/spans.py`` wraps the functions in its ``TARGETS`` table and skips
any that are missing, so a renamed or deleted function would only show up
as a zero in a traced run.  The targets in ``RETIRED`` are the exception:
each names a deleted function and must stay deleted.  ``bench/workloads.py``
calls the library names listed here directly, with the argument shapes
bound below.
"""

import ast
import importlib
import inspect
from pathlib import Path

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


# Span targets whose names the package deleted; their spans read as zero
# until the benchmark drops them.  Each maps to the reason it is gone.
RETIRED = {
    ("spinrsc.oracle", "full_hamiltonian"): "the dense 2^N build only tests used; "
    "they build H from the strided and flip-index applies",
    ("spinrsc.optimize", "objective_series"): "no package caller; the scan reads "
    "amplitude_grid and the refine its own probe",
    ("spinrsc.optimize", "amplitude_series"): "the import served only objective_series",
    ("spinrsc.rsc", "amplitude_matrix"): "the protocol owns P(t0), so rsc never computes it",
    ("spinrsc.cli", "transition_amplitude"): "verify takes its four amplitudes from "
    "one amplitude_matrix call",
}


def _resolves(module_name: str, attr: str) -> bool:
    return callable(getattr(importlib.import_module(module_name), attr, None))


def test_benchmark_names_resolve_to_callables():
    targets = _span_targets()
    assert targets
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in dict.fromkeys(targets + WORKLOAD_NAMES)
        if (module_name, attr) not in RETIRED and not _resolves(module_name, attr)
    ]
    assert missing == []


def test_retired_targets_are_listed_and_really_gone():
    # a retired entry must still be a span target and must not hide a live name
    targets = _span_targets()
    assert [key for key in RETIRED if key not in targets] == []
    assert [key for key in RETIRED if hasattr(importlib.import_module(key[0]), key[1])] == []


def test_oracle_cache_clear_the_benchmark_resets_exists():
    # bench/workloads.py reaches the cache with getattr and skips the clear if
    # the name is gone, which would carry spectra from one pass to the next
    from spinrsc import oracle

    assert callable(oracle._full_spectrum.cache_clear)


def test_benchmark_call_signatures_still_bind():
    from spinrsc import optimize, oracle, propagate, rsc

    dec, protocol = object(), object()
    inspect.signature(optimize.optimal_protocol).bind(dec, with_v=True)
    inspect.signature(rsc.create_state).bind(protocol, dec, object())
    inspect.signature(rsc.beta2_coverage).bind(protocol, dec, 0.1, 0.2, 512)
    inspect.signature(propagate.amplitude_matrix).bind(dec, 1.0)
    inspect.signature(propagate.transition_amplitude).bind(dec, 8, 1, 1.0)
    inspect.signature(oracle.full_transition_amplitude).bind(object(), 8, 1, 1.0)
    inspect.signature(oracle.sample_max_transfer).bind(
        object(), oracle.TransferMode.EXT_RECEIVER_NORM, 1 << 20, 7
    )

