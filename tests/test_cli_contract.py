"""The CLI contract on drawn argv: exit 0, 1 or 2, one error line, outputs that parse.

Every subcommand runs in-process through ``cli.main``.  Chain lengths come
from [-2, 40]; times, steps, angles and thresholds come from edge strings
(zero, signed zero, subnormal-small and huge values, nan, inf, text and the
nearest doubles outside each range) mixed with in-range draws.  No draw
starts heavy work: ``verify`` stays at n <= 12, a sweep spans a few lengths
and a region step is 0.05 or coarser unless the step is refused.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrsc.cli import main

PROB_TOL = 1e-12
EDGES = ["0", "-0", "1e-300", "1e308", "nan", "inf", "-inf", "abc"]


def _often(usual, rare):
    """``usual`` about three draws in four, else ``rare``, so most runs get to exit 0."""
    return st.integers(0, 3).flatmap(lambda k: usual if k else rare)


def _mixed(edges, low, high):
    """An argv string: a float drawn from ``[low, high]`` or an edge case."""
    return _often(st.floats(low, high).map(repr), st.sampled_from(EDGES + edges))


TIMES = _mixed(["1e12", "-1e12", "1.0000000000000002e12", "-1.0000000000000002e12"], -80.0, 80.0)
UNIT = _mixed(["1", "1.0000000000000002", "-5e-324"], 0.0, 1.0)
STEPS = _mixed(["0.5", "0.5000000000000001", "-5e-324", "0.000999", "1e-7"], 0.05, 0.5)
LENGTHS = st.integers(-2, 40)
MODELS = _often(st.sampled_from(["nn", "all"]), st.just("xy"))
MODEL_LISTS = _often(st.sampled_from(["nn", "all,all+v", "nn,all,all+v"]),
                     st.sampled_from(["", "x"]))


@st.composite
def _argv(draw, command):
    """One argv for ``command``; ``{out}`` stands for the output path.

    A float goes in as ``--flag=value`` or as ``--flag value``, so a negative
    value such as ``-5e-324`` or ``-inf`` also comes as a token of its own.
    """

    def real(flag, values):
        value = draw(values)
        return [f"--{flag}={value}"] if draw(st.booleans()) else [f"--{flag}", value]

    n = draw(st.integers(-2, 12) if command == "verify" else LENGTHS)
    chain = [command, "--n", str(n), "--model", draw(MODELS)]
    with_v = ["--with-v"] if draw(st.booleans()) else []
    out = ["--out", draw(_often(st.just("{out}"), st.just("{out}/missing.csv")))]
    n_max = n + draw(st.integers(-1, 3))  # a sweep spans at most four lengths
    lengths = ["--n-min", str(n), "--n-max", str(n_max), "--models", draw(MODEL_LISTS)]
    angles = [arg for name in ("alpha1", "alpha2", "phi1", "phi2") for arg in real(name, UNIT)]
    return {
        "hamiltonian": chain,
        "amplitudes": [*chain, *real("t", TIMES)],
        "optimize": [*chain, *with_v],
        "sweep": [command, *lengths, *out],
        "critical-length": [command, *real("threshold", UNIT), *lengths],
        "region": [*chain, *with_v, *real("step", STEPS), *out],
        "create": [*chain, *with_v, *angles],
        "verify": [*chain, *real("t", TIMES)],
    }[command]


def _run(argv):
    """``(exit code, stdout, stderr)`` of ``cli.main``; any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _is_probability(x: float) -> bool:
    return 0.0 <= x <= 1.0 + PROB_TOL


def _complex(value) -> np.ndarray:
    """A rendered complex array, ``[re, im]`` at the innermost level, as numbers."""
    pairs = np.array(value, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _check_output(command, stdout, out_path):
    """Parse a successful run's artifact and check its probabilities and states."""
    if command == "hamiltonian":
        h = np.array([[float(x) for x in line.split(",")] for line in stdout.splitlines()])
        assert h.shape[0] == h.shape[1] >= 4 and np.array_equal(h, h.T)
    elif command == "amplitudes":
        p = _complex(list(json.loads(stdout).values())).reshape(2, 2)
        assert all(_is_probability(x) for x in np.sum(np.abs(p) ** 2, axis=0))
    elif command == "optimize":
        data = json.loads(stdout)
        assert _is_probability(data["r_max_sq"])
        assert all(_is_probability(lam**2) for lam in data["lam"])
        assert abs(np.linalg.norm(_complex(data["a_opt"])) - 1.0) <= PROB_TOL
    elif command == "create":
        data = json.loads(stdout)
        rho = _complex(data["rho"])
        assert np.max(np.abs(rho - rho.conj().T)) <= PROB_TOL
        assert abs(np.trace(rho) - 1.0) <= PROB_TOL
        assert np.min(np.linalg.eigvalsh(rho)) >= -PROB_TOL
        assert 0.5 <= data["lambda"] <= 1.0
    elif command == "verify":
        label, value = stdout.split()
        assert label == "max_deviation" and float(value) <= 1e-10
    elif command == "critical-length":
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == ["model", "n_critical"]
        assert all(value == "none" or int(value) >= 4 for _, value in rows[1:])
    else:
        rows = list(csv.DictReader(io.StringIO(Path(out_path).read_text())))
        assert rows
        for row in rows:
            values = {key: float(value) for key, value in row.items() if key != "model"}
            if command == "sweep":
                assert _is_probability(values["r_max_sq"])
            else:
                assert 0.5 <= values["lambda"] <= 1.0


COMMANDS = [
    "hamiltonian", "amplitudes", "optimize", "sweep", "critical-length", "region", "create",
    "verify",
]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_contract_on_drawn_argv(command, data):
    argv = data.draw(_argv(command), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        out_path = str(Path(tmp) / "out.csv")
        code, stdout, stderr = _run([arg.replace("{out}", out_path) for arg in argv])
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr
        assert "expected one argument" not in stderr  # every drawn flag has its value
        if code == 1:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        if code == 0:
            assert stderr == ""
            _check_output(command, stdout, out_path)
